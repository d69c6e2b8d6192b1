"""Exact long-run statistics for one fixed environment.

For a realized graph theta, the per-site stationary means solve the linear
fixed point

    m[i] = mu + (1-lam)/n * ( sum_{j excitatory} theta[i,j] m[j]
                            + sum_{j inhibitory} theta[i,j] (1 - m[j]) )

and the column-sum vector of the resolvent solves

    c = 1 + (1-lam) * A^T c,   A[i,j] = +/- theta[i,j] / n

(sign by the column's population).  From these, m_inf and v_inf are the
exact long-time limits of m_hat and v_hat.  w_inf = mean(c^2 m (1 - m)) is
only the leading-order term of the long-run variance that w_hat estimates:
it leaves out the variance of each site's firing probability, so at n = 1 it
reads beta (1 - beta) / lam^2 against the exact beta (1 - beta) (2 - lam) / lam,
and the relative gap shrinks about as 1/n (ROADMAP.md, open item 2).  Pushing
the triple through the inversion pipeline gives the environment-level
parameter estimates.

Both systems are solved by fixed-point iteration (contraction factor at most
1 - lam) on the signed kernel of `model.interaction_kernel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .inversion import InversionResult, invert_triple
from .model import Environment, InputError, ModelParams, interaction_kernel

FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class TheoreticalLimits:
    """Limits of the three trajectory statistics, theta fixed: m_inf and v_inf
    exact, w_inf the leading-order term of the long-run variance."""

    m_inf: float
    v_inf: float
    w_inf: float


def _iterate(apply_map, x0: np.ndarray, lam: float) -> np.ndarray:
    """Fixed-point iteration x <- F(x), geometric convergence for lam > 0."""
    if lam >= 1.0:
        return apply_map(x0)
    if 1.0 - lam == 1.0:
        raise InputError(f"lam={lam!r} is too small: 1 - lam rounds to 1, so the "
                         f"iteration has no step bound")
    max_iter = 10 * ceil(log(FIXED_POINT_TOL) / log(1.0 - lam))
    x = x0
    for _ in range(max_iter):
        x_next = apply_map(x)
        change = float(np.max(np.abs(x_next - x)))
        x = x_next
        if change < FIXED_POINT_TOL:
            return x
    raise RuntimeError(f"fixed-point iteration did not converge in {max_iter} steps")


def solve_m(env: Environment, params: ModelParams) -> np.ndarray:
    """Per-site stationary firing probabilities; last step < FIXED_POINT_TOL."""
    return _solve_m(interaction_kernel(env, params), params)


def solve_c(env: Environment, params: ModelParams) -> np.ndarray:
    """Resolvent column sums: c = 1 + (1-lam) A^T c; |c_i| <= 1/lam."""
    return _solve_c(interaction_kernel(env, params), params)


def _solve_m(kernel, params: ModelParams) -> np.ndarray:
    base, signed, coef = kernel

    def apply_map(x):
        return base + coef * (signed @ x)

    return _iterate(apply_map, np.full(len(base), params.mu), params.lam)


def _solve_c(kernel, params: ModelParams) -> np.ndarray:
    _, signed, coef = kernel

    def apply_map(x):
        return 1.0 + coef * (x @ signed)

    return _iterate(apply_map, np.ones(len(signed)), params.lam)


def limits(env: Environment, params: ModelParams) -> TheoreticalLimits:
    """(m_inf, v_inf, w_inf) for the given environment; see the module doc."""
    kernel = interaction_kernel(env, params)   # built once for both solves
    m_vec, c_vec = _solve_m(kernel, params), _solve_c(kernel, params)
    m_inf = float(m_vec.mean())
    dev = m_vec - m_inf
    v_inf = float(dev @ dev)
    w_inf = float(np.mean(c_vec * c_vec * (m_vec - m_vec * m_vec)))
    return TheoreticalLimits(m_inf=m_inf, v_inf=v_inf, w_inf=w_inf)


def limit_inversion(lim: TheoreticalLimits, r_plus: float) -> InversionResult:
    """Parameters recovered from an environment's exact limits."""
    return invert_triple(lim.m_inf, lim.v_inf, lim.w_inf, r_plus)
