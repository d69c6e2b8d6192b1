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

`fixed_points` solves both systems by fixed-point iteration (contraction
factor at most 1 - lam) on one signed kernel of `model.interaction_kernel`,
within ten times the samplers' step bound `perfect.default_max_depth(lam)`,
and `limits` reduces them to the triple.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .inversion import InversionResult, invert_triple
from .model import Environment, ModelParams, interaction_kernel
from .perfect import default_max_depth

FIXED_POINT_TOL = 1e-12


@dataclass(frozen=True)
class TheoreticalLimits:
    """Limits of the three trajectory statistics, theta fixed: m_inf and v_inf
    exact, w_inf the leading-order term of the long-run variance."""

    m_inf: float
    v_inf: float
    w_inf: float


def _iterate(apply_map, x0: np.ndarray, lam: float) -> np.ndarray:
    """Fixed-point iteration x <- F(x), contracting by 1 - lam a step, within
    ten times the samplers' step bound `default_max_depth(lam)`.  At lam = 1
    the map is constant, so its first step is a fixed point."""
    max_iter = 10 * default_max_depth(lam)
    x = x0
    for _ in range(max_iter):
        x_next = apply_map(x)
        change = float(np.max(np.abs(x_next - x)))
        x = x_next
        if change < FIXED_POINT_TOL:
            return x
    raise RuntimeError(f"fixed-point iteration did not converge in {max_iter} steps")


def fixed_points(env: Environment,
                 params: ModelParams) -> tuple[np.ndarray, np.ndarray]:
    """(m, c): the per-site stationary firing probabilities m and the
    resolvent column sums c = 1 + (1-lam) A^T c (|c_i| <= 1/lam), each the
    first iterate whose step is below FIXED_POINT_TOL, on one signed kernel."""
    base, signed, coef = interaction_kernel(env, params)
    m_vec = _iterate(lambda x: base + coef * (signed @ x),
                     np.full(env.n, params.mu), params.lam)
    c_vec = _iterate(lambda x: 1.0 + coef * (x @ signed), np.ones(env.n), params.lam)
    return m_vec, c_vec


def limits(env: Environment, params: ModelParams) -> TheoreticalLimits:
    """(m_inf, v_inf, w_inf) for the given environment; see the module doc."""
    m_vec, c_vec = fixed_points(env, params)
    m_inf = float(m_vec.mean())
    dev = m_vec - m_inf
    v_inf = float(dev @ dev)
    w_inf = float(np.mean(c_vec * c_vec * (m_vec - m_vec * m_vec)))
    return TheoreticalLimits(m_inf=m_inf, v_inf=v_inf, w_inf=w_inf)


def limit_inversion(lim: TheoreticalLimits, r_plus: float) -> InversionResult:
    """Parameters recovered from an environment's exact limits."""
    return invert_triple(lim.m_inf, lim.v_inf, lim.w_inf, r_plus)
