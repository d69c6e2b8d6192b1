"""The exact and closed-form probes that `densigraph oracle` prints.

Everything here is deliberately simple and shares no code with the samplers,
reading only the model: exact stationary distributions by power iteration
over the full 2^n state space (n <= 12), the closed-form probability that
two backward walks coalesce, and the binomial-mixture moment estimator for
the inverse density 1/p used as a sanity benchmark.
"""

from __future__ import annotations

from math import exp, log1p

import numpy as np

from .model import Environment, InputError, ModelParams, interaction_kernel

MAX_EXACT_SITES = 12

STATIONARY_TOL = 1e-13
STATIONARY_MAX_ITER = 100_000


def transition_matrix(env: Environment, params: ModelParams) -> np.ndarray:
    """Full 2^n x 2^n one-step transition matrix (n <= 12), filled in place
    one site at a time, with no temporary of its size."""
    n = env.n
    if n > MAX_EXACT_SITES:
        raise InputError(f"state space too large: n={n} > {MAX_EXACT_SITES}")
    size = 2**n
    states = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1)
    base, signed, coef = interaction_kernel(env, params)
    fire = base + coef * (states @ signed.T)  # row k: p(x) at state k
    matrix = np.empty((size, size))
    matrix[:, 0] = 1.0
    for i in range(n):  # columns 0 .. 2^i - 1 hold sites 0 .. i-1
        done, f = matrix[:, :2**i], fire[:, i:i + 1]
        np.multiply(done, f, out=matrix[:, 2**i:2**(i + 1)])  # site i fires
        done *= 1.0 - f  # site i stays silent
    return matrix


def exact_stationary(env: Environment, params: ModelParams) -> np.ndarray:
    """Stationary law by power iteration on the full transition matrix: a
    fresh float64 vector whose entry k is the probability of the
    configuration with site-i bit (k >> i) & 1."""
    matrix = transition_matrix(env, params)
    size = matrix.shape[0]
    pi = np.full(size, 1.0 / size)
    for _ in range(STATIONARY_MAX_ITER):
        nxt = pi @ matrix
        change = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if change < STATIONARY_TOL:
            return pi / pi.sum()
    raise RuntimeError("power iteration did not converge")


def coalescence_probability(params: ModelParams, z1: tuple[int, int],
                            z2: tuple[int, int]) -> float:
    """Probability that the backward walks from sites z1 and z2 ever meet.

    A walk regenerates with probability lam at each step and otherwise moves
    to a uniform site, whatever theta is, and two walks read independent
    draws until they meet.  With q = (1 - lam)^2, two walks on distinct
    sites at one time meet with probability P0 = (q/n) / (1 - q(1 - 1/n)),
    and walks a lag d >= 1 apart with (1 - lam)^d (1/n + (1 - 1/n) P0).
    Reads only n and lam; 1 - q(1 - 1/n) is taken as lam(2 - lam) + q/n and
    (1 - lam)^d through log1p, so a tiny lam keeps its digits.
    """
    (i1, t1), (i2, t2) = z1, z2
    n, lam = params.n, params.lam
    if z1 == z2:
        raise InputError("coalescence probe needs two distinct sites")
    if not (0 <= i1 < n and 0 <= i2 < n):
        raise InputError(f"site indices {i1}, {i2} must lie in 0..{n - 1}")
    q = (1.0 - lam) ** 2
    p0 = q / n / (lam * (2.0 - lam) + q / n)
    lag = abs(t1 - t2)
    if lag == 0:
        return p0
    survive = exp(lag * log1p(-lam)) if lam < 1.0 else 0.0
    return survive * (1.0 / n + (1.0 - 1.0 / n) * p0)


def binomial_mixture_shat(b, t_len: int, kappa: float) -> float:
    """Moment estimator of 1/p from per-site signal totals.

    Under the simplified mixture benchmark each site total B_i is
    Bin(t_len, 1/2 + kappa * theta_i / (p n)) with theta_i ~ Bin(n, p), so
    E[B_i] = t_len * m with m = 1/2 + kappa, and the excess dispersion of the
    totals around t_len * m measures 1/p without bias.
    """
    if t_len < 2:
        raise InputError(f"t_len must be >= 2, got {t_len}")
    if not 0.0 < kappa < 0.5:
        raise InputError(f"kappa must lie in (0, 1/2), got {kappa}")
    b = np.asarray(b, dtype=np.float64)
    if b.size == 0:
        raise InputError("need at least one site total")
    if b.min() < 0 or b.max() > t_len:
        raise InputError("site totals must lie in [0, t_len]")
    n = b.size
    m = 0.5 + kappa
    v_hat = float(np.mean((b - t_len * m) ** 2))
    return n / (t_len * (t_len - 1) * kappa**2) * (v_hat - t_len * m * (1.0 - m)) + 1.0
