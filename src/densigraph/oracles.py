"""Independent brute-force references for validating the samplers.

Everything here is deliberately simple and separate from the production
paths: exact stationary distributions by power iteration over the full
2^n state space (n <= 12), Monte-Carlo probes of backward-walk coalescence
and of stationary covariances, and the binomial-mixture moment estimator for
the inverse density 1/p used as a sanity benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (Environment, InputError, ModelParams,
                    transition_probabilities)
from .perfect import SiteField, _depth_bound, perfect_sample
from .rng import absorb_array, derive_key

MAX_EXACT_SITES = 12

STATIONARY_TOL = 1e-13
STATIONARY_MAX_ITER = 100_000


@dataclass(frozen=True)
class ExactDistribution:
    """Distribution over binary configurations, little-endian indexing.

    probs[k] is the probability of the configuration whose site-i bit is
    (k >> i) & 1.  ``probs`` is a read-only float64 copy of the caller's array.
    """

    probs: np.ndarray

    def __post_init__(self):
        probs = np.array(self.probs, dtype=np.float64)
        probs.flags.writeable = False
        object.__setattr__(self, "probs", probs)


def config_index(x) -> int:
    """Little-endian packing of a binary configuration into an integer."""
    x = np.asarray(x)
    return int((x.astype(np.int64) << np.arange(len(x), dtype=np.int64)).sum())


def column_indices(matrix: np.ndarray) -> np.ndarray:
    """Pack every column of a binary (n, t) matrix into configuration indices."""
    weights = (np.int64(1) << np.arange(matrix.shape[0], dtype=np.int64))
    return weights @ matrix.astype(np.int64)


def empirical_distribution(indices, n_sites: int) -> ExactDistribution:
    """Histogram of configuration indices, normalized."""
    counts = np.bincount(np.asarray(indices), minlength=2**n_sites)
    return ExactDistribution(probs=counts / counts.sum())


def transition_matrix(env: Environment, params: ModelParams) -> np.ndarray:
    """Full 2^n x 2^n one-step transition matrix (n <= 12)."""
    n = env.n
    if n > MAX_EXACT_SITES:
        raise InputError(f"state space too large: n={n} > {MAX_EXACT_SITES}")
    size = 2**n
    states = ((np.arange(size)[:, None] >> np.arange(n)[None, :]) & 1)
    fire = np.empty((size, n))
    for k in range(size):
        fire[k] = transition_probabilities(env, params, states[k])
    matrix = np.ones((size, size))
    for i in range(n):
        bit = states[:, i]  # destination-state bit of site i
        factor = np.where(bit[None, :] == 1, fire[:, i][:, None],
                          1.0 - fire[:, i][:, None])
        matrix *= factor
    return matrix


def exact_stationary(env: Environment, params: ModelParams) -> ExactDistribution:
    """Stationary law by power iteration on the full transition matrix."""
    matrix = transition_matrix(env, params)
    size = matrix.shape[0]
    pi = np.full(size, 1.0 / size)
    for _ in range(STATIONARY_MAX_ITER):
        nxt = pi @ matrix
        change = float(np.max(np.abs(nxt - pi)))
        pi = nxt
        if change < STATIONARY_TOL:
            return ExactDistribution(probs=pi / pi.sum())
    raise RuntimeError("power iteration did not converge")


def tv_distance(p, q) -> float:
    """Total-variation distance between two distributions on the same space."""
    pa = p.probs if isinstance(p, ExactDistribution) else np.asarray(p, dtype=float)
    qa = q.probs if isinstance(q, ExactDistribution) else np.asarray(q, dtype=float)
    if pa.shape != qa.shape:
        raise ValueError(f"length mismatch: {pa.shape} vs {qa.shape}")
    return 0.5 * float(np.abs(pa - qa).sum())


def coalescence_probability_mc(params: ModelParams, z1: tuple[int, int],
                               z2: tuple[int, int], trials: int, seed: int,
                               max_depth: int | None = None) -> tuple[float, float]:
    """Fraction of shared-field backward-walk pairs that ever meet.

    Both walks of a trial read one site field (per-trial key), exactly the
    coupling under which coalescence is defined: walks occupying the same
    site at the same time follow identical draws afterwards.  Returns the
    estimate and its binomial standard error.
    """
    if trials < 1:
        raise InputError(f"trials must be >= 1, got {trials}")
    if z1 == z2:
        raise InputError("coalescence probe needs two distinct sites")
    if not (0 <= z1[0] < params.n and 0 <= z2[0] < params.n):
        raise InputError(f"site indices {z1[0]}, {z2[0]} must lie in 0..{params.n - 1}")
    max_depth = _depth_bound(max_depth, params.lam)
    field = SiteField(0, params)  # parameters only; per-trial keys replace field.key
    keys = absorb_array(derive_key(seed, "coalescence"),
                        np.arange(trials, dtype=np.int64))

    (i1, t1), (i2, t2) = z1, z2
    if t1 < t2:
        (i1, t1), (i2, t2) = (i2, t2), (i1, t1)
    a = np.full(trials, i1, dtype=np.int64)
    alive = np.ones(trials, dtype=bool)
    # Walk the later-born walk down to the common time.
    for s in range(t1, t2, -1):
        j, _ = field.draw_batch(keys[alive], a[alive], s)
        nxt = j - 1
        cur = np.where(alive)[0]
        dead = cur[j == 0]
        live = cur[j > 0]
        alive[dead] = False
        a[live] = nxt[j > 0]
    b = np.full(trials, i2, dtype=np.int64)
    coalesced = np.zeros(trials, dtype=bool)
    s = t2
    for _ in range(max_depth):
        meet = alive & (a == b)
        coalesced |= meet
        alive &= ~meet
        if not alive.any():
            break
        idx = np.where(alive)[0]
        ja, _ = field.draw_batch(keys[idx], a[idx], s)
        jb, _ = field.draw_batch(keys[idx], b[idx], s)
        ok = (ja > 0) & (jb > 0)
        alive[idx[~ok]] = False
        a[idx] = ja - 1
        b[idx] = jb - 1
        s -= 1
    est = float(coalesced.mean())
    std_err = (est * (1.0 - est) / trials) ** 0.5
    return est, std_err


def covariance_mc(env: Environment, params: ModelParams, z1: tuple[int, int],
                  z2: tuple[int, int], samples: int,
                  seed: int) -> tuple[float, float]:
    """Stationary covariance of two sites, from independent exact windows.
    Returns the estimate and its standard error."""
    if samples < 2:
        raise InputError(f"samples must be >= 2, got {samples}")
    (i1, t1), (i2, t2) = z1, z2
    if not (0 <= i1 < env.n and 0 <= i2 < env.n):
        raise InputError(f"site indices {i1}, {i2} must lie in 0..{env.n - 1}")
    t_lo = min(t1, t2)
    span = max(t1, t2) - t_lo + 1
    x1 = np.empty(samples)
    x2 = np.empty(samples)
    for k in range(samples):
        window = perfect_sample(env, params, span,
                                seed=derive_key(seed, "covariance", k))
        x1[k] = window.x[i1, t1 - t_lo]
        x2[k] = window.x[i2, t2 - t_lo]
    prod_centered = (x1 - x1.mean()) * (x2 - x2.mean())
    est = float(prod_centered.mean())
    std_err = float(prod_centered.std(ddof=1)) / samples**0.5
    return est, std_err


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
