"""Moment statistics of an observed trajectory.

Three statistics summarize a binary observation matrix X (n sites, T times),
via the cumulative counts Z[i, t] = sum_{s<=t} X[i, s] and the site averages
Zbar[t] = mean_i Z[i, t] (with Zbar[0] = 0):

  * spatio-temporal mean      m_hat = Zbar[T] / T
  * spatial variance          v_hat = (T+1) n / T^3 *
                                [ mean_i Z[i,T]^2 - T/(T+1) (Zbar[T] + Zbar[T]^2) ]
  * temporal variance         w_hat = 2 W_{2D} - W_D, where
        W_D = n/T * sum_{k=1}^{floor(T/D)} (Zbar[kD] - Zbar[(k-1)D] - D m_hat)^2

D (``delta``) is a tuning block length.  The trailing partial block of W_D is
discarded.  All cumulative sums are computed in int64 before any division, so
the statistics are reproducible to rounding error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import floor, log

import numpy as np

from .model import InputError, Trajectory


@dataclass(frozen=True)
class MomentEstimates:
    """The three statistics plus the block-variance intermediates."""

    m_hat: float
    v_hat: float
    w_hat: float
    delta: int
    w_delta: float
    w_2delta: float


def _site_average_counts(traj: Trajectory) -> np.ndarray:
    """Total signals per time, summed over sites: n * Zbar[t], int64, len T."""
    return np.cumsum(traj.x.sum(axis=0, dtype=np.int64))


def spatio_temporal_mean(traj: Trajectory) -> float:
    """Fraction of (site, time) cells carrying a signal."""
    t_len = traj.t_len
    total = int(traj.x.sum(dtype=np.int64))
    return total / (traj.n * t_len)


def spatial_variance(traj: Trajectory) -> float:
    """Across-site dispersion of the final cumulative counts."""
    n, t = traj.n, traj.t_len
    z_final = traj.x.sum(axis=1, dtype=np.int64)
    sum_sq = int((z_final * z_final).sum())
    zbar = int(z_final.sum()) / n
    inner = sum_sq / n - (t / (t + 1)) * (zbar + zbar * zbar)
    return ((t + 1) * n / t**3) * inner


def w_delta(traj: Trajectory, delta: int) -> float:
    """Block-increment variance W_delta of the site-averaged counts."""
    t_len = traj.t_len
    if not 1 <= delta <= t_len // 2:
        raise InputError(f"delta must lie in [1, {t_len // 2}], got {delta}")
    n = traj.n
    totals = _site_average_counts(traj)
    m_hat = totals[-1] / (n * t_len)
    k = t_len // delta
    marks = totals[delta - 1: k * delta: delta] / n
    increments = np.diff(marks, prepend=0.0)
    dev = increments - delta * m_hat
    return (n / t_len) * float(dev @ dev)


def temporal_variance(traj: Trajectory, delta: int) -> float:
    """Bias-corrected combination 2 W_{2 delta} - W_delta."""
    if delta < 1 or 2 * delta > traj.t_len // 2:
        raise InputError(
            f"delta={delta} too large: need 2*delta <= {traj.t_len // 2} "
            f"for T={traj.t_len}"
        )
    return 2.0 * w_delta(traj, 2 * delta) - w_delta(traj, delta)


def default_delta(t_len: int, mode: str = "one") -> int:
    """Default block length: 1, or floor(ln T) clamped to at least 1."""
    if t_len < 4:
        raise ValueError(f"t_len must be >= 4, got {t_len}")
    if mode == "one":
        return 1
    if mode == "log":
        return max(1, floor(log(t_len)))
    raise ValueError(f"unknown delta mode {mode!r}")


def estimate_all(traj: Trajectory, delta: int) -> MomentEstimates:
    """All three statistics on one trajectory, sharing a block length."""
    wd = w_delta(traj, delta)  # validates delta range
    if 2 * delta > traj.t_len // 2:
        raise InputError(
            f"delta={delta} too large: need 2*delta <= {traj.t_len // 2} "
            f"for T={traj.t_len}"
        )
    w2d = w_delta(traj, 2 * delta)
    return MomentEstimates(
        m_hat=spatio_temporal_mean(traj),
        v_hat=spatial_variance(traj),
        w_hat=2.0 * w2d - wd,
        delta=delta,
        w_delta=wd,
        w_2delta=w2d,
    )
