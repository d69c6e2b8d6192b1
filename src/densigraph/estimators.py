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
discarded.  All sums are exact integers (int64, or uint16 where they cannot
pass 2^16 - 1) before any division, so the statistics are reproducible to
rounding error.

`estimate_all` reads the trajectory once per axis: the per-time totals give
n * Zbar, whose one cumsum serves m_hat, W_D and W_2D, and the per-site totals
give v_hat.  The per-statistic functions compute each statistic on its own
and are kept as its test oracles; `estimate_all` equals them bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

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


def _axis_counts(x: np.ndarray, axis: int) -> np.ndarray:
    """Signals per line of a 0/1 matrix summed over `axis`, exact, int64.
    Sums below 2^16 accumulate in uint16: at n=500, T=2000 that is about 1.8x
    faster than uint32 and 3x faster than int64."""
    narrow = x.shape[axis] < 1 << 16
    return x.sum(axis=axis, dtype=np.uint16 if narrow else np.int64).astype(np.int64)


def _check_delta(delta: int, t_len: int) -> None:
    """Reject a block length outside [1, floor(T/2)] for W_delta."""
    if not 1 <= delta <= t_len // 2:
        raise InputError(f"delta must lie in [1, {t_len // 2}], got {delta}")


def _check_double_delta(delta: int, t_len: int) -> None:
    """Reject a block length whose W_{2 delta} has no full block pair."""
    if delta < 1 or 2 * delta > t_len // 2:
        raise InputError(
            f"delta={delta} too large: need 2*delta <= {t_len // 2} "
            f"for T={t_len}"
        )


def spatio_temporal_mean(traj: Trajectory) -> float:
    """Fraction of (site, time) cells carrying a signal."""
    t_len = traj.t_len
    total = int(traj.x.sum(dtype=np.int64))
    return total / (traj.n * t_len)


def spatial_variance(traj: Trajectory) -> float:
    """Across-site dispersion of the final cumulative counts."""
    return _spatial_variance(traj.x.sum(axis=1, dtype=np.int64), traj.t_len)


def _spatial_variance(z_final: np.ndarray, t: int) -> float:
    """`spatial_variance` from the per-site totals Z[i, T]."""
    n = len(z_final)
    sum_sq = int((z_final * z_final).sum())
    zbar = int(z_final.sum()) / n
    inner = sum_sq / n - (t / (t + 1)) * (zbar + zbar * zbar)
    return ((t + 1) * n / t**3) * inner


def w_delta(traj: Trajectory, delta: int) -> float:
    """Block-increment variance W_delta of the site-averaged counts."""
    _check_delta(delta, traj.t_len)
    return _w_delta(_site_average_counts(traj), traj.n, delta)


def _w_delta(totals: np.ndarray, n: int, delta: int) -> float:
    """`w_delta` from the per-time totals n * Zbar[t] of `_site_average_counts`."""
    t_len = len(totals)
    m_hat = totals[-1] / (n * t_len)
    k = t_len // delta
    marks = totals[delta - 1: k * delta: delta] / n
    increments = np.diff(marks, prepend=0.0)
    dev = increments - delta * m_hat
    return (n / t_len) * float(dev @ dev)


def temporal_variance(traj: Trajectory, delta: int) -> float:
    """Bias-corrected combination 2 W_{2 delta} - W_delta."""
    _check_double_delta(delta, traj.t_len)
    return 2.0 * w_delta(traj, 2 * delta) - w_delta(traj, delta)


def estimate_all(traj: Trajectory, delta: int) -> MomentEstimates:
    """All three statistics on one trajectory, sharing a block length.

    Bit for bit the per-statistic functions, from one reduction per axis:
    the per-time totals (whose cumsum serves m_hat, W_delta and W_{2 delta})
    and the per-site totals (v_hat).
    """
    t_len = traj.t_len
    _check_delta(delta, t_len)
    _check_double_delta(delta, t_len)
    n = traj.n
    totals = np.cumsum(_axis_counts(traj.x, 0))
    wd = _w_delta(totals, n, delta)
    w2d = _w_delta(totals, n, 2 * delta)
    return MomentEstimates(
        m_hat=int(totals[-1]) / (n * t_len),
        v_hat=_spatial_variance(_axis_counts(traj.x, 1), t_len),
        w_hat=2.0 * w2d - wd,
        delta=delta,
        w_delta=wd,
        w_2delta=w2d,
    )
