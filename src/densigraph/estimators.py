"""Moment statistics of an observed trajectory.

Three statistics summarize a binary observation matrix X (n sites, T times),
via the cumulative counts Z[i, t] = sum_{s<=t} X[i, s] and the site averages
Zbar[t] = mean_i Z[i, t] (with Zbar[0] = 0):

  * spatio-temporal mean      m_hat = Zbar[T] / T
  * spatial variance          v_hat = (T+1) n / T^3 *
                                [ mean_i Z[i,T]^2 - T/(T+1) (Zbar[T] + Zbar[T]^2) ]
  * temporal variance         w_hat = 2 W_{2D} - W_D, where
        W_D = n/T * sum_{k=1}^{floor(T/D)} (Zbar[kD] - Zbar[(k-1)D] - D m_hat)^2

D (``delta``) is a tuning block length in [1, floor(T/4)], so that W_{2D} has
a full block pair (`check_delta`).  The trailing partial block of W_D is
discarded.  All sums are exact integers (int64, or uint16 where they cannot
pass 2^16 - 1) before any division, so the statistics are reproducible to
rounding error.

`estimate_all` reads the trajectory once per axis: the per-time totals give
n * Zbar, whose one cumsum serves m_hat, W_D and W_2D, and the per-site totals
give v_hat.  Its test oracles are the loop references of the tests, written
from the formulas above.
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


def _axis_counts(x: np.ndarray, axis: int) -> np.ndarray:
    """Signals per line of a 0/1 matrix summed over `axis`, exact, int64.
    Sums below 2^16 accumulate in uint16: at n=500, T=2000 that is about 1.8x
    faster than uint32 and 3x faster than int64."""
    narrow = x.shape[axis] < 1 << 16
    return x.sum(axis=axis, dtype=np.uint16 if narrow else np.int64).astype(np.int64)


def check_delta(delta: int, t_len: int) -> None:
    """Reject a block length outside [1, floor(T/4)]: W_{2 delta} needs
    2 delta <= floor(T/2), which is delta <= floor(T/4)."""
    if not 1 <= delta <= t_len // 4:
        raise InputError(f"delta must lie in [1, {t_len // 4}] for T={t_len}, "
                         f"got {delta}")


def _spatial_variance(z_final: np.ndarray, t: int) -> float:
    """v_hat from the per-site totals Z[i, T]."""
    n = len(z_final)
    sum_sq = int((z_final * z_final).sum())
    zbar = int(z_final.sum()) / n
    inner = sum_sq / n - (t / (t + 1)) * (zbar + zbar * zbar)
    return ((t + 1) * n / t**3) * inner


def _w_delta(totals: np.ndarray, n: int, delta: int) -> float:
    """W_delta from the cumulative per-time totals n * Zbar[t]."""
    t_len = len(totals)
    m_hat = totals[-1] / (n * t_len)
    k = t_len // delta
    marks = totals[delta - 1: k * delta: delta] / n
    increments = np.diff(marks, prepend=0.0)
    dev = increments - delta * m_hat
    return (n / t_len) * float(dev @ dev)


def estimate_all(traj: Trajectory, delta: int) -> MomentEstimates:
    """All three statistics on one trajectory, sharing a block length.

    One reduction per axis: the per-time totals (whose cumsum serves m_hat,
    W_delta and W_{2 delta}) and the per-site totals (v_hat).  The block
    length is checked first, by `check_delta`.
    """
    t_len = traj.t_len
    check_delta(delta, t_len)
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
