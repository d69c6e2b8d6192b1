"""Exact sampling of the stationary law via backward regeneration.

Each space-time site z = (i, t) carries an independent pair (J, xi):

  * with probability lam the site regenerates (J = 0) and its value is the
    fresh Bernoulli(beta) bit xi;
  * otherwise J picks one of the n sites uniformly (1-based label k, i.e.
    site k-1), and the value copies the chosen site's value at time t-1 --
    directly if the edge theta[i, k-1] is present and the source is
    excitatory, flipped if the source is inhibitory, and 0 if the edge is
    absent (the copy rule).

Following J backward in time defines a walk that dies (regenerates) after a
geometric(lam) number of steps, so every site's value is determined by
finitely many draws, each a pure function of (seed, i, t).  Walking each site
of the first window column back to its regeneration fixes that column; every
later column is one copy step from the column before it.  The window is a
sample of the stationary chain with no burn-in error.  Row keys absorb(key, i)
are hashed once per call, columns 2..T are drawn in chunks of `DRAW_BUDGET`
sites, and a site hashes word 0, then word 1 (source) or word 2 (xi) alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .model import Environment, InputError, ModelParams, Trajectory
from .rng import (DRAW_BUDGET, MASK64, absorb, absorb_array, derive_key,
                  uniform01, uniform01_array, word, word_array)


class DepthExceededError(RuntimeError):
    """A backward walk failed to regenerate within the depth bound."""


@dataclass(frozen=True)
class SiteDraw:
    """Per-site randomness: neighbor label j (0 = regenerate) and value bit xi.

    P(j = 0) = lam, P(j = k) = (1 - lam)/n for 1 <= k <= n, and xi is an
    independent Bernoulli(beta) bit.
    """

    j: int
    xi: int


@dataclass(frozen=True)
class BackwardWalk:
    """Trace of one backward walk from `start` down to its regeneration site."""

    start: tuple[int, int]
    path: tuple[tuple[int, int], ...]
    regen_time: int
    regen_site: int
    regen_value: int


def default_max_depth(lam: float, tail: float = 1e-12) -> int:
    """Depth bound with per-walk failure probability (1-lam)^depth < tail."""
    if lam >= 1.0:
        return 1
    return ceil(log(tail) / log(1.0 - lam))


class SiteField:
    """Lazily addressable (J, xi) randomness over the space-time lattice.

    Draws at distinct sites are computationally independent; the draw at a
    site is a pure function of (seed, i, t) so that walks launched from
    different sites see one shared field.
    """

    __slots__ = ("key", "lam", "beta", "n")

    def __init__(self, seed: int, params: ModelParams):
        self.key = derive_key(seed, "site-field")
        self.lam = params.lam
        self.beta = params.beta
        self.n = params.n

    def draw(self, i: int, t: int) -> tuple[int, int]:
        """(j, xi) at site (i, t); j uses the 0-= regenerate convention."""
        k = absorb(absorb(self.key, i), t & MASK64)
        if uniform01(word(k, 0)) < self.lam:
            j = 0
        else:
            j = 1 + int(uniform01(word(k, 1)) * self.n)
            if j > self.n:  # guard the u -> 1 float edge
                j = self.n
        xi = 1 if uniform01(word(k, 2)) < self.beta else 0
        return j, xi

    def draw_batch(self, keys, i, t) -> tuple[np.ndarray, np.ndarray]:
        """`draw` over arrays, bit for bit: int64 j and uint8 xi.  ``keys`` (the
        field key, or one per coalescence trial) broadcasts against i and t."""
        k = absorb_array(absorb_array(keys, i), t)
        u = uniform01_array(word_array(k, (0, 1, 2)))
        j = 1 + (u[1] * self.n).astype(np.int64)
        np.minimum(j, self.n, out=j)
        j[u[0] < self.lam] = 0
        xi = (u[2] < self.beta).astype(np.uint8)
        return j, xi

    def draw_columns(self, row_keys, times) -> tuple[np.ndarray, np.ndarray]:
        """`draw` at all rows of the columns ``times``, time-major, from row keys
        absorb(key, i).  Only the words used are hashed, so xi is 0 where j > 0."""
        k = absorb_array(row_keys, times[:, None])
        regen = uniform01_array(word_array(k, 0)) < self.lam
        u = uniform01_array(word_array(k, 1 + regen))
        j = np.where(regen, 0, np.minimum(self.n, 1 + (u * self.n).astype(np.int64)))
        return j, ((u < self.beta) & regen).astype(np.uint8)


def site_draw(seed: int, params: ModelParams, site: tuple[int, int]) -> SiteDraw:
    """Deterministic (J, xi) draw attached to one space-time site."""
    i, t = site
    if not 0 <= i < params.n:
        raise IndexError(f"site index {i} out of range for n={params.n}")
    j, xi = SiteField(seed, params).draw(i, t)
    return SiteDraw(j=j, xi=xi)


def _depth_bound(max_depth: int | None, lam: float) -> int:
    if max_depth is None:
        return default_max_depth(lam)
    if max_depth < 1:
        raise InputError(f"max_depth must be >= 1, got {max_depth}")
    return max_depth


def backward_walk(seed: int, params: ModelParams, z: tuple[int, int],
                  max_depth: int | None = None) -> BackwardWalk:
    """Follow the neighbor labels backward from z until regeneration."""
    max_depth = _depth_bound(max_depth, params.lam)
    field = SiteField(seed, params)
    (i, t), path = z, []
    for _ in range(max_depth):
        path.append((i, t))
        j, xi = field.draw(i, t)
        if j == 0:
            return BackwardWalk(start=z, path=tuple(path), regen_time=t,
                                regen_site=i, regen_value=xi)
        i, t = j - 1, t - 1
    raise DepthExceededError(f"no regeneration within {max_depth} steps from "
                             f"{z}; increase max_depth or check lam")


def perfect_sample(env: Environment, params: ModelParams, t_len: int,
                   seed: int, max_depth: int | None = None) -> Trajectory:
    """Exact stationary sample on the window sites x times {1 .. t_len}.

    Column 1 folds the copy rule forward along each site's backward walk
    (`DepthExceededError` if one takes more than `max_depth` draws); each later
    column is x_t = ((x_{t-1}[src] ^ F) & A) | xi, with the source src, the flip
    F = (src inhibitory) and the edge-and-copy mask A made per chunk of columns.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    if params.lam <= 0.0:
        raise ValueError("perfect sampling requires lam > 0")
    max_depth = _depth_bound(max_depth, params.lam)

    field = SiteField(seed, params)
    n, lam, beta = env.n, params.lam, params.beta
    size_plus, theta = env.partition.size_plus, env.theta
    row_keys = [absorb(field.key, i) for i in range(n)]
    x = np.empty((t_len, n), dtype=np.uint8)  # time-major
    for i in range(n):
        sites, t = [i], 1
        for _ in range(max_depth):
            k = absorb(row_keys[sites[-1]], t)
            if uniform01(word(k, 0)) < lam:
                break
            sites.append(min(n, 1 + int(uniform01(word(k, 1)) * n)) - 1)
            t -= 1
        else:
            raise DepthExceededError(f"no regeneration within {max_depth} steps "
                                     f"from {(i, 1)}; increase max_depth or check lam")
        v = 1 if uniform01(word(k, 2)) < beta else 0
        for dst, src in zip(sites[-2::-1], sites[:0:-1]):
            v = v ^ (src >= size_plus) if theta[dst, src] else 0
        x[0, i] = v
    if t_len > 1:  # one-column windows skip the numpy setup
        rows, keys = np.arange(n), np.array(row_keys, dtype=np.uint64)
        span = max(1, DRAW_BUDGET // n)
        for lo in range(2, t_len + 1, span):
            j, xi = field.draw_columns(keys, np.arange(lo, min(lo + span, t_len + 1)))
            src = np.maximum(j - 1, 0)
            copy, flip = theta[rows, src] & (j > 0), src >= size_plus
            for t, (s, a, f, b) in enumerate(zip(src, copy, flip, xi), lo - 1):
                x[t] = ((x[t - 1][s] ^ f) & a) | b
    return Trajectory(x.T)
