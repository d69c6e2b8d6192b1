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
sample of the stationary chain with no burn-in error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .model import Environment, InputError, ModelParams, Trajectory
from .rng import (MASK64, absorb, absorb_array, derive_key, uniform01,
                  uniform01_array, word, word_array)


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


def _walk(field: SiteField, z: tuple[int, int],
          max_depth: int) -> tuple[list[int], int]:
    """Sites visited from z = (i, t) at times t, t-1, ..., and the final xi."""
    i, t = z
    sites = [i]
    for _ in range(max_depth):
        j, xi = field.draw(i, t)
        if j == 0:
            return sites, xi
        i, t = j - 1, t - 1
        sites.append(i)
    raise DepthExceededError(f"no regeneration within {max_depth} steps from "
                             f"{z}; increase max_depth or check lam")


def backward_walk(seed: int, params: ModelParams, z: tuple[int, int],
                  max_depth: int | None = None) -> BackwardWalk:
    """Follow the neighbor labels backward from z until regeneration."""
    max_depth = _depth_bound(max_depth, params.lam)
    sites, xi = _walk(SiteField(seed, params), z, max_depth)
    path = tuple((i, z[1] - k) for k, i in enumerate(sites))
    return BackwardWalk(start=z, path=path, regen_time=path[-1][1],
                        regen_site=sites[-1], regen_value=xi)


def perfect_sample(env: Environment, params: ModelParams, t_len: int,
                   seed: int, max_depth: int | None = None) -> Trajectory:
    """Exact stationary sample on the window sites x times {1 .. t_len}.

    Column 1 folds the copy rule forward along each site's backward walk
    (`DepthExceededError` if one takes more than `max_depth` draws); each later
    column copies the one before it through one batch draw.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    if params.lam <= 0.0:
        raise ValueError("perfect sampling requires lam > 0")
    max_depth = _depth_bound(max_depth, params.lam)

    field = SiteField(seed, params)
    size_plus = env.partition.size_plus
    x = np.empty((env.n, t_len), dtype=np.uint8)
    for i in range(env.n):
        sites, v = _walk(field, (i, 1), max_depth)
        for dst, src in zip(sites[-2::-1], sites[:0:-1]):
            v = v ^ (src >= size_plus) if env.theta[dst, src] else 0
        x[i, 0] = v

    rows = np.arange(env.n)
    inhibitory = rows >= size_plus
    for t in range(2, t_len + 1):
        j, xi = field.draw_batch(field.key, rows, t)
        src = np.maximum(j - 1, 0)  # regenerating sites take xi below
        copied = env.theta[rows, src] & (x[src, t - 2] ^ inhibitory[src])
        x[:, t - 1] = np.where(j == 0, xi, copied)
    return Trajectory(x)
