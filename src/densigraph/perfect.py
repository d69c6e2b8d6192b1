"""Exact sampling of the stationary law via backward regeneration.

Each space-time site z = (i, t) reads one uniform u = uniform01(word(absorb(key,
i), t)).  If u < lam the site regenerates (J = 0) with the value bit
xi = [u < mu], Bernoulli(beta) given regeneration.  Otherwise
J = 1 + floor((u - lam) n / (1 - lam)) is a uniform 1-based label, and the
value copies site J-1 at time t-1 -- directly if the edge theta[i, J-1] is
present and J-1 is excitatory, flipped if J-1 is inhibitory, and 0 if the
edge is absent (the copy rule).

Following J backward in time defines a walk that regenerates after a
geometric(lam) number of steps, so every site's value is a function of
finitely many draws.  The copy rule (`_copy_columns`, which the forward
sampler runs from its own start) run from any start placed before the
deepest regeneration of the first window column's walks gives that column
exactly, and every later column is one copy step from the one before it
(coupling from the past).  The window is a sample of the stationary chain
with no burn-in error.  Row keys are hashed once per call, and columns are
drawn in chunks of `DRAW_BUDGET` sites.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, log

import numpy as np

from .model import Environment, InputError, ModelParams, Trajectory
from .rng import (DRAW_BUDGET, absorb, absorb_array, derive_key, label64,
                  uniform01, uniform01_array, word, word_array)

# Label of the site field's key, hashed once at import.
_FIELD_LABEL = label64("site-field")


class DepthExceededError(RuntimeError):
    """A backward walk failed to regenerate within the depth bound."""


@dataclass(frozen=True)
class SiteDraw:
    """Per-site randomness: neighbor label j (0 = regenerate) and value bit xi.

    P(j = 0) = lam and P(j = k) = (1 - lam)/n for 1 <= k <= n.  Both come from
    the site's one uniform, so xi is defined only where the site regenerates:
    there it is Bernoulli(beta), elsewhere it is 0.
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

    __slots__ = ("key", "lam", "mu", "n", "scale")

    def __init__(self, seed: int, params: ModelParams):
        self.key = derive_key(seed, _FIELD_LABEL)
        self.lam, self.mu, self.n = params.lam, params.mu, params.n
        # Spreads the copy branch [lam, 1) over labels 1..n; lam = 1 never copies.
        self.scale = self.n / (1.0 - self.lam) if self.lam < 1.0 else 0.0

    def draw(self, i: int, t: int) -> tuple[int, int]:
        """(j, xi) at site (i, t); j uses the 0-= regenerate convention."""
        u = uniform01(word(absorb(self.key, i), t))
        if u < self.lam:
            return 0, int(u < self.mu)
        return min(self.n, 1 + int((u - self.lam) * self.scale)), 0

    def draw_batch(self, keys, i, t) -> tuple[np.ndarray, np.ndarray]:
        """`draw` over arrays, bit for bit: int64 j and uint8 xi.  ``keys`` (the
        field key, or one per coalescence trial) broadcasts against i and t."""
        return self._split(uniform01_array(word_array(absorb_array(keys, i), t)))

    def draw_columns(self, row_keys, times) -> tuple[np.ndarray, np.ndarray]:
        """`draw` at all rows of the columns ``times``, time-major, from row keys
        absorb(key, i)."""
        return self._split(uniform01_array(word_array(row_keys, times[:, None])))

    def _split(self, u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        j = 1 + (np.maximum(u - self.lam, 0.0) * self.scale).astype(np.int64)
        np.minimum(j, self.n, out=j)  # guards the u -> 1 float edge
        j *= u >= self.lam
        return j, (u < self.mu).view(np.uint8)


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


def _copy_columns(field: SiteField, env: Environment, x: np.ndarray, t0: int,
                  row_keys: np.ndarray) -> None:
    """Fill x[1:] of the time-major array x from x[0], the state at field time
    t0: x[r] = ((x[r-1][src] ^ F) & A) | xi with the draws at field time t0 + r,
    the source src, the flip F = (src inhibitory) and the edge-and-copy mask A.
    Each chunk of columns precomputes G = (F & A) | xi, so that a column costs
    one gather and two uint8 operations: x[r] = (x[r-1][src] & A) ^ G."""
    n = env.n
    flat = np.arange(0, n * n, n)  # row offsets into theta
    span = max(1, DRAW_BUDGET // n)
    for lo in range(1, len(x), span):
        hi = min(lo + span, len(x))
        j, xi = field.draw_columns(row_keys, np.arange(t0 + lo, t0 + hi))
        src = j - 1
        np.maximum(src, 0, out=src)
        copy = np.take(env.theta, src + flat)
        copy &= j > 0
        gate = (src >= env.partition.size_plus).view(np.uint8)
        gate &= copy
        gate |= xi
        for prev, cur, s, a, g in zip(x[lo - 1:], x[lo:hi], src, copy, gate):
            np.bitwise_and(prev[s], a, out=cur)
            cur ^= g


def perfect_sample(env: Environment, params: ModelParams, t_len: int,
                   seed: int, max_depth: int | None = None) -> Trajectory:
    """Exact stationary sample on the window sites x times {1 .. t_len}.

    The walk from each site (i, 1) takes d_i draws and regenerates at time
    2 - d_i (`DepthExceededError` if one takes more than `max_depth` draws).
    The copy rule (`_copy_columns`) run from any start placed before the
    deepest of these regenerations gives column 1 exactly, and every later
    column with it; this one starts from zeros at field time 1 - max d_i.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    if params.lam <= 0.0:
        raise ValueError("perfect sampling requires lam > 0")
    max_depth = _depth_bound(max_depth, params.lam)

    field = SiteField(seed, params)
    n, lam, scale = env.n, field.lam, field.scale
    row_keys = [absorb(field.key, i) for i in range(n)]
    depth = 1  # max d_i
    for i in range(n):
        site, t = i, 1
        for _ in range(max_depth):
            u = uniform01(word(row_keys[site], t))
            if u < lam:
                break
            site = min(n, 1 + int((u - lam) * scale)) - 1
            t -= 1
        else:
            raise DepthExceededError(f"no regeneration within {max_depth} steps "
                                     f"from {(i, 1)}; increase max_depth or check lam")
        depth = max(depth, 2 - t)
    x = np.zeros((depth + t_len, n), dtype=np.uint8)  # time-major; row 0 at 1 - depth
    _copy_columns(field, env, x, 1 - depth, np.array(row_keys, dtype=np.uint64))
    return Trajectory(x[depth:].T)
