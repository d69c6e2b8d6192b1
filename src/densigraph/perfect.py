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
finitely many draws.  The copy rule run from any start placed before the
deepest regeneration of the first window column's walks gives that column
exactly, and every later column is one copy step from the one before it
(coupling from the past).  The window is a sample of the stationary chain
with no burn-in error.

One engine serves both samplers.  `_derive` turns a chunk of columns into
what the copy rule reads at each site -- the source J-1, the edge-and-copy
mask and the gate -- comparing the top 53 bits of the site's word with
integer cuts of lam and mu in place of u; `_copy_columns` builds each column
from the one before it.  `perfect_sample` is two steps: it draws only the
sources and copy flags of the columns backward from time 1, following all
the column-1 walks through them at once and keeping nothing but the live
walks, until the last walk regenerates at depth D; then `_copy_columns` runs
from zeros at field time 1 - D over the D + t_len - 1 columns that follow,
as the forward sampler runs it from its own start.  Row keys are hashed once
per call, and at most `DRAW_BUDGET` sites are drawn at a time.  The returned
trajectory views the window's rows of the time-major buffer, or a copy of
them when the D rows before the window outnumber it, handed over through
`model._adopt` with no second scan or copy.
"""

from __future__ import annotations

from math import ceil, log, log1p

import numpy as np

from .model import Environment, InputError, ModelParams, Trajectory, _adopt
from .rng import (_S11, _U01, DRAW_BUDGET, absorb_array, derive_key, label64,
                  word_array)

# Label of the site field's key, hashed once at import.
_FIELD_LABEL = label64("site-field")

_TWO53 = 2.0 ** 53


class DepthExceededError(RuntimeError):
    """A backward walk failed to regenerate within the depth bound."""


def default_max_depth(lam: float, tail: float = 1e-12) -> int:
    """Depth bound with per-walk failure probability (1-lam)^depth < tail."""
    if lam >= 1.0:
        return 1
    if 1.0 - lam == 1.0:
        raise InputError(f"lam={lam!r} is too small: 1 - lam rounds to 1, so no "
                         f"depth bound exists")
    return ceil(log(tail) / log(1.0 - lam))


class SiteField:
    """Lazily addressable (J, xi) randomness over the space-time lattice.

    Draws at distinct sites are computationally independent; the draw at a
    site is a pure function of (seed, i, t) so that walks launched from
    different sites see one shared field.
    """

    __slots__ = ("key", "lam", "n", "scale", "lam_cut", "mu_cut")

    def __init__(self, seed: int, params: ModelParams):
        self.key = derive_key(seed, _FIELD_LABEL)
        self.lam, self.n = params.lam, params.n
        # Spreads the copy branch [lam, 1) over labels 1..n; lam = 1 never copies.
        self.scale = self.n / (1.0 - self.lam) if self.lam < 1.0 else 0.0
        # u = k 2^-53 is exact for the top 53 bits k of a word, so for a real
        # x, u < x exactly when k < ceil(x 2^53) (x 2^53 is exact too).
        self.lam_cut = ceil(self.lam * _TWO53)
        self.mu_cut = ceil(params.mu * _TWO53)

    def draw_batch(self, keys, i, t) -> tuple[np.ndarray, np.ndarray]:
        """(j, xi) at the sites (i, t): int64 j, 0 where the site regenerates,
        else the 1-based label of the site it copies, and uint8 xi.  ``keys``
        (the field key, or one per coalescence trial) broadcasts against i
        and t."""
        src, copy, xi = self._split(word_array(absorb_array(keys, i), t) >> _S11)
        src += 1
        src *= copy
        return src, xi

    def _split(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """From the top 53 bits k of site words: the source site J - 1 (0 where
        the site regenerates), the copy flag J > 0 and the uint8 bit xi.  The
        uniforms u = k 2^-53 overwrite k, so one word-sized array stays live."""
        copy, xi = k >= self.lam_cut, (k < self.mu_cut).view(np.uint8)
        f = np.multiply(k, _U01, out=k.view(np.float64))
        f -= self.lam
        f *= self.scale
        np.maximum(f, 0.0, out=f)
        np.minimum(f, self.n - 1, out=f)  # guards the u -> 1 float edge
        return f.astype(np.int64), copy, xi


def _depth_bound(max_depth: int | None, lam: float) -> int:
    """`max_depth`, checked, or `default_max_depth(lam)` when it is None."""
    if max_depth is None:
        return default_max_depth(lam)
    if max_depth < 1:
        raise InputError(f"max_depth must be >= 1, got {max_depth}")
    return max_depth


def _derive(field: SiteField, env: Environment, row_keys: np.ndarray,
            times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The draws at all rows of the columns ``times``, time-major, from row
    keys absorb(key, i), as the copy rule reads them: the source src, the
    edge-and-copy mask A and the gate G = (F & A) | xi with the flip
    F = (src inhibitory)."""
    src, copy, xi = field._split(word_array(row_keys, times[:, None]) >> _S11)
    a = env.theta.take(src + np.arange(0, env.n * env.n, env.n))
    a &= copy.view(np.uint8)
    g = (src >= env.partition.size_plus).view(np.uint8)
    g &= a
    g |= xi
    return src, a, g


def _copy_columns(field: SiteField, env: Environment, x: np.ndarray, t0: int,
                  row_keys: np.ndarray) -> None:
    """Fill x[1:] of the time-major array x from x[0], the state at field time
    t0, by the copy rule x[r] = (x[r-1][src] & A) ^ G with the draws at field
    time t0 + r, derived in chunks of `DRAW_BUDGET` sites: one gather and two
    uint8 operations a column."""
    span = max(1, DRAW_BUDGET // env.n)
    for lo in range(1, len(x), span):
        hi = min(lo + span, len(x))
        src, a, g = _derive(field, env, row_keys, np.arange(t0 + lo, t0 + hi))
        for prev, cur, s, a_r, g_r in zip(x[lo - 1:hi], x[lo:hi], src, a, g):
            np.bitwise_and(prev[s], a_r, out=cur)
            cur ^= g_r


def perfect_sample(env: Environment, params: ModelParams, t_len: int,
                   seed: int, max_depth: int | None = None) -> Trajectory:
    """Exact stationary sample on the window sites x times {1 .. t_len}.

    The walk from each site (i, 1) takes d_i draws and regenerates at time
    2 - d_i (`DepthExceededError` if one takes more than `max_depth` draws).
    The sources and copy flags of the columns at times 1, 0, -1, .. are drawn
    in chunks, and all n walks follow their sources through each chunk at
    once until the last one regenerates, at depth D = max d_i.  The copy rule
    then runs from zeros at field time 1 - D, which gives column 1 exactly,
    and on over columns 2 .. t_len.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    max_depth = _depth_bound(max_depth, params.lam)

    field = SiteField(seed, params)
    n, lam = env.n, field.lam
    site = start = np.arange(n)  # each live walk's site, and the i it started from
    row_keys = absorb_array(field.key, site)
    span = max(1, DRAW_BUDGET // n)
    # The first backward chunk is the smallest c with n (1 - lam)^c <= 1/16,
    # so at most about one call in 16 needs a second one; each later chunk
    # doubles.
    want = ceil(log(16 * n) / -log1p(-lam)) if lam < 1.0 else 1
    depth = 0
    while site.size:  # depth columns walked so far, at times 2 - depth .. 1
        if depth == max_depth:
            raise DepthExceededError(f"no regeneration within {max_depth} steps "
                                     f"from {(int(start[0]), 1)}; increase "
                                     f"max_depth or check lam")
        c = min(want, span, max_depth - depth)
        times = np.arange(1 - depth, 1 - depth - c, -1)[:, None]
        src, copy, _ = field._split(word_array(row_keys, times) >> _S11)
        for src_r, copy_r in zip(src, copy):
            keep = copy_r[site]
            site, start = src_r[site[keep]], start[keep]
            depth += 1
            if not site.size:
                break
        want *= 2
    # time-major; row 0 holds zeros at field time 1 - depth, row depth is time 1
    x = np.zeros((depth + t_len, n), dtype=np.uint8)
    _copy_columns(field, env, x, 1 - depth, row_keys)
    # Handed over as a view, unless the depth rows before the window outnumber it.
    x = x[depth:].copy() if depth > t_len else x[depth:]
    return _adopt(Trajectory, x=x.T)
