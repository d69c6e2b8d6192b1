"""Exact sampling of the stationary law via backward regeneration.

Each space-time site z = (i, t) reads one hashed word, `rng.word_array` of
the row key absorb(key, i) at counter t, and its uniform u, the top 53 bits
of that word times 2^-53 (the scalar `word` and `uniform01` are the test
references in `tests/_reference.py`).  If u < lam the site regenerates
(J = 0) with the value bit xi = [u < mu], Bernoulli(beta) given
regeneration.  Otherwise J = 1 + floor((u - lam) n / (1 - lam)) is a
uniform 1-based label, and the value copies site J-1 at time t-1 --
directly if the edge theta[i, J-1] is present and J-1 is excitatory,
flipped if J-1 is inhibitory, and 0 if the edge is absent (the copy rule).

Following J backward in time defines a walk that regenerates after a
geometric(lam) number of steps; its value is fixed there, or earlier where it
copies across an absent edge, so every site's value is a function of
finitely many draws.  The copy rule run from any start placed before the
deepest fixing site of the first window column's walks gives that column
exactly, and every later column is one copy step from the one before it
(coupling from the past): a stationary sample with no burn-in error.

One engine serves both samplers.  `_derive` turns a chunk of at most
`DRAW_BUDGET` sites into what the copy rule reads at each -- the source J-1,
the edge-and-copy mask and the gate -- comparing the top 53 bits of the
site's word with integer cuts of lam and mu in place of u.  `_column_one`
walks all of column 1 back through chunks derived at times 1, 0, -1, ..,
unrolling the copy rule x = (x' & A) ^ G; the samplers differ only in its
floor (`perfect_sample` raises, `simulate` reads x0).  `_window` runs on from
that column 1 by `_copy_columns`, so each site is derived once and no row
precedes the window.  Row keys are hashed once per field.
"""

from __future__ import annotations

from math import ceil, log, log1p

import numpy as np

from .model import (Environment, InputError, ModelParams, Trajectory, _adopt,
                    _check_n)
from .rng import (_S11, _U01, DRAW_BUDGET, absorb_array, derive_key, label64,
                  word_array)

# Label of the site field's key, hashed once at import.
_FIELD_LABEL = label64("site-field")

_TWO53 = 2.0 ** 53


class DepthExceededError(RuntimeError):
    """A backward walk ran past the depth bound."""


def default_max_depth(lam: float) -> int:
    """Both samplers' depth bound, with per-walk failure probability
    (1-lam)^depth < 1e-12; `limits` allows its solves ten times as many steps."""
    if lam >= 1.0:
        return 1
    if 1.0 - lam == 1.0:
        raise InputError(f"lam={lam!r} is too small: 1 - lam rounds to 1, so no "
                         f"step bound exists")
    return ceil(log(1e-12) / log(1.0 - lam))


class SiteField:
    """Lazily addressable randomness over the space-time lattice.

    Draws at distinct sites are computationally independent; the draw at a
    site is a pure function of (seed, i, t) so that walks launched from
    different sites see one shared field.  Site i's row key absorb(key, i)
    is hashed once, into ``row_keys``; `draws` reads the field.
    """

    __slots__ = ("key", "row_keys", "lam", "p", "n", "scale", "lam_cut", "mu_cut")

    def __init__(self, seed: int, params: ModelParams):
        self.key = derive_key(seed, _FIELD_LABEL)
        self.row_keys = absorb_array(self.key, np.arange(params.n))
        self.lam, self.p, self.n = params.lam, params.p, params.n
        # Spreads the copy branch [lam, 1) over labels 1..n; lam = 1 never copies.
        self.scale = self.n / (1.0 - self.lam) if self.lam < 1.0 else 0.0
        # u = k 2^-53 is exact for the top 53 bits k of a word, so for a real
        # x, u < x exactly when k < ceil(x 2^53) (x 2^53 is exact too).
        self.lam_cut = ceil(self.lam * _TWO53)
        self.mu_cut = ceil(params.mu * _TWO53)

    def draws(self, times) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(src, copy, xi) at every site i and the times t, which broadcast
        against the n row keys: the int64 source J - 1 (0 where the site
        regenerates), the bool copy flag J > 0 and the uint8 value bit xi."""
        return self._split(word_array(self.row_keys, times) >> _S11)

    def _split(self, k: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """`draws` from the top 53 bits k of the site words.  The uniforms
        u = k 2^-53 overwrite k, so one word-sized array stays live."""
        copy, xi = k >= self.lam_cut, (k < self.mu_cut).view(np.uint8)
        f = np.multiply(k, _U01, out=k.view(np.float64))
        f -= self.lam
        f *= self.scale
        np.maximum(f, 0.0, out=f)
        np.minimum(f, self.n - 1, out=f)  # guards the u -> 1 float edge
        return f.astype(np.int64), copy, xi


def _derive(field: SiteField, env: Environment,
            times: np.ndarray) -> tuple[np.ndarray, ...]:
    """The draws at all rows of the columns ``times``, time-major, as the
    copy rule reads them: the source src, the edge-and-copy mask A and the
    gate G = (F & A) | xi with the flip F = (src inhibitory)."""
    src, copy, xi = field.draws(times[:, None])
    a = env.theta.take(src + np.arange(0, env.n * env.n, env.n))
    a &= copy.view(np.uint8)
    g = (src >= env.partition.size_plus).view(np.uint8)
    g &= a
    g |= xi
    return src, a, g


def _copy_columns(field: SiteField, env: Environment, x: np.ndarray,
                  t0: int) -> None:
    """Fill x[1:] of the time-major array x from x[0], the state at field time
    t0, by the copy rule x[r] = (x[r-1][src] & A) ^ G with the draws at field
    time t0 + r, derived in one chunk (x has at most `DRAW_BUDGET // n` + 1
    rows): one gather and two uint8 operations a column."""
    src, a, g = _derive(field, env, np.arange(t0 + 1, t0 + len(x)))
    for prev, cur, s, a_r, g_r in zip(x, x[1:], src, a, g):
        np.bitwise_and(prev[s], a_r, out=cur)
        cur ^= g_r


def _column_one(field: SiteField, env: Environment, depth: int,
                x0=None) -> np.ndarray:
    """Column 1 folded along its n backward walks: each XORs the gates G it
    meets into its value and stops at its first A = 0.  A walk live after
    ``depth`` draws reads the uint8 state ``x0`` at its site at time
    1 - depth, or without x0 raises `DepthExceededError`."""
    n, lam, p = env.n, field.lam, field.p
    site = start = np.arange(n)  # each live walk's site, and the i it started from
    span = max(1, DRAW_BUDGET // n)
    # The first chunk is the smallest c with n q^c <= 1/16 at the walks' continue
    # rate q = (1 - lam) p, so about one call in 16 needs more; each doubles.
    want = (ceil(min(log(16 * n) / -(log1p(-lam) + log(p)), span))
            if (1.0 - lam) * p > 0.0 else 1)
    x1, walked = np.zeros(n, np.uint8), 0
    while site.size and walked < depth:  # walked columns, times 2 - walked .. 1
        c = min(want, span, depth - walked)
        times = np.arange(1 - walked, 1 - walked - c, -1)
        for src_r, a_r, g_r in zip(*_derive(field, env, times)):
            x1[start] ^= g_r[site]
            keep = a_r[site].view(bool)  # a = 0: the walk's value is fixed
            site, start = src_r[site[keep]], start[keep]
            walked += 1
            if not site.size:
                break
        want *= 2
    if x0 is not None:
        x1[start] ^= x0[site]  # the walks live at the floor
    elif site.size:
        raise DepthExceededError(f"no regeneration within {depth} steps "
                                 f"from {(int(start[0]), 1)}; check lam")
    return x1


def _window(field: SiteField, env: Environment, x1, t_len: int) -> np.ndarray:
    """The time-major t_len x n window, the copy rule run from x1 at time 1."""
    span = max(1, DRAW_BUDGET // env.n)
    x = np.empty((t_len, env.n), dtype=np.uint8)
    x[0] = x1
    for lo in range(0, t_len - 1, span):  # row lo holds time lo + 1
        _copy_columns(field, env, x[lo:lo + span + 1], lo + 1)
    return x


def perfect_sample(env: Environment, params: ModelParams, t_len: int,
                   seed: int) -> Trajectory:
    """Exact stationary sample on the window sites x times {1 .. t_len}.

    The walk from each site (i, 1) fixes its value after d_i draws, at a
    regeneration or an absent edge (`DepthExceededError` past
    `default_max_depth(lam)` draws, which a regenerating walk passes with
    probability < 1e-12).  `_column_one` folds all n walks until the last is
    fixed, at depth D = max d_i, and `_window` runs on from that column 1.
    Memory: the live walks, one derived chunk and one t_len x n buffer.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    max_depth = default_max_depth(params.lam)

    _check_n(env, params)
    field = SiteField(seed, params)
    x1 = _column_one(field, env, max_depth)
    return _adopt(Trajectory, x=_window(field, env, x1, t_len).T)
