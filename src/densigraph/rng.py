"""Keyed, counter-based random number generation.

Every random draw in this package is a pure function of a 64-bit seed plus a
chain of integer or string labels.  This keeps each draw addressable: the
stationary sampler can query the randomness attached to an arbitrary
space-time site (including negative times) without generating anything else,
and replicated experiments can run in any order, or in parallel, and still
produce identical output.

The core primitive is the splitmix64 finalizer (`mix64`), a cheap bijection
on 64-bit words with full avalanche.  Keys are built by absorbing labels one
at a time, in scalar form (`absorb`, `label64`, `derive_key`) on plain Python
integers, since numpy scalars warn on wraparound.  Draws take one array path
each, on uint64 arrays, which wrap silently: `absorb_array` for row keys and
`word_array` for counter-indexed words, which `Stream` reads as uniforms.
The scalar `word` and `uniform01` that these arrays are checked against are
test references in `tests/_reference.py`.
"""

from __future__ import annotations

import numpy as np

MASK64 = 0xFFFFFFFFFFFFFFFF

# splitmix64 constants: increment is 2^64 / golden ratio.
_PHI = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB

# Domain separator so that derive_key(seed) != mix64(seed).
_DOMAIN = 0x243F6A8885A308D3

# Multiplier mapping the top 53 bits of a word to [0, 1).
_U01 = 2.0 ** -53

# uint64 forms of the shifts and multipliers, built once for the array paths.
_U1, _S11, _S27, _S30, _S31 = (np.uint64(s) for s in (1, 11, 27, 30, 31))
_UPHI, _UM1, _UM2 = np.uint64(_PHI), np.uint64(_M1), np.uint64(_M2)

# Draws per batch call in both samplers: bounds the temporaries of one block.
DRAW_BUDGET = 1 << 15

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def mix64(x: int) -> int:
    """splitmix64 finalizer: bijective, full-avalanche mix of a 64-bit word."""
    x &= MASK64
    x ^= x >> 30
    x = (x * _M1) & MASK64
    x ^= x >> 27
    x = (x * _M2) & MASK64
    return x ^ (x >> 31)


def _mix64_inplace(x: np.ndarray) -> np.ndarray:
    """Vectorized `mix64` overwriting x, a uint64 array the caller owns."""
    x ^= x >> _S30
    x *= _UM1
    x ^= x >> _S27
    x *= _UM2
    x ^= x >> _S31
    return x


def label64(label: str) -> int:
    """FNV-1a hash of a string label (stable across runs and platforms)."""
    h = _FNV_OFFSET
    for b in label.encode("utf-8"):
        h = ((h ^ b) * _FNV_PRIME) & MASK64
    return h


def absorb(state: int, value: int) -> int:
    """Fold one integer label into a key. Injective in `value` for fixed state."""
    return mix64(((state + _PHI) & MASK64) ^ (value & MASK64))


def absorb_array(state, values: np.ndarray) -> np.ndarray:
    """Vectorized `absorb`; `values` may be any integer dtype (negatives wrap)."""
    s = np.asarray(state, dtype=np.uint64)
    return _mix64_inplace(np.asarray((s + _UPHI) ^ _as_words(values)))


def _as_words(values) -> np.ndarray:
    """Integers as uint64 words, two's complement for negatives; a uint64
    array passes through uncopied."""
    v = np.asarray(values)
    if v.dtype != np.uint64:
        v = v.astype(np.int64, copy=False).view(np.uint64)
    return v


def derive_key(seed: int, *parts: int | str) -> int:
    """Derive a stream key from a master seed and a chain of labels."""
    state = mix64((seed & MASK64) ^ _DOMAIN)
    for part in parts:
        if isinstance(part, str):
            part = label64(part)
        state = absorb(state, part)
    return state


def word_array(keys: np.ndarray, counter) -> np.ndarray:
    """Counter-indexed 64-bit output words of an array of keys: the word of
    key k at counter c is ``mix64((k + PHI (c + 1)) mod 2^64)``.  ``counter``
    is an int or an integer array broadcast against the keys; negative
    counters wrap."""
    k = np.asarray(keys, dtype=np.uint64)
    # in place on a fresh array, which, unlike a numpy scalar, wraps silently
    x = np.asarray(_as_words(counter) + _U1)
    x *= _UPHI
    x = np.asarray(k + x)  # rebound, so the steps are freed before the mix
    return _mix64_inplace(x)


class Stream:
    """Sequential uniform stream over the counter axis of a key.

    Draw k (1-based) is the top 53 bits of `word_array(key, k-1)` times
    2^-53, a float in [0, 1); `uniforms(n)` consumes n consecutive draws.
    Instances are cheap and single-use by convention: one stream per logical
    consumer, with keys derived via `derive_key`.
    """

    __slots__ = ("key", "counter")

    def __init__(self, key: int):
        self.key = key & MASK64
        self.counter = 0

    def uniforms(self, n: int) -> np.ndarray:
        self.counter += n
        k = word_array(self.key, np.arange(self.counter - n, self.counter))
        k >>= _S11
        return k * _U01
