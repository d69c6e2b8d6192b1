"""Forward simulation of the conditional Markov chain.

Each step of `simulate` updates every site independently: site i fires with
probability ``transition_probabilities(env, params, x)[i]``, consuming n
consecutive uniforms from the stream in site order.  The chain starts from an
arbitrary initial configuration, optionally discarding a burn-in prefix.
"""

from __future__ import annotations

from math import ceil, log

import numpy as np

from .model import (Environment, InputError, ModelParams, Trajectory,
                    interaction_kernel)
from .rng import DRAW_BUDGET, Stream, derive_key


def default_burnin(lam: float, tail: float = 1e-6) -> int:
    """Steps after which the regeneration tail (1-lam)^k drops below `tail`."""
    if lam >= 1.0:
        return 0
    return ceil(log(tail) / log(1.0 - lam))


def simulate(env: Environment, params: ModelParams, x0, t_len: int,
             burnin: int = 0, seed: int = 0) -> Trajectory:
    """Run the chain for burnin + t_len steps and record the last t_len.

    The first recorded configuration is one transition away from ``x0`` when
    ``burnin == 0``.  Output is a deterministic function of all arguments,
    and a longer run with the same inputs extends a shorter one (prefix
    property), which experiment batches rely on.

    ``x0`` must be binary: then every partial sum of ``signed @ x`` is an
    integer of magnitude at most n, exact in float32 for n < 2**24, so the
    float32 matvec gives the float64 probabilities bit for bit.  The stream is
    counter-based, so drawing a block of steps' uniforms at once changes no draw.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    if burnin < 0:
        raise InputError(f"burnin must be >= 0, got {burnin}")
    n = env.n
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (n,):
        raise InputError(f"x0 must have length {n}, got shape {x.shape}")
    if not ((x == 0.0) | (x == 1.0)).all():
        raise InputError("x0 entries must be 0 or 1")

    stream = Stream(derive_key(seed, "forward-sim"))
    base, signed, coef = interaction_kernel(env, params)
    signed = signed.astype(np.float32)
    x = x.astype(np.float32)
    out = np.empty((n, t_len), dtype=np.uint8)
    steps = burnin + t_len
    block = max(1, DRAW_BUDGET // n)
    for start in range(0, steps, block):
        draws = stream.uniforms(min(block, steps - start) * n).reshape(-1, n)
        for k, u in enumerate(draws, start):
            bits = u < base + coef * (signed @ x).astype(np.float64)
            x = bits.astype(np.float32)
            if k >= burnin:
                out[:, k - burnin] = bits
    return Trajectory(out)


def zero_state(n: int) -> np.ndarray:
    """The default all-silent initial configuration."""
    return np.zeros(n, dtype=np.uint8)
