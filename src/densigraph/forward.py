"""Forward simulation of the conditional Markov chain.

Each step of `simulate` updates every site independently: site i fires with
probability ``transition_probabilities(env, params, x)[i]``, consuming n
consecutive uniforms from the stream in site order.  The chain starts from an
arbitrary initial configuration, optionally discarding a burn-in prefix.
"""

from __future__ import annotations

from math import ceil, log

import numpy as np

from .model import Environment, ModelParams, Trajectory, interaction_kernel
from .rng import Stream, derive_key


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
    """
    if t_len < 1:
        raise ValueError(f"t_len must be >= 1, got {t_len}")
    if burnin < 0:
        raise ValueError(f"burnin must be >= 0, got {burnin}")
    n = env.n
    x0 = np.asarray(x0, dtype=np.float64)
    if x0.shape != (n,):
        raise ValueError(f"x0 must have length {n}, got shape {x0.shape}")

    stream = Stream(derive_key(seed, "forward-sim"))
    base, signed, coef = interaction_kernel(env, params)
    out = np.empty((n, t_len), dtype=np.uint8)
    x = x0
    for k in range(burnin + t_len):
        probs = base + coef * (signed @ x)
        bits = stream.uniforms(n) < probs
        x = bits.astype(np.float64)
        if k >= burnin:
            out[:, k - burnin] = bits
    return Trajectory(out)


def zero_state(n: int) -> np.ndarray:
    """The default all-silent initial configuration."""
    return np.zeros(n, dtype=np.uint8)
