"""Forward simulation of the conditional Markov chain.

`simulate` runs the copy rule of `densigraph.perfect`, whose one-step law is
the model's transition probability, from ``x0`` at field time ``-burnin`` of
the same site field through `perfect_sample`'s runner.  Wherever the first
column's backward walks fix their value within the burn-in (by default the
exact sampler's depth bound), the window is `perfect_sample`'s.
"""

from __future__ import annotations

import numpy as np

from .model import (Environment, InputError, ModelParams, Trajectory, _adopt,
                    _check_binary, _check_n)
from .perfect import SiteField, _window, default_max_depth


def default_burnin(lam: float) -> int:
    """The exact sampler's depth bound, or 0 when every site fixes its value
    at its own draw."""
    return 0 if lam >= 1.0 else default_max_depth(lam)


def simulate(env: Environment, params: ModelParams, x0, t_len: int,
             burnin: int = 0, seed: int = 0) -> Trajectory:
    """Run the chain for burnin + t_len steps and record the last t_len.

    The first recorded configuration is one transition away from ``x0`` when
    ``burnin == 0``.  Output is a deterministic function of all arguments,
    and a longer run with the same inputs extends a shorter one (prefix
    property), which experiment batches rely on.  Step k (1-based) reads the
    site field at time k - burnin.  Memory is the window plus one draw chunk.
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    if burnin < 0:
        raise InputError(f"burnin must be >= 0, got {burnin}")
    n = env.n
    x0 = np.asarray(x0)
    if x0.shape != (n,):
        raise InputError(f"x0 must have length {n}, got shape {x0.shape}")
    _check_binary(x0, "x0")

    _check_n(env, params)
    field = SiteField(seed, params)
    return _adopt(Trajectory, x=_window(field, env, x0, -burnin, t_len).T)


def zero_state(n: int) -> np.ndarray:
    """The default all-silent initial configuration."""
    return np.zeros(n, dtype=np.uint8)
