"""Forward simulation of the conditional Markov chain.

`simulate` runs the copy rule of `densigraph.perfect`, whose one-step law is
the model's transition probability, from ``x0`` at field time ``-burnin``:
column 1 is `perfect_sample`'s backward fold, where walks live at that floor
read ``x0``, so the window is `perfect_sample`'s wherever every walk is fixed
above it, and a call costs O(n (D + t_len)), D <= burnin + 1 the deepest walk.
"""

from __future__ import annotations

import numpy as np

from .model import (Environment, InputError, ModelParams, Trajectory, _adopt,
                    _check_binary, _check_n)
from .perfect import SiteField, _column_one, _window, default_max_depth


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
    site field at time k - burnin, but only where a column-1 walk reaches
    it.  Memory is the window plus one draw chunk; time O(n (D + t_len)).
    """
    if t_len < 1:
        raise InputError(f"t_len must be >= 1, got {t_len}")
    if burnin < 0:
        raise InputError(f"burnin must be >= 0, got {burnin}")
    x0 = np.asarray(x0)
    if x0.shape != (env.n,):
        raise InputError(f"x0 must have length {env.n}, got shape {x0.shape}")
    _check_binary(x0, "x0")

    _check_n(env, params)
    field = SiteField(seed, params)
    x1 = _column_one(field, env, burnin + 1, x0.astype(np.uint8))
    return _adopt(Trajectory, x=_window(field, env, x1, t_len).T)


def zero_state(n: int) -> np.ndarray:
    """The default all-silent initial configuration."""
    return np.zeros(n, dtype=np.uint8)
