import numpy as np
import pytest

from densigraph import (ModelParams, build_partition, default_burnin,
                        sample_environment, simulate,
                        transition_probabilities, zero_state)
from densigraph.rng import DRAW_BUDGET
from densigraph.model import Environment
from densigraph.oracles import column_indices

from _reference import binomial_sigma, simulate_reference


def fixture_env_params():
    params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=2 / 3, n=3)
    theta = np.array([[0, 1, 1], [0, 0, 0], [0, 0, 0]], dtype=np.uint8)
    env = Environment(theta=theta, partition=build_partition(3, 2 / 3))
    return env, params


def test_interaction_free_chain_is_iid_bernoulli_beta():
    # lam = 1 removes the interaction term entirely
    params = ModelParams(mu=0.3, lam=1.0, p=0.5, r_plus=0.5, n=2)
    env = sample_environment(params, seed=0)
    traj = simulate(env, params, zero_state(2), t_len=100_000, seed=42)
    beta = params.beta
    sigma = binomial_sigma(beta, traj.t_len)
    for i in range(2):
        assert abs(traj.x[i].mean() - beta) <= 3 * sigma


def test_silent_chain_stays_silent():
    params = ModelParams(mu=0.0, lam=0.5, p=0.0, r_plus=0.5, n=4)
    env = sample_environment(params, seed=1)
    traj = simulate(env, params, np.ones(4, dtype=np.uint8), t_len=200, seed=3)
    assert not traj.x.any()


def test_forced_draws_single_row():
    params = ModelParams(mu=1.0, lam=1.0, p=0.5, r_plus=0.5, n=5)  # beta = 1
    env = sample_environment(params, seed=2)
    traj = simulate(env, params, zero_state(5), t_len=1, burnin=0, seed=9)
    assert traj.x.shape == (5, 1)
    assert traj.x.all()


def test_determinism_and_prefix_property():
    params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=10)
    env = sample_environment(params, seed=5)
    a = simulate(env, params, zero_state(10), 50, burnin=7, seed=11)
    b = simulate(env, params, zero_state(10), 50, burnin=7, seed=11)
    longer = simulate(env, params, zero_state(10), 80, burnin=7, seed=11)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.x, longer.x[:, :50])


def test_frozen_configuration_matches_transition_probability():
    env, params = fixture_env_params()
    x = np.array([0, 1, 0], dtype=np.uint8)
    target = transition_probabilities(env, params, x)
    assert target[0] == pytest.approx(0.2 + 0.4 * (2 / 3), abs=1e-12)
    draws = 100_000
    hits = np.zeros(3)
    for seed in range(draws):
        hits += simulate(env, params, x, t_len=1, burnin=0, seed=seed).x[:, 0]
    freqs = hits / draws
    for i in range(3):
        assert abs(freqs[i] - target[i]) <= 3 * binomial_sigma(target[i], draws)


def test_one_step_conditionals_match_kernel():
    env, params = fixture_env_params()
    traj = simulate(env, params, zero_state(3), 20_000,
                    burnin=default_burnin(params.lam), seed=13)
    states = column_indices(traj.x[:, :-1])
    following = traj.x[:, 1:]
    checked = 0
    for s in range(8):
        mask = states == s
        visits = int(mask.sum())
        if visits < 500:
            continue
        x_prev = np.array([(s >> i) & 1 for i in range(3)])
        target = transition_probabilities(env, params, x_prev)
        freqs = following[:, mask].mean(axis=1)
        for i in range(3):
            assert abs(freqs[i] - target[i]) <= 3 * binomial_sigma(target[i], visits)
        checked += 1
    assert checked >= 4  # the chain must actually visit several states


def test_default_burnin_values():
    assert default_burnin(0.5) == 20
    assert default_burnin(0.9) == 6
    assert default_burnin(1.0) == 0


def test_input_validation():
    params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=3)
    env = sample_environment(params, seed=0)
    with pytest.raises(ValueError):
        simulate(env, params, zero_state(3), 0, seed=1)
    with pytest.raises(ValueError):
        simulate(env, params, zero_state(3), 5, burnin=-1, seed=1)
    with pytest.raises(ValueError):
        simulate(env, params, zero_state(4), 5, seed=1)
    for bad in (0.5, 2, -1, np.nan):
        x0 = np.zeros(3)
        x0[1] = bad
        with pytest.raises(ValueError, match="0 or 1"):
            simulate(env, params, x0, 5, seed=1)


def _block(n):
    """Steps whose uniforms `simulate` draws in one call."""
    return max(1, DRAW_BUDGET // n)


# (n, lam, r_plus, t_len, burnin), with t_len and burnin given as (k, d) for
# k * block + d, so that each case lands on or next to a block boundary.
KERNEL_CASES = [
    (1, 0.5, 0.5, (0, 1), (0, 0)),       # size_plus == n
    (1, 0.05, 0.3, (1, 1), (0, 0)),
    (3, 0.05, 0.99, (1, -1), (0, 0)),    # size_plus == n
    (3, 0.5, 0.5, (1, 0), (0, 0)),
    (50, 0.05, 0.3, (1, 1), (0, 2)),
    (50, 0.2, 0.6, (1, 0), (1, -3)),     # burn-in ends inside block 1
    (500, 0.05, 0.5, (0, 1), (0, 0)),
    (500, 0.5, 0.5, (1, -1), (0, 0)),
    (500, 0.5, 0.7, (1, 0), (0, 0)),
    (500, 0.9, 0.3, (1, 1), (0, 0)),
    (500, 0.5, 0.5, (2, 7), (1, 4)),     # burn-in ends inside block 2
]


@pytest.mark.parametrize("n, lam, r_plus, t_len, burnin", KERNEL_CASES)
def test_matches_float64_per_step_reference(n, lam, r_plus, t_len, burnin):
    block = max(1, DRAW_BUDGET // n)  # steps per Stream.uniforms call
    t_len, burnin = (k * block + d for k, d in (t_len, burnin))
    params = ModelParams(mu=0.4 * lam, lam=lam, p=0.5, r_plus=r_plus, n=n)
    env = sample_environment(params, seed=n)
    x0 = (np.arange(n) % 3 == 1).astype(np.uint8)
    got = simulate(env, params, x0, t_len, burnin=burnin, seed=t_len)
    want = simulate_reference(env.theta, env.partition.size_plus, params.mu,
                              lam, x0, t_len, burnin, seed=t_len)
    assert got.x.shape == (n, t_len)
    assert np.array_equal(got.x, want)
