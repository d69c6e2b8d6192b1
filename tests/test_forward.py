import numpy as np
import pytest

from densigraph import (ModelParams, build_partition, default_burnin,
                        perfect_sample, sample_environment, simulate,
                        transition_probabilities, zero_state)
from densigraph.rng import DRAW_BUDGET
from densigraph.model import Environment, InputError
from densigraph.oracles import column_indices

from _reference import backward_walk_reference, binomial_sigma, simulate_reference


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


@pytest.mark.parametrize("x0", [[0, 2, 0], ["0", "1", "0"]], ids=["two", "text"])
def test_x0_is_checked_by_the_shared_binary_check(x0):
    params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=3)
    env = sample_environment(params, seed=0)
    with pytest.raises(InputError, match="^x0 entries must be 0 or 1$"):
        simulate(env, params, x0, 5, seed=1)


def _block(n):
    """Steps whose site draws `simulate` makes in one call."""
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


def _check_against_reference(n, mu, lam, r_plus, t_len, burnin):
    params = ModelParams(mu=mu, lam=lam, p=0.5, r_plus=r_plus, n=n)
    env = sample_environment(params, seed=n)
    x0 = (np.arange(n) % 3 == 1).astype(np.uint8)
    got = simulate(env, params, x0, t_len, burnin=burnin, seed=t_len)
    want = simulate_reference(env, params, x0, t_len, burnin, seed=t_len)
    assert got.x.shape == (n, t_len)
    assert np.array_equal(got.x, want)


# The name dates from the float32 matvec kernel, when the reference was a
# float64 matvec per step; it is kept so that the case ids stay stable.  The
# reference now steps the copy rule one site at a time from `SiteField.draw`.
@pytest.mark.parametrize("n, lam, r_plus, t_len, burnin", KERNEL_CASES)
def test_matches_float64_per_step_reference(n, lam, r_plus, t_len, burnin):
    t_len, burnin = (k * _block(n) + d for k, d in (t_len, burnin))
    _check_against_reference(n, 0.4 * lam, lam, r_plus, t_len, burnin)


@pytest.mark.parametrize("n, mu, lam, t_len, burnin", [
    (50, 0.3, 1.0, 700, 3),      # lam = 1: every site regenerates
    (50, 0.0, 0.5, 700, 3),      # mu = 0: regenerations are silent
    (50, 0.3, 0.3, 700, 3),      # mu = lam: regenerations fire
    (7, 0.0, 0.05, 40, 0),       # long walks, no burn-in
    (5, 0.1, 0.2, 1, 9),         # burn-in runs one step at a time
    (50, 0.1, 0.25, 30, 100),    # burn-in in four passes, the last partial
])
def test_matches_scalar_reference_at_corners(n, mu, lam, t_len, burnin):
    _check_against_reference(n, mu, lam, 0.5, t_len, burnin)


GRAND_COUPLING_CASES = [(lam, n, start) for lam in (0.2, 0.5, 0.9)
                        for n in (3, 50, 500) for start in (0, 1)]


@pytest.mark.parametrize("lam, n, start", GRAND_COUPLING_CASES)
def test_grand_coupling_with_perfect_sampler(lam, n, start):
    # With the default burn-in every first-column backward walk regenerates
    # after time -burnin, so x0 is forgotten and the window is the exact one.
    params = ModelParams(mu=0.5 * lam, lam=lam, p=0.5, r_plus=0.5, n=n)
    env = sample_environment(params, seed=n)
    x0 = np.full(n, start, dtype=np.uint8)
    for seed in range(5):
        forward = simulate(env, params, x0, 300, burnin=default_burnin(lam), seed=seed)
        exact = perfect_sample(env, params, 300, seed=seed)
        assert np.array_equal(forward.x, exact.x)


def test_minimal_exact_start():
    # The deepest column-1 walk takes D draws, regenerating at time 2 - D:
    # burnin = D - 1 places x0 just before it, and the window is the exact
    # one from either start; burnin = D - 2 misses that regeneration.
    t_len, short_differs = 4, []
    for lam in (0.05, 0.2, 0.9):
        for n in (3, 50, 500):
            params = ModelParams(mu=0.5 * lam, lam=lam, p=0.5, r_plus=0.5, n=n)
            env = sample_environment(params, seed=n)
            for seed in range(10):
                depth = max(len(backward_walk_reference(seed, params, (i, 1))[0])
                            for i in range(n))
                exact = perfect_sample(env, params, t_len, seed=seed).x
                for start in (0, 1):
                    x0 = np.full(n, start, dtype=np.uint8)
                    forward = simulate(env, params, x0, t_len, burnin=depth - 1,
                                       seed=seed)
                    assert np.array_equal(forward.x, exact)
                    if depth >= 2:
                        short = simulate(env, params, x0, t_len,
                                         burnin=depth - 2, seed=seed)
                        short_differs.append(not np.array_equal(short.x, exact))
    assert any(short_differs)


def test_short_burnin_misses_only_walks_that_outlive_it():
    # A cell can differ from the exact window only if its backward walk
    # reaches x0's time -burnin, i.e. regenerates before time 1 - burnin.
    params = ModelParams(mu=0.1, lam=0.2, p=0.5, r_plus=0.5, n=50)
    env = sample_environment(params, seed=3)
    burnin, differ = 5, 0
    for seed in range(10):
        exact = perfect_sample(env, params, 300, seed=seed).x
        for start in (0, 1):
            forward = simulate(env, params, np.full(50, start, dtype=np.uint8),
                               300, burnin=burnin, seed=seed).x
            cells = np.argwhere(forward != exact)
            differ += len(cells)
            for i, t in cells:
                path, _ = backward_walk_reference(seed, params, (int(i), int(t) + 1))
                assert path[-1][1] < 1 - burnin
    assert differ > 0
