import inspect
import tracemalloc
from functools import cache
from math import ceil, log, log1p

import numpy as np
import pytest
from scipy import stats

from densigraph import (DepthExceededError, ModelParams, SiteField,
                        coalescence_probability, default_max_depth,
                        exact_stationary, perfect_sample, simulate,
                        transition_probabilities, zero_state)
from densigraph import perfect
from densigraph.model import InputError, sample_environment
from densigraph.perfect import _derive
from densigraph.rng import DRAW_BUDGET, absorb, absorb_array, word_array

from _reference import (COALESCENCE_Z, backward_walk_reference, binomial_sigma,
                        coalescence_probability_mc, column_indices,
                        empirical_distribution, field_key,
                        fixing_walk_reference, perfect_sample_reference,
                        site_draw_reference, trial_draws, tv_distance)


def small_params(n=3, lam=0.5, mu=0.25, r_plus=2 / 3, p=0.5):
    return ModelParams(mu=mu, lam=lam, p=p, r_plus=r_plus, n=n)


class TestSiteDraw:
    def test_deterministic(self):
        params = small_params(n=7)
        sites = [(i, t) for i in range(7) for t in range(-3, 3)]
        first = [site_draw_reference(field_key(3), params, *z) for z in sites]
        second = [site_draw_reference(field_key(3), params, *z) for z in sites]
        other_seed = [site_draw_reference(field_key(4), params, *z) for z in sites]
        assert first == second
        assert first != other_seed

    def test_forced_regeneration_when_lam_one(self):
        params = ModelParams(mu=0.4, lam=1.0, p=0.5, r_plus=0.5, n=9)
        for t in range(-5, 5):
            for i in range(9):
                assert site_draw_reference(field_key(0), params, i, t)[0] == 0

    def test_marginal_frequencies(self):
        params = ModelParams(mu=0.15, lam=0.5, p=0.5, r_plus=0.5, n=10)
        key = field_key(101)
        draws = 100_000
        js = np.empty(draws, dtype=np.int64)
        xis = np.empty(draws, dtype=np.int64)
        for t in range(draws):
            js[t], xis[t] = site_draw_reference(key, params, t % 10, t // 10)
        assert abs((js == 0).mean() - 0.5) <= 3 * binomial_sigma(0.5, draws)
        for k in range(1, 11):
            assert abs((js == k).mean() - 0.05) <= 3 * binomial_sigma(0.05, draws)
        # xi is drawn only where the site regenerates: Bernoulli(beta) there.
        assert not xis[js > 0].any()
        regen = xis[js == 0]
        beta = params.beta
        assert abs(regen.mean() - beta) <= 3 * binomial_sigma(beta, regen.size)

    def test_batch_matches_scalar(self):
        params = ModelParams(mu=0.1, lam=0.4, p=0.5, r_plus=0.5, n=6)
        field = SiteField(0, params)
        assert field.key == field_key(0)
        keys = np.arange(50, dtype=np.uint64) * np.uint64(0x9E3779B97F4A7C15)
        sites = np.arange(50, dtype=np.int64) % 6
        times = np.arange(50, dtype=np.int64) - 25
        # The coalescence probe's decoding of its own per-trial row keys.
        src, copy, xis = trial_draws(field, absorb_array(keys, sites), times)
        js = (src + 1) * copy  # the reference's 1-based labels, 0 on regeneration
        for k in range(50):
            assert (site_draw_reference(int(keys[k]), params, int(sites[k]),
                                        int(times[k])) == (js[k], xis[k]))
        # The field's n row keys broadcast against a scalar time or a column
        # of times.
        src, copy, xis = field.draws(-4)
        js = (src + 1) * copy
        for i in range(6):
            assert site_draw_reference(field.key, params, i, -4) == (js[i], xis[i])
        src, copy, xis = field.draws(times[:, None])
        js = (src + 1) * copy
        assert js.shape == (50, 6)
        for k in range(50):
            for i in range(6):
                assert (site_draw_reference(field.key, params, i, int(times[k]))
                        == (js[k, i], xis[k, i]))

    @pytest.mark.parametrize("lam, mu", [(1.0, 0.0), (0.5, 1e-300),
                                         (1e-300, 1e-300), (0.7, 0.5)])
    def test_integer_cuts_match_float_comparison(self, lam, mu):
        # k 2^-53 is the uniform the float rule compares with lam and mu.
        field = SiteField(0, ModelParams(mu=mu, lam=lam, p=0.5, r_plus=0.5, n=4))
        for x, cut in ((lam, field.lam_cut), (mu, field.mu_cut)):
            k = np.array([c for c in (cut - 1, cut, cut + 1) if 0 <= c < 2**53],
                         dtype=np.uint64)
            u = k * 2.0**-53
            assert np.array_equal(k < cut, u < x)
            _, copy, xi = field._split(k.copy())
            assert np.array_equal(copy, u >= lam)
            assert np.array_equal(xi, u < mu)


class TestBackwardWalk:
    def test_immediate_regeneration_lam_one(self):
        params = ModelParams(mu=0.4, lam=1.0, p=0.5, r_plus=0.5, n=4)
        path, _ = backward_walk_reference(0, params, (2, 11))
        assert path == ((2, 11),)

    def test_deterministic(self):
        params = small_params(n=8)
        w1 = backward_walk_reference(9, params, (1, 0))
        w2 = backward_walk_reference(9, params, (1, 0))
        assert w1 == w2

    def test_geometric_depth_distribution(self):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=10)
        walks = 20_000
        depths = np.array([
            0 - backward_walk_reference(seed, params, (0, 0))[0][-1][1]
            for seed in range(walks)  # fresh field per walk: independent draws
        ])
        # survival steps before regeneration are geometric(lam): mean (1-lam)/lam
        mean, var = 1.0, 2.0
        assert abs(depths.mean() - mean) <= 3 * (var / walks) ** 0.5

    def test_path_consistency_with_site_draws(self):
        params = small_params(n=6, lam=0.3, r_plus=0.5)
        path, xi = backward_walk_reference(2, params, (4, 3))
        assert path[0] == (4, 3)
        for (i, t), (i_next, t_next) in zip(path, path[1:]):
            j, _ = site_draw_reference(field_key(2), params, i, t)
            assert j == i_next + 1 and t_next == t - 1
        assert site_draw_reference(field_key(2), params, *path[-1]) == (0, xi)
        assert len(path) == 3 - path[-1][1] + 1

    def test_depth_exceeded(self):
        params = ModelParams(mu=0.0, lam=0.001, p=0.5, r_plus=0.5, n=50)
        with pytest.raises(DepthExceededError):
            backward_walk_reference(1, params, (0, 0), max_depth=1)

    def test_default_max_depth(self):
        assert default_max_depth(0.5) == 40
        assert default_max_depth(1.0) == 1
        # A lam just large enough that 1 - lam < 1 keeps its (huge) bound.
        assert default_max_depth(1.2e-16) == ceil(log(1e-12) / log(1.0 - 1.2e-16))
        with pytest.raises(InputError, match="lam=1e-17 is too small"):
            default_max_depth(1e-17)


class TestSharedFieldCoalescence:
    """The Monte Carlo coalescence probe of `tests/_reference.py` walks on
    `SiteField.draws`; its match with the closed form checks that the field
    gives walks on one site at one time identical draws."""

    @pytest.mark.parametrize("n, lam, z1, z2, trials, seed", [
        (5, 0.2, (0, 0), (2, 0), 20_000, 11),  # lag 0
        (10, 0.3, (4, 3), (1, 0), 20_000, 12),  # lag 3, later walk first
        (1, 0.4, (0, 0), (0, -2), 20_000, 13),  # one site at two times
    ])
    def test_matches_closed_form(self, n, lam, z1, z2, trials, seed):
        params = ModelParams(mu=lam / 2, lam=lam, p=0.5, r_plus=0.5, n=n)
        exact = coalescence_probability(params, z1, z2)
        est, _ = coalescence_probability_mc(params, z1, z2, trials=trials, seed=seed)
        assert abs(est - exact) <= COALESCENCE_Z * (exact * (1 - exact) / trials) ** 0.5

    @pytest.mark.parametrize("trials", [0, -3])
    def test_rejects_fewer_than_one_trial(self, trials):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=4)
        with pytest.raises(InputError, match=f"trials must be >= 1, got {trials}"):
            coalescence_probability_mc(params, (0, 0), (1, -1), trials=trials, seed=0)

    def test_immediate_regeneration_never_coalesces(self):
        params = ModelParams(mu=0.2, lam=1.0, p=0.5, r_plus=0.5, n=5)
        est, se = coalescence_probability_mc(params, (0, 0), (1, 0),
                                             trials=2000, seed=3)
        assert est == coalescence_probability(params, (0, 0), (1, 0)) == 0.0
        assert se == 0.0

    def test_bound_at_unit_lag(self):
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=10)
        est, se = coalescence_probability_mc(params, (0, 0), (1, -1),
                                             trials=100_000, seed=5)
        bound = 0.5 / ((1 - 0.25) * 10)
        assert est <= bound + 3 * se
        assert est > 0.01  # the probe actually observes coalescence

    def test_same_time_lag_uses_unit_exponent_bound(self):
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=10)
        est, se = coalescence_probability_mc(params, (0, 0), (1, 0),
                                             trials=100_000, seed=6)
        bound = 0.5 ** max(0, 1) / ((1 - 0.25) * 10)
        assert est <= bound + 3 * se

    def test_rejects_identical_sites(self):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=4)
        with pytest.raises(ValueError):
            coalescence_probability_mc(params, (1, 2), (1, 2), trials=10, seed=0)

    @pytest.mark.parametrize("z1, z2", [((99, 0), (1, -1)), ((0, 0), (4, -1)),
                                        ((-1, 0), (1, 0))])
    def test_rejects_sites_outside_range(self, z1, z2):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=4)
        with pytest.raises(InputError, match="must lie in 0..3"):
            coalescence_probability_mc(params, z1, z2, trials=10, seed=0)

    @pytest.mark.parametrize("max_depth", [0, -3])
    def test_rejects_bad_max_depth(self, max_depth):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=4)
        with pytest.raises(InputError, match=f"max_depth must be >= 1, got {max_depth}"):
            coalescence_probability_mc(params, (0, 0), (1, -1), trials=10, seed=0,
                                       max_depth=max_depth)

    @pytest.mark.parametrize("z1, z2, seed, expected", [
        # (1, 4) is born later: its walk first steps down to time 1 alone.
        ((1, 4), (3, 1), 5, (0.059333333333333335, 0.004313269791735302)),
        ((0, 0), (2, 0), 9, (0.09633333333333334, 0.005386811741720769)),
    ])
    def test_pinned_estimates(self, z1, z2, seed, expected):
        # Exact values: any change to the site draws or the walks moves them.
        params = ModelParams(mu=0.2, lam=0.4, p=0.5, r_plus=0.5, n=5)
        assert coalescence_probability_mc(params, z1, z2, trials=3000,
                                          seed=seed) == expected

    def test_walk_down_stops_once_every_walk_regenerated(self, monkeypatch):
        # At lambda = 1/2 all 100 later-born walks regenerate within a few
        # dozen of the 20000 steps down to the common time.
        calls = []
        split = SiteField._split

        def counting_split(self, k):
            calls.append(k.shape)
            return split(self, k)

        monkeypatch.setattr(SiteField, "_split", counting_split)
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=10)
        assert coalescence_probability_mc(params, (0, 20000), (1, 0), trials=100,
                                          seed=0) == (0.0, 0.0)
        assert 0 < len(calls) < 100

    def test_deterministic(self):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=6)
        a = coalescence_probability_mc(params, (0, 0), (2, -2), trials=5000, seed=9)
        b = coalescence_probability_mc(params, (0, 0), (2, -2), trials=5000, seed=9)
        assert a == b


class TestPerfectSample:
    def test_all_regenerating_equals_xi_field(self):
        params = ModelParams(mu=0.3, lam=1.0, p=0.5, r_plus=0.5, n=4)
        env = sample_environment(params, seed=1)
        traj = perfect_sample(env, params, 200, seed=31)
        for i in range(4):
            for t in (1, 57, 200):
                assert traj.x[i, t - 1] == site_draw_reference(
                    field_key(31), params, i, t)[1]
        beta = params.beta
        sigma = binomial_sigma(beta, traj.x.size)
        assert abs(traj.x.mean() - beta) <= 3 * sigma

    def test_degenerate_beta_one_p_zero(self):
        # beta = 1: regenerating sites are 1; p = 0 kills every copy, so
        # non-regenerating sites are 0 and the marginal P(X=1) equals lam.
        params = ModelParams(mu=0.35, lam=0.35, p=0.0, r_plus=0.5, n=5)
        env = sample_environment(params, seed=2)
        traj = perfect_sample(env, params, 400, seed=8)
        for i in range(5):
            for t in (1, 100, 400):
                j, _ = site_draw_reference(field_key(8), params, i, t)
                expect = 1 if j == 0 else 0
                assert traj.x[i, t - 1] == expect
        sigma = binomial_sigma(params.lam, traj.x.size)
        assert abs(traj.x.mean() - params.lam) <= 3 * sigma

    @pytest.mark.parametrize("n, lam, r_plus, t_len", [
        (5, 0.5, 0.6, 12), (12, 0.05, 0.3, 6), (20, 0.2, 0.5, 8),
        (9, 0.35, 0.75, 10), (40, 0.9, 0.4, 5),
    ])
    def test_matches_backward_walk_reference(self, n, lam, r_plus, t_len):
        # Reference: every window site independently, by folding the copy
        # rule forward along its own backward walk from the regeneration.
        params = ModelParams(mu=lam / 3, lam=lam, p=0.5, r_plus=r_plus, n=n)
        env = sample_environment(params, seed=3)
        seed = 4
        sp = env.partition.size_plus
        expect = np.empty((n, t_len), dtype=np.uint8)
        for i in range(n):
            for t in range(1, t_len + 1):
                path, value = backward_walk_reference(seed, params, (i, t))
                for (dst, _), (src, _) in zip(path[-2::-1], path[:0:-1]):
                    if not env.theta[dst, src]:
                        value = 0
                    elif src >= sp:
                        value = 1 - value
                expect[i, t - 1] = value
        traj = perfect_sample(env, params, t_len, seed=seed)
        assert np.array_equal(traj.x, expect)

    def test_deterministic(self):
        params = small_params(n=4)
        env = sample_environment(params, seed=5)
        a = perfect_sample(env, params, 9, seed=6)
        b = perfect_sample(env, params, 9, seed=6)
        assert np.array_equal(a.x, b.x)

    def test_structural_audit_against_resolution_rule(self):
        params = small_params(n=4, lam=0.4, r_plus=0.5)
        env = sample_environment(params, seed=10)
        t_len = 6
        traj = perfect_sample(env, params, t_len, seed=12)
        sp = env.partition.size_plus
        for i in range(4):
            for t in range(2, t_len + 1):  # parents of column 1 live off-window
                j, xi = site_draw_reference(field_key(12), params, i, t)
                if j == 0:
                    assert traj.x[i, t - 1] == xi
                else:
                    src = j - 1
                    parent = int(traj.x[src, t - 2])
                    if env.theta[i, src]:
                        expect = parent if src < sp else 1 - parent
                    else:
                        expect = 0
                    assert traj.x[i, t - 1] == expect

    def test_matches_exact_stationary_distribution(self):
        params = small_params()
        env = sample_environment(params, seed=7)
        exact = exact_stationary(env, params)
        m = 20_000
        idx = np.empty(m, dtype=np.int64)
        for k in range(m):
            idx[k] = column_indices(perfect_sample(env, params, 1, seed=k).x)[0]
        emp = empirical_distribution(idx, 3)
        assert tv_distance(emp, exact) < 0.02

    def test_columns_are_time_shift_invariant(self):
        params = small_params()
        env = sample_environment(params, seed=7)
        m, t_len = 4000, 3
        counts = np.zeros((t_len, 8), dtype=np.int64)
        for k in range(m):
            window = perfect_sample(env, params, t_len, seed=100_000 + k)
            for t, state in enumerate(column_indices(window.x)):
                counts[t, state] += 1
        _, p_value, _, _ = stats.chi2_contingency(counts)
        assert p_value > 1e-3

    def test_one_step_conditionals_match_kernel(self):
        params = small_params()
        env = sample_environment(params, seed=7)
        m = 20_000
        states = np.empty(m, dtype=np.int64)
        following = np.empty((3, m), dtype=np.uint8)
        for k in range(m):
            window = perfect_sample(env, params, 2, seed=500_000 + k)
            states[k] = column_indices(window.x[:, :1])[0]
            following[:, k] = window.x[:, 1]
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
        assert checked >= 6

    def test_rejects_bad_arguments(self):
        params = small_params()
        env = sample_environment(params, seed=1)
        with pytest.raises(ValueError):
            perfect_sample(env, params, 0, seed=1)

    def test_depth_bound_is_no_argument(self):
        # The bound comes from lam alone (`default_max_depth`), so a caller
        # cannot set it.
        assert list(inspect.signature(perfect_sample).parameters) == [
            "env", "params", "t_len", "seed"]

    def test_depth_exceeded(self, monkeypatch):
        params = ModelParams(mu=0.0, lam=0.001, p=0.5, r_plus=0.5, n=50)
        env = sample_environment(params, seed=1)
        monkeypatch.setattr(perfect, "default_max_depth", lambda lam: 1)
        with pytest.raises(DepthExceededError, match="within 1 steps .*; check lam$"):
            perfect_sample(env, params, 3, seed=1)
        # The bound applies to the column-1 walks only: once they all
        # regenerate at their first draw, later copying columns never walk.
        params = small_params(lam=0.9)
        env = sample_environment(params, seed=1)
        seed = next(s for s in range(1000)
                    if all(site_draw_reference(field_key(s), params, i, 1)[0] == 0
                           for i in range(3)))
        assert any(site_draw_reference(field_key(seed), params, i, t)[0]
                   for i in range(3) for t in range(2, 40))
        traj = perfect_sample(env, params, 40, seed=seed)
        monkeypatch.undo()
        assert np.array_equal(traj.x, perfect_sample(env, params, 40, seed=seed).x)


def first_chunk(n, lam, p):
    """Backward columns in the column-1 fold's first chunk, before the
    `DRAW_BUDGET` cap: the smallest c with n q^c <= 1/16 for the walks'
    continue rate q = (1 - lam) p > 0."""
    return ceil(log(16 * n) / -(log1p(-lam) + log(p)))


def column1_depth(seed, env, params):
    """D, the draws of the deepest column-1 walk until its value is fixed,
    from the fixing walk reference."""
    return max(len(fixing_walk_reference(seed, env, params, (i, 1))[0])
               for i in range(params.n))


def regeneration_depth(seed, params):
    """The draws of the deepest column-1 walk until it regenerates."""
    return max(len(backward_walk_reference(seed, params, (i, 1))[0])
               for i in range(params.n))


class TestDepthBoundary:
    # D past the first chunk (n=3, lam=0.05), and D ending exactly at the end
    # of the first chunk (n=3, lam=0.5, p=0.7: four columns).  Walks past it
    # need p=1, with no absent edge to fix a value early.  At p=0.7 the seed
    # is one whose walks regenerate deeper than D, so the bound counts the
    # draws until a value is fixed, not until a regeneration.
    @pytest.mark.parametrize("n, lam, where", [
        (3, 0.05, "past"), (3, 0.5, "past"), (3, 0.5, "at"), (30, 0.5, "at"),
    ])
    @pytest.mark.parametrize("t_len", [1, 5])
    def test_max_depth_is_exactly_the_deepest_walk(self, monkeypatch, n, lam,
                                                   where, t_len):
        p = 1.0 if where == "past" else 0.7
        params = ModelParams(mu=lam / 2, lam=lam, p=p, r_plus=0.6, n=n)
        env = sample_environment(params, seed=2)
        c0 = first_chunk(n, lam, p)
        seed, depth = next(
            (s, d) for s in range(5000)
            for d in [column1_depth(s, env, params)]
            if (d == c0 if where == "at" else d > c0 + 1)
            and (p == 1.0 or regeneration_depth(s, params) > d))
        want = perfect_sample(env, params, t_len, seed=seed).x
        monkeypatch.setattr(perfect, "default_max_depth", lambda lam: depth)
        assert np.array_equal(perfect_sample(env, params, t_len, seed=seed).x, want)
        with pytest.raises(DepthExceededError) as walk_error:
            for i in range(n):
                fixing_walk_reference(seed, env, params, (i, 1),
                                      max_depth=depth - 1)
        monkeypatch.setattr(perfect, "default_max_depth", lambda lam: depth - 1)
        with pytest.raises(DepthExceededError) as error:
            perfect_sample(env, params, t_len, seed=seed)
        assert error.value.args == walk_error.value.args

    def test_absent_edges_fix_every_walk_at_its_first_draw(self, monkeypatch):
        # At p = 0 every copy reads an absent edge and takes the value 0, so
        # a bound of one draw suffices although the walks regenerate deeper.
        params = ModelParams(mu=0.25, lam=0.5, p=0.0, r_plus=0.5, n=20)
        env = sample_environment(params, seed=1)
        assert regeneration_depth(2, params) > 1
        monkeypatch.setattr(perfect, "default_max_depth", lambda lam: 1)
        traj = perfect_sample(env, params, 30, seed=2)
        forward = simulate(env, params, zero_state(20), 30, burnin=40, seed=2)
        assert np.array_equal(traj.x, forward.x)

    @pytest.mark.parametrize("t_len", [1, 5])
    def test_each_depth_column_is_hashed_once(self, monkeypatch, t_len):
        # Column 1 is folded from the walks' one backward chunk, so only the
        # window's later columns 2 .. t_len are hashed after it.
        params = small_params()
        env = sample_environment(params, seed=1)
        c0 = first_chunk(3, params.lam, params.p)
        seed = next(s for s in range(100) if column1_depth(s, env, params) < c0)
        rows = []

        def counting_word_array(keys, counter):
            rows.append(len(counter))
            return word_array(keys, counter)

        monkeypatch.setattr(perfect, "word_array", counting_word_array)
        traj = perfect_sample(env, params, t_len, seed=seed)
        assert rows == ([c0] if t_len == 1 else [c0, t_len - 1])
        monkeypatch.undo()
        assert np.array_equal(traj.x, perfect_sample_reference(env, params, t_len,
                                                               seed=seed))


class TestColumnChunks:
    # Columns 2..400 at n=200 span three draw chunks: two chunk boundaries.
    N, T_LEN = 200, 400

    @classmethod
    def params(cls, lam, p=0.5):
        assert cls.T_LEN - 1 > 2 * (DRAW_BUDGET // cls.N)
        return ModelParams(mu=lam / 2, lam=lam, p=p, r_plus=0.6, n=cls.N)

    @pytest.mark.parametrize("lam", [0.2, 0.9])
    def test_matches_per_column_reference(self, lam):
        params = self.params(lam)
        env = sample_environment(params, seed=11)
        traj = perfect_sample(env, params, self.T_LEN, seed=12)
        expect = perfect_sample_reference(env, params, self.T_LEN, seed=12)
        assert np.array_equal(traj.x, expect)

    @pytest.mark.parametrize("lam", [0.2, 0.9])
    def test_chunk_draw_matches_batch_draw(self, lam):
        params = self.params(lam)
        env = sample_environment(params, seed=11)
        field = SiteField(12, params)
        rows, times = np.arange(self.N), np.arange(2, self.T_LEN + 1)
        src, a, g = _derive(field, env, times)
        d_src, copy, xi = field.draws(times[:, None])
        labels, xi_ref = np.array([[site_draw_reference(field.key, params, i, t)
                                    for i in rows.tolist()] for t in times.tolist()]
                                  ).transpose(2, 0, 1)
        assert np.array_equal((d_src + 1) * copy, labels)
        assert np.array_equal(xi, xi_ref)
        regen = ~copy
        assert regen.any() and not regen.all()
        assert np.array_equal(src[copy] + 1, labels[copy])
        # Where a site regenerates, its gate is its value bit xi.
        assert np.array_equal(g[regen], xi[regen])
        # Where it copies, the mask is the edge and the gate the flip through it.
        assert np.array_equal(a, env.theta[rows, src] & copy)
        flip = src >= env.partition.size_plus
        assert np.array_equal(g[copy], (flip & a)[copy])

    @classmethod
    @cache
    def deep_case(cls, lam):
        """At p=1, where no absent edge fixes a walk's value early, the
        parameters, the environment and the first seed whose column-1 walks
        outrun the first backward chunk."""
        params, span = cls.params(lam, p=1.0), DRAW_BUDGET // cls.N
        env = sample_environment(params, seed=13)
        seed = next(s for s in range(200) if column1_depth(s, env, params)
                    > min(span, first_chunk(cls.N, lam, params.p)))
        return params, env, seed

    @pytest.mark.parametrize("lam", [0.02, 0.05])
    @pytest.mark.parametrize("t_len", [1, 2, 70])
    def test_multi_chunk_walks_match_reference(self, lam, t_len):
        params, env, seed = self.deep_case(lam)
        traj = perfect_sample(env, params, t_len, seed=seed)
        expect = perfect_sample_reference(env, params, t_len, seed=seed)
        assert np.array_equal(traj.x, expect)


@pytest.mark.parametrize("t_len", [1, 50])
def test_peak_memory_does_not_grow_with_stored_columns(t_len):
    # At n=500, lam=0.002 and p=1 (no absent edge fixes a value early) the
    # column-1 walks run 3,000-6,000 columns deep.  Keeping only the live
    # walks, one derived chunk and no row before the window, the traced peak
    # read 0.99 MB at t_len=1 and at t_len=50 on every seed 0-39.  A
    # (D + t_len)-row buffer read 1.50-2.51 MB; keeping each backward
    # column's source, mask and gate read 4.1-25 MB.
    params = ModelParams(mu=0.001, lam=0.002, p=1.0, r_plus=0.5, n=500)
    env = sample_environment(params, seed=1)
    for seed in range(5):
        tracemalloc.start()
        try:
            perfect_sample(env, params, t_len, seed=seed)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_250_000, (seed, peak)
