import numpy as np
import pytest

from densigraph import (ExactDistribution, ModelParams, Partition,
                        binomial_mixture_shat,
                        coalescence_probability_mc, covariance_mc,
                        exact_stationary, solve_m, tv_distance)
from densigraph.model import Environment, InputError, sample_environment
from densigraph.oracles import (column_indices, config_index,
                                empirical_distribution, transition_matrix)


def small_env(n=3, seed=7, r_plus=2 / 3, p=0.5):
    params = ModelParams(mu=0.25, lam=0.5, p=p, r_plus=r_plus, n=n)
    return sample_environment(params, seed), params


class TestExactStationary:
    def test_single_independent_site(self):
        params = ModelParams(mu=0.2, lam=1.0, p=0.5, r_plus=0.5, n=1)
        env = Environment(theta=np.array([[0]], dtype=np.uint8),
                          partition=Partition(n=1, size_plus=1))
        # lam = 1 with mu = 0.2: i.i.d. Bernoulli(beta) = Bernoulli(0.2)
        dist = exact_stationary(env, params)
        assert dist.probs == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_isolated_site_fires_at_mu(self):
        params = ModelParams(mu=0.3, lam=0.6, p=0.5, r_plus=0.5, n=1)
        env = Environment(theta=np.array([[0]], dtype=np.uint8),
                          partition=Partition(n=1, size_plus=1))
        dist = exact_stationary(env, params)
        assert dist.probs[1] == pytest.approx(0.3, abs=1e-12)

    def test_interaction_free_product_law(self):
        params = ModelParams(mu=0.3, lam=1.0, p=0.5, r_plus=0.5, n=3)
        env, _ = small_env(n=3)
        dist = exact_stationary(env, params)
        beta = params.beta
        for k in range(8):
            bits = [(k >> i) & 1 for i in range(3)]
            expected = np.prod([beta if b else 1 - beta for b in bits])
            assert dist.probs[k] == pytest.approx(expected, abs=1e-12)

    def test_fixed_point_invariance(self):
        env, params = small_env()
        dist = exact_stationary(env, params)
        advanced = dist.probs @ transition_matrix(env, params)
        assert np.max(np.abs(advanced - dist.probs)) < 1e-12
        assert dist.probs.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_limit(self):
        params = ModelParams(mu=0.1, lam=0.5, p=0.5, r_plus=0.5, n=13)
        env = sample_environment(params, seed=1)
        with pytest.raises(ValueError):
            exact_stationary(env, params)


class TestExactDistribution:
    def test_probs_are_a_read_only_copy(self):
        p = np.full(4, 0.25)
        dist = ExactDistribution(p)
        assert p.flags.writeable and not np.shares_memory(dist.probs, p)
        assert not dist.probs.flags.writeable
        p[0] = 1.0
        assert dist.probs.tolist() == [0.25] * 4


class TestTvDistance:
    def test_identical(self):
        d = ExactDistribution(probs=np.array([0.25, 0.75]))
        assert tv_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        a = ExactDistribution(probs=np.array([1.0, 0.0]))
        b = ExactDistribution(probs=np.array([0.0, 1.0]))
        assert tv_distance(a, b) == 1.0

    def test_uniform_vs_point_mass(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


class TestConfigPacking:
    def test_little_endian_convention(self):
        assert config_index([1, 0, 0]) == 1
        assert config_index([0, 1, 1]) == 6
        cols = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.uint8)
        assert column_indices(cols).tolist() == [1, 6]

    def test_empirical_distribution_normalizes(self):
        dist = empirical_distribution([0, 0, 3, 3], 2)
        assert dist.probs.tolist() == [0.5, 0.0, 0.0, 0.5]


class TestCoalescence:
    def test_immediate_regeneration_never_coalesces(self):
        params = ModelParams(mu=0.2, lam=1.0, p=0.5, r_plus=0.5, n=5)
        est, se = coalescence_probability_mc(params, (0, 0), (1, 0),
                                             trials=2000, seed=3)
        assert est == 0.0 and se == 0.0

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

    def test_deterministic(self):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=6)
        a = coalescence_probability_mc(params, (0, 0), (2, -2), trials=5000, seed=9)
        b = coalescence_probability_mc(params, (0, 0), (2, -2), trials=5000, seed=9)
        assert a == b


class TestCovariance:
    def test_same_site_recovers_bernoulli_variance(self):
        env, params = small_env()
        m_vec = solve_m(env, params)
        est, se = covariance_mc(env, params, (1, 0), (1, 0), samples=4000, seed=2)
        truth = m_vec[1] * (1 - m_vec[1])
        assert abs(est - truth) <= 3 * se

    def test_interaction_free_sites_uncorrelated(self):
        params = ModelParams(mu=0.3, lam=1.0, p=0.5, r_plus=0.5, n=3)
        env, _ = small_env(n=3)
        est, se = covariance_mc(env, params, (0, 0), (2, 0), samples=4000, seed=4)
        assert abs(est) <= 3 * se

    def test_decay_with_time_lag(self):
        env, params = small_env()
        c1, se1 = covariance_mc(env, params, (0, 0), (0, 1), samples=4000, seed=8)
        c5, se5 = covariance_mc(env, params, (0, 0), (0, 5), samples=4000, seed=8)
        assert abs(c5) <= abs(c1) + 3 * (se1 + se5)
        assert abs(c5) <= 0.03

    @pytest.mark.parametrize("z1, z2", [((-1, 0), (0, 0)), ((0, 0), (3, 0)),
                                        ((0, 0), (-3, 1))],
                             ids=["first-negative", "second-past-n",
                                  "second-negative"])
    def test_rejects_sites_outside_range(self, z1, z2):
        env, params = small_env()
        with pytest.raises(InputError, match="must lie in 0..2"):
            covariance_mc(env, params, z1, z2, samples=10, seed=0)

    @pytest.mark.parametrize("samples", [1, 0, -5])
    def test_rejects_fewer_than_two_samples(self, samples):
        env, params = small_env()
        with pytest.raises(InputError, match=f"samples must be >= 2, got {samples}"):
            covariance_mc(env, params, (0, 0), (1, 0), samples=samples, seed=0)


class TestBinomialMixtureShat:
    def test_zero_dispersion_closed_form(self):
        n, t_len, kap = 4, 10, 0.25
        m = 0.5 + kap
        b = np.full(n, t_len * m)
        expected = 1 - n * m * (1 - m) / ((t_len - 1) * kap**2)
        assert binomial_mixture_shat(b, t_len, kap) == pytest.approx(expected)

    def test_hand_fixture(self):
        assert binomial_mixture_shat(np.array([2]), 2, 0.25) == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            binomial_mixture_shat(np.array([1]), 1, 0.25)
        with pytest.raises(ValueError):
            binomial_mixture_shat(np.array([1]), 4, 0.6)
        with pytest.raises(ValueError):
            binomial_mixture_shat(np.array([9]), 4, 0.25)
        with pytest.raises(ValueError):
            binomial_mixture_shat(np.array([]), 4, 0.25)

    @pytest.mark.parametrize("n,t_len", [(20, 50), (50, 100)])
    def test_unbiased_for_inverse_density(self, n, t_len):
        p, kap = 0.5, 0.2
        gamma = kap / p
        rng = np.random.default_rng(1234 + n)
        replicas = 20_000
        theta = rng.binomial(n, p, size=(replicas, n))
        b = rng.binomial(t_len, 0.5 + gamma * theta / n)
        shat = np.array([binomial_mixture_shat(b[r], t_len, kap)
                         for r in range(replicas)])
        sigma = shat.std(ddof=1) / replicas**0.5
        assert abs(shat.mean() - 1 / p) <= 3 * sigma
