import tracemalloc
from math import exp

import numpy as np
import pytest

from densigraph import (ModelParams, Partition, binomial_mixture_shat,
                        coalescence_probability, exact_stationary,
                        fixed_points, perfect_sample, transition_probabilities)
from densigraph.model import Environment, InputError, sample_environment
from densigraph.oracles import transition_matrix
from densigraph.rng import derive_key

from _reference import (column_indices, empirical_distribution,
                        transition_matrix_reference, tv_distance)


def small_env(n=3, seed=7, r_plus=2 / 3, p=0.5):
    params = ModelParams(mu=0.25, lam=0.5, p=p, r_plus=r_plus, n=n)
    return sample_environment(params, seed), params


class TestExactStationary:
    def test_single_independent_site(self):
        params = ModelParams(mu=0.2, lam=1.0, p=0.5, r_plus=0.5, n=1)
        env = Environment(theta=np.array([[0]], dtype=np.uint8),
                          partition=Partition(n=1, size_plus=1))
        # lam = 1 with mu = 0.2: i.i.d. Bernoulli(beta) = Bernoulli(0.2)
        pi = exact_stationary(env, params)
        assert pi == pytest.approx([0.8, 0.2], abs=1e-12)

    def test_isolated_site_fires_at_mu(self):
        params = ModelParams(mu=0.3, lam=0.6, p=0.5, r_plus=0.5, n=1)
        env = Environment(theta=np.array([[0]], dtype=np.uint8),
                          partition=Partition(n=1, size_plus=1))
        pi = exact_stationary(env, params)
        assert pi[1] == pytest.approx(0.3, abs=1e-12)

    def test_interaction_free_product_law(self):
        params = ModelParams(mu=0.3, lam=1.0, p=0.5, r_plus=0.5, n=3)
        env, _ = small_env(n=3)
        pi = exact_stationary(env, params)
        beta = params.beta
        for k in range(8):
            bits = [(k >> i) & 1 for i in range(3)]
            expected = np.prod([beta if b else 1 - beta for b in bits])
            assert pi[k] == pytest.approx(expected, abs=1e-12)

    def test_fixed_point_invariance(self):
        env, params = small_env()
        pi = exact_stationary(env, params)
        assert pi.dtype == np.float64 and pi.shape == (8,)
        advanced = pi @ transition_matrix(env, params)
        assert np.max(np.abs(advanced - pi)) < 1e-12
        assert pi.sum() == pytest.approx(1.0, abs=1e-12)

    def test_size_limit(self):
        params = ModelParams(mu=0.1, lam=0.5, p=0.5, r_plus=0.5, n=13)
        env = sample_environment(params, seed=1)
        with pytest.raises(ValueError):
            exact_stationary(env, params)


class TestTransitionMatrix:
    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_equals_the_per_site_factor_reference(self, n):
        states = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        for seed in range(3):
            env, params = small_env(n=n, seed=seed, r_plus=0.5)
            fire = np.array([transition_probabilities(env, params, x)
                             for x in states])
            assert np.array_equal(transition_matrix(env, params),
                                  transition_matrix_reference(fire))

    def test_peak_memory_near_the_result(self):
        # Built in place: a full-size temporary a site would peak near 3x.
        env, params = small_env(n=10, r_plus=0.5)
        tracemalloc.start()
        try:
            matrix = transition_matrix(env, params)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * matrix.nbytes


class TestTvDistance:
    def test_identical(self):
        d = np.array([0.25, 0.75])
        assert tv_distance(d, d) == 0.0

    def test_disjoint_point_masses(self):
        assert tv_distance(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 1.0

    def test_uniform_vs_point_mass(self):
        assert tv_distance(np.array([0.5, 0.5]), np.array([1.0, 0.0])) == 0.5

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            tv_distance(np.array([1.0]), np.array([0.5, 0.5]))


class TestConfigPacking:
    def test_little_endian_convention(self):
        cols = np.array([[1, 0], [0, 1], [0, 1]], dtype=np.uint8)
        assert column_indices(cols).tolist() == [1, 6]

    def test_empirical_distribution_normalizes(self):
        assert empirical_distribution([0, 0, 3, 3], 2).tolist() == [0.5, 0.0, 0.0, 0.5]


class TestCoalescence:
    def test_hand_evaluated_values(self):
        # n = 10, lam = 1/2: q = 1/4, so P0 = (1/40) / (31/40) = 1/31 and
        # P1 = (1/2)(1/10 + (9/10)(1/31)) = 2/31.
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=10)
        p0 = coalescence_probability(params, (0, 0), (1, 0))
        p1 = coalescence_probability(params, (0, 0), (1, -1))
        assert p0 == pytest.approx(1 / 31, rel=1e-15)
        assert p1 == pytest.approx(2 / 31, rel=1e-15)

    def test_reads_only_the_lag(self):
        params = ModelParams(mu=0.2, lam=0.3, p=0.5, r_plus=0.5, n=6)
        p = coalescence_probability(params, (1, 4), (5, 1))
        assert coalescence_probability(params, (5, 1), (1, 4)) == p
        assert coalescence_probability(params, (2, -7), (2, -10)) == p

    def test_immediate_regeneration_never_coalesces(self):
        params = ModelParams(mu=0.2, lam=1.0, p=0.5, r_plus=0.5, n=5)
        for z2 in ((1, 0), (0, -1), (3, -6)):
            assert coalescence_probability(params, (0, 0), z2) == 0.0

    def test_single_site_meets_unless_it_regenerates(self):
        params = ModelParams(mu=0.2, lam=0.4, p=0.5, r_plus=0.5, n=1)
        for lag in (1, 2, 5):
            p = coalescence_probability(params, (0, 0), (0, -lag))
            assert p == pytest.approx(0.6**lag, rel=1e-14)

    def test_tiny_lambda_keeps_its_digits(self):
        # 1 - q(1 - 1/n) and 1 - lam both round to 1 here.
        lam = 1e-17
        # At n = 1/lam, lam(2 - lam) = 2/n against q/n = 1/n, so P0 = 1/3;
        # a single site's walk outlives 1/lam steps with probability 1/e.
        params = ModelParams(mu=0.0, lam=lam, p=0.5, r_plus=0.5, n=10**17)
        p0 = coalescence_probability(params, (0, 0), (1, 0))
        assert p0 == pytest.approx(1 / 3, rel=1e-12)
        single = ModelParams(mu=0.0, lam=lam, p=0.5, r_plus=0.5, n=1)
        p = coalescence_probability(single, (0, 0), (0, -10**17))
        assert p == pytest.approx(exp(-1), rel=1e-12)

    def test_rejects_identical_sites(self):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=4)
        with pytest.raises(InputError, match="two distinct sites"):
            coalescence_probability(params, (1, 2), (1, 2))

    @pytest.mark.parametrize("z1, z2", [((99, 0), (1, -1)), ((0, 0), (4, -1)),
                                        ((-1, 0), (1, 0))])
    def test_rejects_sites_outside_range(self, z1, z2):
        params = ModelParams(mu=0.2, lam=0.5, p=0.5, r_plus=0.5, n=4)
        with pytest.raises(InputError, match="must lie in 0..3"):
            coalescence_probability(params, z1, z2)

    @pytest.mark.parametrize("n", [4, 8])
    @pytest.mark.parametrize("lam, p", [(0.2, 0.8), (0.5, 0.5), (0.8, 0.2)])
    def test_bounds_every_lag_covariance(self, n, lam, p):
        # The coupling bound |Cov(X_z1, X_z2)| <= P(the walks from z1 and z2
        # meet), exactly: Cov(X_i(t), X_j(t - k)) from powers of the
        # transition matrix under the stationary law, for lags 0..7 and every
        # pair of distinct sites.
        params = ModelParams(mu=lam / 2, lam=lam, p=p, r_plus=0.5, n=n)
        env = sample_environment(params, 3)
        matrix = transition_matrix(env, params)
        pi = exact_stationary(env, params)
        states = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
        m = pi @ states
        later = states.astype(np.float64)  # column i: E[X_i(t + k) | X_t]
        for lag in range(8):
            cov = (states * pi[:, None]).T @ later - np.outer(m, m)  # [j, i]
            bound = np.array([[coalescence_probability(params, (i, lag), (j, 0))
                               if (i, lag) != (j, 0) else 1.0 for i in range(n)]
                              for j in range(n)])
            assert np.all(np.abs(cov) <= bound), lag
            later = matrix @ later


def covariance_mc(env, params, z1, z2, samples, seed):
    """Stationary covariance of two sites, from independent exact windows of
    the sampler under test.  Returns the estimate and its standard error."""
    if samples < 2:
        raise InputError(f"samples must be >= 2, got {samples}")
    (i1, t1), (i2, t2) = z1, z2
    if not (0 <= i1 < env.n and 0 <= i2 < env.n):
        raise InputError(f"site indices {i1}, {i2} must lie in 0..{env.n - 1}")
    t_lo = min(t1, t2)
    span = max(t1, t2) - t_lo + 1
    x1 = np.empty(samples)
    x2 = np.empty(samples)
    for k in range(samples):
        window = perfect_sample(env, params, span,
                                seed=derive_key(seed, "covariance", k))
        x1[k] = window.x[i1, t1 - t_lo]
        x2[k] = window.x[i2, t2 - t_lo]
    prod_centered = (x1 - x1.mean()) * (x2 - x2.mean())
    est = float(prod_centered.mean())
    std_err = float(prod_centered.std(ddof=1)) / samples**0.5
    return est, std_err


class TestCovariance:
    def test_same_site_recovers_bernoulli_variance(self):
        env, params = small_env()
        m_vec = fixed_points(env, params)[0]
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
