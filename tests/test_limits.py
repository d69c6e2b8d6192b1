import numpy as np
import pytest

from densigraph import (ModelParams, Partition, build_partition, fixed_points,
                        forward_map_values, invert_triple, limit_inversion,
                        limits, sample_environment)
from densigraph.model import Environment, InputError

from _reference import solve_c_dense, solve_m_dense, stationary_means_reference


def single_site_env(theta_val, excitatory=True):
    part = Partition(n=1, size_plus=1 if excitatory else 0)
    return Environment(theta=np.array([[theta_val]], dtype=np.uint8), partition=part)


def residual_m(env, params, m_vec):
    sp = env.partition.size_plus
    theta = env.theta.astype(float)
    coef = (1 - params.lam) / env.n
    rhs = params.mu + coef * (theta[:, :sp] @ m_vec[:sp]
                              + theta[:, sp:] @ (1 - m_vec[sp:]))
    return float(np.max(np.abs(m_vec - rhs)))


def residual_c(env, params, c_vec):
    sp = env.partition.size_plus
    a = env.theta.astype(float) / env.n
    a[:, sp:] *= -1.0
    rhs = 1.0 + (1 - params.lam) * (a.T @ c_vec)
    return float(np.max(np.abs(c_vec - rhs)))


class TestSolveM:
    def test_isolated_site(self):
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=0.5, n=1)
        env = single_site_env(0)
        assert fixed_points(env, params)[0][0] == pytest.approx(0.2, abs=1e-12)

    @pytest.mark.parametrize("index", [0, 1], ids=["m", "c"])
    def test_lam_too_small_for_a_step_bound_rejected(self, index):
        params = ModelParams(mu=0.0, lam=1e-17, p=0.5, r_plus=0.5, n=1)
        with pytest.raises(InputError, match="lam=1e-17 is too small"):
            fixed_points(single_site_env(1), params)[index]

    def test_self_loop_scalar_fixed_point(self):
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=0.5, n=1)
        env = single_site_env(1)
        assert fixed_points(env, params)[0][0] == pytest.approx(params.beta, abs=1e-11)

    def test_residual_and_range(self):
        rng = np.random.default_rng(0)
        for lam in (0.15, 0.5, 0.9):
            n = 40
            params = ModelParams(mu=0.1, lam=lam, p=0.5, r_plus=0.6, n=n)
            env = Environment(theta=rng.integers(0, 2, (n, n)).astype(np.uint8),
                              partition=build_partition(n, 0.6))
            m_vec = fixed_points(env, params)[0]
            assert residual_m(env, params, m_vec) < 1e-10
            assert (m_vec >= 0).all() and (m_vec <= 1).all()

    def test_matches_dense_and_reference(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            n = int(rng.integers(2, 60))
            r_plus = float(rng.uniform(0.2, 0.8))
            params = ModelParams(mu=float(rng.uniform(0.05, 0.3)),
                                 lam=float(rng.uniform(0.35, 0.95)),
                                 p=0.5, r_plus=r_plus, n=n)
            env = Environment(theta=rng.integers(0, 2, (n, n)).astype(np.uint8),
                              partition=build_partition(n, r_plus))
            iterative = fixed_points(env, params)[0]
            sign = np.where(np.arange(n) < env.partition.size_plus, 1.0, -1.0)
            dense = solve_m_dense(env.theta, sign, params.mu, params.lam)
            reference = stationary_means_reference(
                env.theta, env.partition.size_plus, params.mu, params.lam)
            assert np.max(np.abs(iterative - dense)) < 1e-8
            assert np.max(np.abs(iterative - reference)) < 1e-8


class TestSolveC:
    def test_empty_graph_gives_ones(self):
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=0.5, n=4)
        env = Environment(theta=np.zeros((4, 4), dtype=np.uint8),
                          partition=build_partition(4, 0.5))
        assert np.allclose(fixed_points(env, params)[1], 1.0, atol=1e-12)

    def test_self_loop_scalar_fixed_point(self):
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=0.5, n=1)
        env = single_site_env(1)
        assert fixed_points(env, params)[1][0] == pytest.approx(1 / 0.6, abs=1e-10)

    def test_sup_norm_bound_and_residual(self):
        rng = np.random.default_rng(2)
        for lam in (0.2, 0.5, 0.8):
            n = 50
            params = ModelParams(mu=0.1, lam=lam, p=0.5, r_plus=0.4, n=n)
            env = Environment(theta=rng.integers(0, 2, (n, n)).astype(np.uint8),
                              partition=build_partition(n, 0.4))
            c_vec = fixed_points(env, params)[1]
            assert residual_c(env, params, c_vec) < 1e-10
            assert np.max(np.abs(c_vec)) <= 1.0 / lam + 1e-9

    def test_matches_dense(self):
        rng = np.random.default_rng(3)
        n = 80
        params = ModelParams(mu=0.1, lam=0.3, p=0.5, r_plus=0.55, n=n)
        env = Environment(theta=rng.integers(0, 2, (n, n)).astype(np.uint8),
                          partition=build_partition(n, 0.55))
        sign = np.where(np.arange(n) < env.partition.size_plus, 1.0, -1.0)
        dense = solve_c_dense(env.theta, sign, params.lam)
        assert np.max(np.abs(fixed_points(env, params)[1] - dense)) < 1e-8


class TestLimits:
    def test_single_excitatory_self_loop_closed_form(self):
        params = ModelParams(mu=0.2, lam=0.6, p=0.5, r_plus=0.5, n=1)
        env = single_site_env(1)
        lim = limits(env, params)
        beta = params.beta
        assert lim.m_inf == pytest.approx(beta, abs=1e-10)
        assert lim.v_inf == pytest.approx(0.0, abs=1e-12)
        assert lim.w_inf == pytest.approx(beta * (1 - beta) / 0.6**2, abs=1e-9)

    def test_empty_graph_closed_form(self):
        params = ModelParams(mu=0.3, lam=0.5, p=0.5, r_plus=0.5, n=6)
        env = Environment(theta=np.zeros((6, 6), dtype=np.uint8),
                          partition=build_partition(6, 0.5))
        lim = limits(env, params)
        assert lim.m_inf == pytest.approx(0.3, abs=1e-12)
        assert lim.v_inf == pytest.approx(0.0, abs=1e-12)
        assert lim.w_inf == pytest.approx(0.3 * 0.7, abs=1e-11)

    def test_nonnegative_variance_limits(self):
        rng = np.random.default_rng(4)
        n = 30
        params = ModelParams(mu=0.2, lam=0.4, p=0.5, r_plus=0.6, n=n)
        env = Environment(theta=rng.integers(0, 2, (n, n)).astype(np.uint8),
                          partition=build_partition(n, 0.6))
        lim = limits(env, params)
        assert lim.v_inf >= 0.0 and lim.w_inf >= 0.0

    def test_mean_concentrates_at_default_scale(self):
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=500)
        env = sample_environment(params, seed=12)
        m, _, _ = forward_map_values(0.25, 0.5, 0.5, 0.5)
        assert abs(limits(env, params).m_inf - m) < 0.02


class TestLimitInversion:
    def test_exact_moment_input_reduces_to_round_trip(self):
        m, v, w = forward_map_values(0.25, 0.5, 0.5, 0.5)
        res = invert_triple(m, v, w, 0.5)
        assert (res.mu, res.lam, res.p) == pytest.approx((0.25, 0.5, 0.5))

    def test_recovers_parameters_from_environment(self):
        params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=0.5, n=400)
        env = sample_environment(params, seed=21)
        res = limit_inversion(limits(env, params), params.r_plus)
        assert res.ok
        assert abs(res.p - 0.5) < 0.1
        assert abs(res.lam - 0.5) < 0.05
        assert abs(res.mu - 0.25) < 0.05

    def test_ambiguous_fraction_region_has_elevated_error(self):
        seeds = range(30)
        errors = {}
        for r_plus in (0.4, 0.6):
            errs = []
            for s in seeds:
                params = ModelParams(mu=0.25, lam=0.5, p=0.5, r_plus=r_plus, n=200)
                env = sample_environment(params, seed=1000 + s)
                errs.append(abs(limit_inversion(limits(env, params), params.r_plus).p
                                - 0.5))
            errors[r_plus] = float(np.mean(errs))
        assert errors[0.4] > errors[0.6]

    def test_solution_bundle(self):
        for n, lam in [(1, 0.6), (20, 0.5), (25, 1.0)]:
            params = ModelParams(mu=0.2, lam=lam, p=0.5, r_plus=0.5, n=n)
            env = sample_environment(params, seed=9)
            m_vec, c_vec = fixed_points(env, params)
            lim = limits(env, params)
            assert lim.m_inf == float(m_vec.mean())
            assert lim.v_inf == float((m_vec - lim.m_inf) @ (m_vec - lim.m_inf))
            assert lim.w_inf == float(np.mean(c_vec * c_vec * (m_vec - m_vec**2)))
