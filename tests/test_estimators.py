import tracemalloc
from math import floor, log

import numpy as np
import pytest

from densigraph import (Trajectory, estimate_all, spatial_variance,
                        spatio_temporal_mean, temporal_variance, w_delta)

from _reference import (block_variance_reference, mean_reference,
                        spatial_variance_reference,
                        temporal_variance_reference)


def traj(rows):
    return Trajectory(np.asarray(rows, dtype=np.uint8))


def random_trajectory(rng, max_n=20, max_t=50, min_t=8):
    n = int(rng.integers(1, max_n + 1))
    t = int(rng.integers(min_t, max_t + 1))
    density = rng.uniform(0.1, 0.9)
    return traj(rng.random((n, t)) < density)


class TestSpatioTemporalMean:
    def test_saturated(self):
        assert spatio_temporal_mean(traj(np.ones((3, 5)))) == 1.0

    def test_hand_fixture(self):
        assert spatio_temporal_mean(traj([[1, 0], [0, 1]])) == 0.5

    def test_all_zero(self):
        assert spatio_temporal_mean(traj(np.zeros((2, 4)))) == 0.0


class TestSpatialVariance:
    def test_all_zero(self):
        assert spatial_variance(traj(np.zeros((3, 6)))) == 0.0

    def test_hand_fixture_can_be_negative(self):
        assert spatial_variance(traj([[1, 0], [0, 1]])) == pytest.approx(-0.25)

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(1)
        t = traj(rng.random((20, 50)) < 0.4)
        assert spatial_variance(t) == pytest.approx(
            spatial_variance_reference(t.x), abs=1e-12)


class TestBlockVariance:
    def test_saturated_trajectory_vanishes(self):
        t = traj(np.ones((4, 12)))
        for delta in (1, 2, 3, 6):
            assert w_delta(t, delta) == 0.0

    def test_hand_fixture(self):
        assert w_delta(traj([[1, 0], [0, 1]]), 1) == 0.0

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(2)
        t = traj(rng.random((10, 40)) < 0.5)
        assert w_delta(t, 3) == pytest.approx(
            block_variance_reference(t.x, 3), abs=1e-12)

    def test_delta_range_validation(self):
        t = traj(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            w_delta(t, 0)
        with pytest.raises(ValueError):
            w_delta(t, 6)  # floor(10/2) = 5 is the maximum
        w_delta(t, 5)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = random_trajectory(rng)
            delta = int(rng.integers(1, t.t_len // 2 + 1))
            assert w_delta(t, delta) >= 0.0


class TestTemporalVariance:
    def test_saturated(self):
        assert temporal_variance(traj(np.ones((2, 8))), 1) == 0.0

    def test_alternating_fixture(self):
        t = traj([[1, 0, 1, 0], [0, 1, 0, 1]])
        assert w_delta(t, 1) == 0.0
        assert w_delta(t, 2) == 0.0
        assert temporal_variance(t, 1) == 0.0

    def test_definitional_composition(self):
        rng = np.random.default_rng(4)
        t = traj(rng.random((6, 36)) < 0.6)
        for delta in (1, 2, 4):
            expected = 2.0 * w_delta(t, 2 * delta) - w_delta(t, delta)
            assert temporal_variance(t, delta) == expected

    def test_rejects_delta_too_large(self):
        t = traj(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            temporal_variance(t, 3)  # needs 2*delta <= floor(T/2)
        temporal_variance(t, 2)


class TestEstimateAll:
    def test_saturated(self):
        est = estimate_all(traj(np.ones((3, 8))), 1)
        assert (est.m_hat, est.v_hat, est.w_hat) == (1.0, 0.0, 0.0)

    def test_composition_consistency(self):
        rng = np.random.default_rng(5)
        t = traj(rng.random((7, 29)) < 0.35)
        est = estimate_all(t, 2)
        assert est.m_hat == spatio_temporal_mean(t)
        assert est.v_hat == spatial_variance(t)
        assert est.w_delta == w_delta(t, 2)
        assert est.w_2delta == w_delta(t, 4)
        assert est.w_hat == temporal_variance(t, 2)
        assert est.delta == 2

    def test_too_short_trajectory_errors(self):
        with pytest.raises(ValueError):
            estimate_all(traj([[1, 0], [0, 1]]), 1)

    def test_rejects_either_delta_bound_before_any_work(self):
        t = traj(np.zeros((2, 10)))
        with pytest.raises(ValueError, match="must lie in"):
            estimate_all(t, 0)
        with pytest.raises(ValueError, match="must lie in"):
            estimate_all(t, 6)
        with pytest.raises(ValueError, match="too large"):
            estimate_all(t, 3)  # W_3 exists, W_6 does not
        estimate_all(t, 2)

    # Odd T, T not a multiple of 2 delta, n = 1, and the log block length.
    @pytest.mark.parametrize("n, t_len, delta", [
        (7, 29, 2), (1, 40, 3), (1, 9, 1), (13, 101, "log"), (30, 250, 4),
        (5, 2001, "log"), (500, 257, 1)])
    def test_bit_identical_to_per_statistic_functions(self, n, t_len, delta):
        if delta == "log":
            delta = max(1, floor(log(t_len)))
        rng = np.random.default_rng(n * t_len)
        t = traj(rng.random((n, t_len)) < rng.uniform(0.1, 0.9))
        est = estimate_all(t, delta)
        assert est.m_hat == spatio_temporal_mean(t)
        assert est.v_hat == spatial_variance(t)
        assert est.w_delta == w_delta(t, delta)
        assert est.w_2delta == w_delta(t, 2 * delta)
        assert est.w_hat == temporal_variance(t, delta)

    @pytest.mark.parametrize("shape", [(2**16 + 8, 8), (1, 2**16 + 8)])
    def test_sums_past_the_uint16_range_stay_exact(self, shape):
        # The per-time (first shape) or per-site (second) sums exceed 2^16 - 1.
        x = np.ones(shape, dtype=np.uint8)
        x.flat[:3] = 0
        t = traj(x)
        est = estimate_all(t, 2)
        assert est.m_hat == spatio_temporal_mean(t)
        assert est.v_hat == spatial_variance(t)
        assert est.w_hat == temporal_variance(t, 2)

    def test_memory_peak_at_paper_scale(self):
        # A widened (int64) copy of the 500 x 2000 trajectory would take 8 MB.
        rng = np.random.default_rng(9)
        t = traj(rng.random((500, 2000)) < 0.4)
        estimate_all(t, 1)
        tracemalloc.start()
        try:
            estimate_all(t, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestProperties:
    def test_mean_in_unit_interval_and_site_relabeling_invariance(self):
        rng = np.random.default_rng(6)
        for _ in range(25):
            t = random_trajectory(rng)
            delta = int(rng.integers(1, max(2, t.t_len // 4 + 1)))
            assert 0.0 <= spatio_temporal_mean(t) <= 1.0
            perm = rng.permutation(t.n)
            shuffled = Trajectory(t.x[perm])
            assert spatio_temporal_mean(shuffled) == spatio_temporal_mean(t)
            assert spatial_variance(shuffled) == pytest.approx(
                spatial_variance(t), abs=1e-12)
            assert w_delta(shuffled, delta) == pytest.approx(
                w_delta(t, delta), abs=1e-12)

    def test_reference_agreement_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = random_trajectory(rng)
            assert spatio_temporal_mean(t) == pytest.approx(
                mean_reference(t.x), abs=1e-12)
            assert spatial_variance(t) == pytest.approx(
                spatial_variance_reference(t.x), abs=1e-12)
            delta = int(rng.integers(1, t.t_len // 4 + 1))
            assert w_delta(t, delta) == pytest.approx(
                block_variance_reference(t.x, delta), abs=1e-12)
            assert temporal_variance(t, delta) == pytest.approx(
                temporal_variance_reference(t.x, delta), abs=1e-12)
