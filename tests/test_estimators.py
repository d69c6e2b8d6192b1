import tracemalloc
from math import floor, log

import numpy as np
import pytest

from densigraph import Trajectory, estimate_all
from densigraph.experiment import ConfigError, parse_config_text
from densigraph.model import InputError

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


def assert_matches_references(t, delta):
    """Every field of `estimate_all` against the loop references."""
    e = estimate_all(t, delta)
    assert e.delta == delta
    assert e.m_hat == pytest.approx(mean_reference(t.x), abs=1e-12)
    assert e.v_hat == pytest.approx(spatial_variance_reference(t.x), abs=1e-12)
    assert e.w_delta == pytest.approx(
        block_variance_reference(t.x, delta), abs=1e-12)
    assert e.w_2delta == pytest.approx(
        block_variance_reference(t.x, 2 * delta), abs=1e-12)
    assert e.w_hat == pytest.approx(
        temporal_variance_reference(t.x, delta), abs=1e-12)


def est(rows, delta=1):
    return estimate_all(traj(rows), delta)


ALTERNATING = [[1, 0, 1, 0], [0, 1, 0, 1]]


class TestSpatioTemporalMean:
    def test_saturated(self):
        assert est(np.ones((3, 5))).m_hat == 1.0

    def test_hand_fixture(self):
        assert est(ALTERNATING).m_hat == 0.5

    def test_all_zero(self):
        assert est(np.zeros((2, 4))).m_hat == 0.0


class TestSpatialVariance:
    def test_all_zero(self):
        assert est(np.zeros((3, 6))).v_hat == 0.0

    def test_hand_fixture_can_be_negative(self):
        # Z[i, T] = 2 for both sites: 10/64 * (4 - 4/5 * (2 + 4)) = -1/8
        assert est(ALTERNATING).v_hat == pytest.approx(-0.125)

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(1)
        t = traj(rng.random((20, 50)) < 0.4)
        assert estimate_all(t, 1).v_hat == pytest.approx(
            spatial_variance_reference(t.x), abs=1e-12)


class TestBlockVariance:
    def test_saturated_trajectory_vanishes(self):
        t = traj(np.ones((4, 12)))
        for delta in (1, 2, 3):  # W_delta for delta 1, 2, 3 and 2, 4, 6
            e = estimate_all(t, delta)
            assert (e.w_delta, e.w_2delta) == (0.0, 0.0)

    def test_matches_reference_on_random_input(self):
        rng = np.random.default_rng(2)
        t = traj(rng.random((10, 40)) < 0.5)
        e = estimate_all(t, 3)
        assert e.w_delta == pytest.approx(
            block_variance_reference(t.x, 3), abs=1e-12)
        assert e.w_2delta == pytest.approx(
            block_variance_reference(t.x, 6), abs=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(3)
        for _ in range(30):
            t = random_trajectory(rng)
            delta = int(rng.integers(1, t.t_len // 4 + 1))
            e = estimate_all(t, delta)
            assert e.w_delta >= 0.0 and e.w_2delta >= 0.0


class TestTemporalVariance:
    def test_saturated(self):
        assert est(np.ones((2, 8))).w_hat == 0.0

    def test_alternating_fixture(self):
        e = est(ALTERNATING)
        assert (e.w_delta, e.w_2delta, e.w_hat) == (0.0, 0.0, 0.0)

    def test_definitional_composition(self):
        rng = np.random.default_rng(4)
        t = traj(rng.random((6, 36)) < 0.6)
        for delta in (1, 2, 4):
            e = estimate_all(t, delta)
            assert e.w_hat == 2.0 * e.w_2delta - e.w_delta
            assert e.w_2delta == estimate_all(t, 2 * delta).w_delta


class TestEstimateAll:
    def test_saturated(self):
        e = est(np.ones((3, 8)))
        assert (e.m_hat, e.v_hat, e.w_hat) == (1.0, 0.0, 0.0)

    def test_too_short_trajectory_errors(self):
        with pytest.raises(ValueError):
            estimate_all(traj([[1, 0], [0, 1]]), 1)

    def test_rejects_either_delta_bound_before_any_work(self):
        t = traj(np.zeros((2, 10)))
        with pytest.raises(ValueError,
                           match=r"^delta must lie in \[1, 2\] for T=10, got 0$"):
            estimate_all(t, 0)
        with pytest.raises(ValueError,
                           match=r"^delta must lie in \[1, 2\] for T=10, got 6$"):
            estimate_all(t, 6)  # floor(10/2) = 5 is the largest W_delta
        with pytest.raises(ValueError,
                           match=r"^delta must lie in \[1, 2\] for T=10, got 3$"):
            estimate_all(t, 3)  # W_3 exists, W_6 does not
        estimate_all(t, 2)

    # 2 delta <= floor(T/2) is delta <= floor(T/4), for the estimators and for
    # the shortest horizon of an experiment config alike.
    @pytest.mark.parametrize("t_len", [8, 9, 10, 11, 250, 2001])
    def test_largest_delta_is_a_quarter_of_t(self, t_len):
        top = t_len // 4
        message = rf"^delta must lie in \[1, {top}\] for T={t_len}, got {top + 1}$"
        t = traj(np.zeros((2, t_len)))
        assert estimate_all(t, top).delta == top
        with pytest.raises(InputError, match=message):
            estimate_all(t, top + 1)
        parse_config_text("", [f"delta={top}", f"t_grid={t_len}"])
        with pytest.raises(ConfigError, match=message):
            parse_config_text("", [f"delta={top + 1}", f"t_grid={t_len}"])

    # Odd T, T not a multiple of 2 delta, n = 1, and the log block length.
    @pytest.mark.parametrize("n, t_len, delta", [
        (7, 29, 2), (1, 40, 3), (1, 9, 1), (13, 101, "log"), (30, 250, 4),
        (5, 2001, "log"), (500, 257, 1)])
    def test_matches_references_on_edge_shapes(self, n, t_len, delta):
        if delta == "log":
            delta = max(1, floor(log(t_len)))
        rng = np.random.default_rng(n * t_len)
        t = traj(rng.random((n, t_len)) < rng.uniform(0.1, 0.9))
        assert_matches_references(t, delta)

    @pytest.mark.parametrize("shape", [(2**16 + 8, 8), (1, 2**16 + 8)])
    def test_sums_past_the_uint16_range_stay_exact(self, shape):
        # The per-time (first shape) or per-site (second) sums exceed 2^16 - 1.
        x = np.ones(shape, dtype=np.uint8)
        x.flat[:3] = 0
        assert_matches_references(traj(x), 2)

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
            e = estimate_all(t, delta)
            assert 0.0 <= e.m_hat <= 1.0
            perm = rng.permutation(t.n)
            shuffled = estimate_all(Trajectory(t.x[perm]), delta)
            assert shuffled.m_hat == e.m_hat
            assert shuffled.v_hat == pytest.approx(e.v_hat, abs=1e-12)
            assert shuffled.w_delta == pytest.approx(e.w_delta, abs=1e-12)
            assert shuffled.w_hat == pytest.approx(e.w_hat, abs=1e-12)

    def test_reference_agreement_sweep(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            t = random_trajectory(rng)
            assert_matches_references(t, int(rng.integers(1, t.t_len // 4 + 1)))
