import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densigraph import (NonInvertibleError, denominator, forward_map_values,
                        invert_triple, inverse_map, kappa, phi1, root_d,
                        select_branch)
from densigraph.estimators import MomentEstimates
from densigraph.inversion import KAPPA_DEGENERATE_TOL, invert
from densigraph.rng import Stream, derive_key

# Hand-evaluated fixture: Psi(0.25, 0.5, 0.5) at r_plus = 0.5.
FIX_PARAMS = (0.25, 0.5, 0.5)
FIX_TRIPLE = (0.375, 0.0166015625, 0.2490234375)


def sample_admissible(stream: Stream, r_plus: float):
    """One uniformly random admissible (mu, lam, p), restricted to where the
    inverse problem is float64-well-posed: rejects triples whose exact moment
    image lands in the degenerate-kappa guard window (collapsed double root,
    reachable only for r_plus far from 1/2) and the boundary layer
    (1-lam)*p < 1e-3 where phi1 < 1e-6 drops below the resolution of a 1-ulp
    perturbation of w, making the 1e-10 round trip unattainable by any
    float64 evaluation."""
    while True:
        u = stream.uniforms(3)
        lam = float(u[0])
        mu = float(u[1]) * lam
        p = float(u[2])
        if not (0 < mu < lam < 1 and 0 < p < 1):
            continue
        if (1 - lam) * p < 1e-3:
            continue
        m, v, w = forward_map_values(mu, lam, p, r_plus)
        c = 4 * r_plus * (1 - r_plus)
        if abs(kappa(m, w, r_plus) - c) < 10 * KAPPA_DEGENERATE_TOL:
            continue
        return (mu, lam, p), (m, v, w)


class TestDenominator:
    def test_symmetric_partition_is_one(self):
        for lam in (0.1, 0.5, 0.9):
            for p in (0.2, 0.8):
                assert denominator(lam, p, 0.5) == 1.0

    def test_hand_values_and_bounds(self):
        assert denominator(0.5, 0.5, 0.7) == pytest.approx(0.9)
        d = denominator(0.5, 0.5, 0.3)
        assert d == pytest.approx(1.1)
        assert 1.0 < d < 2 * 0.7  # bound for r_plus < 1/2


class TestForwardMap:
    def test_hand_fixture(self):
        assert forward_map_values(*FIX_PARAMS, 0.5) == FIX_TRIPLE

    def test_image_in_expected_region(self):
        stream = Stream(derive_key(1, "image"))
        for r_plus in (0.3, 0.5, 0.75):
            for _ in range(300):
                (_, _, _), (m, v, w) = sample_admissible(stream, r_plus)
                assert 0.0 < m < 1.0
                assert v > 0.0 and w > 0.0

    def test_symmetric_partition_w_dominates_bernoulli_variance(self):
        stream = Stream(derive_key(2, "dominates"))
        for _ in range(300):
            (_, _, _), (m, _, w) = sample_admissible(stream, 0.5)
            assert w > m * (1.0 - m)


class TestKappa:
    def test_symmetric_partition_vanishes(self):
        assert kappa(0.3, 5.0, 0.5) == 0.0

    def test_hand_value(self):
        assert kappa(0.375, 0.2490234375, 0.7) == pytest.approx(0.17)

    def test_linear_in_w(self):
        assert kappa(0.375, 2 * 0.2490234375, 0.7) == pytest.approx(
            2 * kappa(0.375, 0.2490234375, 0.7))

    def test_boundary_mean_rejected(self):
        with pytest.raises(ValueError):
            kappa(0.0, 1.0, 0.7)
        with pytest.raises(ValueError):
            kappa(1.0, 1.0, 0.7)


class TestRootD:
    def test_degenerate_guard_returns_double_root(self):
        r_plus = 0.7
        c = 4 * r_plus * (1 - r_plus)
        m = 0.4
        w = c * m * (1 - m) / (2 * r_plus - 1) ** 2  # exact kappa = c
        for branch in ("plus", "minus"):
            d, flags = root_d(branch, m, w, r_plus)
            assert d == pytest.approx(1.0 / (2.0 * c))
            assert flags == {"degenerate_kappa"}

    def test_quadratic_residual(self):
        stream = Stream(derive_key(3, "residual"))
        for r_plus in (0.3, 0.7):
            c = 4 * r_plus * (1 - r_plus)
            for _ in range(300):
                u = stream.uniforms(2)
                m = 0.05 + 0.9 * float(u[0])
                w = 0.05 + 3.0 * float(u[1])
                k = kappa(m, w, r_plus)
                if abs(k - c) < 10 * KAPPA_DEGENERATE_TOL or c * c - c + k <= 0:
                    continue
                for branch in ("plus", "minus"):
                    d, flags = root_d(branch, m, w, r_plus)
                    assert not flags
                    residual = (c - k) * d * d - 2.0 * c * d + 1.0
                    assert abs(residual) < 1e-9

    def test_minus_root_recovers_denominator(self):
        stream = Stream(derive_key(4, "roundtrip-d"))
        for _ in range(200):
            (mu, lam, p), (m, v, w) = sample_admissible(stream, 0.7)
            d, _ = root_d("minus", m, w, 0.7)
            assert d == pytest.approx(denominator(lam, p, 0.7), abs=1e-9)

    def test_discriminant_clamp_flag(self):
        # kappa far below c with tiny w drives the discriminant negative
        r_plus = 0.7
        c = 4 * r_plus * (1 - r_plus)
        m = 0.5
        w = (c - c * c) / 2 * m * (1 - m) / (2 * r_plus - 1) ** 2
        d, flags = root_d("plus", m, w, r_plus)
        assert "clamped_discriminant" in flags
        assert math.isfinite(d)


class TestPhi:
    def test_symmetric_fixture(self):
        m, v, w = FIX_TRIPLE
        val, flags = phi1("minus", m, w, 0.5)
        assert val == pytest.approx(0.0625)
        assert not flags  # exactly symmetric: the closed form is definitional
        assert 1.0 / inverse_map("minus", m, v, w, 0.5).p == pytest.approx(2.0)

    def test_nearly_symmetric_flag(self):
        m, _, w = FIX_TRIPLE
        _, flags = phi1("minus", m, w, 0.5 + 2e-4)
        assert "symmetric_r" in flags

    def test_absolute_value_guard(self):
        m = 0.4
        w = 0.5 * m * (1 - m)  # below the Bernoulli variance: phi1 < 0
        val, flags = phi1("minus", m, w, 0.5)
        assert val == pytest.approx(0.5)
        assert "abs_phi1" in flags

    def test_vanishing_phi1_is_non_invertible(self):
        m = 0.4
        w = m * (1 - m)
        val, _ = phi1("minus", m, w, 0.5)
        assert val == 0.0
        with pytest.raises(NonInvertibleError):
            inverse_map("minus", m, 0.01, w, 0.5)


class TestInverseMap:
    def test_symmetric_fixture_recovers_parameters(self):
        m, v, w = FIX_TRIPLE
        res = inverse_map("minus", m, v, w, 0.5)
        assert (res.mu, res.lam, res.p) == pytest.approx((0.25, 0.5, 0.5))

    def test_minus_branch_identity_for_large_r_plus(self):
        stream = Stream(derive_key(5, "identity"))
        for r_plus in (0.5, 0.6, 0.75):
            for _ in range(200):
                (mu, lam, p), (m, v, w) = sample_admissible(stream, r_plus)
                res = inverse_map("minus", m, v, w, r_plus)
                err = max(abs(res.mu - mu), abs(res.lam - lam), abs(res.p - p))
                assert err < 1e-10

    def test_two_branch_membership_for_small_r_plus(self):
        stream = Stream(derive_key(6, "membership"))
        for r_plus in (0.3, 0.4):
            for _ in range(200):
                (mu, lam, p), (m, v, w) = sample_admissible(stream, r_plus)
                errs = []
                for branch in ("plus", "minus"):
                    res = inverse_map(branch, m, v, w, r_plus)
                    errs.append(max(abs(res.mu - mu), abs(res.lam - lam),
                                    abs(res.p - p)))
                assert min(errs) < 1e-10


class TestSelectBranch:
    def test_large_r_plus_forces_minus(self):
        assert select_branch(0.4, 0.01, 0.3, 0.6) == "minus"

    def test_kappa_above_threshold_forces_minus(self):
        # r_plus = 0.4: kappa = 0.97 > 4 r+ r- = 0.96
        m = 0.5
        w = 0.97 * m * (1 - m) / (2 * 0.4 - 1) ** 2
        assert kappa(m, w, 0.4) == pytest.approx(0.97)
        assert select_branch(m, 0.01, w, 0.4) == "minus"

    def test_ambiguous_region_returns_either(self):
        # r_plus = 0.4 with small kappa: d_plus stays below 2 r_minus
        m = 0.5
        w = 0.05 * m * (1 - m) / (2 * 0.4 - 1) ** 2
        d_plus, _ = root_d("plus", m, w, 0.4)
        assert d_plus <= 2 * 0.6
        assert select_branch(m, 0.01, w, 0.4) == "either"

    def test_degenerate_kappa_returns_either(self):
        r_plus = 0.7
        c = 4 * r_plus * (1 - r_plus)
        m = 0.4
        w = c * m * (1 - m) / (2 * r_plus - 1) ** 2
        assert select_branch(m, 0.01, w, r_plus) == "either"


class TestInvert:
    def test_round_trip_through_pipeline(self):
        m, v, w = FIX_TRIPLE
        est = MomentEstimates(m_hat=m, v_hat=v, w_hat=w, delta=1,
                              w_delta=w, w_2delta=w)
        res = invert(est, 0.5)
        assert (res.mu, res.lam, res.p) == pytest.approx((0.25, 0.5, 0.5))
        assert res.guards == frozenset()
        assert res.clipped == frozenset()
        assert res.branch == "minus"

    def test_clipping_of_out_of_range_coordinates(self):
        # negative v drives 1/p negative: lam > 1 and p < 0 before clipping
        m, _, w = FIX_TRIPLE
        raw = inverse_map("minus", m, -0.1, w, 0.5)
        assert raw.lam > 1.0 and raw.p < 0.0
        res = invert_triple(m, -0.1, w, 0.5)
        assert res.lam == 1.0 and res.p == 0.0
        assert {"lambda", "p"} <= res.clipped

    def test_abs_phi1_keeps_pipeline_finite(self):
        m = 0.4
        res = invert_triple(m, 0.02, 0.5 * m * (1 - m), 0.5)
        assert res.ok
        assert "abs_phi1" in res.guards
        assert all(math.isfinite(v) for v in (res.mu, res.lam, res.p))

    def test_non_invertible_failure_value(self):
        m = 0.4
        # The no-information triple w = m(1-m) fails alike on either branch.
        for v, r_plus in ((0.02, 0.5), (0.01, 0.3), (0.01, 0.5), (0.01, 0.7)):
            res = invert_triple(m, v, m * (1 - m), r_plus)
            assert not res.ok
            assert "non_invertible" in res.guards
            assert math.isnan(res.mu) and math.isnan(res.lam) and math.isnan(res.p)
        res2 = invert_triple(0.0, 0.02, 0.3, 0.5)
        assert not res2.ok

    @pytest.mark.parametrize("triple", [
        (0.5, 0.01, math.inf, 0.5), (0.5, 0.01, -math.inf, 0.5),
        (0.5, math.inf, 0.2, 0.5), (0.5, -math.inf, 0.2, 0.5),
        (0.5, math.nan, 0.2, 0.5), (0.5, 0.01, math.nan, 0.5),
        (math.nan, 0.01, 0.2, 0.5), (math.inf, 0.01, 0.2, 0.5),
    ])
    def test_non_finite_input_is_non_invertible(self, triple):
        res = invert_triple(*triple)
        assert res.guards == frozenset({"non_invertible"})
        assert res.clipped == frozenset()
        assert math.isnan(res.mu) and math.isnan(res.lam) and math.isnan(res.p)

    @pytest.mark.parametrize("r_plus", [-1.0, 0.0, 1.0, 1.5, math.nan])
    def test_rejects_r_plus_outside_unit_interval(self, r_plus):
        with pytest.raises(ValueError, match="r_plus"):
            invert_triple(0.4, 0.01, 0.3, r_plus)

    @settings(max_examples=500, deadline=None)
    @example(m=0.5, v=0.0, w=0.0, r_plus=9e-238)  # (1 - D)^2 overflows
    @given(m=st.floats(), v=st.floats(), w=st.floats(),
           r_plus=st.sampled_from([0.3, 0.4, 0.5, 0.5 + 2e-4, 0.6, 0.75])
           | st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_totality_and_admissible_output(self, m, v, w, r_plus):
        res = invert_triple(m, v, w, r_plus)
        if res.ok:
            assert all(math.isfinite(x) for x in (res.mu, res.lam, res.p))
            assert 0.0 <= res.mu <= res.lam <= 1.0
            assert 0.0 <= res.p <= 1.0
        else:
            assert math.isnan(res.mu) and math.isnan(res.lam) and math.isnan(res.p)

    def test_arbitrary_branch_flagged(self):
        m = 0.5
        w = 0.05 * m * (1 - m) / (2 * 0.4 - 1) ** 2
        res = invert_triple(m, 0.01, w, 0.4)
        assert res.branch == "minus"
        assert "arbitrary_branch" in res.guards

    def test_ordering_constraint_after_clipping(self):
        stream = Stream(derive_key(8, "monotone"))
        for _ in range(500):
            u = stream.uniforms(3)
            m = 0.02 + 0.96 * float(u[0])
            v = float(u[1]) * 0.5 - 0.1
            w = float(u[2]) * 2.0 - 0.2
            for r_plus in (0.3, 0.5, 0.75):
                res = invert_triple(m, v, w, r_plus)
                if not res.ok:
                    continue
                assert 0.0 <= res.mu <= res.lam <= 1.0
                assert 0.0 <= res.p <= 1.0


class TestContinuityNearDegenerateKappa:
    def test_minus_branch_approaches_guard_value(self):
        r_plus = 0.75
        c = 4 * r_plus * (1 - r_plus)
        m = 0.375
        guard_d = 1.0 / (2.0 * c)
        errors = []
        for offset in (1e-2, 1e-3, 2e-4):
            w = (c + offset) * m * (1 - m) / (2 * r_plus - 1) ** 2
            d, flags = root_d("minus", m, w, r_plus)
            assert not flags
            errors.append(abs(d - guard_d))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 2e-3
