import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from densigraph import denominator, forward_map_values, invert_triple
from densigraph.estimators import MomentEstimates
from densigraph.inversion import KAPPA_DEGENERATE_TOL, invert
from densigraph.rng import Stream, derive_key

from _reference import inverse_reference, sample_admissible

# Hand-evaluated fixture: Psi(0.25, 0.5, 0.5) at r_plus = 0.5.
FIX_PARAMS = (0.25, 0.5, 0.5)
FIX_TRIPLE = (0.375, 0.0166015625, 0.2490234375)


def kappa_of(m, w, r_plus):
    return (2 * r_plus - 1) ** 2 * w / (m * (1 - m))


def w_at_kappa(kappa, m, r_plus):
    """The w at which (m, w) has the given kappa at r_plus."""
    return kappa * m * (1 - m) / (2 * r_plus - 1) ** 2


def error(res, params):
    return max(abs(res[0] - params[0]), abs(res[1] - params[1]),
               abs(res[2] - params[2]))


def coords(res):
    return res.mu, res.lam, res.p


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


# Exact outputs of invert_triple, one triple per guard and clip path, recorded
# before the inversion became one straight-line function: (mu, lam, p) as
# repr, then the guards and the clip flags as the CLI prints them.
PINS = [
    pytest.param((0.4, 0.01, 1.26, 0.7),
                 ("0.0", "0.0", "0.9574955122104022", "degenerate_kappa",
                  "lambda|mu"), id="degenerate_kappa"),
    pytest.param((0.5, 0.01, 0.105, 0.7),
                 ("0.39130434782608703", "0.5986086956521739", "0.54159445407279",
                  "clamped_discriminant", ""), id="clamped_discriminant"),
    pytest.param((0.5, 0.01, 0.3125, 0.4),
                 ("0.34147446114645585", "0.5567862853787595", "0.7153458190661642",
                  "arbitrary_branch", ""), id="arbitrary_branch"),
    pytest.param((0.375, 0.0166015625, 0.2490234375, 0.5002),
                 ("0.25001249999999997", "0.4999529323166714",
                  "0.49995293674698793", "symmetric_r", ""), id="symmetric_r"),
    pytest.param((0.4, 0.02, 0.12, 0.5),
                 ("0.046446609406726236", "0.18410756016936825",
                  "0.8666666666666667", "abs_phi1", ""), id="abs_phi1"),
    pytest.param((0.4, 0.01, 0.24, 0.3),
                 ("nan", "nan", "nan", "non_invertible", ""), id="non_invertible"),
    pytest.param((0.375, -0.1, 0.2490234375, 0.5),
                 ("0.25", "1.0", "0.0", "", "lambda|p"), id="clip_lambda_p"),
    pytest.param((0.375, 0.0166015625, 0.2490234375, 0.5),
                 ("0.25", "0.5", "0.5", "", ""), id="no_guard"),
    # The symmetric closed form sets no degenerate_kappa flag, so a
    # degenerate kappa there is an arbitrary branch.
    pytest.param((0.4, 0.01, 1499999.7600003304, 0.5002),
                 ("0.0", "0.0", "0.9999999938452049", "arbitrary_branch|symmetric_r",
                  "lambda|mu"), id="symmetric_degenerate"),
    # The double root 1 / (8 r_plus r_minus) squares past the float range.
    pytest.param((0.5, 0.0, 0.0, 9e-238),
                 ("nan", "nan", "nan", "non_invertible", ""), id="overflow"),
    pytest.param((0.5, 0.01, math.inf, 0.5),
                 ("nan", "nan", "nan", "non_invertible", ""), id="non_finite"),
    pytest.param((0.367, 0.019, 1.023, 0.3),
                 ("0.0", "0.003818937278982859", "0.9362735929298166", "", "mu"),
                 id="clip_mu"),
    pytest.param((0.518, -0.032, 0.579, 0.3),
                 ("0.21478967397299636", "0.5986380586708647", "1.0", "", "p"),
                 id="clip_p"),
    pytest.param((0.941, -0.019, 1.581, 0.6),
                 ("0.0", "0.0", "1.0", "", "lambda|mu|p"), id="clip_all"),
    pytest.param((0.413, 0.009, -0.042, 0.3),
                 ("0.37028963267327125", "0.5346865917192055", "0.17163124024285556",
                  "arbitrary_branch|clamped_discriminant", ""),
                 id="arbitrary_clamped"),
    pytest.param((0.758, -0.012, 0.963, 0.7),
                 ("0.016346406679041525", "0.016346406679041525", "1.0",
                  "degenerate_kappa", "mu|p"), id="degenerate_clip_mu_p"),
]


@pytest.mark.parametrize("triple, expected", PINS)
def test_pinned_outputs(triple, expected):
    res = invert_triple(*triple)
    assert res.branch == "minus"
    assert (repr(res.mu), repr(res.lam), repr(res.p), "|".join(sorted(res.guards)),
            "|".join(sorted(res.clipped))) == expected


class TestKappa:
    @pytest.mark.parametrize("r_plus", [0.3, 0.7, 0.75])
    @pytest.mark.parametrize("m", [0.375, 0.6])
    def test_degenerate_window_is_kappa_near_four_r_plus_r_minus(self, m, r_plus):
        c = 4 * r_plus * (1 - r_plus)
        for offset, inside in ((-0.5, True), (0.5, True), (-2.0, False), (2.0, False)):
            w = w_at_kappa(c + offset * KAPPA_DEGENERATE_TOL, m, r_plus)
            res = invert_triple(m, 0.01, w, r_plus)
            assert ("degenerate_kappa" in res.guards) == inside, offset

    @pytest.mark.parametrize("m", [0.0, 1.0])
    def test_boundary_mean_is_non_invertible(self, m):
        # kappa divides by m (1-m)
        assert invert_triple(m, 0.01, 1.0, 0.7).guards == {"non_invertible"}

    def test_symmetric_partition_kappa_vanishes(self):
        # kappa = 0 at r_plus = 1/2 whatever w, far from 4 r_plus r_minus = 1
        for w in (0.3, 5.0, 1e6):
            assert "arbitrary_branch" not in invert_triple(0.3, 0.01, w, 0.5).guards


class TestDegenerateKappa:
    def test_double_root_is_exact_on_the_degenerate_image(self):
        # (1-lam) p = 2/3 puts D = 2/3 at the double root 1 / (2 * 0.75).
        params = (0.1, 1 / 6, 0.8)
        m, v, w = forward_map_values(*params, 0.75)
        assert kappa_of(m, w, 0.75) == pytest.approx(0.75)
        res = invert_triple(m, v, w, 0.75)
        assert res.guards == {"degenerate_kappa"} and not res.clipped
        assert denominator(res.lam, res.p, 0.75) == pytest.approx(2 / 3)
        assert error(coords(res), params) < 1e-12

    def test_roots_collapse_so_no_branch_is_arbitrary(self):
        r_plus, m = 0.7, 0.4
        w = w_at_kappa(4 * r_plus * (1 - r_plus), m, r_plus)
        assert invert_triple(m, 0.01, w, r_plus).guards == {"degenerate_kappa"}

    def test_nearly_symmetric_degenerate_kappa_is_an_arbitrary_branch(self):
        r_plus, m = 0.5 + 2e-4, 0.4
        w = w_at_kappa(4 * r_plus * (1 - r_plus), m, r_plus)
        assert invert_triple(m, 0.01, w, r_plus).guards == {"symmetric_r",
                                                             "arbitrary_branch"}

    def test_minus_root_approaches_the_double_root(self):
        r_plus, m = 0.75, 0.375
        c = 4 * r_plus * (1 - r_plus)
        errors = []
        for offset in (1e-2, 1e-3, 2e-4):
            res = invert_triple(m, 0.01, w_at_kappa(c + offset, m, r_plus), r_plus)
            assert not res.guards and not res.clipped
            errors.append(abs(denominator(res.lam, res.p, r_plus) - 1.0 / (2.0 * c)))
        assert errors == sorted(errors, reverse=True)
        assert errors[-1] < 2e-3


class TestRoots:
    def test_roots_solve_the_quadratic(self):
        # The reference's two roots solve it, and invert_triple takes
        # (1-lam) p = |1 - D| / |r_plus - r_minus| on the "minus" root D.
        stream = Stream(derive_key(3, "residual"))
        checked = 0
        for r_plus in (0.3, 0.7):
            c = 4 * r_plus * (1 - r_plus)
            for _ in range(300):
                u = stream.uniforms(2)
                m = 0.05 + 0.9 * float(u[0])
                w = 0.05 + 3.0 * float(u[1])
                k = kappa_of(m, w, r_plus)
                if abs(k - c) < 10 * KAPPA_DEGENERATE_TOL or c * c - c + k <= 0:
                    continue
                plus, minus = (
                    denominator(*inverse_reference(m, 0.01, w, r_plus, branch)[1:], r_plus)
                    for branch in (1, -1))
                for d in (plus, minus):
                    assert abs((c - k) * d * d - 2.0 * c * d + 1.0) < 1e-9
                res = invert_triple(m, 0.01, w, r_plus)
                assert res.guards <= {"arbitrary_branch"}
                if not res.clipped:
                    assert (1 - res.lam) * res.p == pytest.approx(
                        abs(1 - minus) / abs(2 * r_plus - 1), abs=1e-9)
                    checked += 1
        assert checked > 50

    def test_minus_root_recovers_denominator(self):
        stream = Stream(derive_key(4, "roundtrip-d"))
        for _ in range(200):
            (mu, lam, p), (m, v, w) = sample_admissible(stream, 0.7)
            res = invert_triple(m, v, w, 0.7)
            assert denominator(res.lam, res.p, 0.7) == pytest.approx(
                denominator(lam, p, 0.7), abs=1e-9)

    def test_discriminant_clamp_flag(self):
        # kappa far below c with tiny w drives the discriminant negative
        r_plus, m = 0.7, 0.5
        c = 4 * r_plus * (1 - r_plus)
        res = invert_triple(m, 0.01, w_at_kappa((c - c * c) / 2, m, r_plus), r_plus)
        assert res.guards == {"clamped_discriminant"}
        assert all(math.isfinite(x) for x in coords(res))


class TestSymmetricPartition:
    def test_closed_form_at_one_half_is_no_guard(self):
        res = invert_triple(*FIX_TRIPLE, 0.5)
        assert res.guards == frozenset()
        assert ((1 - res.lam) * res.p) ** 2 == pytest.approx(0.0625)
        assert 1.0 / res.p == pytest.approx(2.0)

    def test_nearly_symmetric_flag(self):
        assert "symmetric_r" in invert_triple(*FIX_TRIPLE, 0.5 + 2e-4).guards

    def test_absolute_value_guard(self):
        m = 0.4
        w = 0.5 * m * (1 - m)  # below the Bernoulli variance: phi1 = -1/2
        res = invert_triple(m, 0.02, w, 0.5)
        assert res.guards == {"abs_phi1"} and not res.clipped
        assert ((1 - res.lam) * res.p) ** 2 == pytest.approx(0.5)
        assert all(math.isfinite(x) for x in coords(res))


class TestBranches:
    def test_minus_root_identity_for_large_r_plus(self):
        stream = Stream(derive_key(5, "identity"))
        for r_plus in (0.5, 0.6, 0.75):
            for _ in range(200):
                params, (m, v, w) = sample_admissible(stream, r_plus)
                res = invert_triple(m, v, w, r_plus)
                assert "arbitrary_branch" not in res.guards
                assert error(coords(res), params) < 1e-10

    def test_two_branch_membership_for_small_r_plus(self):
        stream = Stream(derive_key(6, "membership"))
        for r_plus in (0.3, 0.4):
            for _ in range(200):
                params, (m, v, w) = sample_admissible(stream, r_plus)
                errs = [error(inverse_reference(m, v, w, r_plus, branch), params)
                        for branch in (1, -1)]
                assert min(errs) < 1e-10
                res = invert_triple(m, v, w, r_plus)
                if "arbitrary_branch" not in res.guards:
                    assert error(coords(res), params) < 1e-10

    def test_large_r_plus_forces_minus(self):
        assert invert_triple(0.4, 0.01, 0.3, 0.6).guards == frozenset()

    def test_kappa_above_threshold_forces_minus(self):
        # r_plus = 0.4: kappa = 0.97 > 4 r+ r- = 0.96
        m = 0.5
        w = w_at_kappa(0.97, m, 0.4)
        assert kappa_of(m, w, 0.4) == pytest.approx(0.97)
        assert "arbitrary_branch" not in invert_triple(m, 0.01, w, 0.4).guards

    def test_ambiguous_region_is_an_arbitrary_branch(self):
        # r_plus = 0.4 with small kappa: the plus root stays below 2 r_minus
        m = 0.5
        w = w_at_kappa(0.05, m, 0.4)
        plus = inverse_reference(m, 0.01, w, 0.4, 1)
        assert denominator(plus[1], plus[2], 0.4) <= 2 * 0.6
        res = invert_triple(m, 0.01, w, 0.4)
        assert res.branch == "minus"
        assert "arbitrary_branch" in res.guards

    def test_arbitrary_branch_flag_follows_the_plus_root(self):
        stream = Stream(derive_key(7, "plus-root"))
        counts = {True: 0, False: 0}
        for r_plus in (0.3, 0.4, 0.45):
            c = 4 * r_plus * (1 - r_plus)
            for _ in range(300):
                u = stream.uniforms(2)
                m = 0.05 + 0.9 * float(u[0])
                w = 0.02 + 0.5 * float(u[1])
                k = kappa_of(m, w, r_plus)
                if abs(k - c) < 10 * KAPPA_DEGENERATE_TOL or c * c - c + k <= 0:
                    continue
                plus = inverse_reference(m, 0.01, w, r_plus, 1)
                ambiguous = k < c and denominator(plus[1], plus[2], r_plus) <= 2 * (1 - r_plus)
                res = invert_triple(m, 0.01, w, r_plus)
                assert ("arbitrary_branch" in res.guards) == ambiguous
                counts[ambiguous] += 1
        assert min(counts.values()) > 50


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
        _, raw_lam, raw_p = inverse_reference(m, -0.1, w, 0.5, -1)
        assert raw_lam > 1.0 and raw_p < 0.0
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

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 10")
    @pytest.mark.parametrize("r_plus", [0.3, 0.8])
    def test_clean_result_maps_back_to_its_triple(self, r_plus):
        # Random triples, mostly off the image of the moment map: whatever
        # comes back ok with no guard and no clip must be a preimage.
        u = Stream(derive_key(22, "off-image")).uniforms(3 * 10_000)
        off_image = []
        for a, b, c in u.reshape(-1, 3).tolist():
            triple = (0.01 + 0.98 * a, 0.05 * b, 0.01 + 1.49 * c)
            res = invert_triple(*triple, r_plus)
            if not res.ok or res.guards or res.clipped:
                continue
            image = forward_map_values(res.mu, res.lam, res.p, r_plus)
            if not all(math.isclose(x, y, rel_tol=1e-9)
                       for x, y in zip(image, triple)):
                off_image.append(triple)
        assert not off_image, f"{len(off_image)} clean results off the image"

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
