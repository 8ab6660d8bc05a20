import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from icawgn.bounds import (
    CURVE_KINDS,
    ChannelPoint,
    bound_curves,
    delta_cr,
    delta_ex,
    delta_star,
    d_section_prob,
    effective_radius,
    equivalence_check,
    equivalence_sides,
    ml_bound,
    poltyrev_ml_bound,
    poltyrev_radius,
    sphere_bound,
    sphere_bound_by_volume,
    typicality_bound,
)
from icawgn.specfn import q_func
from helpers import log_ml_first_term_quad


class TestChannelPoint:
    def test_validation(self):
        with pytest.raises(ValueError):
            ChannelPoint(n=0, nld=0.0, sigma2=1.0)
        with pytest.raises(ValueError):
            ChannelPoint(n=4, nld=0.0, sigma2=0.0)
        with pytest.raises(ValueError):
            ChannelPoint(n=4, nld=math.inf, sigma2=1.0)

    @pytest.mark.parametrize("n,sigma2", [(2.5, 1.0), (4.0, 1.0), (True, 1.0), ("4", 1.0),
                                          (4, math.inf), (4, math.nan)])
    def test_rejects_non_integer_n_and_non_finite_sigma2(self, n, sigma2):
        with pytest.raises(ValueError):
            ChannelPoint(n=n, nld=0.0, sigma2=sigma2)

    @pytest.mark.parametrize("n", [2**63, 2**70, np.uint64(2**63)])
    def test_rejects_n_past_int64_naming_the_limit(self, n):
        with pytest.raises(ValueError, match="9223372036854775807"):
            ChannelPoint(n=n, nld=-1.5, sigma2=1.0)

    def test_accepts_largest_n(self):
        assert ChannelPoint(n=2**63 - 1, nld=-1.5, sigma2=1.0).n == 2**63 - 1

    @pytest.mark.parametrize("n", [np.int64(4), np.int32(4), np.uint8(4)])
    def test_accepts_numpy_integers(self, n):
        assert ChannelPoint(n=n, nld=0.5, sigma2=1.0).density == pytest.approx(math.exp(2.0))

    def test_density(self):
        assert ChannelPoint(n=3, nld=0.5, sigma2=1.0).density == pytest.approx(math.exp(1.5))


class TestCapacities:
    def test_delta_star_value(self):
        assert delta_star(1.0) == pytest.approx(-0.5 * math.log(2 * math.pi * math.e), rel=1e-15)
        assert delta_star(1.0) == pytest.approx(-1.4189385332046727, abs=1e-12)

    def test_delta_star_normalization_point(self):
        assert delta_star(1.0 / (2 * math.pi * math.e)) == pytest.approx(0.0, abs=1e-15)

    def test_delta_cr(self):
        assert delta_cr(1.0) == pytest.approx(-1.7655121234846454, abs=1e-12)

    def test_delta_star_minus_cr_is_half_ln2(self):
        for s2 in (0.3, 1.0, 7.5):
            assert delta_star(s2) - delta_cr(s2) == pytest.approx(0.5 * math.log(2.0), rel=1e-14)

    def test_delta_ex(self):
        assert delta_ex(1.0) == pytest.approx(delta_star(1.0) - math.log(2.0), rel=1e-14)

    def test_domain(self):
        for fn in (delta_star, delta_cr):
            with pytest.raises(ValueError):
                fn(-1.0)

    @pytest.mark.parametrize("fn", [
        delta_star, delta_cr,
        pytest.param(lambda s2: sphere_bound_by_volume(4, 1.0, s2), id="sphere_bound_by_volume"),
        pytest.param(lambda s2: equivalence_sides(3, 1.0, s2), id="equivalence_sides"),
        pytest.param(lambda s2: d_section_prob(3, 1.0, 0.5, s2), id="d_section_prob")])
    @pytest.mark.parametrize("sigma2", [0.0, math.inf, math.nan])
    def test_rejects_non_finite_or_zero_noise(self, fn, sigma2):
        # delta_star(inf) returned -inf and delta_star(nan) returned nan.
        with pytest.raises(ValueError, match="noise variance"):
            fn(sigma2)


class TestEffectiveRadius:
    def test_n1(self):
        assert effective_radius(ChannelPoint(1, 0.0, 1.0)) == pytest.approx(0.5, rel=1e-14)

    def test_n2(self):
        assert effective_radius(ChannelPoint(2, 0.0, 1.0)) == pytest.approx(
            math.pi ** -0.5, rel=1e-14)

    def test_n24_exact_volume_oracle(self):
        # V_24 = pi^12 / 12! exactly.
        v24 = math.pi ** 12 / math.factorial(12)
        assert effective_radius(ChannelPoint(24, -1.5, 1.0)) == pytest.approx(
            math.exp(1.5) * v24 ** (-1.0 / 24.0), rel=1e-13)


class TestSphereBound:
    def test_n1_closed_form(self):
        bv = sphere_bound(ChannelPoint(1, 0.0, 1.0))
        assert bv.value == pytest.approx(2.0 * q_func(0.5), rel=1e-13)
        assert bv.radius_used == pytest.approx(0.5, rel=1e-14)

    def test_n2_closed_form(self):
        bv = sphere_bound(ChannelPoint(2, 0.0, 1.0))
        assert bv.value == pytest.approx(math.exp(-1.0 / (2.0 * math.pi)), rel=1e-13)

    @pytest.mark.parametrize("n", [1, 2, 16, 128])
    def test_strictly_increasing_in_nld(self, n):
        deltas = np.linspace(-3.0, 0.5, 40)
        vals = [sphere_bound(ChannelPoint(n, float(d), 1.0)).log_raw for d in deltas]
        assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:]))

    def test_matches_chi_square_survival_oracle(self):
        from scipy import stats
        for n in (1, 2, 3, 8, 64, 501):
            for d in (-2.0, -1.5):
                for s2 in (0.5, 1.0):
                    p = ChannelPoint(n, d, s2)
                    r = effective_radius(p)
                    ref = stats.chi2.sf(r * r / s2, n)
                    assert sphere_bound(p).value == pytest.approx(ref, rel=1e-11)


class TestSphereBoundByVolume:
    def test_reproduces_sphere_bound(self):
        for n, d in [(1, 0.0), (8, -1.5), (64, -1.7)]:
            via_volume = sphere_bound_by_volume(n, math.exp(-n * d), 1.0)
            direct = sphere_bound(ChannelPoint(n, d, 1.0)).value
            assert via_volume == pytest.approx(direct, rel=1e-13)

    def test_convex_second_difference_n3(self):
        f = [sphere_bound_by_volume(3, v, 1.0) for v in (0.5, 1.0, 1.5)]
        assert f[0] - 2.0 * f[1] + f[2] >= 0.0

    def test_vanishes_monotonically(self):
        vols = np.logspace(0, 6, 30)
        vals = [sphere_bound_by_volume(4, float(v), 1.0) for v in vols]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        assert vals[-1] < 1e-12

    @pytest.mark.parametrize("n", [1, 2, 8, 32])
    def test_convexity_on_geometric_grids(self, n):
        # Nonnegative second differences on arithmetic triples drawn from a
        # grid spanning 4 decades of volume.
        vols = np.logspace(-2, 2, 41)
        for v in vols:
            h = 0.05 * v
            f0 = sphere_bound_by_volume(n, float(v - h), 1.0)
            f1 = sphere_bound_by_volume(n, float(v), 1.0)
            f2 = sphere_bound_by_volume(n, float(v + h), 1.0)
            # tolerance is a few ulp of the function values themselves
            assert f0 - 2.0 * f1 + f2 >= -4e-16


class TestMlBound:
    def test_exceeds_sphere_bound_everywhere(self):
        for n in (1, 2, 8, 64, 512):
            for d in (-2.5, -1.5, -0.5):
                p = ChannelPoint(n, d, 1.0)
                assert ml_bound(p).log_raw > sphere_bound(p).log_raw

    @pytest.mark.parametrize("n,d", [(8, -1.5)])
    def test_closed_form_vs_quadrature(self, n, d):
        p = ChannelPoint(n, d, 1.0)
        r = effective_radius(p)
        total_log = ml_bound(p).log_raw
        tail = sphere_bound(p).value
        first_log = log_ml_first_term_quad(n, d, 1.0, r)
        ref_log = math.log(math.exp(first_log) + tail)
        assert abs(math.expm1(total_log - ref_log)) <= 1e-10

    @pytest.mark.parametrize("n", [4, 16, 64])
    def test_default_radius_is_optimal(self, n):
        p = ChannelPoint(n, -1.5, 1.0)
        r = effective_radius(p)
        at_default = ml_bound(p).log_raw
        assert at_default <= ml_bound(p, r=1.05 * r).log_raw
        assert at_default <= ml_bound(p, r=0.95 * r).log_raw

    def test_clamping_is_flagged(self):
        # At the optimizing radius the ML bound never exceeds 1 (its first
        # term is at most the in-ball probability mass); an oversized user
        # radius makes it vacuous and must be flagged, not hidden.
        p = ChannelPoint(2, 0.0, 1.0)
        vac = ml_bound(p, r=10.0)
        assert vac.clamped and vac.value == 1.0 and vac.log_raw > 0.0
        assert not ml_bound(p).clamped
        tight = ml_bound(ChannelPoint(512, -1.5, 1.0))
        assert not tight.clamped and tight.value < 1.0


class TestTypicalityBound:
    def test_default_radius_at_half_nat_gap(self):
        # At delta = delta* - 1/2 the radicand is 2, so r = sigma sqrt(2n).
        n = 7
        bv = typicality_bound(ChannelPoint(n, delta_star(1.0) - 0.5, 1.0))
        assert bv.radius_used == pytest.approx(math.sqrt(2.0 * n), rel=1e-14)

    def test_dominates_ml_bound(self):
        for n in (2, 4, 16, 64, 256):
            for d in (delta_cr(1.0), -1.5):
                p = ChannelPoint(n, d, 1.0)
                assert typicality_bound(p).log_raw >= ml_bound(p).log_raw

    @pytest.mark.parametrize("n", [4, 64])
    def test_default_radius_is_optimal(self, n):
        p = ChannelPoint(n, -1.5, 1.0)
        bv = typicality_bound(p)
        assert bv.log_raw <= typicality_bound(p, r=1.05 * bv.radius_used).log_raw
        assert bv.log_raw <= typicality_bound(p, r=0.95 * bv.radius_used).log_raw

    def test_default_radius_domain(self):
        with pytest.raises(ValueError):
            typicality_bound(ChannelPoint(4, delta_star(1.0) + 0.6, 1.0))
        # explicit radius still works past the default's domain
        bv = typicality_bound(ChannelPoint(4, delta_star(1.0) + 0.6, 1.0), r=1.0)
        assert bv.value == 1.0 and bv.clamped


class TestPoltyrevBound:
    def test_same_radius_coincides_with_ml(self):
        p = ChannelPoint(64, -1.7, 1.0)
        r = poltyrev_radius(p)
        assert poltyrev_ml_bound(p).log_raw == ml_bound(p, r=r).log_raw

    def test_dominates_ml_above_critical(self):
        p = ChannelPoint(100, -1.5, 1.0)
        assert poltyrev_ml_bound(p).log_raw >= ml_bound(p).log_raw

    def test_near_coincidence_below_critical(self):
        p = ChannelPoint(100, -2.0, 1.0)
        ratio = math.exp(poltyrev_ml_bound(p).log_raw - ml_bound(p).log_raw)
        assert 1.0 <= ratio <= 1.5


class TestDSectionProb:
    def test_empty_section(self):
        assert d_section_prob(3, 2.0, 4.0, 1.0) == 0.0

    def test_half_ball_at_zero_offset(self):
        # w = 0 cuts the ball in half: value = Pr{||Z|| <= r} / 2, with the
        # right side obtained through the chi-square CDF, not the section
        # integral.
        from icawgn.specfn import reg_gamma_lower
        got = d_section_prob(3, 2.0, 0.0, 1.0)
        assert got == pytest.approx(0.5 * reg_gamma_lower(1.5, 2.0), rel=1e-9)

    @pytest.mark.parametrize("n", [*range(2, 9), 50, 1000])
    @pytest.mark.parametrize("s2, r", [(s2, r) for s2 in (0.5, 1.0)
                                       for r in (0.01, 0.5, 2.0, 5.0, 30.0, 70.0, 100.0)
                                       if r / math.sqrt(s2) <= 100.0])
    def test_half_ball_every_dimension(self, n, r, s2):
        ref = 0.5 * special.gammainc(0.5 * n, r * r / (2.0 * s2))
        assert d_section_prob(n, r, 0.0, s2) == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_monte_carlo_oracle(self):
        rng = np.random.default_rng(7)
        z = rng.standard_normal((10 ** 6, 3))
        hits = (z[:, 0] > 0.5) & ((z ** 2).sum(axis=1) <= 4.0)
        p_mc = hits.mean()
        se = math.sqrt(p_mc * (1.0 - p_mc) / len(z))
        got = d_section_prob(3, 2.0, 1.0, 1.0)
        assert abs(got - p_mc) <= 3.0 * se

    def test_domain(self):
        with pytest.raises(ValueError):
            d_section_prob(3, 2.0, 4.5, 1.0)
        with pytest.raises(ValueError):
            d_section_prob(3, 2.0, -0.1, 1.0)

    @pytest.mark.parametrize("fn", [
        pytest.param(lambda r, s2: d_section_prob(3, r, 0.0, s2), id="d_section_prob"),
        pytest.param(lambda r, s2: equivalence_sides(3, r, s2), id="equivalence_sides")])
    @pytest.mark.parametrize("r, s2", [(1000.0, 1.0), (1e6, 1.0), (71.0, 0.5)])
    def test_rejects_radius_past_hundred_sigma(self, fn, r, s2):
        # At r/sigma = 1000 the section integrals miss the Gaussian peak.
        with pytest.raises(ValueError, match="r/sigma"):
            fn(r, s2)

    @pytest.mark.parametrize("fn", [
        pytest.param(lambda r: d_section_prob(3, r, 0.0, 1.0), id="d_section_prob"),
        pytest.param(lambda r: equivalence_sides(3, r, 1.0), id="equivalence_sides")])
    @pytest.mark.parametrize("r", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_non_finite_or_non_positive_radius(self, fn, r):
        with pytest.raises(ValueError, match="radius"):
            fn(r)


class TestEquivalence:
    @pytest.mark.parametrize("n,r,s2", [(2, 1.0, 1.0), (3, 0.8, 0.5), (4, 2.0, 1.0)])
    def test_identity_holds(self, n, r, s2):
        assert equivalence_check(n, r, s2) <= 1e-6

    @staticmethod
    def _closed_form(n, r, s2):
        # int_0^r f_R(t) t^n dt = (2 s2)^(n/2) Gamma(n) / Gamma(n/2) P(n, r^2 / 2 s2)
        log_scale = 0.5 * n * math.log(2.0 * s2) + math.lgamma(n) - math.lgamma(0.5 * n)
        return math.exp(log_scale) * special.gammainc(n, r * r / (2.0 * s2))

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("r", [0.01, 0.5, 1.0, 2.0, 5.0])
    @pytest.mark.parametrize("s2", [0.5, 1.0])
    def test_both_sides_match_closed_form(self, n, r, s2):
        ref = self._closed_form(n, r, s2)
        lhs, rhs = equivalence_sides(n, r, s2)
        assert lhs == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert rhs == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("snr", [10.0, 30.0, 100.0])
    def test_both_sides_match_closed_form_at_large_radius(self, n, snr):
        ref = self._closed_form(n, snr, 1.0)
        lhs, rhs = equivalence_sides(n, snr, 1.0)
        assert lhs == pytest.approx(ref, rel=1e-10, abs=0.0)
        assert rhs == pytest.approx(ref, rel=1e-10, abs=0.0)

    @pytest.mark.parametrize("r", [1e-30, 1e-200])
    def test_rejects_radius_whose_right_side_underflows(self, r):
        # The right side is of order r^(2n): 1e-480 at n = 8, r = 1e-30.
        for fn in (equivalence_sides, equivalence_check):
            with pytest.raises(ValueError, match="underflows"):
                fn(8, r, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            equivalence_check(9, 1.0, 1.0)
        with pytest.raises(ValueError):
            equivalence_check(1, 1.0, 1.0)


class TestCrossBoundInvariants:
    def test_ordering_on_grid(self):
        # sphere <= ml <= typicality before clamping.
        dcr, ds = delta_cr(1.0), delta_star(1.0)
        for n in (2, 4, 8, 32, 128, 512):
            for d in (dcr - 0.3, dcr, 0.5 * (dcr + ds)):
                p = ChannelPoint(n, d, 1.0)
                s = sphere_bound(p).log_raw
                m = ml_bound(p).log_raw
                t = typicality_bound(p).log_raw
                assert s <= m <= t, (n, d)

    @given(st.floats(min_value=0.05, max_value=20.0),
           st.integers(min_value=1, max_value=64),
           st.floats(min_value=-2.5, max_value=-1.0))
    @settings(max_examples=60, deadline=None)
    def test_scale_covariance(self, c, n, d):
        # sigma2 -> c sigma2 with delta -> delta - ln(c)/2 leaves every
        # bound unchanged (all depend on delta - delta* only).
        base = ChannelPoint(n, d, 1.0)
        moved = ChannelPoint(n, d - 0.5 * math.log(c), c)
        for fn in (sphere_bound, ml_bound, typicality_bound, poltyrev_ml_bound):
            assert fn(base).log_raw == pytest.approx(fn(moved).log_raw, abs=1e-11)

    def test_all_bounds_increase_in_nld(self):
        for fn in (sphere_bound, ml_bound, typicality_bound, poltyrev_ml_bound):
            vals = [fn(ChannelPoint(16, float(d), 1.0)).log_raw
                    for d in np.linspace(-2.5, -1.0, 25)]
            assert all(v1 < v2 for v1, v2 in zip(vals, vals[1:])), fn.__name__


_SCALAR_BOUNDS = {"sphere": sphere_bound, "ml": ml_bound, "typicality": typicality_bound,
                  "poltyrev": poltyrev_ml_bound}


class TestBoundCurves:
    """The array path against the scalar bounds it stands in for."""

    @pytest.mark.parametrize("sigma2", [1.0, 0.25])
    @pytest.mark.parametrize("nld", [-2.0, -1.5, 0.3])
    def test_matches_scalar_bounds(self, nld, sigma2):
        ns = list(range(1, 10001)) + [200_000, 1_000_000]
        kinds = [k for k in CURVE_KINDS
                 if k != "typicality" or 1.0 + 2.0 * (delta_star(sigma2) - nld) > 0.0]
        curves = bound_curves(ns, nld, sigma2, kinds)
        assert list(curves) == kinds
        for kind in kinds:
            scalar = [_SCALAR_BOUNDS[kind](ChannelPoint(n, nld, sigma2)) for n in ns]
            ref = np.array([bv.log_raw for bv in scalar])
            got = curves[kind].log_value
            with np.errstate(invalid="ignore"):   # -inf - -inf
                close = np.abs(got - ref) <= 1e-12 * np.abs(ref)
            assert np.all(close | (got == ref)), kind
            assert np.array_equal(curves[kind].clamped, [bv.clamped for bv in scalar]), kind
            assert np.allclose(curves[kind].value, [bv.value for bv in scalar], rtol=1e-12, atol=0.0)

    def test_exact_zeros_and_ones(self):
        # Far below the packing density the noise escapes every ball; far
        # above it r_eff underflows to 0 and the tails are exact.
        low = bound_curves([4], -705.0, 1.0, ["sphere"])["sphere"]
        assert low.log_value[0] == -math.inf and low.value[0] == 0.0
        high = bound_curves([4], 800.0, 1.0, ["sphere", "ml"])
        assert all(c.log_value[0] == 0.0 and c.value[0] == 1.0 for c in high.values())

    @pytest.mark.parametrize("nld, kind, exc", [
        (0.3, "typicality", ValueError),    # 1 + 2(delta* - delta) <= 0
        (800.0, "poltyrev", ValueError),    # the radius underflows to 0
        (-800.0, "sphere", OverflowError),  # r_eff overflows
        (-800.0, "ml", OverflowError),
        (-800.0, "poltyrev", OverflowError),
    ])
    def test_rejects_what_the_scalar_bound_rejects(self, nld, kind, exc):
        with pytest.raises(exc):
            _SCALAR_BOUNDS[kind](ChannelPoint(4, nld, 1.0))
        with pytest.raises(exc):
            bound_curves([4], nld, 1.0, [kind])

    @pytest.mark.parametrize("n, nld, sigma2, kinds", [
        ([0, 1], -1.5, 1.0, CURVE_KINDS),
        ([1.0, 2.0], -1.5, 1.0, CURVE_KINDS),
        ([[1, 2]], -1.5, 1.0, CURVE_KINDS),
        ([1], math.nan, 1.0, CURVE_KINDS),
        ([1], -1.5, 0.0, CURVE_KINDS),
        ([1], -1.5, math.inf, CURVE_KINDS),
        ([1], -1.5, 1.0, ["sphere", "exact"]),
    ])
    def test_rejects_bad_inputs(self, n, nld, sigma2, kinds):
        with pytest.raises(ValueError):
            bound_curves(n, nld, sigma2, kinds)

    @pytest.mark.parametrize("n", [[2**63], [4, 2**70], np.array([2**63], dtype=np.uint64)])
    def test_rejects_n_past_int64_naming_the_limit(self, n):
        with pytest.raises(ValueError, match="9223372036854775807"):
            bound_curves(n, -1.5, 1.0)

    def test_largest_n_gives_finite_logs(self):
        curves = bound_curves([2**63 - 1], -1.5, 1.0)
        assert all(np.isfinite(c.log_value).all() for c in curves.values())
