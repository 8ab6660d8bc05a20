import inspect
import math
import re
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from icawgn import asymptotics, bounds
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
    equivalence_discrepancy,
    equivalence_sides,
    ml_bound,
    poltyrev_ml_bound,
    poltyrev_radius,
    sphere_bound,
    sphere_bound_by_volume,
    typicality_bound,
)
from icawgn.dispersion import lattice_snr_rho, norm_tail_normal_approx
from icawgn.specfn import LogProb, log_vn, q_func
from helpers import log_ml_bound_mpmath, log_ml_first_term_quad, log_radial_moment_mpmath


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

    def test_density_past_double_range(self):
        # e^(n delta) overflows a double from n delta = 709.78 and underflows below -745.
        assert ChannelPoint(n=1000, nld=1.0, sigma2=1.0).density == math.inf
        assert ChannelPoint(n=1000, nld=-1.0, sigma2=1.0).density == 0.0
        assert ChannelPoint(n=1, nld=709.78, sigma2=1.0).density == pytest.approx(math.exp(709.78))


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

    @pytest.mark.parametrize("s2", [6e306, 1e308, sys.float_info.max])
    def test_finite_where_the_product_overflows(self, s2):
        # 2 pi e sigma2 and 4 pi e sigma2 are past double range here.
        assert delta_star(s2) == pytest.approx(delta_star(1.0) - 0.5 * math.log(s2), rel=1e-15)
        assert delta_cr(s2) == pytest.approx(delta_cr(1.0) - 0.5 * math.log(s2), rel=1e-15)

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

    @pytest.mark.parametrize("v, sigma2", [(1e308, 1.0), (math.inf, 1.0), (1e308, 1e308)])
    def test_squared_radius_past_double_range_gives_zero(self, v, sigma2):
        # At n = 1 the squared radius (v/2)^2 overflows; x = r^2 / 2 sigma2 is
        # then at least 2.5e307 and the tail is 0.0 in double.
        assert sphere_bound_by_volume(1, v, sigma2) == 0.0

    def test_squared_radius_past_double_range_over_huge_variance(self):
        # r^2 = 1.96e308 overflows, but x = r^2 / 2 sigma2 = 0.98 does not:
        # Q(1/2, x) = erfc(sqrt x) = 0.1615...
        v, sigma2 = 2.8e154, 1e308
        ref = math.erfc(0.5 * v / (math.sqrt(2.0) * math.sqrt(sigma2)))
        assert sphere_bound_by_volume(1, v, sigma2) == pytest.approx(ref, rel=1e-12)

    def test_huge_variance_against_closed_form(self):
        # r = v/2 = 1e154 and sigma2 = 1e308: 2 sigma2 overflows, but
        # x = r^2 / 2 sigma2 = 0.5, so Q(1/2, x) = erfc(sqrt 0.5).
        assert sphere_bound_by_volume(1, 2e154, 1e308) == pytest.approx(
            math.erfc(math.sqrt(0.5)), rel=1e-13)

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


class TestHugeVariance:
    """sigma2 = 1e308, where 2 sigma2 overflows, at r_eff = 1e154 (x = 1/2)."""

    POINT = ChannelPoint(1, -math.log(2e154), 1e308)

    def _closed_forms(self):
        # n = 1: Q(1/2, x) = erfc(sqrt x), and the ML first term is
        # gamma V_1 int_0^r 2 phi(t / sigma) t / sigma dt
        #   = (sigma / r) sqrt(2 / pi) (1 - e^-x).
        s = effective_radius(self.POINT) / math.sqrt(self.POINT.sigma2)
        x = 0.5 * s * s
        sphere = math.erfc(math.sqrt(x))
        return math.log(sphere), math.log(sphere + math.sqrt(2.0 / math.pi) * -math.expm1(-x) / s)

    def test_scalar_bounds(self):
        log_sphere, log_ml = self._closed_forms()
        assert sphere_bound(self.POINT).log_raw == pytest.approx(log_sphere, rel=1e-13)
        assert ml_bound(self.POINT).log_raw == pytest.approx(log_ml, rel=1e-13)

    def test_bound_curves(self):
        curves = bound_curves([1], self.POINT.nld, self.POINT.sigma2, ["sphere", "ml"])
        for got, ref in zip((curves["sphere"], curves["ml"]), self._closed_forms()):
            assert got.log_value[0] == pytest.approx(ref, rel=1e-13)


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

    @pytest.mark.parametrize("n", [10**2, 10**4, 10**6])
    def test_log_within_n_d_ulps_of_mpmath(self, n):
        # The first term sums terms of size n |d|, so the log's error is
        # absolute, about n |d| 2^-53 (at most 2.1 times that measured here):
        # near capacity, where the log is about -14, and deep below it.
        for d in (delta_star(1.0) - 3.0 / math.sqrt(n), -3.0):
            bv = ml_bound(ChannelPoint(n, d, 1.0))
            ref = log_ml_bound_mpmath(n, d, bv.radius_used)
            assert abs(bv.log_raw - ref) <= 4.0 * n * abs(d) * 2.0 ** -53, (d, bv.log_raw, ref)

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

    def test_vacuous_bound_past_double_range_clamps_to_one(self):
        # gamma V_n r^n = e^(1000 + 100 ln 5 + ln V_100) passes the largest
        # double: the linear value saturates to inf and clamps to 1.
        vac = ml_bound(ChannelPoint(100, 10.0, 1.0), r=5.0)
        assert vac.log_raw > 709.8 and vac.clamped and vac.value == 1.0


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

    @pytest.mark.parametrize("point, r", [(ChannelPoint(2, 0.0, 5e-324), 1e200),
                                          (ChannelPoint(2, 0.0, 1.0), math.inf)])
    def test_overflowing_volume_term_names_the_radius(self, point, r):
        # gamma V_n r^n overflows once r/sigma does: the message says so, and at which r.
        with pytest.raises(ValueError, match=re.escape(
                f"volume term gamma V_n r^n overflows at r = {r}, r/sigma = inf")):
            typicality_bound(point, r=r)


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
        # w/2r rounds to 1 at these subnormal radii, where the section is
        # about 1e-970: an exact zero in doubles.
        assert d_section_prob(3, 1e-323, 1.5e-323, 1.0) == 0.0

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
        lhs, rhs = (side.linear for side in equivalence_sides(n, r, s2))
        assert lhs == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert rhs == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n", range(2, 9))
    @pytest.mark.parametrize("snr", [10.0, 30.0, 100.0])
    def test_both_sides_match_closed_form_at_large_radius(self, n, snr):
        ref = self._closed_form(n, snr, 1.0)
        lhs, rhs = (side.linear for side in equivalence_sides(n, snr, 1.0))
        assert lhs == pytest.approx(ref, rel=1e-13, abs=0.0)
        assert rhs == pytest.approx(ref, rel=1e-13, abs=0.0)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    @pytest.mark.parametrize("r, s2", [(0.5, 1.0), (1.0, 1.0), (2.0, 0.5), (5.0, 1.0)])
    def test_section_probabilities_satisfy_identity(self, n, r, s2):
        # The identity's left side as written, over the section probabilities,
        # which equivalence_sides no longer integrates.
        lhs, _ = integrate.quad(lambda w: n * w ** (n - 1) * d_section_prob(n, r, w, s2),
                                0.0, 2.0 * r, epsabs=0.0, epsrel=1e-12)
        assert lhs == pytest.approx(self._closed_form(n, r, s2), rel=1e-12, abs=0.0)

    def test_both_sides_where_two_sigma2_overflows(self):
        # sigma2 = 1e308, r/sigma = 1e-4: at n = 2 the right side is
        # 2 sigma2 (1 - e^-x (1 + x)), x = r^2 / 2 sigma2, about 2.5e291.
        with mpmath.workdps(30):
            x = mpmath.mpf(1e150) ** 2 / (2 * mpmath.mpf(1e308))
            ref = float(2 * mpmath.mpf(1e308) * (1 - mpmath.exp(-x) * (1 + x)))
        lhs, rhs = (side.linear for side in equivalence_sides(2, 1e150, 1e308))
        assert lhs == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert rhs == pytest.approx(ref, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("n, r, s2", [
        (8, 1e-30, 1.0), (8, 1e39, 1e76), (2, 1e154, 1e306),
        (401, 10.0, 1.0), (500, 20.0, 0.5), (700, 30.0, 1.0), (975, 31.0, 1.0)])
    def test_sides_match_mpmath_log_oracle(self, n, r, s2):
        # Sides of order r^(2n) past double range: 1e-480 at n = 8, r = 1e-30,
        # and (2r)^n = 2.6e314 at n = 8, r = 1e39; then n from 401 to 975,
        # near 979, past which the quadrature floor admits no radius.
        ref = log_radial_moment_mpmath(n, r, s2)
        for side in equivalence_sides(n, r, s2):
            assert abs(side.log_value - ref) <= 1e-15 * max(1.0, abs(ref))
        assert equivalence_check(n, r, s2) <= 1e-12

    def test_discrepancy_takes_the_sides_as_logs(self):
        lhs, rhs = LogProb(math.log(3.0)), LogProb(math.log(2.0))
        assert equivalence_discrepancy(lhs, rhs) == pytest.approx(0.5, rel=1e-15)
        with pytest.raises(AttributeError):
            equivalence_discrepancy(3.0, 2.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            equivalence_check(2.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            equivalence_check(1, 1.0, 1.0)

    @pytest.mark.parametrize("n", [9, 50, 200])
    def test_both_sides_match_mpmath_past_eight_dimensions(self, n):
        # (2 s2)^(n/2) Gamma(n) / Gamma(n/2) P(n, r^2 / 2 s2) at r = s2 = 1.
        with mpmath.workdps(40):
            ref = float(mpmath.power(2, mpmath.mpf(n) / 2) * mpmath.gamma(n)
                        / mpmath.gamma(mpmath.mpf(n) / 2)
                        * mpmath.gammainc(n, 0, mpmath.mpf(1) / 2, regularized=True))
        lhs, rhs = (side.linear for side in equivalence_sides(n, 1.0, 1.0))
        assert lhs == pytest.approx(ref, rel=1e-12, abs=0.0)
        assert rhs == pytest.approx(ref, rel=1e-12, abs=0.0)

    def test_rejects_an_angle_integral_below_the_quadrature_floor(self):
        # At n = 250, r = sigma = 1 the right side is 3.8e-248, a normal
        # double, but over 2^250 it is 2.1e-323, where the rule's stopping
        # test, an absolute change below the smallest normal double, is no
        # longer relative: unchecked, the two sides differ by 0.18.  The floor
        # also rejects r = 1e-200 at n = 8, and every radius past n = 979.
        for n, r in [(250, 1.0), (8, 1e-200), (980, 31.0), (2**63 - 1, 1.0)]:
            with pytest.raises(ValueError, match="the angle integral"):
                equivalence_sides(n, r, 1.0)

    @pytest.mark.parametrize("r", [1e-200])
    def test_rejects_radius_whose_right_side_underflows(self, r):
        # The right side is of order r^(2n), 1e-3200 at n = 8: its log is
        # finite, but the angle integral is far below the quadrature floor.
        for fn in (equivalence_sides, equivalence_check):
            with pytest.raises(ValueError, match="the angle integral"):
                fn(8, r, 1.0)


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


def _exact_limit(n, nld, kind):
    # ln of a bound at sigma2 = 1 past double range, from mpmath.  At delta =
    # -800 r_eff/sigma passes the largest double, Q(n/2, inf) = 0 and P(n, inf)
    # = 1: the sphere bound is an exact zero and the ML bound its first term,
    # n delta + ln V_n + (n/2) ln 2 + ln Gamma(n) - ln Gamma(n/2).  At +800
    # every radius underflows to 0, P(n, 0) = 0 and Q(n/2, 0) = 1.
    if nld > 0.0:
        return 0.0
    if kind == "sphere":
        return -math.inf
    with mpmath.workdps(30):
        m = mpmath.mpf(n)
        log_vn = m / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(m / 2 + 1)
        return float(m * nld + log_vn + m / 2 * mpmath.log(2)
                     + mpmath.loggamma(m) - mpmath.loggamma(m / 2))


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
        # Past double range, where these raised exc until the radius saturated,
        # both paths return the bound's exact limit.
        (800.0, "poltyrev", ValueError),    # the radius underflows to 0
        (-800.0, "sphere", OverflowError),  # r_eff overflows
        (-800.0, "ml", OverflowError),
        (-800.0, "poltyrev", OverflowError),
    ])
    def test_rejects_what_the_scalar_bound_rejects(self, nld, kind, exc):
        try:
            ref = _SCALAR_BOUNDS[kind](ChannelPoint(4, nld, 1.0)).log_raw
        except exc:
            assert kind == "typicality"
            with pytest.raises(exc):
                bound_curves([4], nld, 1.0, [kind])
        else:
            assert ref == pytest.approx(_exact_limit(4, nld, kind), rel=1e-14)
            assert bound_curves([4], nld, 1.0, [kind])[kind].log_value[0] == ref

    @pytest.mark.parametrize("kind", ["ml", "poltyrev"])
    def test_zero_lower_tail_is_a_zero_first_term(self, kind):
        # So far above capacity that n delta overflows, the radius is 0 and
        # P(n, 0) = 0: the first term is an exact zero, not inf - inf, and the
        # bound is its tail Q(n/2, 0) = 1, as the scalar bound has it.
        nld = 2.8534811664481203e306
        ref = _SCALAR_BOUNDS[kind](ChannelPoint(63, nld, 1.0)).log_raw
        assert bound_curves([63], nld, 1.0, [kind])[kind].log_value[0] == ref == 0.0

    @pytest.mark.parametrize("kind", ["ml", "poltyrev"])
    @pytest.mark.parametrize("n, nld", [(2, -1.7e308), (4681, -8.938803994605981e307)])
    def test_density_underflow_is_a_zero_first_term(self, kind, n, nld):
        # So far below capacity that n delta is -inf, the density and the
        # radius's noise tail are exact zeros, and so is the bound, on both
        # paths (the scalar bound raised "non-finite log value -inf").
        bv = _SCALAR_BOUNDS[kind](ChannelPoint(n, nld, 1.0))
        assert bv.log_value == LogProb.zero() and bv.value == 0.0 and not bv.clamped
        assert bound_curves([n], nld, 1.0, [kind])[kind].log_value[0] == -math.inf

    @pytest.mark.parametrize("n, nld", [(1, -8.99e307), (63, -2.85e306)])
    def test_typicality_past_double_range_is_its_volume_term(self, n, nld):
        # n (1 + 2 D) overflows, so the default radius is inf and n ln s is
        # (n/2)(ln n + ln(1 + 2 D)), with ln(1 + 2 D) = ln 2 + ln D to double
        # precision; the noise tail is an exact zero.
        d = delta_star(1.0) - nld
        want = n * nld + log_vn(n) + 0.5 * n * (math.log(n) + math.log(2.0) + math.log(d))
        ref = typicality_bound(ChannelPoint(n, nld, 1.0)).log_raw
        assert ref == pytest.approx(want, rel=1e-15)
        assert bound_curves([n], nld, 1.0, ["typicality"])["typicality"].log_value[0] == ref

    @pytest.mark.parametrize("evaluate", [
        pytest.param(lambda: poltyrev_ml_bound(ChannelPoint(4, 800.0, 1.0)).log_raw, id="scalar"),
        pytest.param(lambda: bound_curves([4], 800.0, 1.0, ["poltyrev"])["poltyrev"].log_value[0],
                     id="curves")])
    def test_poltyrev_radius_underflow_is_named(self, evaluate):
        # poltyrev_radius names the radius that underflows, 0.0; there P(n, 0) = 0
        # and Q(n/2, 0) = 1, so the bound is exactly 1, as sphere and ML are.
        assert poltyrev_radius(ChannelPoint(4, 800.0, 1.0)) == 0.0
        assert evaluate() == 0.0

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

    @pytest.mark.parametrize("sigma2", [1.0, 0.25])
    def test_array_nld_matches_one_call_per_element(self, sigma2):
        ns = list(range(1, 301)) + [10_000, 1_000_000]
        nlds = np.random.default_rng(7).uniform(-3.0, -1.0, len(ns)) - 0.5 * math.log(sigma2)
        curves = bound_curves(ns, nlds, sigma2)
        for i, (n, nld) in enumerate(zip(ns, nlds.tolist())):
            one = bound_curves([n], nld, sigma2)
            for kind in CURVE_KINDS:
                assert curves[kind].log_value[i] == one[kind].log_value[0], (kind, n, nld)
                assert curves[kind].clamped[i] == one[kind].clamped[0], (kind, n, nld)

    @pytest.mark.parametrize("bad_nld, kind, exc, message", [
        (math.nan, "sphere", ValueError, "NLD must be finite, got nan at n = 3"),
        (0.3, "typicality", ValueError, "1 + 2(delta* - delta) = -2.4378770664093454 <= 0 at n = 3"),
        # These raised exc with this message until the radius saturated; the
        # element now takes the bound's exact limit.
        (800.0, "poltyrev", ValueError, "underflows at delta = 800.0 at n = 3"),
        (-800.0, "ml", OverflowError, "math range error"),
    ])
    def test_array_nld_rejects_one_bad_element_by_name(self, bad_nld, kind, exc, message):
        nlds = [-1.5, -1.6, bad_nld, -1.7]
        if abs(bad_nld) == 800.0:
            got = bound_curves([1, 2, 3, 4], nlds, 1.0, [kind])[kind].log_value
            assert got[2] == pytest.approx(_exact_limit(3, bad_nld, kind), rel=1e-14)
            assert got.tolist() == [bound_curves([n], nld, 1.0, [kind])[kind].log_value[0]
                                    for n, nld in zip([1, 2, 3, 4], nlds)]
            assert bound_curves([3], [-1.5, bad_nld], 1.0, [kind])[kind].log_value[1] == got[2]
            return
        with pytest.raises(exc, match=re.escape(message)):
            bound_curves([1, 2, 3, 4], nlds, 1.0, [kind])
        # One n broadcast against several NLDs.
        with pytest.raises(exc, match=re.escape(message)):
            bound_curves([3], [-1.5, bad_nld], 1.0, [kind])
        with pytest.raises(exc):
            bound_curves([3], bad_nld, 1.0, [kind])

    def test_array_nld_must_broadcast_against_n(self):
        with pytest.raises(ValueError):
            bound_curves([1, 2, 3], [-1.5, -1.6], 1.0)

    def test_round_evaluator_is_bound_curves_ml(self):
        # The lockstep inversion evaluates the ML bound through
        # _sphere_ml_curves on the n-only terms of the unfinished n; every bit
        # equals bound_curves' "ml", also on a subset and past double range.
        rng = np.random.default_rng(19)
        ns = np.arange(1, 3001)
        nlds = rng.uniform(-3.0, 0.5, ns.size)
        nlds[::97], nlds[50::97] = 800.0, -800.0
        ref = bound_curves(ns, nlds, 1.0, ["ml"])["ml"].log_value
        terms = bounds._dim_terms(bounds._check_dims(ns))
        live = np.sort(rng.choice(ns.size, 700, replace=False))
        for i in (np.arange(ns.size), live, live[:1]):
            _, got = bounds._sphere_ml_curves(terms.take(i), nlds[i])
            assert got.tobytes() == ref[i].tobytes()


class TestUnitsOfSigma:
    """Every entry point at sigma2 equals its sigma2 = 1 value at the shifted NLD
    delta + ln(sigma2)/2, with radii scaled by sigma, from the smallest subnormal
    sigma2 to the largest double."""

    DIMS = (1, 2, 8, 100, 1000)
    # NLDs in units of sigma: above capacity, between the critical NLD and
    # capacity, below it, and the point of `bounds --n 2 --nld -709 --sigma2
    # 1e308`, where sigma2 n (1 + 2(delta* - delta)) overflowed.  The radii
    # of norm_tail_normal_approx include (4, 2e154) at sigma2 = 1e308, where
    # r^2 - n sigma2 was inf - inf.
    UNIT_NLDS = (-1.3, -1.5, -2.0, -709.0 + 0.5 * math.log(1e308))

    @pytest.mark.parametrize("s2", [5e-324, 1e-300, 1e300, 1e308, sys.float_info.max])
    def test_matches_unit_variance(self, s2):
        h, sigma = 0.5 * math.log(s2), math.sqrt(s2)
        for d in self.UNIT_NLDS:
            nld = d - h
            for n in self.DIMS:
                point, unit = ChannelPoint(n, nld, s2), ChannelPoint(n, nld + h, 1.0)
                for fn in _SCALAR_BOUNDS.values():
                    got, ref = fn(point), fn(unit)
                    where = (fn.__name__, n, d)
                    assert got.log_raw == pytest.approx(ref.log_raw, rel=1e-9), where
                    assert got.radius_used == pytest.approx(sigma * ref.radius_used, rel=1e-9), where
                assert lattice_snr_rho(point) == pytest.approx(lattice_snr_rho(unit), rel=1e-9)
            got = bound_curves(self.DIMS, nld, s2)
            ref = bound_curves(self.DIMS, nld + h, 1.0)
            for kind in CURVE_KINDS:
                np.testing.assert_allclose(got[kind].log_value, ref[kind].log_value, rtol=1e-9,
                                           err_msg=f"{kind} at d = {d}")
        for v in (0.5, 2.0, 6.0):
            assert sphere_bound_by_volume(1, v * sigma, s2) == pytest.approx(
                sphere_bound_by_volume(1, v, 1.0), rel=1e-9)
        for n in (1, 4, 100):
            for s in (0.5, 2.0, 3.0, 12.0):
                assert norm_tail_normal_approx(n, s * sigma, s2) == pytest.approx(
                    norm_tail_normal_approx(n, s, 1.0), rel=1e-9), (n, s)


def test_no_private_helper_takes_the_noise_variance():
    # The private helpers work in units of sigma; only validators see sigma2.
    takes = sorted({name for module in (bounds, asymptotics)
                    for name, fn in vars(module).items()
                    if name.startswith("_") and inspect.isfunction(fn)
                    and "sigma2" in inspect.signature(fn).parameters})
    assert takes == ["_check_section_radius", "_check_sigma2"]
