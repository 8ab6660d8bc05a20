import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate, special

from icawgn.asymptotics import (
    AsymptoticSingularity,
    asym_curves,
    exponent_r,
    exponent_sp,
    exponent_t,
    head_integral_bounds,
    laplace_head_integral,
    ml_asymptotic,
    ml_asymptotic_branch,
    ml_sandwich,
    poltyrev_r_asymptotic,
    sphere_asymptotic,
    sphere_sandwich,
    tail_integral_bounds,
    terms,
    typicality_asymptotic,
    ub_lb_ratio_limit,
)
from icawgn.bounds import (
    ChannelPoint,
    bound_curves,
    delta_cr,
    delta_star,
    ml_bound,
    poltyrev_ml_bound,
    sphere_bound,
    typicality_bound,
)
from icawgn.specfn import LogProb

from helpers import log_ml_bound_mpmath

DS = delta_star(1.0)
DCR = delta_cr(1.0)


class TestExponents:
    def test_sp_zero_at_capacity(self):
        assert exponent_sp(DS, 1.0) == 0.0
        assert exponent_sp(DS + 0.3, 1.0) == 0.0

    def test_sp_inf_past_double_range(self):
        # e^(2 D) overflows from D = ln(DBL_MAX)/2 = 354.89 on; the exponent
        # below that, at D = 354, is still finite.
        assert exponent_sp(-400.0, 1.0) == math.inf
        assert math.isfinite(exponent_sp(DS - 354.0, 1.0))

    def test_sp_at_critical(self):
        assert exponent_sp(DCR, 1.0) == pytest.approx(0.5 * (1.0 - math.log(2.0)), rel=1e-14)

    def test_sp_at_minus_1_5(self):
        # direct evaluation of (1/2)[e^{2D} - 1 - 2D] at D = 0.0810614668
        d = DS + 1.5
        expected = 0.5 * (math.expm1(2 * d) - 2 * d)
        assert exponent_sp(-1.5, 1.0) == expected
        assert expected == pytest.approx(0.006940934668737, abs=1e-12)

    def test_r_continuous_at_critical(self):
        assert exponent_r(DCR, 1.0) == pytest.approx(exponent_sp(DCR, 1.0), rel=1e-14)
        assert exponent_r(DCR, 1.0) == pytest.approx(0.1534264097, abs=1e-9)

    def test_r_slope_below_critical_is_minus_one(self):
        lhs = (exponent_r(DCR - 0.2, 1.0) - exponent_r(DCR, 1.0)) / (-0.2)
        assert lhs == pytest.approx(-1.0, rel=1e-12)

    def test_r_zero_at_capacity(self):
        assert exponent_r(DS, 1.0) == 0.0

    def test_t_zero_at_capacity(self):
        assert exponent_t(DS, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_t_at_half_nat(self):
        assert exponent_t(DS - 0.5, 1.0) == pytest.approx(0.5 - 0.5 * math.log(2.0), rel=1e-13)

    def test_t_below_r_on_grid(self):
        for d in np.linspace(DS - 1.0, DS - 1e-6, 120):
            assert exponent_t(float(d), 1.0) <= exponent_r(float(d), 1.0) + 1e-15

    def test_exponent_ordering_and_equality_region(self):
        # E_sp >= E_r >= E_t, with E_sp == E_r exactly on [delta_cr, delta*).
        for d in np.linspace(DS - 2.5, DS - 1e-9, 200):
            d = float(d)
            esp, er, et = exponent_sp(d, 1.0), exponent_r(d, 1.0), exponent_t(d, 1.0)
            assert esp >= er >= et - 1e-15
            if d >= DCR:
                assert esp == er

    def test_r_smooth_at_critical(self):
        # both one-sided slopes are -1 at delta_cr up to O(h) curvature
        h = 1e-4
        sym = (exponent_r(DCR - h, 1.0) - exponent_r(DCR + h, 1.0)) / (2 * h)
        assert sym == pytest.approx(1.0, abs=5e-4)

    def test_sp_curvature_at_capacity(self):
        # backward-shifted central difference keeps all points in-domain;
        # the true second derivative at capacity is 2.
        h = 1e-4
        est = (exponent_sp(DS, 1.0) - 2 * exponent_sp(DS - h, 1.0)
               + exponent_sp(DS - 2 * h, 1.0)) / h ** 2
        assert est == pytest.approx(2.0, abs=1e-3)

    def test_t_domain(self):
        with pytest.raises(ValueError):
            exponent_t(DS + 0.5, 1.0)


class TestTerms:
    def test_rho_tracks_mu_with_stirling_factor(self):
        t = terms(ChannelPoint(100, -1.5, 1.0))
        target = t.mu * (100 * math.pi) ** (1.0 / 100.0)
        assert abs(t.rho_star / target - 1.0) <= 1e-4

    def test_mu_is_two_at_critical(self):
        assert terms(ChannelPoint(64, DCR, 1.0)).mu == pytest.approx(2.0, rel=1e-14)

    def test_upsilon_normalization_converges(self):
        # Upsilon/sqrt(n) -> (mu-1)/sqrt(2); the relative deviation at
        # n=1000 is 6.65e-2 (dominated by the ln(n pi)/n term of rho*) and
        # keeps shrinking.
        def dev(n):
            t = terms(ChannelPoint(n, -1.5, 1.0))
            return abs(t.upsilon / math.sqrt(n) / ((t.mu - 1.0) / math.sqrt(2.0)) - 1.0)

        assert dev(1000) == pytest.approx(0.0664538, abs=1e-5)
        assert dev(100000) < dev(10000) < dev(1000) < 0.08

    def test_dimension_guard(self):
        terms(ChannelPoint(3, -1.5, 1.0))
        with pytest.raises(ValueError):
            terms(ChannelPoint(2, -1.5, 1.0))


class TestSphereSandwich:
    @pytest.mark.parametrize("n", [4, 8, 16, 64, 256, 1024])
    def test_containment(self, n):
        p = ChannelPoint(n, -1.5, 1.0)
        sw = sphere_sandwich(p)
        exact = sphere_bound(p).log_raw
        assert sw.lower_analytic.log_value <= sw.lower_q.log_value <= exact <= sw.upper.log_value

    def test_upper_to_lower_ratio_moderate(self):
        sw = sphere_sandwich(ChannelPoint(100, -1.5, 1.0))
        assert math.exp(sw.upper.log_value - sw.lower_analytic.log_value) <= 2.0

    @pytest.mark.parametrize("delta", [-354.0, -354.3])
    def test_finite_where_n_times_rho_star_overflows(self, delta):
        # At n = 100, n (rho* - 1 + 2/n) passes double range, though Upsilon
        # (about 1.3e307) does not: the three forms are finite and are the
        # array path's, each e^C times a factor whose log is negligible here.
        p = ChannelPoint(100, delta, 1.0)
        sw = sphere_sandwich(p)
        got = [sw.lower_q.log_value, sw.lower_analytic.log_value, sw.upper.log_value]
        curves = asym_curves([100], delta, 1.0)
        assert got == [curves[k][0] for k in ("sphere_lower_q", "sphere_lower", "sphere_upper")]
        rho = terms(p).rho_star
        common = 100 * (DS - delta) + 50.0 - 50.0 * rho
        assert all(abs(v - common) <= 1e-15 * abs(common) for v in got), (got, common)

    def test_overflow_rearrangement_keeps_finite_products(self):
        # Just inside the range where n (rho* - 1 + 2/n) is finite, Upsilon is
        # the plain product's, bit for bit; one step deeper the plain product
        # overflows, and Upsilon and Psi are finite.
        t = terms(ChannelPoint(100, -353.9, 1.0))
        assert t.upsilon == 100 * (t.rho_star - 1.0 + 0.02) / math.sqrt(196.0)
        t = terms(ChannelPoint(100, -355.2, 1.0))
        assert 100 * (t.rho_star - 1.0 + 0.02) == math.inf
        with mpmath.workdps(40):
            rho = mpmath.mpf(t.rho_star)
            upsilon = float(100 * (rho - 1 + mpmath.mpf(2) / 100) / mpmath.sqrt(196))
            psi = float(10 * (2 - rho + mpmath.mpf(2) / 100) / (2 * mpmath.sqrt(rho)))
        assert abs(t.upsilon - upsilon) <= 4e-16 * upsilon
        assert abs(t.psi - psi) <= 4e-16 * abs(psi)

    def test_dimension_guards(self):
        sphere_sandwich(ChannelPoint(3, -1.5, 1.0))
        with pytest.raises(ValueError):
            sphere_sandwich(ChannelPoint(2, -1.5, 1.0))
        with pytest.raises(ValueError):
            sphere_sandwich(ChannelPoint(16, DS + 0.1, 1.0))


@pytest.mark.parametrize("form", [sphere_sandwich, sphere_asymptotic], ids=lambda f: f.__name__)
@pytest.mark.parametrize("n", [4, 100])
def test_a_log_of_minus_inf_is_an_error_of_the_scalar_form(form, n):
    # At delta = -800 r_eff passes double range and these forms' logs are -inf,
    # NaN in asym_curves: the scalar form raises, though LogProb(-inf) is valid.
    assert all(np.isnan(v).all() for k, v in asym_curves([n], -800.0, 1.0).items()
               if k.startswith("sphere_"))
    with pytest.raises(ValueError, match="non-finite log value -inf"):
        form(ChannelPoint(n, -800.0, 1.0))


@pytest.mark.parametrize("call", [
    lambda delta: exponent_t(delta, 1.0),
    lambda delta: typicality_bound(ChannelPoint(4, delta, 1.0)),
    lambda delta: bound_curves([4], delta, 1.0, ["typicality"]),
], ids=["exponent_t", "typicality_bound", "bound_curves"])
def test_typicality_is_undefined_past_half_a_nat_above_capacity(call):
    # One rule for the default radius sqrt(n (1 + 2 (delta* - delta))) and the exponent.
    call(DS + 0.4999)
    with pytest.raises(ValueError, match=r"1 \+ 2\(delta\* - delta\) = -1\.0 <= 0"):
        call(DS + 1.0)


class TestSphereAsymptotic:
    def test_ratio_convergence(self):
        # exact / asymptotic at delta = -1.5: 0.8762 at n=1000, 0.5035 at
        # n=100 (the relative error of the asymptotic form is
        # O(log^2 n / n) with a constant near 2).
        def ratio(n):
            p = ChannelPoint(n, -1.5, 1.0)
            return math.exp(sphere_bound(p).log_raw - sphere_asymptotic(p).log_value)

        r1000, r100 = ratio(1000), ratio(100)
        assert r1000 == pytest.approx(0.8761607339, abs=1e-7)
        assert r100 == pytest.approx(0.5035400580, abs=1e-7)
        assert abs(r1000 - 1.0) < abs(r100 - 1.0)

    def test_exponent_dominance(self):
        p = ChannelPoint(500, -1.5, 1.0)
        slope = -sphere_asymptotic(p).log_value / 500
        assert abs(slope - exponent_sp(-1.5, 1.0)) <= 0.01

    def test_singularity_flag(self):
        with pytest.raises(AsymptoticSingularity):
            sphere_asymptotic(ChannelPoint(100, math.nextafter(DS, -math.inf), 1.0))
        with pytest.raises(ValueError):
            sphere_asymptotic(ChannelPoint(100, DS, 1.0))


class TestMlSandwich:
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256, 512])
    def test_containment_inside_window(self, n):
        p = ChannelPoint(n, -1.5, 1.0)
        sw = ml_sandwich(p)
        exact = ml_bound(p).log_raw
        assert sw.lower_analytic.log_value <= sw.lower_q.log_value <= exact <= sw.upper.log_value

    def test_window_rejection_small_n(self):
        # at n=8 and delta=-1.5 rho* = 1.769 exceeds 2 - 2/n = 1.75
        with pytest.raises(ValueError, match="window"):
            ml_sandwich(ChannelPoint(8, -1.5, 1.0))

    def test_window_rejection_below_critical(self):
        t = terms(ChannelPoint(100, -2.0, 1.0))
        assert t.rho_star > 2.0 - 2.0 / 100
        with pytest.raises(ValueError, match="window"):
            ml_sandwich(ChannelPoint(100, -2.0, 1.0))

    def test_rejection_at_capacity(self):
        with pytest.raises(ValueError):
            ml_sandwich(ChannelPoint(100, DS, 1.0))


class TestMlAsymptotic:
    def test_above_critical_ratio(self):
        p = ChannelPoint(1000, -1.5, 1.0)
        ratio = math.exp(ml_bound(p).log_raw - ml_asymptotic(p).log_value)
        assert ratio == pytest.approx(0.8959897502, abs=1e-7)

    def test_below_critical_ratio(self):
        p = ChannelPoint(1000, -1.8, 1.0)
        ratio = math.exp(ml_bound(p).log_raw - ml_asymptotic(p).log_value)
        assert 0.9 <= ratio <= 1.1

    def test_at_critical_ratio(self):
        p = ChannelPoint(1000, DCR, 1.0)
        ratio = math.exp(ml_bound(p).log_raw - ml_asymptotic(p).log_value)
        assert abs(ratio - 1.0) <= 0.15

    def test_branch_selection(self):
        assert ml_asymptotic_branch(ChannelPoint(10, DCR, 1.0)) == "critical"
        assert ml_asymptotic_branch(ChannelPoint(10, DCR + 5e-10, 1.0)) == "critical"
        assert ml_asymptotic_branch(ChannelPoint(10, DCR + 1e-6, 1.0)) == "above"
        assert ml_asymptotic_branch(ChannelPoint(10, DCR - 1e-6, 1.0)) == "below"

    def test_singularity_near_capacity(self):
        with pytest.raises(AsymptoticSingularity):
            ml_asymptotic(ChannelPoint(100, math.nextafter(DS, -math.inf), 1.0))


class TestTypicalityAsymptotic:
    def test_ratio_convergence(self):
        def ratio(n):
            p = ChannelPoint(n, -1.5, 1.0)
            return math.exp(typicality_bound(p).log_raw - typicality_asymptotic(p).log_value)

        assert ratio(1000) == pytest.approx(0.9377158522, abs=1e-7)
        assert abs(ratio(1000) - 1.0) < abs(ratio(100) - 1.0)

    def test_exponent_check(self):
        p = ChannelPoint(500, -1.5, 1.0)
        slope = -typicality_asymptotic(p).log_value / 500
        assert abs(slope - exponent_t(-1.5, 1.0)) <= 0.01

    def test_prefactor_at_half_nat(self):
        # at delta = delta* - 1/2 the prefactor is 2/sqrt(n pi)
        n = 400
        p = ChannelPoint(n, DS - 0.5, 1.0)
        lg = typicality_asymptotic(p).log_value
        expected = -n * exponent_t(DS - 0.5, 1.0) + math.log(2.0 / math.sqrt(n * math.pi))
        assert lg == pytest.approx(expected, rel=1e-12)

    def test_singularity_near_capacity(self):
        # One ulp below capacity the prefactor (1 + 2 D) / (2 D) has D = 2.2e-16.
        with pytest.raises(AsymptoticSingularity, match="typicality prefactor"):
            typicality_asymptotic(ChannelPoint(100, math.nextafter(DS, -math.inf), 1.0))
        with pytest.raises(ValueError, match="asymptotic form requires delta < delta"):
            typicality_asymptotic(ChannelPoint(100, DS, 1.0))


class TestPoltyrevAsymptotic:
    def test_ratio_above_critical(self):
        p = ChannelPoint(1000, -1.5, 1.0)
        ratio = math.exp(poltyrev_ml_bound(p).log_raw - poltyrev_r_asymptotic(p).log_value)
        assert 0.9 <= ratio <= 1.1

    def test_below_critical_equals_ml_form(self):
        p = ChannelPoint(700, -2.1, 1.0)
        assert poltyrev_r_asymptotic(p).log_value == ml_asymptotic(p).log_value

    def test_below_critical_ratio_to_exact(self):
        # the suboptimal radius costs nothing asymptotically below critical
        p = ChannelPoint(1000, -2.0, 1.0)
        ratio = math.exp(poltyrev_ml_bound(p).log_raw - poltyrev_r_asymptotic(p).log_value)
        assert 0.9 <= ratio <= 1.1

    def test_suboptimal_radius_penalty_grows(self):
        def penalty(n):
            p = ChannelPoint(n, -1.5, 1.0)
            return poltyrev_r_asymptotic(p).log_value - ml_asymptotic(p).log_value

        assert penalty(1000) > penalty(100) > 0.0

    def test_at_critical_form(self):
        n = 1000
        p = ChannelPoint(n, DCR, 1.0)
        lg = poltyrev_r_asymptotic(p).log_value
        expected = (-n * exponent_r(DCR, 1.0) - 0.5 * math.log(math.pi * n)
                    + math.log(1.0 + 1.0 / math.sqrt(8.0)))
        assert lg == pytest.approx(expected, rel=1e-12)


class TestSandwichAsymptoticConsistency:
    def test_all_members_converge_to_asymptotic_form(self):
        # Every sandwich member shares the asymptotic limit, so a wrong
        # constant in any closed form would show up as a ratio stuck away
        # from 1.
        def ratios(n):
            p = ChannelPoint(n, -1.5, 1.0)
            sa = sphere_asymptotic(p).log_value
            ma = ml_asymptotic(p).log_value
            sw, mw = sphere_sandwich(p), ml_sandwich(p)
            return [math.exp(v - sa) for v in (sw.upper.log_value, sw.lower_q.log_value,
                                               sw.lower_analytic.log_value)] + \
                   [math.exp(v - ma) for v in (mw.upper.log_value, mw.lower_q.log_value,
                                               mw.lower_analytic.log_value)]

        r5, r6 = ratios(10 ** 5), ratios(10 ** 6)
        assert all(abs(r - 1.0) <= 5e-3 for r in r5), r5
        assert all(abs(b - 1.0) < abs(a - 1.0) for a, b in zip(r5, r6))


class TestAsymCurves:
    @staticmethod
    def _scalar_cells(n, delta, s2):
        # The kernel's keys from the scalar functions; None where they raise.
        p = ChannelPoint(n, delta, s2)
        cells = {}
        for kind, fn in (("sphere", sphere_sandwich), ("ml", ml_sandwich)):
            try:
                sw = fn(p)
                values = (sw.lower_q, sw.lower_analytic, sw.upper)
            except ValueError:   # AsymptoticSingularity included
                values = (None, None, None)
            for key, v in zip(("lower_q", "lower", "upper"), values):
                cells[f"{kind}_{key}"] = v
        for kind, fn in (("sphere", sphere_asymptotic), ("ml", ml_asymptotic),
                         ("typicality", typicality_asymptotic)):
            try:
                cells[f"{kind}_asym"] = fn(p)
            except ValueError:
                cells[f"{kind}_asym"] = None
        return {k: None if v is None else v.log_value for k, v in cells.items()}

    @pytest.mark.parametrize("s2", [1.0, 0.25])
    def test_nan_exactly_where_scalar_raises(self, s2):
        # At -353, r_eff^2 overflows from n ~ 1000 on, and -n E_sp at n = 1e5.
        ds, dcr = delta_star(s2), delta_cr(s2)
        deltas = [-353.0, -3.5, -2.0, dcr - 1e-6, dcr, dcr + 5e-10, dcr + 1e-6, -1.5,
                  ds - 1e-16, ds, ds + 0.1]
        ns = [1, 2, 3, 4, 10, 1000, 10 ** 5]
        seen = {"nan": 0, "finite": 0}
        for delta in deltas:
            curves = asym_curves(ns, delta, s2)
            for i, n in enumerate(ns):
                scalar = self._scalar_cells(n, delta, s2)
                assert scalar.keys() == curves.keys()
                for key, ref in scalar.items():
                    got = curves[key][i]
                    where = (key, n, delta)
                    if ref is None:
                        assert math.isnan(got), where
                        seen["nan"] += 1
                    else:
                        assert abs(got - ref) <= 1e-13 * abs(ref), where
                        seen["finite"] += 1
        assert min(seen.values()) > 100, seen

    @pytest.mark.parametrize("s2", [5e-324, 1e-300, 1e300, 1e307, 1e308, sys.float_info.max])
    def test_scale_invariance_near_largest_double(self, s2):
        # Every form depends on (delta, sigma2) only through delta + ln(sigma2)/2,
        # although r_eff^2 is past double range here: above capacity, between
        # the critical NLD and capacity, and below the critical NLD.
        ns = np.arange(1, 1001)
        for delta in (-1.3, -1.5, -2.0):
            got = asym_curves(ns, delta - 0.5 * math.log(s2), s2)
            ref = asym_curves(ns, delta, 1.0)
            for key in ref:
                assert np.array_equal(np.isnan(got[key]), np.isnan(ref[key])), (key, delta)
                np.testing.assert_allclose(got[key], ref[key], rtol=1e-9, err_msg=key)

    @staticmethod
    def _exact_logs(n, delta, s2):
        # ln of the sphere and ML bounds at r_eff from scipy alone; NaN where
        # an incomplete gamma is below 1e-300 and loses its relative accuracy.
        a = 0.5 * n
        log_vn = a * math.log(math.pi) - special.gammaln(a + 1.0)
        x = np.exp(2.0 * (-delta - log_vn / n)) / (2.0 * s2)
        q, p = special.gammaincc(a, x), special.gammainc(n, x)
        ml_scale = (n * delta + log_vn + a * math.log(s2) + a * math.log(2.0)
                    + special.gammaln(n) - special.gammaln(a))
        with np.errstate(divide="ignore"):
            sphere = np.log(q)
            ml = np.logaddexp(ml_scale + np.log(p), sphere)
        sphere[q < 1e-300] = math.nan
        ml[(q < 1e-300) | (p < 1e-300)] = math.nan
        return sphere, ml

    @pytest.mark.parametrize("s2", [1.0, 0.25])
    def test_sandwich_containment(self, s2):
        # lower_q, lower <= exact <= upper wherever the kernel and the scipy
        # oracle are finite, with a slack of 4 ulp of the log: deeper in the
        # tail than this oracle reaches, at n >= 1e4, the sphere lower forms
        # tie the exact value to 1-2 ulp of logs in the hundreds of thousands.
        ns = np.unique(np.geomspace(3, 1e5, 80).astype(int))
        checked = 0
        for delta in np.linspace(-3.5, -1.42, 27):
            curves = asym_curves(ns, float(delta), s2)
            exact = dict(zip(("sphere", "ml"), self._exact_logs(ns.astype(float), delta, s2)))
            for kind, ex in exact.items():
                for key in ("lower_q", "lower"):
                    lo = curves[f"{kind}_{key}"]
                    ok = np.isnan(lo) | np.isnan(ex) | (lo <= ex + 4 * np.spacing(np.abs(ex)))
                    assert ok.all(), (kind, key, delta, ns[~ok])
                up = curves[f"{kind}_upper"]
                ok = np.isnan(up) | np.isnan(ex) | (ex <= up + 4 * np.spacing(np.abs(ex)))
                assert ok.all(), (kind, "upper", delta, ns[~ok])
                checked += np.count_nonzero(~np.isnan(up) & ~np.isnan(ex))
        assert checked > 400

    @pytest.mark.parametrize("n", [10**4, 10**5])
    def test_sandwich_containment_in_the_deep_tail(self, n):
        # The containment above, where the scipy oracle is NaN or nearly so,
        # against 60-digit mpmath at r_eff as the library rounds it, with the
        # same slack: at n = 1e4 and delta = -3.5 the sphere Q-form sits one
        # ulp above the exact log.  The ML sandwich is NaN outside its window.
        log_vn = 0.5 * n * math.log(math.pi) - math.lgamma(0.5 * n + 1.0)
        checked = 0
        for delta in (-1.45, -1.6, -1.75, -2.5, -3.5):
            curves = asym_curves([n], delta, 1.0)
            s = math.exp(-delta - log_vn / n)
            with mpmath.workdps(60):
                q = mpmath.gammainc(mpmath.mpf(n) / 2, mpmath.mpf(s) ** 2 / 2, mpmath.inf,
                                    regularized=True)
            rho = terms(ChannelPoint(n, delta, 1.0)).rho_star
            inside = 1.0 - 2.0 / n < rho < 2.0 - 2.0 / n
            for kind, ex in (("sphere", float(mpmath.log(q))),
                             ("ml", log_ml_bound_mpmath(n, delta, s) if inside else None)):
                lower_q, lower, upper = (curves[f"{kind}_{k}"][0] for k in ("lower_q", "lower", "upper"))
                if ex is None:
                    assert math.isnan(lower_q) and math.isnan(lower) and math.isnan(upper), delta
                    continue
                slack = 4 * np.spacing(abs(ex))
                assert max(lower_q, lower) <= ex + slack and ex <= upper + slack, (kind, delta)
                checked += 1
        assert checked == 8

    @pytest.mark.parametrize("args", [([0, 3], -1.5, 1.0), ([3.0], -1.5, 1.0),
                                      ([3], math.nan, 1.0), ([3], -1.5, 0.0),
                                      ([3], -1.5, math.inf),
                                      ([3, 4], np.array([-1.5, -1.6]), 1.0),
                                      ([3, 4], np.array([[-1.5], [-1.6]]), 1.0),
                                      ([3], [-1.5], 1.0), ([3], np.array([-1.5]), 1.0)])
    def test_rejections_match_bound_curves(self, args):
        with pytest.raises(ValueError) as ref:
            bound_curves(*args)
        with pytest.raises(ValueError) as got:
            asym_curves(*args)
        assert str(got.value) == str(ref.value)

    @pytest.mark.parametrize("n", [[2**63], [4, 2**70]])
    def test_rejects_n_past_int64_naming_the_limit(self, n):
        with pytest.raises(ValueError, match="9223372036854775807"):
            asym_curves(n, -1.5, 1.0)

    def test_overflow_far_below_capacity_is_raised(self):
        # e^(2(delta*-delta)) and r_eff^2 pass double range and saturate to inf:
        # E_sp = inf, so the sphere forms' logs are -inf, which the scalar form
        # raises as a ValueError and asym_curves reports as NaN.  The ML form
        # below critical, -n E_r - ln(2 pi n)/2, stays finite.
        with pytest.raises(ValueError):
            sphere_asymptotic(ChannelPoint(5, -400.0, 1.0))
        curves = asym_curves([5], -400.0, 1.0)
        for key in ("sphere_lower_q", "sphere_lower", "sphere_upper", "sphere_asym"):
            assert math.isnan(curves[key][0]), key
        er = (DS + 400.0) + 0.5 * math.log(math.e / 4.0)
        assert curves["ml_asym"][0] == pytest.approx(-5.0 * er - 0.5 * math.log(10.0 * math.pi),
                                                     rel=1e-14)


class TestUbLbRatio:
    def test_limit_near_capacity(self):
        assert ub_lb_ratio_limit(DS - 1e-6, 1.0) == pytest.approx(1.0, abs=1e-5)

    def test_value(self):
        assert ub_lb_ratio_limit(-1.5, 1.0) == pytest.approx(1.2135993068, abs=1e-9)

    def test_empirical_match(self):
        p = ChannelPoint(2000, -1.5, 1.0)
        ratio = math.exp(ml_bound(p).log_raw - sphere_bound(p).log_raw)
        assert abs(ratio / ub_lb_ratio_limit(-1.5, 1.0) - 1.0) <= 0.05

    def test_domain(self):
        with pytest.raises(ValueError):
            ub_lb_ratio_limit(DCR, 1.0)
        with pytest.raises(ValueError):
            ub_lb_ratio_limit(DS, 1.0)


class TestTailIntegralBounds:
    def test_sandwich_vs_quadrature(self):
        n, x = 10, 1.5
        ref, err = integrate.quad(lambda s: s ** (n / 2 - 1) * math.exp(-n * s / 2),
                                  x, np.inf, epsabs=1e-15, epsrel=1e-12)
        assert err < 1e-12 * ref
        tb = tail_integral_bounds(n, x)
        assert tb.lower_analytic.linear <= ref <= tb.upper.linear
        assert tb.lower_q.linear <= ref

    @pytest.mark.parametrize("n", [5, 10, 50, 200, 1000, 5000])
    @pytest.mark.parametrize("nld", [-1.45, -1.5, -1.6, -1.7])
    def test_sphere_sandwich_is_the_lemma_at_rho_star(self, n, nld):
        # Q(n/2, n x/2) is (n/2)^(n/2) / Gamma(n/2) times the tail integral at
        # x = rho*, and so is each member of the sandwich.
        p = ChannelPoint(n, nld, 1.0)
        factor = 0.5 * n * math.log(0.5 * n) - math.lgamma(0.5 * n)
        tb, sw = tail_integral_bounds(n, terms(p).rho_star), sphere_sandwich(p)
        for member in ("lower_q", "lower_analytic", "upper"):
            want = factor + getattr(tb, member).log_value
            assert getattr(sw, member).log_value == pytest.approx(want, rel=1e-12), member

    def test_ordering_of_lower_forms(self):
        tb = tail_integral_bounds(50, 1.2)
        assert (tb.lower_loose.log_value <= tb.lower_analytic.log_value
                <= tb.lower_q.log_value <= tb.upper.log_value)

    def test_upper_over_lower_tightens(self):
        gaps = [tail_integral_bounds(n, 1.3).upper.log_value
                - tail_integral_bounds(n, 1.3).lower_q.log_value
                for n in (10, 100, 1000)]
        assert gaps[0] > gaps[1] > gaps[2] > 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            tail_integral_bounds(2, 1.5)
        with pytest.raises(ValueError):
            tail_integral_bounds(10, 0.5)

    @pytest.mark.parametrize("x", [math.inf, math.nan])
    def test_rejects_non_finite_x(self, x):
        with pytest.raises(ValueError, match="x="):
            tail_integral_bounds(10, x)

    @pytest.mark.parametrize("n, x", [(10**9, 1e300), (2**63 - 1, 1e300), (3, 1.7e308)])
    def test_exact_zeros_past_double_range(self, n, x):
        # n x / 2 passes double range, so every form's log is below -1.8e308.
        assert tail_integral_bounds(n, x) == (LogProb(-math.inf),) * 4


class TestHeadIntegralBounds:
    def test_sandwich_vs_quadrature(self):
        n, x = 10, 1.2
        ref, err = integrate.quad(lambda s: math.exp(-n * s / 2) * s ** (n - 1),
                                  0.0, x, epsabs=1e-16, epsrel=1e-12)
        assert err < 1e-10 * ref
        hb = head_integral_bounds(n, x)
        assert hb.lower_analytic.linear <= ref <= hb.upper.linear
        assert hb.lower_q.linear <= ref

    def test_sandwich_vs_gamma_identity(self):
        # int_0^x e^{-n s/2} s^{n-1} ds = (2/n)^n Gamma(n) P(n, n x / 2)
        n, x = 30, 1.5
        ref_log = (n * math.log(2.0 / n) + special.gammaln(n)
                   + math.log(special.gammainc(n, n * x / 2.0)))
        hb = head_integral_bounds(n, x)
        assert hb.lower_analytic.log_value <= ref_log <= hb.upper.log_value
        assert hb.lower_q.log_value <= ref_log

    def test_boundary_rejection(self):
        with pytest.raises(ValueError):
            head_integral_bounds(30, 2.0)
        with pytest.raises(ValueError):
            head_integral_bounds(30, 0.0)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 10, 100, 1000, 10**6, 10**9, 2**63 - 1])
    def test_one_ulp_inside_each_window_edge(self, n):
        # Every member is a finite log one ulp above 0 and one ulp below
        # 2 - 2/n, except at n = 2, where the upper form's denominator
        # 2 - x - 2/n rounds to 0 there and the window check rejects x.
        for x in (5e-324, math.nextafter(2.0 - 2.0 / n, 0.0)):
            if n == 2 and x > 0.5:
                with pytest.raises(ValueError, match=r"require 0 < x < 2 - 2/n, got x=0\.9999999999999999"):
                    head_integral_bounds(n, x)
            else:
                assert all(math.isfinite(v.log_value) for v in head_integral_bounds(n, x)), (n, x)

    @pytest.mark.parametrize("n", [3, 5, 100, 1000, 10**6])
    def test_upper_near_the_edge_against_mpmath(self, n):
        # The upper form at the double x, 60-digit oracle: its truncation factor
        # and its denominator share the computed 2 - x - 2/n, so it stays
        # accurate up to the edge (before, 2.6e-5 relative off one ulp inside).
        edge = 2.0 - 2.0 / n
        for x in [edge * (1.0 - 10.0 ** -k) for k in range(1, 13)] + [math.nextafter(edge, 0.0)]:
            with mpmath.workdps(60):
                m, y = mpmath.mpf(n), mpmath.mpf(x)
                gap = 2 - y - 2 / m
                ref = (mpmath.log(2 / m) + m * mpmath.log(y) - m * y / 2
                       + mpmath.log(-mpmath.expm1(-m * gap / 2)) - mpmath.log(gap))
            got = head_integral_bounds(n, x).upper.log_value
            assert abs(got - float(ref)) <= 1e-14 * max(1.0, abs(float(ref))), (n, x)


class TestLaplaceHeadIntegral:
    def test_ratio_to_gamma_identity(self):
        n = 200
        ref_log = (n * math.log(2.0 / n) + special.gammaln(n)
                   + math.log(special.gammainc(n, n * 3.0 / 2.0)))
        got = laplace_head_integral(n, 3.0)
        assert abs(got / math.exp(ref_log) - 1.0) <= 0.01

    def test_x_independence(self):
        assert laplace_head_integral(150, 2.5) == laplace_head_integral(150, 10.0)

    def test_error_shrinks_with_n(self):
        def err(n):
            ref_log = (n * math.log(2.0 / n) + special.gammaln(n)
                       + math.log(special.gammainc(n, n * 1.5)))
            return abs(laplace_head_integral(n, 3.0) / math.exp(ref_log) - 1.0)

        assert err(800) < err(200)

    def test_domain(self):
        with pytest.raises(ValueError):
            laplace_head_integral(100, 2.0)
        with pytest.raises(ValueError, match="dimension"):
            laplace_head_integral(0, 3.0)


class TestSlopeOracle:
    def test_fitted_slope_pins_line_constant(self):
        # least-squares slope of -ln(ML bound) against n estimates the
        # achievability exponent; at delta_cr - 0.3 it matches the
        # (1/2) ln(e/4) line constant within 1% and rejects ln(e/4).
        d = DCR - 0.3
        ns = np.array([500.0, 1000.0, 2000.0, 3000.0])
        ys = np.array([-ml_bound(ChannelPoint(int(n), d, 1.0)).log_raw for n in ns])
        slope = np.polyfit(ns, ys, 1)[0]
        assert abs(slope / exponent_r(d, 1.0) - 1.0) <= 0.01
        printed_constant_er = (DS - d) + math.log(math.e / 4.0)
        assert abs(slope / printed_constant_er - 1.0) > 0.10
