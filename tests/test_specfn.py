import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, special

from icawgn.specfn import (
    _LARGE_A_LOWER_MIN,
    _LINEAR_MIN,
    _SCIPY_SERIES_MAX_A,
    LogProb,
    _atanh_minus_u,
    _exp_or_inf,
    _log_add,
    _log_prefactor,
    _stirlerr,
    _stirlerr_array,
    log_reg_gamma_lower,
    log_reg_gamma_tail,
    log_reg_gamma_upper,
    log_q_func,
    log_vn,
    q_func,
    q_func_inv,
    reg_gamma_lower,
    reg_gamma_upper,
)


@pytest.fixture(autouse=True)
def _mp_precision():
    # 50 digits for every mpmath oracle here, restored after each test.
    with mpmath.workdps(50):
        yield


class TestLogProb:
    def test_zero_flag(self):
        z = LogProb(-math.inf)
        assert z.is_zero and z.linear == 0.0 and z.probability == 0.0
        assert not LogProb(-1e308).is_zero and LogProb(-1e308).linear == 0.0

    def test_nonzero_requires_finite_log(self):
        with pytest.raises(ValueError):
            LogProb(log_value=math.inf)

    def test_probability_clamps(self):
        assert LogProb(0.7).probability == 1.0
        # Past double range the linear value saturates to inf.
        assert LogProb(1000.0).linear == math.inf and LogProb(1000.0).probability == 1.0

    def test_exp_or_inf_keeps_every_finite_exp(self):
        # ln DBL_MAX rounds below the exact value: its exp is the largest
        # finite result, and math.exp of the next double up overflows.
        top = math.log(sys.float_info.max)
        assert _exp_or_inf(top) == math.exp(top) < math.inf
        with pytest.raises(OverflowError):
            math.exp(math.nextafter(top, math.inf))
        assert _exp_or_inf(math.nextafter(top, math.inf)) == math.inf
        for v in (-800.0, -1.5, 0.0, 1.0, 700.0):
            assert _exp_or_inf(v) == math.exp(v)
        assert math.isnan(_exp_or_inf(math.nan))

    def test_log_add(self):
        a, b = math.log(0.25), math.log(0.5)
        assert math.exp(_log_add(a, b)) == pytest.approx(0.75, rel=1e-14)
        assert _log_add(-math.inf, b) == b and _log_add(a, -math.inf) == a
        assert _log_add(-math.inf, -math.inf) == -math.inf


class TestLogGamma:
    # The package's ln Gamma is math.lgamma, under log_vn and the ML bound.
    def test_gamma_one(self):
        assert math.lgamma(1.0) == 0.0

    def test_gamma_half(self):
        assert math.lgamma(0.5) == pytest.approx(0.5 * math.log(math.pi), rel=1e-15)

    def test_gamma_ten_factorial_oracle(self):
        assert math.lgamma(10.0) == pytest.approx(math.log(math.factorial(9)), rel=1e-14)

    def test_domain(self):
        with pytest.raises(ValueError):
            math.lgamma(0.0)
        with pytest.raises(ValueError):
            math.lgamma(-2.0)

    def test_relative_accuracy_contract(self):
        # <= 1e-13 relative over [0.5, 1e6], checked against mpmath.
        for x in np.logspace(math.log10(0.5), 6, 40):
            ref = float(mpmath.loggamma(mpmath.mpf(float(x))))
            if ref != 0.0:
                assert abs(math.lgamma(float(x)) / ref - 1.0) <= 1e-13


def _stirling_log_vn(n: int) -> float:
    # The leading Stirling form of ln V_n, (n/2) ln(2 pi e / n) - (1/2) ln(n pi),
    # whose error is O(1/n) (about -1/(6n)).
    return 0.5 * n * math.log(2.0 * math.pi * math.e / n) - 0.5 * math.log(n * math.pi)


class TestLogVn:
    def test_v1_v2_v3(self):
        assert log_vn(1) == pytest.approx(math.log(2.0), rel=1e-15)
        assert log_vn(2) == pytest.approx(math.log(math.pi), rel=1e-13)
        # V_3 = 4 pi / 3 in closed form
        assert log_vn(3) == pytest.approx(math.log(4.0 * math.pi / 3.0), rel=1e-12)

    def test_asymptotic_n2_closed_form(self):
        # At n = 2 the Stirling form is ln(pi e) - ln(2 pi)/2, which is
        # 1 - ln(2 pi)/2 above ln V_2 = ln pi.
        expected = math.log(math.pi * math.e) - 0.5 * math.log(2.0 * math.pi)
        assert _stirling_log_vn(2) == pytest.approx(expected, rel=1e-14)
        assert expected - log_vn(2) == pytest.approx(1.0 - 0.5 * math.log(2.0 * math.pi), rel=1e-13)

    def test_asymptotic_error_at_1000(self):
        assert abs(_stirling_log_vn(1000) - log_vn(1000)) <= 1e-3

    def test_asymptotic_error_at_100(self):
        # Exact-oracle comparison: the Stirling defect at n=100 is
        # -1/(12*(n/2)) + O(1/n^3) = -1.6666e-3.
        diff = log_vn(100) - _stirling_log_vn(100)
        assert diff == pytest.approx(-1.6666444e-3, abs=1e-7)
        assert abs(diff) <= 2e-3

    def test_error_decays_like_c_over_n(self):
        # |log_vn - asymptotic| <= c/n with c < 0.2 across the sweep.
        ns = [10, 30, 100, 300, 1000, 3000]
        c = max(n * abs(log_vn(n) - _stirling_log_vn(n)) for n in ns)
        assert c < 0.2


    def test_domain(self):
        with pytest.raises(ValueError):
            log_vn(0)


# Points of the deep-tail accuracy tests, shared with the array kernel's.
_DEEP_UPPER = [(1500.0, 4500.0), (2500.0, 7000.0), (500.0, 3000.0), (0.5, 800.0)]
_DEEP_LOWER = [(1000.0, 100.0), (5000.0, 3000.0), (50.0, 1.0)]
_LARGE_SHAPES = [5e3, 5e4, 5e5, 5e6]
_LARGE_RATIOS = [0.99, 1.0, 1.01]
# (a, lower) of the switch tests: where the smaller tail leaves scipy's linear
# value, below 1e-300 or, for the lower tail at a > 1e5, below 1e-2.
_SWITCH_CASES = [(0.5, False), (5.0, False), (500.0, False), (5e4, False), (5e6, False),
                 (5.0, True), (500.0, True), (5e4, True), (2e5, True), (5e6, True)]


def _linear_floor(a, lower):
    # Smallest smaller tail that the kernels take from scipy's linear value.
    return _LARGE_A_LOWER_MIN if lower and a > _SCIPY_SERIES_MAX_A else _LINEAR_MIN


def _switch_grid(a, lower):
    # 17 arguments around the point where the smaller tail crosses its floor.
    inverse = special.gammaincinv if lower else special.gammainccinv
    return float(inverse(a, _linear_floor(a, lower))) * (1.0 + 1e-8 * np.arange(-8, 9))


def _check_no_jump(xs, vals, lower):
    # Strictly monotone, and on a quadratic through the grid to 2e-14 relative.
    steps = np.diff(vals)
    assert np.all(steps > 0.0) if lower else np.all(steps < 0.0)
    u = (xs - xs[8]) / (xs[9] - xs[8])   # offsets of the rounded grid points
    fit = np.polyval(np.polyfit(u, vals, 2), u)
    assert np.max(np.abs(vals - fit)) <= 2e-14 * abs(vals[8])


# Lower tail near the median at large shapes: x = a + z sqrt(a).
_MEDIAN_SHAPES = [2e5, 1e6, 4e6, 5e6]
_MEDIAN_Z = [-8.0, -3.0, -2.33, -1.0, -0.01, -1e-5]


def _median_grid():
    a = np.repeat(_MEDIAN_SHAPES, len(_MEDIAN_Z))
    return a, a + np.tile(_MEDIAN_Z, len(_MEDIAN_SHAPES)) * np.sqrt(a)


def _mp_log_lower_kummer(a, x):
    # ln P = ln M(1, a+1, x) + a ln x - x - ln Gamma(a+1) at 60 digits.
    # mpmath's gammainc series does not converge here, and its hyp1f1 needs
    # more terms than its default budget.
    with mpmath.workdps(60):
        a, x = mpmath.mpf(a), mpmath.mpf(x)
        log_m = mpmath.log(mpmath.hyp1f1(1, a + 1, x, maxterms=10 ** 7))
        return float(log_m + a * mpmath.log(x) - x - mpmath.loggamma(a + 1))


def _mp_log_tail(a, x, upper):
    # mpmath sums the smaller tail (its series for the larger one does not
    # converge at large a) and takes the larger as the complement.
    a, x = mpmath.mpf(a), mpmath.mpf(x)
    if x < a:
        small = mpmath.gammainc(a, 0, x, regularized=True)
        return float(mpmath.log1p(-small) if upper else mpmath.log(small))
    small = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
    return float(mpmath.log(small) if upper else mpmath.log1p(-small))


class TestRegGamma:
    def test_full_mass_at_zero(self):
        assert reg_gamma_upper(0.7, 0.0) == 1.0
        assert reg_gamma_upper(5.0, 0.0) == 1.0

    def test_chi1_tail_gaussian_identity(self):
        # Pr{chi^2_1 > x} = 2 Q(sqrt x): independent erfc-based oracle.
        assert reg_gamma_upper(0.5, 0.125) == pytest.approx(2.0 * q_func(0.5), rel=1e-13)

    def test_chi2_tail_exponential(self):
        assert reg_gamma_upper(1.0, 1.0) == pytest.approx(math.exp(-1.0), rel=1e-14)

    def test_lower_total_mass(self):
        # x >> a: P -> 1, so ln P -> 0 (up to the 1e-213 sliver of escaping mass).
        assert log_reg_gamma_lower(3.0, 500.0).log_value == pytest.approx(0.0, abs=1e-200)

    def test_lower_exponential_cdf(self):
        got = log_reg_gamma_lower(1.0, 2.0).linear
        assert got == pytest.approx(-math.expm1(-2.0), rel=1e-14)

    def test_lower_quadrature_oracle(self):
        # P(5, 2) = int_0^2 t^4 e^-t dt / Gamma(5) by adaptive quadrature.
        ref, err = integrate.quad(lambda t: t ** 4 * math.exp(-t), 0.0, 2.0,
                                  epsabs=1e-14, epsrel=1e-13)
        ref /= math.factorial(4)
        assert err < 1e-12
        assert log_reg_gamma_lower(5.0, 2.0).linear == pytest.approx(ref, rel=1e-12)

    def test_is_zero_at_origin(self):
        assert log_reg_gamma_lower(2.0, 0.0).is_zero

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            reg_gamma_upper(0.0, 1.0)
        with pytest.raises(ValueError):
            reg_gamma_upper(1.0, -0.5)

    @pytest.mark.parametrize("a", [0.5, 1.0, 5.0, 50.0, 500.0])
    def test_complement_identity(self, a):
        for x in np.linspace(0.0, 4.0 * a, 41):
            q = reg_gamma_upper(a, float(x))
            p = log_reg_gamma_lower(a, float(x)).linear
            assert abs(q + p - 1.0) <= 1e-12

    @pytest.mark.parametrize("a", [0.5, 2.0, 50.0, 400.0])
    def test_strictly_decreasing_in_x(self, a):
        # Strictness is checked on the log values: deep in the left tail the
        # linear Q rounds to exactly 1.0 and only ln Q = log1p(-P) still
        # resolves the decrease.  For large a the grid starts where -ln Q is
        # above the subnormal floor at all.
        xs = np.linspace(0.0 if a <= 2 else a / 8.0, 4.0 * a, 120)
        vals = [log_reg_gamma_upper(a, float(x)).log_value for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))

    def test_linear_accuracy_vs_mpmath(self):
        # 1e-12 relative in the linear domain over the contract grid.
        for a in [0.5, 1.0, 2.5, 5.0, 20.0, 50.0, 200.0, 500.0]:
            for frac in [0.01, 0.1, 0.5, 0.9, 1.0, 1.1, 1.5, 2.5, 4.0]:
                x = a * frac
                ref = float(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x), mpmath.inf,
                                            regularized=True))
                if ref > 1e-290:
                    assert abs(reg_gamma_upper(a, x) / ref - 1.0) <= 1e-12, (a, x)

    def test_log_accuracy_deep_underflow(self):
        # log-domain relative error <= 1e-9 where the linear value underflows.
        for a, x in _DEEP_UPPER:
            got = log_reg_gamma_upper(a, x).log_value
            ref = float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(x),
                                                   mpmath.inf, regularized=True)))
            assert abs(got / ref - 1.0) <= 1e-9, (a, x)

    @pytest.mark.parametrize("upper", [True, False])
    def test_integer_arguments(self, upper):
        # Deep in the smaller tail, where the kernels leave scipy's linear value.
        fn = log_reg_gamma_upper if upper else log_reg_gamma_lower
        a, x = (500, 3000) if upper else (1000, 100)
        assert fn(a, x).log_value == fn(float(a), float(x)).log_value

    def test_log_lower_accuracy(self):
        for a, x in _DEEP_LOWER:
            got = log_reg_gamma_lower(a, x).log_value
            ref = float(mpmath.log(mpmath.gammainc(mpmath.mpf(a), mpmath.mpf(0),
                                                   mpmath.mpf(x), regularized=True)))
            assert abs(got / ref - 1.0) <= 1e-9, (a, x)


class TestLargeShape:
    @pytest.mark.parametrize("a", _LARGE_SHAPES)
    @pytest.mark.parametrize("ratio", _LARGE_RATIOS)
    def test_both_tails_vs_mpmath(self, a, ratio):
        # Full relative accuracy near x = a, where the chi-square tails of
        # the bounds sit at large n.  mpmath's series for the larger tail
        # does not converge here, so the oracle sums the smaller one and
        # takes the larger as its complement.
        x = a * ratio
        if x < a:
            lower = mpmath.gammainc(a, 0, x, regularized=True)
            upper = 1 - lower
        else:
            upper = mpmath.gammainc(a, x, mpmath.inf, regularized=True)
            lower = 1 - upper
        for got, ref in ((log_reg_gamma_upper(a, x), upper), (log_reg_gamma_lower(a, x), lower)):
            assert abs(math.expm1(got.log_value - float(mpmath.log(ref)))) <= 1e-13, (a, x)

    @pytest.mark.parametrize("a", [5e5, 5e6])
    @pytest.mark.parametrize("ratio", [0.99, 1.0])
    def test_linear_lower_vs_mpmath(self, a, ratio):
        # scipy's series truncates here; the linear form must not inherit it.
        # The oracle sums the smaller tail, as above.
        x = a * ratio
        if x < a:
            ref = float(mpmath.gammainc(a, 0, x, regularized=True))
        else:
            ref = float(1 - mpmath.gammainc(a, x, mpmath.inf, regularized=True))
        assert reg_gamma_lower(a, x) == pytest.approx(ref, rel=1e-13, abs=0.0)

    def test_lower_near_median_vs_mpmath(self):
        # Full relative accuracy of P from 8 to 1e-5 standard deviations
        # below the median, on both sides of the switch to Kummer's function.
        for a, x in zip(*_median_grid()):
            got = log_reg_gamma_lower(float(a), float(x)).log_value
            assert abs(math.expm1(got - _mp_log_lower_kummer(a, x))) <= 1e-13, (a, x)

    @pytest.mark.parametrize("a, lower", _SWITCH_CASES)
    def test_no_jump_at_underflow_switch(self, a, lower):
        # Where the smaller tail drops below the smallest value taken from
        # scipy, Kummer's function or the continued fraction takes over.
        # Across that switch the log value stays strictly monotone and on a
        # quadratic through the grid to 2e-14 relative.
        xs = _switch_grid(a, lower)
        fn, tail = (log_reg_gamma_lower, special.gammainc) if lower else \
            (log_reg_gamma_upper, special.gammaincc)
        taken = [tail(a, x) > _linear_floor(a, lower) for x in xs]
        assert any(taken) and not all(taken)
        _check_no_jump(xs, np.array([fn(a, float(x)).log_value for x in xs]), lower)

    @pytest.mark.parametrize("a", [5e10, 5e11, 5e14, 4.611686018427388e18])
    def test_lower_tail_where_hyp1f1_is_nan_is_scipys(self, a):
        # scipy's hyp1f1(1, a + 1, x) is NaN at some of these x; there its tail
        # P = gammainc stands in, in both kernels, and an exact zero stays one.
        xs = np.array([a - k * math.sqrt(a) for k in (0.5, 2.4, 4.5, 5, 10, 20, 37, 50)])
        nan = np.isnan(special.hyp1f1(1.0, a + 1.0, xs))
        assert nan.any()
        small = special.gammainc(a, xs[nan])
        ref = np.log(small, out=np.full_like(small, -math.inf), where=small > 0.0)
        curve = log_reg_gamma_tail(np.full_like(xs, a), xs, upper=False)
        scalar = [log_reg_gamma_lower(a, float(x)) for x in xs]
        np.testing.assert_allclose(curve[nan], ref, rtol=1e-15)
        np.testing.assert_allclose([p.log_value for p in scalar], curve, rtol=1e-15)
        zero = curve == -math.inf
        # P underflows at k = 50: Kummer's log is finite, scipy's tail an exact zero.
        assert [p.is_zero for p in scalar] == zero.tolist() == (nan & (xs == xs[-1])).tolist()
        upper = log_reg_gamma_tail(np.full_like(xs, a), xs, upper=True)
        assert np.all(upper[zero] == 0.0) and np.all(np.isfinite(upper))


class TestLogPrefactor:
    """ln(x^a e^-x / Gamma(a+1)), the factor of the deep tails, and the series
    atanh(u) - u that carries it within |x - a| <= a/2."""

    # |u| <= 1/3 over a linear grid and down to 1e-100 (u^3 still normal) on
    # both sides, with the ends, zero, and inputs whose u^3 underflows.
    SERIES_US = sorted({*np.linspace(-1 / 3, 1 / 3, 2001).tolist(),
                        *(s * v for s in (1.0, -1.0) for v in np.geomspace(1e-100, 1 / 3, 501).tolist()),
                        1 / 3, -1 / 3, 0.0, 1e-300, 5e-324, -5e-324})

    @staticmethod
    def _mp_atanh_minus_u(u):
        # The difference cancels about 2 log10(1/|u|) digits.
        digits = 50 + (3 * int(-math.log10(abs(u))) if u else 0)
        with mpmath.workdps(digits):
            return float(mpmath.atanh(mpmath.mpf(u)) - u)

    def test_series_within_two_ulps_of_mpmath(self):
        for u in self.SERIES_US:
            ref = self._mp_atanh_minus_u(u)
            assert abs(_atanh_minus_u(u) - ref) <= 2.0 * 2.0 ** -52 * abs(ref), u

    def test_series_on_an_array_is_its_float_calls_bit_for_bit(self):
        us = np.array(self.SERIES_US)
        got = _atanh_minus_u(us)
        ref = np.array([_atanh_minus_u(u) for u in self.SERIES_US])
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_stirling_series_on_an_array_is_its_float_calls_bit_for_bit(self):
        # From a = 15 on, where both take the one series.
        a = np.concatenate([np.linspace(15.0, 30.0, 61), np.geomspace(30.0, 1e15, 60)])
        ref = np.array([_stirlerr(v) for v in a.tolist()])
        assert np.array_equal(_stirlerr_array(a).view(np.int64), ref.view(np.int64))

    @pytest.mark.parametrize("a", np.geomspace(2.5, 1e9, 25).tolist())
    def test_prefactor_vs_mpmath(self, a):
        # x/a in [0.5, 1.5), where the series carries phi(x/a); at 1.5 the
        # rounding of x - a picks the branch that takes phi's logs directly.
        for ratio in np.linspace(0.5, 1.5, 41)[:-1].tolist():
            x = a * ratio
            ref = mpmath.mpf(a) * mpmath.log(x) - x - mpmath.loggamma(mpmath.mpf(a) + 1)
            assert abs(_log_prefactor(a, x) - ref) <= 4e-15 * max(1.0, abs(ref)), (a, x)


class TestArrayKernel:
    """log_reg_gamma_tail on the points of the scalar accuracy tests, each
    set in one vector call."""

    @pytest.mark.parametrize("upper", [True, False])
    def test_deep_tails_and_end_points_vs_mpmath(self, upper):
        pts = _DEEP_UPPER if upper else _DEEP_LOWER
        a = np.array([p[0] for p in pts] + [3.0, 3.0, 5e4])
        x = np.array([p[1] for p in pts] + [0.0, math.inf, 0.0])
        got = log_reg_gamma_tail(a, x, upper=upper)
        ref = np.array([_mp_log_tail(ai, xi, upper) for ai, xi in pts])
        assert np.all(np.abs(got[:len(pts)] - ref) <= 1e-13 * np.abs(ref))
        zero, one = -math.inf, 0.0
        assert list(got[len(pts):]) == ([one, zero, one] if upper else [zero, one, zero])

    def test_large_shapes_both_tails_vs_mpmath(self):
        a = np.repeat(_LARGE_SHAPES, len(_LARGE_RATIOS))
        x = a * np.tile(_LARGE_RATIOS, len(_LARGE_SHAPES))
        for upper in (True, False):
            got = log_reg_gamma_tail(a, x, upper=upper)
            ref = np.array([_mp_log_tail(ai, xi, upper) for ai, xi in zip(a, x)])
            assert np.all(np.abs(np.expm1(got - ref)) <= 1e-13), upper

    def test_lower_near_median_vs_mpmath(self):
        a, x = _median_grid()
        got = log_reg_gamma_tail(a, x, upper=False)
        ref = np.array([_mp_log_lower_kummer(ai, xi) for ai, xi in zip(a, x)])
        assert np.all(np.abs(np.expm1(got - ref)) <= 1e-13)

    @pytest.mark.parametrize("lower", [False, True])
    def test_no_jump_at_underflow_switch(self, lower):
        shapes = [a for a, low in _SWITCH_CASES if low == lower]
        xs = np.array([_switch_grid(a, lower) for a in shapes])
        vals = log_reg_gamma_tail(np.array(shapes)[:, None], xs, upper=not lower)
        assert vals.shape == xs.shape
        for row_x, row_vals in zip(xs, vals):
            _check_no_jump(row_x, row_vals, lower)

    def test_matches_scalar_kernels(self):
        rng = np.random.default_rng(5)
        a = np.exp(rng.uniform(math.log(0.5), math.log(5e6), 400))
        x = a * np.exp(rng.uniform(-3.0, 2.0, 400))
        for upper, fn in ((True, log_reg_gamma_upper), (False, log_reg_gamma_lower)):
            ref = np.array([fn(float(ai), float(xi)).log_value for ai, xi in zip(a, x)])
            got = log_reg_gamma_tail(a, x, upper=upper)
            assert np.all(np.abs(got - ref) <= 1e-14 * np.abs(ref)), upper

    # (a, x) points that each take one branch, for either tail.
    _BRANCH_POINTS = {
        "lower_linear": [(10.0, 5.0), (2e5, 2e5 - 100.0), (0.5, 0.2)],
        "upper_linear": [(10.0, 15.0), (3.0, 3.0), (0.5, 2.0)],
        "kummer": [(1000.0, 100.0), (2e5, 1.9e5), (20.0, 1e-20)],
        "cf": [(10.0, 1000.0), (1000.0, 3000.0), (0.5, 800.0)],
        "ends": [(3.0, 0.0), (3.0, math.inf), (5e4, 0.0)],
    }

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("group", [
        ("lower_linear", "kummer"),    # every x < a
        ("upper_linear", "cf"),        # every x >= a
        ("lower_linear", "upper_linear"),
        ("kummer",), ("cf",), ("ends",), (),
    ], ids=["x<a", "x>=a", "linear", "kummer", "cf", "ends", "empty"])
    def test_each_dispatch_matches_a_mixed_array(self, group, upper):
        # An array whose elements all take one branch skips the splits the
        # others need; each element keeps the bits it has in a mixed array.
        mixed = [p for pts in self._BRANCH_POINTS.values() for p in pts]
        pts = [p for name in group for p in self._BRANCH_POINTS[name]]
        ref = log_reg_gamma_tail(*np.array(mixed).T, upper=upper)
        at = [mixed.index(p) for p in pts]
        a, x = np.array(pts, dtype=float).reshape(-1, 2).T
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            got = log_reg_gamma_tail(a, x, upper=upper)
            grid = log_reg_gamma_tail(a.reshape(-1, 1), x.reshape(-1, 1), upper=upper)
        assert got.shape == a.shape and grid.shape == (a.size, 1)
        assert got.tobytes() == grid.tobytes() == ref[at].tobytes()

    @pytest.mark.parametrize("upper", [True, False])
    @pytest.mark.parametrize("xs", [[[0.0, 1.0, 3.0], [5.0, 40.0, math.inf]],
                                    [[1e-30, 1.0, 3.0], [5.0, 40.0, 900.0]]],
                             ids=["ends", "inner"])
    def test_scalar_shape_against_a_grid_of_x(self, xs, upper):
        xs = np.array(xs)
        ref = log_reg_gamma_tail(np.full(xs.size, 3.0), xs.reshape(-1), upper=upper)
        got = log_reg_gamma_tail(3.0, xs, upper=upper)
        assert got.shape == xs.shape and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("a, x", [(math.inf, 1.0), (math.nan, 1.0), (0.0, 1.0),
                                      (1.0, -0.5), (1.0, math.nan)])
    def test_domain_errors(self, a, x):
        with pytest.raises(ValueError):
            log_reg_gamma_tail(np.array([1.0, a]), np.array([1.0, x]), upper=True)


@pytest.mark.parametrize("a", [0.5, 1.0, 5e4])
def test_infinite_argument(a):
    # Q(a, inf) = 0 and P(a, inf) = 1 exactly.
    assert log_reg_gamma_upper(a, math.inf).is_zero
    lower = log_reg_gamma_lower(a, math.inf)
    assert not lower.is_zero and lower.log_value == 0.0


@pytest.mark.parametrize("fn", [log_reg_gamma_upper, log_reg_gamma_lower,
                                reg_gamma_upper, reg_gamma_lower])
@pytest.mark.parametrize("a", [math.inf, math.nan])
def test_non_finite_shape_rejected(fn, a):
    with pytest.raises(ValueError, match="shape"):
        fn(a, 1.0)


class TestQFunc:
    def test_half_at_zero(self):
        assert q_func(0.0) == 0.5

    def test_inverse_half(self):
        assert q_func_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("p", [1e-300, 1e-100, 1e-12, 0.01, 0.5, 0.99,
                                   1.0 - 1e-6, 1.0 - 1e-12])
    def test_inverse_against_mpmath_root(self, p):
        # 50-digit secant root of erfc(t / sqrt 2) / 2 = p for the double p.
        x = q_func_inv(p)
        ref = mpmath.findroot(lambda t: mpmath.erfc(t / mpmath.sqrt(2)) / 2 - p, x)
        assert abs(x - ref) <= 4e-16 * max(1.0, abs(x))

    def test_inverse_root_finding_oracle(self):
        ref = optimize.brentq(lambda x: q_func(x) - 0.01, 0.0, 10.0, xtol=1e-13)
        assert q_func_inv(0.01) == pytest.approx(ref, abs=1e-10)
        assert q_func_inv(0.01) == pytest.approx(2.3263479, abs=5e-8)

    @given(st.floats(min_value=-8.0, max_value=8.0))
    @settings(max_examples=200, deadline=None)
    def test_symmetry(self, x):
        assert abs(q_func(-x) - (1.0 - q_func(x))) <= 1e-14

    def test_strictly_decreasing(self):
        # In the log domain strictness survives over the whole range where
        # doubles resolve the tail at all.
        xs = np.linspace(-36.0, 36.0, 361)
        vals = [log_q_func(float(x)) for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(vals, vals[1:]))
        xs = np.linspace(-5.0, 10.0, 200)
        lin = [q_func(float(x)) for x in xs]
        assert all(v1 > v2 for v1, v2 in zip(lin, lin[1:]))

    def test_roundtrip_where_representable(self):
        # For x <= -5.3 the argument p = Q(x) sits within a few ulp of 1 and
        # no double-precision inverse can recover x to 1e-9; test the
        # contract on the representable range and the ulp-limited bound
        # beyond it.
        for x in np.linspace(-5.0, 8.0, 200):
            assert abs(q_func_inv(q_func(float(x))) - x) <= 1e-9
        for x in np.linspace(-8.0, -5.0, 40):
            pdf = math.exp(-0.5 * x * x) / math.sqrt(2 * math.pi)
            limit = 2.0 ** -52 / pdf + 1e-9
            assert abs(q_func_inv(q_func(float(x))) - x) <= limit

    def test_inverse_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                q_func_inv(bad)

    def test_log_q_func_matches_q(self):
        for x in (-3.0, -0.5, 0.0, 1.0, 5.0, 20.0, -3, 0, 1, 20):
            assert log_q_func(x) == pytest.approx(math.log(q_func(x)), rel=1e-13)

    def test_log_q_func_deep_tail(self):
        for x in (40.0, 1e3, 1e5):
            ref = float(mpmath.log(mpmath.erfc(x / mpmath.sqrt(2)) / 2))
            assert log_q_func(x) == pytest.approx(ref, rel=1e-13)
