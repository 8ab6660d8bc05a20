import math
import random
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from icawgn import dispersion
from icawgn.bounds import (BoundValue, ChannelPoint, _check_dims, _dim_terms, delta_cr,
                           delta_star, effective_radius, ml_bound, sphere_bound)
from icawgn.dispersion import (
    DB_PER_NAT,
    _chandrupatla,
    _ml_start,
    BERRY_ESSEEN_T,
    gap_db,
    lattice_snr_rho,
    nld_eps_achievable,
    nld_eps_achievable_curve,
    nld_eps_approx,
    nld_eps_converse,
    norm_tail_normal_approx,
    normalized_error_prob,
    vnr_from_nld,
    vnr_opt_approx,
)
from icawgn.asymptotics import terms
from icawgn.specfn import LogProb, _check_sigma2, log_vn, q_func, q_func_inv, reg_gamma_upper


def _invert_bound(bound_fn, n, eps, sigma2, kind, seed, step):
    # One _chandrupatla solve on the scalar bound_fn, seeded at sigma2 = 1,
    # driven as nld_eps_converse drives it on the sphere bound.
    _check_sigma2(sigma2)
    solver = _chandrupatla(n, eps, kind, seed, step, 0.5 * math.log(sigma2))
    delta = next(solver)
    try:
        while True:
            delta = solver.send(bound_fn(ChannelPoint(n=n, nld=delta, sigma2=1.0)).log_raw)
    except StopIteration as done:
        return done.value


def _scalar_ml_solve(n, eps, sigma2, bound=ml_bound):
    # The ML inversion on the scalar bound, from the seed and step of
    # nld_eps_achievable: the reference for its lockstep solve.
    seeds, steps = _ml_start(_dim_terms(_check_dims([n])), eps)
    return _invert_bound(bound, n, eps, sigma2, "ml", seeds.item(), steps.item())


DS = delta_star(1.0)


class TestNormTailApprox:
    def test_half_at_mean(self):
        # r^2 = n sigma2 exactly makes the Q argument exactly zero
        approx, _ = norm_tail_normal_approx(16, 4.0, 1.0)
        assert approx == 0.5

    def test_guarantee_holds_at_example_point(self):
        # n=100, r^2 = 120: the exact tail and the normal approximation agree
        # within 6T/sqrt(n).
        approx, guarantee = norm_tail_normal_approx(100, math.sqrt(120.0), 1.0)
        exact = reg_gamma_upper(50.0, 60.0)
        assert approx == pytest.approx(q_func(20.0 / math.sqrt(200.0)), rel=1e-13)
        assert abs(exact - approx) <= guarantee

    def test_guarantee_scaling(self):
        _, g100 = norm_tail_normal_approx(100, 5.0, 1.0)
        _, g400 = norm_tail_normal_approx(400, 5.0, 1.0)
        assert g400 == pytest.approx(0.5 * g100, rel=1e-13)

    @pytest.mark.parametrize("sigma2", [0.0, -0.5, math.nan, math.inf])
    def test_rejects_bad_noise_variance(self, sigma2):
        with pytest.raises(ValueError, match="noise variance"):
            norm_tail_normal_approx(16, 4.0, sigma2)


class TestBerryEsseenT:
    def test_value_against_closed_form(self):
        # Splitting E|X^2-1|^3 at |x|=1 and integrating by parts gives the
        # exact value (48 phi(1) + 32 Q(1) - 8) / 2^(3/2) = 3.0729315...
        phi1 = math.exp(-0.5) / math.sqrt(2.0 * math.pi)
        closed = (48.0 * phi1 + 32.0 * q_func(1.0) - 8.0) / 2.0 ** 1.5
        assert closed == pytest.approx(3.0729315338, abs=1e-9)
        assert BERRY_ESSEEN_T == pytest.approx(closed, abs=1e-9)
        with mpmath.workdps(30):
            exact = (48 * mpmath.npdf(1) + 32 * mpmath.ncdf(-1) - 8) / mpmath.mpf(2) ** 1.5
            assert abs(BERRY_ESSEEN_T - exact) <= 4.5e-16

    def test_within_type_invariant(self):
        assert 3.0 <= BERRY_ESSEEN_T <= 3.2

    def test_even_integrand_symmetry(self):
        f = lambda x: abs((x * x - 1.0) / math.sqrt(2.0)) ** 3 \
            * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        full = (integrate.quad(f, -np.inf, -1.0)[0] + integrate.quad(f, -1.0, 0.0)[0]
                + integrate.quad(f, 0.0, 1.0)[0] + integrate.quad(f, 1.0, np.inf)[0])
        half = integrate.quad(f, 0.0, 1.0)[0] + integrate.quad(f, 1.0, np.inf)[0]
        assert full == pytest.approx(2.0 * half, rel=1e-10)
        assert BERRY_ESSEEN_T == pytest.approx(full, rel=1e-8)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(10 ** 7)
        y = np.abs((x * x - 1.0) / math.sqrt(2.0)) ** 3
        se = y.std() / math.sqrt(y.size)
        assert abs(BERRY_ESSEEN_T - y.mean()) <= 3.0 * se

    def test_cached_and_stable(self):
        # The Berry-Esseen guarantee is 6 T / sqrt(n) of this one constant.
        assert norm_tail_normal_approx(16, 4.0, 1.0)[1] == 6.0 * BERRY_ESSEEN_T / 4.0


class TestNldEpsApprox:
    def test_frozen_value(self):
        # delta* - sqrt(1/2000) * 2.3263478740 + ln(1000)/2000
        assert nld_eps_approx(1000, 0.01, 1.0) == pytest.approx(-1.467503375422, abs=1e-11)

    def test_half_eps_drops_q_term(self):
        for n in (10, 250):
            expected = DS + 0.5 * math.log(n) / n
            assert nld_eps_approx(n, 0.5, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_monotone_in_eps(self):
        assert nld_eps_approx(100, 0.001, 1.0) < nld_eps_approx(100, 0.01, 1.0)

    def test_domain(self):
        with pytest.raises(ValueError):
            nld_eps_approx(100, 0.0, 1.0)
        with pytest.raises(ValueError):
            nld_eps_approx(100, 1.0, 1.0)

    def test_rejects_infinite_noise(self):
        # Returned -inf: delta* of an infinite noise variance.
        with pytest.raises(ValueError, match="noise variance"):
            nld_eps_approx(10, 0.01, math.inf)


class TestInversion:
    def test_n1_closed_form_anchor(self):
        # sphere bound at n=1, delta=0 is 2Q(0.5); inverting recovers delta=0.
        eps = 2.0 * q_func(0.5)
        res = nld_eps_converse(1, eps, 1.0)
        assert abs(res.delta) <= 1e-9
        assert res.bracket_width <= 1e-9

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_converse_round_trip(self, n):
        res = nld_eps_converse(n, 0.01, 1.0)
        back = sphere_bound(ChannelPoint(n, res.delta, 1.0)).value
        assert abs(back - 0.01) <= 1e-10

    @pytest.mark.parametrize("n", [1, 10, 1000])
    def test_achievable_round_trip(self, n):
        res = nld_eps_achievable(n, 0.01, 1.0)
        back = ml_bound(ChannelPoint(n, res.delta, 1.0)).value
        assert abs(back - 0.01) <= 1e-10

    @pytest.mark.parametrize("n", [10, 100, 1000])
    def test_achievable_below_converse(self, n):
        ach = nld_eps_achievable(n, 0.01, 1.0).delta
        conv = nld_eps_converse(n, 0.01, 1.0).delta
        assert ach <= conv

    def test_gap_shrinks_with_n(self):
        gap100 = (nld_eps_converse(100, 0.01, 1.0).delta
                  - nld_eps_achievable(100, 0.01, 1.0).delta)
        gap1000 = (nld_eps_converse(1000, 0.01, 1.0).delta
                   - nld_eps_achievable(1000, 0.01, 1.0).delta)
        assert 0.0 < gap1000 < gap100

    def test_converse_approx_gap_order(self):
        res = nld_eps_converse(1000, 0.01, 1.0)
        assert abs(1000 * (res.delta - nld_eps_approx(1000, 0.01, 1.0))) <= 10.0

    @pytest.mark.parametrize("eps", [0.5, 1e-2, 1e-6, 1e-12])
    @pytest.mark.parametrize("invert, bound", [(nld_eps_converse, sphere_bound),
                                               (nld_eps_achievable, ml_bound)])
    def test_contract_grid(self, invert, bound, eps):
        # Every n here inverts, within 15 iterations after bracketing, to a
        # sign-change bracket at most 1e-10 wide whose best point gives the
        # bound back at eps to 1e-10.
        for n in list(range(1, 51)) + [100, 1000, 2000, 10000]:
            res = invert(n, eps, 1.0)
            assert res.iterations <= 15, (n, res)
            assert res.bracket_width <= 1e-10, (n, res)
            back = bound(ChannelPoint(n, res.delta, 1.0)).value
            assert abs(back - eps) <= 1e-10, (n, res)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5, math.nan):
            with pytest.raises(ValueError):
                nld_eps_converse(10, bad, 1.0)
        with pytest.raises(ValueError):
            nld_eps_achievable(0, 0.01, 1.0)
        with pytest.raises(ValueError):
            nld_eps_converse(10, 0.01, 0.0)

    def test_achievable_at_extreme_eps(self):
        # At n = 2 and eps = 1e-300 the optimal radius is so large that the
        # sphere term underflows and the ML bound is gamma V_2 E|Z|^2 =
        # 2 pi sigma2 e^(2 delta), so delta = ln(eps / (2 pi sigma2)) / 2 = -346.31.
        res = nld_eps_achievable(2, 1e-300, 1.0)
        assert res.delta == pytest.approx(0.5 * math.log(1e-300 / (2.0 * math.pi)), abs=1e-9)

    def test_unbracketed_target_raises(self):
        # A bound that never reaches eps is reported, not iterated on forever.
        def flat(point):
            return BoundValue("flat", LogProb(math.log(0.5)), 1.0)
        with pytest.raises(ValueError, match="not bracketed"):
            _invert_bound(flat, 10, 0.01, 1.0, "flat", 0.0, 0.1)

    def test_exact_zero_at_a_bracket_end(self):
        # The walk from -3 leaves -1.5, where the bound is exactly 0 (its log
        # is -inf), as the lower end of the bracket.
        def toy(point):
            lp = LogProb(-math.inf if point.nld < -1.0 else min(0.0, point.nld - 1.0))
            return BoundValue("toy", lp, 1.0)
        res = _invert_bound(toy, 4, math.exp(-1.5), 1.0, "toy", -3.0, 0.1)
        assert res.delta == pytest.approx(-0.5, abs=1e-10)

    def test_converse_starts_at_closed_form(self):
        # The closed-form seed is right here: two bound evaluations bracket it.
        for n in (1, 10, 1000):
            res = nld_eps_converse(n, 0.01, 1.0)
            assert res.iterations == 0 and res.bracket_width <= 1e-10

    @pytest.mark.parametrize("eps", [0.01, 1e-12, 1e-300])
    @pytest.mark.parametrize("n", [10**5, 10**6, 10**7])
    def test_converse_relative_accuracy_at_large_n(self, n, eps):
        res = nld_eps_converse(n, eps, 1.0)
        log_back = sphere_bound(ChannelPoint(n, res.delta, 1.0)).log_raw
        assert abs(math.expm1(log_back - math.log(eps))) <= 1e-9

    @pytest.mark.parametrize("eps", [1.0 - 2.0**-53, 1.0 - 2.0**-40])
    def test_converse_deep_lower_tail_against_mpmath(self, eps):
        # scipy's gammainccinv is 2.1e-8 and 6.8e-8 relative off here, which
        # puts the bare closed form about 1e-8 from the root.
        n = 10**7
        with mpmath.workdps(30):
            a = mpmath.mpf(n) / 2
            target = mpmath.log(1 - mpmath.mpf(eps))

            def log_lower(x):
                # ln P(a, x) through Kummer's series M(1, a+1, x).
                return (a * mpmath.log(x) - x - mpmath.loggamma(a + 1)
                        + mpmath.log(mpmath.hyp1f1(1, a + 1, x, maxterms=10**7)))

            x = mpmath.findroot(lambda x: log_lower(x) - target,
                                a * (1 - mpmath.sqrt(-2 * target / a)))
            ref = -mpmath.log(2 * x) / 2 - (n * mpmath.log(mpmath.pi) / 2
                                            - mpmath.loggamma(a + 1)) / n
        assert abs(nld_eps_converse(n, eps, 1.0).delta - float(ref)) <= 1e-10

    @pytest.mark.parametrize("n", [1, 2])
    def test_converse_at_smallest_eps(self, n):
        # eps = 2^-1074: erfc(sqrt x) = 2^-1074 at n = 1, e^-x = 2^-1074 at n = 2.
        with mpmath.workdps(30):
            log_eps = -1074 * mpmath.log(2)
            if n == 1:   # V_1 = 2
                x = mpmath.findroot(lambda x: mpmath.log(mpmath.erfc(mpmath.sqrt(x))) - log_eps,
                                    740)
                log_v = mpmath.log(2)
            else:        # V_2 = pi
                x, log_v = -log_eps, mpmath.log(mpmath.pi)
            ref = -mpmath.log(2 * x) / 2 - log_v / n
        res = nld_eps_converse(n, 5e-324, 1.0)
        assert math.isfinite(res.delta)
        assert abs(res.delta - float(ref)) <= 1e-10

    def test_converse_with_variance_near_largest_double(self):
        # 2 sigma2 overflows, so the closed-form start is taken in logs.
        res = nld_eps_converse(1, 0.5, 1e308)
        x = 0.5 * math.exp(-2.0 * (res.delta + math.log(2.0))) / 1e308
        assert math.erfc(math.sqrt(x)) == pytest.approx(0.5, rel=1e-10)

    @pytest.mark.parametrize("sigma2", [5e-324, 1e-300, 1e300, 1e307, 1e308, sys.float_info.max])
    def test_scale_invariance_near_largest_double(self, sigma2):
        # The root moves by exactly -ln(sigma2)/2 with the noise variance: the
        # solve runs at sigma2 = 1, so r_eff^2 and 2 pi e sigma2, past double
        # range at the large variances, are never formed.
        shift = 0.5 * math.log(sigma2)
        for n in (1, 2, 8, 50, 1000):
            for eps in (0.5, 0.01, 1e-12):
                for invert in (nld_eps_converse, nld_eps_achievable):
                    got = invert(n, eps, sigma2).delta
                    ref = invert(n, eps, 1.0).delta - shift
                    assert got == ref, (invert.__name__, n, eps, got, ref)

    def test_bound_evaluation_budget(self, monkeypatch):
        # A slower solver fails here, not only in the benchmark: over the
        # benchmark's invert traffic the converse takes at most two
        # evaluations and the ML solve at most 4.4 on average.
        calls = {"sphere_bound": 0, "ml_bound": 0}
        for name in calls:
            def counted(point, _bound=getattr(dispersion, name), _name=name):
                calls[_name] += 1
                return _bound(point)
            monkeypatch.setattr(dispersion, name, counted)

        # The ML solve evaluates the bound through _sphere_ml_curves, one element each.
        def curves(t, d, _curves=dispersion._sphere_ml_curves):
            calls["ml_bound"] += len(t.n)
            return _curves(t, d)
        monkeypatch.setattr(dispersion, "_sphere_ml_curves", curves)
        dims = range(2, 2001)
        for n in dims:
            before = calls["sphere_bound"]
            nld_eps_converse(n, 0.01, 1.0)
            assert calls["sphere_bound"] - before <= 2, n
            nld_eps_achievable(n, 0.01, 1.0)
        assert calls["ml_bound"] / len(dims) <= 4.4

    @pytest.mark.parametrize("sigma2", [1.0, 5e-324, 1e300])
    @pytest.mark.parametrize("eps", [0.5, 1e-2, 1e-6, 1e-12])
    def test_curve_matches_scalar_solver(self, eps, sigma2):
        # Same seeds, same steps, and bound_curves' ML logs equal ml_bound's
        # but for a rare last ulp; where one differs, both results still meet
        # the contract and their deltas are within 2e-10.  A solve does not
        # depend on the others of its curve.
        ns = list(range(1, 401)) + [10**4, 10**5, 10**6]
        got = nld_eps_achievable_curve(ns, eps, sigma2)
        assert len(got) == len(ns)
        for n, res in zip(ns, got):
            assert res == nld_eps_achievable(n, eps, sigma2), n
            ref = _scalar_ml_solve(n, eps, sigma2)
            if res != ref:
                assert abs(res.delta - ref.delta) <= 2e-10, (n, res, ref)
                assert res.iterations == ref.iterations, (n, res, ref)
                assert res.bracket_width <= 1e-10, (n, res, ref)
                assert abs(math.expm1(res.bound_value.log_value - math.log(eps))) <= 1e-10 / eps

    @pytest.mark.parametrize("ns, eps, sigma2", [
        ([1, 0], 1e-300, 1.0),         # n = 1 solves (r_eff saturates on the way); n = 0 does not
        ([4, 0], 0.01, 1.0),
        ([4, 2**63], 0.01, 1.0),
        ([4, 2.5], 0.01, 1.0),
        ([4], 0.0, 1.0),
        ([4], math.nan, 1.0),
        ([4], 0.01, 0.0),
        ([4], 0.01, math.inf),
    ])
    def test_curve_raises_what_the_scalar_solver_raises(self, ns, eps, sigma2):
        with pytest.raises(Exception) as ref:
            [_scalar_ml_solve(n, eps, sigma2) for n in ns]
        with pytest.raises(type(ref.value)):
            nld_eps_achievable_curve(ns, eps, sigma2)
        with pytest.raises(type(ref.value)):
            [nld_eps_achievable(n, eps, sigma2) for n in ns]

    def test_solves_where_r_eff_passes_double_range(self):
        # At n = 1 and eps = 1e-300 the bracket walk passes delta = -710, where
        # r_eff saturates to inf.  The root is where the ML bound's first term,
        # e^delta V_1 sqrt(2) Gamma(1) / Gamma(1/2), is eps (the tail Q(1/2, x)
        # is below 1e-300 there): delta = ln eps - ln(2 sqrt(2 / pi)).
        res = nld_eps_achievable(1, 1e-300, 1.0)
        root = math.log(1e-300) - math.log(2.0 * math.sqrt(2.0 / math.pi))
        assert res.delta == pytest.approx(root, rel=1e-14)
        assert abs(math.expm1(res.bound_value.log_value - math.log(1e-300))) <= 1e-10
        assert res.bracket_width <= 1e-10
        ref = _scalar_ml_solve(1, 1e-300, 1.0)
        assert abs(res.delta - ref.delta) <= 2e-10
        assert nld_eps_achievable_curve([4, 1], 1e-300, 1.0)[1] == res

    def test_bracket_end_past_log_double_max(self):
        # The bound jumps from e^-2000 to e^1000 at delta = 0, so the nearer
        # end of the bracket has ln bound - ln eps past ln DBL_MAX, where
        # expm1 overflows.  That end misses eps, and the search narrows the
        # bracket to float resolution.
        def jump(point):
            return BoundValue("jump", LogProb(1000.0 if point.nld >= 0.0 else -2000.0), 1.0)
        res = _invert_bound(jump, 4, 0.01, 1.0, "jump", -0.3, 0.1)
        assert abs(res.delta) <= 1e-15 and res.bracket_width <= 1e-15
        assert res.bound_value.log_value == pytest.approx(1000.0, rel=1e-15)

    @pytest.mark.parametrize("n, eps, sigma2", [
        (2**62, 0.01, 1.0),
        (3671431339604145664, 0.028566502907519352, 0.062048800042289645),
        (1328077389629552384, 0.10494034876974737, 0.11649059896901584),
    ])
    def test_achievable_where_the_ml_log_is_rounding_noise(self, n, eps, sigma2):
        # Here the ML bound's terms of size n delta carry ulps of hundreds of
        # nats, and the walk met logs past ln DBL_MAX: OverflowError from expm1.
        assert math.isfinite(nld_eps_achievable(n, eps, sigma2).delta)

    def test_achievable_at_random_large_dimensions(self):
        # Log-uniform n from 1e7 to 2^63 - 1, eps from 1e-12 to 0.5 and sigma2
        # from 1e-3 to 1e3; 18 of these 600 solves raised OverflowError.
        rng = random.Random(5)
        for _ in range(600):
            n = int(10 ** rng.uniform(7, math.log10(2**63 - 1)))
            eps = 10 ** rng.uniform(-12, math.log10(0.5))
            sigma2 = 10 ** rng.uniform(-3, 3)
            assert math.isfinite(nld_eps_achievable(n, eps, sigma2).delta), (n, eps, sigma2)

    def test_curve_on_no_dimensions(self):
        assert nld_eps_achievable_curve([], 0.01, 1.0) == []

    # eps -> (mean ML evaluations per solve, lockstep rounds per chunk).
    _CURVE_BUDGET = {0.5: (4.4, 9), 1e-2: (4.4, 9), 1e-6: (4.9, 9), 1e-12: (5.4, 9),
                     # Seeded at nld_eps_approx with a first step of 1/n: 9.79 and 13.
                     1e-300: (9.79, 10)}

    @pytest.mark.parametrize("eps", list(_CURVE_BUDGET))
    def test_curve_evaluation_budget(self, monkeypatch, eps):
        # On the benchmark's 50-n chunks the lockstep solve takes at most
        # chunk_rounds rounds of _sphere_ml_curves, and evaluates the ML bound
        # at exactly as many points as the scalar solver does, at most
        # mean_evals per solve, and at most 180 rounds in all at eps = 0.01.
        mean_evals, chunk_rounds = self._CURVE_BUDGET[eps]
        evals = {"rounds": 0, "curve": 0, "scalar": 0}
        rounds = 0

        def curves(t, d, _curves=dispersion._sphere_ml_curves):
            evals["rounds"] += 1
            evals["curve"] += len(t.n)
            return _curves(t, d)

        def scalar(point):
            evals["scalar"] += 1
            return ml_bound(point)

        monkeypatch.setattr(dispersion, "_sphere_ml_curves", curves)
        for lo in range(2, 2001, 50):
            ns = range(lo, min(lo + 49, 2000) + 1)
            evals["rounds"] = 0
            nld_eps_achievable_curve(ns, eps, 1.0)
            assert evals["rounds"] <= chunk_rounds, (lo, evals)
            rounds += evals["rounds"]
            for n in ns:
                _scalar_ml_solve(n, eps, 1.0, scalar)
        assert evals["curve"] == evals["scalar"]
        assert evals["curve"] / 1999 <= mean_evals
        assert eps != 1e-2 or rounds <= 180, rounds

    def test_n_only_terms_built_once_per_call(self, monkeypatch):
        # The lockstep rounds evaluate only what depends on delta.
        built = []

        def counted(n, _dim_terms=dispersion._dim_terms):
            built.append(len(n))
            return _dim_terms(n)

        monkeypatch.setattr(dispersion, "_dim_terms", counted)
        nld_eps_achievable_curve(range(2, 52), 0.01, 1.0)
        nld_eps_achievable(10, 0.01, 1.0)
        assert built == [50, 1]

    @pytest.mark.parametrize("eps, constant", [(0.5, 0.008), (1e-2, 0.95), (1e-6, 5.15),
                                               (1e-12, 15.05)])
    def test_converse_third_order_expansion(self, eps, constant):
        # delta_conv = delta* - z/sqrt(2n) + [ln(pi n)/2 + 1/3 + z^2/6]/n
        # + O(n^-3/2) with z = Q^-1(eps); constant is the largest n^3/2 times
        # the remainder measured over these n.
        z = q_func_inv(eps)
        for n in (10**3, 10**4, 10**5, 10**6, 10**7):
            expansion = (DS - z / math.sqrt(2.0 * n)
                         + (0.5 * math.log(math.pi * n) + 1.0 / 3.0 + z * z / 6.0) / n)
            remainder = nld_eps_converse(n, eps, 1.0).delta - expansion
            assert n**1.5 * abs(remainder) <= 1.2 * constant, (n, remainder)

    @pytest.mark.parametrize("eps, constant", [(0.5, 0.311), (1e-2, 0.866), (1e-6, 5.77),
                                               (1e-12, 22.1)])
    def test_converse_fourth_order_expansion(self, eps, constant):
        # The next term of the expansion above, -(z^3 + 5z)/(18 sqrt 2) n^-3/2,
        # leaves an O(n^-2) remainder; constant is the largest n^2 times it
        # measured over these n (at 1e7 it includes the solve's rounding).
        z = q_func_inv(eps)
        for n in (10**3, 10**4, 10**5, 10**6, 10**7):
            expansion = (DS - z / math.sqrt(2.0 * n)
                         + (0.5 * math.log(math.pi * n) + 1.0 / 3.0 + z * z / 6.0) / n
                         - (z**3 + 5.0 * z) / (18.0 * math.sqrt(2.0)) / n**1.5)
            remainder = nld_eps_converse(n, eps, 1.0).delta - expansion
            assert n * n * abs(remainder) <= 1.2 * constant, (n, remainder)

    def test_monotone_in_eps(self):
        assert (nld_eps_converse(50, 0.001, 1.0).delta
                < nld_eps_converse(50, 0.01, 1.0).delta
                < nld_eps_converse(50, 0.1, 1.0).delta)
        assert (nld_eps_achievable(50, 0.001, 1.0).delta
                < nld_eps_achievable(50, 0.01, 1.0).delta)


class TestVnrAndGaps:
    def test_vnr_at_anchors(self):
        assert vnr_from_nld(DS, 1.0) == pytest.approx(1.0, rel=1e-14)
        assert vnr_from_nld(delta_cr(1.0), 1.0) == pytest.approx(2.0, rel=1e-14)
        assert vnr_from_nld(-1.5, 1.0) == pytest.approx(1.1760048028, abs=1e-9)

    def test_vnr_inf_past_double_range(self):
        assert vnr_from_nld(-800.0, 1.0) == math.inf

    def test_vnr_opt_consistency_with_nld_expansion(self):
        for n in (100, 300, 1000, 10000):
            mu_direct = vnr_opt_approx(n, 0.01)
            mu_from_nld = vnr_from_nld(nld_eps_approx(n, 0.01, 1.0), 1.0)
            assert abs(mu_direct - mu_from_nld) <= 20.0 / n

    def test_vnr_opt_at_half(self):
        assert vnr_opt_approx(100, 0.5) == pytest.approx(1.0 - math.log(100.0) / 100.0,
                                                         abs=1e-12)

    def test_vnr_opt_tends_to_one(self):
        vals = [abs(vnr_opt_approx(n, 0.02) - 1.0) for n in (100, 10000, 1000000)]
        assert vals[0] > vals[1] > vals[2]
        assert vals[2] < 5e-3

    def test_gap_db_published_anchors(self):
        assert round(gap_db(-1.5, 1.0), 3) == 0.704
        assert round(gap_db(-2.0, 1.0), 2) == 5.05
        assert round(gap_db(delta_cr(1.0), 1.0), 2) == 3.01

    @pytest.mark.parametrize("fn", [vnr_from_nld, gap_db])
    @pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_nld(self, fn, delta):
        # vnr_from_nld(nan, 1) returned nan and gap_db(inf, 1) returned -inf.
        with pytest.raises(ValueError, match="NLD must be finite"):
            fn(delta, 1.0)

    def test_gap_db_affine_slope(self):
        d1, d2 = -1.3, -2.2
        slope = (gap_db(d2, 1.0) - gap_db(d1, 1.0)) / (d2 - d1)
        assert slope == pytest.approx(-8.6858896, abs=1e-6)
        assert DB_PER_NAT == pytest.approx(8.685889638, abs=1e-8)


class TestLatticeSnr:
    def test_matches_terms_rho(self):
        p = ChannelPoint(57, -1.6, 1.0)
        assert lattice_snr_rho(p) == terms(p).rho_star
        # r_eff^2 overflows at n = 1000, d = -355 - ln V_n / n, but rho* = e^710 / n,
        # 2.23e305, does not.
        p = ChannelPoint(1000, -355.0 - log_vn(1000) / 1000, 1.0)
        assert lattice_snr_rho(p) == terms(p).rho_star < math.inf
        assert math.log(terms(p).rho_star) == pytest.approx(710.0 - math.log(1000.0), rel=1e-14)

    def test_scale_free_where_r_eff_squared_overflows(self):
        p = ChannelPoint(57, -1.6 - 0.5 * math.log(1e308), 1e308)
        ref = lattice_snr_rho(ChannelPoint(57, -1.6, 1.0))
        assert lattice_snr_rho(p) == pytest.approx(ref, rel=1e-12)
        assert terms(p).rho_star == pytest.approx(ref, rel=1e-12)

    def test_inf_past_double_range(self):
        # r_eff/sigma itself overflows at delta = -800.
        assert lattice_snr_rho(ChannelPoint(4, -800.0, 1.0)) == math.inf

    def test_finite_where_only_r_eff_squared_overflows(self):
        # ln rho = 700 at n = 10^6, where r_eff^2 is about e^714.
        n = 10**6
        d = -0.5 * (700.0 + math.log(n)) - log_vn(n) / n
        assert lattice_snr_rho(ChannelPoint(n, d, 1.0)) == pytest.approx(math.exp(700.0), rel=1e-12)

    @pytest.mark.parametrize("n, d", [(1, -1.5), (4, 300.0), (57, -1.6), (4, -354.0), (10**6, -2.0)])
    def test_value_unchanged_in_range(self, n, d):
        s = effective_radius(ChannelPoint(n, d, 1.0))
        assert lattice_snr_rho(ChannelPoint(n, d, 1.0)) == s * s / n

    def test_tends_to_vnr(self):
        # rho/mu = (n pi)^(1/n) (1 + O(1/n^2)): 0.81% at n=1000, shrinking
        p = ChannelPoint(1000, -1.5, 1.0)
        dev1000 = abs(lattice_snr_rho(p) / vnr_from_nld(-1.5, 1.0) - 1.0)
        assert dev1000 == pytest.approx((1000 * math.pi) ** 1e-3 - 1.0, abs=1e-5)
        big = ChannelPoint(100000, -1.5, 1.0)
        assert abs(lattice_snr_rho(big) / vnr_from_nld(-1.5, 1.0) - 1.0) < dev1000

    def test_closed_form_at_n2_capacity(self):
        # rho = e^{-2 delta*} / (V_2 * 2 sigma2) = 2 pi e / (2 pi) = e
        p = ChannelPoint(2, DS, 1.0)
        assert lattice_snr_rho(p) == pytest.approx(math.e, rel=1e-13)


class TestNormalizedErrorProb:
    def test_identity_at_n1(self):
        assert normalized_error_prob(0.017, 1) == pytest.approx(0.017, rel=1e-15)

    def test_frozen_value(self):
        assert normalized_error_prob(1e-5, 24) == pytest.approx(2.399724020e-4, rel=1e-9)

    @given(st.floats(min_value=1e-9, max_value=0.2),
           st.integers(min_value=1, max_value=40),
           st.integers(min_value=1, max_value=40))
    @settings(max_examples=80, deadline=None)
    def test_composability(self, eps1, a, b):
        direct = normalized_error_prob(eps1, a * b)
        staged = normalized_error_prob(normalized_error_prob(eps1, a), b)
        assert abs(direct - staged) <= 1e-15
