import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from icawgn.bounds import BoundValue, ChannelPoint, delta_cr, delta_star, ml_bound, sphere_bound
from icawgn.dispersion import (
    DB_PER_NAT,
    _invert_bound,
    berry_esseen_T,
    gap_db,
    lattice_snr_rho,
    nld_eps_achievable,
    nld_eps_approx,
    nld_eps_converse,
    norm_tail_normal_approx,
    normalized_error_prob,
    vnr_from_nld,
    vnr_opt_approx,
)
from icawgn.asymptotics import terms
from icawgn.specfn import LogProb, q_func, reg_gamma_upper

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
        assert berry_esseen_T() == pytest.approx(closed, abs=1e-9)
        with mpmath.workdps(30):
            exact = (48 * mpmath.npdf(1) + 32 * mpmath.ncdf(-1) - 8) / mpmath.mpf(2) ** 1.5
            assert abs(berry_esseen_T() - exact) <= 4.5e-16

    def test_within_type_invariant(self):
        assert 3.0 <= berry_esseen_T() <= 3.2

    def test_even_integrand_symmetry(self):
        f = lambda x: abs((x * x - 1.0) / math.sqrt(2.0)) ** 3 \
            * math.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        full = (integrate.quad(f, -np.inf, -1.0)[0] + integrate.quad(f, -1.0, 0.0)[0]
                + integrate.quad(f, 0.0, 1.0)[0] + integrate.quad(f, 1.0, np.inf)[0])
        half = integrate.quad(f, 0.0, 1.0)[0] + integrate.quad(f, 1.0, np.inf)[0]
        assert full == pytest.approx(2.0 * half, rel=1e-10)
        assert berry_esseen_T() == pytest.approx(full, rel=1e-8)

    def test_monte_carlo_cross_check(self):
        rng = np.random.default_rng(123)
        x = rng.standard_normal(10 ** 7)
        y = np.abs((x * x - 1.0) / math.sqrt(2.0)) ** 3
        se = y.std() / math.sqrt(y.size)
        assert abs(berry_esseen_T() - y.mean()) <= 3.0 * se

    def test_cached_and_stable(self):
        assert berry_esseen_T() == berry_esseen_T()


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
            return BoundValue("flat", LogProb(math.log(0.5)), 1.0, False)
        with pytest.raises(ValueError, match="not bracketed"):
            _invert_bound(flat, 10, 0.01, 1.0, 1e-10, "flat")

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
        assert lattice_snr_rho(p) == pytest.approx(terms(p).rho_star, rel=1e-14)

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
