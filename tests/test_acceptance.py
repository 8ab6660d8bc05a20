"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Criteria assert what the library's docstrings promise: criterion 2
that the asymptotic forms approach the exact bounds at the documented
O(log^2 n / n) rate, criterion 9 that the Berry-Esseen constant matches its
exact value, computed in mpmath both by quadrature and in closed form.
"""

import math

import mpmath
import numpy as np

from icawgn.asymptotics import (
    exponent_r,
    exponent_sp,
    ml_asymptotic,
    ml_sandwich,
    sphere_asymptotic,
    sphere_sandwich,
    typicality_asymptotic,
)
from icawgn.bounds import (
    ChannelPoint,
    delta_cr,
    delta_star,
    effective_radius,
    equivalence_check,
    ml_bound,
    sphere_bound,
    typicality_bound,
)
from icawgn.dispersion import (
    berry_esseen_T,
    gap_db,
    nld_eps_achievable,
    nld_eps_approx,
    nld_eps_converse,
    norm_tail_normal_approx,
    vnr_from_nld,
    vnr_opt_approx,
)
from icawgn.lattices import builtin, clopper_pearson, simulate_error_prob
from icawgn.specfn import log_vn, q_func_inv, reg_gamma_upper

from helpers import log_ml_first_term_quad

DS = delta_star(1.0)
DCR = delta_cr(1.0)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num:>2} {name}: {status}" + (f"  [{detail}]" if detail else ""))


def test_criterion_01_sandwich_containment():
    """Sandwich containment for sphere and ML at delta = -1.5 over the
    geometric dimension sweep; the ML sandwich applies only where its
    rho*-window precondition admits the point (here n >= 16)."""
    ns = [4 * 2 ** k for k in range(9)]  # 4 .. 1024
    violations = []
    ml_skipped = []
    for n in ns:
        p = ChannelPoint(n, -1.5, 1.0)
        sw = sphere_sandwich(p)
        exact = sphere_bound(p).log_raw
        if not (sw.lower_analytic.log_value <= exact <= sw.upper.log_value):
            violations.append(("sphere", n))
        try:
            mw = ml_sandwich(p)
        except ValueError:
            ml_skipped.append(n)
            continue
        exact_ml = ml_bound(p).log_raw
        if not (mw.lower_analytic.log_value <= exact_ml <= mw.upper.log_value):
            violations.append(("ml", n))
    ok = not violations and ml_skipped == [4, 8]
    report(1, "sandwich containment (n=4..1024, delta=-1.5)", ok,
           f"violations={violations}, ml window skips={ml_skipped}")
    assert not violations
    # the only inapplicable points are the documented window exclusions
    assert ml_skipped == [4, 8]


def test_criterion_02_asymptotic_convergence():
    """The sphere, ML and typicality asymptotic forms converge to their exact
    bounds at delta=-1.5 at the documented O(log^2 n / n) relative rate.

    Each form is strictly closer at n=1000 than at n=100; its deviation
    |exact/asymptotic - 1| shrinks over n = 1e3, 1e4, 1e5; and the scaled
    deviation n |dev| / ln^2 n at n=1e4 and n=1e5 is no larger than at
    n=1000.  A wrong power of n or a dropped constant factor keeps the
    deviation from decaying at that rate.  No fixed percentage is asserted:
    delta=-1.5 sits only 0.08 nat below delta*, where the O(log^2 n / n)
    constant is large (deviations 0.12 / 0.10 / 0.06 at n=1000).
    """
    def devs(n):
        p = ChannelPoint(n, -1.5, 1.0)
        ratios = {
            "sphere": math.exp(sphere_bound(p).log_raw - sphere_asymptotic(p).log_value),
            "ml": math.exp(ml_bound(p).log_raw - ml_asymptotic(p).log_value),
            "typicality": math.exp(typicality_bound(p).log_raw
                                   - typicality_asymptotic(p).log_value),
        }
        return {k: abs(v - 1.0) for k, v in ratios.items()}

    def scaled(n, d):
        return n * d / math.log(n) ** 2

    d100, d1e3, d1e4, d1e5 = (devs(n) for n in (100, 1000, 10 ** 4, 10 ** 5))
    improving = all(d1e3[k] < d100[k] for k in d1e3)
    decaying = {k: d1e5[k] < d1e4[k] < d1e3[k] for k in d1e3}
    at_rate = {k: max(scaled(10 ** 4, d1e4[k]), scaled(10 ** 5, d1e5[k]))
               <= scaled(1000, d1e3[k]) for k in d1e3}
    ok = improving and all(decaying.values()) and all(at_rate.values())
    report(2, "asymptotic convergence at the O(log^2 n / n) rate", ok,
           "n*|dev|/ln^2 n at n=1e3/1e4/1e5: "
           + ", ".join(f"{k}={scaled(1000, d1e3[k]):.2f}/{scaled(10 ** 4, d1e4[k]):.2f}"
                       f"/{scaled(10 ** 5, d1e5[k]):.2f}" for k in d1e3)
           + f"; improving vs n=100: {improving}")
    assert improving
    assert all(decaying.values()), (
        f"asymptotic-form deviations at delta=-1.5 do not shrink over "
        f"n=1e3, 1e4, 1e5: {d1e3}, {d1e4}, {d1e5}")
    assert all(at_rate.values()), (
        f"n*|dev|/ln^2 n grows past its n=1000 value at delta=-1.5: "
        + str({k: (scaled(1000, d1e3[k]), scaled(10 ** 4, d1e4[k]),
                   scaled(10 ** 5, d1e5[k])) for k in d1e3}))


def test_criterion_03_equivalence_identity():
    """Section-integral identity to 1e-6 relative on the (n, r, sigma2) grid."""
    worst = 0.0
    for n in (2, 3, 4):
        for r in (0.5, 1.0, 2.0):
            for s2 in (0.5, 1.0):
                worst = max(worst, equivalence_check(n, r, s2))
    ok = worst <= 1e-6
    report(3, "equivalence identity (18 single integrals)", ok, f"worst rel={worst:.2e}")
    assert ok


def test_criterion_04_ml_closed_form_vs_quadrature():
    """Closed-form first term of the ML bound vs adaptive quadrature of its
    integrand, to 1e-10 relative."""
    from icawgn.bounds import _ml_first_term
    worst = 0.0
    for n in (4, 16, 64):
        for d in (-1.5, -2.0):
            r = effective_radius(ChannelPoint(n, d, 1.0))
            closed = _ml_first_term(n, d, r, log_vn(n))
            oracle = log_ml_first_term_quad(n, d, 1.0, r)
            worst = max(worst, abs(math.expm1(closed - oracle)))
    ok = worst <= 1e-10
    report(4, "ML closed form vs quadrature", ok, f"worst rel={worst:.2e}")
    assert ok


def test_criterion_05_er_constant_resolution():
    """The fitted exponential slope of the ML bound pins the below-critical
    line constant to (1/2) ln(e/4) and rejects the ln(e/4) variant."""
    d = DCR - 0.3
    ns = np.array([500.0, 1000.0, 2000.0, 3000.0])
    ys = np.array([-ml_bound(ChannelPoint(int(n), d, 1.0)).log_raw for n in ns])
    slope = float(np.polyfit(ns, ys, 1)[0])
    half_const = exponent_r(d, 1.0)                      # uses (1/2) ln(e/4)
    full_const = (DS - d) + math.log(math.e / 4.0)       # printed variant
    dev_half = abs(slope / half_const - 1.0)
    dev_full = abs(slope / full_const - 1.0)
    ok = dev_half <= 0.01 and dev_full > 0.10
    report(5, "E_r line-constant resolution", ok,
           f"slope={slope:.6f}, vs half-const dev={dev_half:.4%}, "
           f"vs printed-const dev={dev_full:.2%}")
    assert dev_half <= 0.01
    assert dev_full > 0.10


def test_criterion_06_exponent_curvature():
    """Second derivative of the converse exponent at capacity equals 2,
    confirming dispersion 1/2.  The central difference is shifted one step
    below capacity so all three stencil points stay in the exponent's
    domain (above capacity the exponent is identically zero)."""
    h = 1e-4
    est = (exponent_sp(DS, 1.0) - 2.0 * exponent_sp(DS - h, 1.0)
           + exponent_sp(DS - 2.0 * h, 1.0)) / h ** 2
    ok = abs(est - 2.0) <= 1e-3
    report(6, "exponent curvature at capacity", ok, f"estimate={est:.6f}")
    assert ok


def test_criterion_07_dispersion_bracket():
    """Achievable <= converse, both within 20/n of the closed-form expansion,
    for eps=0.01 across the dimension grid."""
    rows = []
    for n in (20, 50, 100, 500, 1000, 5000):
        conv = nld_eps_converse(n, 0.01, 1.0).delta
        ach = nld_eps_achievable(n, 0.01, 1.0).delta
        approx = nld_eps_approx(n, 0.01, 1.0)
        rows.append((n, ach <= conv, n * (conv - approx), n * (ach - approx)))
    ordered = all(r[1] for r in rows)
    max_const = max(max(abs(r[2]), abs(r[3])) for r in rows)
    ok = ordered and max_const <= 20.0
    report(7, "dispersion bracket (O(1/n) remainder)", ok,
           f"ordered={ordered}, fitted constant={max_const:.3f} <= 20")
    assert ordered
    assert max_const <= 20.0


def test_criterion_08_db_anchors():
    """gap_db reproduces the published decibel anchors."""
    vals = (round(gap_db(-1.5, 1.0), 3), round(gap_db(-2.0, 1.0), 2),
            round(gap_db(DCR, 1.0), 2))
    ok = vals == (0.704, 5.05, 3.01)
    report(8, "dB gap anchors", ok, f"{vals} vs (0.704, 5.05, 3.01)")
    assert ok


def _berry_esseen_T_oracle():
    """E|(X^2-1)/sqrt 2|^3 two ways in 30-digit mpmath: quadrature of the
    defining integral split at the kink |x|=1, and the closed form
    (48 phi(1) + 32 Q(1) - 8) / 2^(3/2)."""
    with mpmath.workdps(30):
        f = lambda x: abs((x * x - 1) / mpmath.sqrt(2)) ** 3 * mpmath.npdf(x)
        quad = 2 * (mpmath.quad(f, [0, 1]) + mpmath.quad(f, [1, mpmath.inf]))
        closed = (48 * mpmath.npdf(1) + 32 * mpmath.ncdf(-1) - 8) / mpmath.mpf(2) ** 1.5
        return float(closed), float(abs(quad - closed))


def test_criterion_09_berry_esseen():
    """Normal-approximation guarantee unviolated on a 1e4-point grid, and the
    third-moment constant T within 1e-9 absolute of its exact value
    3.0729315338..., where the mpmath quadrature and closed form agree."""
    T = berry_esseen_T()
    worst_margin = 0.0
    ns = np.unique(np.logspace(0, 4, 100).astype(int))
    for n in ns:
        lo = max(0.05, 1.0 - 8.0 / math.sqrt(n))
        hi = 1.0 + 8.0 / math.sqrt(n)
        for r2 in np.linspace(lo * n, hi * n, 100):
            exact = reg_gamma_upper(0.5 * n, 0.5 * r2)
            approx, guarantee = norm_tail_normal_approx(int(n), math.sqrt(r2), 1.0)
            worst_margin = max(worst_margin, abs(exact - approx) / guarantee)
    grid_ok = worst_margin <= 1.0
    t_exact, oracle_gap = _berry_esseen_T_oracle()
    oracle_ok = oracle_gap <= 1e-20
    t_ok = abs(T - t_exact) <= 1e-9
    report(9, "Berry-Esseen constant and guarantee", grid_ok and oracle_ok and t_ok,
           f"T={T:.10f} vs exact {t_exact:.10f} (|diff|={abs(T - t_exact):.1e} <= 1e-9: "
           f"{t_ok}), guarantee margin={worst_margin:.4f} (<=1: {grid_ok})")
    assert grid_ok
    assert oracle_ok, (
        f"mpmath quadrature and closed form of T disagree by {oracle_gap:.1e}")
    assert t_ok, (
        f"berry_esseen_T()={T:.12f} is not within 1e-9 of the exact "
        f"E|(X^2-1)/sqrt 2|^3 = (48 phi(1) + 32 Q(1) - 8)/2^1.5 = {t_exact:.12f} "
        f"(the former reference anchor 3.0785 +- 0.0005 is 0.0056 off the exact value)")


def test_criterion_10_monte_carlo_vs_analytic():
    """Z at the 1% operating point: the 1e7-trial, 1 - 1e-6 Clopper-Pearson
    interval covers the closed form.  E8 near 1%: the estimate respects the
    sphere-bound converse."""
    sigma = 0.5 / q_func_inv(0.005)  # 2 Q(1/(2 sigma)) = 0.01
    z1 = simulate_error_prob(builtin("Z1"), sigma * sigma, 10 ** 7, seed=1)
    z1_lo, z1_hi = clopper_pearson(z1.errors, z1.trials, confidence=1.0 - 1e-6)
    z1_ok = z1_lo <= 0.01 <= z1_hi

    e8 = builtin("E8")
    s2 = 0.185 ** 2
    est = simulate_error_prob(e8, s2, 10 ** 6, seed=2)
    floor = sphere_bound(ChannelPoint(8, e8.nld, s2)).value
    e8_ok = est.p_hat + 3.0 * est.stderr >= floor
    ok = z1_ok and e8_ok
    report(10, "Monte Carlo vs analytic", ok,
           f"Z1 1-1e-6 CI=({z1_lo:.5f},{z1_hi:.5f}) covers 0.01: {z1_ok}; "
           f"E8 p_hat={est.p_hat:.5f} vs sphere floor {floor:.5f}: {e8_ok}")
    assert z1_ok
    assert e8_ok


def test_criterion_11_vnr_consistency():
    """The closed-form optimal-VNR expansion matches the exponential of the
    NLD expansion within 20/n for n >= 100."""
    worst = 0.0
    for n in (100, 200, 500, 1000, 10000, 1000000):
        direct = vnr_opt_approx(n, 0.01)
        via_nld = vnr_from_nld(nld_eps_approx(n, 0.01, 1.0), 1.0)
        worst = max(worst, abs(direct - via_nld) * n)
    ok = worst <= 20.0
    report(11, "VNR expansion consistency", ok, f"max n*|diff|={worst:.3f} <= 20")
    assert ok
