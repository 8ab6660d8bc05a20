"""Fixed-error-probability analysis: normal approximation of the noise-norm
tail with a Berry-Esseen guarantee, numeric inversion of the finite-n bounds,
the closed-form dispersion expansion, VNR and dB gap conversions.

Inversion uses Chandrupatla's method (Chandrupatla, Adv. Eng. Software
28(3):145-149, 1997) on a bracket found by walking from a seed toward the
root: the bounds are strictly increasing in the NLD and smooth in the log
domain, so inverse quadratic interpolation converges superlinearly, and
derivative-free iteration avoids underflow-driven derivative noise.  The
converse is seeded at its closed form through scipy's inverse of the
chi-square tail, so the walk only certifies it; the achievable bound is
seeded at that closed form less the gap between the two roots, about 1/n,
with a first step of about the seed's error.  One coroutine holds the method:
:func:`nld_eps_converse` drives it on the scalar sphere bound, and
:func:`nld_eps_achievable_curve` runs the achievable inversions one per n in
lockstep: each round evaluates the ML bound once over every unfinished n, on
terms in n alone computed once per call.
"""

import math
import sys
from itertools import repeat
from typing import NamedTuple

import numpy as np
from scipy.special import cython_special as _cs

from .bounds import (ChannelPoint, _check_dims, _dim_terms,
                     _sphere_ml_curves, _unit_nld, _unit_radius, delta_star, sphere_bound)
# Not called here: bench/tracing.py wraps icawgn.dispersion.integrate_adaptive and ml_bound.
from .bounds import integrate_adaptive, ml_bound
from .specfn import (_LOG_DBL_MAX, LogProb, _check_int, _check_nld, _check_positive_or_inf,
                     _check_prob, _check_sigma2, _exp_or_inf, log_vn, q_func, q_func_inv)

__all__ = [
    "InversionResult",
    "DB_PER_NAT",
    "norm_tail_normal_approx",
    "berry_esseen_T",
    "nld_eps_approx",
    "nld_eps_converse",
    "nld_eps_achievable",
    "nld_eps_achievable_curve",
    "vnr_from_nld",
    "vnr_opt_approx",
    "gap_db",
    "lattice_snr_rho",
    "normalized_error_prob",
]

# 10 log10 e^2 = 20 / ln 10 decibels per nat of NLD gap.
DB_PER_NAT = 20.0 / math.log(10.0)

_MAX_ITER = 200
_TOL = 1e-10          # width of the final bracket, in nats
_VALUE_TOL = 1e-10    # largest |bound - eps| at the root
# Widest bracket searched for the root before giving up, in nats.
_MAX_BRACKET = 8192.0

# E|(X^2 - 1)/sqrt 2|^3 for standard Gaussian X: splitting at |x| = 1 and
# integrating by parts gives (48 phi(1) + 32 Q(1) - 8) / 2^(3/2).
_BERRY_ESSEEN_T = (48.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
                   + 32.0 * q_func(1.0) - 8.0) / 2.0 ** 1.5


class InversionResult(NamedTuple):
    """A solved NLD, an immutable tuple: the bound at ``delta`` meets the
    target within tolerance."""

    delta: float
    bound_value: LogProb
    iterations: int
    bracket_width: float


def norm_tail_normal_approx(n: int, r: float, sigma2: float):
    """Normal approximation of Pr{||Z|| > r} with its Berry-Esseen guarantee.

    Returns (approx, guarantee) with approx = Q((r^2 - n sigma2)/(sigma2 sqrt(2n)))
    and |Pr{||Z|| > r} - approx| <= guarantee = 6 T / sqrt(n).
    """
    _check_int(n)
    _check_positive_or_inf(r, "radius")
    _check_sigma2(sigma2)
    s = r / math.sqrt(sigma2)
    approx = q_func((s * s - n) / math.sqrt(2.0 * n))
    guarantee = 6.0 * berry_esseen_T() / math.sqrt(n)
    return approx, guarantee


def berry_esseen_T() -> float:
    """Third absolute moment E|(X^2-1)/sqrt 2|^3 of the standardized squared
    Gaussian, from its closed form (48 phi(1) + 32 Q(1) - 8)/2^(3/2)
    = 3.0729315338...  Within 1 ulp (4.5e-16) of the exact value."""
    return _BERRY_ESSEEN_T


def nld_eps_approx(n: int, eps: float, sigma2: float) -> float:
    """Closed-form dispersion expansion of the optimal NLD at error
    probability eps:  delta* - sqrt(1/(2n)) Qinv(eps) + ln(n)/(2n)."""
    _check_prob(eps)
    _check_int(n)
    return (delta_star(sigma2) - math.sqrt(0.5 / n) * q_func_inv(eps)
            + 0.5 * math.log(n) / n)


def _chandrupatla(n, eps, kind, seed, step, shift):
    """Chandrupatla root of ln bound(n, delta, 1) = ln eps in delta, as a coroutine:
    yields each delta, is sent ln bound there, and returns the result at delta - ``shift``.

    The bounds are strictly increasing in delta, so a sign change pins the
    unique root.  The search evaluates the bound at ``seed`` and walks from
    there toward the root, doubling ``step`` after every move, until the sign
    changes; the last two points are the bracket, so a seed within ``step``
    of the root is itself one end of it.  Chandrupatla's method then
    shrinks it, by a secant step first, then by inverse quadratic steps
    where the interpolant is monotone over the bracket and by bisection
    otherwise, until it is at most ``_TOL`` wide and the bound matches eps
    to ``_VALUE_TOL`` (or the bracket hits float resolution).
    ``iterations`` counts the bound evaluations after the bracket is found;
    ``bracket_width`` is the width of the final sign-change bracket.
    """
    log_eps = math.log(eps)
    # At least float resolution, which the ML walk's 1/n step is below for
    # n above about 1.6e15.
    step = max(2.0 * sys.float_info.epsilon * max(abs(seed), 1.0), step)
    lo = hi = seed
    f_lo = f_hi = (yield seed) - log_eps
    while f_lo > 0.0 or f_hi < 0.0:
        if hi - lo > _MAX_BRACKET:
            raise ValueError(
                f"target eps={eps} not bracketed for the {kind} bound at n={n}: "
                f"bound({lo - shift:.4f})={math.exp(f_lo + log_eps):.3e}, "
                f"bound({hi - shift:.4f})={math.exp(f_hi + log_eps):.3e}")
        if f_lo > 0.0:
            hi, f_hi = lo, f_lo
            lo -= step
            f_lo = (yield lo) - log_eps
        else:
            lo, f_lo = hi, f_hi
            hi += step
            f_hi = (yield hi) - log_eps
        step *= 2.0

    # Chandrupatla: [a, b] is the bracket and the next point a + t (b - a);
    # from the first step on, a is the newest point and c the one it displaced.
    a, f_a, b, f_b = lo, f_lo, hi, f_hi
    iterations = 0
    while True:
        cur, f_cur = (b, f_b) if abs(f_b) < abs(f_a) else (a, f_a)
        resolution = 2.0 * sys.float_info.epsilon * max(abs(cur), 1.0)
        # Past ln DBL_MAX expm1 overflows, and the bound is far from eps.
        value_ok = f_cur <= _LOG_DBL_MAX and abs(math.expm1(f_cur)) * eps <= _VALUE_TOL
        width = abs(b - a)
        if (f_cur == 0.0 or width <= 2.0 * resolution
                or (value_ok and width <= _TOL) or iterations >= _MAX_ITER):
            break
        # Smallest step: half the tolerance, or float resolution while the
        # value still misses eps.
        min_step = max(0.5 * _TOL, resolution) if value_ok else resolution
        if iterations == 0:
            t = f_a / (f_a - f_b)   # secant
        else:
            xi = (a - b) / (c - b)
            phi = (f_a - f_b) / (f_c - f_b)
            # Inverse quadratic through a, b and c where it is monotone on [a, b].
            iqi = phi * phi < xi and (1.0 - phi) ** 2 < 1.0 - xi
            t = (f_a / (f_b - f_a) * f_c / (f_b - f_c)
                 + (c - a) / (b - a) * f_a / (f_c - f_a) * f_b / (f_c - f_b)) if iqi else 0.5
        tl = min_step / width
        # max(tl, t) is tl for a NaN t: the secant from an exact zero (f = -inf).
        x = a + min(max(tl, t), 1.0 - tl) * (b - a)
        f_x = (yield x) - log_eps
        iterations += 1
        if (f_x > 0.0) == (f_a > 0.0):
            c, f_c = a, f_a
        else:
            c, f_c, b, f_b = b, f_b, a, f_a
        a, f_a = x, f_x
    return InversionResult(delta=cur - shift, bound_value=LogProb(f_cur + log_eps),
                           iterations=iterations, bracket_width=0.0 if f_cur == 0.0 else width)


def _sphere_root(a: float, log_vn_per_n: float, eps: float) -> float:
    # The closed form of nld_eps_converse at sigma2 = 1, at a = n/2.
    return -0.5 * math.log(2.0 * _cs.gammainccinv(a, eps)) - log_vn_per_n


def nld_eps_converse(n: int, eps: float, sigma2: float) -> InversionResult:
    """The NLD at which the sphere bound equals eps: an upper bound on the
    best NLD of any constellation with error probability eps.

    The root has a closed form: Q(n/2, r_eff^2 / 2 sigma2) = eps at
    r_eff^2 = 2 sigma2 x with x = Q^-1(n/2, eps) (scipy's ``gammainccinv``),
    so delta = -(ln 2x + ln sigma2)/2 - ln V_n / n.  The search starts
    there, at sigma2 = 1, with a first step of half the tolerance and
    usually ends after two bound evaluations and no Chandrupatla iteration.
    The sign change still certifies the root because scipy's inverse is not
    accurate everywhere: in the deep lower tail at large shape (a = 5e6,
    n = 1e7) it is 2.1e-8 relative off at eps = 1 - 2^-53 and 6.8e-8 off at
    eps = 1 - 2^-40, which moves delta by about 1e-8, past the tolerance;
    the walk then takes a few more evaluations.
    """
    _check_prob(eps)
    _check_int(n)
    _check_sigma2(sigma2)
    seed = _sphere_root(0.5 * n, log_vn(n) / n, eps)
    solver = _chandrupatla(n, eps, "sphere", seed, 0.5 * _TOL, 0.5 * math.log(sigma2))
    delta = next(solver)
    try:
        while True:
            delta = solver.send(sphere_bound(ChannelPoint(n=n, nld=delta, sigma2=1.0)).log_raw)
    except StopIteration as done:
        return done.value


def nld_eps_achievable(n: int, eps: float, sigma2: float) -> InversionResult:
    """The NLD at which the ML bound (at its optimizing radius) equals eps:
    a constellation with this NLD and error probability <= eps exists.

    The search starts at the converse's closed form less the gap between the
    two roots, [1 + z/sqrt(2n) + (z^2 - 1)/n]/n with z = Q^-1(eps), and its
    first step is about the error of that expansion, so that the seed and
    one step usually bracket the root.  Range: the delta returned is checked
    against the fixed-eps expansion up to n of about 1e15 only.  Past it some
    n are off by about 5e-8 (at eps = 0.01, 4.1e-8 at n = 3 * 2^59 and
    5.3e-8 at 2^62), while others, 2^60 and 2^63 - 1 among them, are exact;
    ROADMAP.md keeps this open."""
    return nld_eps_achievable_curve([n], eps, sigma2)[0]


def _ml_start(t, eps: float):
    # Seeds and first steps of the ML solves at the dimensions of the
    # _DimTerms t, at sigma2 = 1.  With z = Q^-1(eps), n (delta_conv -
    # delta_ach) = 1 + z/sqrt(2n) + (z^2 - 1)/n + O(n^-3/2).  The first two
    # terms come from expanding both bounds to second order about the
    # converse root, where the ML bound's first term over the sphere bound's
    # slope is about 1/(2(n - x)) at x = r_eff^2/2 = n/2 + z sqrt(n/2); the
    # third is measured (to 4 digits at n = 1e6, eps from 1e-12 to 0.5), and
    # so is the step, about the seed's error.
    z = q_func_inv(eps)
    n = t.n
    conv = np.fromiter(map(_sphere_root, t.a.tolist(), t.log_vn_per_n.tolist(), repeat(eps)),
                       float, n.size)
    seeds = conv - (1.0 + z / np.sqrt(2.0 * n) + (z * z - 1.0) / n) / n
    steps = (0.5 * (1.0 + z * z) + abs(z) ** 3 / np.sqrt(n)) / (n * n)
    return seeds, steps


def nld_eps_achievable_curve(ns, eps: float, sigma2: float) -> list[InversionResult]:
    """What ``[nld_eps_achievable(n, eps, sigma2) for n in ns]`` returns, solved in lockstep."""
    # One solver per n; each round, one _sphere_ml_curves call feeds every
    # unfinished one, on the n-only terms computed once here.
    _check_sigma2(sigma2)
    _check_prob(eps)
    ns, shift = list(ns), 0.5 * math.log(sigma2)
    if not ns:
        return []
    terms = _dim_terms(_check_dims(ns))
    seeds, steps = _ml_start(terms, eps)
    solvers = [_chandrupatla(n, eps, "ml", seed, step, shift)
               for n, seed, step in zip(ns, seeds.tolist(), steps.tolist())]
    live = {i: next(solver) for i, solver in enumerate(solvers)}   # index -> delta to evaluate
    results = [None] * len(ns)
    while live:
        t = terms.take(np.fromiter(live, np.intp, len(live)))
        _, logs = _sphere_ml_curves(t, np.fromiter(live.values(), float, len(live)))
        for i, log_bound in zip(list(live), logs.tolist()):
            try:
                live[i] = solvers[i].send(log_bound)
            except StopIteration as done:
                results[i] = done.value
                del live[i]
    return results


def vnr_from_nld(delta: float, sigma2: float) -> float:
    """Volume-to-noise ratio mu = e^(2(delta* - delta)), inf past double range."""
    _check_nld(delta)
    return _exp_or_inf(2.0 * (delta_star(sigma2) - delta))


def vnr_opt_approx(n: int, eps: float) -> float:
    """Dispersion expansion of the optimal VNR: 1 + sqrt(2/n) Qinv(eps) - ln(n)/n."""
    _check_prob(eps)
    _check_int(n)
    return 1.0 + math.sqrt(2.0 / n) * q_func_inv(eps) - math.log(n) / n


def gap_db(delta: float, sigma2: float) -> float:
    """Gap to capacity in decibels: 10 log10 e^(2(delta*-delta))."""
    _check_nld(delta)
    return DB_PER_NAT * (delta_star(sigma2) - delta)


def lattice_snr_rho(point: ChannelPoint) -> float:
    """Squared effective-radius-to-noise ratio r_eff^2 / (n sigma2); converges
    to the VNR as n grows.  inf past double range."""
    s = _unit_radius(point.n, _unit_nld(point), log_vn(point.n))
    return s * s / point.n if s < 1e154 else s * (s / point.n)   # s^2 alone overflows past 1.3e154


def normalized_error_prob(eps1: float, n: int) -> float:
    """Per-block error target 1 - (1 - eps1)^n matching a per-dimension-1
    target eps1, computed through log1p/expm1 so tiny eps1 survive."""
    _check_prob(eps1)
    _check_int(n)
    return -math.expm1(n * math.log1p(-eps1))
