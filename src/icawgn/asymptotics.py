"""Error exponents, analytic sandwich bounds, and precise asymptotic forms.

The sandwich bounds enclose the exact sphere / ML bounds between closed
forms built from first- and second-order expansions of the chi-square
integrands; the asymptotic forms are their common n -> infinity limits,
accurate up to O(log^2 n / n) relative error.  The constant in that
O(.) grows as delta approaches delta* (mu -> 1), so no fixed-n percentage
is promised: at delta = -1.5, 0.08 nat below delta*, the sphere, ML and
typicality forms are off by 12.4%, 10.4% and 6.2% at n = 1000, and about
eight times less per decade of n beyond.  Everything is exact arithmetic
on logs; no quadrature.

The sandwiches are e^C times the integral lemmas' closed forms at x = rho*:
the sphere sandwich those of :func:`tail_integral_bounds`, the ML sandwich
their sums with those of :func:`head_integral_bounds`; the two uppers, whose
denominators add to 1, sum to e^C / ((2 - rho* - 2/n)(rho* - 1 + 2/n)).

:func:`asym_curves` evaluates the sandwiches and the asymptotic forms over
a vector of dimensions at one (delta, sigma2), with NaN where a form is
undefined; all six scalar forms, the ML form at the Poltyrev radius
included, take one :class:`ChannelPoint` through the same code (one
element, with ``_at``) and raise a typed error there instead.

The achievability exponent below the critical NLD is a straight line of
slope -1.  Its additive constant is (1/2) ln(e/4): that value is forced
by continuity with the curved branch at the critical NLD and by the
Laplace evaluation of the ML bound's radial integral, and it is pinned
by the slope-fit acceptance test.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import erfcx

from .bounds import (
    _DELTA_STAR_1,
    ChannelPoint,
    _check_dims,
    _log1p_2x,
    _rho_star,
    _typicality_gap,
    _unit_nld,
    delta_cr,
    delta_star,
)
from .specfn import (_LOG_DBL_MAX, _SQRT2, LogProb, _check_int, _check_nld, _check_not_nan,
                     _check_one_nld, _check_sigma2, _exp_or_inf)

__all__ = [
    "AsymptoticTerms",
    "SandwichBounds",
    "AsymptoticSingularity",
    "CRITICAL_NLD_TOL",
    "exponent_sp",
    "exponent_r",
    "exponent_t",
    "terms",
    "asym_curves",
    "sphere_sandwich",
    "sphere_asymptotic",
    "ml_sandwich",
    "ml_asymptotic",
    "ml_asymptotic_branch",
    "typicality_asymptotic",
    "poltyrev_r_asymptotic",
    "ub_lb_ratio_limit",
    "TailIntegralBounds",
    "HeadIntegralBounds",
    "tail_integral_bounds",
    "head_integral_bounds",
    "laplace_head_integral",
]

# Width of the NLD window treated as exactly critical: the at-critical
# asymptotic form is off by order sqrt(n) from its neighbors and must not
# shadow generic inputs.
CRITICAL_NLD_TOL = 1e-9

# Straight-line constant of the achievability exponent below critical.
ER_LINE_CONSTANT = 0.5 * (1.0 - math.log(4.0))

class AsymptoticSingularity(ValueError):
    """An asymptotic form was requested at (or within float resolution of) one
    of its singular points; the value would be a meaningless large float."""


@dataclass(frozen=True)
class AsymptoticTerms:
    """Derived quantities of the sandwich machinery.

    rho_star: squared effective radius over the mean squared noise norm.
    upsilon, psi: the standardized offsets entering the tail and head
    integral bounds.  mu: the volume-to-noise ratio e^(2(delta*-delta)).
    """

    rho_star: float
    upsilon: float
    psi: float
    mu: float


@dataclass(frozen=True)
class SandwichBounds:
    """Lower (Q-function and elementary) and upper closed forms enclosing a bound."""

    lower_q: LogProb
    lower_analytic: LogProb
    upper: LogProb


def exponent_sp(delta: float, sigma2: float) -> float:
    """Sphere-packing (converse) exponent (1/2)[e^(2 D) - 1 - 2 D], D = delta* - delta.

    Zero at and above capacity, inf where e^(2 D) passes double range.
    expm1 keeps the quadratic behavior near capacity exact, where the raw
    form would cancel catastrophically.
    """
    _check_nld(delta)
    d = delta_star(sigma2) - delta
    if d <= 0.0:
        return 0.0
    if 2.0 * d > _LOG_DBL_MAX:
        return math.inf
    return 0.5 * (math.expm1(2.0 * d) - 2.0 * d)


def exponent_r(delta: float, sigma2: float) -> float:
    """Random-coding (achievability) exponent.

    Equals the sphere-packing exponent on [delta_cr, delta*); below
    delta_cr it is the straight line (delta* - delta) + (1/2) ln(e/4).
    """
    _check_nld(delta)
    if delta >= delta_cr(sigma2):
        return exponent_sp(delta, sigma2)
    return (delta_star(sigma2) - delta) + ER_LINE_CONSTANT


def exponent_t(delta: float, sigma2: float) -> float:
    """Typicality exponent D - (1/2) ln(1 + 2 D), D = delta* - delta, finite
    for D up to the largest double."""
    _check_nld(delta)
    d = _typicality_gap(delta_star(sigma2) - delta)
    return d - 0.5 * _log1p_2x(d)


@np.errstate(all="ignore")
def terms(point: ChannelPoint) -> AsymptoticTerms:
    """The derived quantities rho*, Upsilon, Psi, mu at an evaluation point."""
    _check_int(point.n, 3)
    n, d = np.array([float(point.n)]), _unit_nld(point)
    rho = _rho_star(n, d)
    return AsymptoticTerms(*(float(v[0]) for v in (rho, _upsilon(n, rho), _psi(n, rho))), _mu(d))


def _mu(d: float) -> float:
    return _exp_or_inf(2.0 * (_DELTA_STAR_1 - d))


def _scaled(top, gap, bottom):
    # top gap / bottom, as gap (top / bottom) where top gap overflows (rho* near DBL_MAX / n).
    v = top * gap
    return np.where(np.isinf(v), gap * (top / bottom), v / bottom)


def _upsilon(n, x):
    return _scaled(n, x - 1.0 + 2.0 / n, np.sqrt(2.0 * (n - 2.0)))


def _psi(n, x):
    # At x = inf, the limit -sqrt(n x) / 2, not inf / inf.
    return np.where(x == math.inf, -math.inf, _scaled(np.sqrt(n), 2.0 - x + 2.0 / n, 2.0 * np.sqrt(x)))


def _log_scaled_q(x):
    """ln[e^(x^2/2) Q(x)] = ln(erfcx(x/sqrt 2) / 2), stable for large x."""
    return np.log(0.5 * erfcx(x / _SQRT2))


# The closed forms that tail_integral_bounds and head_integral_bounds list,
# the head's upper before its truncation factor, at x for an array of n or
# one n: the logs of e^base times each, lower_q, lower_analytic, upper.
def _tail_forms(n, x, base):
    upsilon = _upsilon(n, x)
    upper = base - np.log(x - 1.0 + 2.0 / n)
    lower_q = base + (0.5 * np.log(n * n * math.pi / (n - 2.0)) + _log_scaled_q(upsilon))
    return lower_q, upper - np.log1p(upsilon ** -2), upper


def _head_forms(n, x, base):
    psi = _psi(n, x)
    # ln(n pi / 2x), a difference of logs where the ratio overflows (x below about n 1e-308).
    log_ratio = np.log(n * math.pi / (2.0 * x))
    log_ratio = np.where(log_ratio < math.inf, log_ratio, np.log(0.5 * math.pi * n) - np.log(x))
    lower_q = base + (0.5 * log_ratio + _log_scaled_q(psi))
    lower = base - np.log(2.0 - x + 2.0 / n) - np.log1p(psi ** -2)
    return lower_q, lower, base - np.log(2.0 - x - 2.0 / n)


def _common_exponent(n, d: float, rho):
    # C = n(delta* - delta) + n/2 - n rho*/2
    return n * (_DELTA_STAR_1 - d) + 0.5 * n - 0.5 * n * rho


def _require_below_capacity(d: float, what: str) -> None:
    if d >= _DELTA_STAR_1:
        raise ValueError(f"{what} requires delta < delta*")


def _in_ml_window(n, rho):
    return (1.0 - 2.0 / n < rho) & (rho < 2.0 - 2.0 / n)


# The five closed forms over a float array of n at one NLD d in units of
# sigma.  A condition on d alone raises the scalar form's error; the
# sandwiches' limits in n (n > 2, the ML window) give NaN elements.

def _sphere_sandwich(n, d):
    _require_below_capacity(d, "sphere sandwich")
    rho = _rho_star(n, d)
    forms = _tail_forms(n, rho, _common_exponent(n, d, rho))
    return [np.where(n > 2, v, math.nan) for v in forms]


def _ml_sandwich(n, d):
    _require_below_capacity(d, "ML sandwich")
    rho = _rho_star(n, d)
    common = _common_exponent(n, d, rho)
    forms = map(np.logaddexp, _head_forms(n, rho, common), _tail_forms(n, rho, common))
    inside = (n > 2) & _in_ml_window(n, rho)
    return [np.where(inside, v, math.nan) for v in forms]


def _mu_checked(d: float) -> float:
    # Above the critical window mu <= 2 e^(-2e-9), so 2 - mu >= 4e-9 there.
    _require_below_capacity(d, "asymptotic form")
    mu = _mu(d)
    if mu - 1.0 < 1e-15:
        raise AsymptoticSingularity(
            f"mu = {mu!r} is at the mu -> 1 singularity (delta at capacity)")
    return mu


def _sphere_asymptotic(n, d):
    mu = _mu_checked(d)
    return (-n * exponent_sp(d, 1.0)
            - 0.5 * mu * np.log(n * math.pi) - math.log(mu - 1.0))


def _ml_branch(d: float) -> str:
    dcr = delta_cr(1.0)
    if abs(d - dcr) <= CRITICAL_NLD_TOL:
        return "critical"
    return "above" if d > dcr else "below"


def _ml_asymptotic(n, d):
    er = exponent_r(d, 1.0)
    branch = _ml_branch(d)
    if branch == "critical":
        return -n * er + np.log((np.sqrt(math.pi / (2.0 * n))
                                 + (np.log(n * math.pi) + 2.0) / n) / (2.0 * math.pi))
    if branch == "above":
        mu = _mu_checked(d)
        return (-n * er - 0.5 * mu * np.log(n * math.pi)
                - math.log(2.0 - mu) - math.log(mu - 1.0))
    return -n * er - 0.5 * np.log(2.0 * math.pi * n)


def _typicality_asymptotic(n, d):
    _require_below_capacity(d, "asymptotic form")
    gap = _DELTA_STAR_1 - d
    if 2.0 * gap < 1e-15:
        raise AsymptoticSingularity("typicality prefactor singular as delta -> delta*")
    return (-n * exponent_t(d, 1.0) - 0.5 * np.log(n * math.pi)
            + math.log1p(2.0 * gap) - math.log(2.0 * gap))


def _poltyrev_r_asymptotic(n, d):
    branch = _ml_branch(d)
    if branch == "below":
        return _ml_asymptotic(n, d)
    er = exponent_r(d, 1.0)
    if branch == "critical":
        return -n * er - 0.5 * np.log(math.pi * n) + math.log1p(1.0 / math.sqrt(8.0))
    mu = _mu_checked(d)
    lnpi = np.log(n * math.pi)
    return -n * er + np.logaddexp(-lnpi - math.log(2.0 - mu), -0.5 * lnpi - math.log(mu - 1.0))


# Keys of asym_curves, by the form that computes them.
_FORMS = (
    (("sphere_lower_q", "sphere_lower", "sphere_upper"), _sphere_sandwich),
    (("sphere_asym",), _sphere_asymptotic),
    (("ml_lower_q", "ml_lower", "ml_upper"), _ml_sandwich),
    (("ml_asym",), _ml_asymptotic),
    (("typicality_asym",), _typicality_asymptotic),
)


@np.errstate(all="ignore")
def asym_curves(n, nld: float, sigma2: float) -> dict[str, np.ndarray]:
    """The sandwiches and asymptotic forms at every dimension of the 1-d
    integer array ``n``, at one (nld, sigma2): the array path of
    :func:`sphere_sandwich`, :func:`ml_sandwich`, :func:`sphere_asymptotic`,
    :func:`ml_asymptotic` and :func:`typicality_asymptotic`, which evaluate
    through it.

    Returns the natural logs under the keys ``sphere_lower_q``,
    ``sphere_lower``, ``sphere_upper``, ``sphere_asym``, ``ml_lower_q``,
    ``ml_lower``, ``ml_upper``, ``ml_asym`` and ``typicality_asym`` (the
    sandwiches' ``lower`` is their elementary ``lower_analytic``).  An
    element is NaN exactly where the scalar function raises ``ValueError``
    or :class:`AsymptoticSingularity`: n <= 2 and delta >= delta* for the
    sandwiches, outside the window for the ML sandwich, and at the mu -> 1
    singularity.  Inputs :func:`~icawgn.bounds.bound_curves`
    rejects raise the same errors here.  So far below capacity that
    e^(2(delta*-delta)) or r_eff^2 passes double range, a form or sandwich with
    a log that is not finite there is NaN, and the scalar form raises ``ValueError``.
    """
    _check_sigma2(sigma2)
    _check_one_nld(nld)
    n = _check_dims(n)
    d = nld + 0.5 * math.log(sigma2)
    curves = {}
    for names, form in _FORMS:
        try:
            values = np.atleast_2d(form(n, d))
        except ValueError:
            values = np.full((len(names), n.size), math.nan)
        curves.update(zip(names, np.where(np.isfinite(values).all(axis=0), values, math.nan)))
    return curves


@np.errstate(all="ignore")
def _at(form, point: ChannelPoint) -> list[LogProb]:
    # One form at one point; a non-finite value, -inf included, is a ValueError.
    values = [float(v[0]) for v in np.atleast_2d(form(np.array([float(point.n)]), _unit_nld(point)))]
    for v in values:
        if not math.isfinite(v):
            raise ValueError(f"non-finite log value {v!r}")
    return [LogProb(v) for v in values]


def sphere_sandwich(point: ChannelPoint) -> SandwichBounds:
    """Closed forms enclosing the sphere bound (requires n > 2, delta < delta*):
    e^C times those of :func:`tail_integral_bounds` at x = rho*, with
    C = n(delta* - delta) + n/2 - n rho*/2 and rho* from :func:`terms`.
    Evaluated by :func:`asym_curves`.
    """
    _check_int(point.n, 3)
    return SandwichBounds(*_at(_sphere_sandwich, point))


def ml_sandwich(point: ChannelPoint) -> SandwichBounds:
    """Closed forms enclosing the ML bound, evaluated by :func:`asym_curves`.

    Valid for NLD strictly below capacity on the window
    1 - 2/n < rho* < 2 - 2/n (asymptotically, NLD strictly between critical
    and capacity); outside it the caller must branch to the below-critical
    asymptotics instead.  Each member is e^C times a head plus a tail form.
    """
    _require_below_capacity(_unit_nld(point), "ML sandwich")
    n, rho = point.n, terms(point).rho_star
    if not _in_ml_window(n, rho):
        raise ValueError(
            f"ML sandwich window violated: rho* = {rho:.6g} outside "
            f"({1 - 2 / n:.6g}, {2 - 2 / n:.6g}) at n = {n}")
    return SandwichBounds(*_at(_ml_sandwich, point))


def sphere_asymptotic(point: ChannelPoint) -> LogProb:
    """Precise asymptotic form of the sphere bound:
    e^(-n E_sp) (n pi)^(-mu/2) / (mu - 1).  Evaluated by :func:`asym_curves`."""
    return _at(_sphere_asymptotic, point)[0]


def ml_asymptotic_branch(point: ChannelPoint) -> str:
    """Which asymptotic regime the point falls in: 'above', 'below' or 'critical'."""
    return _ml_branch(_unit_nld(point))


def ml_asymptotic(point: ChannelPoint) -> LogProb:
    """Precise asymptotic form of the ML bound, branching on the NLD regime:

        above critical:  e^(-n E_r) (n pi)^(-mu/2) / ((2 - mu)(mu - 1))
        below critical:  e^(-n E_r) / sqrt(2 pi n)
        at critical:     e^(-n E_r) (1/(2 pi)) [sqrt(pi/(2n)) + ln(n pi e^2)/n]

    Evaluated by :func:`asym_curves`.
    """
    return _at(_ml_asymptotic, point)[0]


def typicality_asymptotic(point: ChannelPoint) -> LogProb:
    """Precise asymptotic form of the typicality bound:
    e^(-n E_t) / sqrt(n pi) * (1 + 2 D) / (2 D), D = delta* - delta.
    Evaluated by :func:`asym_curves`."""
    return _at(_typicality_asymptotic, point)[0]


def poltyrev_r_asymptotic(point: ChannelPoint) -> LogProb:
    """Asymptotic form of the ML bound at the suboptimal radius
    sqrt(n) sigma e^(delta*-delta):

        above critical:  e^(-n E_r) [1/(n pi (2-mu)) + 1/(sqrt(n pi)(mu-1))]
        below critical:  e^(-n E_r) / sqrt(2 pi n), the ML form itself
        at critical:     e^(-n E_r) (1/sqrt(pi n)) (1 + 1/sqrt 8)
    """
    return _at(_poltyrev_r_asymptotic, point)[0]


def ub_lb_ratio_limit(delta: float, sigma2: float) -> float:
    """Limit of (ML bound)/(sphere bound) strictly between critical and capacity:
    1 / (2 - e^(2(delta*-delta)))."""
    _check_nld(delta)
    if not (delta_cr(sigma2) < delta < delta_star(sigma2)):
        raise ValueError("ratio limit defined only for delta_cr < delta < delta*")
    return 1.0 / (2.0 - math.exp(2.0 * (delta_star(sigma2) - delta)))


class TailIntegralBounds(NamedTuple):
    lower_q: LogProb
    lower_analytic: LogProb
    lower_loose: LogProb
    upper: LogProb


@np.errstate(all="ignore")
def tail_integral_bounds(n: int, x: float) -> TailIntegralBounds:
    """Closed forms enclosing int_x^inf t^(n/2-1) e^(-nt/2) dt for n > 2 and
    x > 1 - 2/n, over (2/n) x^(n/2) e^(-nx/2): upper 1/(x - 1 + 2/n),
    lower_analytic upper/(1 + Upsilon^-2), lower_q sqrt(n^2 pi/(n - 2))
    e^(Upsilon^2/2) Q(Upsilon) and lower_loose upper (1 - Upsilon^-2), the
    trivial zero bound where that factor is nonpositive; Upsilon is
    n (x - 1 + 2/n) / sqrt(2 (n - 2)).
    """
    _check_int(n, 3)
    if x != x or x in (math.inf, -math.inf):
        raise ValueError(f"tail integral bounds require a finite x, got x={x}")
    _check_not_nan(x, "x")      # a non-number, or an int past double range
    if not (x > 1.0 - 2.0 / n):
        raise ValueError(f"tail integral bounds require x > 1 - 2/n, got x={x}")
    base = math.log(2.0 / n) + 0.5 * n * math.log(x) - 0.5 * n * x
    lower_q, lower_analytic, upper = map(float, _tail_forms(n, x, base))
    loose_factor = 1.0 - _upsilon(n, x) ** -2
    lower_loose = upper + math.log(loose_factor) if loose_factor > 0.0 else -math.inf
    # A log of -inf, where n x / 2 passes double range, is an exact zero.
    return TailIntegralBounds(*map(LogProb, (lower_q, lower_analytic, lower_loose, upper)))


class HeadIntegralBounds(NamedTuple):
    lower_q: LogProb
    lower_analytic: LogProb
    upper: LogProb


@np.errstate(all="ignore")
def head_integral_bounds(n: int, x: float) -> HeadIntegralBounds:
    """Closed forms enclosing int_0^x t^(n-1) e^(-nt/2) dt for
    0 < x < 2 - 2/n, over (2/n) x^n e^(-nx/2): upper
    (1 - e^(-(n - 1 - nx/2))) / (2 - x - 2/n), lower_analytic
    1/((2 - x + 2/n)(1 + Psi^-2)) and lower_q sqrt(n pi/(2x)) e^(Psi^2/2) Q(Psi),
    with Psi = sqrt(n) (2 - x + 2/n) / (2 sqrt x).
    """
    _check_int(n)
    _check_not_nan(x, "x")
    # The window is tested on the upper form's denominator as it is computed:
    # at n = 2, 2 - x - 2/n rounds to 0 one ulp below x = 2 - 2/n.
    gap = 2.0 - x - 2.0 / n
    if not (0.0 < x and gap > 0.0):
        raise ValueError(f"head integral bounds require 0 < x < 2 - 2/n, got x={x}")
    lower_q, lower_analytic, upper = map(
        float, _head_forms(n, x, math.log(2.0 / n) + n * math.log(x) - 0.5 * n * x))
    # ln(1 - e^(-m)) with m = n - 1 - nx/2 = (n/2) gap > 0 in the window, through
    # expm1 where e^(-m) is near 1 (Maechler's log1mexp).
    m = 0.5 * n * gap
    trunc = math.log(-math.expm1(-m)) if m < math.log(2.0) else math.log1p(-math.exp(-m))
    return HeadIntegralBounds(LogProb(lower_q), LogProb(lower_analytic), LogProb(upper + trunc))


def laplace_head_integral(n: int, x: float) -> float:
    """Laplace-method leading term of int_0^x e^(-n rho/2) rho^(n-1) d rho for x > 2:
    sqrt(2 pi / n) e^(-n) 2^n, independent of x (the peak sits at rho = 2)."""
    _check_int(n)
    _check_not_nan(x, "x")
    if not (x > 2.0):
        raise ValueError(f"Laplace form requires x > 2, got {x}")
    return math.exp(0.5 * math.log(2.0 * math.pi / n) + n * (math.log(2.0) - 1.0))
