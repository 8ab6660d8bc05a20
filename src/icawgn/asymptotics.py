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

:func:`asym_curves` evaluates the sandwiches and the asymptotic forms over
a vector of dimensions at one (delta, sigma2), with NaN where a form is
undefined; the scalar functions take one :class:`ChannelPoint` through
the same code and raise a typed error there instead.

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
    ChannelPoint,
    _check_dims,
    _check_nld,
    _check_sigma2,
    _log_vn_curve,
    _math_map,
    delta_cr,
    delta_star,
)
from .specfn import LogProb, log_add

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

_SQRT2 = math.sqrt(2.0)


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

    Zero at and above capacity.  expm1 keeps the quadratic behavior near
    capacity exact, where the raw form would cancel catastrophically.
    """
    d = delta_star(sigma2) - delta
    if d <= 0.0:
        return 0.0
    return 0.5 * (math.expm1(2.0 * d) - 2.0 * d)


def exponent_r(delta: float, sigma2: float) -> float:
    """Random-coding (achievability) exponent.

    Equals the sphere-packing exponent on [delta_cr, delta*); below
    delta_cr it is the straight line (delta* - delta) + (1/2) ln(e/4).
    """
    if delta >= delta_cr(sigma2):
        return exponent_sp(delta, sigma2)
    return (delta_star(sigma2) - delta) + ER_LINE_CONSTANT


def exponent_t(delta: float, sigma2: float) -> float:
    """Typicality exponent D - (1/2) ln(1 + 2 D), D = delta* - delta."""
    d = delta_star(sigma2) - delta
    if 1.0 + 2.0 * d <= 0.0:
        raise ValueError(f"typicality exponent undefined: 1 + 2(delta*-delta) = {1 + 2 * d} <= 0")
    return d - 0.5 * math.log1p(2.0 * d)


def terms(point: ChannelPoint) -> AsymptoticTerms:
    """The derived quantities rho*, Upsilon, Psi, mu at an evaluation point."""
    n = point.n
    if n <= 2:
        raise ValueError(f"asymptotic terms require n > 2, got {n}")
    rho, upsilon, psi, mu = _terms(np.array([float(n)]), point.nld, point.sigma2)
    return AsymptoticTerms(rho_star=float(rho[0]), upsilon=float(upsilon[0]),
                           psi=float(psi[0]), mu=mu)


@np.errstate(all="ignore")
def _terms(n: np.ndarray, nld: float, sigma2: float):
    # rho*, Upsilon and Psi over a float array of n (meaningful where n > 2),
    # and the scalar mu.  r_eff is rounded exactly as effective_radius rounds
    # it: the sandwiches' logs move by n/2 times any relative change in rho*.
    r = _math_map(math.exp, -nld - _log_vn_curve(n) / n)
    rho = r * r / (n * sigma2)
    upsilon = n * (rho - 1.0 + 2.0 / n) / np.sqrt(2.0 * (n - 2.0))
    psi = np.sqrt(n) * (2.0 - rho + 2.0 / n) / (2.0 * np.sqrt(rho))
    mu = math.exp(2.0 * (delta_star(sigma2) - nld))
    return rho, upsilon, psi, mu


def _log_scaled_q(x):
    """ln[e^(x^2/2) Q(x)] = ln(erfcx(x/sqrt 2) / 2), stable for large x."""
    return np.log(0.5 * erfcx(x / _SQRT2))


def _log_tail_q(n, upsilon):
    # The Q-function lower form of the chi-square tail integral, less the
    # common exponent.
    return 0.5 * np.log(n * n * math.pi / (n - 2.0)) + _log_scaled_q(upsilon)


def _common_exponent(n, nld: float, sigma2: float, rho):
    # ln of e^{n(delta*-delta)} e^{n/2} e^{-n rho*/2}
    return n * (delta_star(sigma2) - nld) + 0.5 * n - 0.5 * n * rho


def _require_below_capacity(nld: float, sigma2: float, what: str) -> None:
    if nld >= delta_star(sigma2):
        raise ValueError(f"{what} requires delta < delta*")


def _in_ml_window(n, rho):
    return (1.0 - 2.0 / n < rho) & (rho < 2.0 - 2.0 / n)


# The five closed forms over a float array of n at one (nld, sigma2).  A
# condition on (nld, sigma2) alone raises the scalar form's error; the
# sandwiches' limits in n (n > 2, the ML window) give NaN elements.

def _sphere_sandwich(n, nld, sigma2):
    _require_below_capacity(nld, sigma2, "sphere sandwich")
    rho, upsilon, _, _ = _terms(n, nld, sigma2)
    common = _common_exponent(n, nld, sigma2, rho)
    upper = common - np.log(rho - 1.0 + 2.0 / n)
    lower = upper - np.log1p(upsilon ** -2)
    lower_q = common + _log_tail_q(n, upsilon)
    return [np.where(n > 2, v, math.nan) for v in (lower_q, lower, upper)]


def _ml_sandwich(n, nld, sigma2):
    _require_below_capacity(nld, sigma2, "ML sandwich")
    rho, upsilon, psi, _ = _terms(n, nld, sigma2)
    common = _common_exponent(n, nld, sigma2, rho)
    upper = common - np.log(2.0 - rho - 2.0 / n) - np.log(rho - 1.0 + 2.0 / n)
    lower = common + np.log(
        1.0 / ((2.0 - rho + 2.0 / n) * (1.0 + psi ** -2))
        + 1.0 / ((rho - 1.0 + 2.0 / n) * (1.0 + upsilon ** -2)))
    head = 0.5 * np.log(n * math.pi / (2.0 * rho)) + _log_scaled_q(psi)
    lower_q = common + np.logaddexp(head, _log_tail_q(n, upsilon))
    inside = (n > 2) & _in_ml_window(n, rho)
    return [np.where(inside, v, math.nan) for v in (lower_q, lower, upper)]


def _mu_checked(nld: float, sigma2: float) -> float:
    d = delta_star(sigma2) - nld
    if d <= 0.0:
        raise ValueError("asymptotic form requires delta < delta*")
    mu = math.exp(2.0 * d)
    if mu - 1.0 < 1e-15:
        raise AsymptoticSingularity(
            f"mu = {mu!r} is at the mu -> 1 singularity (delta at capacity)")
    return mu


def _sphere_asymptotic(n, nld, sigma2):
    mu = _mu_checked(nld, sigma2)
    return (-n * exponent_sp(nld, sigma2)
            - 0.5 * mu * np.log(n * math.pi) - math.log(mu - 1.0))


def _ml_branch(nld: float, sigma2: float) -> str:
    dcr = delta_cr(sigma2)
    if abs(nld - dcr) <= CRITICAL_NLD_TOL:
        return "critical"
    return "above" if nld > dcr else "below"


def _ml_asymptotic(n, nld, sigma2):
    er = exponent_r(nld, sigma2)
    branch = _ml_branch(nld, sigma2)
    if branch == "critical":
        return -n * er + np.log((np.sqrt(math.pi / (2.0 * n))
                                 + (np.log(n * math.pi) + 2.0) / n) / (2.0 * math.pi))
    if branch == "above":
        mu = _mu_checked(nld, sigma2)
        if 2.0 - mu < 1e-15:
            raise AsymptoticSingularity(f"mu = {mu!r} is at the mu -> 2 singularity")
        return (-n * er - 0.5 * mu * np.log(n * math.pi)
                - math.log(2.0 - mu) - math.log(mu - 1.0))
    return -n * er - 0.5 * np.log(2.0 * math.pi * n)


def _typicality_asymptotic(n, nld, sigma2):
    d = delta_star(sigma2) - nld
    if d <= 0.0:
        raise ValueError("asymptotic form requires delta < delta*")
    if 2.0 * d < 1e-15:
        raise AsymptoticSingularity("typicality prefactor singular as delta -> delta*")
    return (-n * exponent_t(nld, sigma2) - 0.5 * np.log(n * math.pi)
            + math.log1p(2.0 * d) - math.log(2.0 * d))


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
    and mu -> 2 singularities.  Inputs :func:`~icawgn.bounds.bound_curves`
    rejects raise the same errors here, and an NLD so far below capacity
    that e^(2(delta*-delta)) overflows raises ``OverflowError`` as the
    scalar forms do.
    """
    _check_sigma2(sigma2)
    _check_nld(nld)
    n = _check_dims(n)
    curves = {}
    for names, form in _FORMS:
        try:
            values = np.atleast_2d(form(n, nld, sigma2))
        except ValueError:
            values = np.full((len(names), n.size), math.nan)
        curves.update(zip(names, np.where(np.isfinite(values), values, math.nan)))
    return curves


@np.errstate(all="ignore")
def _at(form, point: ChannelPoint) -> list[LogProb]:
    # One form at one point; a non-finite value is a ValueError, from LogProb.
    values = np.atleast_2d(form(np.array([float(point.n)]), point.nld, point.sigma2))
    return [LogProb(float(v[0])) for v in values]


def sphere_sandwich(point: ChannelPoint) -> SandwichBounds:
    """Closed forms enclosing the sphere bound (requires n > 2, delta < delta*):

        upper          e^C / (rho* - 1 + 2/n)
        lower_analytic upper / (1 + Upsilon^-2)
        lower_q        e^C sqrt(n^2 pi / (n - 2)) e^(Upsilon^2/2) Q(Upsilon)

    with C = n(delta* - delta) + n/2 - n rho*/2 and rho*, Upsilon from
    :func:`terms`.  Evaluated by :func:`asym_curves`.
    """
    _require_below_capacity(point.nld, point.sigma2, "sphere sandwich")
    terms(point)   # rejects n <= 2
    return SandwichBounds(*_at(_sphere_sandwich, point))


def ml_sandwich(point: ChannelPoint) -> SandwichBounds:
    """Closed forms enclosing the ML bound, evaluated by :func:`asym_curves`.

    Valid for NLD strictly below capacity on the window
    1 - 2/n < rho* < 2 - 2/n (asymptotically, NLD strictly between critical
    and capacity); outside it the caller must branch to the below-critical
    asymptotics instead.  Each member adds a head term in Psi to the
    sphere sandwich's tail term in Upsilon.
    """
    _require_below_capacity(point.nld, point.sigma2, "ML sandwich")
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
    return _ml_branch(point.nld, point.sigma2)


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
    branch = ml_asymptotic_branch(point)
    if branch == "below":
        return ml_asymptotic(point)
    n = point.n
    er = exponent_r(point.nld, point.sigma2)
    if branch == "critical":
        return LogProb(-n * er - 0.5 * math.log(math.pi * n)
                       + math.log1p(1.0 / math.sqrt(8.0)))
    mu = _mu_checked(point.nld, point.sigma2)
    if 2.0 - mu < 1e-15:
        raise AsymptoticSingularity(f"mu = {mu!r} is at the mu -> 2 singularity")
    lnpi = math.log(n * math.pi)
    first = -lnpi - math.log(2.0 - mu)
    second = -0.5 * lnpi - math.log(mu - 1.0)
    return LogProb(-n * er + log_add(LogProb(first), LogProb(second)).log_value)


def ub_lb_ratio_limit(delta: float, sigma2: float) -> float:
    """Limit of (ML bound)/(sphere bound) strictly between critical and capacity:
    1 / (2 - e^(2(delta*-delta)))."""
    if not (delta_cr(sigma2) < delta < delta_star(sigma2)):
        raise ValueError("ratio limit defined only for delta_cr < delta < delta*")
    return 1.0 / (2.0 - math.exp(2.0 * (delta_star(sigma2) - delta)))


class TailIntegralBounds(NamedTuple):
    lower_q: LogProb
    lower_analytic: LogProb
    lower_loose: LogProb
    upper: LogProb


def tail_integral_bounds(n: int, x: float) -> TailIntegralBounds:
    """Closed forms enclosing int_x^inf rho^(n/2-1) e^(-n rho/2) d rho
    for n > 2 and x > 1 - 2/n.

    The loose lower form carries a (1 - Upsilon^-2) factor and degrades to
    the trivial zero bound when that factor is nonpositive.
    """
    if n <= 2:
        raise ValueError(f"tail integral bounds require n > 2, got {n}")
    if not math.isfinite(x):
        raise ValueError(f"tail integral bounds require a finite x, got x={x}")
    if not (x > 1.0 - 2.0 / n):
        raise ValueError(f"tail integral bounds require x > 1 - 2/n, got x={x}")
    ups = n * (x - 1.0 + 2.0 / n) / math.sqrt(2.0 * (n - 2.0))
    base = math.log(2.0) + 0.5 * n * math.log(x) - 0.5 * n * x
    upper = base - math.log(n * (x - 1.0 + 2.0 / n))
    lower_q = base + 0.5 * math.log(math.pi / (n - 2.0)) + float(_log_scaled_q(ups))
    lower_analytic = upper - math.log1p(ups ** -2)
    loose_factor = 1.0 - 1.0 / (ups * ups)
    lower_loose = LogProb.zero() if loose_factor <= 0.0 else LogProb(upper + math.log(loose_factor))
    return TailIntegralBounds(lower_q=LogProb(lower_q),
                              lower_analytic=LogProb(lower_analytic),
                              lower_loose=lower_loose,
                              upper=LogProb(upper))


class HeadIntegralBounds(NamedTuple):
    lower_q: LogProb
    lower_analytic: LogProb
    upper: LogProb


def head_integral_bounds(n: int, x: float) -> HeadIntegralBounds:
    """Closed forms enclosing int_0^x e^(-n rho/2) rho^(n-1) d rho
    for 0 < x < 2 - 2/n."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (0.0 < x < 2.0 - 2.0 / n):
        raise ValueError(f"head integral bounds require 0 < x < 2 - 2/n, got x={x}")
    psi = math.sqrt(n) * (2.0 - x + 2.0 / n) / (2.0 * math.sqrt(x))
    base = n * math.log(x) - 0.5 * n * x
    # 1 - e^{-n(1 - 1/n - x/2)} is in (0, 1) throughout the window.
    trunc = math.log1p(-math.exp(-(n - 1.0 - 0.5 * n * x)))
    upper = base + math.log(2.0) - math.log(n * (2.0 - x - 2.0 / n)) + trunc
    lower_q = base + 0.5 * math.log(2.0 * math.pi / (n * x)) + float(_log_scaled_q(psi))
    lower_analytic = (base + math.log(2.0) - math.log(n * (2.0 - x + 2.0 / n))
                      - math.log1p(psi ** -2))
    return HeadIntegralBounds(lower_q=LogProb(lower_q),
                              lower_analytic=LogProb(lower_analytic),
                              upper=LogProb(upper))


def laplace_head_integral(n: int, x: float) -> float:
    """Laplace-method leading term of int_0^x e^(-n rho/2) rho^(n-1) d rho for x > 2:
    sqrt(2 pi / n) e^(-n) 2^n, independent of x (the peak sits at rho = 2)."""
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (x > 2.0):
        raise ValueError(f"Laplace form requires x > 2, got {x}")
    return math.exp(0.5 * math.log(2.0 * math.pi / n) + n * (math.log(2.0) - 1.0))
