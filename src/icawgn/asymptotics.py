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

The achievability exponent below the critical NLD is a straight line of
slope -1.  Its additive constant is (1/2) ln(e/4): that value is forced
by continuity with the curved branch at the critical NLD and by the
Laplace evaluation of the ML bound's radial integral, and it is pinned
by the slope-fit acceptance test.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

from scipy.special import cython_special as _cs

from .bounds import ChannelPoint, delta_cr, delta_star, effective_radius
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
    r = effective_radius(point)
    rho = r * r / (n * point.sigma2)
    upsilon = n * (rho - 1.0 + 2.0 / n) / math.sqrt(2.0 * (n - 2.0))
    psi = math.sqrt(n) * (2.0 - rho + 2.0 / n) / (2.0 * math.sqrt(rho))
    mu = math.exp(2.0 * (delta_star(point.sigma2) - point.nld))
    return AsymptoticTerms(rho_star=rho, upsilon=upsilon, psi=psi, mu=mu)


def _log_scaled_q(x: float) -> float:
    """ln[e^(x^2/2) Q(x)] = ln(erfcx(x/sqrt 2) / 2), stable for large x."""
    return math.log(0.5 * _cs.erfcx(x / _SQRT2))


def _common_exponent(point: ChannelPoint, rho: float) -> float:
    # ln of e^{n(delta*-delta)} e^{n/2} e^{-n rho*/2}
    n = point.n
    return n * (delta_star(point.sigma2) - point.nld) + 0.5 * n - 0.5 * n * rho


def sphere_sandwich(point: ChannelPoint) -> SandwichBounds:
    """Closed forms enclosing the sphere bound (requires n > 2, delta < delta*)."""
    if point.nld >= delta_star(point.sigma2):
        raise ValueError("sphere sandwich requires delta < delta*")
    t = terms(point)
    n, rho, ups = point.n, t.rho_star, t.upsilon
    common = _common_exponent(point, rho)
    upper = common - math.log(rho - 1.0 + 2.0 / n)
    lower_analytic = upper - math.log1p(ups ** -2)
    lower_q = common + 0.5 * math.log(n * n * math.pi / (n - 2.0)) + _log_scaled_q(ups)
    return SandwichBounds(lower_q=LogProb(lower_q),
                          lower_analytic=LogProb(lower_analytic),
                          upper=LogProb(upper))


def ml_sandwich(point: ChannelPoint) -> SandwichBounds:
    """Closed forms enclosing the ML bound.

    Valid for NLD strictly below capacity on the window
    1 - 2/n < rho* < 2 - 2/n (asymptotically, NLD strictly between critical
    and capacity); outside it the caller must branch to the below-critical
    asymptotics instead.
    """
    if point.nld >= delta_star(point.sigma2):
        raise ValueError("ML sandwich requires delta < delta*")
    t = terms(point)
    n, rho, ups, psi = point.n, t.rho_star, t.upsilon, t.psi
    if not (1.0 - 2.0 / n < rho < 2.0 - 2.0 / n):
        raise ValueError(
            f"ML sandwich window violated: rho* = {rho:.6g} outside "
            f"({1 - 2 / n:.6g}, {2 - 2 / n:.6g}) at n = {n}")
    common = _common_exponent(point, rho)
    upper = common - math.log(2.0 - rho - 2.0 / n) - math.log(rho - 1.0 + 2.0 / n)
    la = common + math.log(
        1.0 / ((2.0 - rho + 2.0 / n) * (1.0 + psi ** -2))
        + 1.0 / ((rho - 1.0 + 2.0 / n) * (1.0 + ups ** -2)))
    lq_head = 0.5 * math.log(n * math.pi / (2.0 * rho)) + _log_scaled_q(psi)
    lq_tail = 0.5 * math.log(n * n * math.pi / (n - 2.0)) + _log_scaled_q(ups)
    lq = common + log_add(LogProb(lq_head), LogProb(lq_tail)).log_value
    return SandwichBounds(lower_q=LogProb(lq), lower_analytic=LogProb(la),
                          upper=LogProb(upper))


def _mu_checked(point: ChannelPoint) -> float:
    d = delta_star(point.sigma2) - point.nld
    if d <= 0.0:
        raise ValueError("asymptotic form requires delta < delta*")
    mu = math.exp(2.0 * d)
    if mu - 1.0 < 1e-15:
        raise AsymptoticSingularity(
            f"mu = {mu!r} is at the mu -> 1 singularity (delta at capacity)")
    return mu


def sphere_asymptotic(point: ChannelPoint) -> LogProb:
    """Precise asymptotic form of the sphere bound:
    e^(-n E_sp) (n pi)^(-mu/2) / (mu - 1)."""
    mu = _mu_checked(point)
    n = point.n
    lg = (-n * exponent_sp(point.nld, point.sigma2)
          - 0.5 * mu * math.log(n * math.pi) - math.log(mu - 1.0))
    return LogProb(lg)


def ml_asymptotic_branch(point: ChannelPoint) -> str:
    """Which asymptotic regime the point falls in: 'above', 'below' or 'critical'."""
    dcr = delta_cr(point.sigma2)
    if abs(point.nld - dcr) <= CRITICAL_NLD_TOL:
        return "critical"
    return "above" if point.nld > dcr else "below"


def ml_asymptotic(point: ChannelPoint) -> LogProb:
    """Precise asymptotic form of the ML bound, branching on the NLD regime:

        above critical:  e^(-n E_r) (n pi)^(-mu/2) / ((2 - mu)(mu - 1))
        below critical:  e^(-n E_r) / sqrt(2 pi n)
        at critical:     e^(-n E_r) (1/(2 pi)) [sqrt(pi/(2n)) + ln(n pi e^2)/n]
    """
    n = point.n
    er = exponent_r(point.nld, point.sigma2)
    branch = ml_asymptotic_branch(point)
    if branch == "critical":
        sub = math.log((math.sqrt(math.pi / (2.0 * n))
                        + (math.log(n * math.pi) + 2.0) / n) / (2.0 * math.pi))
        return LogProb(-n * er + sub)
    if branch == "above":
        mu = _mu_checked(point)
        if 2.0 - mu < 1e-15:
            raise AsymptoticSingularity(f"mu = {mu!r} is at the mu -> 2 singularity")
        return LogProb(-n * er - 0.5 * mu * math.log(n * math.pi)
                       - math.log(2.0 - mu) - math.log(mu - 1.0))
    return LogProb(-n * er - 0.5 * math.log(2.0 * math.pi * n))


def typicality_asymptotic(point: ChannelPoint) -> LogProb:
    """Precise asymptotic form of the typicality bound:
    e^(-n E_t) / sqrt(n pi) * (1 + 2 D) / (2 D), D = delta* - delta."""
    d = delta_star(point.sigma2) - point.nld
    if d <= 0.0:
        raise ValueError("asymptotic form requires delta < delta*")
    if 2.0 * d < 1e-15:
        raise AsymptoticSingularity("typicality prefactor singular as delta -> delta*")
    n = point.n
    lg = (-n * exponent_t(point.nld, point.sigma2) - 0.5 * math.log(n * math.pi)
          + math.log1p(2.0 * d) - math.log(2.0 * d))
    return LogProb(lg)


def poltyrev_r_asymptotic(point: ChannelPoint) -> LogProb:
    """Asymptotic form of the ML bound at the suboptimal radius
    sqrt(n) sigma e^(delta*-delta):

        above critical:  e^(-n E_r) [1/(n pi (2-mu)) + 1/(sqrt(n pi)(mu-1))]
        below critical:  e^(-n E_r) / sqrt(2 pi n)
        at critical:     e^(-n E_r) (1/sqrt(pi n)) (1 + 1/sqrt 8)
    """
    n = point.n
    er = exponent_r(point.nld, point.sigma2)
    branch = ml_asymptotic_branch(point)
    if branch == "critical":
        return LogProb(-n * er - 0.5 * math.log(math.pi * n)
                       + math.log1p(1.0 / math.sqrt(8.0)))
    if branch == "above":
        mu = _mu_checked(point)
        if 2.0 - mu < 1e-15:
            raise AsymptoticSingularity(f"mu = {mu!r} is at the mu -> 2 singularity")
        lnpi = math.log(n * math.pi)
        first = -lnpi - math.log(2.0 - mu)
        second = -0.5 * lnpi - math.log(mu - 1.0)
        return LogProb(-n * er + log_add(LogProb(first), LogProb(second)).log_value)
    return LogProb(-n * er - 0.5 * math.log(2.0 * math.pi * n))


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
    if not (x > 1.0 - 2.0 / n):
        raise ValueError(f"tail integral bounds require x > 1 - 2/n, got x={x}")
    ups = n * (x - 1.0 + 2.0 / n) / math.sqrt(2.0 * (n - 2.0))
    base = math.log(2.0) + 0.5 * n * math.log(x) - 0.5 * n * x
    upper = base - math.log(n * (x - 1.0 + 2.0 / n))
    lower_q = base + 0.5 * math.log(math.pi / (n - 2.0)) + _log_scaled_q(ups)
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
    lower_q = base + 0.5 * math.log(2.0 * math.pi / (n * x)) + _log_scaled_q(psi)
    lower_analytic = (base + math.log(2.0) - math.log(n * (2.0 - x + 2.0 / n))
                      - math.log1p(psi ** -2))
    return HeadIntegralBounds(lower_q=LogProb(lower_q),
                              lower_analytic=LogProb(lower_analytic),
                              upper=LogProb(upper))


def laplace_head_integral(n: int, x: float) -> float:
    """Laplace-method leading term of int_0^x e^(-n rho/2) rho^(n-1) d rho for x > 2:
    sqrt(2 pi / n) e^(-n) 2^n, independent of x (the peak sits at rho = 2)."""
    if not (x > 2.0):
        raise ValueError(f"Laplace form requires x > 2, got {x}")
    return math.exp(0.5 * math.log(2.0 * math.pi / n) + n * (math.log(2.0) - 1.0))
