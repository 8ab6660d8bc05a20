"""Finite-dimensional bounds on the error probability of infinite constellations.

Setting: an n-dimensional constellation of normalized log density (NLD)
delta nats per dimension, used over an AWGN channel with per-dimension
noise variance sigma2 and no power constraint.  The converse is the
sphere bound (noise escaping the effective-radius ball); the
achievability side is the ML-decoder bound and the weaker
typicality-decoder bound, each with a free radius parameter whose
optimizer is known in closed form.

All bound values are computed in the log domain.  The ML bound's radial
integral is evaluated analytically through the lower incomplete gamma
(substitution t = r^2/sigma^2), not by quadrature: at n in the thousands
the integrand r^(2n-1) overflows any direct evaluation while the gamma
form stays exact.

Two paths evaluate the bounds at their default radii.  The scalar one
(:func:`sphere_bound`, :func:`ml_bound`, ...) takes one
:class:`ChannelPoint` and returns a :class:`BoundValue`; inversions and the
asymptotic comparisons use it.  The array one, :func:`bound_curves`, takes
a vector of dimensions at one (delta, sigma2) and returns a
:class:`BoundCurve` per kind; it agrees with the scalar path to 1e-12
relative in the log (bit for bit at almost every n) and is more than ten
times faster per evaluation.
"""

import math
import numbers
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import gammainc

from .quadrature import integrate_adaptive
from .specfn import (
    LogProb,
    log_add,
    log_reg_gamma_lower,
    log_reg_gamma_tail,
    log_reg_gamma_upper,
    log_vn,
    reg_gamma_upper,
)
# Not called here: bench/tracing.py wraps icawgn.bounds.reg_gamma_lower.
from .specfn import reg_gamma_lower

__all__ = [
    "ChannelPoint",
    "BoundValue",
    "delta_star",
    "delta_cr",
    "delta_ex",
    "effective_radius",
    "sphere_bound",
    "sphere_bound_by_volume",
    "ml_bound",
    "typicality_bound",
    "poltyrev_ml_bound",
    "poltyrev_radius",
    "CURVE_KINDS",
    "BoundCurve",
    "bound_curves",
    "d_section_prob",
    "equivalence_sides",
    "equivalence_discrepancy",
    "equivalence_check",
]


def _check_sigma2(sigma2: float) -> None:
    if not (0.0 < sigma2 < math.inf):
        raise ValueError(f"noise variance must be finite and > 0, got {sigma2}")


def _check_nld(delta: float) -> None:
    if not math.isfinite(delta):
        raise ValueError(f"NLD must be finite, got {delta}")


# The largest dimension: the array paths hold n in numpy's int64.
_MAX_DIM = 2**63 - 1


def _check_dim_limit(n: int) -> None:
    if n > _MAX_DIM:
        raise ValueError(f"dimension must be <= 2^63 - 1 = {_MAX_DIM}, got {n}")


@dataclass(frozen=True)
class ChannelPoint:
    """An evaluation point: dimension n, NLD delta (nats/dim), noise variance sigma2."""

    n: int
    nld: float
    sigma2: float

    def __post_init__(self):
        # Plain ints skip the abstract-class isinstance, which costs more than
        # the rest of this check: inversions build one point per evaluation.
        n = self.n
        if type(n) is not int and (isinstance(n, bool) or not isinstance(n, numbers.Integral)):
            raise ValueError(f"dimension must be an integer, got {n!r}")
        if n < 1:
            raise ValueError(f"dimension must be >= 1, got {n}")
        _check_dim_limit(n)
        _check_sigma2(self.sigma2)
        _check_nld(self.nld)

    @property
    def density(self) -> float:
        """Constellation density gamma = e^(n delta), points per unit volume."""
        return math.exp(self.n * self.nld)


@dataclass(frozen=True)
class BoundValue:
    """A bound evaluation: kind, raw log-domain value, radius applied, clamp flag.

    ``log_value`` holds the bound exactly as computed (it may exceed 1 when
    the bound is vacuous); ``clamped`` reports that, and ``value`` yields
    the linear probability clamped into [0, 1].
    """

    kind: str
    log_value: LogProb
    radius_used: float
    clamped: bool

    @property
    def value(self) -> float:
        return self.log_value.probability

    @property
    def log_raw(self) -> float:
        """Unclamped natural log of the bound."""
        return self.log_value.log_value


def delta_star(sigma2: float) -> float:
    """Capacity of the setting, (1/2) ln(1/(2 pi e sigma2)): the supremum NLD
    at which the error probability can still vanish with the dimension."""
    _check_sigma2(sigma2)
    return -0.5 * math.log(2.0 * math.pi * math.e * sigma2)


def delta_cr(sigma2: float) -> float:
    """Critical NLD (1/2) ln(1/(4 pi e sigma2)), where the achievability exponent flattens."""
    _check_sigma2(sigma2)
    return -0.5 * math.log(4.0 * math.pi * math.e * sigma2)


def delta_ex(sigma2: float) -> float:
    """Expurgation threshold delta* - ln 2.

    Exposed as a reference constant only; the expurgated achievability
    bound below it is out of scope.
    """
    return delta_star(sigma2) - math.log(2.0)


def effective_radius(point: ChannelPoint) -> float:
    """Radius of the sphere whose volume equals the mean Voronoi cell volume.

    r_eff = e^(-delta) V_n^(-1/n), computed through the exact log ball volume.
    """
    return math.exp(-point.nld - log_vn(point.n) / point.n)


def poltyrev_radius(point: ChannelPoint) -> float:
    """The classical suboptimal decoding radius sqrt(n) sigma e^(delta* - delta)."""
    sigma = math.sqrt(point.sigma2)
    return math.sqrt(point.n) * sigma * math.exp(delta_star(point.sigma2) - point.nld)


def _log_norm_tail(n: int, r: float, sigma2: float) -> LogProb:
    # Pr{||Z|| > r} for Z ~ N(0, sigma2 I_n): chi-square upper tail.
    return log_reg_gamma_upper(0.5 * n, r * r / (2.0 * sigma2))


def sphere_bound(point: ChannelPoint) -> BoundValue:
    """Converse: Pr{||Z|| > r_eff}, a lower bound on the error probability of
    any constellation at this (n, delta, sigma2)."""
    r = effective_radius(point)
    lp = _log_norm_tail(point.n, r, point.sigma2)
    return BoundValue(kind="sphere", log_value=lp, radius_used=r, clamped=False)


def sphere_bound_by_volume(n: int, v: float, sigma2: float) -> float:
    """Probability that the noise leaves a sphere of volume v.

    Equals Q(n/2, (v/V_n)^(2/n) / (2 sigma2)); convex in v, which is what
    lets the converse extend to unequal Voronoi cell volumes.
    """
    if not (v > 0.0):
        raise ValueError(f"volume must be > 0, got {v}")
    _check_sigma2(sigma2)
    r2 = math.exp(2.0 * (math.log(v) - log_vn(n)) / n)
    return reg_gamma_upper(0.5 * n, r2 / (2.0 * sigma2))


def _ml_first_term(point: ChannelPoint, r: float) -> LogProb:
    # gamma V_n int_0^r f_R(t) t^n dt
    #   = exp[n delta + ln V_n + n ln sigma + (n/2) ln 2
    #         + ln Gamma(n) - ln Gamma(n/2)] * P(n, r^2/(2 sigma2))
    n = point.n
    lg = (n * point.nld + log_vn(n) + 0.5 * n * math.log(point.sigma2)
          + 0.5 * n * math.log(2.0) + math.lgamma(float(n)) - math.lgamma(0.5 * n))
    tail = log_reg_gamma_lower(float(n), r * r / (2.0 * point.sigma2))
    if tail.is_zero:
        return LogProb.zero()
    return LogProb(lg + tail.log_value)


def ml_bound(point: ChannelPoint, r: float | None = None) -> BoundValue:
    """Achievability via the ML decoder: there exist constellations with

        P_e <= gamma V_n int_0^r f_R(t) t^n dt + Pr{||Z|| > r},

    f_R being the noise-norm pdf.  Defaults to the optimizing radius r_eff.
    """
    if r is None:
        r = effective_radius(point)
    elif not (r > 0.0):
        raise ValueError(f"radius must be > 0, got {r}")
    total = log_add(_ml_first_term(point, r), _log_norm_tail(point.n, r, point.sigma2))
    return BoundValue(kind="ml", log_value=total, radius_used=r,
                      clamped=total.log_value > 0.0)


def typicality_bound(point: ChannelPoint, r: float | None = None) -> BoundValue:
    """Achievability via a single-ball typicality decoder:

        P_e <= gamma V_n r^n + Pr{||Z|| > r},

    defaulting to the optimizing radius sigma sqrt(n (1 + 2 delta* - 2 delta)).
    """
    n = point.n
    if r is None:
        radicand = 1.0 + 2.0 * (delta_star(point.sigma2) - point.nld)
        if radicand <= 0.0:
            raise ValueError(
                f"default typicality radius undefined: 1 + 2(delta* - delta) = {radicand} <= 0")
        r = math.sqrt(point.sigma2 * n * radicand)
    elif not (r > 0.0):
        raise ValueError(f"radius must be > 0, got {r}")
    first = LogProb(n * point.nld + log_vn(n) + n * math.log(r))
    total = log_add(first, _log_norm_tail(n, r, point.sigma2))
    return BoundValue(kind="typicality", log_value=total, radius_used=r,
                      clamped=total.log_value > 0.0)


def poltyrev_ml_bound(point: ChannelPoint) -> BoundValue:
    """The ML bound evaluated at the classical radius sqrt(n) sigma e^(delta*-delta)."""
    r = poltyrev_radius(point)
    inner = ml_bound(point, r=r)
    return BoundValue(kind="poltyrev_r", log_value=inner.log_value,
                      radius_used=r, clamped=inner.clamped)


CURVE_KINDS = ("sphere", "ml", "typicality", "poltyrev")


class BoundCurve(NamedTuple):
    """One bound over a vector of dimensions: the array form of :class:`BoundValue`."""

    log_value: np.ndarray   # unclamped ln of the bound; -inf marks an exact zero
    clamped: np.ndarray     # log_value > 0: the bound exceeds 1 and is vacuous

    @property
    def value(self) -> np.ndarray:
        """Linear values clamped into [0, 1]."""
        return np.minimum(np.exp(self.log_value), 1.0)


def _check_dims(n) -> np.ndarray:
    n = np.asarray(n)
    # Integers past int64 arrive as uint64 or as Python ints in an object array.
    if n.ndim == 1 and n.dtype.kind in "uO":
        for v in n.tolist():
            if isinstance(v, numbers.Integral):
                _check_dim_limit(v)
    if n.ndim != 1 or n.dtype.kind not in "iu":
        raise ValueError(f"dimensions must be a 1-d integer array, got {n!r}")
    if n.size and n.min() < 1:
        raise ValueError(f"dimension must be >= 1, got {n.min()}")
    return n.astype(float)


def _math_map(fn, v: np.ndarray) -> np.ndarray:
    # A math function elementwise (0.10-0.15 us an element), so that ln Gamma,
    # r_eff and n ln r round exactly as in the scalar bounds.  Above capacity
    # the bounds' logs move by up to n/2 times the relative change in x, and
    # scipy's gammaln with numpy's exp moved them up to 2.6e-12 relative.
    return np.fromiter(map(fn, v.tolist()), float, v.size)


def _log_vn_curve(n: np.ndarray) -> np.ndarray:
    # specfn.log_vn over a float array of n.
    return 0.5 * n * math.log(math.pi) - _math_map(math.lgamma, 0.5 * n + 1.0)


def _ml_log(n, ml_terms, x, log_norm_tail):
    # ln of the ML bound at radius r, x = r^2/(2 sigma2): _ml_first_term plus
    # the chi-square tail, summed in the log domain.
    return np.logaddexp(ml_terms + log_reg_gamma_tail(n, x, upper=False), log_norm_tail)


@np.errstate(over="ignore")
def bound_curves(n, nld: float, sigma2: float, kinds=CURVE_KINDS) -> dict[str, BoundCurve]:
    """The bounds named in ``kinds`` (from :data:`CURVE_KINDS`) at every
    dimension of the 1-d integer array ``n``, at one (nld, sigma2).

    The array path of :func:`sphere_bound`, :func:`ml_bound`,
    :func:`typicality_bound` and :func:`poltyrev_ml_bound` at their default
    radii: the same formulas, with the incomplete gammas from
    :func:`~icawgn.specfn.log_reg_gamma_tail`.  Log values agree with the
    scalar functions to 1e-12 relative (bit for bit at almost every n), and
    inputs the scalar functions reject raise the same exception types.
    """
    _check_sigma2(sigma2)
    _check_nld(nld)
    unknown = [k for k in kinds if k not in CURVE_KINDS]
    if unknown:
        raise ValueError(f"unknown bound kind {unknown[0]!r}")
    n = _check_dims(n)
    a = 0.5 * n
    log_vn = _log_vn_curve(n)
    logs = {}
    if "ml" in kinds or "poltyrev" in kinds:
        ml_terms = (n * nld + log_vn + 0.5 * n * math.log(sigma2) + 0.5 * n * math.log(2.0)
                    + _math_map(math.lgamma, n) - _math_map(math.lgamma, a))
    if "sphere" in kinds or "ml" in kinds:
        r = _math_map(math.exp, -nld - log_vn / n)   # effective_radius
        x = r * r / (2.0 * sigma2)
        logs["sphere"] = log_reg_gamma_tail(a, x, upper=True)
        if "ml" in kinds:
            logs["ml"] = _ml_log(n, ml_terms, x, logs["sphere"])
    if "typicality" in kinds:
        radicand = 1.0 + 2.0 * (delta_star(sigma2) - nld)
        if radicand <= 0.0:
            raise ValueError(
                f"default typicality radius undefined: 1 + 2(delta* - delta) = {radicand} <= 0")
        r = np.sqrt(sigma2 * n * radicand)
        logs["typicality"] = np.logaddexp(
            n * nld + log_vn + n * _math_map(math.log, r),
            log_reg_gamma_tail(a, r * r / (2.0 * sigma2), upper=True))
    if "poltyrev" in kinds:
        r = np.sqrt(n) * math.sqrt(sigma2) * math.exp(delta_star(sigma2) - nld)
        if not r.min(initial=math.inf) > 0.0:
            raise ValueError(f"radius must be > 0, got {r.min()}")
        x = r * r / (2.0 * sigma2)
        logs["poltyrev"] = _ml_log(n, ml_terms, x, log_reg_gamma_tail(a, x, upper=True))
    return {k: BoundCurve(logs[k], logs[k] > 0.0) for k in kinds}


# Past r/sigma = 100 the Gaussian peak of the section integrand is too narrow
# for the quadrature: at 200 the 512-node rule raises QuadratureError (150
# still converges).
_MAX_SECTION_SNR = 100.0


def _check_section_radius(r: float, sigma2: float) -> None:
    if not (0.0 < r < math.inf):
        raise ValueError(f"radius must be finite and > 0, got {r}")
    snr = r / math.sqrt(sigma2)
    if snr > _MAX_SECTION_SNR:
        raise ValueError(f"r/sigma must be <= {_MAX_SECTION_SNR:g}, got {snr:g}")


def d_section_prob(n: int, r: float, w: float, sigma2: float) -> float:
    """Probability that the noise lands in the sphere section D(r, w): the part
    of the radius-r ball cut off by a hyperplane at distance w/2 from the origin.

    Reduction to one dimension plus a chi CDF, over the angle of the offset
    z = r cos(t), t in [0, arccos(w/2r)]:
        Pr{Z in D(r, w)} = int f_Z(r cos t) P((n-1)/2, r^2 sin^2 t / 2 sigma2) r sin t dt,
    evaluated by Gauss-Legendre quadrature with the chi CDF from scipy's
    ``gammainc``.  Over the offset z the chi CDF behaves like
    (r - z)^((n-1)/2) at the end of the range, a half-integer power for even
    n; over the angle it goes like sin^(n-1) t, which is analytic for every n,
    so the rule converges geometrically.  Takes r/sigma up to 100; at w = 0,
    where the value is half the chi CDF, it is within 1e-12 relative for
    n up to 1000 and r/sigma up to 100.
    """
    if n < 2:
        raise ValueError(f"dimension must be >= 2, got {n}")
    _check_sigma2(sigma2)
    _check_section_radius(r, sigma2)
    if not (0.0 <= w <= 2.0 * r):
        raise ValueError(f"chord offset must lie in [0, 2r], got w={w}, r={r}")
    if w == 2.0 * r:
        return 0.0
    a = 0.5 * (n - 1)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma2)

    def integrand(theta):
        z = r * np.cos(theta)
        rho = r * np.sin(theta)
        chi_cdf = gammainc(a, rho * rho / (2.0 * sigma2))
        return norm * np.exp(-z * z / (2.0 * sigma2)) * chi_cdf * rho

    val, _ = integrate_adaptive(integrand, 0.0, math.acos(0.5 * w / r), rel_tol=1e-11)
    return val


def equivalence_sides(n: int, r: float, sigma2: float):
    """Both sides of the section-integral identity

        n int_0^{2r} w^(n-1) Pr{Z in D(r, w)} dw  =  int_0^r f_R(t) t^n dt.

    The left side is a Gauss-Legendre quadrature over the angle
    w = 2r cos(phi), phi in [0, pi/2], of :func:`d_section_prob`: near w = 2r
    the section probability goes like (2r - w)^((n+1)/2), and
    2r - w = 4r sin^2(phi/2) makes that analytic too.  The right side is the
    ML bound's radial term in closed form, taken in the log domain:
        (2 sigma2)^(n/2) Gamma(n) / Gamma(n/2) P(n, r^2 / 2 sigma2).
    Nested integration on the left limits this to small n (2..8); r/sigma is
    limited to 100 as in :func:`d_section_prob`.  The two sides agree to
    1e-12 relative for r/sigma up to 10 and to 1e-11 up to 100 (sigma2 = 1).
    A radius so small that the right side, of order r^(2n), is not a normal
    double is rejected: the identity cannot be checked there.
    """
    if not (2 <= n <= 8):
        raise ValueError(f"equivalence check supports n in 2..8, got {n}")
    _check_sigma2(sigma2)
    _check_section_radius(r, sigma2)

    def outer(phis):
        out = np.empty_like(phis)
        for i, phi in enumerate(phis):
            w = 2.0 * r * math.cos(phi)
            out[i] = n * w ** (n - 1) * d_section_prob(n, r, w, sigma2) * 2.0 * r * math.sin(phi)
        return out

    log_rhs = (0.5 * n * math.log(2.0 * sigma2) + math.lgamma(n) - math.lgamma(0.5 * n)
               + log_reg_gamma_lower(float(n), r * r / (2.0 * sigma2)).log_value)
    if not log_rhs >= math.log(sys.float_info.min):
        raise ValueError(f"r = {r:g} is too small at n = {n}: the right side of the "
                         f"identity, of order r^(2n), underflows a double")
    lhs, _ = integrate_adaptive(outer, 0.0, 0.5 * math.pi, rel_tol=1e-9)
    return lhs, math.exp(log_rhs)


def equivalence_discrepancy(lhs: float, rhs: float) -> float:
    """Relative discrepancy |lhs - rhs| / rhs of the two sides that
    :func:`equivalence_sides` returns (its right side is a normal double)."""
    return abs(lhs - rhs) / rhs


def equivalence_check(n: int, r: float, sigma2: float) -> float:
    """Relative discrepancy of the section-integral identity at (n, r, sigma2)."""
    return equivalence_discrepancy(*equivalence_sides(n, r, sigma2))
