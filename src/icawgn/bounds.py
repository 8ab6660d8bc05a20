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
:class:`ChannelPoint` and returns a :class:`BoundValue`; the converse
inversion and the asymptotic comparisons use it.  The array one,
:func:`bound_curves`, takes a vector of dimensions at one (delta, sigma2)
and returns the natural logs of each kind as an array, as
:func:`~icawgn.asymptotics.asym_curves` does for the asymptotic forms; it
agrees with the scalar path to 1e-12 relative in the log (bit for bit at
almost every n) and is about ten times faster per dimension: about 2 us for
all four bounds at n up to 1e4, against about 22 us one point at a time
(Python 3.11, one core of a 2-core x86-64 box).

Range: every dimension from 1 to 2^63 - 1 gives a finite log or an exact
zero.  The incomplete gammas under the scalar bounds and
:func:`bound_curves` hold 1e-13 relative to mpmath for n up to 1e7 (shape
a = n/2 up to 5e6); past it the bounds return finite logs without that
promise.  The first term of :func:`ml_bound` and :func:`poltyrev_ml_bound`
sums terms of size n |d|, so the log of those bounds carries an absolute
error of about n |d| 2^-53, the rounding of n d itself, at every n: against
60-digit mpmath, 5.9e-13 at n = 1e3, 8.1e-12 at 1e4 and 9.3e-10 at 1e6.

The section probabilities and the section-integral identity are the one
place that integrates numerically, by a Gauss-Legendre rule over an angle.

Units of sigma: the bounds depend on (delta, sigma2) only through d = delta +
(1/2) ln sigma2, and on a radius r only through s = r/sigma.  Public functions
form d and s once and evaluate at sigma2 = 1, reporting radii as sigma s, so
any finite sigma2 > 0, subnormals included, gives the sigma2 = 1 result at d.

Past double range: every exponential of an NLD (r_eff/sigma, the Poltyrev
radius, the density) goes through ``specfn._exp_or_inf``, which is math.exp
up to the largest double and inf above it, as an underflow is 0.  The
incomplete gammas are exact at those ends, Q(a, inf) = P(a, 0) = 0 and
P(a, inf) = Q(a, 0) = 1, so far below capacity the sphere bound is an exact
zero and the ML bound its first term at r = inf, and far above it the
bounds are exactly 1, where math.exp would have raised OverflowError.
Every finite value keeps its bits.
"""

import functools
import math
import sys
from typing import NamedTuple

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import gammainc

from .specfn import (
    _BOOLS,
    LogProb,
    _ValidatedTuple,
    _check_int,
    _check_nld,
    _check_not_nan,
    _check_one_nld,
    _check_positive,
    _check_positive_or_inf,
    _check_sigma2,
    _exp_or_inf,
    _log_add,
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
    "bound_curves",
    "d_section_prob",
    "equivalence_sides",
    "equivalence_discrepancy",
]


_DELTA_STAR_1 = -0.5 * math.log(2.0 * math.pi * math.e)   # delta* at sigma2 = 1


class _ChannelPointFields(NamedTuple):
    n: int
    nld: float
    sigma2: float


class ChannelPoint(_ValidatedTuple, _ChannelPointFields):
    """An evaluation point, an immutable tuple (n, nld, sigma2): dimension n,
    NLD delta (nats/dim), noise variance sigma2."""

    __slots__ = ()

    def __new__(cls, n: int, nld: float, sigma2: float):
        _check_int(n)
        _check_sigma2(sigma2)
        _check_nld(nld)
        return tuple.__new__(cls, (n, nld, sigma2))

    @property
    def density(self) -> float:
        """Constellation density gamma = e^(n delta) per unit volume, inf past double range."""
        return _exp_or_inf(self.n * self.nld)


def _unit_nld(point: ChannelPoint) -> float:
    return point.nld + 0.5 * math.log(point.sigma2)


class BoundValue(NamedTuple):
    """A bound evaluation, an immutable tuple (kind, log_value, radius_used):
    the bound's kind, its log-domain value and the radius applied.

    ``log_value`` holds the bound exactly as computed (it may exceed 1 when
    the bound is vacuous); ``clamped`` reports that, and ``value`` yields
    the linear probability clamped into [0, 1].
    """

    kind: str
    log_value: LogProb
    radius_used: float

    @property
    def clamped(self) -> bool:
        """Whether the bound is vacuous: its log is above 0."""
        return self.log_raw > 0.0

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
    return _DELTA_STAR_1 - 0.5 * math.log(sigma2)


def delta_cr(sigma2: float) -> float:
    """Critical NLD (1/2) ln(1/(4 pi e sigma2)), where the achievability exponent flattens."""
    _check_sigma2(sigma2)
    return -0.5 * (math.log(4.0 * math.pi * math.e) + math.log(sigma2))


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
    return _unit_radius(point.n, point.nld, log_vn(point.n))


def _unit_radius(n: int, d: float, lv: float) -> float:
    # r_eff / sigma at the NLD d in units of sigma, with lv = ln V_n.
    return _exp_or_inf(-d - lv / n)


@np.errstate(over="ignore")
def _rho_star(n: np.ndarray, d: float) -> np.ndarray:
    # rho* = (r_eff / sigma)^2 / n over a float array of n at the NLD d, finite
    # wherever it is.  s is rounded as _unit_radius rounds it: the sandwiches'
    # logs move by n/2 times any change in rho*.
    s = _math_map(_exp_or_inf, -d - _log_vn_curve(n) / n)
    s2 = s * s
    return np.where(s2 < math.inf, s2 / n, s * (s / n))


def poltyrev_radius(point: ChannelPoint) -> float:
    """The classical suboptimal decoding radius sqrt(n) sigma e^(delta* - delta)."""
    return math.sqrt(point.sigma2) * _poltyrev_unit_radius(point.n, _unit_nld(point))


def _poltyrev_unit_radius(n: int, d: float) -> float:
    return math.sqrt(n) * _exp_or_inf(_DELTA_STAR_1 - d)


def _gamma_arg(s):
    return 0.5 * (s * s)


def _log_norm_tail(n: int, s: float) -> LogProb:
    # Pr{||Z|| > s} for Z ~ N(0, I_n): chi-square upper tail.
    return log_reg_gamma_upper(0.5 * n, _gamma_arg(s))


def sphere_bound(point: ChannelPoint) -> BoundValue:
    """Converse: Pr{||Z|| > r_eff}, a lower bound on the error probability of
    any constellation at this (n, delta, sigma2)."""
    n, _, sigma2 = point
    s = _unit_radius(n, _unit_nld(point), log_vn(n))
    return BoundValue("sphere", _log_norm_tail(n, s), math.sqrt(sigma2) * s)


def sphere_bound_by_volume(n: int, v: float, sigma2: float) -> float:
    """Probability that the noise leaves a sphere of volume v.

    Equals Q(n/2, (v/V_n)^(2/n) / (2 sigma2)); convex in v, which is what
    lets the converse extend to unequal Voronoi cell volumes.
    """
    _check_int(n)
    _check_positive_or_inf(v, "volume")
    _check_sigma2(sigma2)
    # ln s^2 of the ball's radius in units of sigma.
    log_s2 = 2.0 * (math.log(v) - log_vn(n)) / n - math.log(sigma2)
    return reg_gamma_upper(0.5 * n, 0.5 * _exp_or_inf(log_s2))


def _ml_first_term(n: int, d: float, s: float, lv: float) -> float:
    # ln of gamma V_n int_0^r f_R(t) t^n dt in units of sigma, with lv = ln V_n,
    #   = n d + ln V_n + (n/2) ln 2 + ln Gamma(n) - ln Gamma(n/2) + ln P(n, s^2/2),
    # -inf where P or e^(n d) is an exact zero.
    tail = log_reg_gamma_lower(float(n), _gamma_arg(s)).log_value
    if tail == -math.inf:
        return tail
    return (n * d + lv + 0.5 * n * math.log(2.0)
            + math.lgamma(float(n)) - math.lgamma(0.5 * n)) + tail


def _ml_bound_at(kind: str, n: int, d: float, s: float, lv: float, radius_used: float) -> BoundValue:
    # The ML bound at s = r/sigma, with lv = ln V_n.
    log = _log_add(_ml_first_term(n, d, s, lv), _log_norm_tail(n, s).log_value)
    return BoundValue(kind, LogProb(log), radius_used)


def ml_bound(point: ChannelPoint, r: float | None = None) -> BoundValue:
    """Achievability via the ML decoder: there exist constellations with

        P_e <= gamma V_n int_0^r f_R(t) t^n dt + Pr{||Z|| > r},

    f_R being the noise-norm pdf.  Defaults to the optimizing radius r_eff.
    """
    n, d, sigma = point.n, _unit_nld(point), math.sqrt(point.sigma2)
    if r is not None:
        _check_positive_or_inf(r, "radius")
    lv = log_vn(n)
    s = _unit_radius(n, d, lv) if r is None else r / sigma
    return _ml_bound_at("ml", n, d, s, lv, sigma * s if r is None else r)


def _log1p_2x(gap: float) -> float:
    # ln(1 + 2 gap), gap = delta* - delta > -1/2.  Where 2 gap passes double
    # range it is ln 2 + ln gap to double precision, so gap up to the largest
    # double gives a finite log.
    two_gap = 2.0 * gap
    return math.log1p(two_gap) if two_gap < math.inf else math.log(2.0) + math.log(gap)


def _typicality_gap(gap: float) -> float:
    # gap = delta* - delta where the typicality radius and exponent are defined.
    if 1.0 + 2.0 * gap <= 0.0:
        raise ValueError(
            f"default typicality radius undefined: 1 + 2(delta* - delta) = {1.0 + 2.0 * gap} <= 0")
    return gap


def _log_typicality_radius(n: float, gap: float) -> float:
    # ln s of the default typicality radius s = sqrt(n (1 + 2 gap)) in units of
    # sigma; where n (1 + 2 gap) overflows, (1/2)(ln n + ln(1 + 2 gap)).
    s = math.sqrt(n * (1.0 + 2.0 * gap))
    return math.log(s) if s < math.inf else 0.5 * (math.log(n) + _log1p_2x(gap))


def typicality_bound(point: ChannelPoint, r: float | None = None) -> BoundValue:
    """Achievability via a single-ball typicality decoder:

        P_e <= gamma V_n r^n + Pr{||Z|| > r},

    defaulting to the optimizing radius sigma sqrt(n (1 + 2 delta* - 2 delta)).
    Where that radius passes double range the bound is its volume term.  An
    explicit r = inf raises ValueError, as gamma V_n r^n is then inf.
    """
    n, d, sigma = point.n, _unit_nld(point), math.sqrt(point.sigma2)
    if r is not None:
        _check_positive_or_inf(r, "radius")
    gap = _typicality_gap(_DELTA_STAR_1 - d) if r is None else None
    s = math.sqrt(n * (1.0 + 2.0 * gap)) if r is None else r / sigma
    log_s = _log_typicality_radius(n, gap) if r is None else math.log(s)
    first = n * d + log_vn(n) + n * log_s
    if first == math.inf:
        raise ValueError(f"volume term gamma V_n r^n overflows at r = {r}, r/sigma = {s}")
    # first = -inf where e^(n d) underflows: the volume term is an exact zero.
    log = _log_add(first, _log_norm_tail(n, s).log_value)
    return BoundValue("typicality", LogProb(log), sigma * s if r is None else r)


def poltyrev_ml_bound(point: ChannelPoint) -> BoundValue:
    """The ML bound evaluated at the classical radius sqrt(n) sigma e^(delta*-delta)."""
    n, d = point.n, _unit_nld(point)
    s = _poltyrev_unit_radius(n, d)
    return _ml_bound_at("poltyrev_r", n, d, s, log_vn(n), math.sqrt(point.sigma2) * s)


CURVE_KINDS = ("sphere", "ml", "typicality", "poltyrev")


def _check_dims(n) -> np.ndarray:
    # A 1-d sequence of dimensions, each valid for _check_int, as floats.
    # np.asarray makes [4, True] int64, so a bool element is caught first.
    has_bool = isinstance(n, (list, tuple)) and not _BOOLS.isdisjoint(map(type, n))
    given, n = n, np.asarray(n)
    if n.shape == (0,):
        return np.zeros(0)
    # Integers past int64 arrive as uint64 or as Python ints in an object array.
    if n.ndim == 1 and n.dtype.kind in "uO":
        for v in n.tolist():
            _check_int(v)
    if has_bool or n.ndim != 1 or n.dtype.kind not in "iu":
        raise ValueError(f"dimensions must be a 1-d integer array, got {given!r}")
    _check_int(n.min())
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


class _DimTerms(NamedTuple):
    # The terms of the bounds that depend on n alone, over a float array of n.

    n: np.ndarray
    a: np.ndarray              # n/2, the chi-square shape
    log_vn: np.ndarray         # ln V_n
    log_vn_per_n: np.ndarray   # ln V_n / n
    half_n_ln2: np.ndarray     # (n/2) ln 2
    lgamma_n: np.ndarray       # ln Gamma(n)
    lgamma_a: np.ndarray       # ln Gamma(n/2)

    def take(self, i: np.ndarray) -> "_DimTerms":
        """The terms at the dimensions indexed by ``i``."""
        return _DimTerms(*(v[i] for v in self))


def _dim_terms(n: np.ndarray) -> _DimTerms:
    # _DimTerms of a float array of n, as _check_dims returns it.
    a = 0.5 * n
    log_vn = _log_vn_curve(n)
    return _DimTerms(n, a, log_vn, log_vn / n, 0.5 * n * math.log(2.0),
                     _math_map(math.lgamma, n), _math_map(math.lgamma, a))


def _ml_log(t: _DimTerms, d, x, log_norm_tail):
    # ln of the ML bound at x = s^2/2: _ml_first_term plus the chi-square
    # tail, summed in the log domain.  As in _ml_first_term, an exact-zero
    # lower tail is a zero first term, without forming inf - inf.
    ml_terms = t.n * d + t.log_vn + t.half_n_ln2 + t.lgamma_n - t.lgamma_a
    lower = log_reg_gamma_tail(t.n, x, upper=False)
    return np.logaddexp(np.where(lower > -math.inf, ml_terms, 0.0) + lower, log_norm_tail)


@np.errstate(over="ignore")
def _sphere_ml_curves(t: _DimTerms, d, ml: bool = True):
    # ln of the sphere bound and, if ``ml`` (else None), of the ML bound, both
    # at r_eff, over the dimensions of ``t`` at d (one, or one per dimension).
    x = _gamma_arg(_math_map(_exp_or_inf, -d - t.log_vn_per_n))   # _unit_radius
    sphere = log_reg_gamma_tail(t.a, x, upper=True)
    return sphere, _ml_log(t, d, x, sphere) if ml else None


@np.errstate(over="ignore")
def bound_curves(n, nld: float, sigma2: float, kinds=CURVE_KINDS) -> dict[str, np.ndarray]:
    """The natural logs of the bounds named in ``kinds`` (from
    :data:`CURVE_KINDS`), in that order, at every dimension of the 1-d integer
    array ``n`` and one (nld, sigma2): -inf is an exact zero, and a log above 0
    a vacuous bound, one the scalar functions flag ``clamped``.

    The array path of :func:`sphere_bound`, :func:`ml_bound`,
    :func:`typicality_bound` and :func:`poltyrev_ml_bound` at their default
    radii: the same formulas, with the incomplete gammas from
    :func:`~icawgn.specfn.log_reg_gamma_tail`.  Log values agree with the
    scalar functions to 1e-12 relative, and bit for bit at almost every n:
    the rare last-bit gaps come from numpy's ``np.log`` and ``np.log1p``,
    which differ from libm's ``math.log`` and ``math.log1p`` in the last bit
    at about 0.35% and 7-8% of arguments uniform on (0, 1), not from the
    scipy kernels, whose ufuncs and scalar entry points agree.  Inputs the
    scalar functions reject raise the same exception types; so does an array
    ``nld``.
    """
    _check_sigma2(sigma2)
    _check_one_nld(nld)
    if isinstance(kinds, str):
        raise ValueError(f"kinds must be a sequence of bound kinds, got the string {kinds!r}")
    unknown = [k for k in kinds if k not in CURVE_KINDS]
    if unknown:
        raise ValueError(f"unknown bound kind {unknown[0]!r} (choose from {', '.join(CURVE_KINDS)})")
    t = _dim_terms(_check_dims(n))
    n, a = t.n, t.a
    d = nld + 0.5 * math.log(sigma2)
    logs = {}
    if "sphere" in kinds or "ml" in kinds:
        logs["sphere"], logs["ml"] = _sphere_ml_curves(t, d, "ml" in kinds)
    if "typicality" in kinds:
        gap = _typicality_gap(_DELTA_STAR_1 - d)
        s = np.sqrt(n * (1.0 + 2.0 * gap))   # rounded as math.sqrt rounds: the scalar bound's s
        log_s = _math_map(math.log, s)
        big = s == math.inf   # where _log_typicality_radius takes its other form
        log_s[big] = _math_map(lambda m: _log_typicality_radius(m, gap), n[big])
        logs["typicality"] = np.logaddexp(
            n * d + t.log_vn + n * log_s, log_reg_gamma_tail(a, _gamma_arg(s), upper=True))
    if "poltyrev" in kinds:
        x = _gamma_arg(np.sqrt(n) * _exp_or_inf(_DELTA_STAR_1 - d))
        logs["poltyrev"] = _ml_log(t, d, x, log_reg_gamma_tail(a, x, upper=True))
    return {k: logs[k] for k in kinds}


_legendre_rule = functools.cache(leggauss)
_QUAD_MIN_NODES = 16
# The section integrals up to r/sigma = 100 converge by 512 nodes.
_QUAD_MAX_NODES = 512
_QUAD_REL_TOL = 1e-11
# The rule stops once two estimates differ by less than the smallest normal
# double, so its relative tolerance holds only for integrals above this.
_QUAD_MIN_VALUE = sys.float_info.min / _QUAD_REL_TOL


def integrate_adaptive(f, a: float, b: float) -> float:
    """Integrate a vectorized integrand f over [a, b]: Gauss-Legendre rules
    from 16 nodes, doubled until two successive estimates differ by at most
    1e-11 of the value or by less than the smallest normal double.  Returns
    the finer estimate; raises ArithmeticError if not converged at 512 nodes."""
    if not b > a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    prev = None
    m = _QUAD_MIN_NODES
    while m <= _QUAD_MAX_NODES:
        x, w = _legendre_rule(m)
        val = half * float(np.asarray(f(mid + half * x), dtype=float) @ w)
        if prev is not None:
            err = abs(val - prev)
            if err <= _QUAD_REL_TOL * abs(val) or err < sys.float_info.min:
                return val
        prev = val
        m *= 2
    raise ArithmeticError(
        f"quadrature did not converge on [{a}, {b}]: estimate {val!r}, "
        f"change {err!r} at {_QUAD_MAX_NODES} nodes")


# The section integrand peaks at the end of its angle range, about sigma/r
# wide, and the rule's error grows with r/sigma: at w = 0 d_section_prob is
# 1.1e-13 off at 100 and 1.4e-12 at 300, past its 1e-12 promise; at 1000 it
# does not converge, nor does equivalence_sides for some n at 500.
_MAX_SECTION_SNR = 100.0


def _check_section_radius(r: float, sigma2: float) -> float:
    # Checks sigma2 and a section radius; returns the radius in units of sigma.
    _check_sigma2(sigma2)
    _check_positive(r, "radius")
    s = r / math.sqrt(sigma2)
    if s > _MAX_SECTION_SNR:
        raise ValueError(f"r/sigma must be <= {_MAX_SECTION_SNR:g}, got {s:g}")
    return s


def _section_density(theta, n: int, s: float):
    # f_Z(s cos t) P((n-1)/2, s^2 sin^2 t / 2) s sin t at s = r/sigma.
    u = s * np.cos(theta)
    v = s * np.sin(theta)
    chi_cdf = gammainc(0.5 * (n - 1), 0.5 * v * v)
    return np.exp(-0.5 * u * u) * chi_cdf * v / math.sqrt(2.0 * math.pi)


def d_section_prob(n: int, r: float, w: float, sigma2: float) -> float:
    """Probability that the noise lands in the sphere section D(r, w): the part
    of the radius-r ball cut off by a hyperplane at distance w/2 from the origin.

    Reduction to one dimension plus a chi CDF, over the angle of the offset
    z = r cos(t), t in [0, arccos(w/2r)]:
        Pr{Z in D(r, w)} = int f_Z(r cos t) P((n-1)/2, r^2 sin^2 t / 2 sigma2) r sin t dt,
    one :func:`integrate_adaptive` call with the chi CDF from scipy's
    ``gammainc``.  Over the offset z the chi CDF behaves like
    (r - z)^((n-1)/2) at the end of the range, a half-integer power for even
    n; over the angle it goes like sin^(n-1) t, which is analytic for every n,
    so the rule converges geometrically.  Takes r/sigma up to 100; at w = 0,
    where the value is half the chi CDF, it is within 1e-12 relative for
    n up to 1000 and r/sigma up to 100 (1.1e-13 measured against mpmath).
    """
    _check_int(n, 2)
    s = _check_section_radius(r, sigma2)
    _check_not_nan(w, "chord offset")
    if not (0.0 <= w <= 2.0 * r):
        raise ValueError(f"chord offset must lie in [0, 2r], got w={w}, r={r}")
    # Empty at w = 2r, and where the angle bound rounds to 0: at subnormal r,
    # w/2r rounds to 1 when the section is far below the smallest double.
    end = math.acos(0.5 * w / r)
    if end == 0.0:
        return 0.0
    return integrate_adaptive(lambda t: _section_density(t, n, s), 0.0, end)


def equivalence_sides(n: int, r: float, sigma2: float) -> tuple[LogProb, LogProb]:
    """Both sides of the section-integral identity

        n int_0^{2r} w^(n-1) Pr{Z in D(r, w)} dw  =  int_0^r f_R(t) t^n dt,

    as logs.  With w = 2r cos(phi) the section probability is the integral of
    one density g over [0, phi] (see :func:`d_section_prob`); swapping the
    order of integration takes the w-integral in closed form, (2r cos t)^n,
    so the left side is (2r)^n I, with I the integral of g(t) cos^n t over
    [0, pi/2], and its log n ln 2r + ln I.  The right side is the ML bound's
    radial term in closed form, ln of
    (2 sigma2)^(n/2) Gamma(n) / Gamma(n/2) P(n, r^2 / 2 sigma2).
    r/sigma is limited as in :func:`d_section_prob`.  A radius is rejected
    where I, the right side over (2r)^n, is below 2.2e-297 (the smallest
    normal double over the rule's 1e-11 tolerance), since the rule stops on
    an absolute change below the smallest normal double.  That limit rejects
    r/sigma = 0.05 from n = 122, leaves about [4.6, 67] at n = 400, and
    admits no radius past n = 979.  Over random radii with r/sigma in
    [0.05, 100] the two sides agree to 3.3e-14 relative for n = 2..8,
    3.4e-13 for n up to 100, 6.8e-13 up to 400 and 2.3e-12 up to 979.
    """
    _check_int(n, 2)
    s = _check_section_radius(r, sigma2)
    log_rhs = (0.5 * n * (math.log(2.0) + math.log(sigma2)) + math.lgamma(n)
               - math.lgamma(0.5 * n) + log_reg_gamma_lower(float(n), _gamma_arg(s)).log_value)
    log_power = n * math.log(2.0 * r)
    if not log_rhs - log_power >= math.log(_QUAD_MIN_VALUE):
        raise ValueError(f"r = {r:g} is out of range at n = {n}: the angle integral, the right "
                         f"side of the identity over (2r)^n, is below {_QUAD_MIN_VALUE:.3g} "
                         f"(the smallest normal double / 1e-11), where the quadrature "
                         f"loses its relative accuracy")
    integral = integrate_adaptive(lambda t: _section_density(t, n, s) * np.cos(t) ** n,
                                  0.0, 0.5 * math.pi)
    return LogProb(log_power + math.log(integral)), LogProb(log_rhs)


def equivalence_discrepancy(lhs: LogProb, rhs: LogProb) -> float:
    """Relative discrepancy |lhs / rhs - 1| of the two sides that
    :func:`equivalence_sides` returns, from their logs."""
    return abs(math.expm1(lhs.log_value - rhs.log_value))
