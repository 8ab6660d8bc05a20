"""Numerically robust special functions used by every bound in the package.

Everything here is pure and thread-safe, and all of it is scalar except
:func:`log_reg_gamma_tail`, the array form of the two log-domain incomplete
gammas that serves the bound curves over a whole range of dimensions.
Probability-like quantities are carried in the natural-log domain end to
end (see :class:`LogProb`); linear values are produced only at API
boundaries.  The incomplete-gamma routines take the smaller of the two
tails from scipy (Cephes, after DiDonato & Morris 1986 and Temme 1979) and
the larger as its complement.  Where that tail underflows double precision,
which happens routinely for the chi-square tails at dimensions in the
thousands, the lower tail is the log of Kummer's function (scipy's
``hyp1f1``) and the upper a log-domain continued fraction, both with full
relative accuracy in the log domain.  Below a = 1/2, and past a = 1e5 for a
lower tail (x < a), the scalar functions take the point as one element of
the array form, bit for bit.
"""

import math
import numbers
import sys
from typing import NamedTuple

import numpy as np
from scipy.special import exp1, gammainc, gammaincc, gammaln, hyp1f1

# Scalar entry points of the same scipy.special kernels: bit-identical to the
# ufuncs, without their array-call overhead (0.3 us a call against 1.7 us).
from scipy.special import cython_special as _cs

__all__ = [
    "LogProb",
    "log_vn",
    "reg_gamma_upper",
    "reg_gamma_lower",
    "log_reg_gamma_upper",
    "log_reg_gamma_lower",
    "log_reg_gamma_tail",
    "q_func",
    "log_q_func",
    "q_func_inv",
]

_SQRT2 = math.sqrt(2.0)
_LN_PI = math.log(math.pi)
_LN_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)

# Iteration budget for the upper-tail continued fraction, which converges in
# O(sqrt(a)) steps for x > a.
_MAX_ITER = 100_000
# Once converged, the continued fraction's correction factor rounds to a
# neighbour of 1.0 (1/b * b need not be exactly 1), so it stops within 1 ulp.
_DBL_EPS = 2.0 ** -52

# Smallest tail taken from scipy's linear value; below it Kummer's function
# or the continued fraction carries the tail past double underflow.
_LINEAR_MIN = 1e-300
# scipy sums the lower-tail power series for at most 2000 terms.  Above this
# shape that truncates before convergence for some x < a (relative error 2e-11
# at a = 5e5, 1e-9 at a = 5e6, both at x = 0.99 a).  Within 4.5 sqrt(a) of a
# scipy takes Temme's uniform expansion instead, which stays exact, and every
# P > _LARGE_A_LOWER_MIN lies there (x > a - 2.33 sqrt(a)).  So above this
# shape the lower tail is taken from scipy only above that larger floor.
_SCIPY_SERIES_MAX_A = 1e5
_LARGE_A_LOWER_MIN = 1e-2
# At x < a, P(a, x) < P(1/2, 1/2) = 0.683 for a >= 1/2.  A P above this, at
# a < 1/2, makes Q the smaller tail (scipy's P rounds to 1 or past it at tiny a).
_LOWER_SMALLER_MAX = 0.75

_DBL_MAX = sys.float_info.max
_LOG_DBL_MAX = math.log(_DBL_MAX)

# The largest dimension or count: the array paths and numpy's generators use int64.
_MAX_INT = 2**63 - 1
_BOOLS = frozenset({bool, np.bool_})


def _exp_or_inf(v: float) -> float:
    # e^v, or inf past double range (math.exp raises there).  math.exp of
    # _LOG_DBL_MAX is finite and of the next double up overflows, so every
    # finite result is math.exp's own.
    return math.inf if v > _LOG_DBL_MAX else math.exp(v)


class _ValidatedTuple:
    # Base of the immutable tuple types whose __new__ validates.  namedtuple's
    # _make (and so _replace) and pickle's protocols 0 and 1 build with
    # tuple.__new__ directly; these send every way of building one, copies
    # included, through __new__.
    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)

    def __reduce__(self):
        return type(self), tuple(self)


class _LogProbFields(NamedTuple):
    log_value: float


class LogProb(_ValidatedTuple, _LogProbFields):
    """A nonnegative real carried as its natural log: an immutable tuple
    (log_value,).

    The log value is finite, or -inf for an exact zero.  When the value
    represents a probability, exp(log_value) lies in [0, 1]; intermediate
    bound values may exceed 1 before clamping.
    """

    __slots__ = ()

    def __new__(cls, log_value: float):
        if not log_value < math.inf:   # NaN or +inf
            raise ValueError(f"non-finite log value {log_value!r}")
        return tuple.__new__(cls, (log_value,))

    @property
    def is_zero(self) -> bool:
        """Whether the value is an exact zero, whose log is -inf."""
        return self.log_value == -math.inf

    @property
    def linear(self) -> float:
        """Plain exp of the log value (0 for an exact zero, inf past double range, unclamped)."""
        return _exp_or_inf(self.log_value)

    @property
    def probability(self) -> float:
        """Linear value clamped into [0, 1]."""
        return min(self.linear, 1.0)


def _log_add(a: float, b: float) -> float:
    # ln(e^a + e^b) of two logs, -inf an exact zero.
    hi, lo = (a, b) if a >= b else (b, a)
    return hi if lo == -math.inf else hi + math.log1p(math.exp(lo - hi))


def _check_int(v, least: int = 1, most: int = _MAX_INT, name: str = "dimension") -> None:
    # The one rule for a dimension or a count: an integer, not a bool, in
    # least..most.  Plain ints pass at the first test, without the costlier
    # isinstance: log_vn and ChannelPoint check n at every scalar bound.
    if type(v) is int and least <= v <= most:
        return
    if isinstance(v, bool) or not isinstance(v, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {v!r}")
    if not least <= v <= most:
        symbol = " n" if name == "dimension" else ""
        raise ValueError(f"{name} must be an integer{symbol} in {least}..{most}, got {v}")


def _check_prob(p, name: str = "error probability") -> None:
    # The one rule for a probability: in (0, 1), which NaN, bools and non-numbers are not.
    try:
        if 0.0 < p < 1.0:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be in (0, 1), got {p!r}")


def _check_positive(v, name: str) -> None:
    # The one rule for a positive real: a finite double > 0, which NaN, a
    # non-number and an int past double range are not.  The comparison is
    # all that a valid value pays for.
    try:
        if 0.0 < v <= _DBL_MAX:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be finite and > 0, got {v!r}")


def _check_positive_or_inf(v, name: str) -> None:
    # The one rule for a bound's own radius or volume: a double > 0, inf its exact limit.
    try:
        if 0.0 < v <= _DBL_MAX or v == math.inf:
            return
    except TypeError:
        pass
    raise ValueError(f"{name} must be > 0, got {v!r}")


def _check_not_nan(x, name: str) -> None:
    # The one rule for a real that may be infinite: a double but NaN.
    try:
        if not math.isnan(x):
            return
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"{name} must not be NaN, got {x!r}")


def _check_sigma2(sigma2: float) -> None:
    _check_positive(sigma2, "noise variance")


def _check_nld(delta: float) -> None:
    # A finite double, which a non-number and an int past double range are not.
    try:
        if math.isfinite(delta):
            return
    except (TypeError, OverflowError):
        pass
    raise ValueError(f"NLD must be finite, got {delta!r}")


def _check_one_nld(delta) -> None:
    # The curve functions' NLD: _check_nld's rule, and not a sequence.
    if isinstance(delta, (list, tuple, np.ndarray)):
        raise ValueError(f"NLD must be one number, got {delta!r}")
    _check_nld(delta)


def _check_seed(seed) -> np.random.SeedSequence:
    # The one rule for a seed, returned as its SeedSequence: what SeedSequence
    # takes (None, a nonnegative integer or a sequence of them) but bools.
    try:
        if _BOOLS.isdisjoint(map(type, seed if isinstance(seed, (list, tuple)) else [seed])):
            return np.random.SeedSequence(seed)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"seed must be None, a nonnegative integer or a sequence of them, got {seed!r}")


def log_vn(n: int) -> float:
    """ln of the volume of the n-dimensional unit ball: (n/2) ln pi - ln Gamma(n/2 + 1)."""
    _check_int(n)
    return 0.5 * n * _LN_PI - math.lgamma(0.5 * n + 1.0)


def _check_gamma_args(a: float, x: float) -> None:
    _check_positive(a, "shape parameter")
    try:
        if 0.0 <= x <= _DBL_MAX or x == math.inf:
            return
    except TypeError:
        pass
    raise ValueError(f"argument must be a double >= 0, got {x!r}")


def _stirlerr(a: float) -> float:
    # ln Gamma(a+1) - [(a + 1/2) ln a - a + ln(2 pi)/2].
    if a < 15.0:
        return math.lgamma(a + 1.0) - (a + 0.5) * math.log(a) + a - _LN_SQRT_2PI
    return _stirling_series(a)


def _stirling_series(a):
    # _stirlerr from a = 15 on, where the series to a^-9 is exact to double precision,
    # of a float or of an array elementwise by the same operations (so bit for bit).
    r = 1.0 / (a * a)
    return (1.0 / 12.0 - r * (1.0 / 360.0 - r * (1.0 / 1260.0 - r * (1.0 / 1680.0 - r / 1188.0)))) / a


# 1/39, 1/37, ..., 1/5: atanh(u) - u = u^3/3 + u^5 (1/5 + u^2/7 + ... + u^34/39)
# for |u| <= 1/3, where the first term left out is below 1e-19 of the sum.
_ATANH_COEFFS = tuple(1.0 / k for k in range(39, 3, -2))


def _atanh_minus_u(u):
    # atanh(u) - u of a float, or of an array elementwise by the same operations
    # (so bit for bit): the rounded u^3/3, then Horner's rule in u^2 for the rest.
    u2 = u * u
    p = _ATANH_COEFFS[0]
    for c in _ATANH_COEFFS[1:]:
        p = p * u2 + c
    return u * u2 / 3.0 + u * u2 * u2 * p


def _log_prefactor(a: float, x: float) -> float:
    # ln(x^a e^-x / Gamma(a+1)) = -a phi(x/a) - ln(2 pi a)/2 - stirlerr(a) with
    # phi(l) = l - 1 - ln l.  The direct form a ln x - x - ln Gamma(a+1)
    # cancels to an absolute error near a ln x * 1e-16 (3e-9 at a = 5e6).
    # Near l = 1, phi = t u - 2 (atanh(u) - u), where t = l - 1 and
    # u = t / (2 + t), |u| <= 1/3, so that a phi = (x - a) u - 2 a (atanh(u) - u).
    d = x - a
    if abs(d) > 0.5 * a:
        a_phi = d - a * (math.log(x) - math.log(a))
    else:
        u = d / (a + a + d)
        a_phi = d * u - 2.0 * a * _atanh_minus_u(u)
    return -a_phi - _LN_SQRT_2PI - 0.5 * math.log(a) - _stirlerr(a)


def _log_upper_cf(a: float, x: float) -> float:
    # Q(a, x) = x^a e^-x / Gamma(a) * CF, with the Lentz-evaluated continued
    # fraction CF = 1/(x+1-a - 1*(1-a)/(x+3-a - ...)).  Converges for x > a + 1.
    tiny = 1e-300
    b = x + 1.0 - a
    c = 1.0 / tiny
    d = 1.0 / b if b != 0.0 else 1.0 / tiny
    h = d
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) <= _DBL_EPS:
            break
    else:
        raise ArithmeticError(f"upper-gamma continued fraction failed to converge (a={a}, x={x})")
    return _log_prefactor(a, x) + math.log(a) + math.log(h)


def _log_tail(a: float, x: float, upper: bool) -> float:
    # ln Q(a, x) if upper else ln P(a, x), exact at the ends: Q(a, inf) =
    # P(a, 0) = 0 and Q(a, 0) = P(a, inf) = 1.  Below a = 1/2, and past scipy's
    # series for the lower tail, it is one element of the array kernel.  Else the
    # smaller tail is direct and the larger its complement, at least 0.31 when
    # split at x = a, so log1p loses nothing.  Below the floor, P = x^a e^-x /
    # Gamma(a+1) * M(1, a+1, x) (Kummer's M); scalar hyp1f1 takes no int x.
    if x == 0.0:
        return 0.0 if upper else -math.inf
    if x == math.inf:
        return -math.inf if upper else 0.0
    lower_smaller = x < a
    if a < 0.5 or lower_smaller and a > _SCIPY_SERIES_MAX_A:
        return float(_log_tail_inner(np.array([float(a)]), np.array([float(x)]), upper)[0])
    small = _cs.gammainc(a, x) if lower_smaller else _cs.gammaincc(a, x)
    direct = upper != lower_smaller
    if small > _LINEAR_MIN:
        return math.log(small) if direct else math.log1p(-small)
    if lower_smaller:
        log_small = _log_prefactor(a, x) + math.log(_cs.hyp1f1(1.0, a + 1.0, float(x)))
    else:
        log_small = _log_upper_cf(a, x)
    return min(log_small, 0.0) if direct else math.log1p(-math.exp(log_small))


def log_reg_gamma_lower(a: float, x: float) -> LogProb:
    """ln P(a, x), the regularized lower incomplete gamma in the log domain:
    within 1e-13 relative of mpmath, or 1e-300 absolute where |ln P| is below
    that, for 5e-324 <= a <= 5e6 (dimensions n <= 1e7), and a finite log
    without that promise past it.  Below a = 1/2, and past a = 1e5 for x < a,
    it is the one element of :func:`log_reg_gamma_tail`."""
    _check_gamma_args(a, x)
    return LogProb(_log_tail(a, x, upper=False))


def log_reg_gamma_upper(a: float, x: float) -> LogProb:
    """ln Q(a, x), the regularized upper incomplete gamma in the log domain:
    within 1e-13 relative of mpmath for 5e-324 <= a <= 5e6 (dimensions
    n <= 1e7), and a finite log without that promise past it.  Below a = 1/2,
    and past a = 1e5 for x < a, it is the one element of
    :func:`log_reg_gamma_tail`."""
    _check_gamma_args(a, x)
    return LogProb(_log_tail(a, x, upper=True))


def _stirlerr_array(a: np.ndarray) -> np.ndarray:
    # _stirlerr over an array, picking between forms that may overflow where unused.
    with np.errstate(all="ignore"):
        return np.where(a < 15.0, gammaln(a + 1.0) - (a + 0.5) * np.log(a) + a - _LN_SQRT_2PI,
                        _stirling_series(a))


def _log_prefactor_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # _log_prefactor over arrays, with both forms of a phi picked as there.
    d = x - a
    with np.errstate(over="ignore", invalid="ignore"):   # the series past a = DBL_MAX / 2
        u = d / (a + a + d)
        near = d * u - 2.0 * a * _atanh_minus_u(u)
    a_phi = np.where(np.abs(d) > 0.5 * a, d - a * (np.log(x) - np.log(a)), near)
    return -a_phi - _LN_SQRT_2PI - 0.5 * np.log(a) - _stirlerr_array(a)


def _log_lower_kummer_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # ln P = ln(x^a e^-x / Gamma(a+1)) + ln M(1, a+1, x), as in _log_tail; NaN
    # where scipy's M leaves [1, inf), the range of M(1, a+1, x) at x >= 0.
    m = hyp1f1(1.0, a + 1.0, x)
    return _log_prefactor_array(a, x) + np.log(np.where((m >= 1.0) & (m < math.inf), m, math.nan))


def _log_upper_cf_array(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    # _log_upper_cf over 1-d arrays: the same Lentz recurrence, bit for bit, on
    # every element until the slowest converges, each product frozen at its own.
    tiny = 1e-300
    b = x + 1.0 - a
    c = np.full_like(x, 1.0 / tiny)
    d = np.divide(1.0, b, out=np.full_like(x, 1.0 / tiny), where=b != 0.0)
    h = d
    done = np.zeros(x.shape, dtype=bool)
    for i in range(1, _MAX_ITER):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = np.where(np.abs(d) < tiny, tiny, d)
        c = b + an / c
        c = np.where(np.abs(c) < tiny, tiny, c)
        d = 1.0 / d
        delta = d * c
        h = np.where(done, h, h * delta)
        done |= np.abs(delta - 1.0) <= _DBL_EPS
        if _every(done):
            return _log_prefactor_array(a, x) + np.log(a) + np.log(h)
    first = np.argmin(done)
    raise ArithmeticError(f"upper-gamma continued fraction failed to converge (a={a[first]}, x={x[first]})")


def _every(mask: np.ndarray) -> bool:
    # mask.all(), at a third of its cost on small arrays.
    return np.count_nonzero(mask) == mask.size


def _log_tail_inner(a: np.ndarray, x: np.ndarray, upper: bool) -> np.ndarray:
    # log_reg_gamma_tail over 1-d arrays with every x in (0, inf).  Each split
    # by branch is skipped where every element falls on one side of it.
    lower_smaller = x < a
    n_lower = np.count_nonzero(lower_smaller)
    one_side = n_lower in (0, x.size)
    if one_side:
        small = (gammainc if n_lower else gammaincc)(a, x)
    else:
        small = np.where(lower_smaller, gammainc(a, x), gammaincc(a, x))
    large = lower_smaller & (a > _SCIPY_SERIES_MAX_A)
    linear = small > (np.where(large, _LARGE_A_LOWER_MIN, _LINEAR_MIN) if np.count_nonzero(large)
                      else _LINEAR_MIN)
    flip = small > _LOWER_SMALLER_MAX   # a lower tail only: Q(a, x) < 1/2 at x >= a
    if np.count_nonzero(flip):
        lower_smaller, one_side = lower_smaller & ~flip, False
        small = np.where(flip, gammaincc(a, x), small)
    # The smaller tail directly and the larger as its complement, as in _log_tail.
    if one_side and _every(linear):
        return np.log(small) if (n_lower > 0) != upper else np.log1p(-small)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_small = np.log(small)   # -inf where scipy's tail is zero (NaN below zero)
    # Below a = 1e-300, where the fraction need not converge, Q = a E1(x) to
    # relative a |ln x| at x <= 1 (Gamma(a+1) rounds to 1), and is the smaller.
    by_e1 = ~linear & (a < 1e-300) & (x <= 1.0)
    lower_smaller, rest = lower_smaller & ~by_e1, ~linear & ~by_e1
    for m, log_small_of in ((by_e1, lambda a, x: np.log(a) + np.log(exp1(x))),
                            (rest & lower_smaller, _log_lower_kummer_array),
                            (rest & ~lower_smaller, _log_upper_cf_array)):
        if m.any():
            deep = log_small_of(a[m], x[m])
            # scipy's hyp1f1 is NaN, 0 or inf at some x within a few sqrt(a)
            # below a from a = 2.4e10 on; there scipy's tail stands in, -inf if 0.
            log_small[m] = np.minimum(np.where(np.isnan(deep), log_small[m], deep), 0.0)
    # The larger tail, where it is the one asked for, as the complement.
    return np.log1p(-np.where(linear, small, np.exp(log_small)), out=log_small,
                    where=lower_smaller == upper)


def _double_array(v, shape: bool) -> np.ndarray:
    # v as doubles where numpy reads it as integers or floats; a bool, string,
    # bytes or object element (None, an int past 64 bits) is not a number here.
    try:
        arr = np.asarray(v)
        if arr.dtype.kind in "iuf":
            return arr.astype(float, copy=False)
    except ValueError:   # a ragged sequence, which numpy cannot read
        pass
    if shape:
        raise ValueError(f"shape parameter must be finite and > 0, got {v!r}")
    raise ValueError(f"argument must be a double >= 0, got {v!r}")


def log_reg_gamma_tail(a, x, upper: bool) -> np.ndarray:
    """ln Q(a, x) if ``upper`` else ln P(a, x), elementwise over arrays a and
    x (broadcast together); -inf marks an exact zero.

    The array form of :func:`log_reg_gamma_upper` and
    :func:`log_reg_gamma_lower`, by the same method: scipy's ``gammainc`` or
    ``gammaincc`` ufunc for the smaller tail where it exceeds 1e-300 (for the
    lower tail at a > 1e5, 1e-2), and below that the log of the ``hyp1f1``
    ufunc for the lower tail and a numpy version of the same continued
    fraction for the upper, iterated until its slowest element converges
    (a E1(x) at a < 1e-300, x <= 1).  Accurate as the scalar functions are
    for 5e-324 <= a <= 5e6 (n <= 1e7), and finite without that promise past
    it.  An element takes the same branch and kernel whatever else is in the
    array.  It matches the scalar functions bit for bit at every point below
    a = 1/2 and at every point with x < a past a = 1e5, which they take
    through this kernel, and at almost every other point: the scipy ufuncs
    agree with their scalar entry points, but numpy's ``np.log`` and
    ``np.log1p`` differ from libm's ``math.log`` and ``math.log1p`` in the
    last bit at about 0.35% and 7-8% of arguments uniform on (0, 1).
    """
    a, x = _double_array(a, shape=True), _double_array(x, shape=False)
    if a.shape != x.shape:
        a, x = np.broadcast_arrays(a, x)
    ok = (0.0 < a) & (a < math.inf)
    if not _every(ok):
        _check_positive(a[~ok][0], "shape parameter")
    inner = (x > 0.0) & (x < math.inf)
    if _every(inner):
        return _log_tail_inner(a.reshape(-1), x.reshape(-1), upper).reshape(a.shape)
    bad = ~(x >= 0.0)
    if bad.any():
        raise ValueError(f"argument must be >= 0, got {x[bad][0]}")
    # Exact at the ends: Q(a, inf) = P(a, 0) = 0 and Q(a, 0) = P(a, inf) = 1.
    out = np.zeros(a.shape)
    out[x == (math.inf if upper else 0.0)] = -math.inf
    out[inner] = _log_tail_inner(a[inner], x[inner], upper)
    return out


def reg_gamma_upper(a: float, x: float) -> float:
    """Regularized upper incomplete gamma Q(a, x) in the linear domain:
    scipy's ``gammaincc``.  Use :func:`log_reg_gamma_upper` where the value
    may underflow."""
    _check_gamma_args(a, x)
    return _cs.gammaincc(a, x)


def reg_gamma_lower(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) in the linear domain:
    scipy's ``gammainc``, or the exponentiated log-domain tail where scipy's
    series truncates (a > 1e5, x < a).  Use :func:`log_reg_gamma_lower` where
    the value may underflow."""
    _check_gamma_args(a, x)
    if a > _SCIPY_SERIES_MAX_A and x < a:
        return log_reg_gamma_lower(a, x).linear
    return _cs.gammainc(a, x)


def q_func(x: float) -> float:
    """Gaussian tail probability Q(x) = erfc(x / sqrt 2) / 2; Q(-inf) = 1, Q(inf) = 0."""
    _check_not_nan(x, "Q-function argument")
    return 0.5 * math.erfc(x / _SQRT2)


def log_q_func(x: float) -> float:
    """ln Q(x), computed as scipy's ``log_ndtr(-x)``.  Accurate to 1e-13
    relative, also far past the underflow of Q itself (checked against mpmath
    up to x = 1e5)."""
    _check_not_nan(x, "Q-function argument")
    return _cs.log_ndtr(-float(x))


def q_func_inv(p: float) -> float:
    """Inverse of :func:`q_func` on (0, 1), computed as scipy's ``-ndtri(p)``.
    Within 4e-16 max(1, |x|) of the exact root from p = 1e-300 to 1 - 1e-12."""
    _check_prob(p, "p")
    return -_cs.ndtri(p)
