"""Fixed-error-probability analysis: normal approximation of the noise-norm
tail with a Berry-Esseen guarantee, numeric inversion of the finite-n bounds,
the closed-form dispersion expansion, VNR and dB gap conversions.

Inversion uses Brent's method (Brent, Algorithms for Minimization without
Derivatives, 1973) on a bracket seeded from the dispersion expansion: the
bounds are strictly increasing in the NLD and smooth in the log domain, so
interpolation converges superlinearly, and derivative-free iteration avoids
underflow-driven derivative noise.
"""

import math
import sys
from dataclasses import dataclass

from .bounds import (ChannelPoint, _check_nld, _check_sigma2, delta_star, effective_radius,
                     ml_bound, sphere_bound)
# Not called here: bench/tracing.py wraps icawgn.dispersion.integrate_adaptive.
from .quadrature import integrate_adaptive
from .specfn import LogProb, q_func, q_func_inv

__all__ = [
    "InversionResult",
    "DB_PER_NAT",
    "norm_tail_normal_approx",
    "berry_esseen_T",
    "nld_eps_approx",
    "nld_eps_converse",
    "nld_eps_achievable",
    "vnr_from_nld",
    "vnr_opt_approx",
    "gap_db",
    "lattice_snr_rho",
    "normalized_error_prob",
]

# 10 log10 e^2 = 20 / ln 10 decibels per nat of NLD gap.
DB_PER_NAT = 20.0 / math.log(10.0)

_MAX_ITER = 200
_VALUE_TOL = 1e-10
# Widest bracket searched for the root before giving up, in nats.
_MAX_BRACKET = 8192.0

# E|(X^2 - 1)/sqrt 2|^3 for standard Gaussian X: splitting at |x| = 1 and
# integrating by parts gives (48 phi(1) + 32 Q(1) - 8) / 2^(3/2).
_BERRY_ESSEEN_T = (48.0 * math.exp(-0.5) / math.sqrt(2.0 * math.pi)
                   + 32.0 * q_func(1.0) - 8.0) / 2.0 ** 1.5


@dataclass(frozen=True)
class InversionResult:
    """A solved NLD: the bound at ``delta`` meets the target within tolerance."""

    delta: float
    bound_value: LogProb
    iterations: int
    bracket_width: float


def _check_eps(eps: float) -> None:
    if not (0.0 < eps < 1.0):
        raise ValueError(f"error probability must be in (0, 1), got {eps}")


def norm_tail_normal_approx(n: int, r: float, sigma2: float):
    """Normal approximation of Pr{||Z|| > r} with its Berry-Esseen guarantee.

    Returns (approx, guarantee) with approx = Q((r^2 - n sigma2)/(sigma2 sqrt(2n)))
    and |Pr{||Z|| > r} - approx| <= guarantee = 6 T / sqrt(n).
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    if not (r > 0.0):
        raise ValueError(f"radius must be > 0, got {r}")
    _check_sigma2(sigma2)
    approx = q_func((r * r - n * sigma2) / (sigma2 * math.sqrt(2.0 * n)))
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
    _check_eps(eps)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return (delta_star(sigma2) - math.sqrt(0.5 / n) * q_func_inv(eps)
            + 0.5 * math.log(n) / n)


def _invert_bound(bound_fn, n: int, eps: float, sigma2: float, tol: float,
                  kind: str) -> InversionResult:
    """Brent-Dekker root of ln bound(n, delta, sigma2) = ln eps in delta.

    The bounds are strictly increasing in delta, so a sign change pins the
    unique root.  The bracket starts at the dispersion expansion
    :func:`nld_eps_approx` +- 1/n, which is usually within a few 1/n of the
    root (up to 22 nats at n <= 10 and eps = 1e-12), and widens
    geometrically until it holds the root.  Brent's method then shrinks it,
    by inverse quadratic or secant steps where they stay well inside and by
    bisection otherwise, until it is at most ``tol`` wide and the bound
    matches eps to 1e-10 (or the bracket hits float resolution).
    ``iterations`` counts the bound evaluations after the bracket is found;
    ``bracket_width`` is the width of the final sign-change bracket.
    """
    _check_eps(eps)
    log_eps = math.log(eps)
    seed = nld_eps_approx(n, eps, sigma2)

    def f(delta: float) -> float:
        return bound_fn(ChannelPoint(n=n, nld=delta, sigma2=sigma2)).log_value.log_value - log_eps

    step = 1.0 / n
    lo, hi = seed - step, seed + step
    f_lo, f_hi = f(lo), f(hi)
    while f_lo > 0.0 or f_hi < 0.0:
        if hi - lo > _MAX_BRACKET:
            raise ValueError(
                f"target eps={eps} not bracketed for the {kind} bound at n={n}: "
                f"bound({lo:.4f})={math.exp(f_lo + log_eps):.3e}, "
                f"bound({hi:.4f})={math.exp(f_hi + log_eps):.3e}")
        step *= 2.0
        if f_lo > 0.0:
            hi, f_hi = lo, f_lo
            lo -= step
            f_lo = f(lo)
        else:
            lo, f_lo = hi, f_hi
            hi += step
            f_hi = f(hi)

    # Brent-Dekker: cur is the best point, blk the other end of the bracket,
    # pre the previous best point.
    pre, f_pre, cur, f_cur = lo, f_lo, hi, f_hi
    blk, f_blk = lo, f_lo
    s_pre = s_cur = hi - lo
    iterations = 0
    while True:
        if (f_pre > 0.0) != (f_cur > 0.0):
            blk, f_blk = pre, f_pre
            s_pre = s_cur = cur - pre
        if abs(f_blk) < abs(f_cur):
            pre, cur, blk = cur, blk, cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        resolution = 2.0 * sys.float_info.epsilon * max(abs(cur), 1.0)
        value_ok = abs(math.expm1(f_cur)) * eps <= _VALUE_TOL
        half = 0.5 * (blk - cur)
        if (f_cur == 0.0 or abs(half) <= resolution
                or (value_ok and abs(half) <= 0.5 * tol) or iterations >= _MAX_ITER):
            break
        # Smallest step: half the tolerance, or float resolution while the
        # value still misses eps.
        min_step = max(0.5 * tol, resolution) if value_ok else resolution
        if abs(s_pre) > min_step and abs(f_cur) < abs(f_pre):
            if pre == blk:
                trial = -f_cur * (cur - pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (pre - cur)
                d_blk = (f_blk - f_cur) / (blk - cur)
                trial = -f_cur * (f_blk * d_blk - f_pre * d_pre) / (d_blk * d_pre * (f_blk - f_pre))
            if 2.0 * abs(trial) < min(abs(s_pre), 3.0 * abs(half) - min_step):
                s_pre, s_cur = s_cur, trial
            else:
                s_pre = s_cur = half
        else:
            s_pre = s_cur = half
        pre, f_pre = cur, f_cur
        cur += s_cur if abs(s_cur) > min_step else math.copysign(min_step, half)
        f_cur = f(cur)
        iterations += 1
    width = 0.0 if f_cur == 0.0 else abs(blk - cur)
    return InversionResult(delta=cur, bound_value=LogProb(f_cur + log_eps),
                           iterations=iterations, bracket_width=width)


def nld_eps_converse(n: int, eps: float, sigma2: float,
                     tol: float = 1e-10) -> InversionResult:
    """The NLD at which the sphere bound equals eps: an upper bound on the
    best NLD of any constellation with error probability eps."""
    return _invert_bound(sphere_bound, n, eps, sigma2, tol, "sphere")


def nld_eps_achievable(n: int, eps: float, sigma2: float,
                       tol: float = 1e-10) -> InversionResult:
    """The NLD at which the ML bound (at its optimizing radius) equals eps:
    a constellation with this NLD and error probability <= eps exists."""
    return _invert_bound(ml_bound, n, eps, sigma2, tol, "ml")


def vnr_from_nld(delta: float, sigma2: float) -> float:
    """Volume-to-noise ratio mu = e^(2(delta* - delta))."""
    _check_nld(delta)
    return math.exp(2.0 * (delta_star(sigma2) - delta))


def vnr_opt_approx(n: int, eps: float) -> float:
    """Dispersion expansion of the optimal VNR: 1 + sqrt(2/n) Qinv(eps) - ln(n)/n."""
    _check_eps(eps)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return 1.0 + math.sqrt(2.0 / n) * q_func_inv(eps) - math.log(n) / n


def gap_db(delta: float, sigma2: float) -> float:
    """Gap to capacity in decibels: 10 log10 e^(2(delta*-delta))."""
    _check_nld(delta)
    return DB_PER_NAT * (delta_star(sigma2) - delta)


def lattice_snr_rho(point: ChannelPoint) -> float:
    """Squared effective-radius-to-noise ratio r_eff^2 / (n sigma2); converges
    to the VNR as n grows."""
    r = effective_radius(point)
    return r * r / (point.n * point.sigma2)


def normalized_error_prob(eps1: float, n: int) -> float:
    """Per-block error target 1 - (1 - eps1)^n matching a per-dimension-1
    target eps1, computed through log1p/expm1 so tiny eps1 survive."""
    _check_eps(eps1)
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return -math.expm1(n * math.log1p(-eps1))
