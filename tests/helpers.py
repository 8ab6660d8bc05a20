"""Shared independent oracles for the test suite."""

import math

import mpmath
import numpy as np
from scipy import integrate, special


def log_ml_first_term_quad(n: int, nld: float, sigma2: float, r: float) -> float:
    """Adaptive quadrature of the achievability integrand gamma V_n f_R(t) t^n
    over [0, r], evaluated on a log-rescaled integrand so the tiny values keep
    full relative accuracy.  Independent of the incomplete-gamma evaluation
    used by the library."""
    log_vn = 0.5 * n * math.log(math.pi) - special.gammaln(0.5 * n + 1.0)
    sigma = math.sqrt(sigma2)

    def log_integrand(t):
        y = t / sigma
        return (n * nld + log_vn
                + (1.0 - 0.5 * n) * math.log(2.0) - special.gammaln(0.5 * n)
                + (n - 1.0) * np.log(y) - 0.5 * y * y - math.log(sigma)
                + n * np.log(t))

    peak = float(np.max(log_integrand(np.linspace(r * 1e-6, r, 2001))))
    val, err = integrate.quad(lambda t: np.exp(log_integrand(t) - peak), 0.0, r,
                              epsabs=0.0, epsrel=1e-13, limit=400)
    if not err < 1e-11 * val:
        raise ArithmeticError(f"oracle quadrature not converged: {val} +- {err}")
    return peak + math.log(val)


def log_radial_moment_mpmath(n: int, r: float, sigma2: float) -> float:
    """ln of int_0^r f_R(t) t^n dt, both sides of the section-integral identity,
    as (n/2) ln 2 sigma2 + ln Gamma(n) - ln Gamma(n/2) + ln P(n, r^2 / 2 sigma2)
    in 60-digit mpmath."""
    with mpmath.workdps(60):
        n_, s2 = mpmath.mpf(n), mpmath.mpf(sigma2)
        x = mpmath.mpf(r) ** 2 / (2 * s2)
        return float(n_ / 2 * mpmath.log(2 * s2) + mpmath.loggamma(n_) - mpmath.loggamma(n_ / 2)
                     + mpmath.log(mpmath.gammainc(n_, 0, x, regularized=True)))


def log_ml_bound_mpmath(n: int, nld: float, s: float) -> float:
    """ln of the ML bound at sigma2 = 1 and radius s in 60-digit mpmath: the
    first term n delta + ln V_n + (n/2) ln 2 + ln Gamma(n) - ln Gamma(n/2)
    + ln P(n, s^2/2), with P(a, x) = x^a e^-x 1F1(1; a + 1; x) / Gamma(a + 1),
    plus the chi-square tail Q(n/2, s^2/2)."""
    with mpmath.workdps(60):
        m, x = mpmath.mpf(n), mpmath.mpf(s) ** 2 / 2
        log_vn = m / 2 * mpmath.log(mpmath.pi) - mpmath.loggamma(m / 2 + 1)
        log_p = (m * mpmath.log(x) - x - mpmath.loggamma(m + 1)
                 + mpmath.log(mpmath.hyp1f1(1, m + 1, x)))
        first = (m * mpmath.mpf(nld) + log_vn + m / 2 * mpmath.log(2)
                 + mpmath.loggamma(m) - mpmath.loggamma(m / 2) + log_p)
        tail = mpmath.gammainc(m / 2, x, mpmath.inf, regularized=True)
        return float(mpmath.log(mpmath.exp(first) + tail))
