"""Adaptive Gauss-Kronrod quadrature on finite intervals.

Interval-bisection refinement with a 7/15-point nested rule.  The
integrands here are smooth desk-scale oracles (section probabilities and
equivalence checks), never hot paths.
"""

import heapq
import math

import numpy as np

__all__ = ["QuadratureError", "integrate_adaptive"]

# 15-point Kronrod nodes on [-1, 1] with the embedded 7-point Gauss weights.
_KRONROD_NODES = np.array([
    -0.991455371120813, -0.949107912342759, -0.864864423359769,
    -0.741531185599394, -0.586087235467691, -0.405845151377397,
    -0.207784955007898, 0.0,
    0.207784955007898, 0.405845151377397, 0.586087235467691,
    0.741531185599394, 0.864864423359769, 0.949107912342759,
    0.991455371120813,
])
_KRONROD_WEIGHTS = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
    0.204432940075298, 0.190350578064785, 0.169004726639267,
    0.140653259715525, 0.104790010322250, 0.063092092629979,
    0.022935322010529,
])
_GAUSS_WEIGHTS = np.array([
    0.0, 0.129484966168870, 0.0, 0.279705391489277, 0.0,
    0.381830050505119, 0.0, 0.417959183673469, 0.0,
    0.381830050505119, 0.0, 0.279705391489277, 0.0,
    0.129484966168870, 0.0,
])


class QuadratureError(ArithmeticError):
    """Adaptive refinement hit its interval budget before converging."""


def _panel(f, a, b):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    fx = np.asarray(f(mid + half * _KRONROD_NODES), dtype=float)
    k = half * float(fx @ _KRONROD_WEIGHTS)
    g = half * float(fx @ _GAUSS_WEIGHTS)
    # Standard QUADPACK-style error heuristic for the nested pair.
    err = (200.0 * abs(k - g)) ** 1.5
    return k, err


def integrate_adaptive(f, a: float, b: float, *, rel_tol: float = 1e-9,
                       abs_tol: float = 1e-9, max_intervals: int = 4000):
    """Integrate a vectorized integrand f over [a, b].

    Returns (value, error_estimate).  Raises :class:`QuadratureError` if the
    error estimate still exceeds both tolerances at the interval budget.
    """
    if not b > a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    val, err = _panel(f, a, b)
    # Max-heap on the error estimate: refine the worst interval first.
    heap = [(-err, a, b, val, err)]
    total = val
    total_err = err
    resum_below = 1e-3 * err
    while len(heap) < max_intervals:
        if total_err <= abs_tol or total_err <= rel_tol * abs(total):
            return total, total_err
        _, lo, hi, v, e = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            # Interval at floating-point resolution: accept its estimate.
            heapq.heappush(heap, (0.0, lo, hi, v, 0.0))
            total_err -= e
            continue
        v1, e1 = _panel(f, lo, mid)
        v2, e2 = _panel(f, mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - e
        heapq.heappush(heap, (-e1, lo, mid, v1, e1))
        heapq.heappush(heap, (-e2, mid, hi, v2, e2))
        if total_err < resum_below:
            # The running sum carries the rounding error of its largest past
            # value; once it has shrunk 1000-fold, re-add the live estimates.
            total_err = math.fsum(item[4] for item in heap)
            resum_below = 1e-3 * total_err
    if total_err <= abs_tol or total_err <= rel_tol * abs(total):
        return total, total_err
    raise QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: "
        f"estimate {total!r}, error {total_err!r} after {max_intervals} intervals")
