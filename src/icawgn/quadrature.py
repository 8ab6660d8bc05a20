"""Gauss-Legendre quadrature on finite intervals, adaptive in its node count.

The rule starts at 16 nodes and doubles the count until two successive
estimates agree.  Its integrands (section probabilities and the
section-integral identity) are analytic on their closed intervals, so the
error falls geometrically in the node count.  Nodes and weights come from
numpy's ``leggauss``.
"""

import functools
import sys

import numpy as np
from numpy.polynomial.legendre import leggauss

__all__ = ["QuadratureError", "integrate_adaptive"]

_MIN_NODES = 16
# The section integrals at r/sigma = 100 converge at 256 nodes.
_MAX_NODES = 512


class QuadratureError(ArithmeticError):
    """The rule had not converged at its largest node count."""


_rule = functools.cache(leggauss)


def integrate_adaptive(f, a: float, b: float, *, rel_tol: float = 1e-9):
    """Integrate a vectorized integrand f over [a, b].

    Returns (value, error_estimate), the estimate being the change from the
    previous node count.  Converged once that change is at most
    ``rel_tol * |value|`` or below the smallest normal double; raises
    :class:`QuadratureError` if it is not at ``_MAX_NODES`` nodes.
    """
    if not b > a:
        raise ValueError(f"invalid interval [{a}, {b}]")
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    prev = None
    m = _MIN_NODES
    while m <= _MAX_NODES:
        x, w = _rule(m)
        val = half * float(np.asarray(f(mid + half * x), dtype=float) @ w)
        if prev is not None:
            err = abs(val - prev)
            if err <= rel_tol * abs(val) or err < sys.float_info.min:
                return val, err
        prev = val
        m *= 2
    raise QuadratureError(
        f"quadrature did not converge on [{a}, {b}]: estimate {val!r}, "
        f"change {err!r} at {_MAX_NODES} nodes")
