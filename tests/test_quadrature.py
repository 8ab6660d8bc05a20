import math

import numpy as np
import pytest

from icawgn.bounds import integrate_adaptive


def test_sine_over_half_period():
    val = integrate_adaptive(np.sin, 0.0, math.pi)
    assert val == pytest.approx(2.0, rel=1e-14, abs=0.0)


def test_narrow_gaussian_peak():
    width = 0.01
    val = integrate_adaptive(lambda x: np.exp(-0.5 * ((x - 0.5) / width) ** 2), 0.0, 1.0)
    ref = width * math.sqrt(2.0 * math.pi) * math.erf(0.5 / (width * math.sqrt(2.0)))
    assert val == pytest.approx(ref, rel=1e-12, abs=0.0)


def test_zero_integrand():
    assert integrate_adaptive(np.zeros_like, 0.0, 1.0) == 0.0


def test_kink_does_not_converge():
    # A square-root cusp inside the interval: the node count stalls at the cap.
    with pytest.raises(ArithmeticError):
        integrate_adaptive(lambda x: np.sqrt(np.abs(x - 1.0 / 3.0)), 0.0, 1.0)


@pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0), (0.0, math.nan)])
def test_rejects_empty_interval(a, b):
    with pytest.raises(ValueError, match="interval"):
        integrate_adaptive(np.sin, a, b)
