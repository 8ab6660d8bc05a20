"""Every public bound, curve, asymptotic form, exponent, radius and inversion
at the ends of double range: each call returns a value or raises ValueError
(AsymptoticSingularity included), never OverflowError or another error."""

import math

import numpy as np
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from icawgn import asymptotics, bounds, dispersion
from icawgn.bounds import CURVE_KINDS, ChannelPoint

_BOUNDS = (bounds.sphere_bound, bounds.ml_bound, bounds.typicality_bound,
           bounds.poltyrev_ml_bound)
_FORMS = (asymptotics.sphere_sandwich, asymptotics.ml_sandwich, asymptotics.sphere_asymptotic,
          asymptotics.ml_asymptotic, asymptotics.typicality_asymptotic,
          asymptotics.poltyrev_r_asymptotic)
_POINT_VALUES = (bounds.effective_radius, bounds.poltyrev_radius, asymptotics.terms,
                 asymptotics.ml_asymptotic_branch, dispersion.lattice_snr_rho)
_NLD_VALUES = (asymptotics.exponent_sp, asymptotics.exponent_r, asymptotics.exponent_t,
               asymptotics.ub_lb_ratio_limit, dispersion.vnr_from_nld, dispersion.gap_db)
_INVERSIONS = (dispersion.nld_eps_converse, dispersion.nld_eps_achievable)


def _value(fn, *args):
    # fn's value, or None where it raises ValueError.
    try:
        return fn(*args)
    except ValueError:
        return None


def _finite_or_zero(log_value) -> bool:
    # A bound's log is finite, or -inf for an exact zero.
    return bool(np.all(np.isfinite(log_value) | (log_value == -math.inf)))


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(n=st.integers(min_value=1, max_value=10**7),
       nld=st.floats(min_value=-1e4, max_value=1e4),
       sigma2=st.floats(min_value=5e-324, max_value=1.7e308),
       eps=st.floats(min_value=5e-324, max_value=0.5))
def test_every_entry_point_returns_a_value_or_raises_value_error(n, nld, sigma2, eps):
    point = ChannelPoint(n, nld, sigma2)
    for bound in _BOUNDS:
        bv = _value(bound, point)
        if bv is not None:
            assert _finite_or_zero(bv.log_raw), (bound.__name__, bv)
            assert 0.0 <= bv.value <= 1.0, (bound.__name__, bv)
    for kind in CURVE_KINDS:
        curves = _value(bounds.bound_curves, [n], nld, sigma2, [kind])
        if curves is not None:
            assert _finite_or_zero(curves[kind].log_value), (kind, curves)
            assert 0.0 <= curves[kind].value[0] <= 1.0, (kind, curves)
    for form in _FORMS:
        value = _value(form, point)
        if isinstance(value, asymptotics.SandwichBounds):
            value = [value.lower_q, value.lower_analytic, value.upper]
        for log_prob in (value if isinstance(value, list) else [value]):
            assert log_prob is None or _finite_or_zero(log_prob.log_value), form.__name__
    for key, curve in asymptotics.asym_curves([n], nld, sigma2).items():
        assert not np.isinf(curve).any(), key   # a log value, or NaN where undefined
    for fn in _POINT_VALUES:
        _value(fn, point)
    for fn in _NLD_VALUES:
        _value(fn, nld, sigma2)
    _value(bounds.sphere_bound_by_volume, n, point.density, sigma2)
    for invert in _INVERSIONS:
        res = _value(invert, n, eps, sigma2)
        assert res is None or math.isfinite(res.delta), (invert.__name__, res)
    assert math.isfinite(dispersion.nld_eps_approx(n, eps, sigma2))
