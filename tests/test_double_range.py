"""Every public bound, curve, asymptotic form, exponent, radius and inversion
at the ends of double range, the section layer over every positive radius,
chord offset and noise variance, and the simulation layer over any count,
seed, noise variance and scale: each call returns a value or raises
ValueError (AsymptoticSingularity included), never OverflowError or another
error.  Every NLD is drawn from all finite doubles, and every dimension up
to 2^63 - 1.  The point values and the functions of an NLD are never NaN,
and the exponents are never negative."""

import math

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from icawgn import asymptotics, bounds, dispersion, lattices
from icawgn.bounds import CURVE_KINDS, ChannelPoint
from icawgn.specfn import LogProb

_BOUNDS = (bounds.sphere_bound, bounds.ml_bound, bounds.typicality_bound,
           bounds.poltyrev_ml_bound)
_FORMS = (asymptotics.sphere_sandwich, asymptotics.ml_sandwich, asymptotics.sphere_asymptotic,
          asymptotics.ml_asymptotic, asymptotics.typicality_asymptotic,
          asymptotics.poltyrev_r_asymptotic)
_POINT_VALUES = (bounds.effective_radius, bounds.poltyrev_radius, asymptotics.terms,
                 asymptotics.ml_asymptotic_branch, dispersion.lattice_snr_rho)
_EXPONENTS = (asymptotics.exponent_sp, asymptotics.exponent_r, asymptotics.exponent_t)
_NLD_VALUES = _EXPONENTS + (asymptotics.ub_lb_ratio_limit, dispersion.vnr_from_nld,
                            dispersion.gap_db)
_INVERSIONS = (dispersion.nld_eps_converse, dispersion.nld_eps_achievable)


def _value(fn, *args):
    # fn's value, or None where it raises ValueError.
    try:
        return fn(*args)
    except ValueError:
        return None


def _not_nan(value) -> bool:
    # A float, or each field of AsymptoticTerms, is a number; a branch name passes.
    fields = vars(value).values() if isinstance(value, asymptotics.AsymptoticTerms) else [value]
    return not any(isinstance(v, float) and math.isnan(v) for v in fields)


def _finite_or_zero(log_value) -> bool:
    # A bound's log is finite, or -inf for an exact zero.
    return bool(np.all(np.isfinite(log_value) | (log_value == -math.inf)))


@pytest.mark.parametrize("n", [10**11, 10**12, 10**15, 2**63 - 1])
def test_bounds_above_capacity_where_hyp1f1_is_nan_are_finite(n):
    # At delta = delta* + k / sqrt(2n) the bounds take P(n/2, x) with x about
    # n/2 - k sqrt(n/2), where scipy's hyp1f1 is NaN from n = 5e10 on; each
    # bound was NaN (a ValueError from the scalar) there.
    for k in (2.4, 3.0, 4.5, 5.0, 7.0, 10.0, 20.0, 37.0, 50.0):
        nld = bounds.delta_star(1.0) + k / math.sqrt(2.0 * n)
        point = ChannelPoint(n, nld, 1.0)
        for bound in _BOUNDS:
            assert _finite_or_zero(bound(point).log_raw), (bound.__name__, n, k)
        for kind, curve in bounds.bound_curves([n], nld, 1.0).items():
            assert _finite_or_zero(curve), (kind, n, k)


@seed(20261019)
@settings(max_examples=120, deadline=None)
@given(n=st.one_of(st.integers(min_value=1, max_value=10**7),
                  st.integers(min_value=1, max_value=2**63 - 1)),
       nld=st.floats(allow_nan=False, allow_infinity=False),
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
            assert _finite_or_zero(curves[kind]), (kind, curves)
            # The linear bound min(1, e^log), without overflowing e^log.
            assert 0.0 <= np.exp(min(curves[kind][0], 0.0)) <= 1.0, (kind, curves)
    for form in _FORMS:
        value = _value(form, point)
        if isinstance(value, asymptotics.SandwichBounds):
            value = [value.lower_q, value.lower_analytic, value.upper]
        for log_prob in (value if isinstance(value, list) else [value]):
            assert log_prob is None or _finite_or_zero(log_prob.log_value), form.__name__
    for key, curve in asymptotics.asym_curves([n], nld, sigma2).items():
        assert not np.isinf(curve).any(), key   # a log value, or NaN where undefined
    for fn in _POINT_VALUES + _NLD_VALUES:
        value = (_value(fn, point) if fn in _POINT_VALUES else _value(fn, nld, sigma2))
        assert _not_nan(value), (fn.__name__, value)
        assert fn not in _EXPONENTS or value is None or value >= 0.0, (fn.__name__, value)
    _value(bounds.sphere_bound_by_volume, n, point.density, sigma2)
    for invert in _INVERSIONS:
        res = _value(invert, n, eps, sigma2)
        assert res is None or math.isfinite(res.delta), (invert.__name__, res)
    assert math.isfinite(dispersion.nld_eps_approx(n, eps, sigma2))


# Every positive double, led by a branch of moderate values, so that some
# draws put r/sigma in the few decades where the identity's sides are accepted.
_POSITIVE = st.one_of(st.floats(min_value=1e-3, max_value=1e3),
                      st.floats(min_value=5e-324, max_value=1.7976931348623157e308))


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(n=st.one_of(st.integers(min_value=2, max_value=1000),
                  st.integers(min_value=2, max_value=2**63 - 1)),
       r=_POSITIVE, offset=_POSITIVE, sigma2=_POSITIVE)
def test_section_layer_returns_a_value_or_raises_value_error(n, r, offset, sigma2):
    # offset is w / 2r, the chord offset over the diameter; past 1 it is rejected.
    p = _value(bounds.d_section_prob, n, r, 2.0 * r * offset, sigma2)
    assert p is None or 0.0 <= p <= 1.0, p
    sides = _value(bounds.equivalence_sides, n, r, sigma2)
    if sides is None:
        return
    lhs, rhs = sides
    assert isinstance(lhs, LogProb) and isinstance(rhs, LogProb), sides
    assert not (lhs.is_zero or rhs.is_zero), sides
    # The logs reach 3.5e5 in magnitude at sigma2 near the ends of double
    # range, where one ulp of either is 5.8e-11: the slack past 1e-11 is that
    # rounding, relative in the log.
    assert bounds.equivalence_discrepancy(lhs, rhs) <= 1e-11 + 1e-15 * abs(rhs.log_value)


# Counts of every size and type, seeds of every kind, and every double.  Each
# leads with a branch of valid values, so that some draws get past every check.
_COUNTS = st.one_of(st.integers(min_value=1, max_value=40),
                    st.integers(min_value=-2, max_value=2**70), st.floats(), st.booleans())
_SEEDS = st.one_of(st.integers(min_value=0), st.integers(), st.floats(), st.text(max_size=3),
                   st.lists(st.integers(min_value=-2, max_value=2**70), max_size=3))
_DOUBLES = st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.floats())


def _runs(count, most) -> bool:
    # Whether a simulation may run with this count: it is rejected, or at most `most`.
    return not (type(count) is int and most < count < 2**63)


@seed(20261019)
@settings(max_examples=300, deadline=None)
@given(trials=_COUNTS, errors=st.one_of(st.just(1), _COUNTS), seed_=_SEEDS,
       sigma2=_DOUBLES, scale=_DOUBLES,
       confidence=st.one_of(st.floats(min_value=0.01, max_value=0.99), st.floats()))
def test_simulation_layer_returns_a_value_or_raises_value_error(trials, errors, seed_,
                                                                sigma2, scale, confidence):
    spec = _value(lattices.LatticeSpec, "Z2", scale)
    assert (spec is not None) == (0.0 < scale < math.inf)
    assert (_value(lattices.LatticeSpec, f"Z{trials}") is None) == (
        type(trials) is not int or not 1 <= trials <= 1024)
    spec = spec or lattices.builtin("Z2")
    # No numpy integers are drawn, so every accepted count is a plain int.
    ci = _value(lattices.clopper_pearson, errors, trials, confidence)
    assert ci is None or (type(trials) is type(errors) is int and 0.0 <= ci[0] <= ci[1] <= 1.0), ci
    if _runs(trials, 10**4):
        est = _value(lattices.simulate_error_prob, spec, sigma2, trials, seed_)
        assert est is None or (type(trials) is int and 0 <= est.errors <= est.trials == trials), est
        res = _value(lattices.find_scale_for_error, spec, 0.1, sigma2, trials, seed_)
        assert res is None or (type(trials) is int and res.estimate.trials == trials
                               and 0.0 < res.scale < math.inf), res
