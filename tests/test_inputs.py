"""The input contract of the public entry points: a dimension is an integer
(not a bool) from the function's own floor to 2^63 - 1, checked by
``specfn._check_dim`` alone, and an NLD is finite."""

import ast
import math
import pathlib

import numpy as np
import pytest

import icawgn
from icawgn.asymptotics import (asym_curves, exponent_r, exponent_sp, exponent_t,
                                head_integral_bounds, laplace_head_integral,
                                tail_integral_bounds, terms)
from icawgn.bounds import (CURVE_KINDS, ChannelPoint, bound_curves, d_section_prob,
                           equivalence_sides, sphere_bound, sphere_bound_by_volume)
from icawgn.dispersion import (nld_eps_achievable, nld_eps_achievable_curve, nld_eps_approx,
                               nld_eps_converse, norm_tail_normal_approx,
                               normalized_error_prob, vnr_opt_approx)
from icawgn.specfn import log_vn, log_vn_asymptotic

# Every public entry point that takes a dimension: (its floor, a call at n).
ENTRY_POINTS = {
    "log_vn": (1, log_vn),
    "log_vn_asymptotic": (1, log_vn_asymptotic),
    "ChannelPoint": (1, lambda n: sphere_bound(ChannelPoint(n, -1.5, 1.0))),
    "sphere_bound_by_volume": (1, lambda n: sphere_bound_by_volume(n, 2.0, 1.0)),
    "d_section_prob": (2, lambda n: d_section_prob(n, 1.0, 0.5, 1.0)),
    "equivalence_sides": (2, lambda n: equivalence_sides(n, 1.0, 1.0)),
    "terms": (3, lambda n: terms(ChannelPoint(n, -1.5, 1.0))),
    "tail_integral_bounds": (3, lambda n: tail_integral_bounds(n, 1.5)),
    "head_integral_bounds": (1, lambda n: head_integral_bounds(n, 0.5)),
    "laplace_head_integral": (1, lambda n: laplace_head_integral(n, 3.0)),
    "nld_eps_approx": (1, lambda n: nld_eps_approx(n, 0.01, 1.0)),
    "vnr_opt_approx": (1, lambda n: vnr_opt_approx(n, 0.01)),
    "normalized_error_prob": (1, lambda n: normalized_error_prob(0.01, n)),
    "norm_tail_normal_approx": (1, lambda n: norm_tail_normal_approx(n, 2.0, 1.0)),
    "bound_curves": (1, lambda n: bound_curves([n], -1.5, 1.0)),
    "asym_curves": (1, lambda n: asym_curves([n], -1.5, 1.0)),
    "nld_eps_converse": (1, lambda n: nld_eps_converse(n, 0.01, 1.0)),
    "nld_eps_achievable": (1, lambda n: nld_eps_achievable(n, 0.01, 1.0)),
    "nld_eps_achievable_curve": (1, lambda n: nld_eps_achievable_curve([n], 0.01, 1.0)),
}

BAD_DIMS = [2.5, 4.0, True, False, 0, -1, "4", 2**63, 2**64, np.uint64(2**63)]


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("n", BAD_DIMS, ids=repr)
def test_bad_dimension_is_a_value_error(name, n):
    with pytest.raises(ValueError, match="dimension"):
        ENTRY_POINTS[name][1](n)


@pytest.mark.parametrize("name", ENTRY_POINTS)
def test_below_the_floor_is_a_value_error(name):
    least, call = ENTRY_POINTS[name]
    with pytest.raises(ValueError, match="dimension"):
        call(least - 1)


@pytest.mark.parametrize("name", ENTRY_POINTS)
@pytest.mark.parametrize("n", [np.int64(5), np.int32(5), np.uint64(5)], ids=repr)
def test_numpy_integer_gives_the_int_value(name, n):
    call = ENTRY_POINTS[name][1]
    np.testing.assert_equal(call(n), call(5))


@pytest.mark.parametrize("call", [
    lambda ns: bound_curves(ns, -1.5, 1.0, ["sphere"]),
    lambda ns: asym_curves(ns, -1.5, 1.0),
    lambda ns: nld_eps_achievable_curve(ns, 0.01, 1.0),
], ids=["bound_curves", "asym_curves", "nld_eps_achievable_curve"])
@pytest.mark.parametrize("ns", [[4, True], (4, np.True_), [True, 4], [4, 5, False]], ids=repr)
def test_a_bool_inside_a_sequence_is_a_value_error(call, ns):
    # np.asarray would make these int64, as if True were n = 1.
    with pytest.raises(ValueError, match="dimension"):
        call(ns)


@pytest.mark.parametrize("exponent", [exponent_sp, exponent_r, exponent_t])
@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
def test_exponents_reject_a_non_finite_nld(exponent, delta):
    with pytest.raises(ValueError, match="NLD must be finite"):
        exponent(delta, 1.0)


@pytest.mark.parametrize("empty", [[], (), np.array([], dtype=np.int64)], ids=repr)
def test_empty_dimensions_give_empty_curves(empty):
    curves = bound_curves(empty, -1.5, 1.0)
    assert list(curves) == list(CURVE_KINDS)
    for curve in curves.values():
        assert curve.log_value.shape == (0,) and curve.clamped.shape == (0,)
    forms = asym_curves(empty, -1.5, 1.0)
    assert forms and all(v.shape == (0,) for v in forms.values())
    assert nld_eps_achievable_curve(empty, 0.01, 1.0) == []


def _dimension_checks(tree):
    """(function, text) of every raise whose message mentions a dimension, and
    (function, test) of every ``if`` that compares n or dim with an integer literal."""
    raises, compares = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise):
                text = "".join(c.value for c in ast.walk(node)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if "dimension" in text:
                    raises.append((fn.name, text))
            elif isinstance(node, ast.If):
                for c in ast.walk(node.test):
                    if not isinstance(c, ast.Compare):
                        continue
                    sides = [c.left, *c.comparators]
                    dim = any(getattr(s, "id", getattr(s, "attr", None)) in ("n", "dim")
                              for s in sides)
                    literal = any(isinstance(s, ast.Constant) and type(s.value) is int
                                  for s in sides)
                    if dim and literal:
                        compares.append((fn.name, ast.unparse(c)))
    return raises, compares


def test_dimension_errors_come_from_one_validator():
    # The scalar "dimension must be" errors are raised by specfn._check_dim
    # only; _check_dims adds just its array dtype error, and no function
    # tests a dimension against a literal bound of its own.
    found = {}
    for path in sorted(pathlib.Path(icawgn.__file__).parent.glob("*.py")):
        raises, compares = _dimension_checks(ast.parse(path.read_text()))
        for fn, text in raises:
            found.setdefault((path.stem, fn), []).append(text.split(",")[0])
        assert not compares, (path.name, compares)
    assert found == {
        ("specfn", "_check_dim"): ["dimension must be an integer", "dimension must be an integer n in .."],
        ("bounds", "_check_dims"): ["dimensions must be a 1-d integer array"],
    }
