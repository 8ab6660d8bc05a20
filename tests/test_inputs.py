"""The input contract of the public entry points, one validator in ``specfn``
per kind of input:

- a dimension or a count is an integer (not a bool) from the function's own
  floor to 2^63 - 1, or to the count it splits (``_check_int``);
- a probability lies in (0, 1) (``_check_prob``);
- a noise variance, shape, section radius or lattice scale is finite and
  > 0 (``_check_positive``);
- a bound's own radius, or a ball's volume, is > 0, with inf its exact limit
  (``_check_positive_or_inf``);
- a real whose infinite values are exact limits is not NaN (``_check_not_nan``);
- a seed is what ``np.random.SeedSequence`` takes, except a bool
  (``_check_seed``);
- an NLD is finite (``_check_nld``), and below capacity for an asymptotic
  form (``asymptotics._require_below_capacity``).
"""

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
                           equivalence_sides, ml_bound, sphere_bound, sphere_bound_by_volume,
                           typicality_bound)
from icawgn.dispersion import (gap_db, nld_eps_achievable, nld_eps_achievable_curve,
                               nld_eps_approx, nld_eps_converse, norm_tail_normal_approx,
                               normalized_error_prob, vnr_from_nld, vnr_opt_approx)
from icawgn.lattices import (LatticeSpec, builtin, clopper_pearson, decode, find_scale_for_error,
                             simulate_error_prob)
from icawgn.specfn import (log_q_func, log_reg_gamma_lower, log_reg_gamma_tail,
                           log_reg_gamma_upper, log_vn, q_func, q_func_inv, reg_gamma_lower,
                           reg_gamma_upper)

# Every public entry point that takes a dimension: (its floor, a call at n).
ENTRY_POINTS = {
    "log_vn": (1, log_vn),
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


# Every public entry point that takes an NLD, as a call at delta.
NLDS = {
    "ChannelPoint": lambda d: ChannelPoint(4, d, 1.0),
    "bound_curves": lambda d: bound_curves([4], d, 1.0),
    "asym_curves": lambda d: asym_curves([4], d, 1.0),
    "exponent_sp": lambda d: exponent_sp(d, 1.0),
    "vnr_from_nld": lambda d: vnr_from_nld(d, 1.0),
    "gap_db": lambda d: gap_db(d, 1.0),
}


@pytest.mark.parametrize("name", NLDS)
@pytest.mark.parametrize("delta", ["-1.5", None, 10**400, -10**400],
                         ids=["'-1.5'", "None", "10**400", "-10**400"])
def test_a_non_number_or_an_int_past_double_range_is_not_an_nld(name, delta):
    # Neither may escape as the TypeError or OverflowError of math.isfinite.
    with pytest.raises(ValueError, match="NLD must be finite"):
        NLDS[name](delta)


@pytest.mark.parametrize("empty", [[], (), np.array([], dtype=np.int64)], ids=repr)
def test_empty_dimensions_give_empty_curves(empty):
    curves = bound_curves(empty, -1.5, 1.0)
    assert list(curves) == list(CURVE_KINDS)
    assert all(curve.shape == (0,) for curve in curves.values())
    forms = asym_curves(empty, -1.5, 1.0)
    assert forms and all(v.shape == (0,) for v in forms.values())
    assert nld_eps_achievable_curve(empty, 0.01, 1.0) == []


# Every public entry point that takes a count: (its floor, a call at count c).
# The count that bounds another (errors) sits below its ceiling at 4.
COUNTS = {
    "simulate_error_prob.trials": (1, lambda c: simulate_error_prob(builtin("Z2"), 0.1, c, seed=1)),
    "clopper_pearson.trials": (1, lambda c: clopper_pearson(0, c)),
    "clopper_pearson.errors": (0, lambda c: clopper_pearson(c, 8)),
    "find_scale_for_error.trials": (
        1, lambda c: find_scale_for_error(builtin("Z1"), 0.1, 1.0, c, seed=1)),
}

BAD_COUNTS = [2.5, 4.0, True, False, 0, -1, "4", 2**63, np.uint64(2**63)]


@pytest.mark.parametrize("name, c", [(name, c) for name, (least, _) in COUNTS.items()
                                     for c in BAD_COUNTS
                                     if not (type(c) is int and least <= c <= 4)], ids=repr)
def test_bad_count_is_a_value_error(name, c):
    # Valid counts are left out (0 errors); every huge count is rejected
    # before it runs.
    with pytest.raises(ValueError, match=name.split(".")[1]):
        COUNTS[name][1](c)


@pytest.mark.parametrize("name", COUNTS)
def test_count_below_its_floor_is_a_value_error(name):
    least, call = COUNTS[name]
    with pytest.raises(ValueError, match=f"{name.split('.')[1]} must be an integer in {least}\\.\\."):
        call(least - 1)


@pytest.mark.parametrize("call, message", [
    (lambda: clopper_pearson(9, 8), "errors"),
], ids=["clopper_pearson"])
def test_count_past_the_count_it_splits_is_a_value_error(call, message):
    with pytest.raises(ValueError, match=f"{message} must be an integer in .*\\.\\.8, got 9"):
        call()


@pytest.mark.parametrize("name", COUNTS)
@pytest.mark.parametrize("c", [np.int64(4), np.int32(4), np.uint64(4)], ids=repr)
def test_numpy_integer_count_gives_the_int_value(name, c):
    call = COUNTS[name][1]
    np.testing.assert_equal(call(c), call(4))


# Every public entry point that takes a probability, as a call at p.
PROBABILITIES = {
    "nld_eps_approx": lambda p: nld_eps_approx(4, p, 1.0),
    "nld_eps_converse": lambda p: nld_eps_converse(4, p, 1.0),
    "nld_eps_achievable": lambda p: nld_eps_achievable(4, p, 1.0),
    "nld_eps_achievable_curve": lambda p: nld_eps_achievable_curve([4], p, 1.0),
    "vnr_opt_approx": lambda p: vnr_opt_approx(4, p),
    "normalized_error_prob": lambda p: normalized_error_prob(p, 4),
    "q_func_inv": q_func_inv,
    "clopper_pearson": lambda p: clopper_pearson(3, 10, p),
    "find_scale_for_error": lambda p: find_scale_for_error(builtin("Z1"), p, 1.0, 10, seed=1),
}


@pytest.mark.parametrize("name", PROBABILITIES)
@pytest.mark.parametrize("p", [0.0, 1.0, math.nan, math.inf, True], ids=repr)
def test_bad_probability_is_a_value_error(name, p):
    with pytest.raises(ValueError, match=r"must be in \(0, 1\)"):
        PROBABILITIES[name](p)


# Every public entry point that takes a positive real: noise variances,
# incomplete-gamma shapes, section radii and lattice scales.
POSITIVE_REALS = {
    "ChannelPoint": lambda v: ChannelPoint(4, -1.5, v),
    "bound_curves": lambda v: bound_curves([4], -1.5, v),
    "asym_curves": lambda v: asym_curves([4], -1.5, v),
    "nld_eps_converse": lambda v: nld_eps_converse(4, 0.01, v),
    "nld_eps_achievable_curve": lambda v: nld_eps_achievable_curve([4], 0.01, v),
    "simulate_error_prob": lambda v: simulate_error_prob(builtin("Z2"), v, 10, seed=1),
    "find_scale_for_error": lambda v: find_scale_for_error(builtin("Z1"), 0.1, v, 10, seed=1),
    "log_reg_gamma_upper": lambda v: log_reg_gamma_upper(v, 1.0),
    "log_reg_gamma_lower": lambda v: log_reg_gamma_lower(v, 1.0),
    "reg_gamma_upper": lambda v: reg_gamma_upper(v, 1.0),
    "reg_gamma_lower": lambda v: reg_gamma_lower(v, 1.0),
    "log_reg_gamma_tail": lambda v: log_reg_gamma_tail([2.0, v], [1.0, 1.0], upper=True),
    "d_section_prob": lambda v: d_section_prob(3, v, 0.0, 1.0),
    "equivalence_sides": lambda v: equivalence_sides(3, v, 1.0),
    "LatticeSpec": lambda v: LatticeSpec("Z2", scale=v),
}


@pytest.mark.parametrize("name", POSITIVE_REALS)
@pytest.mark.parametrize("v", [0.0, -1.0, math.nan, math.inf], ids=repr)
def test_bad_positive_real_is_a_value_error(name, v):
    with pytest.raises(ValueError, match="must be finite and > 0"):
        POSITIVE_REALS[name](v)


@pytest.mark.parametrize("name", POSITIVE_REALS)
@pytest.mark.parametrize("v", ["1", None, 10**400], ids=["'1'", "None", "10**400"])
def test_a_non_number_or_an_int_past_double_range_is_not_a_positive_real(name, v):
    # Neither may escape as a comparison's TypeError, nor the int pass as
    # finite and fail later in a conversion to float.
    with pytest.raises(ValueError, match="must be finite and > 0"):
        POSITIVE_REALS[name](v)


# Calls whose non-number or int past double range once escaped a validator as
# a TypeError or an OverflowError: (call, the repr that the message names).
ESCAPED = {
    "nld_eps_converse": (lambda: nld_eps_converse(4, "0.1", 1.0), "'0.1'"),
    "clopper_pearson": (lambda: clopper_pearson(1, 10, "0.9"), "'0.9'"),
    "ml_bound": (lambda: ml_bound(ChannelPoint(4, -1.5, 1.0), r="1"), "'1'"),
    "reg_gamma_upper": (lambda: reg_gamma_upper(1.0, "1"), "'1'"),
    "q_func": (lambda: q_func("1"), "'1'"),
    "log_reg_gamma_upper": (lambda: log_reg_gamma_upper(2.0, 10**400), repr(10**400)),
    "log_reg_gamma_tail": (lambda: log_reg_gamma_tail([2.0, 10**400], [1.0, 1.0], upper=True),
                           repr(10**400)),
}


@pytest.mark.parametrize("name", ESCAPED)
def test_a_non_number_or_an_int_past_double_range_is_a_value_error_naming_it(name):
    call, shown = ESCAPED[name]
    with pytest.raises(ValueError) as info:
        call()
    assert shown in str(info.value)


# log_reg_gamma_tail's arrays are of an integer or a float dtype: a bool, a
# string, bytes or an object element is not a number there, as it is not for
# the scalar rules, even where numpy would read it as one.  (a, x, the repr
# that the message names.)
NOT_NUMBER_ARRAYS = [
    (["2"], [1.0], "['2']"), ([2.0], ["1"], "['1']"), ([2.0], [True], "[True]"),
    (True, 1.0, "True"), ([2.0], [b"1"], "[b'1']"), ([None], [1.0], "[None]"),
    ([2.0], [None], "[None]"),
]


@pytest.mark.parametrize("a, x, shown", NOT_NUMBER_ARRAYS, ids=repr)
def test_log_reg_gamma_tail_takes_only_integer_or_float_arrays(a, x, shown):
    with pytest.raises(ValueError) as info:
        log_reg_gamma_tail(a, x, upper=True)
    assert shown in str(info.value) and "nan" not in str(info.value)


def test_log_reg_gamma_tail_reads_integer_arrays_as_doubles():
    ints = log_reg_gamma_tail(np.array([2, 3], np.int32), np.array([1, 5], np.uint64), upper=False)
    assert np.array_equal(ints, log_reg_gamma_tail([2.0, 3.0], [1.0, 5.0], upper=False))


# Every public entry point that takes a bound's own radius or a ball's volume,
# as a call at v, and whether v = inf gives a value (typicality's volume term
# gamma V_n r^n overflows there instead).
RADII = {
    "ml_bound": (True, lambda v: ml_bound(ChannelPoint(4, -1.5, 1.0), r=v)),
    "typicality_bound": (False, lambda v: typicality_bound(ChannelPoint(4, -1.5, 1.0), r=v)),
    "norm_tail_normal_approx": (True, lambda v: norm_tail_normal_approx(4, v, 1.0)),
    "sphere_bound_by_volume": (True, lambda v: sphere_bound_by_volume(4, v, 1.0)),
}


@pytest.mark.parametrize("name", RADII)
@pytest.mark.parametrize("v", [0.0, -1.0, -math.inf, math.nan], ids=repr)
def test_bad_radius_is_a_value_error(name, v):
    with pytest.raises(ValueError, match=r"(radius|volume) must be > 0, got"):
        RADII[name][1](v)


@pytest.mark.parametrize("name", RADII)
def test_infinite_radius_is_the_exact_limit(name):
    finite_at_inf, call = RADII[name]
    if finite_at_inf:
        call(math.inf)
    else:
        with pytest.raises(ValueError, match="overflows"):
            call(math.inf)


# Every public function of a real whose infinite values are exact limits:
# NaN is rejected, and (argument, value) at the infinities.
NAN_REJECTED = {
    "q_func": (q_func, [(math.inf, 0.0), (-math.inf, 1.0)]),
    "log_q_func": (log_q_func, [(math.inf, -math.inf), (-math.inf, 0.0)]),
}


@pytest.mark.parametrize("name", NAN_REJECTED)
def test_nan_is_a_value_error_and_infinity_the_limit(name):
    fn, limits = NAN_REJECTED[name]
    with pytest.raises(ValueError, match="nan|NaN"):
        fn(math.nan)
    for x, value in limits:
        assert fn(x) == value


@pytest.mark.parametrize("name, y", [
    ("Z2", [math.nan, 0.0]), ("Z2", [0.0, math.inf]), ("A2", [math.nan, 0.0]),
    ("D4", [0.0, 0.0, -math.inf, 0.0]), ("E8", [math.inf] + [0.0] * 7),
    ("E8", [1e300] + [0.0] * 7), ("D4", [2.0 ** 50, 0.0, 0.0, 0.0])], ids=repr)
def test_decode_rejects_a_non_finite_or_huge_input(name, y):
    with pytest.raises(ValueError, match=r"input / scale must be finite and below 2\^50"):
        decode(builtin(name), y)


# Every public entry point that takes a seed, as a call at seed s.
SEEDED = {
    "simulate_error_prob": lambda s: simulate_error_prob(builtin("Z2"), 0.1, 10, seed=s),
    "find_scale_for_error": lambda s: find_scale_for_error(builtin("Z1"), 0.1, 1.0, 10, seed=s),
}


@pytest.mark.parametrize("name", SEEDED)
@pytest.mark.parametrize("s", [1.5, "x", [1.5], True, -1, np.True_, [4, True]], ids=repr)
def test_bad_seed_is_a_value_error(name, s):
    with pytest.raises(ValueError, match="seed"):
        SEEDED[name](s)


def test_scale_search_seeds_its_draw_and_its_estimate_from_the_seed():
    res = find_scale_for_error(builtin("Z1"), 0.1, 1.0, 100, seed=7)
    assert res.estimate.seed == [7, 1]
    # Without a seed the entropy is drawn once, for the draw and the estimate;
    # seeding with it repeats the search.
    fresh = find_scale_for_error(builtin("Z1"), 0.1, 1.0, 100, seed=None)
    entropy, second = fresh.estimate.seed
    assert second == 1 and type(entropy) is int
    assert find_scale_for_error(builtin("Z1"), 0.1, 1.0, 100, seed=entropy) == fresh


# A name is a builtin's: the reserved comparison lattices (BW16, Leech24, S127,
# LDLC) have no decoder here, so they are unknown names too.
@pytest.mark.parametrize("kwargs, message", [
    ({"scale": math.inf}, "scale"), ({"scale": math.nan}, "scale"), ({"scale": 0.0}, "scale"),
    ({"name": ["x"]}, "name must be a str"), ({"name": 5}, "name must be a str"),
    ({"name": None}, "name must be a str"), ({"name": "x"}, "unknown lattice name"),
    ({"name": "BW16"}, "unknown lattice name"), ({"name": "Leech24"}, "unknown lattice name"),
    ({"name": "e8"}, "unknown lattice name"), ({"name": "Zn"}, "unknown lattice name"),
], ids=repr)
def test_bad_lattice_spec_is_a_value_error(kwargs, message):
    with pytest.raises(ValueError, match=message):
        LatticeSpec(**{"name": "Z2", **kwargs})


# Each rule's message, by a phrase that no other message has, and the one
# validator allowed to raise it.
RULE_PHRASES = ("dimension", "integer", "(0, 1)", "finite and > 0", " must be > 0",
                "must not be NaN", "NLD", "requires delta < delta*", "seed")
VALIDATORS = ("_check_int", "_check_prob", "_check_positive", "_check_positive_or_inf",
              "_check_not_nan", "_check_nld", "_check_one_nld", "_check_seed")
# The inputs that only a validator may compare with a literal.
CHECKED_NAMES = ("n", "dim", "trials", "errors", "eps", "p", "confidence",
                 "sigma2", "scale", "r", "v")


def _input_checks(tree):
    """(function, text) of every raise whose message has a rule's phrase, and
    (function, test) of every ``if`` outside a validator that compares a
    checked input with a number literal."""
    raises, compares = [], []
    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Raise):
                text = "".join(c.value for c in ast.walk(node)
                               if isinstance(c, ast.Constant) and isinstance(c.value, str))
                if any(phrase in text for phrase in RULE_PHRASES):
                    raises.append((fn.name, text))
            elif isinstance(node, ast.If) and fn.name not in VALIDATORS:
                for c in ast.walk(node.test):
                    if not isinstance(c, ast.Compare):
                        continue
                    sides = [c.left, *c.comparators]
                    checked = any(getattr(s, "id", getattr(s, "attr", None)) in CHECKED_NAMES
                                  for s in sides)
                    literal = any(isinstance(s, ast.Constant) and type(s.value) in (int, float)
                                  for s in sides)
                    if checked and literal:
                        compares.append((fn.name, ast.unparse(c)))
    return raises, compares


def test_input_errors_come_from_their_validators():
    # Each rule's errors are raised by its validator in specfn only, and the
    # capacity rule of the asymptotic forms by _require_below_capacity only;
    # _check_dims and _double_array add just their array dtype errors, and no
    # function outside the validators tests a checked input against a literal
    # bound of its own.
    found = {}
    for path in sorted(pathlib.Path(icawgn.__file__).parent.glob("*.py")):
        raises, compares = _input_checks(ast.parse(path.read_text()))
        for fn, text in raises:
            found.setdefault((path.stem, fn), []).append(text.split(", got")[0])
        assert not compares, (path.name, compares)
    assert found == {
        ("specfn", "_check_int"): [" must be an integer", " must be an integer in .."],
        ("specfn", "_check_prob"): [" must be in (0, 1)"],
        ("specfn", "_check_positive"): [" must be finite and > 0"],
        ("specfn", "_check_positive_or_inf"): [" must be > 0"],
        ("specfn", "_check_not_nan"): [" must not be NaN"],
        ("specfn", "_check_nld"): ["NLD must be finite"],
        ("specfn", "_check_one_nld"): ["NLD must be one number"],
        ("specfn", "_check_seed"): ["seed must be None, a nonnegative integer or a sequence of them"],
        ("specfn", "_double_array"): ["shape parameter must be finite and > 0"],
        ("bounds", "_check_dims"): ["dimensions must be a 1-d integer array"],
        ("asymptotics", "_require_below_capacity"): [" requires delta < delta*"],
    }


def test_package_exports_every_module_name():
    # The package's public API is each module's __all__, all of it.
    for module in (icawgn.specfn, icawgn.bounds, icawgn.asymptotics, icawgn.dispersion,
                   icawgn.lattices):
        for name in module.__all__:
            assert getattr(icawgn, name) is getattr(module, name), (module.__name__, name)
