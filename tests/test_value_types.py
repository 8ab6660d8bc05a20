"""The value types LogProb, ChannelPoint, BoundValue, InversionResult and
LatticeSpec are immutable tuples: fields by name and by position, equality and hash by
value, and every way of building one (the constructor, ``_make``,
``_replace``, copying, unpickling) goes through its validation."""

import copy
import math
import pickle
import re

import pytest

from icawgn.bounds import BoundValue, ChannelPoint
from icawgn.dispersion import InversionResult
from icawgn.lattices import LatticeSpec
from icawgn.specfn import LogProb

# Each type with valid field values in field order, and other valid values.
VALUES = [
    (LogProb, (-1.5, False), (-2.5, False)),
    (ChannelPoint, (64, -1.5, 0.5), (64, -1.5, 0.25)),
    (BoundValue, ("ml", LogProb(-2.0), 3.0, False), ("ml", LogProb(-2.0), 3.0, True)),
    (InversionResult, (-1.6, LogProb(math.log(0.01)), 3, 1e-11),
     (-1.6, LogProb(math.log(0.01)), 4, 1e-11)),
    (LatticeSpec, ("E8", 1.5), ("E8", 2.0)),
]

# A field of a validating type, a value it rejects, and the message.
INVALID = [
    (LogProb, "log_value", math.inf, "non-finite log value inf"),
    (LogProb, "log_value", -math.inf, "non-finite log value -inf"),
    (LogProb, "log_value", math.nan, "non-finite log value nan"),
    (LogProb, "is_zero", True, "an exact zero has log value -inf, got -1.5"),
    (ChannelPoint, "n", 0, "dimension must be an integer n in 1.."),
    (ChannelPoint, "n", True, "dimension must be an integer, got True"),
    (ChannelPoint, "n", 2.0, "dimension must be an integer, got 2.0"),
    (ChannelPoint, "nld", math.inf, "NLD must be finite"),
    (ChannelPoint, "sigma2", 0.0, "noise variance must be finite and > 0"),
    (ChannelPoint, "sigma2", math.nan, "noise variance must be finite and > 0"),
    (LatticeSpec, "name", "BW16", "unknown lattice name 'BW16'"),
    (LatticeSpec, "name", "Z1025", "dimension must be an integer n in 1..1024"),
    (LatticeSpec, "scale", 0.0, "scale must be finite and > 0"),
]

PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


def _valid(cls):
    return next(values for c, values, _ in VALUES if c is cls)


@pytest.mark.parametrize("cls, values, other", VALUES, ids=[c.__name__ for c, _, _ in VALUES])
class TestTupleContract:
    def test_positional_and_keyword_construction_agree(self, cls, values, other):
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(cls._fields, values)))
        assert by_position == by_keyword
        assert tuple(by_position) == values
        assert tuple(getattr(by_position, f) for f in cls._fields) == values

    def test_no_field_or_new_attribute_can_be_assigned(self, cls, values, other):
        v = cls(*values)
        for field in cls._fields:
            with pytest.raises(AttributeError):
                setattr(v, field, values[0])
        with pytest.raises(AttributeError):
            v.extra = 1
        assert tuple(v) == values

    def test_equality_and_hash_go_by_value(self, cls, values, other):
        a, b = cls(*values), cls(*values)
        assert a is not b and a == b and hash(a) == hash(b) and len({a, b}) == 1
        assert cls(*other) != a

    def test_copies_and_round_trips_are_equal(self, cls, values, other):
        v = cls(*values)
        copies = [copy.copy(v), copy.deepcopy(v), v._replace(), cls._make(values),
                  *(pickle.loads(pickle.dumps(v, p)) for p in PROTOCOLS)]
        for w in copies:
            assert type(w) is cls and w == v


@pytest.mark.parametrize("cls, field, bad, message", INVALID,
                         ids=[f"{c.__name__}.{f}={b!r}" for c, f, b, _ in INVALID])
def test_every_way_of_building_validates(cls, field, bad, message):
    values = _valid(cls)
    i = cls._fields.index(field)
    bad_values = values[:i] + (bad,) + values[i + 1:]
    # An instance made past __new__, as a forged pickle would hold it.
    forged = tuple.__new__(cls, bad_values)
    builds = [lambda: cls(*bad_values), lambda: cls(**dict(zip(cls._fields, bad_values))),
              lambda: cls._make(bad_values), lambda: cls(*values)._replace(**{field: bad}),
              lambda: copy.copy(forged), lambda: copy.deepcopy(forged),
              *(lambda p=p: pickle.loads(pickle.dumps(forged, p)) for p in PROTOCOLS)]
    for build in builds:
        with pytest.raises(ValueError, match=re.escape(message)):
            build()


def test_an_exact_zero_is_the_one_infinite_log():
    zero = LogProb.zero()
    assert zero == LogProb(-math.inf, True) == LogProb(log_value=-math.inf, is_zero=True)
    assert zero.is_zero and zero.linear == 0.0
    assert pickle.loads(pickle.dumps(zero)) == zero
