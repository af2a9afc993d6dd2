"""The value classes: plain slotted classes that behave as frozen dataclasses.

Vector6, MinkowskiPoint, NullVector and Check build ==, hash and repr
from their __slots__ and refuse assignment; Report stays mutable.  The
repr strings are the ones the dataclasses printed.
"""

import copy
import pickle
from fractions import Fraction

import pytest

from splitconf.clifford import Vector6
from splitconf.conformal import MinkowskiPoint, NullVector
from splitconf.report import Check, Report

# (class, positional arguments, the same value by keyword, its fields in
# order, another value of the class, its repr)
CASES = [
    (Vector6, (1, 0.5, Fraction(1, 3)), {"x": 1, "y": 0.5, "z": Fraction(1, 3)},
     (1, 0.5, Fraction(1, 3), 0, 0, 0), Vector6(1, 0.5),
     "Vector6(x=1, y=0.5, z=Fraction(1, 3), t=0, p=0, q=0)"),
    (MinkowskiPoint, (1, 2.5), {"t": 1, "x": 2.5}, (1, 2.5, 0, 0), MinkowskiPoint(1, 2),
     "MinkowskiPoint(t=1, x=2.5, y=0, z=0)"),
    (NullVector, (Vector6(x=1, p=1),), {"v": Vector6(x=1, p=1)}, (Vector6(x=1, p=1),),
     NullVector(Vector6(y=1, p=1)), "NullVector(v=Vector6(x=1, y=0, z=0, t=0, p=1, q=0))"),
    (Check, ("a", "pass", "e", "x"),
     {"check_id": "a", "status": "pass", "expected": "e", "actual": "x"},
     ("a", "pass", "e", "x", ""), Check("a", "fail", "e", "x"),
     "Check(check_id='a', status='pass', expected='e', actual='x', context='')"),
]


@pytest.mark.parametrize("cls, args, kwargs, fields, other, text", CASES,
                         ids=[case[0].__name__ for case in CASES])
class TestValueClass:
    def test_positional_and_keyword_construction_agree(self, cls, args, kwargs, fields,
                                                       other, text):
        a, b = cls(*args), cls(**kwargs)
        assert a == b and not a != b
        assert hash(a) == hash(b)
        assert repr(a) == repr(b) == text
        assert a != other and hash(other) != hash(a)

    def test_other_classes_and_tuples_are_unequal(self, cls, args, kwargs, fields,
                                                  other, text):
        value, twin = cls(*args), type("Twin", (cls,), {})(*args)
        assert value != twin and twin != value
        assert value != fields and fields != value
        assert value != list(fields)

    def test_assignment_and_deletion_raise(self, cls, args, kwargs, fields, other, text):
        value = cls(*args)
        name = next(iter(kwargs))
        with pytest.raises(AttributeError):
            setattr(value, name, 0)
        with pytest.raises(AttributeError):
            delattr(value, name)
        with pytest.raises(AttributeError):
            value.extra = 0
        assert repr(value) == text

    def test_copies_and_pickles_are_equal(self, cls, args, kwargs, fields, other, text):
        value = cls(*args)
        for twin in (copy.copy(value), copy.deepcopy(value),
                     pickle.loads(pickle.dumps(value))):
            assert twin == value and repr(twin) == text


def test_defaults():
    assert Vector6().as_tuple() == (0,) * 6
    assert MinkowskiPoint().as_tuple() == (0,) * 4
    assert Check("a", "pass", "e", "x").context == ""


def test_reports_share_no_config_or_checks():
    a, b = Report("s"), Report("s")
    assert a.config is not b.config and a.checks is not b.checks
    a.config["seed"] = 1
    a.add("c", True, "e", "x")
    assert (b.config, b.checks) == ({}, [])
    config = {"seed": 2}
    assert Report("s", config).config is config
