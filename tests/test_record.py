"""The contract every exported value type keeps: construction by position and
keyword, equality within one class, hashing, the dataclass-style repr,
immutability, pickling, and the checks each type runs on construction."""

import pickle
import re
from fractions import Fraction

import pytest

from hamfp import (
    BasisRestrictions,
    CheckResult,
    ClassificationVerdict,
    DataError,
    EquivClass,
    Expansion,
    FixedPoint,
    FixedPointData,
    MomentProfile,
    PointInvariants,
    RingElement,
    ValidationReport,
)

POINTS = (
    FixedPoint(-2, (1, 2)),
    FixedPoint(-1, (-1, 1)),
    FixedPoint(1, (-1, 1)),
    FixedPoint(2, (-1, -2)),
)

# (type, fields, repr) for each exported value type; each repr is the text
# the same value printed when the types were frozen dataclasses.
SAMPLES = [
    (FixedPoint, {"phi": -3, "weights": (1, -2)},
     "FixedPoint(phi=-3, weights=(1, -2))"),
    (FixedPointData, {"n": 2, "points": POINTS},
     "FixedPointData(n=2, points=(FixedPoint(phi=-2, weights=(1, 2)), "
     "FixedPoint(phi=-1, weights=(-1, 1)), FixedPoint(phi=1, weights=(-1, 1)), "
     "FixedPoint(phi=2, weights=(-1, -2))))"),
    (PointInvariants,
     {"gamma": 3, "lambda_full": -6, "lambda_minus": -2, "lambda_plus": 3},
     "PointInvariants(gamma=3, lambda_full=-6, lambda_minus=-2, lambda_plus=3)"),
    (CheckResult, {"name": "phi-order", "passed": True, "detail": "ok"},
     "CheckResult(name='phi-order', passed=True, detail='ok')"),
    (ValidationReport, {"checks": (CheckResult("a", False, "x"),)},
     "ValidationReport(checks=(CheckResult(name='a', passed=False, detail='x'),))"),
    (EquivClass, {"degree_half": 1, "coeffs": (Fraction(1, 2), 3)},
     "EquivClass(degree_half=1, coeffs=(Fraction(1, 2), Fraction(3, 1)))"),
    (BasisRestrictions,
     {"data": FixedPointData(2, POINTS),
      "numerators": ((1, 1, 1, 1), (0, -1, -1, -2), (0, 0, -1, -2), (0, 0, 0, 2)),
      "denominator": 1},
     "BasisRestrictions(data=FixedPointData(n=2, points=(FixedPoint(phi=-2, "
     "weights=(1, 2)), FixedPoint(phi=-1, weights=(-1, 1)), FixedPoint(phi=1, "
     "weights=(-1, 1)), FixedPoint(phi=2, weights=(-1, -2)))), numerators=((1, 1, "
     "1, 1), (0, -1, -1, -2), (0, 0, -1, -2), (0, 0, 0, 2)), denominator=1)"),
    (Expansion, {"terms": ((Fraction(1, 3), 0), (Fraction(2), 1))},
     "Expansion(terms=((Fraction(1, 3), 0), (Fraction(2, 1), 1)))"),
    (RingElement, {"n": 2, "coeffs": (1, 0, -2, 5)},
     "RingElement(n=2, coeffs=(1, 0, -2, 5))"),
    (MomentProfile, {"n": 2, "phi": (-2, -1, 1, 2)},
     "MomentProfile(n=2, phi=(-2, -1, 1, 2))"),
    (ClassificationVerdict, {"candidates": (), "is_unique_standard": False},
     "ClassificationVerdict(candidates=(), is_unique_standard=False)"),
]
IDS = [cls.__name__ for cls, _, _ in SAMPLES]


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_repr_matches_the_dataclass_format(cls, fields, text):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields, text):
    by_position = cls(*fields.values())
    by_keyword = cls(**fields)
    assert by_keyword == by_position
    assert hash(by_keyword) == hash(by_position)
    assert by_keyword is not by_position
    values = list(fields.values())
    names = list(fields)
    first, *rest = values
    assert cls(first, **dict(zip(names[1:], rest))) == by_position
    for bad in (
        lambda: cls(*values, 0),
        lambda: cls(*values[:-1]),
        lambda: cls(*values, unknown=0),
        lambda: cls(*values, **{names[0]: first}),
    ):
        with pytest.raises(TypeError):
            bad()


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, text):
    value = cls(**fields)
    name = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.extra = 1
    with pytest.raises(AttributeError):
        delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("cls, fields, text", SAMPLES, ids=IDS)
def test_pickle_round_trip(cls, fields, text):
    value = cls(**fields)
    copy = pickle.loads(pickle.dumps(value))
    assert type(copy) is cls
    assert copy == value
    assert hash(copy) == hash(value)


def test_equality_is_per_class():
    profile = MomentProfile(2, (-2, -1, 1, 2))
    element = RingElement(2, (-2, -1, 1, 2))
    assert profile != element
    assert profile.__eq__(element) is NotImplemented
    assert profile != (2, (-2, -1, 1, 2))
    assert profile == MomentProfile(n=2, phi=[-2, -1, 1, 2])
    assert profile != MomentProfile(2, (-2, -1, 1, 3))
    assert len({profile, MomentProfile(2, (-2, -1, 1, 2)), element}) == 2


def test_construction_checks_still_run():
    with pytest.raises(DataError, match="zero weight"):
        FixedPoint(0, (1, 0))
    with pytest.raises(DataError, match="expected 4 fixed points"):
        FixedPointData(2, POINTS[:3])
    with pytest.raises(DataError, match="away from the middle pair"):
        MomentProfile(2, (0, 0, 1, 2))
    with pytest.raises(ValueError, match="negative degree"):
        EquivClass(-1, (1, 2))
    with pytest.raises(ValueError, match="basis size"):
        RingElement(2, (1, 0, 0))
    with pytest.raises(ValueError, match="n must be even and positive, got 3"):
        RingElement(3, (1, 0, 0, 0, 0))
    # a zero denominator would pass every diagonal test and expand c_1 as 0
    with pytest.raises(ValueError, match="denominator must be positive, got 0"):
        BasisRestrictions(FixedPointData(2, POINTS), ((0,) * 4,) * 4, 0)


@pytest.mark.parametrize(
    "bad",
    [1.9, 2.0, Fraction(2), Fraction(5, 2), "5"],
    ids=["float", "whole-float", "whole-fraction", "fraction", "str"],
)
def test_non_integers_are_refused_not_truncated(bad):
    with pytest.raises(DataError, match=re.escape(f"FixedPoint.phi: {bad!r}")):
        FixedPoint(bad, (1, 2))
    with pytest.raises(DataError, match=re.escape(f"FixedPoint.weights: {bad!r}")):
        FixedPoint(1, (2, bad))
    with pytest.raises(DataError, match=re.escape(f"FixedPointData.n: {bad!r}")):
        FixedPointData(bad, POINTS)
    with pytest.raises(DataError, match=re.escape(f"MomentProfile.phi: {bad!r}")):
        MomentProfile(2, (0, 1, bad, 3))
    with pytest.raises(DataError, match=re.escape(f"MomentProfile.n: {bad!r}")):
        MomentProfile(bad, (0, 1, 2, 3))
    with pytest.raises(TypeError):
        RingElement(2, (1, 0, bad, 1))
    with pytest.raises(TypeError):
        RingElement(bad, (1, 0, 0, 1))
    with pytest.raises(TypeError):
        EquivClass(bad, (1, 2))
    if isinstance(bad, Fraction):
        # a Fraction coefficient is kept as given, not wrapped again
        assert EquivClass(1, (1, bad)).coeffs[1] is bad
    else:
        with pytest.raises(TypeError):
            EquivClass(1, (1, bad))
