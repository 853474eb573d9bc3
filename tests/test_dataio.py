import json
import re
import sys
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from hamfp import DataError, MomentProfile, make_standard_g2
from hamfp.dataio import (
    data_from_document,
    data_to_document,
    dump_document,
    format_document,
    profile_from_document,
    profile_to_document,
)

SETTINGS = settings(derandomize=True, max_examples=200, deadline=None)

# Quotes, backslashes, control characters, a line separator, non-ASCII text
# in and beyond the basic plane, and a lone surrogate.
AWKWARD = '"\\/\x00\x1f\x7f\n\r\t\u2028é中😀\ud800'
texts = st.text(st.sampled_from(AWKWARD) | st.characters(), max_size=12)
# Integers past the interpreter's 4,300-digit str() limit, as well as small ones.
integers = st.integers() | st.builds(
    lambda k, digits: k * 10**digits + 1, st.integers(-9, 9), st.integers(4300, 4400)
)
scalars = st.none() | st.booleans() | integers | texts
trees = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(texts, inner, max_size=5),
    max_leaves=30,
)


@contextmanager
def no_digit_limit():
    """Lift the int/str digit limit, as cli.main does for its process."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def test_data_document_round_trip(std4):
    doc = data_to_document(std4)
    assert doc["n"] == 4
    assert doc["points"][0] == {
        "phi": "-3",
        "weights": ["1", "2", "4", "5"],
    }
    assert data_from_document(doc) == std4


def test_profile_document_round_trip():
    profile = MomentProfile(2, (-2, -1, 1, 2))
    doc = profile_to_document(profile)
    assert doc == {
        "n": 2,
        "points": [{"phi": "-2"}, {"phi": "-1"}, {"phi": "1"}, {"phi": "2"}],
    }
    assert profile_from_document(doc) == profile


def test_integers_survive_as_strings():
    big = 10**40
    data = make_standard_g2([big, 1])
    doc = data_to_document(data)
    assert doc["points"][0]["phi"] == str(-big)
    assert data_from_document(doc) == data


class SetWeight:
    """Sets weight 1 of point 2 (moment value 1 in ``std2``) to ``value``;
    the document must then be refused with exactly ``message``."""

    def __init__(self, value, message):
        self.value = value
        self.message = message

    def __call__(self, doc):
        doc["points"][2]["weights"][1] = self.value


def not_decimal(value):
    return SetWeight(value, f"point 2 weight 1 must be a decimal string, got {value!r}")


@pytest.mark.parametrize(
    "mutate",
    [
        lambda doc: doc.update(n="2"),
        lambda doc: doc["points"].pop(),
        lambda doc: doc["points"][0].pop("weights"),
        lambda doc: doc["points"][0]["weights"].pop(),
        lambda doc: doc["points"][0].update(phi=2),
        lambda doc: doc["points"][0]["weights"].__setitem__(0, "1.5"),
        lambda doc: doc["points"][0]["weights"].__setitem__(0, "0"),
        lambda doc: doc.update(n=3),
        pytest.param(not_decimal(3), id="weight-json-number"),
        pytest.param(not_decimal("1_0"), id="weight-underscore"),
        pytest.param(not_decimal("+3"), id="weight-plus-sign"),
        pytest.param(not_decimal(" 3"), id="weight-space"),
        # int() accepts the Arabic-Indic digit three; a decimal string does not
        pytest.param(not_decimal("\u0663"), id="weight-arabic-indic"),
        # a decimal string, refused by FixedPoint itself
        pytest.param(SetWeight("0", "zero weight at moment value 1"), id="weight-zero"),
    ],
)
def test_malformed_data_documents(std2, mutate):
    doc = data_to_document(std2)
    mutate(doc)
    message = getattr(mutate, "message", None)
    match = None if message is None else f"^{re.escape(message)}$"
    with pytest.raises(DataError, match=match):
        data_from_document(doc)


# Documents of the wrong shape, for data and profile documents alike. Without
# the shape guards each would raise a TypeError or AttributeError.
@pytest.mark.parametrize("read", [data_from_document, profile_from_document])
@pytest.mark.parametrize(
    "doc, message",
    [
        ([], "document must be a JSON object"),
        ("x", "document must be a JSON object"),
        ({"n": 2, "points": None}, '"points" must be a list'),
        ({"n": 2, "points": ["P0", "P1", "P2", "P3"]}, "point 0 must be an object"),
    ],
    ids=["list", "string", "points-not-a-list", "point-not-an-object"],
)
def test_documents_of_the_wrong_shape(read, doc, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        read(doc)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int-string digit limit",
)
def test_digits_past_the_interpreter_limit_are_a_data_error(std2):
    phi_doc = data_to_document(std2)
    phi_doc["points"][0]["phi"] = "1" * 5000
    weight_doc = data_to_document(std2)
    weight_doc["points"][2]["weights"][1] = "1" * 5000
    # cli.main lifts the limit for its process; set the default here
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(DataError, match="^point 0 phi: "):
            data_from_document(phi_doc)
        with pytest.raises(DataError, match="^point 2 weight 1: "):
            data_from_document(weight_doc)
    finally:
        sys.set_int_max_str_digits(previous)


def test_profile_rejects_weights_and_disorder():
    doc = data_to_document(make_standard_g2([2, 1]))
    with pytest.raises(DataError):
        profile_from_document(doc)
    bad_order = {
        "n": 2,
        "points": [{"phi": "2"}, {"phi": "-1"}, {"phi": "1"}, {"phi": "-2"}],
    }
    with pytest.raises(DataError):
        profile_from_document(bad_order)


@SETTINGS
@given(trees)
def test_format_document_matches_indented_json(tree):
    with no_digit_limit():
        assert format_document(tree) == json.dumps(tree, indent=2, sort_keys=True)


def test_format_document_nests_empty_containers():
    tree = {"a": [], "b": {}, "c": [[], {}, [[]], {"d": {}}], "": [None, True, 0]}
    assert format_document(tree) == json.dumps(tree, indent=2, sort_keys=True)
    assert format_document([]) == "[]" and format_document({}) == "{}"


@pytest.mark.parametrize(
    "value",
    [1.5, 2.0, Fraction(1, 2), Fraction(3), (1, 2), {"a": [Fraction(1, 3)]}, {1: "a"}],
    ids=["float", "whole-float", "fraction", "whole-fraction", "tuple", "nested", "int-key"],
)
def test_format_document_refuses_other_types(value):
    with pytest.raises(TypeError):
        format_document(value)


@settings(
    SETTINGS,
    max_examples=30,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(st.dictionaries(texts, trees, max_size=5))
def test_dump_document_writes_the_indented_json(tmp_path, doc):
    ours, reference = tmp_path / "ours.json", tmp_path / "reference.json"
    with no_digit_limit():
        dump_document(doc, str(ours))
        with open(reference, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    assert ours.read_bytes() == reference.read_bytes()
