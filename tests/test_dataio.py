import sys

import pytest

from hamfp import DataError, MomentProfile, make_standard_g2
from hamfp.dataio import (
    data_from_document,
    data_to_document,
    profile_from_document,
    profile_to_document,
)


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
    ],
)
def test_malformed_data_documents(std2, mutate):
    doc = data_to_document(std2)
    mutate(doc)
    with pytest.raises(DataError):
        data_from_document(doc)


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this interpreter has no int-string digit limit",
)
def test_digits_past_the_interpreter_limit_are_a_data_error(std2):
    doc = data_to_document(std2)
    doc["points"][0]["phi"] = "1" * 5000
    # cli.main lifts the limit for its process; set the default here
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(DataError, match="^point 0 phi: "):
            data_from_document(doc)
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
