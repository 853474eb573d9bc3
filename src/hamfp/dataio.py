"""JSON documents for datasets and moment profiles.

Layout:

    {"n": 2, "points": [{"phi": "-2", "weights": ["1", "3"]}, ...]}

``n`` is a plain JSON integer; every other integer is a decimal string so
that arbitrary-precision values survive any JSON parser untouched. A profile
document is the same with the "weights" key omitted from every point; mixing
points with and without weights is malformed.

A file that cannot be read, decoded, parsed or written, and a document of the
wrong shape, raise DataError. The weights of a point are checked and
converted in one pass; the error context that names a weight ("point k
weight i") is built only when some weight of the point fails.

Every document and report is written by ``format_document``, which gives the
bytes of ``json.dumps(doc, indent=2, sort_keys=True)`` without Python's
pure-Python indented encoder: strings go through the C string escaper, a
list of scalars is converted in one comprehension, and every list or object
is written with one join.
"""

from __future__ import annotations

import json
import re
from json.encoder import encode_basestring_ascii
from typing import Any, Callable

from .errors import DataError
from .fpdata import FixedPoint, FixedPointData, MomentProfile

_DECIMAL = re.compile(r"-?[0-9]+\Z")


def parse_int(value: Any, context: str) -> int:
    """The integer a decimal string -?[0-9]+ spells; anything else, a command
    line option included, raises DataError naming ``context``."""
    if not isinstance(value, str) or not _DECIMAL.match(value):
        raise DataError(f"{context} must be a decimal string, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise DataError(f"{context}: {exc}") from exc


def _parse_ints(values: list[Any], context: str) -> tuple[int, ...]:
    """``parse_int`` of each value, value i with the context "{context} i",
    which is built only if some value fails; the first failure is raised."""
    try:
        if all(map(_DECIMAL.match, values)):
            return tuple(map(int, values))
    except (TypeError, ValueError):  # not a string, or past the digit limit
        pass
    return tuple([parse_int(v, f"{context} {i}") for i, v in enumerate(values)])


def _parse_points(doc: Any) -> tuple[int, list[dict[str, Any]]]:
    if not isinstance(doc, dict):
        raise DataError("document must be a JSON object")
    n = doc.get("n")
    if not isinstance(n, int) or isinstance(n, bool):
        raise DataError(f'"n" must be an integer, got {n!r}')
    points = doc.get("points")
    if not isinstance(points, list):
        raise DataError('"points" must be a list')
    if len(points) != n + 2:
        raise DataError(f"expected {n + 2} points, got {len(points)}")
    for k, p in enumerate(points):
        if not isinstance(p, dict):
            raise DataError(f"point {k} must be an object")
    return n, points


def data_to_document(data: FixedPointData) -> dict[str, Any]:
    return {
        "n": data.n,
        "points": [
            {"phi": str(p.phi), "weights": [str(w) for w in p.weights]}
            for p in data.points
        ],
    }


def data_from_document(doc: Any) -> FixedPointData:
    n, points = _parse_points(doc)
    parsed = []
    for k, p in enumerate(points):
        phi = parse_int(p.get("phi"), f"point {k} phi")
        weights = p.get("weights")
        if not isinstance(weights, list):
            raise DataError(f"point {k} is missing its weights")
        if len(weights) != n:
            raise DataError(
                f"point {k} has {len(weights)} weights, expected {n}"
            )
        parsed.append(FixedPoint(phi, _parse_ints(weights, f"point {k} weight")))
    return FixedPointData(n, tuple(parsed))


def profile_to_document(profile: MomentProfile) -> dict[str, Any]:
    return {"n": profile.n, "points": [{"phi": str(v)} for v in profile.phi]}


def profile_from_document(doc: Any) -> MomentProfile:
    n, points = _parse_points(doc)
    for k, p in enumerate(points):
        if "weights" in p:
            raise DataError(
                f"point {k} carries weights; a profile document must omit them"
            )
    phis = tuple(
        parse_int(p.get("phi"), f"point {k} phi") for k, p in enumerate(points)
    )
    return MomentProfile(n, phis)


def load_document(path: str) -> Any:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:
        # bad JSON or UTF-8, an integer past the digit limit, nesting too deep
        raise DataError(f"{path} is not valid JSON: {exc}") from exc


def dump_document(doc: dict[str, Any], path: str) -> None:
    text = format_document(doc) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc


# How each scalar type is written, as the json module writes it.
_SCALARS: dict[type, Callable[[Any], str]] = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    bool: {True: "true", False: "false"}.__getitem__,
    type(None): lambda _: "null",
}


def format_document(doc: Any) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)``, byte for byte, for a
    tree of dicts with str keys, lists, str, int, bool and None. Any other
    type, a tuple or a float included, raises TypeError."""
    return _format(doc, "\n")


def _format(value: Any, newline: str) -> str:
    # newline ends a line and indents the next to the level of value
    kind = type(value)
    if kind is dict:
        if not value:
            return "{}"
        inner = newline + "  "
        texts = []
        for key in sorted(value):
            member = value[key]
            scalar = _SCALARS.get(type(member))
            texts.append(
                encode_basestring_ascii(key)
                + ": "
                + (scalar(member) if scalar else _format(member, inner))
            )
        return "{" + inner + ("," + inner).join(texts) + newline + "}"
    if kind is list:
        if not value:
            return "[]"
        inner = newline + "  "
        try:
            texts = [_SCALARS[type(member)](member) for member in value]
        except KeyError:  # a container, or a type refused below
            texts = [_format(member, inner) for member in value]
        return "[" + inner + ("," + inner).join(texts) + newline + "]"
    scalar = _SCALARS.get(kind)
    if scalar is None:
        raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")
    return scalar(value)
