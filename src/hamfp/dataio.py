"""JSON documents for datasets and moment profiles.

Layout:

    {"n": 2, "points": [{"phi": "-2", "weights": ["1", "3"]}, ...]}

``n`` is a plain JSON integer; every other integer is a decimal string so
that arbitrary-precision values survive any JSON parser untouched. A profile
document is the same with the "weights" key omitted from every point; mixing
points with and without weights is malformed.

A file that cannot be read, decoded, parsed or written, and a document of the
wrong shape, raise DataError.
"""

from __future__ import annotations

import json
import re
from typing import Any

from .errors import DataError
from .fpdata import FixedPoint, FixedPointData
from .solver import MomentProfile

_DECIMAL = re.compile(r"-?[0-9]+\Z")


def _parse_int(value: Any, context: str) -> int:
    if not isinstance(value, str) or not _DECIMAL.match(value):
        raise DataError(f"{context} must be a decimal string, got {value!r}")
    try:
        return int(value)
    except ValueError as exc:  # past the interpreter's int-string digit limit
        raise DataError(f"{context}: {exc}") from exc


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
        phi = _parse_int(p.get("phi"), f"point {k} phi")
        weights = p.get("weights")
        if not isinstance(weights, list):
            raise DataError(f"point {k} is missing its weights")
        if len(weights) != n:
            raise DataError(
                f"point {k} has {len(weights)} weights, expected {n}"
            )
        parsed.append(
            FixedPoint(
                phi,
                tuple(
                    _parse_int(w, f"point {k} weight {idx}")
                    for idx, w in enumerate(weights)
                ),
            )
        )
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
        _parse_int(p.get("phi"), f"point {k} phi") for k, p in enumerate(points)
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
    try:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle, indent=2, sort_keys=True)
            handle.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc}") from exc
