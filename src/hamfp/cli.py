"""Command-line interface: generate, verify, classify.

Exit codes form a stable scripting contract: 0 when every check passes, 1
when some check fails, 2 for malformed input or usage errors. Reports are
deterministic (byte-identical for identical inputs and flags); --json emits
a machine-readable report with all large integers as decimal strings.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from typing import Any

from . import dataio
from .basis import BasisRestrictions, build_basis, express_in_basis
from .errors import (
    DataError,
    DegenerateGammaError,
    ExpansionError,
    IntegralityError,
    InvalidGeneratorError,
)
from .fpdata import (
    CheckResult,
    FixedPointData,
    make_standard_g2,
    point_invariants,
    validate,
)
# chern_number, chern_restriction, integrate, ordinary_chern and
# symplectic_class are unused here; perfbench/tracing.py wraps them at this
# module.
from .grassring import (  # noqa: F401
    basis_images,
    betti,
    ordinary_chern,
    ordinary_from_expansions,
    ring_integral,
    ring_make,
    ring_mul,
)
from .localize import (  # noqa: F401
    chern_classes,
    chern_number,
    chern_restriction,
    euler_characteristic,
    integrate,
    localization_sums,
    pairing_matrix,
    symplectic_class,
)
from .solver import check_symmetry, classify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# A report section: its JSON payload and its checks.
Section = tuple[dict[str, Any], list[CheckResult]]


def _point_json(data: FixedPointData) -> list[dict[str, Any]]:
    out = []
    for i, p in enumerate(data.points):
        inv = point_invariants(data, i)
        out.append(
            {
                "phi": str(p.phi),
                "weights": [str(w) for w in p.weights],
                "gamma": str(inv.gamma),
                "lambda": str(inv.lambda_full),
                "lambda_minus": str(inv.lambda_minus),
                "lambda_plus": str(inv.lambda_plus),
            }
        )
    return out


def _point_lines(points: list[dict[str, Any]]) -> list[str]:
    return [
        f"  P{i}  phi={p['phi']}  weights=({', '.join(p['weights'])})  "
        f"Gamma={p['gamma']}  Lambda={p['lambda']}  L-={p['lambda_minus']}  "
        f"L+={p['lambda_plus']}"
        for i, p in enumerate(points)
    ]


def _localization_checks(data: FixedPointData) -> list[CheckResult]:
    failures = [
        f"power {a}: localization sum of a degree-{2 * a} class is {total}, "
        f"expected 0 below degree {2 * data.n}"
        for a, _, total in localization_sums(
            data, range(1, data.n), with_u=True, with_chern=False
        )
        if total
    ]
    euler = euler_characteristic(data)
    return [
        CheckResult(
            "symplectic-class-vanishing",
            not failures,
            "; ".join(failures)
            if failures
            else f"powers 1..{data.n - 1} all integrate to 0",
        ),
        CheckResult(
            "euler-characteristic",
            euler == data.n + 2,
            f"top Chern class integrates to {euler}, fixed points: {data.n + 2}",
        ),
    ]


def _basis_section(data: FixedPointData, basis: BasisRestrictions) -> Section:
    matrix = [[str(c) for c in row.coeffs] for row in basis.rows]
    integral = all(c.denominator == 1 for row in basis.rows for c in row.coeffs)
    check = CheckResult(
        "basis-integrality",
        integral,
        "all restriction entries are integers"
        if integral
        else "fractional restriction entries found",
    )
    return {"matrix": matrix, "half_degrees": list(basis.half_degrees)}, [check]


def _chern_section(data: FixedPointData, basis: BasisRestrictions) -> Section:
    expansions = {}
    expanded = []
    try:
        for i, cls in enumerate(chern_classes(data), 1):
            expansion = express_in_basis(basis, cls)
            expansions[f"c_{i}"] = [
                {"coefficient": str(c), "t_power": p} for c, p in expansion.terms
            ]
            expanded.append(expansion)
    except ExpansionError as exc:
        fail = CheckResult("chern-expansion-integrality", False, str(exc))
        return {"expansions": expansions}, [fail]
    all_integral = all(e.integral for e in expanded)
    first_coeff = expanded[0].terms[1][0]
    numbers = {
        "{" + ",".join(str(p) for p in parts) + "}": value
        for _, parts, value in localization_sums(
            data, [data.n], with_u=False, with_chern=True
        )
    }
    numbers_integral = all(v.denominator == 1 for v in numbers.values())
    checks = [
        CheckResult(
            "chern-expansion-integrality",
            all_integral,
            "all expansion coefficients are integers"
            if all_integral
            else "fractional expansion coefficients found",
        ),
        CheckResult(
            "first-chern-coefficient",
            first_coeff == data.n,
            f"coefficient of the degree-2 basis row is {first_coeff}, n is {data.n}",
        ),
        CheckResult(
            "chern-numbers-integral",
            numbers_integral,
            "all Chern numbers are integers"
            if numbers_integral
            else "fractional Chern numbers found",
        ),
    ]
    payload: dict[str, Any] = {
        "expansions": expansions,
        "numbers": {k: str(v) for k, v in numbers.items()},
    }
    if all_integral:
        classes = ordinary_from_expansions(ring_make(data.n), expanded)
        payload["ordinary"] = {
            f"c_{i + 1}": str(elem) for i, elem in enumerate(classes)
        }
        payload["betti"] = betti(data.n)
    return payload, checks


def _pairing_section(data: FixedPointData, basis: BasisRestrictions) -> Section:
    half = data.n // 2
    try:
        matrix = pairing_matrix(data, basis)
    except IntegralityError as exc:
        return {}, [CheckResult("pairing-integrality", False, str(exc))]
    checks = [CheckResult("pairing-integrality", True, "all pairings are integers")]
    block = [
        [matrix[half][half], matrix[half][half + 1]],
        [matrix[half + 1][half], matrix[half + 1][half + 1]],
    ]
    det = block[0][0] * block[1][1] - block[0][1] * block[1][0]
    checks.append(
        CheckResult(
            "middle-block-unimodular",
            det in (1, -1),
            f"middle block {block} has determinant {det}",
        )
    )
    table = ring_make(data.n)
    images = basis_images(table)
    ring_matches = all(
        matrix[i][j]
        == ring_integral(table, ring_mul(table, images[i], images[j]))
        for i in range(data.n + 2)
        for j in range(data.n + 2)
        if basis.rows[i].degree_half + basis.rows[j].degree_half == data.n
    )
    checks.append(
        CheckResult(
            "pairing-matches-ring",
            ring_matches,
            "localization pairing equals the ring pairing of the ordinary images"
            if ring_matches
            else "localization pairing differs from the ring pairing",
        )
    )
    return {"matrix": matrix, "middle_block": block, "determinant": det}, checks


def cmd_generate(args: argparse.Namespace) -> int:
    try:
        exponents = [int(part) for part in args.b.split(",") if part.strip() != ""]
    except ValueError:
        print(f"error: --b expects comma-separated integers, got {args.b!r}",
              file=sys.stderr)
        return EXIT_USAGE
    try:
        data = make_standard_g2(exponents)
    except InvalidGeneratorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    doc = dataio.data_to_document(data)
    if args.out:
        dataio.dump_document(doc, args.out)
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"standard fixed-point data: n={data.n}, {data.n + 2} fixed points")
        for line in _point_lines(_point_json(data)):
            print(line)
        if args.out:
            print(f"written to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    try:
        data = dataio.data_from_document(dataio.load_document(args.path))
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    sections: dict[str, Section] = {
        "validation": ({}, list(validate(data).checks)),
        "localization": ({}, _localization_checks(data)),
    }
    if args.basis or args.chern or args.pairing:
        try:
            basis = build_basis(data)
        except DegenerateGammaError as exc:
            fail = CheckResult("basis-construction", False, str(exc))
            sections["basis"] = {}, [fail]
        else:
            if args.basis:
                sections["basis"] = _basis_section(data, basis)
            if args.chern:
                sections["chern"] = _chern_section(data, basis)
            if args.pairing:
                sections["pairing"] = _pairing_section(data, basis)
    checks = [c for _, section_checks in sections.values() for c in section_checks]
    passed = all(c.passed for c in checks)
    points = _point_json(data)

    if args.json:
        report = {"command": "verify", "n": data.n, "points": points, "passed": passed}
        for name, (payload, section_checks) in sections.items():
            report[name] = {**payload, "checks": [asdict(c) for c in section_checks]}
        print(json.dumps(report, indent=2, sort_keys=True))
    else:
        lines = [f"fixed-point data: n={data.n}, {data.n + 2} fixed points"]
        lines += _point_lines(points)
        lines.append("checks:")
        lines += [
            f"  [{'PASS' if c.passed else 'FAIL'}] {c.name}: {c.detail}" for c in checks
        ]
        pairing = sections["pairing"][0] if "pairing" in sections else {}
        if "middle_block" in pairing:
            lines.append(
                f"middle pairing block {pairing['middle_block']} "
                f"determinant {pairing['determinant']}"
            )
        chern = sections["chern"][0] if "chern" in sections else {}
        if "ordinary" in chern:
            lines.append(
                "ordinary Chern classes: "
                + "; ".join(f"{k} = {v}" for k, v in chern["ordinary"].items())
            )
        lines.append("result: " + ("PASS" if passed else "FAIL"))
        print("\n".join(lines))
    return EXIT_OK if passed else EXIT_CHECK_FAILED


def cmd_classify(args: argparse.Namespace) -> int:
    if args.bound is not None and args.bound < 1:
        print(f"error: --bound must be at least 1, got {args.bound}", file=sys.stderr)
        return EXIT_USAGE
    try:
        profile = dataio.profile_from_document(dataio.load_document(args.path))
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    verdict = classify(profile, args.bound)
    symmetric = check_symmetry(profile)
    if args.json:
        doc = {
            "command": "classify",
            "n": profile.n,
            "phi": [str(v) for v in profile.phi],
            "bound": profile.spread if args.bound is None else args.bound,
            "candidates": [
                dataio.data_to_document(c) for c in verdict.candidates
            ],
            "candidate_count": len(verdict.candidates),
            "unique_standard": verdict.is_unique_standard,
            "symmetric": symmetric,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        phis = ", ".join(str(v) for v in profile.phi)
        print(f"profile: n={profile.n}, phi=({phis})")
        print(f"symmetric about the middle pair: {'yes' if symmetric else 'no'}")
        print(f"{len(verdict.candidates)} candidate(s)")
        for k, cand in enumerate(verdict.candidates):
            print(f"candidate {k}:")
            for line in _point_lines(_point_json(cand)):
                print(line)
        print(f"unique standard data: {'yes' if verdict.is_unique_standard else 'no'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hamfp",
        description=(
            "Exact verification and classification of fixed-point data of "
            "Hamiltonian circle actions with n+2 isolated fixed points."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser(
        "generate", help="emit the standard dataset for given exponents"
    )
    gen.add_argument("--b", required=True, help="comma-separated distinct integers")
    gen.add_argument("--out", help="write the dataset as JSON to this path")
    gen.add_argument("--json", action="store_true", help="print the JSON document")
    gen.set_defaults(func=cmd_generate)

    ver = sub.add_parser("verify", help="run all checks on a dataset file")
    ver.add_argument("path", help="dataset JSON file (with weights)")
    ver.add_argument("--chern", action="store_true", help="Chern expansions and numbers")
    ver.add_argument("--basis", action="store_true", help="basis restriction matrix")
    ver.add_argument("--pairing", action="store_true", help="intersection pairing")
    ver.add_argument("--json", action="store_true", help="machine-readable report")
    ver.set_defaults(func=cmd_verify)

    cls = sub.add_parser("classify", help="enumerate weight data for a profile")
    cls.add_argument("path", help="profile JSON file (no weights)")
    cls.add_argument(
        "--bound", type=int, default=None, help="weight magnitude bound, at least 1"
    )
    cls.add_argument("--json", action="store_true", help="machine-readable report")
    cls.set_defaults(func=cmd_classify)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
