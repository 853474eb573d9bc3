"""Command-line interface: generate, verify, classify.

Exit codes form a stable scripting contract: 0 when every check passes, 1
when some check fails, 2 for malformed input, usage errors or a report that
cannot be written. Reports are deterministic (byte-identical for identical
inputs and flags). --json emits a machine-readable report in which moment
values, weights, point invariants, basis entries, expansion coefficients and
Chern numbers are decimal strings, while these fields are JSON numbers: n
(also each classify candidate's), each expansion term's t_power,
basis.half_degrees, chern.betti, pairing.matrix, pairing.middle_block and
pairing.determinant, and classify's bound and candidate_count.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import cache
from typing import Any, NoReturn

from . import dataio
# basis_images, chern_number, chern_restriction, express_in_basis,
# integrate, ordinary_chern, ring_integral, ring_make, ring_mul and
# symplectic_class are unused here; perfbench/tracing.py wraps them at this
# module.
from .basis import (  # noqa: F401
    BasisRestrictions,
    build_basis,
    express_chern,
    express_in_basis,
)
from .errors import DataError, DegenerateGammaError, ExpansionError, IntegralityError
from .exactnum import exact_fraction
from .fpdata import (
    CheckResult,
    FixedPointData,
    PointInvariants,
    make_standard_g2,
    point_invariants,
    validate,
)
from .grassring import (  # noqa: F401
    basis_images,
    betti,
    image_pairing,
    ordinary_chern,
    ordinary_from_expansions,
    ring_integral,
    ring_make,
    ring_mul,
)
from .localize import (  # noqa: F401
    chern_number,
    chern_restriction,
    expansion_memo,
    integrate,
    labelled_chern_numbers,
    pairing_matrix,
    partition_count,
    symplectic_class,
    u_power_integrals,
)
from .solver import check_symmetry, classify

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# verify --chern integrates one monomial per partition of n; p(48) = 147,273
# stays below the cap and p(50) = 204,226 does not.
MAX_CHERN_PARTITIONS = 200_000

# generate builds (n + 2) * n weights from n/2 + 1 exponents, and
# make_standard_g2 compares the exponents pairwise: 257 exponents (n = 512)
# peak at about 60 MB, while 501 (n = 1000) peak at about 200 MB. The cap
# bounds the number of exponents, not their size: the report writes every
# point's Lambda, L- and L+ in decimal, which CPython before 3.12 converts in
# time quadratic in the digits. On Python 3.11.7 (2-core x86-64), random
# 1,000-digit exponents take 1.1 s at n = 32 and 7.5 s at n = 64, 6.5 s of it
# in _point_json, and n = 256 did not finish in 300 s.
MAX_GENERATE_EXPONENTS = 257

# A report section: its JSON payload and its checks.
Section = tuple[dict[str, Any], list[CheckResult]]


def _point_invariants(data: FixedPointData) -> list[PointInvariants]:
    return [point_invariants(data, i) for i in range(data.n + 2)]


def _point_json(
    data: FixedPointData, invariants: list[PointInvariants]
) -> list[dict[str, Any]]:
    out = []
    for p, inv in zip(data.points, invariants):
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
        for a, total in enumerate(u_power_integrals(data)[1:-1], 1)
        if total
    ]
    detail = "; ".join(failures) or f"powers 1..{data.n - 1} all integrate to 0"
    return [CheckResult("symplectic-class-vanishing", not failures, detail)]


def _basis_section(basis: BasisRestrictions) -> Section:
    den = basis.denominator
    integral = den == 1
    if integral:
        matrix = [list(map(str, row)) for row in basis.numerators]
    else:
        matrix = [
            [str(exact_fraction(a, den)) for a in row] for row in basis.numerators
        ]
    check = CheckResult(
        "basis-integrality",
        integral,
        "all restriction entries are integers"
        if integral
        else "fractional restriction entries found",
    )
    return {"matrix": matrix, "half_degrees": list(basis.half_degrees)}, [check]


def _chern_section(basis: BasisRestrictions) -> Section:
    expansions = {}
    expanded = []
    # the Chern classes and the Chern numbers share one expansion per
    # multiset of weights up to negation
    expand = expansion_memo()
    try:
        for i, expansion in enumerate(express_chern(basis, expand), 1):
            expansions[f"c_{i}"] = [
                {"coefficient": str(c), "t_power": p} for c, p in expansion.terms
            ]
            expanded.append(expansion)
    except ExpansionError as exc:
        fail = CheckResult("chern-expansion-integrality", False, str(exc))
        return {"expansions": expansions}, [fail]
    all_integral = all(e.integral for e in expanded)
    first_coeff = expanded[0].terms[1][0]
    # one pass over the grid, which labels each partition as it closes it,
    # gives the decimal strings and the integrality flag
    numbers: dict[str, str] = {}
    numbers_integral = True
    for _, label, value in labelled_chern_numbers(basis.data, expand):
        numbers[label] = str(value)
        if value.denominator != 1:
            numbers_integral = False
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
            first_coeff == basis.n,
            f"coefficient of the degree-2 basis row is {first_coeff}, n is {basis.n}",
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
        "numbers": numbers,
    }
    if all_integral:
        classes = ordinary_from_expansions(expanded)
        payload["ordinary"] = {
            f"c_{i + 1}": str(elem) for i, elem in enumerate(classes)
        }
        payload["betti"] = betti(basis.n)
    return payload, checks


def _pairing_section(basis: BasisRestrictions) -> Section:
    n = basis.n
    half = n // 2
    try:
        matrix = pairing_matrix(basis)
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
    degrees = basis.half_degrees
    ring_matches = all(
        matrix[i][j] == image_pairing(n, i, j)
        for i in range(n + 2)
        for j in range(n + 2)
        if degrees[i] + degrees[j] == n
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


def cmd_generate(args: argparse.Namespace) -> tuple[int, str]:
    entries = args.b.split(",")
    if len(entries) > MAX_GENERATE_EXPONENTS:
        raise DataError(
            f"--b has {len(entries)} exponents, more than the limit of "
            f"{MAX_GENERATE_EXPONENTS}"
        )
    exponents = [dataio.parse_int(b.strip(), "--b entry") for b in entries]
    data = make_standard_g2(exponents)
    doc = dataio.data_to_document(data)
    if args.out:
        dataio.dump_document(doc, args.out)
    if args.json:
        return EXIT_OK, dataio.format_document(doc)
    lines = [f"standard fixed-point data: n={data.n}, {data.n + 2} fixed points"]
    lines += _point_lines(_point_json(data, _point_invariants(data)))
    if args.out:
        lines.append(f"written to {args.out}")
    return EXIT_OK, "\n".join(lines)


def cmd_verify(args: argparse.Namespace) -> tuple[int, str]:
    data = dataio.data_from_document(dataio.load_document(args.path))
    if args.chern and (count := partition_count(data.n)) > MAX_CHERN_PARTITIONS:
        raise DataError(
            f"--chern at n={data.n} would compute p({data.n}) = {count} Chern "
            f"numbers, more than the limit of {MAX_CHERN_PARTITIONS}"
        )
    # the report and the basis read the same invariants
    invariants = _point_invariants(data)
    sections: dict[str, Section] = {
        "validation": ({}, list(validate(data).checks)),
        "localization": ({}, _localization_checks(data)),
    }
    if args.basis or args.chern or args.pairing:
        try:
            basis = build_basis(data, invariants)
        except DegenerateGammaError as exc:
            fail = CheckResult("basis-construction", False, str(exc))
            sections["basis"] = {}, [fail]
        else:
            if args.basis:
                sections["basis"] = _basis_section(basis)
            if args.chern:
                sections["chern"] = _chern_section(basis)
            if args.pairing:
                sections["pairing"] = _pairing_section(basis)
    checks = [c for _, section_checks in sections.values() for c in section_checks]
    passed = all(c.passed for c in checks)
    code = EXIT_OK if passed else EXIT_CHECK_FAILED
    points = _point_json(data, invariants)

    if args.json:
        report = {"command": "verify", "n": data.n, "points": points, "passed": passed}
        for name, (payload, section_checks) in sections.items():
            report[name] = {
                **payload,
                "checks": [
                    {"name": c.name, "passed": c.passed, "detail": c.detail}
                    for c in section_checks
                ],
            }
        return code, dataio.format_document(report)
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
    return code, "\n".join(lines)


def cmd_classify(args: argparse.Namespace) -> tuple[int, str]:
    profile = dataio.profile_from_document(dataio.load_document(args.path))
    verdict = classify(profile)
    symmetric = check_symmetry(profile)
    if args.json:
        doc = {
            "command": "classify",
            "n": profile.n,
            "phi": [str(v) for v in profile.phi],
            # the search covers every weight up to the spread
            "bound": profile.spread,
            "candidates": [
                dataio.data_to_document(c) for c in verdict.candidates
            ],
            "candidate_count": len(verdict.candidates),
            "unique_standard": verdict.is_unique_standard,
            "symmetric": symmetric,
        }
        return EXIT_OK, dataio.format_document(doc)
    phis = ", ".join(str(v) for v in profile.phi)
    lines = [
        f"profile: n={profile.n}, phi=({phis})",
        f"symmetric about the middle pair: {'yes' if symmetric else 'no'}",
        f"{len(verdict.candidates)} candidate(s)",
    ]
    for k, cand in enumerate(verdict.candidates):
        lines.append(f"candidate {k}:")
        lines += _point_lines(_point_json(cand, _point_invariants(cand)))
    lines.append(f"unique standard data: {'yes' if verdict.is_unique_standard else 'no'}")
    return EXIT_OK, "\n".join(lines)


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as a DataError, which main reports like any other;
    add_subparsers gives every subcommand this class too."""

    def error(self, message: str) -> NoReturn:
        raise DataError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    gen.add_argument(
        "--b",
        required=True,
        help="comma-separated distinct integers; write a list whose first "
        "entry is negative as --b=-2,1",
    )
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
    cls.add_argument("--json", action="store_true", help="machine-readable report")
    cls.set_defaults(func=cmd_classify)
    return parser


# main's own parser, built once per interpreter; build_parser stays fresh.
_parser = cache(build_parser)


def main(argv: list[str] | None = None) -> int:
    """Run one command and write its report to stdout. A DataError raised by
    the command, or a report that cannot be written, becomes one ``error:``
    line on stderr and exit code 2; a reader that closes early ends the write
    quietly with the command's own code. After a failed write to the process's
    own stdout, its descriptor points at devnull for the rest of the process."""
    # Reports print integers of any size; Python 3.10.7+ otherwise refuses
    # str() of an int above 4,300 digits. The caller's limit comes back when
    # the command returns or exits.
    limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        args = _parser().parse_args(argv)
        code, report = args.func(args)
    except DataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    finally:
        if limit is not None:
            sys.set_int_max_str_digits(limit)
    try:
        print(report, flush=True)
    except OSError as exc:
        # The interpreter flushes stdout again at exit; point it at devnull
        # so that flush neither fails nor prints a warning.
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write stdout: {exc}", file=sys.stderr)
            return EXIT_USAGE
    return code


if __name__ == "__main__":
    sys.exit(main())
