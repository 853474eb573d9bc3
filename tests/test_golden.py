"""Report bytes and exit codes pinned against outputs stored in tests/golden.

The inputs are the standard data for exponents 3, 2, 1 (n = 4), its moment
profile (-3, -2, -1, 1, 2, 3) in profile4, and three variants of the data:

* tampered4: the lowest moment value moved from -3 to -4, so that the
  powers of the symplectic class no longer integrate to 0;
* frac4: P2's weights changed to (-2, -4, 3, 4), so that the basis, the
  Chern expansions (through a residual outside the basis span) and the
  pairing are fractional;
* degen4: P1's weights changed to (-1, 5, 3, 5), so that P0 and P1 share a
  weight sum and the basis cannot be built.

Above n = 4, std16 is the standard data for exponents 4, 7, 18, 24, 26, 36,
50, 55, 59 (n = 16), and frac6 the standard data for exponents 4, 3, 2, 1
(n = 6) with P1's weight -1 changed to -12: its basis is fractional, c_1
expands with coefficients of denominator up to 12, c_2 leaves the basis
span, and the pairing is fractional first at (1, 6).

The classify cases at n = 8 are the standard profiles for exponents
(1, 3, 5, 7, 9), the slowest of the 126 with exponents from 1..9, and
(1, 2, 3, 5, 7), and a random profile with no candidate; tie2 is the n = 2
profile (-2, 0, 0, 2), whose tied middle pair leaves two candidates.

Each verify report is pinned as text and as JSON, and the two must list the
same checks in the same order."""

import json
from pathlib import Path

import pytest

from hamfp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
ALL = ["--basis", "--chern", "--pairing"]
# Sections in the order the verify report runs them.
SECTION_ORDER = ("validation", "localization", "basis", "chern", "pairing")

VERIFY = [
    ("std4", ALL, 0, ""),
    ("tampered4", ALL, 1, ""),
    ("std4", [], 0, "-bare"),
    ("frac4", [], 1, "-bare"),
    ("frac4", ["--chern"], 1, "-chern"),
    ("frac4", ALL, 1, ""),
    ("degen4", [], 1, "-bare"),
    ("degen4", ["--chern"], 1, "-chern"),
    ("degen4", ALL, 1, ""),
]
# Appended after the n = 4 cases so that earlier test ids keep their numbers.
VERIFY_LARGE = [
    ("std16", ALL, 0, ""),
    ("frac6", ALL, 1, ""),
]


def verify_cases(runs):
    return [
        (
            ["verify", f"{name}.json", *flags, *extra],
            code,
            f"verify-{name}{tag}.{kind}.out",
        )
        for name, flags, code, tag in runs
        for extra, kind in (([], "text"), (["--json"], "json"))
    ]


# (argv with golden-relative input files, exit code, golden output file);
# the first five keep their original positions, which name the tests.
CASES = [
    *verify_cases(VERIFY[:2]),
    (["classify", "profile4.json", "--json"], 0, "classify-profile4.json.out"),
    *verify_cases(VERIFY[2:]),
    (["classify", "profile4.json"], 0, "classify-profile4.text.out"),
    (["generate", "--b", "3,2,1"], 0, "generate-b321.text.out"),
    *[
        (["classify", f"profile-{name}.json", *extra], 0, f"classify-{name}.{kind}.out")
        for name in ("std8-13579", "std8-12357", "sweep8", "tie2")
        for extra, kind in (([], "text"), (["--json"], "json"))
    ],
    *verify_cases(VERIFY_LARGE),
]


def run(argv, capsys):
    argv = [str(GOLDEN / a) if a.endswith(".json") else a for a in argv]
    code = main(argv)
    return code, capsys.readouterr().out


@pytest.mark.parametrize("argv, code, expected", CASES)
def test_report_bytes(argv, code, expected, capsys):
    assert run(argv, capsys) == (code, (GOLDEN / expected).read_text())


@pytest.mark.parametrize(
    "name, tag", [(name, tag) for name, _, _, tag in VERIFY + VERIFY_LARGE]
)
def test_text_and_json_list_the_same_checks(name, tag):
    text = (GOLDEN / f"verify-{name}{tag}.text.out").read_text()
    report = json.loads((GOLDEN / f"verify-{name}{tag}.json.out").read_text())
    text_checks = [
        (line[3:7] == "PASS", *line[9:].split(": ", 1))
        for line in text.splitlines()
        if line.startswith(("  [PASS] ", "  [FAIL] "))
    ]
    json_checks = [
        (c["passed"], c["name"], c["detail"])
        for section in SECTION_ORDER
        if section in report
        for c in report[section]["checks"]
    ]
    assert text_checks == json_checks
    assert report["passed"] == all(passed for passed, _, _ in json_checks)
    assert text.endswith("result: " + ("PASS" if report["passed"] else "FAIL") + "\n")


def test_tampered_golden_fails_only_the_vanishing_check():
    text = (GOLDEN / "verify-tampered4.text.out").read_text()
    failed = [line for line in text.splitlines() if line.startswith("  [FAIL]")]
    assert len(failed) == 1
    assert failed[0].startswith(
        "  [FAIL] symplectic-class-vanishing: power 1: localization sum of a "
        "degree-2 class is 1/40, expected 0 below degree 8"
    )
