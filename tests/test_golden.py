"""Report bytes pinned against outputs stored in tests/golden.

The inputs are the standard data for exponents 3, 2, 1 (n = 4); the same
data with the lowest moment value moved from -3 to -4, so that the powers of
the symplectic class no longer integrate to 0; and the moment profile
(-3, -2, -1, 1, 2, 3).
"""

from pathlib import Path

import pytest

from hamfp.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
SECTIONS = ["--basis", "--chern", "--pairing"]


@pytest.mark.parametrize(
    "argv, code, expected",
    [
        (["verify", "std4.json", *SECTIONS], 0, "verify-std4.text.out"),
        (["verify", "std4.json", *SECTIONS, "--json"], 0, "verify-std4.json.out"),
        (["verify", "tampered4.json", *SECTIONS], 1, "verify-tampered4.text.out"),
        (
            ["verify", "tampered4.json", *SECTIONS, "--json"],
            1,
            "verify-tampered4.json.out",
        ),
        (["classify", "profile4.json", "--json"], 0, "classify-profile4.json.out"),
    ],
)
def test_report_bytes(argv, code, expected, capsys):
    argv = [argv[0], str(GOLDEN / argv[1]), *argv[2:]]
    assert main(argv) == code
    assert capsys.readouterr().out == (GOLDEN / expected).read_text()


def test_tampered_golden_fails_only_the_vanishing_check():
    text = (GOLDEN / "verify-tampered4.text.out").read_text()
    failed = [line for line in text.splitlines() if line.startswith("  [FAIL]")]
    assert len(failed) == 1
    assert failed[0].startswith(
        "  [FAIL] symplectic-class-vanishing: power 1: localization sum of a "
        "degree-2 class is 1/40, expected 0 below degree 8"
    )
