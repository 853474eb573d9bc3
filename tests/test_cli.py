import json
import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path
from time import perf_counter

import pytest

import hamfp.cli
from hamfp import (
    FixedPoint,
    FixedPointData,
    elementary_symmetric,
    make_standard_g2,
    point_invariants,
)
from hamfp.cli import MAX_CHERN_PARTITIONS, MAX_GENERATE_EXPONENTS, main
from hamfp.dataio import (
    data_from_document,
    data_to_document,
    dump_document,
    load_document,
    profile_to_document,
)
from hamfp.exactnum import exact_fraction
from hamfp.localize import partition_count
from hamfp.solver import (
    MAX_CLASSIFY_N,
    MAX_FACTORIZATION_NODES,
    MAX_TRIAL_DIVISOR,
    MomentProfile,
)
from conftest import PACKAGE_ROOT, run_cli, up_to_negation

GOLDEN = Path(__file__).resolve().parent / "golden"


def test_start_up_imports_no_code_generation():
    # dataclasses imports inspect, ast, dis and tokenize, and each dataclass
    # generates and compiles its methods: together about half of importing
    # the CLI and building its parser. The value types are Records instead.
    code = (
        "import sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hamfp.cli\n"
        "hamfp.cli.build_parser()\n"
        "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
    )
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, PACKAGE_ROOT],
        capture_output=True,
        text=True,
        check=True,
    )
    assert child.stdout.split() == []


def test_fractions_load_only_at_a_fractional_value():
    # On data from a manifold every value is an int; fractions, with the
    # decimal and numbers modules it imports, loads at the first value that
    # is not, and the report is the same either way.
    code = (
        "import io, json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "import hamfp.cli\n"
        "hamfp.cli.build_parser()\n"
        "lazy = {'fractions', 'decimal', 'numbers'}\n"
        "def run(*argv):\n"
        "    stdout, sys.stdout = sys.stdout, io.StringIO()\n"
        "    try:\n"
        "        return hamfp.cli.main(list(argv)), sys.stdout.getvalue()\n"
        "    finally:\n"
        "        sys.stdout = stdout\n"
        "loaded = [sorted(lazy & set(sys.modules))]\n"
        "codes = [run(*argv)[0] for argv in json.loads(sys.argv[2])]\n"
        "loaded.append(sorted(lazy & set(sys.modules)))\n"
        "frac = run(*json.loads(sys.argv[3]))\n"
        "print(json.dumps([loaded, codes, frac, 'fractions' in sys.modules]))\n"
    )
    integral = [
        ["verify", str(GOLDEN / "std16.json"), *VERIFY_FLAGS, "--json"],
        ["classify", str(GOLDEN / "profile-std8-13579.json"), "--json"],
    ]
    fractional = ["verify", str(GOLDEN / "frac4.json"), *VERIFY_FLAGS]
    argv = [PACKAGE_ROOT, json.dumps(integral), json.dumps(fractional)]
    child = subprocess.run(
        [sys.executable, "-I", "-S", "-c", code, *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    loaded, codes, frac, frac_loaded = json.loads(child.stdout)
    assert loaded == [[], []]
    assert codes == [0, 0]
    assert frac == [1, (GOLDEN / "verify-frac4.text.out").read_text()]
    assert frac_loaded


def test_generate_prints_weight_pairs(tmp_path):
    out = tmp_path / "std2.json"
    result = run_cli("generate", "--b", "2,1", "--out", str(out))
    assert result.returncode == 0
    assert "P0  phi=-2  weights=(1, 3)" in result.stdout
    assert "P3  phi=2  weights=(-3, -1)" in result.stdout
    doc = json.loads(out.read_text())
    assert doc == data_to_document(make_standard_g2([2, 1]))


def test_generate_json_mode():
    result = run_cli("generate", "--b", "3,2,1", "--json")
    assert result.returncode == 0
    assert json.loads(result.stdout) == data_to_document(make_standard_g2([3, 2, 1]))


def test_generate_rejects_duplicates():
    result = run_cli("generate", "--b", "1,1")
    assert result.returncode == 2
    assert "distinct" in result.stderr


def test_generate_rejects_garbage():
    assert run_cli("generate", "--b", "1,x").returncode == 2


@pytest.mark.parametrize(
    "argv, bad",
    [
        (["generate", "--b", "1_0,2"], "--b entry must be a decimal string, got '1_0'"),
        (
            ["generate", "--b", "\u0663,2"],
            "--b entry must be a decimal string, got '\u0663'",
        ),
        (["generate", "--b", "+3,2"], "--b entry must be a decimal string, got '+3'"),
        (["generate", "--b", "3,,2"], "--b entry must be a decimal string, got ''"),
    ],
    ids=["b-underscore", "b-arabic-digit", "b-plus", "b-empty-entry"],
)
def test_integer_options_follow_the_decimal_rule(argv, bad, capsys):
    # int() once read 1_0 as 10 and the Arabic-Indic digit three as 3, and an
    # empty entry was skipped
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {bad}\n")


def test_generate_refuses_exponents_past_the_cap(monkeypatch, capsys):
    def no_data(*args, **kwargs):
        raise AssertionError("built the dataset before the refusal")

    monkeypatch.setattr(hamfp.cli, "make_standard_g2", no_data)
    count = MAX_GENERATE_EXPONENTS + 1
    argv = ["generate", "--b", ",".join(map(str, range(1, count + 1)))]
    assert main(argv) == 2
    assert capsys.readouterr() == (
        "",
        f"error: --b has {count} exponents, more than the limit of "
        f"{MAX_GENERATE_EXPONENTS}\n",
    )


def test_generate_accepts_the_n_198_pipe_run(capsys):
    # the console-script step pipes this report into a reader that closes early
    assert MAX_GENERATE_EXPONENTS >= 100
    assert main(["generate", "--b", ",".join(map(str, range(1, 101)))]) == 0
    assert capsys.readouterr().out.startswith("standard fixed-point data: n=198,")


def test_generate_takes_a_negative_first_exponent_after_an_equals_sign(capsys):
    # argparse reads a separate -2,1 as an option, not as the value of --b
    assert main(["generate", "--b", "-2,1"]) == 2
    assert capsys.readouterr() == ("", "error: argument --b: expected one argument\n")
    assert main(["generate", "--b=-2,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == data_to_document(make_standard_g2([-2, 1]))


def test_generate_reads_entries_with_spaces_around_them(capsys):
    assert main(["generate", "--b", " 3, 2,1", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc == data_to_document(make_standard_g2([3, 2, 1]))


def test_verify_standard_data(tmp_path):
    path = tmp_path / "d.json"
    dump_document(data_to_document(make_standard_g2([2, 1])), str(path))
    result = run_cli("verify", str(path), "--chern", "--basis", "--pairing")
    assert result.returncode == 0
    assert "[PASS] localization-of-one" in result.stdout
    assert "[PASS] first-chern-coefficient" in result.stdout
    assert "middle pairing block [[2, 1], [1, 0]] determinant -1" in result.stdout
    assert "c_1 = 2*y + 2*z" in result.stdout
    assert "result: PASS" in result.stdout


def test_verify_tampered_data_fails(tmp_path):
    doc = data_to_document(make_standard_g2([2, 1]))
    doc["points"][0]["weights"] = ["1", "4"]
    path = tmp_path / "bad.json"
    dump_document(doc, str(path))
    result = run_cli("verify", str(path))
    assert result.returncode == 1
    assert "[FAIL] localization-of-one" in result.stdout
    assert "result: FAIL" in result.stdout


def test_verify_fails_sigma2_only_on_its_basis(tmp_path, sigma2, capsys):
    # a genuine action with the ring of the oriented Grassmannian of 2-planes
    # in R^4, whose weight sums tie in the upper half
    path = tmp_path / "sigma2.json"
    dump_document(data_to_document(sigma2), str(path))
    assert main(["verify", str(path), "--basis", "--chern", "--pairing"]) == 1
    out = capsys.readouterr().out
    assert [line for line in out.splitlines() if "[FAIL]" in line] == [
        "  [FAIL] basis-construction: points 2 and 3 share weight sum -2 "
        "in the upper half"
    ]


def test_verify_tampered_data_with_all_sections(tmp_path):
    # the optional sections must degrade to FAIL entries, never crash
    doc = data_to_document(make_standard_g2([3, 2, 1]))
    doc["points"][1]["weights"] = ["-2", "1", "3", "5"]
    path = tmp_path / "bad4.json"
    dump_document(doc, str(path))
    result = run_cli("verify", str(path), "--chern", "--basis", "--pairing")
    assert result.returncode == 1
    assert "result: FAIL" in result.stdout


def test_verify_malformed_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert run_cli("verify", str(path)).returncode == 2
    missing = run_cli("verify", str(tmp_path / "absent.json"))
    assert missing.returncode == 2


def _assert_usage_error(result):
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: ")
    assert result.stderr.count("\n") == 1


@pytest.mark.parametrize("command", ["verify", "classify"])
def test_unreadable_files_exit_2(tmp_path, command):
    not_utf8 = tmp_path / "utf16.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    # documents of the wrong shape: not an object, "points" not a list, and
    # a point that is not an object
    shapes = [tmp_path / f"shape{k}.json" for k in range(3)]
    shapes[0].write_text("[]")
    shapes[1].write_text('{"n": 2, "points": {}}')
    shapes[2].write_text('{"n": 2, "points": ["P0", "P1", "P2", "P3"]}')
    for path in (not_utf8, deep, *shapes):
        _assert_usage_error(run_cli(command, str(path)))


def test_generate_into_a_missing_directory_exits_2(tmp_path):
    target = tmp_path / "missing" / "x.json"
    result = run_cli("generate", "--b", "2,1", "--out", str(target))
    _assert_usage_error(result)
    assert result.stderr.startswith(f"error: cannot write {target}: ")


def test_integers_past_4300_digits_are_reported(tmp_path):
    # n = 16 with 601-digit exponents: Lambda has about 9,600 digits
    path = tmp_path / "big.json"
    exponents = ",".join(str(10**600 + k) for k in range(9))
    generated = run_cli("generate", "--b", exponents, "--out", str(path))
    assert generated.returncode == 0, generated.stderr
    result = run_cli("verify", str(path))
    assert result.returncode == 0, result.stderr
    assert "result: PASS" in result.stdout


def test_verify_refuses_a_chern_grid_past_the_partition_cap(
    tmp_path, monkeypatch, capsys
):
    assert partition_count(48) <= MAX_CHERN_PARTITIONS < partition_count(50)
    path = tmp_path / "n50.json"
    dump_document(data_to_document(make_standard_g2(range(1, 27))), str(path))

    def no_sums(*args, **kwargs):
        raise AssertionError("summed before the refusal")

    monkeypatch.setattr(hamfp.cli, "validate", no_sums)
    monkeypatch.setattr(hamfp.cli, "labelled_chern_numbers", no_sums)
    monkeypatch.setattr(hamfp.cli, "u_power_integrals", no_sums)
    assert main(["verify", str(path), "--basis", "--chern"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: --chern at n=50 would compute p(50) = 204226 ")
    assert f"limit of {MAX_CHERN_PARTITIONS}" in err


@pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"), reason="no int/str digit limit"
)
@pytest.mark.parametrize(
    "argv",
    [["generate", "--b", "2,1"], ["generate", "--b", "1,1"], ["verify"]],
    ids=["ok", "data-error", "usage-error"],
)
def test_main_restores_the_digit_limit(argv, capsys):
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(5000)
    try:
        main(argv)
    finally:
        after = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(before)
    capsys.readouterr()
    assert after == 5000


def test_verify_reads_a_fractional_chern_number_in_its_one_pass(
    tmp_path, monkeypatch, capsys
):
    # the pass over the grid that writes each number also sets the
    # integrality check; one number made fractional must fail it
    path = tmp_path / "std4.json"
    dump_document(data_to_document(make_standard_g2([3, 2, 1])), str(path))
    grid = hamfp.cli.labelled_chern_numbers

    def quartered(data, expand):
        for parts, label, value in grid(data, expand):
            yield parts, label, exact_fraction(value, 4) if parts == (4,) else value

    monkeypatch.setattr(hamfp.cli, "labelled_chern_numbers", quartered)
    assert main(["verify", str(path), "--basis", "--chern", "--json"]) == 1
    chern = json.loads(capsys.readouterr().out)["chern"]
    assert chern["numbers"]["{4}"] == "3/2" and chern["numbers"]["{1,1,1,1}"] == "512"
    check = next(c for c in chern["checks"] if c["name"] == "chern-numbers-integral")
    assert check == {
        "name": "chern-numbers-integral",
        "passed": False,
        "detail": "fractional Chern numbers found",
    }


def test_verify_json_report_is_deterministic(tmp_path):
    path = tmp_path / "d.json"
    dump_document(data_to_document(make_standard_g2([3, 2, 1])), str(path))
    first = run_cli("verify", str(path), "--chern", "--pairing", "--json")
    second = run_cli("verify", str(path), "--chern", "--pairing", "--json")
    assert first.returncode == 0
    assert first.stdout == second.stdout
    report = json.loads(first.stdout)
    assert report["passed"] is True
    assert report["pairing"]["middle_block"] == [[2, 1], [1, 1]]
    assert all(c["passed"] for c in report["validation"]["checks"])


def test_classify_standard_profile(tmp_path):
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(2, (-2, -1, 1, 2))), str(path))
    result = run_cli("classify", str(path))
    assert result.returncode == 0
    assert "1 candidate(s)" in result.stdout
    assert "unique standard data: yes" in result.stdout
    assert "symmetric about the middle pair: yes" in result.stdout


def test_classify_empty_profile(tmp_path):
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(2, (-2, -1, 0, 3))), str(path))
    result = run_cli("classify", str(path))
    assert result.returncode == 0
    assert "0 candidate(s)" in result.stdout
    assert "unique standard data: no" in result.stdout
    assert "symmetric about the middle pair: no" in result.stdout


@pytest.mark.parametrize("bound", ["2", "0", "-3", "1_0", "abc"])
def test_classify_refuses_every_bound(bound):
    # a bound below the spread cuts the search short: at 2 or 3 the tied
    # profile would show one candidate, "unique standard data: yes", where
    # the full search finds two
    result = run_cli("classify", str(GOLDEN / "profile-tie2.json"), "--bound", bound)
    _assert_usage_error(result)
    assert result.stderr.startswith("error: unrecognized arguments: --bound")


def test_classify_json_bound_is_the_spread():
    # profile4.json holds the moment values -3..3
    result = run_cli("classify", str(GOLDEN / "profile4.json"), "--json")
    assert json.loads(result.stdout)["bound"] == 6


def test_classify_rejects_data_file(tmp_path):
    path = tmp_path / "d.json"
    dump_document(data_to_document(make_standard_g2([2, 1])), str(path))
    assert run_cli("classify", str(path)).returncode == 2


def test_classify_refuses_an_oversized_search(tmp_path):
    path = tmp_path / "p.json"
    data = make_standard_g2([7, 6, 5, 4, 3, 2, 1])
    dump_document(profile_to_document(MomentProfile(data.n, data.phis)), str(path))
    result = run_cli("classify", str(path))
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: the search would build 3696000 assignments")


@pytest.mark.parametrize("n", [20, 24])
def test_classify_refuses_a_factorization_search_past_the_cap(tmp_path, n):
    # without a cap on one factorization search, the minimal profile at
    # n = 20 builds every point's options, for half a minute and about
    # 500 MB, before its join is counted and refused
    path = tmp_path / "p.json"
    data = make_standard_g2(range(n // 2 + 1, 0, -1))
    dump_document(profile_to_document(MomentProfile(data.n, data.phis)), str(path))
    start = perf_counter()
    result = run_cli("classify", str(path))
    elapsed = perf_counter() - start
    assert result.returncode == 2
    assert result.stdout == ""
    assert result.stderr.startswith("error: the factorization of ")
    assert f"limit of {MAX_FACTORIZATION_NODES} nodes" in result.stderr
    assert elapsed < 5


def test_classify_refuses_a_dimension_past_the_cap(tmp_path):
    # the minimal profile at n = 66, moment values -34..-1, 1..34; without
    # the cap on n, the one at n = 1600 overflowed the factorization search's
    # recursion and exited 1 with a traceback
    n = MAX_CLASSIFY_N + 2
    k = n // 2 + 1
    phi = tuple(v for v in range(-k, k + 1) if v)
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(n, phi)), str(path))
    start = perf_counter()
    result = run_cli("classify", str(path))
    elapsed = perf_counter() - start
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: the search for n = {n} ")
    assert lines[0].endswith(f"limit of {MAX_CLASSIFY_N}")
    assert elapsed < 5


def test_classify_refuses_a_trial_division_scan_past_the_cap(tmp_path):
    # G is the product of two primes near 10^9, so factoring it would try
    # every odd divisor up to about 10^9; G + 1 factors within the limit.
    # (0, 1, 2, G) is not symmetric about its middle pair, so it gets no
    # candidate before any gap is factored
    G = (10**9 + 7) * (10**9 + 9)
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(2, (0, 1, G, G + 1))), str(path))
    start = perf_counter()
    result = run_cli("classify", str(path))
    elapsed = perf_counter() - start
    assert result.returncode == 2
    assert result.stdout == ""
    lines = result.stderr.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: factoring the moment gap {G} ")
    assert f"limit of {MAX_TRIAL_DIVISOR}" in lines[0]
    assert elapsed < 5
    dump_document(profile_to_document(MomentProfile(2, (0, 1, 2, G))), str(path))
    result = run_cli("classify", str(path))
    assert result.returncode == 0
    assert result.stderr == ""
    assert "0 candidate(s)" in result.stdout.splitlines()


def test_classify_scans_a_spread_of_two_billion(tmp_path):
    path = tmp_path / "p.json"
    data = make_standard_g2([10**9, 1])
    dump_document(profile_to_document(MomentProfile(data.n, data.phis)), str(path))
    result = run_cli("classify", str(path), "--json")
    assert result.returncode == 0
    report = json.loads(result.stdout)
    assert report["candidates"] == [data_to_document(data)]
    assert report["unique_standard"] is True


@pytest.mark.parametrize("exponent", [10**13, 10**15, 10**18])
def test_classify_factors_gaps_past_the_square_of_the_divisor_limit(
    tmp_path, exponent
):
    # the wide gaps of (10^15, 1) and (10^18, 1) pass MAX_TRIAL_DIVISOR^2,
    # but each is left with 1 or a prime below the square of the divisor
    # being tried before the limit is reached, so each factors
    path = tmp_path / "p.json"
    data = make_standard_g2([exponent, 1])
    dump_document(profile_to_document(MomentProfile(data.n, data.phis)), str(path))
    result = run_cli("classify", str(path))
    assert result.returncode == 0
    assert "unique standard data: yes" in result.stdout.splitlines()


def count_expansions(monkeypatch) -> list[tuple[int, ...]]:
    """Record the values of every elementary_symmetric call made through any
    hamfp module that binds the function."""
    calls: list[tuple[int, ...]] = []

    def counted(values):
        calls.append(tuple(values))
        return elementary_symmetric(values)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hamfp" and (
            getattr(module, "elementary_symmetric", None) is elementary_symmetric
        ):
            monkeypatch.setattr(module, "elementary_symmetric", counted)
    return calls


VERIFY_FLAGS = ["--basis", "--chern", "--pairing"]
FLAG_SETS = pytest.mark.parametrize(
    "flags",
    [list(c) for k in range(4) for c in combinations(VERIFY_FLAGS, k)],
    ids=lambda flags: "+".join(f[2:] for f in flags) or "bare",
)
# multisets of weights up to negation: on std16 each of the 9 antipodal
# pairs is one, frac6 and tampered4 keep 3 pairs and break the others
EXPANSIONS = {"std16": 9, "frac6": 5, "tampered4": 3}


@FLAG_SETS
@pytest.mark.parametrize("name", ["std16", "frac6", "tampered4"])
def test_verify_expands_each_point_at_most_once(monkeypatch, capsys, name, flags):
    # one expansion per multiset of weights up to negation serves the Chern
    # classes and the Chern numbers alike; powers of u need only the weight
    # products
    path = GOLDEN / f"{name}.json"
    data = data_from_document(load_document(str(path)))
    calls = count_expansions(monkeypatch)
    main(["verify", str(path), *flags, "--json"])
    capsys.readouterr()
    if "--chern" in flags:
        assert len(calls) == EXPANSIONS[name]
        assert {up_to_negation(c) for c in calls} == {
            up_to_negation(p.weights) for p in data.points
        }
    else:
        assert calls == []


def test_verify_expands_shuffled_antipodes_once(monkeypatch, capsys, tmp_path):
    # std16 lists an antipode's weights as the negated weights reversed;
    # shuffled, the antipodes still share one expansion, and the report
    # reads the same Chern data
    data = data_from_document(load_document(str(GOLDEN / "std16.json")))
    rng = random.Random(16)
    shuffled = FixedPointData(
        data.n,
        tuple(
            FixedPoint(p.phi, tuple(rng.sample(p.weights, data.n)))
            for p in data.points
        ),
    )
    negated = {tuple(-w for w in p.weights) for p in shuffled.points}
    assert not negated & {p.weights for p in shuffled.points}
    path = tmp_path / "shuffled16.json"
    dump_document(data_to_document(shuffled), str(path))
    flags = ["--basis", "--chern", "--pairing", "--json"]
    calls = count_expansions(monkeypatch)
    assert main(["verify", str(path), *flags]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == EXPANSIONS["std16"]
    main(["verify", str(GOLDEN / "std16.json"), *flags])
    assert report["chern"] == json.loads(capsys.readouterr().out)["chern"]


@FLAG_SETS
def test_verify_computes_point_invariants_once(monkeypatch, capsys, flags):
    # the basis reads the invariants that the report prints
    calls = []

    def counted(data, i):
        calls.append(i)
        return point_invariants(data, i)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "hamfp" and (
            getattr(module, "point_invariants", None) is point_invariants
        ):
            monkeypatch.setattr(module, "point_invariants", counted)
    main(["verify", str(GOLDEN / "std16.json"), *flags])
    capsys.readouterr()
    assert calls == list(range(18))


def test_classify_json_report(tmp_path):
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(2, (-2, -1, 1, 2))), str(path))
    result = run_cli("classify", str(path), "--json")
    report = json.loads(result.stdout)
    assert report["candidate_count"] == 1
    assert report["unique_standard"] is True
    assert report["candidates"][0] == data_to_document(make_standard_g2([2, 1]))


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "profile-std8-13579.json", "--json"],
        ["classify", "profile-sweep8.json", "--json"],
        ["verify", "std16.json", "--basis", "--chern", "--pairing", "--json"],
    ],
    ids=["classify-std8-13579", "classify-sweep8", "verify-std16"],
)
def test_reports_do_not_depend_on_the_hash_seed(argv):
    # the classifier's join meets keys in sets of ints, and the report must
    # not follow their iteration order
    command, name, *flags = argv
    outputs = []
    for seed in ("0", "1"):
        result = run_cli(command, str(GOLDEN / name), *flags, PYTHONHASHSEED=seed)
        assert result.returncode == 0, result.stderr
        outputs.append(result.stdout)
    assert outputs[0] == outputs[1]


def test_usage_error_exit_code(capsys):
    # argparse's errors leave through main like any other DataError
    _assert_usage_error(run_cli("verify"))
    _assert_usage_error(run_cli())
    assert main(["verify"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: the following arguments are required: path\n"


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=["top", "sub"])
def test_help_exits_0(argv):
    result = run_cli(*argv)
    assert (result.returncode, result.stderr) == (0, "")
    assert result.stdout.startswith("usage: hamfp")


@pytest.mark.parametrize(
    "argv, code",
    [
        (["generate", "--b", "3,2,1"], 0),
        (["verify", str(GOLDEN / "tampered4.json")], 1),
        (["verify", str(GOLDEN / "std4.json"), "--json"], 0),
    ],
    ids=["generate", "verify-fail", "verify-json"],
)
def test_a_closed_pipe_keeps_the_exit_code_and_stays_quiet(argv, code):
    # stdout is a pipe whose reader is gone, as after `| head -c 1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        result = subprocess.run(
            [sys.executable, "-m", "hamfp", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
    finally:
        os.close(write_end)
    assert (result.returncode, result.stderr) == (code, "")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
@pytest.mark.parametrize(
    "argv",
    [["generate", "--b", "3,2,1"], ["verify", str(GOLDEN / "tampered4.json")]],
    ids=["generate", "verify-fail"],
)
def test_a_report_that_cannot_be_written_exits_2(argv):
    # every write to /dev/full fails with "No space left on device"
    with open("/dev/full", "w") as full:
        result = subprocess.run(
            [sys.executable, "-m", "hamfp", *argv],
            stdout=full,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": PACKAGE_ROOT},
        )
    lines = result.stderr.splitlines()
    assert result.returncode == 2
    assert len(lines) == 1 and lines[0].startswith("error: cannot write"), lines
