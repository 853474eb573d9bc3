import json

import pytest

from hamfp import make_standard_g2
from hamfp.dataio import data_to_document, dump_document, profile_to_document
from hamfp.solver import MomentProfile
from conftest import run_cli


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


def test_verify_standard_data(tmp_path):
    path = tmp_path / "d.json"
    dump_document(data_to_document(make_standard_g2([2, 1])), str(path))
    result = run_cli("verify", str(path), "--chern", "--basis", "--pairing")
    assert result.returncode == 0
    assert "[PASS] localization-of-one" in result.stdout
    assert "[PASS] euler-characteristic" in result.stdout
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
    result = run_cli("classify", str(path), "--bound", "4")
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


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_classify_rejects_bound_below_one(tmp_path, bound):
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(2, (-2, -1, 1, 2))), str(path))
    result = run_cli("classify", str(path), f"--bound={bound}")
    assert result.returncode == 2
    assert result.stdout == ""
    assert f"--bound must be at least 1, got {bound}" in result.stderr


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


def test_classify_json_report(tmp_path):
    path = tmp_path / "p.json"
    dump_document(profile_to_document(MomentProfile(2, (-2, -1, 1, 2))), str(path))
    result = run_cli("classify", str(path), "--json")
    report = json.loads(result.stdout)
    assert report["candidate_count"] == 1
    assert report["unique_standard"] is True
    assert report["candidates"][0] == data_to_document(make_standard_g2([2, 1]))


def test_usage_error_exit_code():
    assert run_cli("verify").returncode == 2
    assert run_cli().returncode == 2
