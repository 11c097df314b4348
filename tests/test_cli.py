from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from soslift import cli
from soslift.cli import main
from soslift.farey import totient_sum
from soslift.lifting import lift_to
from soslift.perm_core import PermClass, Permutation

V4_LINES = ["1234", "2341", "2413", "3142", "3214", "4321"]


def test_enumerate_v4_oneline(capsys: pytest.CaptureFixture) -> None:
    assert main(["enumerate", "--set", "V", "--m", "4"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == V4_LINES


def test_enumerate_json_lines(capsys: pytest.CaptureFixture) -> None:
    assert main(["enumerate", "--set", "V", "--m", "4", "--format", "json"]) == 0
    docs = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert [doc["m"] for doc in docs] == [4] * 6
    assert ["".join(map(str, doc["values"])) for doc in docs] == V4_LINES


def test_enumerate_methods_agree(capsys: pytest.CaptureFixture) -> None:
    outputs = []
    for method in ("brute", "lift", "farey"):
        assert main(["enumerate", "--set", "V", "--m", "6", "--method", method]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def test_enumerate_rejects_unknown_set() -> None:
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--set", "Q", "--m", "4"])
    assert exc.value.code == 2


def test_enumerate_guard_failure_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["enumerate", "--set", "V", "--m", "11"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")


def test_lift_from_m(capsys: pytest.CaptureFixture) -> None:
    assert main(["lift", "--from-m", "3"]) == 0
    assert capsys.readouterr().out.splitlines() == V4_LINES


def test_lift_to_m(capsys: pytest.CaptureFixture) -> None:
    assert main(["lift", "--to-m", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == V4_LINES


def test_lift_from_file(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    src = tmp_path / "v3.jsonl"
    rows = [
        {"m": 3, "values": [1, 2, 3]},
        {"m": 3, "values": [2, 3, 1]},
        {"m": 3, "values": [2, 1, 3]},
        {"m": 3, "values": [3, 2, 1]},
    ]
    src.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    assert main(["lift", "--from-m", "3", "--input", str(src)]) == 0
    assert capsys.readouterr().out.splitlines() == V4_LINES


def test_lift_from_file_rejects_non_members(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    src = tmp_path / "bad.jsonl"
    src.write_text(json.dumps({"m": 4, "values": [1, 3, 2, 4]}) + "\n", encoding="utf-8")
    assert main(["lift", "--from-m", "4", "--input", str(src)]) == 2
    assert "not the class V" in capsys.readouterr().err


def test_lift_from_m_matches_to_m(capsys: pytest.CaptureFixture) -> None:
    assert main(["lift", "--from-m", "7"]) == 0
    from_m = capsys.readouterr().out
    assert main(["lift", "--to-m", "8"]) == 0
    assert capsys.readouterr().out == from_m
    assert len(from_m.splitlines()) == totient_sum(8)


def test_lift_rejects_nonpositive_degrees(capsys: pytest.CaptureFixture) -> None:
    for argv in (["--from-m", "0"], ["--from-m", "-3"], ["--to-m", "0"]):
        assert main(["lift", *argv]) == 2
        assert capsys.readouterr().err.startswith("error:")


def test_lift_input_missing_file_is_usage_error(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    missing = tmp_path / "absent.jsonl"
    assert main(["lift", "--from-m", "3", "--input", str(missing)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(missing) in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize(
    "line",
    ['{"m": 3}', "[1, 2, 3]", '"123"', "not json", b"\xff\xfe\n",
     '{"values": [1.9, 2.2, 3.0]}', '{"values": [true, 2, 3]}', '{"values": ["2", "1", "3"]}',
     '{"values": "123"}', '{"m": 3, "values": [1, 1, 2]}', '{"m": 4, "values": [1, 2, 3]}',
     '{"m": 4, "values": [1, 2, 3, 4]}'],
)
def test_lift_input_malformed_line_is_usage_error(
    tmp_path: Path, capsys: pytest.CaptureFixture, line: str | bytes
) -> None:
    src = tmp_path / "bad.jsonl"
    if isinstance(line, bytes):
        src.write_bytes(line)
    else:
        src.write_text(line + "\n", encoding="utf-8")
    assert main(["lift", "--from-m", "3", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {src}")
    assert len(err.splitlines()) == 1


def test_lift_input_with_to_m_is_usage_error(tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    src = tmp_path / "v3.jsonl"
    src.write_text(json.dumps({"m": 3, "values": [1, 2, 3]}) + "\n", encoding="utf-8")
    assert main(["lift", "--to-m", "4", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--from-m" in captured.err
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("m", [1, 9, 10, 40])
def test_class_output_matches_permutation_text(capsys: pytest.CaptureFixture, m: int) -> None:
    members = sorted(Permutation(row) for row in lift_to(m).as_array().tolist())
    for p in members:
        assert p.one_line() == ("" if m <= 9 else " ").join(map(str, p.values))
    expected = {
        "oneline": "".join(p.one_line() + "\n" for p in members),
        "json": "".join(json.dumps(p.to_json()) + "\n" for p in members),
    }
    for fmt, text in expected.items():
        for argv in (["lift", "--to-m", str(m)],
                     ["enumerate", "--set", "V", "--m", str(m), "--method", "lift"]):
            assert main([*argv, "--format", fmt]) == 0
            assert capsys.readouterr().out == text


@pytest.mark.parametrize("bad_row", [[3, 3, 1], [2, 3, 4]])
@pytest.mark.parametrize("fmt", ["oneline", "json"])
def test_class_output_rejects_a_non_permutation_row(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, bad_row: list[int], fmt: str
) -> None:
    rows = np.array([[1, 2, 3], [2, 3, 1], bad_row], dtype=np.uint8)
    monkeypatch.setattr(cli, "lift_to", lambda M, force=False: PermClass.from_array("V", 3, rows))
    assert main(["lift", "--to-m", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not a permutation of 1..3" in captured.err
    with pytest.raises(ValueError, match="not a permutation"):
        PermClass.from_array("V", 3, rows).members


def test_enumerate_lift_refusal_names_the_flag(capsys: pytest.CaptureFixture) -> None:
    assert main(["enumerate", "--set", "V", "--m", "501", "--method", "lift"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "lift --force" in err


def test_lift_force_gate(capsys: pytest.CaptureFixture) -> None:
    assert main(["lift", "--to-m", "501"]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["lift", "--to-m", "2001", "--force"]) == 2
    assert "not supported" in capsys.readouterr().err


def test_project(capsys: pytest.CaptureFixture) -> None:
    assert main(["project", "--perm", "35241"]) == 0
    assert capsys.readouterr().out.strip() == "2413"


def test_project_malformed_token(capsys: pytest.CaptureFixture) -> None:
    assert main(["project", "--perm", "35x41"]) == 2
    assert "invalid permutation token" in capsys.readouterr().err


def test_tau(capsys: pytest.CaptureFixture) -> None:
    assert main(["tau", "--m", "5", "--alpha", "2/5"]) == 0
    assert capsys.readouterr().out.strip() == "35241"


def test_tau_coarse_alpha(capsys: pytest.CaptureFixture) -> None:
    assert main(["tau", "--m", "4", "--alpha", "1/3"]) == 2
    assert "alpha too coarse" in capsys.readouterr().err


def test_farey_text(capsys: pytest.CaptureFixture) -> None:
    assert main(["farey", "--m", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "0/1 1/3 1/2 2/3 1/1"
    assert lines[1:] == ["(0/1, 1/3)", "(1/3, 1/2)", "(1/2, 2/3)", "(2/3, 1/1)"]


def test_farey_json(capsys: pytest.CaptureFixture) -> None:
    assert main(["farey", "--m", "3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 3
    assert len(doc["terms"]) == 5
    assert [iv["index"] for iv in doc["intervals"]] == [1, 2, 3, 4]


def test_tree_json_levels(capsys: pytest.CaptureFixture) -> None:
    assert main(["tree", "--depth", "6", "--kind", "gen", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)

    frontier = [doc]
    rows = []
    while frontier:
        rows.append([n["label"] for n in frontier])
        frontier = [kid for n in frontier for kid in n["children"]]
    assert rows[5] == [
        "123456", "234561", "245613", "246135", "351462", "362514",
        "415263", "426315", "531642", "532164", "543216", "654321",
    ]


def test_tree_dot_is_deterministic(capsys: pytest.CaptureFixture) -> None:
    assert main(["tree", "--depth", "5", "--kind", "both"]) == 0
    first = capsys.readouterr().out
    assert main(["tree", "--depth", "5", "--kind", "both"]) == 0
    assert capsys.readouterr().out == first
    assert first.count("digraph") == 2


def test_verify_text_passes(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--m-max", "4", "--samples", "20"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out


def test_verify_json_passes(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--m-max", "4", "--samples", "20", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["passed"] is True
    assert all(check["passed"] for check in doc["checks"])


def test_verify_negative_samples_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--m-max", "3", "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "samples" in captured.err


def test_closed_stdout_exits_1_without_traceback() -> None:
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen([sys.executable, "-m", "soslift.cli", "lift", "--to-m", "60"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    # V_60 prints about 190 kB, more than a pipe holds, so the writer is
    # still running when the reader goes away
    assert proc.stdout.readline().split()[0] == b"1"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err


def test_verify_is_deterministic(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--m-max", "3", "--samples", "10", "--seed", "5"]) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--m-max", "3", "--samples", "10", "--seed", "5"]) == 0
    assert capsys.readouterr().out == first


def test_verify_tree(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify-tree", "--depth", "5"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "FAIL" not in out
    for depth, message in (("0", "depth must be positive"), ("2001", "beyond degree 2000")):
        assert main(["verify-tree", "--depth", depth]) == 2
        assert message in capsys.readouterr().err


def test_sosrec_report(capsys: pytest.CaptureFixture) -> None:
    assert main(["sosrec", "--m", "4", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 4
    assert doc["recurrence_count"] == 6
    assert doc["sos_count"] == 6
    assert doc["recurrence_contains_sos"] is True
    assert doc["recurrence_only"] == []


def test_missing_subcommand_is_usage_error() -> None:
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2
