from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from soslift import cli, farey, lifting, perm_core, perm_sets, sos, trees
from soslift.cli import main
from soslift.farey import totient_sum
from soslift.lifting import lift_level
from soslift.perm_core import PermClass, Permutation, inverse

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


BIG = "99999999999999999999"


@pytest.mark.parametrize("argv, message", [
    (["verify", "--m-max", BIG], f"m_max {BIG} exceeds the supported ceiling 10000"),
    (["enumerate", "--set", "V", "--m", "20000"], "degree 20000 exceeds the supported ceiling 10000"),
])
def test_raised_brute_cap_stops_at_the_degree_ceiling(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
        argv: list[str], message: str) -> None:
    # no value of the variable admits brute force past MAX_DEGREE: the call is
    # refused before any work, so it allocates next to nothing
    monkeypatch.setenv(perm_sets.ENV_MAX_BRUTE_M, BIG)
    tracemalloc.start()
    try:
        status = main(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    captured = capsys.readouterr()
    assert status == 2
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert peak < 1 << 20, peak


@pytest.mark.parametrize("argv", [["verify", "--m-max", "3"], ["enumerate", "--set", "V", "--m", "3"],
                                  ["sosrec", "--m", "3"]])
@pytest.mark.parametrize("value, message", [
    ("0", "SOSLIFT_MAX_BRUTE_M must be positive, got 0"),
    ("-5", "SOSLIFT_MAX_BRUTE_M must be positive, got -5"),
    ("abc", "SOSLIFT_MAX_BRUTE_M must be an integer, got 'abc'"),
])
def test_brute_cap_must_be_a_positive_integer(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
        argv: list[str], value: str, message: str) -> None:
    monkeypatch.setenv(perm_sets.ENV_MAX_BRUTE_M, value)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


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
     '{"m": 4, "values": [1, 2, 3, 4]}', '{"values": [1, 2, 4]}',
     '{"values": [2, 1, 18446744073709551617]}', '{"values": [1, 2, 3]}\n{"values": [2, 1]}'],
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


def test_lift_input_nested_past_the_decoder_depth_is_usage_error(
        tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    src = tmp_path / "nested.jsonl"
    src.write_text("[" * 200_000 + "\n", encoding="utf-8")
    assert main(["lift", "--from-m", "3", "--input", str(src)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read {src}: RecursionError")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("text", ["", "\n  \n"])
def test_lift_input_without_rows_is_usage_error(
        tmp_path: Path, capsys: pytest.CaptureFixture, text: str) -> None:
    src = tmp_path / "empty.jsonl"
    src.write_text(text, encoding="utf-8")
    assert main(["lift", "--from-m", "3", "--input", str(src)]) == 2
    assert capsys.readouterr().err == f"error: no permutations read from {src}\n"


def test_lift_input_round_trip_equals_the_next_degree(
        tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    # the paper's closing procedure from data alone: V_60 as JSON lines, lifted once
    src = tmp_path / "v60.jsonl"
    assert main(["lift", "--to-m", "60", "--format", "json"]) == 0
    src.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["lift", "--from-m", "60", "--input", str(src)]) == 0
    lifted = capsys.readouterr().out
    assert main(["lift", "--to-m", "61"]) == 0
    assert lifted == capsys.readouterr().out
    assert len(lifted.splitlines()) == totient_sum(61)


def test_lift_input_is_checked_once_and_only_the_output_is_sorted(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    src = tmp_path / "v60.jsonl"
    assert main(["lift", "--to-m", "60", "--format", "json"]) == 0
    src.write_text(capsys.readouterr().out, encoding="utf-8")
    misses, items = [], []

    def recording(calls, original):
        return lambda rows: calls.append(rows.shape[1]) or original(rows)

    for module in (lifting, perm_core):
        monkeypatch.setattr(module, "_misses_a_value", recording(misses, perm_core._misses_a_value))
    monkeypatch.setattr(perm_core, "_row_items", recording(items, perm_core._row_items))
    assert main(["lift", "--from-m", "60", "--input", str(src)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == totient_sum(61)
    # the input is checked once, by Level.from_rows; the output class checks its own rows
    assert misses == [60, 61]
    assert items == [61]


def test_lift_input_is_checked_block_by_block_and_names_a_row_by_its_index_in_the_file(
        monkeypatch: pytest.MonkeyPatch, tmp_path: Path, capsys: pytest.CaptureFixture) -> None:
    assert main(["lift", "--to-m", "4", "--format", "json"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert main(["lift", "--to-m", "5"]) == 0
    v5 = capsys.readouterr().out
    blocks = []
    from_rows = lifting.Level.from_rows
    monkeypatch.setattr(lifting.Level, "from_rows",
                        lambda rows, start=0: blocks.append((start, len(rows))) or from_rows(rows, start))
    monkeypatch.setattr(lifting, "BLOCK_BYTES", 4 * 8 * 4)  # four rows of V_4 as int64
    src = tmp_path / "v4.jsonl"
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["lift", "--from-m", "4", "--input", str(src)]) == 0
    assert capsys.readouterr().out == v5
    assert blocks == [(0, 4), (4, 2)]
    # a row outside V past the first block is named by its index in the file
    lines[5] = json.dumps({"m": 4, "values": [1, 3, 2, 4]})
    src.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["lift", "--from-m", "4", "--input", str(src)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: cannot read {src}: ValueError: row 5 (1 3 2 4) is not a "
                            "permutation that satisfies the V congruence; input is not the class V\n")


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
    members = sorted(Permutation(row) for row in lift_level(m).rows().tolist())
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


# (theta(1), theta(3)) pairs that the V congruence decodes to 3 2 2 and 1 1 1
@pytest.mark.parametrize("bad_row", [[3, 3], [1, 1]])
@pytest.mark.parametrize("fmt", ["oneline", "json"])
def test_class_output_rejects_a_non_permutation_row(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, bad_row: list[int], fmt: str
) -> None:
    level = lifting.Level(3, np.array([1, 2, bad_row[0]], dtype=np.uint8),
                          np.array([3, 1, bad_row[1]], dtype=np.uint8))
    monkeypatch.setattr(cli, "lift_level", lambda M, force=False: level)
    assert main(["lift", "--to-m", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "not a permutation of 1..3" in captured.err
    with pytest.raises(ValueError, match="not a permutation"):
        PermClass("V", 3, level.rows()).members


@pytest.mark.parametrize("fmt", ["oneline", "json"])
def test_lift_output_stops_before_the_block_with_a_bad_row(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, fmt: str) -> None:
    # the rows 123, 231, 312, 321 and 322, one theta(1) group per block: the
    # last block fails its check after the first two are written
    level = lifting.Level(3, np.array([1, 2, 3, 3, 3], dtype=np.uint8),
                          np.array([3, 1, 2, 1, 3], dtype=np.uint8))
    monkeypatch.setattr(cli, "lift_level", lambda M, force=False: level)
    monkeypatch.setattr(lifting, "BLOCK_BYTES", 1)
    assert main(["lift", "--to-m", "3", "--format", fmt]) == 2
    captured = capsys.readouterr()
    assert captured.out == perm_core.format_rows(np.array([[1, 2, 3], [2, 3, 1]]), 3, fmt)
    assert captured.err == "error: not a permutation of 1..3 in V: (3, 2, 2)\n"
    assert "Traceback" not in captured.err


def test_enumerate_lift_refusal_names_the_flag(capsys: pytest.CaptureFixture) -> None:
    assert main(["enumerate", "--set", "V", "--m", "501", "--method", "lift"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "lift --force" in err


@pytest.mark.parametrize("method", ["lift", "farey"])
@pytest.mark.parametrize("argv, message", [
    (["--m", "0"], "degree must be positive"),
    (["--m", "501"], "needs force=True (soslift lift --force, soslift enumerate --force)"),
    # the ids name the case, as they did before the refusal took its present text
    pytest.param(["--m", "2001"], "target degree 2001 exceeds the supported ceiling 2000",
                 id="argv2-beyond degree 2000"),
    pytest.param(["--m", "2001", "--force"], "target degree 2001 exceeds the supported ceiling 2000",
                 id="argv3-beyond degree 2000"),
])
def test_enumerate_degree_refusals_build_nothing(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
        method: str, argv: list[str], message: str) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(lifting, "iter_levels", refuse)
    monkeypatch.setattr(perm_sets, "suranyi_table", refuse)
    assert main(["enumerate", "--set", "V", *argv, "--method", method]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and message in captured.err
    assert "Traceback" not in captured.err


@pytest.mark.parametrize("method", ["lift", "farey"])
def test_enumerate_force_admits_degree_501(monkeypatch: pytest.MonkeyPatch,
                                           capsys: pytest.CaptureFixture, method: str) -> None:
    identity = np.arange(1, 502, dtype=np.uint16)[None, :]  # a member of V_501
    built = []

    def lift_level(M, force=False):
        built.append((M, force))
        return lifting.Level(M, identity[:, 0], identity[:, -1])

    def suranyi_table(m):
        built.append((m, None))
        return type("Table", (), {"as_array": lambda self: identity})()

    monkeypatch.setattr(lifting, "lift_level", lift_level)
    monkeypatch.setattr(perm_sets, "suranyi_table", suranyi_table)
    assert main(["enumerate", "--set", "V", "--m", "501", "--method", method, "--force"]) == 0
    assert capsys.readouterr().out == " ".join(map(str, range(1, 502))) + "\n"
    assert built == [(501, True if method == "lift" else None)]


def test_lift_force_gate(capsys: pytest.CaptureFixture) -> None:
    assert main(["lift", "--to-m", "501"]) == 2
    assert "--force" in capsys.readouterr().err
    assert main(["lift", "--to-m", "2001", "--force"]) == 2
    assert capsys.readouterr().err == "error: target degree 2001 exceeds the supported ceiling 2000\n"


def test_project(capsys: pytest.CaptureFixture) -> None:
    assert main(["project", "--perm", "35241"]) == 0
    assert capsys.readouterr().out.strip() == "2413"


def test_project_malformed_token(capsys: pytest.CaptureFixture) -> None:
    assert main(["project", "--perm", "35x41"]) == 2
    assert "invalid permutation token" in capsys.readouterr().err


@pytest.mark.parametrize("perm", ["\u00b2", "1 " + "9" * 5000], ids=["superscript", "past-int-digit-limit"])
def test_project_token_that_looks_like_digits_is_usage_error(capsys: pytest.CaptureFixture,
                                                             perm: str) -> None:
    assert main(["project", "--perm", perm]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: invalid permutation token")
    assert len(err.splitlines()) == 1


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


def test_farey_output_builds_the_sequence_once(monkeypatch: pytest.MonkeyPatch,
                                               capsys: pytest.CaptureFixture) -> None:
    """farey prints, from one build of the sequence, the bytes that a build for
    the terms and another for the intervals printed, and as JSON the bytes of
    json.dumps(indent=2).  Order 120 has 4387 terms, so its JSON is written in
    two pieces of each list."""
    builds = []
    farey_terms = farey.farey_terms
    monkeypatch.setattr(farey, "farey_terms", lambda m: builds.append(m) or farey_terms(m))
    for m in [*range(1, 31), 120]:
        terms, intervals = farey.farey_sequence(m), farey.farey_intervals(m)
        text = " ".join(map(farey.format_fraction, terms)) + "\n" + "".join(f"{iv}\n" for iv in intervals)
        doc = {
            "m": m,
            "terms": [{"num": t.numerator, "den": t.denominator} for t in terms],
            "intervals": [{"lo": {"num": iv.lo.numerator, "den": iv.lo.denominator},
                           "hi": {"num": iv.hi.numerator, "den": iv.hi.denominator},
                           "index": iv.index} for iv in intervals],
        }
        builds.clear()
        assert main(["farey", "--m", str(m)]) == 0
        assert capsys.readouterr().out == text
        assert main(["farey", "--m", str(m), "--format", "json"]) == 0
        assert capsys.readouterr().out == json.dumps(doc, indent=2) + "\n"
        assert builds == [m, m]


def test_commands_build_no_fraction_list_of_the_farey_sequence(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture) -> None:
    """farey, verify and the interval tree read farey_terms' arrays, so none of
    them calls farey_intervals, farey_sequence or mediant; verify's report is
    the one printed when its mediants came from farey_intervals."""
    def refuse(*args):
        raise AssertionError("a Fraction list of the Farey sequence was built")
    for module in (farey, sos, trees, cli):
        for name in ("farey_intervals", "farey_sequence", "mediant"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for argv in (["farey", "--m", "30"], ["farey", "--m", "30", "--format", "json"],
                 ["tree", "--depth", "8", "--kind", "farey"]):
        assert main(argv) == 0
    capsys.readouterr()
    assert main(["verify", "--m-max", "6", "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "95fd748f0242b7acbdb17d437a9e4a2b30b7414eed00b1c98daabcaca1f05f1c")


def test_farey_refuses_orders_past_the_ceiling(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture) -> None:
    assert main(["farey", "--m", "0"]) == 2
    assert capsys.readouterr().err == "error: order must be positive, got 0\n"

    def refuse(m):
        raise AssertionError("Farey terms were built")
    monkeypatch.setattr(farey, "farey_terms", refuse)
    for order in ("2001", "99999999999999999999"):
        assert main(["farey", "--m", order]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: order {order} exceeds the supported ceiling 2000\n"


@pytest.mark.parametrize("label", ["VL0", "VL1"])
def test_affine_layers_refuse_degrees_past_the_ceiling(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture, label: str) -> None:
    def refuse(*args):
        raise AssertionError("a row was built")
    monkeypatch.setattr(sos, "supermod_m", refuse)
    for m in ("10001", "99999999999999999999"):
        assert main(["enumerate", "--set", label, "--m", m]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: degree {m} exceeds the supported ceiling 10000\n"


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



def test_tree_farey_with_y_levels_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["tree", "--depth", "3", "--kind", "farey", "--with-y-levels"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--with-y-levels" in captured.err


def test_tree_both_with_y_levels_lifts_the_gen_document_only(capsys: pytest.CaptureFixture) -> None:
    assert main(["tree", "--depth", "3", "--kind", "both", "--format", "json",
                 "--with-y-levels"]) == 0
    doc = json.loads(capsys.readouterr().out)
    # the root 1 lifts to the y row 12, which holds the degree-2 nodes
    assert [kid["label"] for kid in doc["gen"]["children"]] == ["12"]
    assert [kid["label"] for kid in doc["gen"]["children"][0]["children"]] == ["12", "21"]
    assert [kid["label"] for kid in doc["farey"]["children"]] == ["(0/1, 1/2)", "(1/2, 1/1)"]


@pytest.mark.parametrize("kind", ["gen", "farey", "both"])
@pytest.mark.parametrize("depth, message", [
    ("0", "depth must be positive"),
    pytest.param("2001", "depth 2001 exceeds the supported ceiling 2000", id="2001-beyond degree 2000")])
def test_tree_depth_outside_1_to_2000_builds_nothing(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture,
        kind: str, depth: str, message: str) -> None:
    def refuse(*args, **kwargs):
        raise AssertionError("a tree was built")

    monkeypatch.setattr(trees, "iter_levels", refuse)
    monkeypatch.setattr(trees, "farey_terms", refuse)
    assert main(["tree", "--depth", depth, "--kind", kind]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err

# SHA-256 of `tree` stdout, recorded before the tree export moved onto
# arrays (depth 40: before the JSON writer replaced json.dumps); depths 10
# and above print space-separated labels
TREE_STDOUT_SHA256 = [
    (1, "gen", "dot", False, "26dd728e2314476c00aa9bc8c7895b95a1e85707dd623b2ee2025e629bb9d1b7"),
    (1, "gen", "dot", True, "26dd728e2314476c00aa9bc8c7895b95a1e85707dd623b2ee2025e629bb9d1b7"),
    (1, "gen", "json", False, "136e3c24219e12bf74b3b43f76ff3a769b97737507cfee3b0c9ab080eb8e0dde"),
    (1, "gen", "json", True, "136e3c24219e12bf74b3b43f76ff3a769b97737507cfee3b0c9ab080eb8e0dde"),
    (1, "farey", "dot", False, "9ff7cda36c26593efa936e4e142ae3a9854baf565abb031639f82b8d30f8e056"),
    (1, "farey", "json", False, "c8993966a17e65331253304ad24b4a52b4631de833799fc1b783fe735518d1eb"),
    (1, "both", "dot", False, "1fc8112538e17dc1f96abbd36def802fd718b249cb4fd3f21f4cc4eeed90cba3"),
    (1, "both", "dot", True, "1fc8112538e17dc1f96abbd36def802fd718b249cb4fd3f21f4cc4eeed90cba3"),
    (1, "both", "json", False, "5de0df12d952760fc6e4e88b5963f96dc1127ce73f22826e6b1ec2eb50655271"),
    (1, "both", "json", True, "5de0df12d952760fc6e4e88b5963f96dc1127ce73f22826e6b1ec2eb50655271"),
    (2, "gen", "dot", False, "b0ac80bffcbd653a855229798a5234dce705202e4ea2f69e791508e689c5c1ec"),
    (2, "gen", "dot", True, "917e37a110c79bbefc12dcabc975242f7415d57f4b1d59d7a319bac436e5a673"),
    (2, "gen", "json", False, "fa4801fbf8503de382541d1d68dbf9b16f4d7fa85a68b52e8ad80ce178a08355"),
    (2, "gen", "json", True, "f7e638c02c5e4470021c4a806159116a2c91382e1401caacd70ec0f87f2158de"),
    (2, "farey", "dot", False, "d4a454f5921163bd8b33950844125e31478ffa0b91c23ae2412b70cbb23b652c"),
    (2, "farey", "json", False, "9e7feade2952c918b6083bc51ee90a7ee626e84c6b48b7cf7d0eda615b368281"),
    (2, "both", "dot", False, "b4266cbf643817173193e985aa82db00392223c74c27f978a721ea10e2122fe7"),
    (2, "both", "dot", True, "3e196531b013d0ba1592cd16513011beac02d5e523c2e0ff52ea3688778ddf83"),
    (2, "both", "json", False, "3badc0f16e252949e4d26ae1e6dad66c24519aca686de7e9463b5af48f9d6957"),
    (2, "both", "json", True, "052676495721b97f639e3daf2d007e13bd199deb5376e1537143076883bcb4a7"),
    (9, "gen", "dot", False, "13193deb0ff1bc9b373a8efbb677c8717ad3900f7e527f3efae8e2e1c1229cdc"),
    (9, "gen", "dot", True, "112cfb745fc668eacf23f6ad388aa3040f466942dc4c58ea4b2e1c317156a46e"),
    (9, "gen", "json", False, "7bace22bd42fd957423d35487603c8d93b283265482e83195bbddf61541c6786"),
    (9, "gen", "json", True, "38aa1ae1d51493f0cd28f9b4d6033bfa35e7cccd39515b3574ca48f6bcfd18b6"),
    (9, "farey", "dot", False, "79e180a434f51aacfc49fb42d23997237f2a70ee102f38cfd7eee8be5c385fbd"),
    (9, "farey", "json", False, "1c716ffb0a9078d7e40ff74871e9c78a66797a199183895f3dcd3a380ca54f1b"),
    (9, "both", "dot", False, "28c54c926345a3531d04f0bdc47bdb312df62b3e3d9337ead60d11f3adeb7249"),
    (9, "both", "dot", True, "94d56f6f146e7429f4d9301488fe4df46cc98fde6729e717b95be6d20ccf116d"),
    (9, "both", "json", False, "df5a6b5c32b9b6871202f0c40aeb2ab70b0aadb386c6b528baf3cb9951f32d40"),
    (9, "both", "json", True, "f56a1b1f7283352ca6f6f11a15cbee8e4560d2cbed9072a7813990917b06b602"),
    (10, "gen", "dot", False, "099d78c0a5d42ec4930a14f2ea2d54a27366962d5c57e09e20446731bf9d556c"),
    (10, "gen", "dot", True, "30563ace73bc4ed72701d3ec5fdde11192820008178b4dbc336685966aca686f"),
    (10, "gen", "json", False, "9b8ca07b8b64d42aff74b4c63ad38ef2c009a76ccecbab0e095bf03ef74ef8a6"),
    (10, "gen", "json", True, "b293b31abf706caf20391645dda8dc550e97fbb1a82ae5abb79e4bf496925f4a"),
    (10, "farey", "dot", False, "b4c0bca0a7bb0d3988e5bc3e40b273eb0c1f5b1f80aab7d4ad1adbf346e27160"),
    (10, "farey", "json", False, "d7d836cfb7363c1d2736ba6bd324809e280b7019256ec07d54edd05ce555f024"),
    (10, "both", "dot", False, "2138bd10ea6f7854311635dd4a8dc0af1dc621f73725c56219a1db8891690745"),
    (10, "both", "dot", True, "17c1802d5823e4df018fb34f19b3edc2d239c1b7fee4df6c1e4dfbcf5fae74a7"),
    (10, "both", "json", False, "c1addea7b67ff19f125469b8ce8f1afefa4ae3cf222a2ae82509f5c1a570ce0a"),
    (10, "both", "json", True, "04b3f74ed3b433ed267c6af4443e15f57558e741701cdbb63d3f0130364fedfc"),
    (14, "gen", "dot", False, "3ce3d6b473b3b548f87f54a4e9dc714410fd462b59080d8d10e81050ad2d038d"),
    (14, "gen", "dot", True, "8996b8520cb20e6b2fd948c6618b33a1d0ef996a060e5a1ac6753ed3e9e30f18"),
    (14, "gen", "json", False, "7afdd492c14e0152a2fd7ae620794fcc8faa4fac80c125a5098cdc2a1cbe8199"),
    (14, "gen", "json", True, "04cf2c19afc1b0041901012d03504b0915e6a057e73d43aea3d1291fd3af8222"),
    (14, "farey", "dot", False, "5a1acd47d0a18039b4dde2ee35b4fffbd6fbade6a36e0e71e2750c335c518c73"),
    (14, "farey", "json", False, "9480ff90d4fc1dc170e8c315f5f328cf6166f0dc6df6bad7f37262eac90c5998"),
    (14, "both", "dot", False, "622b59b824851bbc9aff8db5d12fe13a52f11d1778fff7bbf519a65e2cec455a"),
    (14, "both", "dot", True, "9552d5c7708f94b64ee7c41272579ace9f0477c43878adedf31b9e90eaaa94d8"),
    (14, "both", "json", False, "3686f08e77dc347c8e8cc9815eeef4c15b12c1018e42b3d627724ad40b68d101"),
    (14, "both", "json", True, "4ad9a43bc815669316a79537ad24abce785ef1eea23fbf6af1f480ee05ced2b9"),
    (40, "both", "json", False, "07738788002d5affe9956e1404000992b62da1de0b79fa3915c1ff92a8021849"),
    (40, "both", "json", True, "3da27cf550ab422f53a47ee1277664c61decb79a2348d9c243abd90430a7d59c"),
]


@pytest.mark.parametrize("depth, kind, fmt, y_levels, digest", TREE_STDOUT_SHA256)
def test_tree_stdout_is_byte_identical(capsys: pytest.CaptureFixture, depth: int, kind: str,
                                       fmt: str, y_levels: bool, digest: str) -> None:
    argv = ["tree", "--depth", str(depth), "--kind", kind, "--format", fmt]
    assert main(argv + ["--with-y-levels"] * y_levels) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


class _CountingSink(io.TextIOBase):
    """A write-only text stream that hashes what it is given and counts the writes."""

    def __init__(self):
        self.hash, self.writes = hashlib.sha256(), 0

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        self.hash.update(s.encode())
        self.writes += 1
        return len(s)


def _run_on_sink(argv: list[str]) -> tuple[_CountingSink, int]:
    """main(argv) with stdout on a hashing sink: the sink and the traced peak in bytes."""
    sink = _CountingSink()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(sink):
            assert main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sink, peak


@pytest.mark.parametrize("degree", [200, 300])
def test_lift_holds_one_sorted_block(degree: int) -> None:
    # V_200 (uint8) and V_300 (uint16) are one block each, decoded into the
    # buffer that is sorted; with the decoded block and its sorted copy both
    # alive, the traced peak was 2.3 times the block at 200
    sink, peak = _run_on_sink(["lift", "--to-m", str(degree)])
    block = totient_sum(degree) * degree * perm_core._dtype_for(degree).itemsize
    assert sink.writes > 0
    assert peak < 1.5 * block, (peak, block)


_TREE_BUILDERS = {"gen": (trees.build_gen_tree,), "farey": (trees.build_farey_tree,),
                  "both": (trees.build_gen_tree, trees.build_farey_tree)}


@pytest.mark.parametrize("kind, y_levels", [
    ("gen", False), ("gen", True), ("farey", False), ("both", False), ("both", True)])
def test_tree_json_is_export_tree_written_in_pieces(kind: str, y_levels: bool) -> None:
    # about 20000 JSON pieces and 72 DOT levels a tree, so either format is
    # flushed at least twice
    depth = 36
    built = [build(depth) for build in _TREE_BUILDERS[kind]]
    argv = ["tree", "--depth", str(depth), "--kind", kind] + ["--with-y-levels"] * y_levels
    for fmt in ("json", "dot"):
        sink, _ = _run_on_sink(argv + ["--format", fmt])
        whole = trees.export_tree(*built, format=fmt, with_y_levels=y_levels) + "\n"
        assert sink.hash.hexdigest() == hashlib.sha256(whole.encode()).hexdigest(), fmt
        assert sink.writes >= 4, fmt  # two flushes or more, the last piece and the newline


# traced peaks of the printing commands with stdout on a hashing sink (numpy
# 2.4): lift --to-m 200 peaked at 6.7 MiB when its rows were checked and
# printed 1024 at a time, and peaks at 5.3 MiB with blocks of
# perm_core.scratch_rows(m); tree --depth 40 --kind both --format json
# peaked at 23.9 MiB when the document was joined whole, and peaks at
# 4.3 MiB written in pieces; tree --depth 60 --kind gen --with-y-levels
# (DOT) peaked at 28.6 MiB when its lines were joined whole and the lifted
# rows of every level were padded at once, and peaks at 10.4 MiB written and
# padded a level at a time (17.5 MiB with the rows padded at once)
PRINTING_PEAKS = [
    pytest.param(["lift", "--to-m", "200"], 6.25 * 2**20,
                 "648d6e5d4ee62f2f135b0554963811c35a98b28d72cffce9621e0e826ca5fd2d", id="lift-200"),
    pytest.param(["tree", "--depth", "40", "--kind", "both", "--format", "json"], 8 * 2**20,
                 "07738788002d5affe9956e1404000992b62da1de0b79fa3915c1ff92a8021849", id="tree-40"),
    pytest.param(["tree", "--depth", "60", "--kind", "gen", "--with-y-levels"], 14 * 2**20,
                 "ebebe328264e1e3246b83be20fa563f27aec78e67126f620e79be713bf80f3aa", id="tree-60-dot"),
]


@pytest.mark.parametrize("argv, bound, digest", PRINTING_PEAKS)
def test_printing_holds_bounded_scratch(argv: list[str], bound: float, digest: str) -> None:
    sink, peak = _run_on_sink(argv)
    assert sink.hash.hexdigest() == digest
    assert peak < bound, f"traced peak {peak / 2**20:.2f} MiB"


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


# the SHA-256 of verify reports as printed when the random rationals were
# checked one Permutation at a time: no samples, and samples in three blocks
VERIFY_SAMPLES_SHA256 = [
    (["--m-max", "4", "--samples", "0"], "dc3557f52276a2ee3d4d681403cfdf86792599dd8c46eb7001c3f5452d17e7c2"),
    (["--m-max", "5", "--samples", "9000", "--seed", "3"],
     "568e416662683607a3bebe1d8498aab3f945cebe6b380bae6f09e0576536a564"),
]


@pytest.mark.parametrize("args, digest", VERIFY_SAMPLES_SHA256)
def test_verify_samples_report_is_unchanged(capsys: pytest.CaptureFixture, args: list[str],
                                            digest: str) -> None:
    assert main(["verify", *args, "--format", "json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
    samples = f"{args[3]} samples"
    assert sum(check["detail"] == samples for check in json.loads(out)["checks"]) == 2 * (int(args[1]) - 1)


def test_verify_exits_1_on_one_wrong_closed_form_entry(monkeypatch: pytest.MonkeyPatch,
                                                      capsys: pytest.CaptureFixture) -> None:
    closed_form = sos._closed_form_taus

    def perturbed(m, p, q):
        rows = closed_form(m, p, q)
        rows[0, 0] += m == 3
        return rows
    monkeypatch.setattr(sos, "_closed_form_taus", perturbed)
    assert main(["verify", "--m-max", "4", "--samples", "5"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if line.startswith("FAIL")] == [
        "FAIL m=3: tau_explicit = tau_from_alpha on random rationals  [5 samples]"]


def test_verify_reads_no_permutation_objects(monkeypatch: pytest.MonkeyPatch,
                                            capsys: pytest.CaptureFixture) -> None:
    # the theorem checks and the tau formula checks alike run on arrays
    assert main(["verify", "--m-max", "8"]) == 0
    expected = capsys.readouterr().out

    def refuse(self, values):
        raise AssertionError("a Permutation was built")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    assert main(["verify", "--m-max", "8"]) == 0
    assert capsys.readouterr().out == expected


def test_verify_negative_samples_is_usage_error(capsys: pytest.CaptureFixture) -> None:
    assert main(["verify", "--m-max", "3", "--samples", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "samples" in captured.err


def _child_env() -> dict[str, str]:
    """The environment, with PYTHONPATH leading to this soslift for a child process."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_closed_stdout_exits_1_without_traceback() -> None:
    env = _child_env()
    # V_60 prints about 190 kB as one-line text and 280 kB as JSON, and the
    # depth-40 trees 11 MB, more than a pipe holds, so the writer is still
    # running when the reader goes away
    for argv, first in ((["lift", "--to-m", "60"], b"1 2 "),
                        (["enumerate", "--set", "V", "--m", "60", "--method", "lift",
                          "--format", "json"], b'{"m": 60, "values": [1, 2, '),
                        (["tree", "--depth", "40", "--kind", "both", "--format", "json"], b"{\n")):
        proc = subprocess.Popen([sys.executable, "-m", "soslift.cli", *argv],
                                stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        assert proc.stdout.readline().startswith(first)
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
        assert proc.returncode == 1
        assert b"Traceback" not in err


LIFT_5_SHA256 = "d51d261ac4465a354b8aee115399a424c2aacb75cc7edf2bdc549c342c7b0b62"


@pytest.mark.parametrize("pins, status", [
    (["--sha256", LIFT_5_SHA256], 0),
    (["--sha256", LIFT_5_SHA256, "--lines", "10", "--peak-mb", "1000"], 0),
    (["--sha256", "0" * 64], 1),
    (["--sha256", LIFT_5_SHA256, "--lines", "11"], 1),
    (["--sha256", LIFT_5_SHA256, "--peak-mb", "1"], 1),
])
def test_pinned_run_checks_the_child(pins: list[str], status: int) -> None:
    script = Path(__file__).resolve().with_name("pinned_run.py")
    proc = subprocess.run([sys.executable, str(script), *pins, "--", "lift", "--to-m", "5"],
                          capture_output=True, env=_child_env(), timeout=60)
    assert proc.returncode == status, proc.stderr
    assert proc.stderr.startswith(b"error: ") == bool(status)


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
    for depth, message in (("0", "depth must be positive, got 0"),
                           ("2001", "depth 2001 exceeds the supported ceiling 2000")):
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


def test_sosrec_reads_no_permutation_objects(monkeypatch: pytest.MonkeyPatch,
                                            capsys: pytest.CaptureFixture) -> None:
    def refuse(self):
        raise AssertionError("PermClass.members was read")

    monkeypatch.setattr(PermClass, "members", property(refuse))
    assert main(["sosrec", "--m", "7", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["sets_equal"] is True and doc["sos_count"] == totient_sum(7)


@pytest.mark.parametrize("argv", [["sosrec", "--m", "6"], ["verify", "--m-max", "6"]]
                         + [["enumerate", "--set", label, "--m", "6"]
                            for label in perm_sets.WALK_LABELS + ("Vminus",)], ids=" ".join)
def test_brute_force_commands_walk_no_s_m(monkeypatch: pytest.MonkeyPatch,
                                          capsys: pytest.CaptureFixture, argv: list[str]) -> None:
    walks = []
    sym = perm_sets._sym
    monkeypatch.setattr(perm_sets, "_sym", lambda m: walks.append(m) or sym(m))
    assert main(argv) == 0
    assert capsys.readouterr().out
    assert walks == []


@pytest.mark.parametrize("m", [3, 5, 6])
def test_sosrec_report_matches_the_object_comparison(monkeypatch: pytest.MonkeyPatch,
                                                      capsys: pytest.CaptureFixture, m: int) -> None:
    """A wrong step rule (every step's test flipped for rows that start with 2,
    and the class found by the walk of S_m) misses some inverses of V and admits
    other rows; the report agrees with a comparison of Permutation objects."""
    sosrec, search = perm_sets._RULES["SosRec"].step, perm_sets._search
    monkeypatch.setitem(perm_sets._RULES, "SosRec", perm_sets._Rule(
        lambda s, ref: sosrec(s, ref) ^ (s.first == 2), None))
    monkeypatch.setattr(perm_sets, "_search", lambda label, m: perm_sets._brute(label, m)
                        if label == "SosRec" else search(label, m))
    found = list(perm_sets.enumerate_class("SosRec", m))
    # the walk reads the same table
    assert [p.values for p in found] == list(map(tuple, perm_sets._brute("SosRec", m).tolist()))
    v_inverses = {inverse(p) for p in perm_sets.enumerate_class("V", m)}
    assert main(["sosrec", "--m", str(m), "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["recurrence_count"] == len(found)
    assert doc["sos_count"] == len(v_inverses)
    assert doc["recurrence_contains_sos"] is (v_inverses <= set(found)) is False
    assert doc["sets_equal"] is (v_inverses == set(found)) is False
    assert doc["recurrence_only"] == [p.one_line() for p in found if p not in v_inverses]
    assert doc["recurrence_only"]


# the SHA-256 of the JSON reports of verify and sosrec, as printed before
# their class comparisons ran on arrays
REPORT_STDOUT_SHA256 = [
    (["verify", "--m-max", "9"], "bf1933b8c051270c426c2a3ada5ff128c6d3727e43817c53207037d92de07270"),
    (["sosrec", "--m", "1"], "2dd7b6d25708446106759d5c425bd796da07ee59bfcf24fce5bb08eaa7afc039"),
    (["sosrec", "--m", "2"], "b73238ea9487dfd075c0d256d400c6c00331127c6db6b515dc94e5b474dfc077"),
    (["sosrec", "--m", "3"], "4c7bf0877c5991021d26f0e88d7f267535fbcc3022d61e220ca3bff923d5c1ca"),
    (["sosrec", "--m", "4"], "a75588d3986f1bcbb6550b8c6709bd8f36e13b9837fa3ab6bcebf77f4d582338"),
    (["sosrec", "--m", "5"], "69c1c2ffede1c935c01f0459af745fdca83b8ddf471c2830e156611a3bfe5f1a"),
    (["sosrec", "--m", "6"], "8a0f4294ba2840a71a8b6f1ea513c87ea0d8c1d9c7b9a9e2a4add5ecbf62d377"),
    (["sosrec", "--m", "7"], "dba4f94875ed53ba75ee7e955bfee44ab746364d64b8ebf9e8084447f35965b7"),
    (["sosrec", "--m", "8"], "767b142c6429050ad07246a33e169d0e211725805b8855e7fed7847716f7b36b"),
    (["sosrec", "--m", "9"], "1fde8150e5b7ac8b94f76691b65d9555661e67d83e00d14c2bd6946a889e32a9"),
]


@pytest.mark.parametrize("argv, digest", REPORT_STDOUT_SHA256)
def test_report_stdout_is_byte_identical(capsys: pytest.CaptureFixture, argv: list[str],
                                         digest: str) -> None:
    assert main(argv + ["--format", "json"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


def test_main_builds_one_parser_and_every_usage_error_exits_2(
        monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture) -> None:
    assert main(["tau", "--m", "3", "--alpha", "2/5"]) == 0  # the parser is built by now
    built = []
    init = argparse.ArgumentParser.__init__
    monkeypatch.setattr(argparse.ArgumentParser, "__init__",
                        lambda parser, *args, **kwargs: built.append(parser) or init(parser, *args, **kwargs))
    for argv in ([], ["nope"], ["enumerate", "--set", "V"], ["enumerate", "--set", "V", "--m", "x"],
                 ["lift", "--from-m", "3", "--to-m", "4"], ["tree", "--depth", "3", "--kind", "oak"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert capsys.readouterr().err.startswith("usage: soslift")
    assert main(["enumerate", "--set", "V", "--m", "11"]) == 2
    assert main(["lift", "--to-m", "0"]) == 2
    capsys.readouterr()
    assert main(["enumerate", "--set", "V", "--m", "4"]) == 0
    assert capsys.readouterr().out.splitlines() == V4_LINES
    assert built == []
    assert cli._build_parser() is cli._build_parser()


def test_missing_subcommand_is_usage_error() -> None:
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_verify_past_the_cap_is_byte_identical(monkeypatch: pytest.MonkeyPatch,
                                               capsys: pytest.CaptureFixture) -> None:
    # at 16 X is decoded from its 72 pairs (k, s) and shift-closed, and Y's
    # one-shift closure test reads classes of thousands of rows
    monkeypatch.setenv(perm_sets.ENV_MAX_BRUTE_M, "16")
    assert main(["verify", "--m-max", "16"]) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == (
        "0d6cfbe14d3d3e3b7a913569a3f965f16adce49a66bd01c9d11957798139197e")
