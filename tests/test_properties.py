"""Property tests: PermClass's canonical form, the projection of lifted children, the
round trip of formatted rows, the shift, gamma and psi maps, and the exit codes of
the command line."""
from __future__ import annotations

import io
import json
import os
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soslift.cli import ENV_MAX_BRUTE_M, main
from soslift.lifting import Level, lift_fibers, lift_level, project
from soslift.perm_core import (PermClass, Permutation, _dtype_for, format_rows, gamma, psi,
                               shift, shift_closure)
from soslift.perm_sets import LABELS, METHODS

from oracles import psi_inverse, shift_equivalent

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def repeated_rows(draw):
    """(m, rows, dtype): permutation rows of degree m, shuffled, some repeated."""
    m = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(1, m + 1)), max_size=10))
    repeats = draw(st.lists(st.sampled_from(perms), max_size=10)) if perms else []
    rows = draw(st.permutations(perms + repeats))
    dtype = draw(st.sampled_from([d for d in INT_DTYPES if np.iinfo(d).max >= m]))
    return m, rows, dtype


# degree 256 is the first stored as uint16; its rows are too costly to draw
DEGREE_256 = (256, [list(range(256, 0, -1)), list(range(1, 257)), list(range(256, 0, -1))], np.int64)


def straddling_rows(m: int, dtype: type) -> tuple:
    """(m, rows, dtype): rotations of 1..m whose first values straddle 256, shuffled, some
    repeated.  Read as little-endian uint16 bytes, 256 would sort before 1 and 257 before 2."""
    ident = list(range(1, m + 1))
    perms = [ident[k:] + ident[:k] for k in (255, 0, 256 % m, 1, 254)] + [ident[::-1]]
    return m, perms + perms[::2], dtype


@given(repeated_rows())
@example(DEGREE_256)
@example(straddling_rows(255, np.int32))
@example(straddling_rows(257, np.uint16))
def test_from_array_equals_the_eager_class(case) -> None:
    m, rows, dtype = case
    from_rows = PermClass("V", m, np.array(rows, dtype=dtype).reshape(len(rows), m))
    distinct = sorted(set(map(tuple, rows)))
    eager = PermClass("V", m, np.array(distinct, dtype=np.int64).reshape(len(distinct), m))
    assert from_rows == eager
    assert hash(from_rows) == hash(eager)
    assert from_rows.members == tuple(map(Permutation, distinct))


@given(repeated_rows())
@example(DEGREE_256)
@example(straddling_rows(255, np.int32))
@example(straddling_rows(257, np.uint16))
def test_as_array_is_lexsorted_unique_and_narrow(case) -> None:
    m, rows, dtype = case
    arr = PermClass("V", m, np.array(rows, dtype=dtype).reshape(len(rows), m)).as_array()
    assert arr.dtype == _dtype_for(m)
    assert arr.shape == (len(set(map(tuple, rows))), m)
    assert arr.tolist() == [list(row) for row in sorted(set(map(tuple, rows)))]


@settings(deadline=None)
@given(st.integers(2, 40), st.data())
def test_project_maps_every_lifted_child_to_its_parent(m, data) -> None:
    parents = lift_level(m - 1).rows()
    children, parent_index, _ = lift_fibers(Level.from_rows(parents))
    i = data.draw(st.integers(0, len(children) - 1))
    assert project(Permutation(children.rows(i, i + 1)[0])) == Permutation(parents[parent_index[i]])


@st.composite
def row_blocks(draw):
    """(m, rows): a block of degree-m permutation rows as an array of _dtype_for(m)."""
    # as many draws around the digit-string degrees (m <= 9) as beyond them
    m = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    perms = draw(st.lists(st.permutations(range(1, m + 1)), max_size=6))
    return m, np.array(perms, dtype=_dtype_for(m)).reshape(len(perms), m)


@settings(deadline=None)
@given(row_blocks())
def test_formatted_lines_parse_back_to_their_rows(case) -> None:
    m, rows = case
    parsers = {"json": lambda line: Permutation.from_json(json.loads(line)),
               "oneline": Permutation.parse}
    for fmt, parse in parsers.items():
        text = format_rows(rows, m, fmt)
        assert text.endswith("\n") or not len(rows)
        assert [parse(line).values for line in text.splitlines()] == list(map(tuple, rows.tolist()))


@st.composite
def perms(draw, min_m=1):
    """A permutation of degree 1..12, at least min_m."""
    m = draw(st.integers(min_m, 12))
    return Permutation(draw(st.permutations(range(1, m + 1))))


@given(perms(), st.integers(-30, 30), st.integers(-30, 30))
def test_shifts_compose_and_wrap_at_the_degree(theta, j, k) -> None:
    assert shift(shift(theta, j), k) == shift(theta, j + k)
    assert shift(theta, theta.m) == theta
    assert shift_equivalent(theta, shift(theta, k))


@given(perms())
def test_gamma_is_the_shift_that_starts_at_1(theta) -> None:
    g = gamma(theta)
    assert g(1) == 1
    assert g == shift(theta, 1 - theta(1))
    assert shift_equivalent(theta, g)


@given(perms(min_m=2))
def test_psi_inverse_undoes_psi(theta) -> None:
    fixed = gamma(theta)  # psi is defined where theta(1) = 1
    assert psi_inverse(psi(fixed)) == fixed
    assert psi(psi_inverse(theta)) == theta


@given(st.integers(1, 7).flatmap(lambda m: st.lists(st.permutations(range(1, m + 1)), max_size=8)
                                 .map(lambda rows: (m, rows))))
def test_shift_closure_of_a_class_equals_the_object_shifts(case) -> None:
    m, rows = case
    closed = shift_closure(PermClass("X", m, np.array(rows, dtype=np.int64).reshape(len(rows), m)))
    assert closed.label == "X"
    assert set(closed) == {shift(Permutation(r), k) for r in rows for k in range(m)}


BIG = "99999999999999999999"
INPUT = "<input>"  # stands for the --input file of one example


def _degrees(ceilings, largest):
    """Values of a degree, order or depth flag: the refused 0, -1, 10^20, non-numbers
    and each ceiling + 1, and accepted values 1..largest, cheap to run."""
    refused = ("0", "-1", BIG, "abc", "1/0", "", "1.5", *(str(c + 1) for c in ceilings))
    return st.one_of(st.sampled_from(refused), st.integers(1, largest).map(str))


_json_documents = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 1 << 70) | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.sampled_from(["m", "values", "x"]), inner, max_size=3),
    max_leaves=12)


@st.composite
def _input_file(draw, m):
    """The bytes of an --input file: random bytes, or JSON lines mixing random
    documents, lists of small integers and rows of V_m."""
    if draw(st.booleans()):
        return draw(st.binary(max_size=64))
    rows = lift_level(int(m)).rows().tolist() if m.isdigit() and 1 <= int(m) <= 12 else []
    lines = draw(st.lists(st.one_of(
        _json_documents,
        st.fixed_dictionaries({"values": st.lists(st.integers(-1, 13), max_size=12)},
                              optional={"m": st.integers(-1, 13)}),
        *([st.sampled_from(rows).map(lambda row: {"values": row})] if rows else [])), max_size=6))
    return "".join(json.dumps(line) + "\n" for line in lines).encode()


@st.composite
def cli_calls(draw):
    """(argv, SOSLIFT_MAX_BRUTE_M or None, --input bytes or None) for one subcommand."""
    env = draw(st.sampled_from((None, "0", "-5", "abc", "3", BIG)))
    # 11 is refused by the default cap; under a raised cap it would run S_11, so it is not drawn
    cap = () if env == BIG else (10,)
    fmt = ("--format", draw(st.sampled_from(("oneline", "json"))))
    report = ("--format", draw(st.sampled_from(("text", "json"))))
    force = ("--force",) if draw(st.booleans()) else ()
    command = draw(st.sampled_from(("enumerate", "lift", "project", "tau", "farey", "tree",
                                    "verify", "verify-tree", "sosrec")))
    content = None
    if command == "enumerate":
        label, method = draw(st.sampled_from(LABELS)), draw(st.sampled_from(METHODS))
        if method != "brute":
            m = draw(_degrees((2000,) + (() if force else (500,)), 40))
        elif label in ("VL0", "VL1"):
            m = draw(_degrees((10_000,), 40))
        else:
            m = draw(_degrees((10_000, *cap), 9))
        argv = ["enumerate", "--set", label, "--m", m, "--method", method, *force, *fmt]
    elif command == "lift":
        flag = draw(st.sampled_from(("--to-m", "--from-m")))
        ceilings = (2000,) if force else (500, 2000)
        m = draw(_degrees([c - (flag == "--from-m") for c in ceilings], 40))
        argv = ["lift", flag, m, *force, *fmt]
        if draw(st.booleans()):
            content = draw(_input_file(m))
            argv += ["--input", INPUT]
    elif command == "project":
        # "\u00b2" and a digit run past int's digit limit pass str.isdigit but not int
        argv = ["project", "--perm", draw(st.one_of(st.text("0123456789 -ab\u00b2", max_size=12),
                                                     st.just("1 " + "9" * 5000)))]
    elif command == "tau":
        alpha = draw(st.one_of(st.sampled_from(("1/2", "2/5", "1/0", "abc", "0", "1", "-1/3", "3/2", "")),
                               st.tuples(st.integers(-3, 50), st.integers(0, 50)).map("{0[0]}/{0[1]}".format)))
        argv = ["tau", "--m", draw(_degrees((10_000,), 40)), "--alpha", alpha]
    elif command == "farey":
        argv = ["farey", "--m", draw(_degrees((2000,), 40)), *report]
    elif command == "tree":
        kind = draw(st.sampled_from(("gen", "farey", "both")))
        y_levels = ("--with-y-levels",) if draw(st.booleans()) else ()
        argv = ["tree", "--depth", draw(_degrees((2000,), 40)), "--kind", kind,
                "--format", draw(st.sampled_from(("dot", "json"))), *y_levels]
    elif command == "verify":
        argv = ["verify", "--m-max", draw(_degrees((10_000, *cap), 9)),
                "--samples", draw(st.sampled_from(("0", "5", "-1", "abc"))),
                "--seed", str(draw(st.integers(-5, 5))), *report]
    elif command == "verify-tree":
        argv = ["verify-tree", "--depth", draw(_degrees((2000,), 40)), *report]
    else:
        argv = ["sosrec", "--m", draw(_degrees((10_000, *cap), 9)), *report]
    return argv, env, content


@settings(max_examples=150, deadline=None)
@given(cli_calls())
@example((["verify", "--m-max", BIG], BIG, None))
@example((["enumerate", "--set", "V", "--m", "20000"], BIG, None))
@example((["project", "--perm", "\u00b2"], None, None))
@example((["project", "--perm", "1 " + "9" * 5000], None, None))
@example((["lift", "--from-m", "3", "--input", INPUT], None, b"[" * 200_000 + b"\n"))
def test_every_cli_call_keeps_the_exit_code_contract(call) -> None:
    # exit 0, 1 or 2, no exception out of main, and one error line for every
    # usage error that a subcommand raises (argparse's own exit 2 prints usage too)
    argv, env, content = call
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.dict(os.environ):
        os.environ.pop(ENV_MAX_BRUTE_M, None)
        if env is not None:
            os.environ[ENV_MAX_BRUTE_M] = env
        if content is not None:
            path = os.path.join(tmp, "input.jsonl")
            with open(path, "wb") as fh:
                fh.write(content)
            argv = [path if a == INPUT else a for a in argv]
        with redirect_stdout(out), redirect_stderr(err):
            try:
                status, by_argparse = main(argv), False
            except SystemExit as exc:
                status, by_argparse = exc.code, True
    assert status in (0, 1, 2), (argv, status)
    if by_argparse:
        assert status == 2, argv
    elif status == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err.getvalue())
    elif status == 0:
        assert err.getvalue() == "", (argv, err.getvalue())
