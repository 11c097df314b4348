from __future__ import annotations

import ast
import hashlib
import itertools
import tracemalloc
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from soslift import cli, lifting
from soslift.farey import totients, totient_sum
from soslift.lifting import (
    FORCE_THRESHOLD,
    MAX_LIFT_DEGREE,
    TAG_LEFT,
    TAG_RIGHT,
    TAG_SINGLE,
    Level,
    generate_up_to,
    iter_levels,
    lift_fibers,
    lift_level,
    project,
    sorted_blocks,
)
from soslift.perm_core import (
    PermClass,
    Permutation,
    _dtype_for,
    cds,
    format_rows,
    in_V,
    psi_inverse,
    shift,
)
from soslift.perm_sets import _lex_perms, enumerate_class
from soslift.sos import theta_ab

from oracles import rows_by_columns


def _p(text: str) -> Permutation:
    return Permutation.parse(text)


def test_lift_fibers_from_degree_one() -> None:
    parents = Level.from_rows(np.array([[1]], dtype=np.uint8))
    children, parent_index, tags = lift_fibers(parents)
    assert children.rows().tolist() == [[1, 2], [2, 1]]
    assert parent_index.tolist() == [0, 0]
    assert tags.tolist() == [TAG_LEFT, TAG_RIGHT]


def test_lift_fibers_branching_structure() -> None:
    parents = enumerate_class("V", 4).as_array()
    children, parent_index, tags = lift_fibers(Level.from_rows(parents))
    m = 5
    assert children.shape == (totient_sum(m), m)
    assert children.nbytes == children.first.nbytes + children.last.nbytes
    assert parent_index.tolist() == sorted(parent_index.tolist())
    counts = np.bincount(parent_index, minlength=len(parents))
    assert set(counts.tolist()) <= {1, 2}
    assert int((counts == 2).sum()) == totients(m)[m]
    for row, tag in zip(children.rows(), tags):
        child = Permutation(tuple(int(x) for x in row))
        if tag == TAG_LEFT:
            a = child(1)
            assert child == theta_ab(m, a, 0)
        elif tag == TAG_RIGHT:
            a = child(1) - 1
            assert child == theta_ab(m, a, 1)
        else:
            assert tag == TAG_SINGLE


def test_branching_parents_have_singleton_difference_set() -> None:
    for m in range(2, 8):
        parents = enumerate_class("V", m).as_array()
        _, parent_index, _ = lift_fibers(Level.from_rows(parents))
        counts = np.bincount(parent_index, minlength=len(parents))
        for row, n_children in zip(parents, counts):
            parent = Permutation(tuple(int(x) for x in row))
            lifted = psi_inverse(parent)
            if n_children == 2:
                assert len(cds(lifted)) == 1
            else:
                assert len(cds(lifted)) == 2


def test_lift_fibers_children_are_the_shifts_of_theta() -> None:
    """Exhaustive over S_1..S_7: Level.from_rows accepts exactly V, and each
    child is psi_inverse(pi) shifted by a - 1 ((0)-child) or by a (last child)."""
    for n in range(1, 8):
        for values in itertools.permutations(range(1, n + 1)):
            parent = Permutation(values)
            theta = psi_inverse(parent)
            rows = np.array([values], dtype=np.uint8)
            if not in_V(parent):
                with pytest.raises(ValueError, match="not the class V"):
                    Level.from_rows(rows)
                continue
            children, parent_index, tags = lift_fibers(Level.from_rows(rows))
            assert parent_index.tolist() == [0] * len(children)
            a = min(cds(theta))
            for row, tag in zip(children.rows().tolist(), tags.tolist()):
                assert Permutation(row) == shift(theta, a - 1 if tag == TAG_LEFT else a)


@pytest.mark.parametrize("prev_m", [127, 128, 255, 256, 1999])
def test_lift_fibers_at_dtype_boundaries(prev_m: int) -> None:
    """Affine parents i -> (s*i + b - 1) mod m' + 1, gcd(s, m') = 1, b in {0, 1},
    lie in V.  Their children of degree m = m' + 1 cross the uint8 and uint16
    limits of every intermediate: each must still be the shift of theta_pi
    by a - 1 ((0)-child) or a, with a = min cds(theta_pi), in _dtype_for(m)."""
    m = prev_m + 1
    units = [s for s in range(1, prev_m) if gcd(s, prev_m) == 1]
    affine = np.array([(s, b) for s in units for b in (0, 1)])
    rng = np.random.default_rng(prev_m)
    affine = affine[rng.choice(len(affine), size=min(32, len(affine)), replace=False)]
    i = np.arange(1, prev_m + 1)
    rows = (affine[:, :1] * i + affine[:, 1:] - 1) % prev_m + 1
    children, parent_index, tags = lift_fibers(Level.from_rows(rows.astype(_dtype_for(prev_m))))
    assert children.shape[1] == m
    children = children.rows()
    assert children.dtype == _dtype_for(m)
    assert np.array_equal(np.unique(parent_index), np.arange(len(rows)))
    thetas = []
    for row in rows.tolist():
        parent = Permutation(row)
        assert in_V(parent)
        theta = psi_inverse(parent)
        thetas.append((theta, min(cds(theta))))
    for row, parent, tag in zip(children.tolist(), parent_index.tolist(), tags.tolist()):
        child = Permutation(row)
        theta, a = thetas[parent]
        assert child == shift(theta, a - 1 if tag == TAG_LEFT else a)
        assert in_V(child)


def test_lift_of_the_parent_rows_matches_brute_force() -> None:
    # lift --input's route: the rows of V_{m-1}, checked into a Level and lifted once
    for m in range(2, 9):
        children = lift_fibers(Level.from_rows(enumerate_class("V", m - 1).as_array()))[0]
        assert PermClass("V", m, children.rows()) == enumerate_class("V", m)


def test_lift_fibers_rejects_non_member_rows() -> None:
    bad = np.array([[1, 3, 2, 4]], dtype=np.uint8)
    with pytest.raises(ValueError, match="not the class V"):
        Level.from_rows(bad)
    with pytest.raises(ValueError, match="2-d parent array"):
        Level.from_rows(np.array([1, 2], dtype=np.uint8))
    with pytest.raises(ValueError, match=f"degree {MAX_LIFT_DEGREE + 1} exceeds the supported ceiling"):
        Level.from_rows(np.arange(1, MAX_LIFT_DEGREE + 2, dtype=np.uint16)[None, :])


def test_from_rows_rejects_planted_non_member() -> None:
    planted = np.vstack([enumerate_class("V", 4).as_array(), [[1, 3, 2, 4]]])
    with pytest.raises(ValueError, match=r"row 6 \(1 3 2 4\) .*; input is not the class V"):
        Level.from_rows(planted)


def test_generate_up_to_levels() -> None:
    levels = generate_up_to(8)
    assert len(levels) == 8
    for m, level in enumerate(levels, start=1):
        assert level.m == m
        assert len(level) == totient_sum(m)
    assert levels[3] == enumerate_class("V", 4)
    assert levels[7] == enumerate_class("V", 8)


def test_generate_up_to_guards() -> None:
    with pytest.raises(ValueError, match="target degree must be positive"):
        generate_up_to(0)
    with pytest.raises(ValueError, match="needs force"):
        generate_up_to(FORCE_THRESHOLD + 1)
    with pytest.raises(ValueError, match="^target degree 2001 exceeds the supported ceiling 2000$"):
        generate_up_to(MAX_LIFT_DEGREE + 1, force=True)


def test_iter_levels_matches_generate_up_to_row_for_row() -> None:
    levels = list(iter_levels(12))
    assert len(levels) == 12
    level, parent_index, tags = levels[0]
    assert level.rows().tolist() == [[1]]
    assert parent_index.tolist() == [0]
    assert tags.tolist() == [TAG_SINGLE]
    for m, ((level, parent_index, tags), kept) in enumerate(zip(levels, generate_up_to(12)), start=1):
        assert kept == PermClass("V", m, level.rows())
        assert len(parent_index) == len(tags) == len(level)
    for (parents, _, _), (children, parent_index, tags) in zip(levels, levels[1:]):
        expected = lift_fibers(parents)
        assert np.array_equal(children.first, expected[0].first)
        assert np.array_equal(children.last, expected[0].last)
        assert np.array_equal(parent_index, expected[1])
        assert np.array_equal(tags, expected[2])


def test_lift_to_matches_brute_force() -> None:
    for m in range(1, 9):
        lifted = enumerate_class("V", m, "lift")
        assert lifted.m == m and lifted.label == "V"
        assert lifted == enumerate_class("V", m)


def test_largest_first_value_group_is_half_the_degree() -> None:
    # the rows of V_m that share theta(1) number at most ceil(m/2), and some
    # group reaches it: the bound on a block of whole groups in a streamed sort
    for level, _, _ in iter_levels(300):
        assert np.bincount(level.first).max() == (level.m + 1) // 2, level.m


def test_iter_levels_and_lift_to_guards() -> None:
    levels = iter_levels(FORCE_THRESHOLD + 1)  # the guard runs on the first next()
    with pytest.raises(ValueError, match="needs force"):
        next(levels)
    with pytest.raises(ValueError, match="target degree must be positive"):
        lift_level(0)
    with pytest.raises(ValueError, match=r"needs force=True "
                       r"\(soslift lift --force, soslift enumerate --force\)"):
        lift_level(FORCE_THRESHOLD + 1)
    with pytest.raises(ValueError, match="^target degree 2001 exceeds the supported ceiling 2000$"):
        lift_level(MAX_LIFT_DEGREE + 1, force=True)


def test_lifting_imports_only_numpy_and_perm_core() -> None:
    """lifting must stay an independent route: no farey, no sos, no perm_sets."""
    tree = ast.parse(Path(lifting.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add("." * node.level + (node.module or ""))
    assert imported <= {"__future__", "typing", "numpy", ".perm_core"}, imported


def test_project_frozen_values() -> None:
    assert project(_p("35241")) == _p("2413")
    assert project(_p("2413")) == _p("231")
    assert project(_p("21")) == _p("1")


def test_project_inverts_lifting() -> None:
    for m in range(2, 9):
        prev = {p.one_line() for p in enumerate_class("V", m - 1)}
        for child in enumerate_class("V", m):
            assert project(child).one_line() in prev


def test_project_rejects_non_members_and_root() -> None:
    with pytest.raises(ValueError, match="not in the class V"):
        project(_p("1324"))
    with pytest.raises(ValueError, match="projection needs degree >= 2"):
        project(_p("1"))


# SHA-256 over degrees 1..200 of iter_levels' rows (as little-endian uint16,
# row-major), parent_index (int64) and tags (int8), recorded from the earlier
# lift kernel, which rewrote every full row at every degree
LEVELS_200_SHA256 = "12a02a46eda8f2045271f9d0a3b847ca8ac2d3e6362293c9840f87b8cc52ec85"


def test_levels_to_200_equal_the_full_row_kernel() -> None:
    digest = hashlib.sha256()
    for level, parent_index, tags in iter_levels(200):
        digest.update(np.ascontiguousarray(level.rows(), dtype="<u2").tobytes())
        digest.update(np.ascontiguousarray(parent_index, dtype="<i8").tobytes())
        digest.update(np.ascontiguousarray(tags, dtype="i1").tobytes())
    assert digest.hexdigest() == LEVELS_200_SHA256


def test_branching_parents_are_those_with_first_plus_last_m() -> None:
    phi = totients(500)
    parents = None
    for level, parent_index, tags in iter_levels(500, force=True):
        m = level.m
        assert level.shape == (totient_sum(m), m)
        if parents is not None:
            branching = np.zeros(len(parents), dtype=bool)
            branching[parent_index[tags == TAG_LEFT]] = True
            assert np.array_equal(np.bincount(parent_index, minlength=len(parents)), 1 + branching)
            assert np.array_equal(branching, parents.first.astype(np.int64) + parents.last == m), m
            assert int(branching.sum()) == phi[m], m
        parents = level


def test_from_rows_rejects_exactly_the_rows_outside_V() -> None:
    """Exhaustive over S_1..S_8: the rows from_rows refuses are those in_V rejects,
    and it names the first of them."""
    for n in range(1, 9):
        rows = _lex_perms(n) + 1
        member = np.array([in_V(Permutation(row)) for row in rows.tolist()])
        assert np.array_equal(lifting._outside_V(rows), ~member), n
        level = Level.from_rows(rows[member])
        assert np.array_equal(level.rows(), rows[member])
        if not member.all():
            k = int(np.argmin(member))
            with pytest.raises(ValueError, match=rf"^row {k} \(.*not the class V$"):
                Level.from_rows(rows)


@pytest.mark.parametrize("row", [
    [1, 1, 1, 1],  # satisfies the congruence from (1, 1), but is no permutation
    [0, 2, 3, 4],
    [5, 1, 2, 3],
    [300, 1, 2, 3],
    [-1, 2, 3, 4],
])
def test_from_rows_rejects_rows_that_are_not_permutations(row: list[int]) -> None:
    rows = np.array([[1, 2, 3, 4], row])
    with pytest.raises(ValueError, match=r"^row 1 \(.*not the class V$"):
        Level.from_rows(rows)


def test_level_is_read_only() -> None:
    level = Level.from_rows(enumerate_class("V", 5).as_array())
    with pytest.raises(AttributeError, match="read-only"):
        level.m = 6
    with pytest.raises(ValueError, match="read-only"):
        level.first[0] = 2
    assert level.shape == (10, 5) and len(level) == 10
    assert level.nbytes == 20


def test_rows_decodes_any_block() -> None:
    for level, _, _ in iter_levels(30):
        pass
    full = level.rows()
    assert full.shape == level.shape
    for start, stop in ((0, 1), (5, 17), (len(level) - 3, None), (7, 7)):
        assert np.array_equal(level.rows(start, stop), full[start:stop])


def test_rows_equal_the_column_decoder() -> None:
    # every degree to 60, the uint8/uint16 boundary, and two uint16 degrees;
    # each level past 60 spans several tiles of rows and ends in a part tile,
    # as the slabs of every m not a multiple of 16 end in a part slab
    degrees = {*range(1, 61), 254, 255, 256, 257, 300, 600}
    for level, _, _ in iter_levels(max(degrees), force=True):
        m, n = level.m, len(level)
        if m not in degrees:
            continue
        empty = Level(m, level.first[:0], level.last[:0])
        ranges = [(level, 0, None), (level, 0, n), (level, n // 3, 2 * n // 3 + 1),
                  (level, n - 1, None), (level, n // 2, n // 2), (level, n, None), (empty, 0, None)]
        for source, start, stop in ranges:
            got = source.rows(start, stop)
            assert got.dtype == _dtype_for(m) and got.flags.c_contiguous, (m, start, stop)
            assert np.array_equal(got, rows_by_columns(source, start, stop)), (m, start, stop)


def test_rows_holds_little_beyond_its_output() -> None:
    for level, _, _ in iter_levels(200):
        pass
    tracemalloc.start()
    try:
        rows = level.rows()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # beside the uint8 output, a few int16 and bool columns of N entries
    assert rows.nbytes == 200 * totient_sum(200)
    assert peak <= rows.nbytes + 16 * len(level)


def test_lift_runs_the_kernel_once_per_degree(monkeypatch: pytest.MonkeyPatch,
                                              capsys: pytest.CaptureFixture) -> None:
    """The benchmark's checked pass wraps lifting.lift_fibers by rebinding the
    module attribute and checks each lifted level's width and branching count;
    a lift must reach that name once per degree."""
    calls = []
    real = lifting.lift_fibers

    def wrapped(parents):
        out = real(parents)
        calls.append(out)
        return out

    monkeypatch.setattr(lifting, "lift_fibers", wrapped)
    assert cli.main(["lift", "--to-m", "40"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == totient_sum(40)
    assert [children.shape for children, _, _ in calls] == [
        (totient_sum(m), m) for m in range(2, 41)]
    assert [int((tags == 0).sum()) for _, _, tags in calls] == totients(40)[2:]


def _lift_fibers_by_insert(parents: Level) -> tuple[Level, np.ndarray, np.ndarray]:
    """The reference kernel: each (1)-child inserted after its (0)-child with np.insert."""
    m = parents.m + 1
    first = parents.first.astype(np.int16)
    s = first + parents.last
    up = s > m
    branching = np.flatnonzero(s == m)
    after = branching + 1
    dtype = _dtype_for(m)
    children = Level(m, np.insert(first + up, after, first[branching] + 1).astype(dtype),
                     np.insert(np.where(up, s + (1 - m), s), after, 1).astype(dtype))
    parent_index = np.insert(np.arange(len(s), dtype=np.int64), after, branching)
    left_rows = branching + np.arange(len(branching))
    tags = np.full(len(parent_index), TAG_SINGLE, dtype=np.int8)
    tags[left_rows] = TAG_LEFT
    tags[left_rows + 1] = TAG_RIGHT
    return children, parent_index, tags


def test_lift_fibers_equals_the_insert_kernel_to_degree_300() -> None:
    parents = None
    for level, parent_index, tags in iter_levels(300):
        if parents is not None:
            ref_level, ref_index, ref_tags = _lift_fibers_by_insert(parents)
            for got, want in ((level.first, ref_level.first), (level.last, ref_level.last),
                              (parent_index, ref_index), (tags, ref_tags)):
                assert got.dtype == want.dtype, level.m
                assert np.array_equal(got, want), level.m
        parents = level


# every degree to 60, a stride to 300, and the uint8/uint16 boundary
STREAM_DEGREES = sorted({*range(1, 61), *range(61, 301, 48), 255, 256, 257})


@pytest.mark.parametrize("bound", ["default", "one group"])
@pytest.mark.parametrize("fmt", ["oneline", "json"])
def test_lift_output_equals_the_sorted_class(monkeypatch: pytest.MonkeyPatch,
                                             capsys: pytest.CaptureFixture,
                                             fmt: str, bound: str) -> None:
    if bound == "one group":
        monkeypatch.setattr(lifting, "BLOCK_BYTES", 1)
    for level, _, _ in iter_levels(max(STREAM_DEGREES)):
        if level.m not in STREAM_DEGREES:
            continue
        monkeypatch.setattr(cli, "lift_level", lambda M, force=False: level)
        assert cli.main(["lift", "--to-m", str(level.m), "--format", fmt]) == 0
        rows = PermClass("V", level.m, level.rows()).as_array()
        assert capsys.readouterr().out == format_rows(rows, level.m, fmt), level.m


@pytest.mark.parametrize("fmt", ["oneline", "json"])
def test_enumerate_lift_prints_the_bytes_of_lift(monkeypatch: pytest.MonkeyPatch,
                                                 capsys: pytest.CaptureFixture, fmt: str) -> None:
    for level, _, _ in iter_levels(max(STREAM_DEGREES)):
        if level.m not in STREAM_DEGREES:
            continue
        for module in (cli, lifting):
            monkeypatch.setattr(module, "lift_level", lambda M, force=False: level)
        assert cli.main(["lift", "--to-m", str(level.m), "--format", fmt]) == 0
        lifted = capsys.readouterr().out
        for label in ("V", "Sstar"):
            argv = ["enumerate", "--set", label, "--m", str(level.m), "--method", "lift"]
            assert cli.main(argv + ["--format", fmt]) == 0
            assert capsys.readouterr().out == lifted, (label, level.m)


def test_sorted_blocks_hold_whole_theta_one_groups(monkeypatch: pytest.MonkeyPatch) -> None:
    level = lift_level(200)
    rows = PermClass("V", 200, level.rows()).as_array()
    assert [len(b) for b in sorted_blocks(level)] == [len(rows)]  # 2.4 MB: one block
    monkeypatch.setattr(lifting, "BLOCK_BYTES", 1)
    blocks = list(sorted_blocks(level))
    assert [b[0, 0] for b in blocks] == list(range(1, 201))
    assert all((b[:, 0] == b[0, 0]).all() for b in blocks)
    monkeypatch.setattr(lifting, "BLOCK_BYTES", 200 * 1000)
    blocks = list(sorted_blocks(level))
    assert all(b.nbytes <= 200 * 1000 for b in blocks)
    assert len(blocks) < 2 * len(rows) * 200 // (200 * 1000) + 2  # the blocks are nearly full
    assert np.array_equal(np.concatenate(blocks), rows)
