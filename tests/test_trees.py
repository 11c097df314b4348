from __future__ import annotations

import json
import weakref

import numpy as np
import pytest

from soslift import trees
from soslift.farey import farey_intervals, totient_sum
from soslift.lifting import TAG_LEFT, TAG_RIGHT, TAG_SINGLE, Level, iter_levels
from soslift.perm_core import Permutation
from soslift.sos import SuranyiTable, suranyi_table
from soslift.trees import (
    Tree,
    build_farey_tree,
    build_gen_tree,
    check_isomorphism,
    export_tree,
    write_tree,
)

# golden depth-6 generation tree, levels left to right; tag 0 marks the
# left child of a branching parent, tag 1 the right child
GOLDEN_LEVELS = [
    ["1"],
    ["12", "21"],
    ["123", "231", "213", "321"],
    ["1234", "2341", "2413", "3142", "3214", "4321"],
    ["12345", "23451", "24513", "24135", "35241", "31425", "42531", "42153", "43215", "54321"],
    [
        "123456", "234561", "245613", "246135", "351462", "362514",
        "415263", "426315", "531642", "532164", "543216", "654321",
    ],
]

GOLDEN_TAGS = [
    [None],
    [0, 1],
    [0, 1, 0, 1],
    [0, 1, None, None, 0, 1],
    [0, 1, None, 0, 1, 0, 1, None, 0, 1],
    [0, 1, None, None, None, None, None, None, None, None, 0, 1],
]

GOLDEN_EDGES = {
    "1": ["12", "21"],
    "12": ["123", "231"],
    "21": ["213", "321"],
    "123": ["1234", "2341"],
    "231": ["2413"],
    "213": ["3142"],
    "321": ["3214", "4321"],
    "1234": ["12345", "23451"],
    "2341": ["24513"],
    "2413": ["24135", "35241"],
    "3142": ["31425", "42531"],
    "3214": ["42153"],
    "4321": ["43215", "54321"],
    "12345": ["123456", "234561"],
    "23451": ["245613"],
    "24513": ["246135"],
    "24135": ["351462"],
    "35241": ["362514"],
    "31425": ["415263"],
    "42531": ["426315"],
    "42153": ["531642"],
    "43215": ["532164"],
    "54321": ["543216", "654321"],
}


def _children(tree: Tree, li: int, i: int) -> list[int]:
    offsets = tree.offsets[li]
    return list(range(offsets[i], offsets[i + 1]))


def test_gen_tree_depth6_levels_match_golden() -> None:
    tree = build_gen_tree(6)
    assert isinstance(tree, Tree)
    assert (tree.kind, tree.M) == ("gen", 6)
    assert [list(level) for level in tree.levels] == GOLDEN_LEVELS


def test_gen_tree_depth6_tags_match_golden() -> None:
    tree = build_gen_tree(6)
    got = [[None if t == TAG_SINGLE else t for t in tags.tolist()] for tags in tree.tags]
    assert got == GOLDEN_TAGS


def test_gen_tree_depth6_edges_match_golden() -> None:
    tree = build_gen_tree(6)
    for li, level in enumerate(tree.levels[:-1]):
        nxt = tree.levels[li + 1]
        for i, label in enumerate(level):
            kids = [nxt[j] for j in _children(tree, li, i)]
            assert kids == GOLDEN_EDGES[label]
    for i in range(len(tree.levels[-1])):
        assert _children(tree, 5, i) == []


def test_gen_tree_agrees_with_iter_levels() -> None:
    tree = build_gen_tree(8)
    levels = list(iter_levels(8))
    assert len(tree.levels) == len(tree.rows) == len(levels)
    for labels, tree_rows, tree_tags, (level, _, tags) in zip(
            tree.levels, tree.rows, tree.tags, levels):
        rows = level.rows()
        assert np.array_equal(tree_rows, rows)
        assert labels == [Permutation(r).one_line() for r in rows.tolist()]
        assert np.array_equal(tree_tags, tags)
    for li, (labels, (_, parent_index, _)) in enumerate(zip(tree.levels, levels[1:])):
        children = [[] for _ in labels]
        for child, parent in enumerate(parent_index.tolist()):
            children[parent].append(child)
        assert [_children(tree, li, i) for i in range(len(labels))] == children
    assert not tree.offsets[-1].any()


def test_gen_tree_child_indices_partition_next_level() -> None:
    tree = build_gen_tree(8)
    for li, level in enumerate(tree.levels[:-1]):
        seen: list[int] = []
        for i in range(len(level)):
            kids = _children(tree, li, i)
            assert len(kids) in (1, 2)
            seen.extend(kids)
        assert seen == list(range(len(tree.levels[li + 1])))


def test_farey_tree_small_depth_frozen() -> None:
    tree = build_farey_tree(3)
    assert isinstance(tree, Tree)
    assert (tree.kind, tree.M, tree.rows) == ("farey", 3, ())
    assert [list(level) for level in tree.levels] == [
        ["(0/1, 1/1)"],
        ["(0/1, 1/2)", "(1/2, 1/1)"],
        ["(0/1, 1/3)", "(1/3, 1/2)", "(1/2, 2/3)", "(2/3, 1/1)"],
    ]
    assert _children(tree, 0, 0) == [0, 1]
    assert all((tags == TAG_SINGLE).all() for tags in tree.tags)


def test_farey_tree_edges_are_containments() -> None:
    tree = build_farey_tree(9)
    for li, level in enumerate(tree.levels[:-1]):
        parents, nxt = farey_intervals(li + 1), farey_intervals(li + 2)
        assigned: list[int] = []
        for i, parent in enumerate(parents):
            kids = _children(tree, li, i)
            assert 1 <= len(kids) <= 2
            for j in kids:
                assert parent.lo <= nxt[j].lo
                assert nxt[j].hi <= parent.hi
            assigned.extend(kids)
        assert assigned == list(range(len(nxt)))
        assert len(tree.levels[li + 1]) == len(nxt) == totient_sum(li + 2)


def test_farey_tree_levels_are_the_interval_rows() -> None:
    tree = build_farey_tree(7)
    for m, level in enumerate(tree.levels, start=1):
        assert level == [str(iv) for iv in farey_intervals(m)]


@pytest.mark.parametrize("m, terms, message", [
    # a first term of denominator 5 is no order-1 term, so interval 1 has no parent
    (2, ([0, 1, 1], [5, 2, 1]), "unassigned order-2 intervals remain"),
    # order-2 terms 0/1 < 1/3 < 1/1: the order-3 interval (1/3, 1/2) leaves (0/1, 1/3)
    (2, ([0, 1, 1], [1, 3, 1]), "an order-3 interval escapes its parent"),
    # an extra order-3 term 1/4 gives (0/1, 1/2) three children
    (3, ([0, 1, 1, 1, 2, 1], [1, 4, 3, 2, 3, 1]), "an order-2 interval has neither 1 nor 2"),
])
def test_farey_tree_integrity_checks_fire(monkeypatch: pytest.MonkeyPatch, m: int, terms,
                                          message: str) -> None:
    real = trees.farey_terms

    def faulty(order):
        return tuple(np.array(t, dtype=np.int64) for t in terms) if order == m else real(order)

    monkeypatch.setattr(trees, "farey_terms", faulty)
    with pytest.raises(AssertionError, match=message):
        build_farey_tree(4)


def test_gen_and_farey_child_offsets_are_equal() -> None:
    gen, far = build_gen_tree(40), build_farey_tree(40)
    assert len(gen.offsets) == len(far.offsets) == 40
    for m, (a, b) in enumerate(zip(gen.offsets, far.offsets), start=1):
        assert np.array_equal(a, b), m


def test_trees_reject_nonpositive_depth() -> None:
    with pytest.raises(ValueError, match="depth must be positive"):
        build_gen_tree(0)
    with pytest.raises(ValueError, match="depth must be positive"):
        build_farey_tree(0)


def test_trees_reject_depth_above_2000() -> None:
    for build in (build_gen_tree, build_farey_tree, check_isomorphism):
        with pytest.raises(ValueError, match="^depth 2001 exceeds the supported ceiling 2000$"):
            build(2001)


def test_check_isomorphism_passes() -> None:
    records = check_isomorphism(8)
    assert records
    assert all(r["passed"] for r in records)
    checks = {r["check"] for r in records}
    assert "substituted level equals generation level, in order" in checks
    assert "edge lists agree node-by-node" in checks
    assert any("interval division" in c for c in checks)


def test_farey_rows_are_the_generation_levels_in_order() -> None:
    for m, (level, _, _) in enumerate(iter_levels(120), start=1):
        assert np.array_equal(level.rows(), suranyi_table(m).as_array()), m


def _swap_rows(level, parent_index, tags):
    # swap the (first, last) pairs of rows 0 and 1
    return Level(level.m, level.first[[1, 0, *range(2, len(level))]],
                 level.last[[1, 0, *range(2, len(level))]]), parent_index, tags


def _flip_tags(level, parent_index, tags):
    tags = tags.copy()
    left = int(np.argmax(tags == TAG_LEFT))
    tags[left], tags[left + 1] = TAG_RIGHT, TAG_LEFT
    return level, parent_index, tags


def _move_parent(level, parent_index, tags):
    # hand the first child of parent 1 to parent 0
    parent_index = parent_index.copy()
    parent_index[int(np.argmax(parent_index == 1))] = 0
    return level, parent_index, tags


def _drop_row(level, parent_index, tags):
    return Level(level.m, level.first[:-1], level.last[:-1]), parent_index[:-1], tags[:-1]


@pytest.mark.parametrize("fault, degree, failing", [
    (_swap_rows, 6, "substituted level equals generation level, in order"),
    (_flip_tags, 6, "interval division at branching/non-branching parents"),
    (_move_parent, 5, "edge lists agree node-by-node"),
    # a leaf level one row short has no edges, but its widths disagree
    (_drop_row, 8, "edge lists agree node-by-node"),
])
def test_check_isomorphism_reports_injected_faults(
    monkeypatch: pytest.MonkeyPatch, fault, degree: int, failing: str
) -> None:
    real = trees.iter_levels

    def faulty(M):
        for m, out in enumerate(real(M), start=1):
            yield fault(*out) if m == max(degree, 6) else out

    monkeypatch.setattr(trees, "iter_levels", faulty)
    records = check_isomorphism(8)
    failed = {(r["m"], r["check"]) for r in records if not r["passed"]}
    assert (degree, failing) in failed
    assert len(records) == 3 * 8 - 1


def test_check_isomorphism_names_the_split_that_moved(monkeypatch: pytest.MonkeyPatch) -> None:
    real = trees.iter_levels

    def faulty(M):
        for m, out in enumerate(real(M), start=1):
            yield _flip_tags(*out) if m == 3 else out

    monkeypatch.setattr(trees, "iter_levels", faulty)
    division = [r for r in check_isomorphism(4) if not r["passed"]]
    # the first branching parent at degree 2 is 12, on (0/1, 1/2); its split is 1/3
    assert division == [{"m": 3, "check": "interval division at branching/non-branching parents",
                         "passed": False, "detail": "split of (0/1, 1/2) is not at 1/3"}]


def _swap_single_children(level, parent_index, tags):
    # the only children of the first two non-branching parents trade parents
    parent_index = parent_index.copy()
    a, b = np.flatnonzero(tags == TAG_SINGLE)[:2]
    parent_index[[a, b]] = parent_index[[b, a]]
    return level, parent_index, tags


def test_check_isomorphism_names_the_single_child_that_moved(
        monkeypatch: pytest.MonkeyPatch) -> None:
    real = trees.iter_levels

    def faulty(M):
        for m, out in enumerate(real(M), start=1):
            yield _swap_single_children(*out) if m == 4 else out

    monkeypatch.setattr(trees, "iter_levels", faulty)
    division = [r for r in check_isomorphism(4) if r["check"].startswith("interval division")]
    # 231 on (1/3, 1/2) and 213 on (1/2, 2/3) do not branch at degree 4; the
    # only child of (1/3, 1/2) is now the one on (1/2, 2/3)
    assert division[-1] == {"m": 4, "check": "interval division at branching/non-branching parents",
                            "passed": False, "detail": "single child of (1/3, 1/2) moved"}
    assert all(r["passed"] for r in division[:-1])


def test_division_names_a_branching_parent_without_singleton_difference_set() -> None:
    (v3, _, _), (_, parent_index, tags) = list(iter_levels(4))[2:]
    rows = v3.rows().copy()
    k = int(parent_index[tags != TAG_SINGLE][0])
    # differences 2 and 3 mod 4: no singleton difference set
    rows[k] = (1, 3, 2)
    assert trees._division(4, rows, parent_index, tags, suranyi_table(3), suranyi_table(4)) == (
        False, "branching parent 132 lacks singleton difference set")


def _degree_4_division_inputs():
    """_division's arguments at degree 4, but m: the rows, edges and tags of
    the lifted levels 3 and 4, and the order-3 and order-4 tables.  Parent 0
    is 123 on (0/1, 1/3); its (0)-child is on (0/1, 1/4), its (1)-child on
    (1/4, 1/3)."""
    (v3, _, _), (_, parent_index, tags) = list(iter_levels(4))[2:]
    children = suranyi_table(4)
    assert (parent_index[:2].tolist(), tags[:2].tolist()) == ([0, 0], [TAG_LEFT, TAG_RIGHT])
    assert (children.num[:3].tolist(), children.den[:3].tolist()) == ([0, 1, 1], [1, 4, 3])
    return v3.rows(), parent_index, tags, suranyi_table(3), children


def test_division_refuses_a_0_child_that_keeps_its_parents_interval() -> None:
    # the order-4 table without the term 1/4, the generation side without the
    # (1)-child of 123: the (0)-child then spans (0/1, 1/3), its left end
    # kept but its right end not the split
    rows, parent_index, tags, parents, children = _degree_4_division_inputs()
    table = SuranyiTable(4, np.delete(children.num, 1), np.delete(children.den, 1),
                         np.delete(children.as_array(), 1, axis=0))
    assert trees._division(4, rows, np.delete(parent_index, 1), np.delete(tags, 1), parents,
                           table) == (False, "split of (0/1, 1/3) is not at 1/4")


def test_division_refuses_a_1_child_whose_left_end_is_not_over_m() -> None:
    # the order-4 table with the term 1/3 twice, the generation side with a
    # second (1)-child of 123 on the empty interval (1/3, 1/3): its left end
    # has the split's numerator 1, over 3 and not over 4
    rows, parent_index, tags, parents, children = _degree_4_division_inputs()
    num, den = (np.insert(a, 2, a[2]) for a in (children.num, children.den))
    table = SuranyiTable(4, num, den, np.insert(children.as_array(), 2, children.as_array()[1], axis=0))
    assert trees._division(4, rows, np.insert(parent_index, 2, 0), np.insert(tags, 2, TAG_RIGHT),
                           parents, table) == (False, "split of (0/1, 1/3) is not at 1/4")


def test_check_isomorphism_holds_two_levels(monkeypatch: pytest.MonkeyPatch) -> None:
    real = trees.iter_levels
    held = []

    def watched(M):
        refs = []
        for level, parent_index, tags in real(M):
            held.append(sum(ref() is not None for ref in refs))
            refs.append(weakref.ref(level))
            yield level, parent_index, tags

    # the decoded rows, not the (first, last) levels, hold the bytes
    decoded = []
    rows_held = []
    real_rows = Level.rows

    def watched_rows(level, *args):
        rows_held.append(sum(ref() is not None for ref in decoded))
        rows = real_rows(level, *args)
        decoded.append(weakref.ref(rows))
        return rows

    monkeypatch.setattr(trees, "iter_levels", watched)
    monkeypatch.setattr(Level, "rows", watched_rows)
    assert all(r["passed"] for r in check_isomorphism(30))
    # when level m arrives, only level m - 1 is still held
    assert max(held) == 1
    assert len(rows_held) == 30 and max(rows_held) == 1


def test_export_dot_gen_tree() -> None:
    tree = build_gen_tree(3)
    dot = export_tree(tree, format="dot")
    assert dot.startswith("digraph")
    assert dot.endswith("}")
    assert 'n1_0 [label="1"];' in dot
    assert 'n2_0 [label="12^(0)"];' in dot
    assert "n2_0 -> n3_0;" in dot
    assert export_tree(tree, format="dot") == dot


def test_export_dot_with_y_levels() -> None:
    tree = build_gen_tree(3)
    dot = export_tree(tree, format="dot", with_y_levels=True)
    assert 'y1_0 [label="12"];' in dot
    assert "n1_0 -> y1_0;" in dot
    assert "y1_0 -> n2_0;" in dot
    with pytest.raises(ValueError, match="only applies to the generation tree"):
        export_tree(build_farey_tree(3), format="dot", with_y_levels=True)


def test_export_json_round_trips() -> None:
    gen_doc = json.loads(export_tree(build_gen_tree(4), format="json"))
    far_doc = json.loads(export_tree(build_farey_tree(4), format="json"))
    assert isinstance(gen_doc, dict)
    assert isinstance(far_doc, dict)
    with pytest.raises(ValueError, match="format must be"):
        export_tree(build_gen_tree(2), format="yaml")


def test_write_tree_refuses_an_unknown_format_before_writing() -> None:
    writes: list[str] = []
    with pytest.raises(ValueError, match="format must be"):
        write_tree(writes.append, build_gen_tree(2), format="yaml")
    assert writes == []


def test_export_json_gen_matches_golden_leaves() -> None:
    doc = json.loads(export_tree(build_gen_tree(6), format="json"))

    leaves: list[str] = []

    def _walk(node: dict) -> None:
        if not node["children"]:
            leaves.append(node["label"])
        for kid in node["children"]:
            _walk(kid)

    _walk(doc)
    assert leaves == GOLDEN_LEVELS[-1]


def _nested_reference(tree: Tree, ys: list[list[str] | None]) -> dict:
    """The root as a dict of label, tag and children, built from the leaves up."""
    below: list[dict] = []
    for labels, tags, offsets, y in reversed(list(zip(tree.levels, tree.tags, tree.offsets, ys))):
        offsets = offsets.tolist()
        nodes = []
        for i, (label, tag) in enumerate(zip(labels, tags.tolist())):
            kids = below[offsets[i]:offsets[i + 1]]
            if y is not None:
                kids = [{"label": y[i], "tag": None, "children": kids}]
            nodes.append({"label": label, "tag": None if tag == TAG_SINGLE else f"({tag})",
                          "children": kids})
        below = nodes
    return below[0]


@pytest.mark.parametrize("depth", range(1, 31))
def test_export_json_equals_json_dumps_of_the_nested_root(depth: int) -> None:
    built = {"gen": build_gen_tree(depth), "farey": build_farey_tree(depth)}
    for kinds in (("gen",), ("farey",), ("gen", "farey"), ("farey", "gen")):
        for with_y_levels in (False, True) if "gen" in kinds else (False,):
            chosen = [built[kind] for kind in kinds]
            docs = {tree.kind: _nested_reference(tree, trees._y_labels(tree) if with_y_levels
                                                 and tree.rows else [None] * depth)
                    for tree in chosen}
            doc = docs[kinds[0]] if len(kinds) == 1 else docs
            out = export_tree(*chosen, format="json", with_y_levels=with_y_levels)
            assert json.loads(out) == doc
            # json.dumps(indent=2) is pure Python: every depth to 30 would take
            # about 23 s; test_cli pins the bytes of depth 40 by SHA-256
            if depth <= 20:
                assert out == json.dumps(doc, indent=2)
