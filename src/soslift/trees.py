"""The generation tree, the Farey-interval tree, and their isomorphism check.

Level m of the generation tree holds the degree-m class V in construction
order: children of one parent sit next to each other, (0)-child left of
(1)-child, which is the same left-to-right order the interval tree induces.
The isomorphism check replaces every interval with its paired permutation
from the order-m table and asserts literal node-by-node equality, including
edge structure and horizontal order.  It streams the lifted levels and
compares integer arrays, so it never builds either tree; GenTree and
FareyTree serve the tree export.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .farey import FareyInterval, farey_intervals
from .lifting import TAG_LEFT, TAG_RIGHT, TAG_SINGLE, iter_levels
from .perm_core import Permutation, format_rows, psi_inverse
from .sos import SuranyiTable, suranyi_table


@dataclass(frozen=True)
class GenNode:
    perm: Permutation
    tag: int | None
    children: tuple[int, ...]


@dataclass(frozen=True)
class GenTree:
    M: int
    levels: tuple[tuple[GenNode, ...], ...]


@dataclass(frozen=True)
class FareyNode:
    interval: FareyInterval
    children: tuple[int, ...]


@dataclass(frozen=True)
class FareyTree:
    M: int
    levels: tuple[tuple[FareyNode, ...], ...]


def build_gen_tree(M: int) -> GenTree:
    """Lift level by level from the single degree-1 node."""
    if M < 1:
        raise ValueError(f"depth must be positive, got {M}")
    arrays: list[np.ndarray] = []
    tags_per_level: list[np.ndarray] = []
    kids_per_level: list[list[tuple[int, ...]]] = []
    for level, parent_index, tags in iter_levels(M, force=True):
        if arrays:
            # parent_index is sorted: parent j's children are offsets[j]..offsets[j+1]-1
            offsets = np.searchsorted(parent_index, np.arange(arrays[-1].shape[0] + 1))
            kids_per_level.append([tuple(range(a, b)) for a, b in zip(offsets[:-1], offsets[1:])])
        arrays.append(level)
        tags_per_level.append(tags)
    kids_per_level.append([() for _ in range(arrays[-1].shape[0])])

    levels = []
    for arr, tags, kids in zip(arrays, tags_per_level, kids_per_level):
        nodes = tuple(
            GenNode(Permutation(row), None if t == TAG_SINGLE else int(t), child_idx)
            for row, t, child_idx in zip(arr.tolist(), tags.tolist(), kids)
        )
        levels.append(nodes)
    return GenTree(M, tuple(levels))


def build_farey_tree(M: int) -> FareyTree:
    """Level m lists the order-m intervals left to right; edges are containment."""
    if M < 1:
        raise ValueError(f"depth must be positive, got {M}")
    interval_levels = [farey_intervals(m) for m in range(1, M + 1)]
    levels: list[tuple[FareyNode, ...]] = []
    for m_idx, intervals in enumerate(interval_levels):
        if m_idx + 1 == M:
            levels.append(tuple(FareyNode(iv, ()) for iv in intervals))
            break
        nxt = interval_levels[m_idx + 1]
        nodes = []
        j = 0
        for iv in intervals:
            kids = []
            while j < len(nxt) and nxt[j].hi <= iv.hi:
                if nxt[j].lo < iv.lo:
                    raise AssertionError(f"interval {nxt[j]} escapes parent {iv}")
                kids.append(j)
                j += 1
            if not 1 <= len(kids) <= 2:
                raise AssertionError(f"parent {iv} has {len(kids)} children")
            nodes.append(FareyNode(iv, tuple(kids)))
        if j != len(nxt):
            raise AssertionError("unassigned child intervals remain")
        levels.append(tuple(nodes))
    return FareyTree(M, tuple(levels))


def _same_edges(m: int, parent_index: np.ndarray, parents: SuranyiTable,
                children: SuranyiTable) -> bool:
    """Generation edges into level m equal interval containment, as integer arrays."""
    pnum, pden, num, den = parents.num, parents.den, children.num, children.den
    # an order-m interval's parent: the order-(m-1) terms (denominator < m)
    # among its own and the earlier left endpoints, less one
    far_index = np.cumsum(den[:-1] < m) - 1
    if not np.array_equal(parent_index, far_index):
        return False
    # lo_parent <= lo_child and hi_child <= hi_parent, cross-multiplied
    return bool(((pnum[far_index] * den[:-1] <= num[:-1] * pden[far_index])
                 & (num[1:] * pden[far_index + 1] <= pnum[far_index + 1] * den[1:])).all())


def _division(m: int, parent_rows: np.ndarray, parent_index: np.ndarray, tags: np.ndarray,
              parents: SuranyiTable, children: SuranyiTable) -> tuple[bool, str]:
    """The split rule at level m, on the generation side's tags and edges.

    A single child keeps its parent's interval.  A branching parent pi has
    the difference set {pi(1)}, and its new term is pi(1)/m: the right
    endpoint of its (0)-child and the left endpoint of its (1)-child.
    """
    pnum, pden, num, den = parents.num, parents.den, children.num, children.den
    n = len(parent_rows)
    if (n != len(pnum) - 1 or len(parent_index) != len(num) - 1 or len(tags) != len(parent_index)
            or ((parent_index < 0) | (parent_index >= n)).any()):
        return False, f"generation level {m} does not index the order-{m - 1} intervals"
    first = parent_rows[:, 0].astype(np.int64)
    j, split = parent_index, first[parent_index]
    lo_kept = (num[:-1] == pnum[j]) & (den[:-1] == pden[j])
    hi_kept = (num[1:] == pnum[j + 1]) & (den[1:] == pden[j + 1])
    lo_split = (num[:-1] == split) & (den[:-1] == m)
    hi_split = (num[1:] == split) & (den[1:] == m)
    child_ok = np.select([tags == TAG_SINGLE, tags == TAG_LEFT, tags == TAG_RIGHT],
                         [lo_kept & hi_kept, lo_kept & hi_split, lo_split & hi_kept], False)

    branching = np.zeros(n, dtype=bool)
    branching[j[tags != TAG_SINGLE]] = True
    # theta_pi = (1, pi + 1) has the differences pi(1) and those of pi
    no_singleton = np.zeros(n, dtype=bool)
    residues = np.diff(parent_rows[branching].astype(np.int64), axis=1) % m
    no_singleton[branching] = (residues != first[branching, None]).any(axis=1)
    bad = no_singleton.copy()
    bad[j[~child_ok]] = True
    if not bad.any():
        return True, ""
    k = int(np.argmax(bad))
    interval = parents.interval(k + 1)
    if not branching[k]:
        return False, f"single child of {interval} moved"
    if no_singleton[k]:
        perm = next(format_rows([parent_rows[k].tolist()], m - 1, "oneline"))
        return False, f"branching parent {perm} lacks singleton difference set"
    return False, f"split of {interval} is not at {Fraction(int(first[k]), m)}"


def check_isomorphism(M: int) -> list[dict]:
    """Compare the generation tree with the permutation-substituted interval tree.

    Streams the lifted levels, holding two at a time, against the order-m
    tables, and compares exact integer arrays: each level with the tau rows
    of its table, row for row; the generation edges with interval
    containment; and the interval-splitting rule: a non-branching parent
    hands its interval to its only child unchanged, a branching parent
    splits at the new fraction a/m, a the singleton of its difference set.
    Returns one record per check, every level's records before the
    splitting records; failures are records, not exceptions.
    """
    if M < 1:
        raise ValueError(f"depth must be positive, got {M}")
    records: list[dict] = []
    divisions: list[dict] = []

    def record(out: list[dict], m: int, check: str, passed: bool, detail: str = "") -> None:
        out.append({"m": m, "check": check, "passed": bool(passed), "detail": detail})

    prev_level = prev_table = None
    for m, (level, parent_index, tags) in enumerate(iter_levels(M, force=True), start=1):
        table = suranyi_table(m)
        if prev_table is not None:
            same_width = len(prev_level) == len(prev_table.as_array())
            record(records, m - 1, "edge lists agree node-by-node",
                   same_width and _same_edges(m, parent_index, prev_table, table))
            record(divisions, m, "interval division at branching/non-branching parents",
                   *_division(m, prev_level, parent_index, tags, prev_table, table))
        record(records, m, "substituted level equals generation level, in order",
               np.array_equal(level, table.as_array()), f"width {len(level)}")
        prev_level, prev_table = level, table
    record(records, M, "edge lists agree node-by-node", len(prev_level) == len(prev_table.as_array()))
    return records + divisions


def _gen_label(node: GenNode) -> str:
    if node.tag is None:
        return node.perm.one_line()
    return f"{node.perm.one_line()}^({node.tag})"


def _nested_gen(tree: GenTree, m: int, idx: int, with_y_levels: bool) -> dict:
    node = tree.levels[m - 1][idx]
    kids = [_nested_gen(tree, m + 1, j, with_y_levels) for j in node.children]
    if with_y_levels and kids:
        lifted = psi_inverse(node.perm)
        kids = [{"label": lifted.one_line(), "tag": None, "children": kids}]
    tag = None if node.tag is None else f"({node.tag})"
    return {"label": node.perm.one_line(), "tag": tag, "children": kids}


def _nested_farey(tree: FareyTree, m: int, idx: int) -> dict:
    node = tree.levels[m - 1][idx]
    kids = [_nested_farey(tree, m + 1, j) for j in node.children]
    return {"label": str(node.interval), "tag": None, "children": kids}


def export_tree(tree, format: str = "dot", with_y_levels: bool = False) -> str:
    """Serialize a tree as DOT text or as one nested JSON document."""
    if format not in ("dot", "json"):
        raise ValueError(f"format must be 'dot' or 'json', got {format!r}")
    if with_y_levels and not isinstance(tree, GenTree):
        raise ValueError("with_y_levels only applies to the generation tree")

    if format == "json":
        if isinstance(tree, GenTree):
            return json.dumps(_nested_gen(tree, 1, 0, with_y_levels), indent=2)
        return json.dumps(_nested_farey(tree, 1, 0), indent=2)

    lines = ["digraph tree {", "  node [shape=box];"]
    if isinstance(tree, GenTree):
        for m, level in enumerate(tree.levels, start=1):
            for i, node in enumerate(level):
                lines.append(f'  n{m}_{i} [label="{_gen_label(node)}"];')
        for m, level in enumerate(tree.levels, start=1):
            for i, node in enumerate(level):
                if with_y_levels and node.children:
                    lifted = psi_inverse(node.perm).one_line()
                    lines.append(f'  y{m}_{i} [label="{lifted}"];')
                    lines.append(f"  n{m}_{i} -> y{m}_{i};")
                    for j in node.children:
                        lines.append(f"  y{m}_{i} -> n{m + 1}_{j};")
                else:
                    for j in node.children:
                        lines.append(f"  n{m}_{i} -> n{m + 1}_{j};")
    else:
        for m, level in enumerate(tree.levels, start=1):
            for i, node in enumerate(level):
                lines.append(f'  n{m}_{i} [label="{node.interval}"];')
        for m, level in enumerate(tree.levels, start=1):
            for i, node in enumerate(level):
                for j in node.children:
                    lines.append(f"  n{m}_{i} -> n{m + 1}_{j};")
    lines.append("}")
    return "\n".join(lines)
