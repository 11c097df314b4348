"""The generation tree, the Farey-interval tree, and their isomorphism check.

Level m of the generation tree holds the degree-m class V in construction
order: children of one parent sit next to each other, (0)-child left of
(1)-child, which is the same left-to-right order the interval tree induces.
The isomorphism check replaces every interval with its paired permutation
from the order-m table and asserts literal node-by-node equality, including
edge structure and horizontal order.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .farey import FareyInterval, farey_intervals, format_fraction
from .lifting import TAG_SINGLE, iter_levels
from .perm_core import Permutation, cds, psi_inverse
from .sos import suranyi_table


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


def check_isomorphism(M: int) -> list[dict]:
    """Compare the generation tree with the permutation-substituted interval tree.

    Returns one record per check; failures are records, not exceptions.
    Also verifies the interval-splitting rule: a non-branching parent hands
    its interval to its only child unchanged, a branching parent splits at
    the new fraction a/m determined by the parent's difference set.
    """
    gen = build_gen_tree(M)
    far = build_farey_tree(M)
    records = []

    def record(m: int, check: str, passed: bool, detail: str = "") -> None:
        records.append({"m": m, "check": check, "passed": passed, "detail": detail})

    for m in range(1, M + 1):
        gen_level = gen.levels[m - 1]
        far_level = far.levels[m - 1]
        substituted = suranyi_table(m).permutations()
        same_nodes = len(gen_level) == len(far_level) == len(substituted) and all(
            node.perm == perm for node, perm in zip(gen_level, substituted)
        )
        record(m, "substituted level equals generation level, in order", same_nodes,
               f"width {len(gen_level)}")
        same_edges = len(gen_level) == len(far_level) and all(
            g.children == f.children for g, f in zip(gen_level, far_level)
        )
        record(m, "edge lists agree node-by-node", same_edges)

    for m in range(2, M + 1):
        parents_gen = gen.levels[m - 2]
        parents_far = far.levels[m - 2]
        child_far = far.levels[m - 1]
        ok = True
        detail = ""
        for g_node, f_node in zip(parents_gen, parents_far):
            kid_ivs = [child_far[j].interval for j in f_node.children]
            if len(kid_ivs) == 1:
                if (kid_ivs[0].lo, kid_ivs[0].hi) != (f_node.interval.lo, f_node.interval.hi):
                    ok, detail = False, f"single child of {f_node.interval} moved"
                    break
            else:
                residues = cds(psi_inverse(g_node.perm))
                if len(residues) != 1:
                    ok, detail = False, f"branching parent {g_node.perm} lacks singleton difference set"
                    break
                a = next(iter(residues))
                split = Fraction(a, m)
                left, right = kid_ivs
                if not (
                    left.lo == f_node.interval.lo
                    and left.hi == split == right.lo
                    and right.hi == f_node.interval.hi
                ):
                    ok, detail = False, f"split of {f_node.interval} is not at {split}"
                    break
        record(m, "interval division at branching/non-branching parents", ok, detail)
    return records


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
