"""The generation tree, the Farey-interval tree, and their isomorphism check.

Level m of the generation tree holds the degree-m class V in construction
order: children of one parent sit next to each other, (0)-child left of
(1)-child, which is the same left-to-right order the interval tree induces.
Both trees are a Tree of labels, tags and child offsets built from integer
arrays, and write_tree writes either or both, as DOT or JSON, in pieces
through one write function, so the document is never held whole;
export_tree joins those pieces into one str.  The isomorphism check
replaces every interval with its paired permutation from the order-m table
and asserts literal node-by-node equality, including edge structure and
horizontal order.  It streams the lifted levels and compares integer
arrays, so it builds neither tree.
"""
from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

# sos.suranyi_table is read at call time, not bound by name: a name bound
# while a caller had wrapped the function (as the benchmark's tracer does)
# would keep the wrapper after the caller restored the original
from . import sos
from .farey import farey_labels, farey_terms
from .lifting import MAX_LIFT_DEGREE, TAG_LEFT, TAG_RIGHT, TAG_SINGLE, iter_levels
from .perm_core import add_record, check_degree, format_rows
from .sos import SuranyiTable


@dataclass(frozen=True, eq=False)
class Tree:
    """A plane tree stored level by level, from the root at level 1 to depth M.

    levels[m-1] holds the labels of the level-m nodes, left to right, and
    tags[m-1] their TAG_* values.  Node i of level m has the children
    offsets[m-1][i] .. offsets[m-1][i+1]-1 of level m+1; the leaf level's
    offsets are all 0.  rows[m-1] holds the generation tree's degree-m rows,
    from which the lifted rows (1, pi+1) are labelled; the interval tree has
    no rows.
    """

    kind: str
    M: int
    levels: tuple[list[str], ...]
    tags: tuple[np.ndarray, ...]
    offsets: tuple[np.ndarray, ...]
    rows: tuple[np.ndarray, ...] = ()


_LEAVES = np.zeros(0, dtype=np.int64)  # the parent index below the last level


def _offsets(parent_index: np.ndarray, n: int) -> np.ndarray:
    """Offsets of the children of n parents, from the children's sorted parent_index."""
    return np.searchsorted(parent_index, np.arange(n + 1))


def _farey_parents(m: int, den: np.ndarray) -> np.ndarray:
    """Each order-m interval's parent: the order-(m-1) terms (denominator < m)
    up to its left endpoint, counted, less one."""
    return np.cumsum(den[:-1] < m) - 1


def _contained(pnum: np.ndarray, pden: np.ndarray, num: np.ndarray, den: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Whether lo_parent <= lo_child and hi_child <= hi_parent, cross-multiplied."""
    return ((pnum[parent] * den[:-1] <= num[:-1] * pden[parent])
            & (num[1:] * pden[parent + 1] <= pnum[parent + 1] * den[1:]))


def build_gen_tree(M: int) -> Tree:
    """Lift level by level from the single degree-1 node."""
    check_degree(M, MAX_LIFT_DEGREE, "depth")
    levels, parents, tags = zip(*iter_levels(M))
    offsets = tuple(_offsets(p, len(level)) for level, p in zip(levels, parents[1:] + (_LEAVES,)))
    rows = tuple(level.rows() for level in levels)
    labels = tuple(format_rows(r, m, "oneline").splitlines() for m, r in enumerate(rows, start=1))
    return Tree("gen", M, labels, tags, offsets, rows)


def build_farey_tree(M: int) -> Tree:
    """Level m lists the order-m intervals left to right; edges are containment."""
    check_degree(M, MAX_LIFT_DEGREE, "depth")
    terms = [farey_terms(m) for m in range(1, M + 1)]
    parents = [_farey_parents(m, den) for m, (_, den) in enumerate(terms[1:], start=2)]
    offsets = tuple(_offsets(p, len(den) - 1) for (_, den), p in zip(terms, parents + [_LEAVES]))
    for m, ((pnum, pden), (num, den), parent, first) in enumerate(
            zip(terms, terms[1:], parents, offsets), start=2):
        if first[0] != 0 or first[-1] != len(parent):
            raise AssertionError(f"unassigned order-{m} intervals remain")
        if not _contained(pnum, pden, num, den, parent).all():
            raise AssertionError(f"an order-{m} interval escapes its parent")
        if not np.isin(np.diff(first), (1, 2)).all():
            raise AssertionError(f"an order-{m - 1} interval has neither 1 nor 2 children")
    levels = tuple(farey_labels(num, den)[1] for num, den in terms)
    tags = tuple(np.full(len(level), TAG_SINGLE, dtype=np.int8) for level in levels)
    return Tree("farey", M, levels, tags, offsets)


def _same_edges(m: int, parent_index: np.ndarray, parents: SuranyiTable,
                children: SuranyiTable) -> bool:
    """Generation edges into level m equal interval containment, as integer arrays."""
    far_index = _farey_parents(m, children.den)
    return bool(np.array_equal(parent_index, far_index)
                and _contained(parents.num, parents.den, children.num, children.den,
                               far_index).all())


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
    interval = farey_labels(pnum[k:k + 2], pden[k:k + 2])[1][0]
    if not branching[k]:
        return False, f"single child of {interval} moved"
    if no_singleton[k]:
        perm = format_rows(parent_rows[k:k + 1], m - 1, "oneline").splitlines()[0]
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
    check_degree(M, MAX_LIFT_DEGREE, "depth")
    records: list[dict] = []
    divisions: list[dict] = []
    prev_level = prev_table = None
    for m, (lifted, parent_index, tags) in enumerate(iter_levels(M), start=1):
        level = lifted.rows()
        table = sos.suranyi_table(m)
        if prev_table is not None:
            same_width = len(prev_level) == len(prev_table.as_array())
            add_record(records, m - 1, "edge lists agree node-by-node",
                       same_width and _same_edges(m, parent_index, prev_table, table))
            add_record(divisions, m, "interval division at branching/non-branching parents",
                       *_division(m, prev_level, parent_index, tags, prev_table, table))
        add_record(records, m, "substituted level equals generation level, in order",
                   np.array_equal(level, table.as_array()), f"width {len(level)}")
        prev_level, prev_table = level, table
    add_record(records, M, "edge lists agree node-by-node",
               len(prev_level) == len(prev_table.as_array()))
    return records + divisions


def _tagged(label: str, tag: int) -> str:
    return label if tag == TAG_SINGLE else f"{label}^({tag})"


def _y_labels(tree: Tree) -> list[list[str] | None]:
    """Per level, the labels of the lifted rows (1, pi+1); none below the leaves."""
    lifted = (np.pad(rows.astype(np.int64) + 1, ((0, 0), (1, 0)), constant_values=1)
              for rows in tree.rows[:-1])  # one level's int64 rows at a time
    return [format_rows(theta, m + 1, "oneline").splitlines()
            for m, theta in enumerate(lifted, start=1)] + [None]


def _dot(tree: Tree, ys: list[list[str] | None], lead: str, out: list[str],
         flush: Callable[[], None]) -> None:
    """Append the tree's DOT graph to out, one line a piece, each line after
    the first preceded by a newline and the first by lead, calling flush()
    after each level of nodes and each level of edges."""
    out += (lead + "digraph tree {", "\n  node [shape=box];")
    for m, (labels, tags) in enumerate(zip(tree.levels, tree.tags), start=1):
        out += [f'\n  n{m}_{i} [label="{_tagged(label, tag)}"];'
                for i, (label, tag) in enumerate(zip(labels, tags.tolist()))]
        flush()
    for m, (offsets, y) in enumerate(zip(tree.offsets[:-1], ys), start=1):
        offsets = offsets.tolist()
        for i, (a, b) in enumerate(zip(offsets, offsets[1:])):
            src = f"n{m}_{i}"
            if y is not None:
                out += (f'\n  y{m}_{i} [label="{y[i]}"];', f"\n  {src} -> y{m}_{i};")
                src = f"y{m}_{i}"
            out += [f"\n  {src} -> n{m + 1}_{j};" for j in range(a, b)]
        flush()
    out.append("\n}")


_JSON_TAGS = {TAG_SINGLE: "null", TAG_LEFT: '"(0)"', TAG_RIGHT: '"(1)"'}


@dataclass(frozen=True)
class _Fragments:
    """The fixed text around a node at one JSON nesting depth, as json.dumps(indent=2) writes it."""

    open: str    # up to the label's opening quote
    tag: str     # from the label's closing quote up to the tag
    leaf: str    # an empty children list and the closing brace
    branch: str  # up to the first child
    sep: str     # between two children
    close: str   # after the last child

    @classmethod
    def at(cls, depth: int) -> "_Fragments":
        p, q, r = ("  " * d for d in (depth, depth + 1, depth + 2))
        return cls(f'{{\n{q}"label": "', f'",\n{q}"tag": ', f',\n{q}"children": []\n{p}}}',
                   f',\n{q}"children": [\n{r}', f",\n{r}", f"\n{q}]\n{p}}}")


# write_tree writes the pending JSON text once it holds more pieces than this,
# and the DOT text once per level
PIECES = 8192


def _json_pieces(tree: Tree, ys: list[list[str] | None], depth: int, out: list[str],
                 flush: Callable[[], None]) -> None:
    """Append the text of the tree's nested root, written at JSON nesting depth
    depth, to out, calling flush() before a node whenever out holds more than
    PIECES pieces.

    Every node of one level, and every y-node below it, sits at one nesting
    depth, so each level's fixed text is built once.  Labels hold only
    digits, spaces, parentheses, commas and slashes, which JSON quotes
    without escapes.  An explicit stack of pending nodes and closing text
    walks the offsets in pre-order, so no depth meets a recursion limit.
    """
    frags, yfrags = [], []
    for y in ys:
        frags.append(_Fragments.at(depth))
        yfrags.append(_Fragments.at(depth + 2))
        depth += 2 if y is None else 4
    offsets = [o.tolist() for o in tree.offsets]
    tags = [t.tolist() for t in tree.tags]
    stack: list = [(0, 0, False)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            out.append(item)
            continue
        if len(out) > PIECES:
            flush()
        k, i, is_y = item
        if is_y:
            f, label, tag = yfrags[k], ys[k][i], "null"
        else:
            f, label, tag = frags[k], tree.levels[k][i], _JSON_TAGS[tags[k][i]]
        if ys[k] is None or is_y:
            kids = [(k + 1, j, False) for j in range(offsets[k][i], offsets[k][i + 1])]
        else:
            kids = [(k, i, True)]
        out += (f.open, label, f.tag, tag)
        if not kids:
            out.append(f.leaf)
            continue
        out.append(f.branch)
        stack.append(f.close)
        for kid in reversed(kids[1:]):
            stack += (kid, f.sep)
        stack.append(kids[0])


def _y_levels(trees: tuple[Tree, ...], with_y_levels: bool) -> list[list[list[str] | None]]:
    """Per tree, the labels of its lifted rows per level when with_y_levels, else Nones."""
    if with_y_levels and not any(tree.rows for tree in trees):
        raise ValueError("with_y_levels only applies to the generation tree")
    return [_y_labels(tree) if with_y_levels and tree.rows else [None] * tree.M for tree in trees]


def write_tree(write: Callable[[str], object], *trees: Tree, format: str = "dot",
               with_y_levels: bool = False) -> None:
    """Write the trees through write, in pieces: as DOT graphs, one after
    another, or as one JSON document.

    One tree's JSON document is its nested root; several trees are nested
    under their kinds.  with_y_levels puts the lifted row (1, pi+1) between
    each generation-tree node pi and its children.  Each call to write takes
    one level of DOT lines, or the text of about PIECES JSON pieces, so the
    document is never held whole.  An unknown format raises ValueError
    before anything is written.
    """
    if format not in ("dot", "json"):
        raise ValueError(f"format must be 'dot' or 'json', got {format!r}")
    ys = _y_levels(trees, with_y_levels)
    out: list[str] = []

    def flush() -> None:
        write("".join(out))
        out.clear()

    if format == "dot":
        for n, (tree, y) in enumerate(zip(trees, ys)):
            _dot(tree, y, "\n" if n else "", out, flush)
    elif len(trees) == 1:
        _json_pieces(trees[0], ys[0], 0, out, flush)
    else:
        by_kind = {tree.kind: (tree, y) for tree, y in zip(trees, ys)}
        for n, (kind, (tree, y)) in enumerate(by_kind.items()):
            out.append(f',\n  "{kind}": ' if n else f'{{\n  "{kind}": ')
            _json_pieces(tree, y, 1, out, flush)
        out.append("\n}" if by_kind else "{}")
    flush()


def export_tree(*trees: Tree, format: str = "dot", with_y_levels: bool = False) -> str:
    """write_tree's document of the trees, its writes joined into one str,
    which is held whole along with the trees and the pieces."""
    pieces: list[str] = []
    write_tree(pieces.append, *trees, format=format, with_y_levels=with_y_levels)
    return "".join(pieces)
