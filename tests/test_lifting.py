from __future__ import annotations

import ast
import itertools
from math import gcd
from pathlib import Path

import numpy as np
import pytest

from soslift import lifting
from soslift.farey import totients, totient_sum
from soslift.lifting import (
    FORCE_THRESHOLD,
    MAX_LIFT_DEGREE,
    TAG_LEFT,
    TAG_RIGHT,
    TAG_SINGLE,
    generate_up_to,
    iter_levels,
    lift_fibers,
    lift_once,
    lift_to,
    project,
)
from soslift.perm_core import (
    MAX_DEGREE,
    PermClass,
    Permutation,
    _dtype_for,
    cds,
    in_V,
    psi_inverse,
    shift,
)
from soslift.perm_sets import enumerate_class
from soslift.sos import theta_ab


def _p(text: str) -> Permutation:
    return Permutation.parse(text)


def test_lift_fibers_from_degree_one() -> None:
    parents = np.array([[1]], dtype=np.uint8)
    children, parent_index, tags = lift_fibers(parents)
    assert children.tolist() == [[1, 2], [2, 1]]
    assert parent_index.tolist() == [0, 0]
    assert tags.tolist() == [TAG_LEFT, TAG_RIGHT]


def test_lift_fibers_branching_structure() -> None:
    parents = enumerate_class("V", 4).as_array()
    children, parent_index, tags = lift_fibers(parents)
    m = 5
    assert children.shape == (totient_sum(m), m)
    assert parent_index.tolist() == sorted(parent_index.tolist())
    counts = np.bincount(parent_index, minlength=len(parents))
    assert set(counts.tolist()) <= {1, 2}
    assert int((counts == 2).sum()) == totients(m)[m]
    for row, tag in zip(children, tags):
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
        _, parent_index, _ = lift_fibers(parents)
        counts = np.bincount(parent_index, minlength=len(parents))
        for row, n_children in zip(parents, counts):
            parent = Permutation(tuple(int(x) for x in row))
            lifted = psi_inverse(parent)
            if n_children == 2:
                assert len(cds(lifted)) == 1
            else:
                assert len(cds(lifted)) == 2


def test_lift_fibers_children_are_the_shifts_of_theta() -> None:
    """Exhaustive over S_1..S_7: the kernel accepts exactly V, and each child is
    psi_inverse(pi) shifted by a - 1 ((0)-child) or by a (last child)."""
    for n in range(1, 8):
        for values in itertools.permutations(range(1, n + 1)):
            parent = Permutation(values)
            theta = psi_inverse(parent)
            rows = np.array([values], dtype=np.uint8)
            if not in_V(parent):
                with pytest.raises(ValueError, match="not the class V"):
                    lift_fibers(rows)
                continue
            children, parent_index, tags = lift_fibers(rows)
            assert parent_index.tolist() == [0] * len(children)
            a = min(cds(theta))
            for row, tag in zip(children.tolist(), tags.tolist()):
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
    children, parent_index, tags = lift_fibers(rows.astype(_dtype_for(prev_m)))
    assert children.dtype == _dtype_for(m)
    assert children.shape[1] == m
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


def test_lift_once_matches_brute_force() -> None:
    for m in range(2, 9):
        prev = enumerate_class("V", m - 1)
        assert lift_once(prev) == enumerate_class("V", m)


def test_lift_fibers_rejects_non_member_rows() -> None:
    bad = np.array([[1, 3, 2, 4]], dtype=np.uint8)
    with pytest.raises(ValueError, match="not the class V"):
        lift_fibers(bad)
    with pytest.raises(ValueError, match="2-d parent array"):
        lift_fibers(np.array([1, 2], dtype=np.uint8))
    with pytest.raises(ValueError, match="exceeds the supported ceiling"):
        lift_fibers(np.arange(1, MAX_DEGREE + 1, dtype=np.uint16)[None, :])


def test_lift_once_rejects_planted_non_member() -> None:
    planted = PermClass("V", 4, [_p("1324")])
    with pytest.raises(ValueError, match="neither a singleton nor a consecutive pair"):
        lift_once(planted)


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
    with pytest.raises(ValueError, match="not supported"):
        generate_up_to(MAX_LIFT_DEGREE + 1, force=True)


def test_iter_levels_matches_generate_up_to_row_for_row() -> None:
    levels = list(iter_levels(12))
    assert len(levels) == 12
    level, parent_index, tags = levels[0]
    assert level.tolist() == [[1]]
    assert parent_index.tolist() == [0]
    assert tags.tolist() == [TAG_SINGLE]
    for m, ((level, parent_index, tags), kept) in enumerate(zip(levels, generate_up_to(12)), start=1):
        assert kept == PermClass.from_array("V", m, level)
        assert len(parent_index) == len(tags) == len(level)
    for (parents, _, _), (children, parent_index, tags) in zip(levels, levels[1:]):
        expected = lift_fibers(parents)
        assert np.array_equal(children, expected[0])
        assert np.array_equal(parent_index, expected[1])
        assert np.array_equal(tags, expected[2])


def test_lift_to_matches_brute_force() -> None:
    for m in range(1, 9):
        lifted = lift_to(m)
        assert lifted.m == m
        assert lifted == enumerate_class("V", m)


def test_iter_levels_and_lift_to_guards() -> None:
    levels = iter_levels(FORCE_THRESHOLD + 1)  # the guard runs on the first next()
    with pytest.raises(ValueError, match="needs force"):
        next(levels)
    with pytest.raises(ValueError, match="target degree must be positive"):
        lift_to(0)
    with pytest.raises(ValueError, match=r"needs force=True \(soslift lift --force\)"):
        lift_to(FORCE_THRESHOLD + 1)
    with pytest.raises(ValueError, match="not supported"):
        lift_to(MAX_LIFT_DEGREE + 1, force=True)


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
