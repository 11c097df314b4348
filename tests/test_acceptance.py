"""Acceptance gate: one test and one printed PASS/FAIL line per criterion.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Every comparison is exact; no tolerances appear anywhere.
"""
from __future__ import annotations

import functools
import random
import time

import numpy as np

from soslift.farey import totient_sum, totients
from soslift.lifting import Level, generate_up_to, lift_fibers
from soslift.perm_core import PermClass, Permutation, shift_closure
from soslift.perm_sets import enumerate_class
from soslift.sos import suranyi_table, verify_invariants
from soslift.trees import build_gen_tree, check_isomorphism

from oracles import inverse, satisfies_sos_recurrence

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


@functools.lru_cache(maxsize=None)
def _brute(label: str, m: int) -> PermClass:
    return enumerate_class(label, m, method="brute")


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion} {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_class_v_cardinality_by_brute_force() -> None:
    start = time.perf_counter()
    counts = {m: len(_brute("V", m)) for m in range(2, 9)}
    elapsed = time.perf_counter() - start
    expected = {m: totient_sum(m) for m in range(2, 9)}
    ok = counts == expected and counts[6] == 12 and elapsed < 60.0
    _report(1, ok, f"|V_m| = sum of totients for m=2..8 {counts} in {elapsed:.2f}s")
    assert counts == expected
    assert counts[6] == 12
    assert elapsed < 60.0


def test_criterion_02_shift_closure_cardinality_by_brute_force() -> None:
    start = time.perf_counter()
    counts = {m: len(_brute("Y", m)) for m in range(3, 9)}
    elapsed = time.perf_counter() - start
    expected = {m: m * totient_sum(m - 1) for m in range(3, 9)}
    ok = counts == expected and counts[6] == 60 and elapsed < 60.0
    _report(2, ok, f"|Y_m| = m * sum of totients below m for m=3..8 {counts} in {elapsed:.2f}s")
    assert counts == expected
    assert counts[6] == 60
    assert elapsed < 60.0


def test_criterion_03_congruential_class_equals_v_and_sits_inside_y() -> None:
    ok = True
    for m in range(2, 9):
        v, w, y = _brute("V", m), _brute("W", m), _brute("Y", m)
        ok = ok and v == w and set(w) <= set(y)
        if m >= 3:
            ok = ok and len(w) < len(y)
    _report(3, ok, "V_m = W_m and W_m is a proper subclass of Y_m for m=2..8")
    for m in range(2, 9):
        v, w, y = _brute("V", m), _brute("W", m), _brute("Y", m)
        assert v == w
        assert set(w) <= set(y)
        if m >= 3:
            assert len(w) < len(y)


def test_criterion_04_quasi_progressions_equal_shift_closure_of_v() -> None:
    ok = True
    for m in range(2, 9):
        x = _brute("X", m)
        closed = shift_closure(_brute("V", m))
        ok = ok and x == closed
    _report(4, ok, "X_m = shift closure of V_m as exact sets for m=2..8")
    for m in range(2, 9):
        assert _brute("X", m) == shift_closure(_brute("V", m))


def test_criterion_05_lifting_recursion_reproduces_v_exactly() -> None:
    levels = generate_up_to(12)
    ok = True
    for m in range(2, 9):
        ok = ok and levels[m - 1] == _brute("V", m)
    for m in range(2, 13):
        table_col = PermClass("V", m, suranyi_table(m).as_array())
        ok = ok and levels[m - 1] == table_col
    _report(5, ok, "lifted levels equal brute force for m=2..8 and the Farey column for m=2..12")
    for m in range(2, 9):
        assert levels[m - 1] == _brute("V", m)
    for m in range(2, 13):
        assert levels[m - 1] == PermClass("V", m, suranyi_table(m).as_array())


def test_criterion_06_scaling_to_degree_200_with_fiber_census() -> None:
    start = time.perf_counter()
    levels = generate_up_to(200)
    elapsed = time.perf_counter() - start
    size_ok = len(levels[-1]) == totient_sum(200)

    phi = totients(200)
    census_ok = True
    for m in range(2, 201):
        parents = levels[m - 2].as_array()
        _, parent_index, _ = lift_fibers(Level.from_rows(parents))
        counts = np.bincount(parent_index, minlength=len(parents))
        census_ok = census_ok and set(np.unique(counts).tolist()) <= {1, 2}
        census_ok = census_ok and int((counts == 2).sum()) == phi[m]

    ok = elapsed < 10.0 and size_ok and census_ok
    _report(
        6,
        ok,
        f"degree 200 reached in {elapsed:.2f}s, |V_200| = {len(levels[-1])}, "
        "and every level has exactly phi(m) two-child parents",
    )
    assert elapsed < 10.0
    assert len(levels[-1]) == totient_sum(200) == 12232
    assert census_ok


def test_criterion_07_generation_tree_matches_golden_rows() -> None:
    tree = build_gen_tree(6)
    rows = [list(level) for level in tree.levels]
    ok = rows == GOLDEN_LEVELS
    _report(7, ok, "depth-6 generation tree levels match the golden rows left to right")
    assert rows == GOLDEN_LEVELS


def test_criterion_08_tree_isomorphism_with_interval_division() -> None:
    start = time.perf_counter()
    records = check_isomorphism(12)
    elapsed = time.perf_counter() - start
    failed = [r for r in records if not r["passed"]]
    division = [r for r in records if "interval division" in r["check"]]
    ok = not failed and bool(division) and elapsed < 30.0
    _report(
        8,
        ok,
        f"generation, substituted, and interval trees agree node-by-node for "
        f"M=1..12 ({len(records)} checks, {elapsed:.2f}s)",
    )
    assert not failed
    assert division
    assert elapsed < 30.0


def test_criterion_09_closed_formulas_and_boundary_behavior() -> None:
    records = verify_invariants(30, samples=200, seed=1729)
    failed = [r for r in records if not r["passed"]]
    by_check = {r["check"] for r in records}
    ok = not failed and len(by_check) >= 4
    _report(
        9,
        ok,
        f"closed tau formula, first/last terms, projection compatibility, and "
        f"boundary layers verified exactly up to degree 30 ({len(records)} checks)",
    )
    assert not failed
    assert "tau_explicit = tau_from_alpha on random rationals" in by_check
    assert "first/last-term identities" in by_check
    assert "tau around a/m matches the affine layers" in by_check
    assert "psi(gamma(tau_m)) = tau_{m-1} at mediants" in by_check


def test_criterion_10_every_v_member_inverts_to_a_recurrence_solution() -> None:
    ok = True
    checked = 0
    for m in range(2, 9):
        for theta in _brute("V", m):
            ok = ok and satisfies_sos_recurrence(inverse(theta))
            checked += 1
    _report(10, ok, f"recurrence holds for the inverse of all {checked} members, m=2..8")
    for m in range(2, 9):
        for theta in _brute("V", m):
            assert satisfies_sos_recurrence(inverse(theta))
