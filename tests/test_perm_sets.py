from __future__ import annotations

import itertools
from math import gcd

import numpy as np
import pytest

from soslift import lifting, perm_core, perm_sets
from soslift.farey import totients, totient_sum
from soslift.cli import DEFAULT_MAX_BRUTE_M, ENV_MAX_BRUTE_M, main
from soslift.lifting import lift_level
from soslift.perm_core import PermClass, Permutation, _dtype_for, shift_closure
from soslift.perm_sets import (
    LABELS,
    METHODS,
    _brute,
    _search,
    _sym,
    enumerate_class,
    in_V,
    report_passed,
    verify_theorems,
)
from soslift.sos import suranyi_table

from oracles import (
    in_W,
    in_X,
    in_Y,
    in_Yprime,
    inverse,
    satisfies_sos_recurrence,
    theta_ab,
    x_pair,
    x_pairs_of_v,
    x_rows_by_prefix,
)


def _p(text: str) -> Permutation:
    return Permutation.parse(text)


V4 = ("1234", "2341", "2413", "3142", "3214", "4321")


def test_membership_frozen_examples() -> None:
    assert in_V(_p("2413"))
    assert not in_V(_p("1324"))
    assert in_W(_p("2413"))
    assert not in_W(_p("1324"))
    assert in_Y(_p("1342"))
    assert not in_Y(_p("1243"))
    assert in_X(_p("2413"))
    assert in_X(_p("1324"))
    assert not in_X(_p("1243"))


def test_membership_degenerate_degrees() -> None:
    assert in_V(_p("1"))
    assert in_Y(_p("12"))
    assert in_Y(_p("21"))
    with pytest.raises(ValueError, match="Yprime needs degree >= 3"):
        in_Yprime(_p("21"))


def test_yprime_agrees_with_constant_delta_value() -> None:
    for vals in itertools.permutations(range(1, 6)):
        theta = Permutation(vals)
        assert in_Yprime(theta) == in_Y(theta)


def test_sym_blocks_are_the_symmetric_group_in_order() -> None:
    for m in range(1, 8):
        blocks = list(_sym(m))
        assert len(blocks) == (m if m < 2 else m * (m - 1))
        assert all(b.dtype == np.uint8 and b.shape[1] == m for b in blocks)
        rows = np.concatenate(blocks).tolist()
        assert rows == [list(p) for p in itertools.permutations(range(1, m + 1))]


@pytest.mark.parametrize("m", range(1, 9))
def test_array_predicates_accept_what_the_row_predicates_accept(m: int) -> None:
    perms = [Permutation(p) for p in itertools.permutations(range(1, m + 1))]
    row_tests = {
        "V": in_V,
        "W": in_W,
        "Y": in_Y,
        "Yprime": in_Yprime,
        "X": in_X,
        "SosRec": satisfies_sos_recurrence,
    }
    for label, accepts in row_tests.items():
        # Yprime is defined from degree 3, and the difference set of X from 2
        if (label, m) in (("Yprime", 1), ("Yprime", 2), ("X", 1)):
            continue
        got = _brute(label, m)
        assert got.dtype == np.uint8 and got.shape[1] == m
        assert got.tolist() == [list(p.values) for p in perms if accepts(p)], label


@pytest.mark.parametrize("m", range(1, 9))
def test_one_walk_finds_what_each_label_finds_alone(m: int) -> None:
    labels = [label for label in perm_sets.WALK_LABELS
              if (label, m) not in (("Yprime", 1), ("Yprime", 2))]
    found = perm_sets._walk(labels, m)
    assert list(found) == labels
    for label in labels:
        assert found[label].dtype == np.uint8
        assert np.array_equal(found[label], _brute(label, m)), label


def test_verify_theorems_walks_no_s_m(monkeypatch: pytest.MonkeyPatch) -> None:
    walks = []
    sym = perm_sets._sym
    monkeypatch.setattr(perm_sets, "_sym", lambda m: walks.append(m) or sym(m))
    assert report_passed(verify_theorems(6))
    assert walks == []


def _solved_and_walked(labels: tuple[str, ...], m: int) -> None:
    """The search finds, for each label, the rows the walk of S_m finds."""
    walked = perm_sets._walk(labels, m)
    for label in labels:
        rows = _search(label, m)
        assert rows.dtype == _dtype_for(m) and rows.shape[1] == m, label
        cls = PermClass(label, m, rows)
        assert len(cls) == len(rows), label  # no row found twice
        assert cls == PermClass(label, m, walked[label]), (label, m)


@pytest.mark.parametrize("m", range(1, 11))
def test_search_finds_what_the_walk_finds(m: int) -> None:
    _solved_and_walked(tuple(label for label in perm_sets.WALK_LABELS
                             if (label, m) not in (("Yprime", 1), ("Yprime", 2))), m)


@pytest.mark.parametrize("m", range(2, 9))
def test_search_runs_each_start_as_its_own_block(monkeypatch: pytest.MonkeyPatch,
                                                 m: int) -> None:
    # one start per block, so every walk runs as a block of one column, which
    # also closes at the last, fixed step
    monkeypatch.setattr(lifting, "BLOCK_BYTES", 1)
    _solved_and_walked(tuple(label for label in perm_sets.WALK_LABELS
                             if (label, m) != ("Yprime", 2)), m)


@pytest.mark.parametrize("m", range(1, 17))
def test_x_by_residue_pair_finds_the_rows_of_the_x_rule(m: int) -> None:
    # the rows decoded from the pairs (k, s) against a prefix search from X's definition
    decoded = perm_sets._x_rows(m)
    assert decoded.dtype == _dtype_for(m)
    assert len(PermClass("X", m, decoded)) == len(decoded)  # no row found twice
    assert sorted(decoded.tolist()) == sorted(x_rows_by_prefix(m).tolist())


@pytest.mark.parametrize("m", range(3, 13))
def test_y_solve_gives_the_one_value_that_passes(m: int) -> None:
    # over every theta(1), theta(i), theta(m) and delta(1), at most one of the
    # values of Y's four bracket cases but theta(1) passes the step in 1..m,
    # and _y_solve gives it
    starts = np.array(list(itertools.permutations(range(1, m + 1), 3)), dtype=np.int16)
    first, cur, last = starts.T[:, None]
    for delta1 in range(-3 * m, 3 * m):
        ref = (np.full(cur.shape, delta1, dtype=np.int16),)
        base = delta1 + cur - (last <= cur)
        passing = []
        for case in (0, 1, m - 1, m):
            nxt = base + case
            passes = perm_sets._y_step(perm_sets._Steps(m, cur, nxt, first, last), ref)
            passing.append(np.where(passes & (1 <= nxt) & (nxt <= m) & (nxt != first), nxt, 0)[0])
        passing = np.stack(passing)
        assert ((passing > 0).sum(axis=0) <= 1).all(), delta1
        one = passing.max(axis=0)
        solved = perm_sets._y_solve(perm_sets._Steps(m, cur, None, first, last), ref)[0]
        assert np.array_equal(solved[one > 0], one[one > 0]), delta1


@pytest.mark.parametrize("m", range(2, 8))
def test_x_pair_step_accepts_the_residues_k_and_k_plus_1(m: int) -> None:
    # the rows of S_m with theta(1) = 1 whose residues lie in one {k, k+1},
    # each decoded from its own pair, and no other row
    expected = {}
    for tail in itertools.permutations(range(2, m + 1)):
        pair = x_pair(Permutation((1, *tail)))
        if pair is not None:
            expected[(1, *tail)] = pair
    rows, pairs = perm_sets._x_rows(m).tolist(), perm_sets._x_pairs(m).T.tolist()
    assert dict(zip(map(tuple, rows), map(tuple, pairs))) == expected


@pytest.mark.parametrize("m", [*range(2, 61), 200])
def test_x_pairs_are_the_pairs_of_the_lifted_v(m: int) -> None:
    # X = shift-closure of V, compared as pair sets with no row of X
    pairs = perm_sets._x_pairs(m)
    assert pairs.shape[1] == totient_sum(m - 1)
    assert np.array_equal(pairs, x_pairs_of_v(m))


def test_search_edge_degrees() -> None:
    for m in (1, 2):
        every = [list(p) for p in itertools.permutations(range(1, m + 1))]
        assert sorted(_search("Y", m).tolist()) == every
        for solve in (_search, enumerate_class):
            with pytest.raises(ValueError, match=f"Yprime needs degree >= 3, got {m}"):
                solve("Yprime", m)
    for label in ("X", "SosRec", "V", "W", "Y"):
        assert _search(label, 1).tolist() == [[1]], label
        assert enumerate_class(label, 1) == PermClass("S1", 1, [[1]]), label


def test_search_rows_past_degree_255_are_uint16() -> None:
    found = {label: _search(label, 256) for label in ("V", "W", "SosRec")}
    assert all(rows.dtype == np.uint16 and rows.shape == (totient_sum(256), 256)
               for rows in found.values())
    v = PermClass("V", 256, found["V"])
    assert PermClass("W", 256, found["W"]) == v
    inverses = np.argsort(v.as_array(), axis=1) + 1
    assert PermClass("SosRec", 256, found["SosRec"]) == PermClass("inv", 256, inverses)


def test_v_search_lift_and_farey_table_agree_at_degree_151() -> None:
    m = 151
    solved = PermClass("V", m, _search("V", m)).as_array()
    assert np.array_equal(solved, PermClass("V", m, lift_level(m).rows()).as_array())
    assert np.array_equal(solved, PermClass("Sstar", m, suranyi_table(m).as_array()).as_array())
    assert len(solved) == totient_sum(m)


def test_sstar_classes_are_read_from_the_farey_table(monkeypatch: pytest.MonkeyPatch,
                                                     capsys: pytest.CaptureFixture) -> None:
    def no_walk(m):
        raise AssertionError("walked S_m")
    monkeypatch.setattr(perm_sets, "_sym", no_walk)
    monkeypatch.delenv(ENV_MAX_BRUTE_M, raising=False)
    for m in range(1, 12):
        sstar = enumerate_class("Sstar", m, method="farey")
        assert enumerate_class("Sstar", m) == sstar
        assert enumerate_class("SstarTilde", m) == shift_closure(sstar)
    # the table takes no walk, but the command line caps both labels as it caps a search
    for label in ("Sstar", "SstarTilde"):
        assert main(["enumerate", "--set", label, "--m", "11"]) == 2
        assert capsys.readouterr().err == (
            "error: method 'brute' refused at degree 11 (cap 10); set SOSLIFT_MAX_BRUTE_M to raise it\n")


@pytest.mark.parametrize("m", range(2, 9))
@pytest.mark.parametrize("label", ["X", "SstarTilde"])
def test_shift_closed_classes_are_sorted_once(monkeypatch: pytest.MonkeyPatch,
                                              label: str, m: int) -> None:
    sorted_rows, calls = perm_core._sorted_rows, []
    monkeypatch.setattr(perm_core, "_sorted_rows",
                        lambda *args: calls.append(args[0]) or sorted_rows(*args))
    found = enumerate_class(label, m)
    assert calls == [label]
    assert found == shift_closure(enumerate_class("V", m))


def test_enumerate_v4_frozen() -> None:
    got = enumerate_class("V", 4)
    assert [p.one_line() for p in got] == list(V4)


def test_enumerate_methods_agree_on_v() -> None:
    for m in range(1, 8):
        brute = enumerate_class("V", m, method="brute")
        assert enumerate_class("V", m, method="lift") == brute
        assert enumerate_class("V", m, method="farey") == brute


def test_enumerate_sstar_equals_v() -> None:
    for m in range(1, 8):
        assert enumerate_class("Sstar", m, method="farey") == enumerate_class("V", m)
        assert enumerate_class("Sstar", m, method="brute") == enumerate_class("V", m)


def test_enumerate_cardinalities() -> None:
    phi = totients(8)
    for m in range(1, 9):
        assert len(enumerate_class("V", m, method="farey")) == totient_sum(m)
        assert len(enumerate_class("VL0", m)) == phi[m]
        assert len(enumerate_class("VL1", m)) == phi[m]
        assert len(enumerate_class("Vminus", m)) == totient_sum(m) - phi[m]


def test_affine_layers_frozen_for_m5() -> None:
    layer0 = [p.one_line() for p in enumerate_class("VL0", 5)]
    layer1 = [p.one_line() for p in enumerate_class("VL1", 5)]
    assert sorted(layer0) == ["12345", "24135", "31425", "43215"]
    assert sorted(layer1) == ["23451", "35241", "42531", "54321"]


@pytest.mark.parametrize("m", [*range(1, 61), 255, 256, 257])
def test_affine_layers_are_the_theta_ab_rows(m: int) -> None:
    for b, label in enumerate(("VL0", "VL1")):
        rows = sorted(list(theta_ab(m, a, b).values) for a in range(1, m + 1) if gcd(a, m) == 1)
        got = enumerate_class(label, m).as_array()
        assert got.dtype == _dtype_for(m) and got.tolist() == rows, label


def test_affine_layers_are_disjoint_subsets_of_v() -> None:
    for m in range(2, 9):
        v = set(enumerate_class("V", m, method="farey"))
        l0 = set(enumerate_class("VL0", m))
        l1 = set(enumerate_class("VL1", m))
        assert l0 <= v
        assert l1 <= v
        assert not l0 & l1


def test_shift_closed_classes() -> None:
    for m in (3, 4, 5):
        y = enumerate_class("Y", m)
        assert shift_closure(y) == y
        x = enumerate_class("X", m)
        assert x == shift_closure(enumerate_class("V", m))
        assert enumerate_class("SstarTilde", m) == x


def test_sos_recurrence_class_small_counts() -> None:
    # observed solution counts under the all-guards semantics; they happen
    # to coincide with |V_m| at these degrees
    counts = {2: 2, 3: 4, 4: 6, 5: 10, 6: 12}
    for m, n in counts.items():
        rec = enumerate_class("SosRec", m)
        assert len(rec) == n
        inv_v = {inverse(p) for p in enumerate_class("V", m)}
        assert inv_v <= set(rec)


def test_enumerate_rejects_bad_arguments() -> None:
    with pytest.raises(ValueError, match="unknown class label"):
        enumerate_class("Z", 4)
    with pytest.raises(ValueError, match="unknown method"):
        enumerate_class("V", 4, method="magic")
    with pytest.raises(ValueError, match="degree must be positive"):
        enumerate_class("V", 0)
    with pytest.raises(ValueError, match="only enumerates V or Sstar"):
        enumerate_class("Y", 4, method="lift")
    with pytest.raises(ValueError, match="Yprime needs degree >= 3"):
        enumerate_class("Yprime", 2)
    # the searches' one ceiling, whatever the environment
    for label in ("V", "Sstar"):
        with pytest.raises(ValueError, match="^degree 10001 exceeds the supported ceiling 10000$"):
            enumerate_class(label, 10001)


def test_brute_force_guard_env_override(monkeypatch: pytest.MonkeyPatch,
                                        capsys: pytest.CaptureFixture) -> None:
    # the variable sets the command line's cap; the library reads no environment
    monkeypatch.setenv(ENV_MAX_BRUTE_M, "3")
    assert main(["enumerate", "--set", "V", "--m", "4"]) == 2
    assert "refused at degree 4 (cap 3)" in capsys.readouterr().err
    assert main(["enumerate", "--set", "V", "--m", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert len(enumerate_class("V", 4)) == totient_sum(4)
    monkeypatch.setenv(ENV_MAX_BRUTE_M, "not-a-number")
    assert main(["enumerate", "--set", "V", "--m", "2"]) == 2
    assert "must be an integer" in capsys.readouterr().err
    assert len(enumerate_class("V", 2)) == 2


def test_default_guard_value(monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture) -> None:
    monkeypatch.delenv(ENV_MAX_BRUTE_M, raising=False)
    assert DEFAULT_MAX_BRUTE_M == 10
    assert main(["enumerate", "--set", "V", "--m", str(DEFAULT_MAX_BRUTE_M + 1)]) == 2
    assert "method 'brute' refused at degree 11 (cap 10)" in capsys.readouterr().err


def test_library_applies_no_size_policy(monkeypatch: pytest.MonkeyPatch) -> None:
    # with the variable unset and no force argument, the library runs past the
    # command line's cap and threshold, up to its own ceilings
    monkeypatch.delenv(ENV_MAX_BRUTE_M, raising=False)
    assert enumerate_class("V", 12) == enumerate_class("V", 12, "lift")
    assert report_passed(verify_theorems(11))
    assert len(lift_level(501)) == totient_sum(501)


def test_labels_and_methods_tuples() -> None:
    assert set(("V", "W", "Y", "X", "Sstar", "VL0", "VL1")) <= set(LABELS)
    assert METHODS == ("brute", "lift", "farey")


def test_verify_theorems_passes_and_reports() -> None:
    records = verify_theorems(9)
    assert records
    assert report_passed(records)
    checks = {r["check"] for r in records}
    assert "V = W" in checks
    assert any("shift" in c for c in checks)
    for r in records:
        assert set(r) == {"m", "check", "passed", "detail"}


def test_verify_theorems_reads_no_permutation_objects(monkeypatch: pytest.MonkeyPatch,
                                                      capsys: pytest.CaptureFixture) -> None:
    def refuse(self, values):
        raise AssertionError("a Permutation was built")

    monkeypatch.setattr(Permutation, "__init__", refuse)
    assert report_passed(verify_theorems(7))
    # the affine layers are built as arrays too: phi(12) = 4 rows each
    for label in ("VL0", "VL1"):
        assert main(["enumerate", "--set", label, "--m", "12"]) == 0
        assert len(capsys.readouterr().out.splitlines()) == 4, label


def test_verify_theorems_solves_y_once_per_degree(monkeypatch: pytest.MonkeyPatch) -> None:
    # Yprime is read from the Y rows that verify_theorems already holds
    solve, degrees = perm_sets._solve, []

    def counting_solve(rule, m):
        if rule is perm_sets._RULES["Y"]:
            degrees.append(m)
        return solve(rule, m)

    monkeypatch.setattr(perm_sets, "_solve", counting_solve)
    assert report_passed(verify_theorems(6))
    assert degrees == [2, 3, 4, 5, 6]


@pytest.mark.parametrize("accept", ["all", "none"])
def test_verify_theorems_reports_a_wrong_class_as_failed(monkeypatch: pytest.MonkeyPatch,
                                                         accept: str) -> None:
    # the wrong W is the walk of S_m under a step that accepts all or none
    monkeypatch.setitem(perm_sets._RULES, "W", perm_sets._Rule(
        lambda s, ref: np.full(s.d.shape, accept == "all"), None))
    search = perm_sets._search
    monkeypatch.setattr(perm_sets, "_search",
                        lambda label, m: _brute(label, m) if label == "W" else search(label, m))
    records = verify_theorems(5)
    passed = {(r["m"], r["check"]): r["passed"] for r in records}
    for m in range(2, 6):
        w = set(itertools.permutations(range(1, m + 1))) if accept == "all" else set()
        v = {p.values for p in enumerate_class("V", m)}
        y = {p.values for p in enumerate_class("Y", m)}
        assert passed[m, "V = W"] is (v == w)
        assert passed[m, "W subset of Y"] is (w <= y)
    # Y_3 is all of S_3, Y_4 is not all of S_4
    assert passed[4, "V = W"] is False
    assert passed[4, "W subset of Y"] is (accept == "none")
    assert not report_passed(records)


def test_verify_theorems_reports_a_y_missing_a_shift_as_failed(monkeypatch: pytest.MonkeyPatch) -> None:
    # one row of a shift orbit dropped from Y at m = 2 and 4: the row before it
    # in the orbit then shifts out of Y, and the one-shift test must see it
    enumerate_all = perm_sets.enumerate_class

    def holed(label, m, *args):
        cls = enumerate_all(label, m, *args)
        if label == "Y" and m in (2, 4):
            return PermClass(label, m, cls.as_array()[1:])
        return cls

    monkeypatch.setattr(perm_sets, "enumerate_class", holed)
    records = verify_theorems(5)
    passed = {r["m"]: r["passed"] for r in records if r["check"] == "Y is shift-closed"}
    assert passed == {2: False, 3: True, 4: False, 5: True}


def test_verify_theorems_validates_range(monkeypatch: pytest.MonkeyPatch,
                                         capsys: pytest.CaptureFixture) -> None:
    monkeypatch.delenv(ENV_MAX_BRUTE_M, raising=False)
    with pytest.raises(ValueError, match="^m_max must be at least 2, got 1$"):
        verify_theorems(1)
    with pytest.raises(ValueError, match="^m_max 10001 exceeds the supported ceiling 10000$"):
        verify_theorems(10001)
    # the cap and its range text are the verify command's
    assert main(["verify", "--m-max", "11"]) == 2
    assert "m_max must lie in [2, 10]" in capsys.readouterr().err
    monkeypatch.setenv(ENV_MAX_BRUTE_M, "4")
    assert main(["verify", "--m-max", "5"]) == 2
    err = capsys.readouterr().err
    assert "m_max must lie in [2, 4]" in err and "SOSLIFT_MAX_BRUTE_M" in err
    assert report_passed(verify_theorems(5))


def test_report_passed() -> None:
    assert report_passed([{"passed": True}, {"passed": True}])
    assert not report_passed([{"passed": True}, {"passed": False}])
    assert report_passed([])


def test_add_record_stores_the_record_with_a_bool() -> None:
    records: list[dict] = []
    perm_core.add_record(records, 3, "one", np.bool_(True))
    perm_core.add_record(records, 4, "two", 0, "detail")
    assert records == [{"m": 3, "check": "one", "passed": True, "detail": ""},
                       {"m": 4, "check": "two", "passed": False, "detail": "detail"}]
    assert all(type(r["passed"]) is bool for r in records)
