from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction
from math import gcd

import numpy as np
import pytest

from soslift import perm_core, sos
from soslift.farey import farey_intervals, farey_terms, totient_sum
from soslift.perm_core import MAX_DEGREE, Permutation, _dtype_for, gamma, psi
from soslift.sos import SuranyiTable, suranyi_table, tau_from_alpha, verify_invariants

from oracles import (
    inverse,
    mediant,
    random_interior_rational,
    satisfies_sos_recurrence,
    sos_from_alpha,
    tau_explicit,
    theta_ab,
)


def _p(text: str) -> Permutation:
    return Permutation.parse(text)


def test_sos_from_alpha_frozen_values() -> None:
    assert sos_from_alpha(2, Fraction(1, 3)) == _p("12")
    assert sos_from_alpha(3, Fraction(2, 5)) == _p("312")
    assert sos_from_alpha(4, Fraction(1, 5)) == _p("1234")


def test_sos_from_alpha_boundary_denominator() -> None:
    # q = m is the tightest admissible denominator; {m alpha} = 0 sorts first
    assert sos_from_alpha(2, Fraction(1, 2)) == _p("21")
    assert sos_from_alpha(3, Fraction(1, 3)) == _p("312")
    assert sos_from_alpha(3, Fraction(2, 3)) == _p("321")


def test_sos_from_alpha_rejects_coarse_or_out_of_range_alpha() -> None:
    with pytest.raises(ValueError, match="alpha too coarse"):
        sos_from_alpha(4, Fraction(1, 3))
    with pytest.raises(ValueError, match="alpha must satisfy"):
        sos_from_alpha(3, Fraction(0))
    with pytest.raises(ValueError, match="alpha must satisfy"):
        sos_from_alpha(3, Fraction(7, 5))
    with pytest.raises(ValueError, match="degree must be positive"):
        sos_from_alpha(0, Fraction(1, 2))


@pytest.mark.parametrize("evaluate", [sos_from_alpha, tau_from_alpha, tau_explicit])
def test_degree_above_the_ceiling_is_refused_before_building(evaluate) -> None:
    m = 10 ** 6
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"degree {m} exceeds the supported ceiling {MAX_DEGREE}"):
            evaluate(m, Fraction(1, m + 1))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_tau_frozen_values() -> None:
    assert tau_from_alpha(3, Fraction(2, 5)) == _p("231")
    assert tau_from_alpha(6, Fraction(1, 7)) == _p("123456")
    assert tau_from_alpha(4, Fraction(2, 5)) == _p("2413")
    assert tau_from_alpha(5, Fraction(2, 5)) == _p("35241")


def test_tau_is_inverse_of_sos_at_all_mediants() -> None:
    for m in range(1, 9):
        for iv in farey_intervals(m):
            alpha = mediant(iv)
            assert tau_from_alpha(m, alpha) == inverse(sos_from_alpha(m, alpha))


def test_tau_explicit_matches_counting_form() -> None:
    rng = random.Random(20260814)
    for m in range(2, 13):
        for _ in range(30):
            alpha = random_interior_rational(m, rng)
            assert tau_explicit(m, alpha) == tau_from_alpha(m, alpha)


def _tau_explicit_reference(m: int, alpha: Fraction) -> Permutation:
    """The closed form as a dict of floors and an m-term sum per value: O(m^2)."""
    p, q = alpha.numerator, alpha.denominator
    floors = {k: (k * p) // q for k in range(1 - m, m + 1)}
    total = sum(floors[j] for j in range(1, m + 1))
    return Permutation(m * (1 - floors[i]) + total + sum(floors[i - j] for j in range(1, m + 1))
                       for i in range(1, m + 1))


def test_tau_explicit_matches_the_dict_of_floors_formula() -> None:
    rng = random.Random(20261018)
    for m in range(2, 41):
        for _ in range(10):
            alpha = random_interior_rational(m, rng)
            assert tau_explicit(m, alpha) == _tau_explicit_reference(m, alpha)
    for m in (500, 2000):
        for alpha in (Fraction(1, m + 1), Fraction(m, m + 1), random_interior_rational(m, rng)):
            assert tau_explicit(m, alpha) == _tau_explicit_reference(m, alpha)


def test_tau_explicit_is_exact_past_int64() -> None:
    below = (1 << 62) // 3 - 1  # 3 * below < 2^62: the int64 row, with k*p near 2^62
    for m, alpha in ((3, Fraction(below - 1, below)),
                     (7, Fraction(10 ** 20 + 1, 10 ** 20 + 3)),
                     (50, Fraction(2 ** 70 - 1, 2 ** 70 + 1))):
        assert tau_explicit(m, alpha) == _tau_explicit_reference(m, alpha) == tau_from_alpha(m, alpha)


def test_tau_explicit_rejects_farey_terms() -> None:
    with pytest.raises(ValueError, match="closed form is undefined"):
        tau_explicit(4, Fraction(2, 3))
    with pytest.raises(ValueError, match="closed form is undefined"):
        tau_explicit(4, Fraction(1, 4))


def test_interior_draws_are_those_of_randint() -> None:
    """The interior rationals are drawn from getrandbits as randint draws
    q in (m, 4m] and then p in [1, q - 1]: the same rationals, and the same
    generator state after them, as randint gives."""
    for m in range(2, 301):
        drawn, reference = random.Random(m), random.Random(m)
        for _ in range(20):
            while True:
                q = reference.randint(m + 1, 4 * m)
                p = reference.randint(1, q - 1)
                if gcd(p, q) == 1:
                    break
            assert random_interior_rational(m, drawn) == Fraction(p, q)
        assert drawn.getstate() == reference.getstate(), m


def test_first_and_last_term_identities() -> None:
    rng = random.Random(8)
    for m in range(2, 13):
        for _ in range(20):
            alpha = random_interior_rational(m, rng)
            tau = tau_from_alpha(m, alpha)
            floors = [(j * alpha.numerator) // alpha.denominator for j in range(1, m + 1)]
            assert tau(1) == 1 + floors[-1]
            assert tau(m) == 2 * m + 1 - (m + 1) * tau(1) + 2 * sum(floors)


def test_theta_ab_frozen_and_invertibility() -> None:
    assert theta_ab(5, 2, 1) == _p("35241")
    assert theta_ab(5, 1, 0) == _p("12345")
    assert theta_ab(4, 3, 0) == _p("3214")
    with pytest.raises(ValueError, match="not invertible"):
        theta_ab(6, 2, 0)


def test_theta_ab_shifts_with_offset() -> None:
    for m in range(2, 9):
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            base = theta_ab(m, a, 0)
            for b in range(m):
                expected = [(base(i) + b - 1) % m + 1 for i in range(1, m + 1)]
                assert theta_ab(m, a, b) == Permutation(expected)


def test_tau_from_alpha_near_a_over_m_gives_affine_layers() -> None:
    # the rows that verify_invariants reads at (2am -+ 1)/(2m^2) and at a/m
    for m in range(2, 11):
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            eps = Fraction(1, 2 * m * m)
            assert tau_from_alpha(m, Fraction(a, m) - eps) == theta_ab(m, a, 0)
            assert tau_from_alpha(m, Fraction(a, m)) == theta_ab(m, a, 1)
            assert tau_from_alpha(m, Fraction(a, m) + eps) == theta_ab(m, a, 1)


def test_satisfies_sos_recurrence_on_known_cases() -> None:
    assert satisfies_sos_recurrence(sos_from_alpha(5, Fraction(2, 7)))
    assert satisfies_sos_recurrence(_p("1"))
    assert not satisfies_sos_recurrence(_p("1324"))


def test_sos_permutations_satisfy_recurrence_at_mediants() -> None:
    for m in range(2, 9):
        for iv in farey_intervals(m):
            assert satisfies_sos_recurrence(sos_from_alpha(m, mediant(iv)))


def test_suranyi_table_m4_frozen() -> None:
    table = suranyi_table(4)
    assert isinstance(table, SuranyiTable)
    assert table.m == 4
    rows = [(str(iv), p.one_line()) for iv, p in table.entries]
    assert rows == [
        ("(0/1, 1/4)", "1234"),
        ("(1/4, 1/3)", "2341"),
        ("(1/3, 1/2)", "2413"),
        ("(1/2, 2/3)", "3142"),
        ("(2/3, 3/4)", "3214"),
        ("(3/4, 1/1)", "4321"),
    ]


def test_suranyi_table_is_injective_and_indexed() -> None:
    for m in range(1, 11):
        table = suranyi_table(m)
        perms = [p for _, p in table.entries]
        assert len(perms) == len(set(perms))
        assert len(perms) == len(farey_intervals(m))
        for iv, p in table.entries:
            assert tau_from_alpha(m, mediant(iv)) == p


def test_table_rows_are_tau_at_every_mediant() -> None:
    # the Fraction path is the oracle for the array rows
    for m in range(1, 31):
        rows = suranyi_table(m).as_array()
        assert rows.dtype == _dtype_for(m)
        assert not rows.flags.writeable
        expected = [tau_from_alpha(m, mediant(iv)).values for iv in farey_intervals(m)]
        assert [tuple(r) for r in rows.tolist()] == expected


def test_table_views_build_rows_on_access() -> None:
    table = suranyi_table(9)
    n = totient_sum(9)
    assert len(table.entries) == len(table.as_array()) == n
    assert table.entries[-1] == table.entries[n - 1]
    assert table.entries[0][0] == farey_intervals(9)[0]
    assert table.entries[5][1].values == tuple(table.as_array()[5].tolist())
    with pytest.raises(IndexError):
        table.entries[n]


def test_suranyi_table_checks_its_rows(monkeypatch: pytest.MonkeyPatch) -> None:
    def dropping(k):
        def terms(m):
            num, den = farey_terms(m)
            return np.delete(num, k), np.delete(den, k)
        return terms

    with monkeypatch.context() as patch:
        patch.setattr(sos, "farey_terms", dropping(3))
        with pytest.raises(AssertionError, match="non-adjacent Farey intervals at index 3"):
            suranyi_table(6)
    with monkeypatch.context() as patch:
        # dropping the last term 1/1 leaves neighbours, one interval short
        patch.setattr(sos, "farey_terms", dropping(-1))
        with pytest.raises(AssertionError, match="expected 12 intervals, built 11"):
            suranyi_table(6)
    with monkeypatch.context() as patch:
        real = sos._rank_taus

        def colliding(m, p, q):
            rows = real(m, p, q)
            rows[-1] = rows[0]
            return rows
        patch.setattr(sos, "_rank_taus", colliding)
        with pytest.raises(AssertionError, match="tau collision in the order-6 table"):
            suranyi_table(6)


def test_suranyi_column_is_constant_on_each_interval() -> None:
    rng = random.Random(99)
    for m in (3, 5, 7):
        for iv, p in suranyi_table(m).entries:
            lo, hi = iv.lo, iv.hi
            for _ in range(5):
                num = rng.randint(1, 10**6 - 1)
                alpha = lo + (hi - lo) * Fraction(num, 10**6)
                if alpha == mediant(iv):
                    continue
                assert tau_from_alpha(m, alpha) == p


def test_projection_compatibility_at_mediants() -> None:
    for m in range(3, 13):
        for iv in farey_intervals(m - 1):
            alpha = mediant(iv)
            assert psi(gamma(tau_from_alpha(m, alpha))) == tau_from_alpha(m - 1, alpha)


def test_random_interior_rational_shape() -> None:
    rng = random.Random(5)
    for m in range(2, 20):
        for _ in range(50):
            alpha = random_interior_rational(m, rng)
            assert 0 < alpha < 1
            assert m < alpha.denominator <= 4 * m


def test_random_interior_rational_is_deterministic() -> None:
    first = [random_interior_rational(7, random.Random(3)) for _ in range(10)]
    second = [random_interior_rational(7, random.Random(3)) for _ in range(10)]
    assert first == second


def test_verify_invariants_passes_and_reports() -> None:
    records = verify_invariants(6, samples=40, seed=11)
    assert records
    assert all(r["passed"] for r in records)
    checks = {r["check"] for r in records}
    assert "tau = inverse(sos) at mediants" in checks
    expected_keys = {"m", "check", "passed", "detail"}
    assert all(set(r) == expected_keys for r in records)


def _record_closed_forms(monkeypatch: pytest.MonkeyPatch, perturb=None) -> list:
    """Wrap sos._closed_form_taus; every call appends (m, p, q, rows), after perturb(m, rows)."""
    calls = []
    closed_form = sos._closed_form_taus

    def recording(m, p, q):
        rows = closed_form(m, p, q)
        if perturb is not None:
            perturb(m, rows)
        calls.append((m, p.tolist(), q.tolist(), rows))
        return rows
    monkeypatch.setattr(sos, "_closed_form_taus", recording)
    return calls


def test_verify_invariants_draws_what_random_interior_rational_draws(
        monkeypatch: pytest.MonkeyPatch) -> None:
    calls = _record_closed_forms(monkeypatch)
    verify_invariants(5, samples=30, seed=7)
    rng = random.Random(7)
    expected = [(m, random_interior_rational(m, rng)) for m in range(2, 6) for _ in range(30)]
    assert [(m, Fraction(p, q)) for m, ps, qs, _ in calls for p, q in zip(ps, qs)] == expected


def test_verify_invariants_blocks_agree_with_one_sample_at_a_time(
        monkeypatch: pytest.MonkeyPatch) -> None:
    whole = verify_invariants(6, samples=30, seed=3)
    # scratch_rows(m) is then 21, 14, 10, 8 and 7 rows at m = 2..6
    monkeypatch.setattr(perm_core, "SCRATCH_BYTES", 336)
    calls = _record_closed_forms(monkeypatch)
    assert verify_invariants(6, samples=30, seed=3) == whole
    assert [len(ps) for _, ps, _, _ in calls] == [21, 9, 14, 14, 2, 10, 10, 10, 8, 8, 8, 6, 7, 7, 7, 7, 2]
    for m, ps, qs, rows in calls:
        taus = sos._rank_taus(m, np.array(ps), np.array(qs))
        for p, q, row, tau in zip(ps, qs, rows.tolist(), taus.tolist()):
            assert row == list(_tau_explicit_reference(m, Fraction(p, q)).values)
            assert tau == list(tau_from_alpha(m, Fraction(p, q)).values)


def test_verify_invariants_fails_on_one_wrong_closed_form_entry(
        monkeypatch: pytest.MonkeyPatch) -> None:
    monkeypatch.setattr(perm_core, "SCRATCH_BYTES", 336)  # 10 rows a block at degree 4
    degrees = []

    def perturb(m, rows):
        degrees.append(m)
        if m == 4 and degrees.count(4) == 2:  # the middle of the blocks 10, 10, 5 at degree 4
            rows[-1, -1] += 1
    _record_closed_forms(monkeypatch, perturb)
    failed = {(r["m"], r["check"]) for r in verify_invariants(5, samples=25, seed=1) if not r["passed"]}
    assert failed == {(4, "tau_explicit = tau_from_alpha on random rationals")}


MEDIANTS, PSI, AFFINE = ("tau = inverse(sos) at mediants", "psi(gamma(tau_m)) = tau_{m-1} at mediants",
                          "tau around a/m matches the affine layers")


@pytest.mark.parametrize("name, call, failed", [
    # per degree, _searched_ranks ranks the mediants, then (m >= 3) their
    # degree-(m-1) keys, then the keys around each a/m: calls 5, 6, 7 at degree 4
    ("_searched_ranks", 5, {MEDIANTS, PSI}),  # tau_4 itself, which both checks read
    ("_searched_ranks", 6, {PSI}),
    ("_searched_ranks", 7, {AFFINE}),
    # _rank_taus ranks the mediants, then each block of samples: call 4 at degree 4
    ("_rank_taus", 4, {MEDIANTS}),
    # affine_rows builds VL0, then VL1: call 5 at degree 4
    ("affine_rows", 5, {AFFINE}),
])
def test_verify_invariants_fails_on_one_wrong_array(monkeypatch: pytest.MonkeyPatch, name: str,
                                                    call: int, failed: set) -> None:
    """Each formula check compares two arrays computed apart: two entries
    swapped in one row of either side fail the records that read it, at that
    degree alone."""
    original, calls = getattr(sos, name), []

    def swapped(*args):
        out = original(*args).copy()
        if len(calls) == call:
            out[-1, [1, 2]] = out[-1, [2, 1]]
        calls.append(name)
        return out
    monkeypatch.setattr(sos, name, swapped)
    records = verify_invariants(5, samples=5, seed=2)
    assert {(r["m"], r["check"]) for r in records if not r["passed"]} == {(4, c) for c in failed}


def test_rank_taus_matches_tau_from_alpha_across_dtypes() -> None:
    rng = random.Random(21)
    for m in (1, 2, 7, 255, 256, 300):
        pq = [(1, m + 1)] + [sos._interior_pq(m, rng) for _ in range(5)]
        p, q = np.array(pq, dtype=np.int64).T
        rows = sos._rank_taus(m, p, q)
        assert rows.dtype == _dtype_for(m)
        assert rows.tolist() == [list(tau_from_alpha(m, Fraction(*f)).values) for f in pq]


@pytest.mark.parametrize("m", [7, 40, 300])
def test_rank_taus_in_blocks_of_three_rows_equals_one_block(monkeypatch: pytest.MonkeyPatch,
                                                             m: int) -> None:
    num, den = farey_terms(m)
    p, q = num[:-1] + num[1:], den[:-1] + den[1:]
    for n in (len(p), len(p) - 1, len(p) - 2):  # a last block of 3, 2 and 1 rows, in some order
        monkeypatch.setattr(perm_core, "SCRATCH_BYTES", 1 << 40)
        whole = sos._rank_taus(m, p[:n], q[:n])
        monkeypatch.setattr(perm_core, "SCRATCH_BYTES", 3 * 8 * m)
        assert perm_core.scratch_rows(m) == 3
        assert np.array_equal(sos._rank_taus(m, p[:n], q[:n]), whole), (m, n)


def test_rank_taus_refuses_keys_that_overflow() -> None:
    # (i*p) mod q fits uint16 up to q = 2^16, and i*p fits int32 below 2^31
    for m, p, q in ((4, 3, (1 << 16) + 1), (40_000, 60_001, 1 << 16)):
        with pytest.raises(ValueError, match=f"tau keys of degree {m} do not fit"):
            sos._rank_taus(m, np.array([1, p]), np.array([q, q]))
    assert sos._rank_taus(3, np.array([], dtype=np.int64), np.array([], dtype=np.int64)).shape == (0, 3)


def test_suranyi_table_refuses_before_it_builds_the_terms(monkeypatch: pytest.MonkeyPatch) -> None:
    def no_terms(m):
        raise AssertionError(f"built the order-{m} terms")
    monkeypatch.setattr(sos, "farey_terms", no_terms)
    with pytest.raises(ValueError, match=f"tau keys of degree {1 << 15} do not fit"):
        suranyi_table(1 << 15)
    # the largest degree whose mediants fit goes on to build its terms
    with pytest.raises(AssertionError, match=f"built the order-{(1 << 15) - 1} terms"):
        suranyi_table((1 << 15) - 1)
