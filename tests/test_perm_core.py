from __future__ import annotations

import itertools
import json

import numpy as np
import pytest

from soslift import perm_core
from soslift.lifting import lift_level
from soslift.perm_core import (
    MAX_DEGREE,
    PermClass,
    Permutation,
    _dtype_for,
    format_rows,
    gamma,
    psi,
    shift,
    shift_closure,
    supermod_m,
)
from soslift.sos import affine_rows

from oracles import ascents, cds, delta, inverse, psi_inverse, shift_equivalent


def _cls(label: str, *texts: str) -> PermClass:
    """The class of the rows written as digit strings."""
    return PermClass(label, len(texts[0]), [list(map(int, text)) for text in texts])


def _p(text: str) -> Permutation:
    return Permutation.parse(text)


def _sym(m: int) -> list[Permutation]:
    return [Permutation(vals) for vals in itertools.permutations(range(1, m + 1))]


def test_mod_and_supermod_values() -> None:
    assert supermod_m(0, 4) == 4
    assert supermod_m(4, 4) == 4
    assert supermod_m(5, 4) == 1
    assert supermod_m(-1, 4) == 3
    assert supermod_m(1, 1) == 1
    assert [supermod_m(j, 3) for j in range(-2, 5)] == [1, 2, 3, 1, 2, 3, 1]


def test_mod_rejects_nonpositive_modulus() -> None:
    with pytest.raises(ValueError, match="modulus must be positive"):
        supermod_m(3, -1)


def test_parse_concatenated_digits() -> None:
    p = _p("2413")
    assert p.values == (2, 4, 1, 3)
    assert len(p) == 4
    assert p.one_line() == "2413"


def test_parse_spaced_tokens() -> None:
    p = Permutation.parse("10 1 2 3 4 5 6 7 8 9")
    assert p(1) == 10
    assert p(10) == 9
    assert p.one_line() == "10 1 2 3 4 5 6 7 8 9"
    assert Permutation.parse(p.one_line()) == p


def test_parse_rejects_bad_input() -> None:
    with pytest.raises(ValueError, match="invalid permutation token"):
        Permutation.parse("12x4")
    with pytest.raises(ValueError, match="not a bijection"):
        Permutation.parse("1224")
    with pytest.raises(ValueError, match="empty permutation text"):
        Permutation.parse("   ")


@pytest.mark.parametrize("text, token", [("\u00b2", "\u00b2"), ("2 1 \u00b2", "\u00b2"),
                                         ("1 " + "9" * 5000, "9" * 5000)],
                         ids=["superscript", "spaced-superscript", "past-int-digit-limit"])
def test_parse_names_a_token_that_looks_like_digits(text: str, token: str) -> None:
    # str.isdigit accepts both tokens, and int refuses both
    with pytest.raises(ValueError, match="invalid permutation token") as exc:
        Permutation.parse(text)
    assert repr(token) in str(exc.value)


def test_constructor_validates_bijection_and_ceiling() -> None:
    with pytest.raises(ValueError, match="not a permutation"):
        Permutation((1, 1))
    with pytest.raises(ValueError, match="needs at least one value"):
        Permutation(())
    too_big = tuple(range(1, MAX_DEGREE + 2))
    with pytest.raises(ValueError, match="exceeds the supported ceiling"):
        Permutation(too_big)


def test_json_round_trip() -> None:
    p = _p("35241")
    doc = p.to_json()
    assert json.loads(json.dumps(doc)) == doc
    assert Permutation.from_json(doc) == p
    with pytest.raises(ValueError, match="inconsistent JSON"):
        Permutation.from_json({"m": 3, "values": [1, 2]})


def test_call_is_one_based() -> None:
    p = _p("2413")
    assert [p(i) for i in range(1, 5)] == [2, 4, 1, 3]


def test_ordering_is_lexicographic() -> None:
    perms = sorted(_sym(3))
    assert [q.one_line() for q in perms] == ["123", "132", "213", "231", "312", "321"]
    assert _p("123") < _p("132")
    assert _p("321") <= _p("321")


def test_hash_consistent_with_equality() -> None:
    assert hash(_p("2413")) == hash(Permutation((2, 4, 1, 3)))
    assert len({_p("12"), _p("12"), _p("21")}) == 2


def test_shift_values_and_periodicity() -> None:
    assert shift(_p("12"), 1) == _p("21")
    p = _p("2413")
    assert shift(p, 0) == p
    assert shift(p, 4) == p
    orbit = {shift(p, k) for k in range(4)}
    assert len(orbit) == 4
    assert _p("1342") in orbit


def test_shift_equivalent() -> None:
    p = _p("2413")
    for k in range(4):
        assert shift_equivalent(p, shift(p, k))
    assert not shift_equivalent(_p("1234"), _p("1324"))
    with pytest.raises(ValueError, match="degree mismatch"):
        shift_equivalent(_p("12"), _p("123"))


def test_gamma_normalizes_first_value() -> None:
    assert gamma(_p("2341")) == _p("1234")
    assert gamma(_p("3142")) == _p("1324")
    for p in _sym(4):
        g = gamma(p)
        assert g(1) == 1
        assert shift_equivalent(g, p)
        assert gamma(g) == g


def test_psi_and_inverse_round_trip() -> None:
    assert psi(_p("1324")) == _p("213")
    assert psi_inverse(_p("213")) == _p("1324")
    for pi in _sym(3):
        assert psi(psi_inverse(pi)) == pi
    with pytest.raises(ValueError, match="psi needs degree >= 2"):
        psi(_p("1"))
    with pytest.raises(ValueError, match=r"psi requires theta\(1\) = 1"):
        psi(_p("213"))


def test_delta_frozen_value() -> None:
    assert delta(_p("1342")) == (-2, -2, -2)
    assert ascents(_p("1342")) == 2
    with pytest.raises(ValueError, match="delta needs degree >= 2"):
        delta(_p("1"))


def test_delta_sums_to_minus_ascent_multiple() -> None:
    for m in (2, 3, 4, 5):
        for p in _sym(m):
            assert sum(delta(p)) == -(m - 1) * ascents(p)


def test_cds_frozen_values() -> None:
    assert cds(_p("2413")) == frozenset({1, 2})
    assert cds(_p("1342")) == frozenset({1, 2})
    assert cds(_p("1324")) == frozenset({2, 3})
    assert cds(_p("1234")) == frozenset({1})
    with pytest.raises(ValueError, match="cds needs degree >= 2"):
        cds(_p("1"))


def test_inverse() -> None:
    assert inverse(_p("2413")) == _p("3142")
    for p in _sym(4):
        q = inverse(p)
        assert inverse(q) == p
        for i in range(1, 5):
            assert q(p(i)) == i


def test_perm_class_dedups_and_sorts() -> None:
    cls = _cls("V", "21", "12", "21")
    assert cls.members == (_p("12"), _p("21"))
    assert len(cls) == 2
    assert list(cls) == [_p("12"), _p("21")]


def test_perm_class_equality_ignores_label() -> None:
    a = _cls("V", "12", "21")
    b = _cls("W", "21", "12")
    assert a == b
    assert a != _cls("V", "12")
    single = _cls("V", "12")
    assert _p("12") in single and _p("21") in a
    assert _p("21") not in single
    assert _p("1") not in single and _p("123") not in single
    assert "12" not in single and (1, 2) not in single and None not in single


def test_perm_class_rejects_degree_mismatch() -> None:
    # rows of another degree, and Permutation objects of any degree, are not
    # an (N, 2) integer array
    for rows in ([[1, 2, 3]], np.ones((1, 1), dtype=np.uint8), [_p("12")], [_p("123")]):
        with pytest.raises(ValueError, match=r"^V of degree 2 needs an \(N, 2\) integer array"):
            PermClass("V", 2, rows)


def test_perm_class_from_array_matches_eager() -> None:
    arr = np.array([[2, 1], [1, 2]], dtype=np.uint8)
    lazy = PermClass("V", 2, arr)
    assert len(lazy) == 2
    assert lazy == _cls("V", "12", "21")
    assert list(lazy) == [_p("12"), _p("21")]
    back = lazy.as_array()
    assert back.shape == (2, 2)
    assert sorted(map(tuple, back.tolist())) == [(1, 2), (2, 1)]
    sparse = PermClass("V", 3, np.array([[2, 3, 1], [1, 2, 3]], dtype=np.uint8))
    assert _p("123") in sparse and _p("231") in sparse
    assert _p("132") not in sparse and _p("321") not in sparse
    assert _p("12") not in sparse and _p("1234") not in sparse
    assert "231" not in sparse and [2, 3, 1] not in sparse


def test_perm_class_from_array_dedups_and_compares_without_members() -> None:
    eager = _cls("V", "12")
    repeated = PermClass("V", 2, [[1, 2], [1, 2]])
    other = PermClass("W", 2, np.array([[1, 2]], dtype=np.int64))
    assert len(repeated) == len(eager) == 1
    assert repeated == other and hash(repeated) == hash(other)
    assert repeated._members is None and other._members is None
    assert repeated == eager and hash(repeated) == hash(eager)
    assert repeated.as_array().tolist() == [[1, 2]]


def test_perm_class_from_array_rejects_every_non_permutation_row() -> None:
    rows = [row for row in itertools.product(range(5), repeat=3) if sorted(row) != [1, 2, 3]]
    assert len(rows) == 119
    for row in rows:
        for bad in ([row], [[1, 2, 3], row, [3, 1, 2]]):
            with pytest.raises(ValueError, match=r"not a permutation of 1\.\.3 in V"):
                PermClass("V", 3, np.array(bad))


def _misses_by_scatter(rows: np.ndarray) -> np.ndarray:
    """The reference check: one (N, m + 1) mask scattered by a row index."""
    seen = np.zeros((len(rows), rows.shape[1] + 1), dtype=bool)
    seen[np.arange(len(rows))[:, None], rows] = True
    return ~seen[:, 1:].all(axis=1)


@pytest.mark.parametrize("m", [1, 3, 40, 300])
def test_misses_a_value_equals_the_whole_scatter(m: int) -> None:
    rng = np.random.default_rng(m)
    good = np.array([rng.permutation(m) + 1 for _ in range(64)], dtype=_dtype_for(m))
    edge = perm_core.scratch_rows(m)  # the first block edge, from SCRATCH_BYTES
    for n in (0, 1, edge - 1, edge, edge + 1, 2 * edge + 1, 3 * edge - 5):
        rows = good[np.arange(n) % len(good)].copy()
        planted = [k for k in (0, edge - 1, edge) if k < n] if m > 1 else []
        rows[planted, -1] = rows[planted, 0]  # row 0 and both sides of the first block edge
        got = perm_core._misses_a_value(rows)
        assert got.dtype == bool and got.shape == (n,)
        assert np.array_equal(got, _misses_by_scatter(rows)), (m, n)
        assert np.flatnonzero(got).tolist() == planted


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_rows_in_equals_isin(dtype) -> None:
    v = PermClass("V", 12, lift_level(12).rows()).as_array().astype(dtype)
    rng = np.random.default_rng(7)
    others = [v, v[:0], v[::3], np.concatenate([v[5:9]] * 3), v[rng.permutation(len(v))][:20]]
    for rows in (v, v[:0], np.concatenate([v, v[::-1]])):
        for other in others:
            want = np.isin(perm_core._row_items(rows), perm_core._row_items(other))
            got = perm_core._rows_in(rows, other)
            assert got.dtype == bool and np.array_equal(got, want)
    wide = np.array([np.arange(1, 301), np.arange(300, 0, -1)], dtype=np.uint16)
    assert perm_core._rows_in(wide, wide[1:]).tolist() == [False, True]


def test_perm_class_from_array_rejects_wrong_shape_or_dtype() -> None:
    for bad in (np.ones((2, 4), dtype=np.uint8), np.array([1, 2, 3]), np.array([[1.0, 2.0, 3.0]])):
        with pytest.raises(ValueError, match=r"V of degree 3 needs an \(N, 3\) integer array"):
            PermClass("V", 3, bad)


def test_perm_class_rejects_nonpositive_degree() -> None:
    for m in (0, -1):
        with pytest.raises(ValueError, match=f"^V degree must be positive, got {m}$"):
            PermClass("V", m, np.zeros((0, 0), dtype=np.uint8))


def _reference_lines(rows: np.ndarray, fmt: str) -> str:
    """format_rows one row at a time, the way Permutation's fields spell it."""
    m = rows.shape[1]
    if fmt == "json":
        lines = [json.dumps(Permutation(row).to_json()) for row in rows.tolist()]
    else:
        lines = [("" if m <= 9 else " ").join(map(str, row)) for row in rows.tolist()]
    return "".join(line + "\n" for line in lines)


# token widths change at 10, 100 and 1000, and the row dtype at 256
@pytest.mark.parametrize("m", [1, 2, 9, 10, 99, 100, 255, 256, 999, 1000, 2000])
@pytest.mark.parametrize("fmt", ["oneline", "json"])
def test_format_rows_equals_the_per_row_reference(m: int, fmt: str) -> None:
    identity = np.arange(1, m + 1)
    rows = np.stack([identity, identity[::-1]] + [np.roll(identity, k) for k in (1, m // 2, -1)])
    for dtype in (_dtype_for(m), np.int64):
        block = rows.astype(dtype)
        assert format_rows(block, m, fmt) == _reference_lines(block, fmt)
        assert format_rows(block[:0], m, fmt) == ""
    assert Permutation(rows[1]).one_line() == _reference_lines(rows[1:2], "oneline")[:-1]


def test_format_rows_builds_each_token_table_once(monkeypatch: pytest.MonkeyPatch) -> None:
    build = perm_core._token_table
    built: list[list[str]] = []
    monkeypatch.setattr(perm_core, "_token_table", lambda tokens: built.append(tokens) or build(tokens))
    perm_core._encoding.cache_clear()
    rows = PermClass("V", 40, lift_level(40).rows()).as_array()
    lines = [Permutation(row).one_line() for row in rows.tolist()]
    assert len(lines) == 490 and len(built) == 2
    assert "".join(line + "\n" for line in lines) == format_rows(rows, 40, "oneline")
    assert len(built) == 2
    # the cached tables are shared, so no caller may write to them
    assert not any(a.flags.writeable for a in perm_core._encoding(40, "oneline"))


def test_shift_closure_of_a_single_row() -> None:
    closed = shift_closure(_cls("V", "12"))
    assert closed.members == (_p("12"), _p("21"))


def test_shift_closure_is_idempotent_and_preserves_label() -> None:
    base = _cls("V", "1234", "2413")
    closed = shift_closure(base)
    assert isinstance(closed, PermClass)
    assert closed.label == base.label
    assert len(closed) == 8
    assert shift_closure(closed) == closed
    for p in closed:
        assert any(shift_equivalent(p, q) for q in base)


@pytest.mark.parametrize("m", [256, 300])
def test_shift_closure_past_degree_255_is_uint16(m: int) -> None:
    rows = affine_rows(m, 0)
    closed = shift_closure(PermClass("VL0", m, rows))
    wide = rows.astype(np.int64)
    every = PermClass("VL0", m, np.concatenate([(wide + k) % m + 1 for k in range(m)]))
    assert closed.as_array().dtype == np.uint16
    assert closed == every and len(closed) == m * len(rows)


def test_docstring_examples() -> None:
    import doctest

    import oracles
    import soslift.farey
    import soslift.perm_core

    for module in (soslift.perm_core, soslift.farey, oracles):
        result = doctest.testmod(module)
        assert result.attempted > 0
        assert result.failed == 0
