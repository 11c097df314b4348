"""Property tests: PermClass's canonical form, the projection of lifted children, the
round trip of formatted rows, and the shift, gamma and psi maps."""
from __future__ import annotations

import json

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from soslift.lifting import Level, lift_fibers, lift_to, project
from soslift.perm_core import (PermClass, Permutation, _dtype_for, format_rows, gamma, psi,
                               psi_inverse, shift, shift_closure, shift_equivalent)

INT_DTYPES = (np.int8, np.int16, np.int32, np.int64, np.uint8, np.uint16, np.uint32, np.uint64)


@st.composite
def repeated_rows(draw):
    """(m, rows, dtype): permutation rows of degree m, shuffled, some repeated."""
    m = draw(st.integers(1, 6))
    perms = draw(st.lists(st.permutations(range(1, m + 1)), max_size=10))
    repeats = draw(st.lists(st.sampled_from(perms), max_size=10)) if perms else []
    rows = draw(st.permutations(perms + repeats))
    dtype = draw(st.sampled_from([d for d in INT_DTYPES if np.iinfo(d).max >= m]))
    return m, rows, dtype


# degree 256 is the first stored as uint16; its rows are too costly to draw
DEGREE_256 = (256, [list(range(256, 0, -1)), list(range(1, 257)), list(range(256, 0, -1))], np.int64)


def straddling_rows(m: int, dtype: type) -> tuple:
    """(m, rows, dtype): rotations of 1..m whose first values straddle 256, shuffled, some
    repeated.  Read as little-endian uint16 bytes, 256 would sort before 1 and 257 before 2."""
    ident = list(range(1, m + 1))
    perms = [ident[k:] + ident[:k] for k in (255, 0, 256 % m, 1, 254)] + [ident[::-1]]
    return m, perms + perms[::2], dtype


@given(repeated_rows())
@example(DEGREE_256)
@example(straddling_rows(255, np.int32))
@example(straddling_rows(257, np.uint16))
def test_from_array_equals_the_eager_class(case) -> None:
    m, rows, dtype = case
    from_rows = PermClass.from_array("V", m, np.array(rows, dtype=dtype).reshape(len(rows), m))
    eager = PermClass("V", m, map(Permutation, rows))
    assert from_rows == eager
    assert hash(from_rows) == hash(eager)
    assert len(from_rows) == len(set(map(tuple, rows)))


@given(repeated_rows())
@example(DEGREE_256)
@example(straddling_rows(255, np.int32))
@example(straddling_rows(257, np.uint16))
def test_as_array_is_lexsorted_unique_and_narrow(case) -> None:
    m, rows, dtype = case
    arr = PermClass.from_array("V", m, np.array(rows, dtype=dtype).reshape(len(rows), m)).as_array()
    assert arr.dtype == _dtype_for(m)
    assert arr.shape == (len(set(map(tuple, rows))), m)
    assert arr.tolist() == [list(row) for row in sorted(set(map(tuple, rows)))]


@settings(deadline=None)
@given(st.integers(2, 40), st.data())
def test_project_maps_every_lifted_child_to_its_parent(m, data) -> None:
    parents = lift_to(m - 1).as_array()
    children, parent_index, _ = lift_fibers(Level.from_rows(parents))
    i = data.draw(st.integers(0, len(children) - 1))
    assert project(Permutation(children.rows(i, i + 1)[0])) == Permutation(parents[parent_index[i]])


@st.composite
def row_blocks(draw):
    """(m, rows): a block of degree-m permutation rows as an array of _dtype_for(m)."""
    # as many draws around the digit-string degrees (m <= 9) as beyond them
    m = draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
    perms = draw(st.lists(st.permutations(range(1, m + 1)), max_size=6))
    return m, np.array(perms, dtype=_dtype_for(m)).reshape(len(perms), m)


@settings(deadline=None)
@given(row_blocks())
def test_formatted_lines_parse_back_to_their_rows(case) -> None:
    m, rows = case
    parsers = {"json": lambda line: Permutation.from_json(json.loads(line)),
               "oneline": Permutation.parse}
    for fmt, parse in parsers.items():
        text = format_rows(rows, m, fmt)
        assert text.endswith("\n") or not len(rows)
        assert [parse(line).values for line in text.splitlines()] == list(map(tuple, rows.tolist()))


@st.composite
def perms(draw, min_m=1):
    """A permutation of degree 1..12, at least min_m."""
    m = draw(st.integers(min_m, 12))
    return Permutation(draw(st.permutations(range(1, m + 1))))


@given(perms(), st.integers(-30, 30), st.integers(-30, 30))
def test_shifts_compose_and_wrap_at_the_degree(theta, j, k) -> None:
    assert shift(shift(theta, j), k) == shift(theta, j + k)
    assert shift(theta, theta.m) == theta
    assert shift_equivalent(theta, shift(theta, k))


@given(perms())
def test_gamma_is_the_shift_that_starts_at_1(theta) -> None:
    g = gamma(theta)
    assert g(1) == 1
    assert g == shift(theta, 1 - theta(1))
    assert shift_equivalent(theta, g)


@given(perms(min_m=2))
def test_psi_inverse_undoes_psi(theta) -> None:
    fixed = gamma(theta)  # psi is defined where theta(1) = 1
    assert psi_inverse(psi(fixed)) == fixed
    assert psi(psi_inverse(theta)) == theta


@given(st.integers(1, 7).flatmap(lambda m: st.lists(st.permutations(range(1, m + 1)), max_size=8)
                                 .map(lambda rows: (m, rows))))
def test_shift_closure_of_a_class_equals_the_object_shifts(case) -> None:
    m, rows = case
    closed = shift_closure(PermClass("X", m, map(Permutation, rows)))
    assert closed.label == "X"
    assert set(closed) == {shift(Permutation(r), k) for r in rows for k in range(m)}
