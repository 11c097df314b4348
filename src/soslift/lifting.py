"""Degree lifting: reconstruct the class V of degree m from degree m-1.

The construction is purely arithmetic on integer sequences.  For each parent
pi of degree m-1, prepend a fixed point and add one to get theta_pi, and let
a be the smallest adjacent difference of theta_pi mod m.  Every child is a
shift of theta_pi: if the difference set is the singleton {a}, the parent
branches into the shifts by a-1 and by a; if it is the consecutive pair
{a, a+1}, the parent has the single child theta_pi shifted by a.  Children of
a branching parent are emitted (0)-child first, (1)-child second; the tree
module relies on that emission order.

A member theta of V is fixed by theta(1) and theta(m): the congruence
theta(i+1) = theta(i) + theta(1) - [theta(m) <= theta(i)] (mod m) rebuilds
the rest of the row.  A Level therefore holds only these two columns, and
the shift rule acts on them alone.  With f' = pi(1), l' = pi(m-1) and
s = f' + l', the differences of theta_pi lie in {f'-1, f', f'+1}, and which
of them occur depends on s only:

  s < m   one child (f', s)
  s > m   one child (f'+1, s+1-m)
  s = m   a branching parent: the (0)-child (f', m), the (1)-child (f'+1, 1)

so the branching parents are exactly those with f' + l' = m, phi(m) of them.
A level costs O(N) to lift, and Level.rows decodes full rows, column by
column, only where they are printed or compared.

This module deliberately depends on nothing but the permutation core: no
fractions, no angles, no sorting of fractional parts anywhere.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .perm_core import (SCRATCH_BYTES, PermClass, Permutation, _dtype_for, _misses_a_value,
                        _sort_rows, check_degree, gamma, in_V, psi)

FORCE_THRESHOLD = 500
MAX_LIFT_DEGREE = 2000
# sorted_blocks decodes at most this many bytes of rows per block, unless
# one theta(1) group alone is larger
BLOCK_BYTES = 16 << 20

TAG_SINGLE = -1
TAG_LEFT = 0
TAG_RIGHT = 1


class Level:
    """The class V of degree m, in generation order, as its first and last columns.

    first[k] and last[k] are theta(1) and theta(m) of member k, held
    read-only; neither they nor m can be rebound.  ``shape`` and ``nbytes``
    read as for the (N, m) array of rows the level stands for and for the
    bytes it holds.
    """

    __slots__ = ("m", "first", "last", "__weakref__")

    def __init__(self, m: int, first: np.ndarray, last: np.ndarray):
        for name, value in (("first", first), ("last", last)):
            value = value.view()
            value.flags.writeable = False
            object.__setattr__(self, name, value)
        object.__setattr__(self, "m", m)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"a Level is read-only; cannot set {name}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.first), self.m

    @property
    def nbytes(self) -> int:
        return self.first.nbytes + self.last.nbytes

    def __len__(self) -> int:
        return len(self.first)

    def rows(self, start: int = 0, stop: int | None = None) -> np.ndarray:
        """Members start..stop-1 as a C-contiguous (n, m) array of dtype _dtype_for(m).

        Decoded one column at a time through the congruence, on uint16
        columns of t = theta(i) - 1: t + theta(1) - [theta(m) <= theta(i)]
        lies in [0, 2m - 1], and its minimum with itself less m (which wraps
        past 2^16 - m unless it is at least m) reduces it into [0, m - 1].
        Each tile of SCRATCH_BYTES // 16 rows is decoded into a column-major
        slab of 8 columns (at most SCRATCH_BYTES), copied into the rows while
        in cache, so the decode holds little beside its output.
        """
        m, dtype, tile = self.m, _dtype_for(self.m), SCRATCH_BYTES // 16
        firsts, lasts = self.first[start:stop], self.last[start:stop]
        out = np.empty((len(firsts), m), dtype=dtype)
        slab = np.empty((min(m, 8), min(len(out), tile)), dtype=dtype)
        for lo in range(0, len(out), tile):
            first, last = firsts[lo:lo + tile], lasts[lo:lo + tile]
            t = np.subtract(first, 1, dtype=np.uint16)
            wrapped, carry = np.empty_like(t), np.empty(len(t), dtype=bool)
            for done in range(0, m, len(slab)):
                part = slab[:m - done, :len(first)]
                for column in part:
                    np.add(t, 1, out=column, casting="unsafe")
                    np.less_equal(last, column, out=carry)
                    t += first
                    t -= carry
                    np.subtract(t, m, out=wrapped)
                    np.minimum(t, wrapped, out=t)
                out[lo:lo + len(first), done:done + len(part)] = part.T
        return out

    @classmethod
    def from_rows(cls, array: np.ndarray, start: int = 0) -> "Level":
        """The level of the rows of an (N, m) integer array, each checked to lie in V.

        A refused row is named by its index plus start: its index in a source
        read block by block, of which the array is the block from row start.
        """
        array = np.asarray(array)
        if array.ndim != 2 or array.shape[1] < 1 or not np.issubdtype(array.dtype, np.integer):
            raise ValueError(f"expected a 2-d parent array of integers, got shape {array.shape} "
                             f"of {array.dtype}")
        m = array.shape[1]
        check_degree(m, MAX_LIFT_DEGREE)
        bad = _outside_V(array)
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(f"row {start + k} ({' '.join(map(str, array[k].tolist()))}) is not a "
                             f"permutation that satisfies the V congruence; input is not the class V")
        dtype = _dtype_for(m)
        return cls(m, array[:, 0].astype(dtype), array[:, -1].astype(dtype))


def _outside_V(array: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (N, m) integer array that are not members of V.

    A row is a member when the congruence run from its first and last
    values gives it back and is a permutation of 1..m.  The decoded rows
    lie in 1..m whatever the input, so they, not the input, are scattered.
    """
    m = array.shape[1]
    ends = np.clip(array[:, [0, -1]].astype(np.int64), 1, m).astype(_dtype_for(m))
    decoded = Level(m, ends[:, 0], ends[:, 1]).rows()
    return (decoded != array).any(axis=1) | _misses_a_value(decoded)


def lift_fibers(parents: Level) -> tuple[Level, np.ndarray, np.ndarray]:
    """Vectorized one-level lift kernel, on (first, last) pairs.

    parents: the degree-(m-1) class V, in any row order.  Returns (children,
    parent_index, tags): children is the degree-m Level with each parent's
    children consecutive and in (0)/(1) order, parent_index maps each child
    row back to its parent row, and tags holds -1 for a single child, 0 and
    1 for a branching pair.
    """
    m = parents.m + 1
    first = parents.first.astype(np.int16)
    s = first + parents.last
    up = s > m
    branching = np.flatnonzero(s == m)

    # every parent's first child is (f', s), or (f'+1, s+1-m) when s > m; a
    # branching parent's (1)-child (f'+1, 1) follows it, so the k-th
    # (1)-child lands k rows past its parent, and every other row is a
    # parent's first child in parent order
    right_rows = branching + np.arange(1, len(branching) + 1)
    n = len(s) + len(branching)
    first_rows = np.ones(n, dtype=bool)
    first_rows[right_rows] = False
    dtype = _dtype_for(m)
    child_first, child_last = np.empty(n, dtype=dtype), np.empty(n, dtype=dtype)
    child_first[first_rows] = first + up
    child_first[right_rows] = first[branching] + 1
    child_last[first_rows] = np.where(up, s + (1 - m), s)
    child_last[right_rows] = 1
    parent_index = np.empty(n, dtype=np.int64)
    parent_index[first_rows] = np.arange(len(s))
    parent_index[right_rows] = branching
    tags = np.full(n, TAG_SINGLE, dtype=np.int8)
    tags[right_rows - 1] = TAG_LEFT
    tags[right_rows] = TAG_RIGHT
    return Level(m, child_first, child_last), parent_index, tags


def check_lift_degree(M: int, force: bool = False) -> None:
    """Refuse degrees below 1, above 2000, and above 500 without force=True.

    Both routes to V_M that build whole levels, lifting and the Farey
    table, take their degree through this guard.
    """
    check_degree(M, MAX_LIFT_DEGREE, "target degree")
    if M > FORCE_THRESHOLD and not force:
        raise ValueError(f"degree {M} > {FORCE_THRESHOLD} needs force=True "
                         "(soslift lift --force, soslift enumerate --force)")


def iter_levels(M: int, force: bool = False) -> Iterator[tuple[Level, np.ndarray, np.ndarray]]:
    """Yield lift_fibers' (level, parent_index, tags) for degrees 1..M.

    Degree 1 is the row [1] with parent 0 and tag TAG_SINGLE.  Only the
    previous level is held.  The degree guard runs on the first next().
    """
    check_lift_degree(M, force)
    one = np.ones(1, dtype=_dtype_for(1))
    level = Level(1, one, one)
    yield level, np.zeros(1, dtype=np.int64), np.array([TAG_SINGLE], dtype=np.int8)
    for _ in range(1, M):
        level, parent_index, tags = lift_fibers(level)
        yield level, parent_index, tags


def lift_level(M: int, force: bool = False) -> Level:
    """The class V of degree M as a Level in generation order, lifted from degree 1."""
    for level, _, _ in iter_levels(M, force):
        pass
    return level


def sorted_blocks(level: Level) -> Iterator[np.ndarray]:
    """The members of a level in lexicographic order, as consecutive blocks of rows.

    Lexicographic order puts theta(1) first, and equal rows have equal
    theta(1), so the (first, last) pairs are put in theta(1) order by a
    stable argsort (a counting sort) and cut into blocks of whole theta(1)
    groups, of at most BLOCK_BYTES of rows unless one group is larger.  Each
    block is decoded into the buffer that _sort_rows sorts, deduplicates and
    checks (a ValueError for a row that is not a permutation), so the blocks
    in turn are the rows of the class, and one block of rows is held at a time.
    """
    m = level.m
    order = np.argsort(level.first, kind="stable")
    grouped = Level(m, level.first[order], level.last[order])
    block_rows = BLOCK_BYTES // (m * _dtype_for(m).itemsize)
    start = stop = 0
    for end in np.cumsum(np.bincount(grouped.first)).tolist():  # where each group ends
        if end - start > block_rows and stop > start:
            yield _sort_rows("V", m, grouped.rows(start, stop))
            start = stop
        stop = end
    if stop > start:
        yield _sort_rows("V", m, grouped.rows(start, stop))


def generate_up_to(M: int, force: bool = False) -> list[PermClass]:
    """Every level of the recursion from degree 1, each a PermClass (sorted and
    checked when built): about M^4/13 bytes in all, where lift_level keeps one."""
    return [PermClass("V", level.m, level.rows()) for level, _, _ in iter_levels(M, force)]


def project(theta: Permutation) -> Permutation:
    """Down the generation tree: the degree-(m-1) parent of a class-V member."""
    if theta.m < 2:
        raise ValueError("projection needs degree >= 2")
    if not in_V(theta):
        raise ValueError(f"{theta.one_line()} is not in the class V; projection undefined")
    return psi(gamma(theta))
