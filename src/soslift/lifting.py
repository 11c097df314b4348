"""Degree lifting: reconstruct the class V of degree m from degree m-1.

The construction is purely arithmetic on integer sequences.  For each parent
pi of degree m-1, prepend a fixed point and add one to get theta_pi, and let
a be the smallest adjacent difference of theta_pi mod m.  Every child is a
shift of theta_pi: if the difference set is the singleton {a}, the parent
branches into the shifts by a-1 and by a; if it is the consecutive pair
{a, a+1}, the parent has the single child theta_pi shifted by a.  Children of
a branching parent are emitted (0)-child first, (1)-child second; the tree
module relies on that emission order.

The kernel works on the zero-based int16 array theta_pi - 1 = (0, pi) and
never takes a remainder: difference residues and shifted values lie in
[-m, m), so adding m under the sign bit reduces them mod m.  The children
are written once, plus one, into the level's own dtype (uint8 up to degree
255, uint16 beyond).

This module deliberately depends on nothing but the permutation core: no
fractions, no angles, no sorting of fractional parts anywhere.
"""
from __future__ import annotations

from typing import Iterator

import numpy as np

from .perm_core import MAX_DEGREE, PermClass, Permutation, _dtype_for, gamma, in_V, psi

FORCE_THRESHOLD = 500
MAX_LIFT_DEGREE = 2000

TAG_SINGLE = -1
TAG_LEFT = 0
TAG_RIGHT = 1


def _wrap(x: np.ndarray, m: int) -> None:
    """Reduce the int16 array x, with entries in [-m, m), mod m in place.

    x >> 15 is -1 exactly where x is negative, so the mask adds m there.
    """
    mask = x >> 15
    mask &= m
    x += mask


def lift_fibers(parents: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Vectorized one-level lift kernel.

    parents: (N, m-1) integer array whose rows are the degree-(m-1) class V,
    in any row order.  Returns (children, parent_index, tags): children is
    (N', m) with each parent's children consecutive and in (0)/(1) order,
    parent_index maps each child row back to its parent row, and tags holds
    -1 for a single child, 0 and 1 for a branching pair.
    """
    if parents.ndim != 2:
        raise ValueError(f"expected a 2-d parent array, got shape {parents.shape}")
    n, prev_m = parents.shape
    m = prev_m + 1
    if m > MAX_DEGREE:
        raise ValueError(f"degree {m} exceeds the supported ceiling {MAX_DEGREE}")

    # theta0 = theta_pi - 1 = (0, pi); int16 holds every value, difference
    # and shifted value up to MAX_DEGREE.
    theta0 = np.empty((n, m), dtype=np.int16)
    theta0[:, 0] = 0
    theta0[:, 1:] = parents

    diffs = theta0[:, 1:] - theta0[:, :-1]
    _wrap(diffs, m)
    lo = diffs.min(axis=1)
    hi = diffs.max(axis=1)
    bad = hi - lo > 1
    if bad.any():
        row = parents[int(np.argmax(bad))]
        raise ValueError(
            "difference set is neither a singleton nor a consecutive pair "
            f"for parent {' '.join(map(str, row.tolist()))}; input is not the class V"
        )

    branching = lo == hi
    counts = 1 + branching
    ends = np.cumsum(counts)
    parent_index = np.repeat(np.arange(n, dtype=np.int64), counts)
    left_rows = ends[branching] - 2

    # Every child is shift(theta_pi, k) = (theta0 + k) mod m + 1 with k = a
    # for the last child and k = a - 1 for a (0)-child; theta0 + k - m lies
    # in [-m, m).
    shifts = (lo - m)[parent_index]
    shifts[left_rows] -= 1
    wrapped = theta0[parent_index]
    wrapped += shifts[:, None]
    _wrap(wrapped, m)
    children = np.empty(wrapped.shape, dtype=_dtype_for(m))
    np.add(wrapped, 1, out=children, casting="unsafe")

    tags = np.full(len(parent_index), TAG_SINGLE, dtype=np.int8)
    tags[left_rows] = TAG_LEFT
    tags[left_rows + 1] = TAG_RIGHT
    return children, parent_index, tags


def lift_once(vprev: PermClass) -> PermClass:
    """Lift the degree-(m-1) class V to degree m."""
    children, _, _ = lift_fibers(vprev.as_array())
    return PermClass.from_array("V", vprev.m + 1, children)


def check_lift_degree(M: int, force: bool = False) -> None:
    """Refuse degrees below 1, above 2000, and above 500 without force=True."""
    if M < 1:
        raise ValueError(f"target degree must be positive, got {M}")
    if M > MAX_LIFT_DEGREE:
        raise ValueError(f"lifting beyond degree {MAX_LIFT_DEGREE} is not supported")
    if M > FORCE_THRESHOLD and not force:
        raise ValueError(
            f"lifting to degree {M} > {FORCE_THRESHOLD} needs force=True (soslift lift --force)"
        )


def iter_levels(M: int, force: bool = False) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yield lift_fibers' (level, parent_index, tags) for degrees 1..M.

    Degree 1 is the row [1] with parent 0 and tag TAG_SINGLE.  Only the
    previous level is held.  The degree guard runs on the first next().
    """
    check_lift_degree(M, force)
    level = np.array([[1]], dtype=_dtype_for(1))
    yield level, np.zeros(1, dtype=np.int64), np.array([TAG_SINGLE], dtype=np.int8)
    for _ in range(1, M):
        level, parent_index, tags = lift_fibers(level)
        yield level, parent_index, tags


def lift_to(M: int, force: bool = False) -> PermClass:
    """The class V of degree M, lifted from degree 1 one level at a time."""
    for level, _, _ in iter_levels(M, force):
        pass
    return PermClass.from_array("V", M, level)


def generate_up_to(M: int, force: bool = False) -> list[PermClass]:
    """Run the lifting recursion from degree 1, returning every level.

    Each level is a PermClass, so its rows are lexsorted and checked when it
    is built.  Storage for all levels grows like M^4/13 bytes; lift_to keeps
    one, and iter_levels yields each level in generation order unsorted.
    """
    return [PermClass.from_array("V", m, level)
            for m, (level, _, _) in enumerate(iter_levels(M, force), start=1)]


def project(theta: Permutation) -> Permutation:
    """Down the generation tree: the degree-(m-1) parent of a class-V member."""
    if theta.m < 2:
        raise ValueError("projection needs degree >= 2")
    if not in_V(theta):
        raise ValueError(f"{theta.one_line()} is not in the class V; projection undefined")
    return psi(gamma(theta))
