"""Per-row membership predicates: the test oracles for the class rules.

Each predicate reads one Permutation and states its class's rule directly
from the definition.  The library states the same rules once, column-wise,
as the step rules of perm_sets._RULES; the tests compare the two.  The pairs
(k, s) of X are also read from the lifted V (x_pairs_of_v), with no row of X,
as the reference for perm_sets._x_pairs, and the rows of X with theta(1) = 1
are found by a prefix search (x_rows_by_prefix), the reference for
perm_sets._x_rows.
"""
from __future__ import annotations

import numpy as np

from soslift.lifting import lift_level
from soslift.perm_core import Permutation, ascents, cds, delta


def in_W(theta: Permutation) -> bool:
    """Exact-integer variant of the recurrence (the class W)."""
    m = theta.m
    vals = theta.values
    first, last = vals[0], vals[-1]
    return all(
        vals[i + 1] - vals[i]
        == first - (last <= vals[i]) + m * ((vals[i] <= vals[i + 1]) - 1)
        for i in range(m - 1)
    )


def in_Y(theta: Permutation) -> bool:
    """Constant-delta membership; every degree-2 permutation qualifies."""
    if theta.m < 3:
        return True
    d = delta(theta)
    return all(v == d[0] for v in d)


def in_Yprime(theta: Permutation) -> bool:
    """delta identically -A_theta; defined for m >= 3 only."""
    if theta.m < 3:
        raise ValueError(f"Yprime needs degree >= 3, got {theta.m}")
    a = ascents(theta)
    return all(v == -a for v in delta(theta))


def in_X(theta: Permutation) -> bool:
    """Quasi-progression of diameter 1: cds inside {k, k+1} for some k in [m-1]."""
    residues = cds(theta)
    return max(residues) - min(residues) <= 1 and 0 not in residues


def x_pair(theta: Permutation) -> tuple[int, int] | None:
    """The pair (k, s) of a row whose residues all lie in one {k, k+1}: k is
    the least residue and s the number of steps by k (m - 1 when every residue
    is k).  None for every other row."""
    vals = theta.values
    residues = [(b - a) % theta.m for a, b in zip(vals, vals[1:])]
    k = min(residues)
    return (k, residues.count(k)) if max(residues) <= k + 1 else None


def x_pairs_of_v(m: int) -> np.ndarray:
    """The pairs (k, s) of the rows of X with theta(1) = 1, read from the
    first and last columns of the lifted V_m, as a (2, N) array ordered by k,
    then s.

    X is the shift closure of V, and a member theta of V with (theta(1),
    theta(m)) = (f, l) has the residues f - [l <= theta(i)]: f - 1 at the
    m - l steps from l + 1..m, f at the others.  So the shift of theta with
    theta(1) = 1 has the pair (f - 1, m - l), or (f, m - 1) when l = m and
    every residue is f.  Members that are shifts of each other give one pair.
    """
    level = lift_level(m, force=True)
    f, l = level.first.astype(np.int64), level.last.astype(np.int64)
    pairs = np.stack([np.where(l == m, f, f - 1), np.where(l == m, m - 1, m - l)])
    return np.unique(pairs, axis=1)


def x_rows_by_prefix(m: int) -> np.ndarray:
    """The rows of X with theta(1) = 1, by a breadth-first search over
    prefixes from theta(1) = 1, written from X's definition: a prefix is
    extended by each value it has not taken that keeps every residue of the
    prefix inside one {k, k+1}.  Returns an (N, m) int16 array."""
    rows = np.ones((1, 1), dtype=np.int16)
    for _ in range(1, m):
        residues = np.diff(rows, axis=1) % m
        lo, hi = residues.min(axis=1, initial=m), residues.max(axis=1, initial=0)
        taken = np.zeros((len(rows), m + 1), dtype=bool)
        np.put_along_axis(taken, rows.astype(np.intp), True, axis=1)
        children = []
        for v in range(1, m + 1):
            r = (v - rows[:, -1]) % m
            ok = ~taken[:, v] & (np.maximum(hi, r) - np.minimum(lo, r) <= 1)
            children.append(np.column_stack([rows[ok], np.full(np.count_nonzero(ok), v, rows.dtype)]))
        rows = np.concatenate(children)
    return rows


def satisfies_sos_recurrence(sigma: Permutation) -> bool:
    """Check the three-case additive recurrence of Sos permutations.

    sigma(i+1) = sigma(i) + sigma(1)            if sigma(i) <= m - sigma(1)
                 sigma(i) + sigma(1) - sigma(m) if m - sigma(1) < sigma(i) < sigma(m)
                 sigma(i) - sigma(m)            if sigma(m) <= sigma(i)

    The guards can overlap only when sigma(1) + sigma(m) <= m (never the
    case for an actual Sos permutation); every guard that fires must then
    agree, so the predicate is order-independent.
    """
    m = sigma.m
    first, last = sigma(1), sigma(m)
    vals = sigma.values
    for i in range(m - 1):
        cur, nxt = vals[i], vals[i + 1]
        if cur <= m - first and nxt != cur + first:
            return False
        if m - first < cur < last and nxt != cur + first - last:
            return False
        if last <= cur and nxt != cur - last:
            return False
    return True
