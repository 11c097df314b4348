"""Per-row definitions and membership predicates: the test oracles.

The paper's per-row definitions are stated here on one Permutation at a
time, as the references that the array code of the package is checked
against: the difference sequence delta, the ascent count, the congruential
difference set cds, group inverse, psi_inverse, shift equivalence, the Sos
permutation of an angle and the closed-form tau (tau_explicit, one row of
sos._closed_form_taus), the affine rows theta_ab, random interior rationals
(the draws of sos._interior_pq) and the mediant of a Farey interval.  No
command runs them.

Each predicate reads one Permutation and states its class's rule directly
from the definition.  The library states the same rules once, column-wise,
as the step rules of perm_sets._RULES; the tests compare the two.  The pairs
(k, s) of X are also read from the lifted V (x_pairs_of_v), with no row of X,
as the reference for perm_sets._x_pairs, and the rows of X with theta(1) = 1
are found by a prefix search (x_rows_by_prefix), the reference for
perm_sets._x_rows.  The rows of a lifted level are also decoded column by
column into a column-major array (rows_by_columns), the reference for
lifting.Level.rows, and lifted with each (1)-child put in by np.insert
(lift_fibers_by_insert), the reference for lifting.lift_fibers.
"""
from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import numpy as np

from soslift.farey import FareyInterval
from soslift.lifting import TAG_LEFT, TAG_RIGHT, TAG_SINGLE, Level, lift_level
from soslift.perm_core import Permutation, _dtype_for, check_degree, shift, supermod_m
from soslift.sos import _check_angle, _closed_form_taus, _interior_pq, _keys


def shift_equivalent(theta: Permutation, other: Permutation) -> bool:
    """True iff the two permutations differ by a shift."""
    if theta.m != other.m:
        raise ValueError(f"degree mismatch: {theta.m} vs {other.m}")
    return shift(theta, other(1) - theta(1)) == other


def psi_inverse(pi: Permutation) -> Permutation:
    """Prepend a fixed point: (p1, ..., pn) -> (1, p1+1, ..., pn+1)."""
    return Permutation((1,) + tuple(v + 1 for v in pi))


def delta(theta: Permutation) -> tuple[int, ...]:
    """The four-term difference sequence Delta_theta(i), i in [m-1].

    Delta_theta(i) = theta(i+1) - theta(i) + [theta(m) <= theta(i)]
                     - [theta(1) <= theta(i+1)] - (m-1) [theta(i) <= theta(i+1)]

    where [.] is the Iverson bracket.  Constancy of this sequence is the
    defining property of the class Y_m (m >= 3).
    """
    m = theta.m
    if m < 2:
        raise ValueError("delta needs degree >= 2")
    first, last = theta(1), theta(m)
    vals = theta.values
    out = []
    for i in range(m - 1):
        cur, nxt = vals[i], vals[i + 1]
        out.append(nxt - cur + (last <= cur) - (first <= nxt) - (m - 1) * (cur <= nxt))
    return tuple(out)


def ascents(theta: Permutation) -> int:
    """Number of positions i with theta(i) <= theta(i+1)."""
    return sum(a <= b for a, b in zip(theta.values, theta.values[1:]))


def cds(theta: Permutation) -> frozenset[int]:
    """Congruential difference set {(theta(i+1) - theta(i)) mod m}.

    >>> sorted(cds(Permutation.parse("1342")))
    [1, 2]
    """
    m = theta.m
    if m < 2:
        raise ValueError("cds needs degree >= 2")
    return frozenset((b - a) % m for a, b in zip(theta.values, theta.values[1:]))


def inverse(theta: Permutation) -> Permutation:
    """Group inverse: position of each value."""
    out = [0] * theta.m
    for pos, v in enumerate(theta, start=1):
        out[v - 1] = pos
    return Permutation(out)


def sos_from_alpha(m: int, alpha: Fraction) -> Permutation:
    """The permutation sorting {alpha}, {2 alpha}, ..., {m alpha} increasingly."""
    keys = _keys(m, alpha)
    return Permutation(sorted(range(1, m + 1), key=lambda i: keys[i - 1]))


def tau_explicit(m: int, alpha: Fraction) -> Permutation:
    """Closed-form tau via floor sums, valid off the order-m Farey sequence.

    tau_alpha(i) = m (1 - floor(i alpha)) + sum_{j=1}^{m} floor(j alpha)
                   + sum_{j=1}^{m} floor((i-j) alpha)

    The formula is only quoted for alpha that is not an order-m Farey term,
    so reduced denominators <= m are rejected rather than extrapolated.
    One row of _closed_form_taus: O(m), in int64 where k*p fits and in
    Python integers otherwise.
    """
    _check_angle(m, alpha)
    p, q = alpha.numerator, alpha.denominator
    if q <= m:
        raise ValueError(
            f"alpha = {p}/{q} is a term of the order-{m} Farey sequence; "
            "the closed form is undefined there"
        )
    dtype = np.int64 if m * q < 1 << 62 else object
    return Permutation(_closed_form_taus(m, np.array([p], dtype), np.array([q], dtype))[0].tolist())


def theta_ab(m: int, a: int, b: int) -> Permutation:
    """The affine permutation i -> ((a i + b - 1) mod m) + 1.

    Bijective exactly when gcd(a, m) = 1.
    """
    check_degree(m)
    if gcd(a, m) != 1:
        raise ValueError(f"theta_ab not invertible: gcd({a}, {m}) != 1")
    return Permutation(supermod_m(a * i + b, m) for i in range(1, m + 1))


def random_interior_rational(m: int, rng: random.Random) -> Fraction:
    """A uniform-ish reduced fraction in (0, 1) with denominator in (m, 4m]."""
    return Fraction(*_interior_pq(m, rng))


def mediant(interval: FareyInterval) -> Fraction:
    """Mediant (p+p')/(q+q') of the interval endpoints.

    For an order-m Farey interval the mediant lies strictly inside and its
    denominator exceeds m, so the m fractional parts {i*alpha} are distinct.
    """
    return Fraction(
        interval.lo.numerator + interval.hi.numerator,
        interval.lo.denominator + interval.hi.denominator,
    )


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
    level = lift_level(m)
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


def rows_by_columns(level: Level, start: int = 0, stop: int | None = None) -> np.ndarray:
    """Members start..stop-1 of a level, each column decoded through the
    congruence theta(i+1) = theta(i) + theta(1) - [theta(m) <= theta(i)]
    (mod m) into an (m, n) array of dtype _dtype_for(m), returned as its
    (n, m) transpose: no slab, and no C-contiguous copy of the rows."""
    m = level.m
    first = level.first[start:stop].astype(np.uint16)
    last_less_one = level.last[start:stop].astype(np.uint16) - np.uint16(1)
    columns = np.empty((m, len(first)), dtype=_dtype_for(m))
    t, wrapped = first - np.uint16(1), np.empty(len(first), dtype=np.uint16)
    carry = np.empty(len(first), dtype=bool)
    columns[0] = first
    for column in columns[1:]:
        np.greater_equal(t, last_less_one, out=carry)
        t += first
        t -= carry
        np.subtract(t, m, out=wrapped)
        np.minimum(t, wrapped, out=t)
        np.add(t, 1, out=column, casting="unsafe")
    return columns.T


def lift_fibers_by_insert(parents: Level) -> tuple[Level, np.ndarray, np.ndarray]:
    """The reference lift kernel: each (1)-child inserted after its (0)-child with np.insert."""
    m = parents.m + 1
    first = parents.first.astype(np.int16)
    s = first + parents.last
    up = s > m
    branching = np.flatnonzero(s == m)
    after = branching + 1
    dtype = _dtype_for(m)
    children = Level(m, np.insert(first + up, after, first[branching] + 1).astype(dtype),
                     np.insert(np.where(up, s + (1 - m), s), after, 1).astype(dtype))
    parent_index = np.insert(np.arange(len(s), dtype=np.int64), after, branching)
    left_rows = branching + np.arange(len(branching))
    tags = np.full(len(parent_index), TAG_SINGLE, dtype=np.int8)
    tags[left_rows] = TAG_LEFT
    tags[left_rows + 1] = TAG_RIGHT
    return children, parent_index, tags
