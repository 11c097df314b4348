"""Sos permutations of rational angles and the Farey-interval correspondence.

A Sos permutation sigma of degree m sorts the fractional parts {i*alpha},
i in [m], increasingly; tau = sigma^{-1} is the object most constructions
here work with.  All angle arithmetic is exact: the fractional part {i*p/q}
is represented by the integer key (i*p) mod q, never by a float.

Two paths evaluate tau.  tau_from_alpha takes one Fraction and builds one
Permutation; it is the reference.  _rank_taus ranks the keys at many p/q
at once, a block of rows per argsort.  suranyi_table runs it at the
mediants of the order-m Farey terms, into one (N, m) array: the Farey route
to the class V, which uses no congruence and no lifting.  verify_invariants
checks the tau formulas on integer arrays alone: _rank_taus against a
binary search of the sorted keys (_searched_ranks) at the mediants, and
against the closed form of tau_explicit at random rationals, and tau just
below, at and just above each a/m against the affine rows (theta_ab as
arrays); tau_from_alpha at those fractions gives the same rows.
"""
from __future__ import annotations

import random
from bisect import bisect_right
from collections.abc import Callable, Sequence
from fractions import Fraction
from functools import partial
from math import gcd

import numpy as np

from .farey import FareyInterval, farey_terms, totient_sum
from .perm_core import (Permutation, _dtype_for, _row_items, add_record, check_degree,
                        scratch_rows, supermod_m)


def _check_angle(m: int, alpha: Fraction) -> None:
    """Refuse m outside 1..MAX_DEGREE and alpha outside (0, 1), before building anything."""
    check_degree(m)
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must satisfy 0 < alpha < 1, got {alpha}")


def _keys(m: int, alpha: Fraction) -> list[int]:
    """Integer sort keys (i*p) mod q for i = 1..m; validates m and alpha.

    Distinctness of the m fractional parts needs denominator q >= m: for
    q > m this is the generic interior case, and for q = m the key of i = m
    is 0, so the ascending sort places i = m first, which is exactly the
    boundary convention "the leftmost strict inequality becomes <=".
    """
    _check_angle(m, alpha)
    p, q = alpha.numerator, alpha.denominator
    if q < m:
        raise ValueError(
            f"alpha too coarse: {p}/{q} has denominator below m = {m}, "
            "so the fractional parts collide"
        )
    return [(i * p) % q for i in range(1, m + 1)]


def sos_from_alpha(m: int, alpha: Fraction) -> Permutation:
    """The permutation sorting {alpha}, {2 alpha}, ..., {m alpha} increasingly."""
    keys = _keys(m, alpha)
    return Permutation(sorted(range(1, m + 1), key=lambda i: keys[i - 1]))


def tau_from_alpha(m: int, alpha: Fraction) -> Permutation:
    """tau_alpha(i) = |{j in [m] : {j alpha} <= {i alpha}}|, the inverse of sos_from_alpha."""
    keys = _keys(m, alpha)
    ranked = sorted(keys)
    return Permutation(bisect_right(ranked, ki) for ki in keys)


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


def _closed_form_taus(m: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The closed form of tau_explicit at every p/q, one row each.

    With F(k) = floor(k p / q) for k in 1-m..m and C(k) = F(1-m) + ... + F(k),
    the two sums of row i are C(m) - C(0) and C(i-1) - C(i-1-m), so a row
    costs O(m).  p, q: (n,) int64 arrays with m*q < 2^62, or object arrays
    of Python integers.
    """
    floors = np.multiply.outer(p, np.arange(1 - m, m + 1)) // q[:, None]
    sums = np.zeros((len(p), 2 * m + 1), dtype=floors.dtype)  # sums[:, t] = C(t - m)
    np.cumsum(floors, axis=1, out=sums[:, 1:])
    total = sums[:, 2 * m] - sums[:, m]
    return m * (1 - floors[:, m:]) + total[:, None] + sums[:, m:2 * m] - sums[:, :m]


def theta_ab(m: int, a: int, b: int) -> Permutation:
    """The affine permutation i -> ((a i + b - 1) mod m) + 1.

    Bijective exactly when gcd(a, m) = 1.
    """
    check_degree(m)
    if gcd(a, m) != 1:
        raise ValueError(f"theta_ab not invertible: gcd({a}, {m}) != 1")
    return Permutation(supermod_m(a * i + b, m) for i in range(1, m + 1))


def affine_rows(m: int, b: int) -> np.ndarray:
    """The rows of theta_ab(m, a, b), one per a coprime to m in increasing order,
    as a (phi(m), m) int32 array: a*i < 2^31 up to MAX_DEGREE."""
    check_degree(m)  # before the (phi(m), m) rows are built
    i = np.arange(1, m + 1, dtype=np.int32)
    return (np.multiply.outer(i[np.gcd(i, m) == 1], i) + (b - 1)) % m + 1


def _check_tau_keys(m: int, p_max: int, q_max: int) -> None:
    """Refuse angles p/q with p <= p_max and q <= q_max whose tau keys _rank_taus
    cannot hold: the products i*p, i in [m], in int32 and the keys (i*p) mod q
    in uint16.  A mediant of order m has p <= q <= 2m, which fits below degree 2^15."""
    if m * p_max >= 1 << 31 or q_max > 1 << 16:
        raise ValueError(f"tau keys of degree {m} do not fit uint16 keys and int32 products "
                         f"(p up to {p_max}, q up to {q_max})")


def _rank_taus(m: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """tau at every p/q by its definition, one row of dtype _dtype_for(m) each.

    p, q: (n,) integer arrays of reduced fractions with q > m, so the keys
    (i*p) mod q, i in [m], are distinct and tau(i) is the 1-based rank of
    key i: one argsort per block of scratch_rows(m) rows, inverted by a
    scatter.  The products i*p are int32 and the keys uint16, which a
    stable argsort ranks by radix; p, q that do not fit are refused
    (_check_tau_keys) before any work.  Beyond the (n, m) result a block
    holds its int64 argsort, at most SCRATCH_BYTES, and its products and
    keys, half and a quarter of that.
    """
    if len(p):
        _check_tau_keys(m, int(p.max()), int(q.max()))
    p, q = p.astype(np.int32), q.astype(np.int32)
    i = np.arange(1, m + 1, dtype=np.int32)
    rows = np.empty((len(p), m), dtype=_dtype_for(m))
    ranks = np.arange(1, m + 1, dtype=rows.dtype)
    block_rows = scratch_rows(m)
    keys = np.empty((min(len(p), block_rows), m), dtype=np.uint16)
    for start in range(0, len(p), block_rows):
        stop = start + block_rows
        block = rows[start:stop]
        block_keys = keys[:len(block)]
        np.remainder(np.multiply.outer(p[start:stop], i), q[start:stop, None],
                     out=block_keys, casting="unsafe")
        # argsort gives sigma - 1 row by row; tau(sigma(j)) = j inverts it
        block[np.arange(len(block))[:, None], np.argsort(block_keys, axis=1, kind="stable")] = ranks
    return rows


class _RowView(Sequence):
    """A read-only sequence whose item t is built from row t of a table on access."""

    def __init__(self, n: int, item: Callable[[int], object]):
        self._n, self._item = n, item

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, t: int):
        if not -self._n <= t < self._n:
            raise IndexError(f"row {t} outside a table of {self._n}")
        return self._item(t % self._n)


class SuranyiTable:
    """The order-m pairing of Farey intervals with their tau permutations.

    Interval t (1-based) lies between the order-m Farey terms num[t-1]/den[t-1]
    and num[t]/den[t] (read-only int64 arrays); row t-1 of as_array() is tau
    at its mediant.  The rows are pairwise distinct and enumerate the
    degree-m class V, in the order of the generation tree.  ``entries[t-1]``
    is (F_t, tau), built on access.
    """

    __slots__ = ("m", "num", "den", "_rows")

    def __init__(self, m: int, num: np.ndarray, den: np.ndarray, rows: np.ndarray):
        for arr in (num, den, rows):
            arr.flags.writeable = False
        self.m, self.num, self.den, self._rows = m, num, den, rows

    def as_array(self) -> np.ndarray:
        """The tau rows in interval order, a read-only (N, m) array of dtype _dtype_for(m)."""
        return self._rows

    def interval(self, t: int) -> FareyInterval:
        """The order-m interval of 1-based index t."""
        lo = Fraction(int(self.num[t - 1]), int(self.den[t - 1]))
        return FareyInterval(lo, Fraction(int(self.num[t]), int(self.den[t])), t)

    @property
    def entries(self) -> Sequence[tuple[FareyInterval, Permutation]]:
        return _RowView(len(self._rows),
                        lambda t: (self.interval(t + 1), Permutation(self._rows[t].tolist())))


def suranyi_table(m: int) -> SuranyiTable:
    """Evaluate tau at the mediant of every order-m Farey interval, in order.

    Checks that consecutive terms a/b < c/d are order-m neighbours
    (bc - ad = 1 and b + d > m), that no two intervals share a tau and that
    there are totient_sum(m) intervals.
    """
    check_degree(m, None)  # the tau keys bound m (_check_tau_keys)
    _check_tau_keys(m, 2 * m, 2 * m)
    num, den = farey_terms(m)
    apart = (num[1:] * den[:-1] - num[:-1] * den[1:] != 1) | (den[:-1] + den[1:] <= m)
    if apart.any():
        raise AssertionError(f"non-adjacent Farey intervals at index {int(np.argmax(apart)) + 1}")
    rows = _rank_taus(m, num[:-1] + num[1:], den[:-1] + den[1:])
    items = _row_items(rows, copy=True)
    items.sort()
    if (items[1:] == items[:-1]).any():
        raise AssertionError(f"tau collision in the order-{m} table")
    if len(rows) != totient_sum(m):
        raise AssertionError(f"expected {totient_sum(m)} intervals, built {len(rows)}")
    return SuranyiTable(m, num, den, rows)


def _randbelow(bits: Callable[[int], int], n: int) -> int:
    """A draw in [0, n) from getrandbits, as random.Random.randint takes it:
    n.bit_length() bits, drawn again until they are below n."""
    k = n.bit_length()
    r = bits(k)
    while r >= n:
        r = bits(k)
    return r


def _interior_pq(m: int, rng: random.Random) -> tuple[int, int]:
    """Coprime (p, q) with 0 < p < q and q in (m, 4m], drawn from rng: the
    draws of rng.randint(m + 1, 4m) and rng.randint(1, q - 1), without
    randint's argument checks."""
    bits = rng.getrandbits
    while True:
        q = m + 1 + _randbelow(bits, 3 * m)
        p = 1 + _randbelow(bits, q - 1)
        if gcd(p, q) == 1:
            return p, q


def random_interior_rational(m: int, rng: random.Random) -> Fraction:
    """A uniform-ish reduced fraction in (0, 1) with denominator in (m, 4m]."""
    return Fraction(*_interior_pq(m, rng))


def _key_rows(m: int, p: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The keys (i*p) mod q, i in [m], at every p/q of the (n,) int64 arrays p, q: (n, m) int64."""
    return np.multiply.outer(p, np.arange(1, m + 1, dtype=np.int64)) % q[:, None]


def _searched_ranks(keys: np.ndarray) -> np.ndarray:
    """tau by its definition, as tau_from_alpha counts it: entry i of a row is the
    number of keys of the row that are at most key i, by one binary search of
    the rows' sorted keys.  keys: an (n, m) int64 array of values >= 0."""
    n, m = keys.shape
    # row t is raised by t * span, so the rows, each sorted, are sorted as one array
    span = int(keys.max(initial=0)) + 1
    raised = keys + np.arange(0, n * span, span, dtype=np.int64)[:, None]
    ranked = np.sort(raised, axis=1).ravel()
    return np.searchsorted(ranked, raised, side="right") - np.arange(0, n * m, m, dtype=np.int64)[:, None]


def verify_invariants(m_max: int, samples: int = 200, seed: int = 1729) -> list[dict]:
    """Exact cross-checks of the tau formulas, one report record per check.

    Covers: tau_from_alpha = inverse(sos_from_alpha) at every order-m
    mediant; tau_explicit = tau_from_alpha on seeded random interior
    rationals with the first/last-term identities; the degree-compatibility
    psi(gamma(tau_m)) = tau_{m-1}; and the behavior of tau around each
    boundary fraction a/m.  Every check compares two integer arrays computed
    apart from the keys (i*p) mod q, and builds no Fraction or Permutation:
    tau by binary search (_searched_ranks) against the inverse of the keys'
    argsort (_rank_taus) at the mediants, psi(gamma(tau_m)) as
    ((tau - tau(1)) mod m)[2..m] against the degree-(m-1) search, and the
    searched tau at (2am -+ 1)/(2m^2) and at a/m against the affine rows.
    The random rationals are checked scratch_rows(m) at a time: _rank_taus
    against the closed form (_closed_form_taus).
    """
    if samples < 0:
        raise ValueError(f"samples must be non-negative, got {samples}")
    rng = random.Random(seed)
    records = []
    record = partial(add_record, records)
    for m in range(2, m_max + 1):
        num, den = farey_terms(m)
        p, q = num[:-1] + num[1:], den[:-1] + den[1:]
        keys = _key_rows(m, p, q)
        tau = _searched_ranks(keys)
        ok = np.array_equal(tau, _rank_taus(m, p, q))
        record(m, "tau = inverse(sos) at mediants", ok, f"{len(p)} mediants")

        ok_exp = ok_fl = True
        block_rows = scratch_rows(m)
        for start in range(0, samples, block_rows):
            # the same rationals, in the same order, as random_interior_rational
            n = min(block_rows, samples - start)
            p, q = np.array([_interior_pq(m, rng) for _ in range(n)], dtype=np.int64).T
            sample_tau = _rank_taus(m, p, q).astype(np.int64)  # the identities below wrap in uint8
            ok_exp = ok_exp and np.array_equal(_closed_form_taus(m, p, q), sample_tau)
            floors = np.multiply.outer(p, np.arange(1, m + 1)) // q[:, None]
            first, last = sample_tau[:, 0], sample_tau[:, -1]
            ok_fl = (ok_fl and np.array_equal(first, 1 + floors[:, -1])
                     and np.array_equal(last, 2 * m + 1 - (m + 1) * first + 2 * floors.sum(axis=1)))
        record(m, "tau_explicit = tau_from_alpha on random rationals", ok_exp, f"{samples} samples")
        record(m, "first/last-term identities", ok_fl, f"{samples} samples")

        if m >= 3:
            # gamma shifts tau(1) to 1 and psi drops it: the keys of degree m - 1
            # are the first m - 1 keys
            ok = np.array_equal(((tau - tau[:, :1]) % m)[:, 1:], _searched_ranks(keys[:, :-1]))
            record(m, "psi(gamma(tau_m)) = tau_{m-1} at mediants", ok, f"{len(tau)} mediants")

        # just below a/m is theta_ab(m, a, 0), at and just above it theta_ab(m, a, 1):
        # (2am -+ 1)/(2m^2) are reduced, as no prime factor of m divides 2am -+ 1
        a = np.arange(1, m + 1, dtype=np.int64)
        a = a[np.gcd(a, m) == 1]
        near = np.full(len(a), 2 * m * m, dtype=np.int64)
        p = np.concatenate([2 * a * m - 1, a, 2 * a * m + 1])
        q = np.concatenate([near, np.full(len(a), m, dtype=np.int64), near])
        vl0, vl1 = affine_rows(m, 0), affine_rows(m, 1)
        ok = np.array_equal(_searched_ranks(_key_rows(m, p, q)), np.concatenate([vl0, vl1, vl1]))
        record(m, "tau around a/m matches the affine layers", ok)
    return records
