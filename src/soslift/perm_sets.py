"""Step rules and brute-force enumeration of the permutation classes.

Classes by label:

  V       congruential recurrence theta(i+1)-theta(i) = theta(1) - [theta(m)<=theta(i)] mod m
  W       the same recurrence as an exact integer equation
  Y       constant delta sequence (m >= 3); all of S_2 for m = 2
  Yprime  delta identically equal to -A_theta (the ascent count)
  X       congruential difference set inside some {k, k+1}
  Sstar   inverses of the Sos permutations (via the Farey interval table)
  SstarTilde  shift closure of Sstar
  VL0/VL1 affine layers: the rows i -> (a i + b - 1) mod m + 1 of sos.theta_ab,
          one per a coprime to m, with b = 0 or 1
  Vminus  V minus VL1
  SosRec  permutations satisfying the three-case Sos recurrence (exploratory:
          whether it ever exceeds the inverses of V is open; compare it with
          {inverse(theta) : theta in V} yourself, no claim is encoded here)

Method 'brute' decides V, W, Y, Yprime, X and SosRec exactly, in exact
integer arithmetic, without walking S_m: each class is a conjunction of
tests, one per step i, on theta(i), theta(i+1), theta(1) and theta(m), and
its step rule (_RULES) forces the one value of theta(i+1) that can pass.
The search (_search) starts from every theta(1) and theta(m), and every
theta(2) for Y, whose first step sets the delta(1) it carries, and keeps
each start's one forced walk if it is a permutation.  Yprime is Y filtered
by its own rule.  X needs no search: with theta(1) = 1, each of its rows is
forced by two parameters (k, s), its residues k and k + 1 and the number of
steps by k, and each pair is checked by following its one forced walk
(_x_pairs, _x_rows); the rows are then shift-closed.  The walk of S_m in
lexicographic order as uint8 blocks (_walk, _brute) reads the same rules
with .all over the steps; it is the reference the tests compare the search
with, and no command runs it.  _RULES is the one statement of these rules
here: the tests hold per-row predicates, written from the definitions, as
the reference for the walk.  Sstar is the Farey table itself, read with no
search, as is SstarTilde, its shift closure.  VL0 and VL1 are built as
arrays from their affine rows (sos.affine_rows), to MAX_DEGREE.
Method 'brute' is capped at m = 10 for the other labels, in enumerate_class
and verify_theorems alike (_check_brute_guard), unless SOSLIFT_MAX_BRUTE_M,
a positive integer, raises it; no value of it admits m above MAX_DEGREE.
enumerate_class is the one function that enumerates a class by label:
verify_theorems and the sosrec command call it once per class and degree.
"""
from __future__ import annotations

import math
import os
from functools import cached_property, partial
from itertools import permutations as _sym_group
from typing import Callable, NamedTuple

import numpy as np

from . import lifting
from .farey import totient_sum, totients
# LABELS, METHODS, in_V and report_passed are re-exported here
from .perm_core import (LABELS, MAX_DEGREE, METHODS, PermClass, _dtype_for, _misses_a_value,
                        _row_items, _rows_in, _shifts, add_record, check_degree, in_V,
                        report_passed, shift_closure)
from .sos import affine_rows, suranyi_table

DEFAULT_MAX_BRUTE_M = 10
ENV_MAX_BRUTE_M = "SOSLIFT_MAX_BRUTE_M"


def _check_brute_guard(m: int, name: str = "degree") -> None:
    """Refuse brute force at degree m, before any work, above the cap and
    outside 1..MAX_DEGREE whatever the cap.  The cap is SOSLIFT_MAX_BRUTE_M,
    which must be a positive integer, or 10.  verify_theorems passes name
    "m_max", which also refuses 1 and names the range."""
    raw = os.environ.get(ENV_MAX_BRUTE_M)
    try:
        cap = DEFAULT_MAX_BRUTE_M if raw is None else int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_BRUTE_M} must be an integer, got {raw!r}") from None
    check_degree(cap, None, ENV_MAX_BRUTE_M)
    if name == "m_max" and not 2 <= m <= cap:
        raise ValueError(f"m_max must lie in [2, {cap}] for exhaustive checks, got {m}; "
                         f"set {ENV_MAX_BRUTE_M} to raise the cap")
    if m > cap:
        raise ValueError(f"method 'brute' refused at degree {m} (cap {cap}); "
                         f"set {ENV_MAX_BRUTE_M} to raise it")
    check_degree(m, MAX_DEGREE, name)


def _lex_perms(k: int) -> np.ndarray:
    """All permutations of 0..k-1 as rows of a uint8 array, in lexicographic order."""
    rows = np.zeros((1, 0), dtype=np.uint8)
    for n in range(1, k + 1):
        # rows holds the permutations of 0..n-2; rows + (rows >= i) maps them
        # monotonically onto 0..n-1 without i, so each block stays in order
        out = np.empty((n * len(rows), n), dtype=np.uint8)
        for i, block in enumerate(np.split(out, n)):
            block[:, 0] = i
            block[:, 1:] = rows + (rows >= i)
        rows = out
    return rows


def _sym(m: int):
    """S_m in lexicographic order as uint8 blocks, one per (theta(1), theta(2)) prefix.

    The tail permutations of S_{m-2} are built once; S_m is never held whole.
    Each block is the transpose of a C-contiguous (m, N) array, so its
    columns theta(i) are contiguous.
    """
    width = min(m, 2)
    tail = np.ascontiguousarray(_lex_perms(m - width).T)
    for prefix in _sym_group(range(1, m + 1), width):
        rest = np.array(sorted(set(range(1, m + 1)) - set(prefix)), dtype=np.uint8)
        block = np.empty((m, tail.shape[1]), dtype=np.uint8)
        block[:width] = np.array(prefix)[:, None]
        np.take(rest, tail, out=block[width:])
        yield block.T


class _Steps:
    """The step columns that the class rules read: cur = theta(i), nxt = theta(i+1),
    first = theta(1) and last = theta(m); the leading axis runs over the steps
    i, the others over the rows (or a search's candidate rows).

    d, asc, wrap, delta and residue are built on first use and then shared by
    every rule that reads them.  m has the dtype of the columns, and the
    brackets are int8 views of the comparisons, so no promotion to int64
    costs more than the arithmetic.  nxt is None while a search solves for it.
    """

    def __init__(self, m: int, cur: np.ndarray, nxt: np.ndarray | None,
                 first: np.ndarray, last: np.ndarray):
        self.m = cur.dtype.type(m)
        self.cur, self.nxt, self.first, self.last = cur, nxt, first, last

    @cached_property
    def d(self) -> np.ndarray:
        """theta(i+1) - theta(i)"""
        return self.nxt - self.cur

    @cached_property
    def asc(self) -> np.ndarray:
        """[theta(i) <= theta(i+1)]"""
        return (self.cur <= self.nxt).view(np.int8)

    @cached_property
    def wrap(self) -> np.ndarray:
        """[theta(m) <= theta(i)]"""
        return (self.last <= self.cur).view(np.int8)

    @cached_property
    def delta(self) -> np.ndarray:
        """Delta_theta(i), the four-term difference sequence of perm_core.delta"""
        return self.d + self.wrap - (self.first <= self.nxt) - (self.m - 1) * self.asc

    @cached_property
    def residue(self) -> np.ndarray:
        """(theta(i+1) - theta(i)) mod m, as d lies in (-m, m)"""
        return self.d + self.m * (self.d < 0)


class _Block(_Steps):
    """One block of S_m as int16 step columns.

    The columns come from the block transposed, (m, N), so each is a
    contiguous (m-1, N) or (1, N) array.
    """

    def __init__(self, rows: np.ndarray, m: int):
        t = rows.T.astype(np.int16)
        super().__init__(m, t[:-1], t[1:], t[:1], t[-1:])


# The step rule of each class.  A row is in the class when every step passes
# rule.step(steps, ref), where ref = rule.carry(steps) holds what the class
# carries over all its steps: delta(1) for Y, -A_theta for Yprime, the least
# and greatest residue for X; V, W and SosRec have no carry.  rule.solve(steps,
# ref), for steps whose nxt is unknown, gives the one value of theta(i+1) but
# theta(1) that can pass, as a (1, N) array; a value outside 1..m, or one that
# fails the step, stands for none.  Yprime and X have no solve (_search).

class _Rule(NamedTuple):
    step: Callable[[_Steps, tuple | None], np.ndarray]
    solve: Callable[[_Steps, tuple | None], np.ndarray] | None
    carry: Callable[[_Steps], tuple] | None = None


def _v_step(s: _Steps, ref: None) -> np.ndarray:
    # d - first + wrap lies in (-2m, m), so it is 0 mod m exactly when it is 0 or -m
    e = s.d - s.first + s.wrap
    return (e == 0) | (e == -s.m)


def _v_solve(s: _Steps, ref: None) -> np.ndarray:
    # up lies in [1, 2m]: of up and up - m, the one in 1..m.  These are also
    # W's two values, one per case of [theta(i) <= theta(i+1)]
    up = s.cur + s.first - s.wrap
    return np.where(up <= s.m, up, up - s.m)


def _w_step(s: _Steps, ref: None) -> np.ndarray:
    return s.d == s.first - s.wrap + s.m * (s.asc - 1)


def _y_step(s: _Steps, ref: tuple) -> np.ndarray:
    return s.delta == ref[0]


def _y_carry(s: _Steps) -> tuple:
    return (s.delta[:1],)


def _y_solve(s: _Steps, ref: tuple) -> np.ndarray:
    # nxt = base + [first <= nxt] + (m-1)[cur <= nxt], base = delta(1) + cur - wrap.
    # Below cur, nxt = base + [first <= nxt]: base when base < first, base + 1
    # when base >= first, and first itself in between.  Above cur, the same
    # from base + m - 1.  The value below lies in 1..m only when the one above
    # exceeds m, so at most one value but first passes
    base = ref[0] + s.cur - s.wrap
    below = base + (base >= s.first)
    above = base + (s.m - 1)
    above += above >= s.first
    return np.where((1 <= below) & (below < s.cur), below, above)


def _yprime_carry(s: _Steps) -> tuple:
    if s.m < 3:
        raise ValueError(f"Yprime needs degree >= 3, got {s.m}")
    return (-s.asc.sum(axis=0, keepdims=True, dtype=s.cur.dtype),)


def _x_step(s: _Steps, ref: tuple) -> np.ndarray:
    # with lo and hi the least and greatest residue, every residue lies in
    # [hi - 1, lo + 1] exactly when hi - lo <= 1
    lo, hi = ref
    r = s.residue
    return (r != 0) & (hi - 1 <= r) & (r <= lo + 1)


def _x_carry(s: _Steps) -> tuple:
    # initial= covers degree 1, which has no steps
    return (s.residue.min(axis=0, keepdims=True, initial=s.m),
            s.residue.max(axis=0, keepdims=True, initial=0))


# X with theta(1) = 1, from two parameters (k, s).  Less 1, such a row is a
# Hamiltonian path from 0 to t = theta(m) - 1 in the digraph v -> v + k,
# v + k + 1 on Z_m.  The vertex v + k has two in-arcs, from v by k and from
# v - 1 by k + 1, so when v steps by k, so does v - 1 unless it is t: the
# vertices that step by k are t + 1, ..., t + s for some s in 1..m-1 (a row of
# the one residue r is the pair (r, m - 1)), and the step sum gives t =
# sk + (m-1-s)(k+1) = -(k + 1 + s) mod m.  This is Rankin's forcing argument
# (R. A. Rankin, "A campanological problem in group theory", 1948).  Each pair
# thus forces one walk from 0, and every vertex has one in-arc at most from
# the vertices other than t: a walk that repeats a vertex before it meets t
# first returns to 0, and then cycles without t.  So the walk is the row, with
# no visited mask, exactly when it first meets t at its last step.  The walk
# is kept as w = (v - t - 1) mod m, the vertex counted from t + 1: w steps by
# k when w < s, t is w = m - 1 and 0 is w = (k + s) mod m.  Every w lies in
# [0, 2m), which int16 holds to MAX_DEGREE.

def _x_next(w: np.ndarray, k: np.ndarray, s: np.ndarray, m: int) -> np.ndarray:
    """The forced step from every w of the pairs (k, s)."""
    w = w + k + (w >= s)
    w -= np.int16(m) * (w >= m)
    return w


def _x_pairs(m: int) -> np.ndarray:
    """The pairs (k, s) whose forced walk is a row, as a (2, N) int16 array
    ordered by k, then s.

    Candidates are checked in blocks of whole k, each candidate holding three
    int16 values, their filtered copies and a mask, so a block holds about
    lifting.BLOCK_BYTES; a walk is dropped when it meets t too early.
    """
    found = []
    block = max(1, lifting.BLOCK_BYTES // (16 * m))
    for k0 in range(1, m, block):
        ks = np.arange(k0, min(k0 + block, m), dtype=np.int16)
        k, s = np.repeat(ks, m - 1), np.tile(np.arange(1, m, dtype=np.int16), len(ks))
        w = (k + s) % np.int16(m)
        for i in range(1, m):
            w = _x_next(w, k, s, m)
            keep = (w == m - 1) if i == m - 1 else (w != m - 1)
            k, s, w = k[keep], s[keep], w[keep]
        found.append(np.stack([k, s]))
    return np.concatenate(found, axis=1)


def _x_rows(m: int) -> np.ndarray:
    """The rows of X with theta(1) = 1, one per pair of _x_pairs(m) in its
    order, as an (N, m) array of dtype _dtype_for(m)."""
    if m == 1:
        return np.ones((1, 1), dtype=_dtype_for(m))  # no steps to fail
    k, s = _x_pairs(m)
    w = np.empty((m, len(k)), dtype=np.int16)
    w[0] = (k + s) % np.int16(m)
    for i in range(1, m):
        w[i] = _x_next(w[i - 1], k, s, m)
    return ((w - k - s) % np.int16(m) + 1).T.astype(_dtype_for(m))


def _sosrec_step(s: _Steps, ref: None) -> np.ndarray:
    cur, nxt, first, last, m = s.cur, s.nxt, s.first, s.last, s.m
    return ~(
        ((cur <= m - first) & (nxt != cur + first))
        | ((m - first < cur) & (cur < last) & (nxt != cur + first - last))
        | ((last <= cur) & (nxt != cur - last))
    )


def _sosrec_solve(s: _Steps, ref: None) -> np.ndarray:
    # the value of the first case whose guard holds; where the first and the
    # last case both hold, they ask for two values and the step fails
    cur, first, last, m = s.cur, s.first, s.last, s.m
    return np.where(cur <= m - first, cur + first,
                    np.where(cur < last, cur + first - last, cur - last))


_RULES = {
    "V": _Rule(_v_step, _v_solve),
    "W": _Rule(_w_step, _v_solve),
    "Y": _Rule(_y_step, _y_solve, _y_carry),
    # solved as Y, then filtered by its own rule (_search)
    "Yprime": _Rule(_y_step, None, _yprime_carry),
    "X": _Rule(_x_step, None, _x_carry),
    "SosRec": _Rule(_sosrec_step, _sosrec_solve),
}
WALK_LABELS = tuple(_RULES)


def _accepts(label: str, s: _Steps) -> np.ndarray:
    """The (N,) mask of the rows whose every step passes the labeled rule."""
    rule = _RULES[label]
    ref = rule.carry(s) if rule.carry else None
    return rule.step(s, ref).all(axis=0)


def _walk(labels: tuple[str, ...], m: int) -> dict[str, np.ndarray]:
    """The rows of S_m in each labeled class, from one walk of S_m.

    The reference for _search: every rule sees every block, so the columns
    a block shares are built once for all of them.  Returns {label: (N, m)
    uint8 array in lexicographic order}.
    """
    found = {label: [] for label in labels}
    for rows in _sym(m):
        block = _Block(rows, m)
        for label, parts in found.items():
            parts.append(rows[_accepts(label, block)])
        del rows, block  # before _sym builds the next block
    return {label: np.concatenate(parts) for label, parts in found.items()}


def _brute(label: str, m: int) -> np.ndarray:
    """The rows of S_m in the class, as an (N, m) uint8 array in lexicographic order."""
    return _walk((label,), m)[label]


def _starts(m: int, width: int, index: np.ndarray) -> np.ndarray:
    """The tuples of width distinct values in 1..m at the flat indices index,
    in lexicographic order of the tuples, as a (width, N) int16 array: index
    is read in the mixed radix m, m - 1, ..., and each digit picks a value
    among those its tuple has not yet taken."""
    out = np.empty((width, len(index)), dtype=np.int16)
    for j in range(width):
        digit, index = np.divmod(index, math.perm(m - j - 1, width - j - 1))
        out[j] = digit + 1
        for taken in np.sort(out[:j], axis=0):
            out[j] += out[j] >= taken
    return out


def _solve(rule: _Rule, m: int) -> np.ndarray:
    """The rows of S_m that pass every step of rule, by one forced walk per start.

    A start fixes theta(1) and theta(m), and theta(2) as well when the rule
    has a carry, as its first step sets what the rule carries.  The starts
    are every tuple of distinct values, decoded from a flat index in blocks
    of about lifting.BLOCK_BYTES, each start counted as its row and m + 1
    bytes of scratch.  Each start is a column: at each step it takes the one
    value that rule.solve gives for theta(i+1), or its own where the start
    fixes it, and is closed, holding 0, unless the value lies in 1..m and
    passes rule.step.  The open columns are compacted once fewer than half
    remain.  rule.solve gives the only value but theta(1) that can pass, so
    each block keeps the rows that miss no value (_misses_a_value).
    Returns an (N, m) array of dtype _dtype_for(m), rows in no particular order.
    """
    dtype = _dtype_for(m)
    if m == 1:
        return np.ones((1, 1), dtype=dtype)  # no steps to fail
    # the indices of theta that a start fixes (theta(2) is theta(m) at m = 2);
    # every value a rule computes lies within 3m + 2 of 0, which int16 holds
    # up to MAX_DEGREE (_check_brute_guard)
    fixed = sorted({0, m - 1} | ({1} if rule.carry else set()))
    total = math.perm(m, len(fixed))
    block = max(1, lifting.BLOCK_BYTES // (m * dtype.itemsize + m + 1))
    found = []
    for a in range(0, total, block):
        start = _starts(m, len(fixed), np.arange(a, min(a + block, total)))
        n = start.shape[1]
        # a column's prefix is held in rows; alive marks the open columns
        rows = np.zeros((m, n), dtype=dtype)
        rows[fixed] = start
        first, last, cur, ref, alive = start[:1], start[-1:], start[:1], None, np.ones(n, bool)
        for i in range(1, m):
            nxt = (rows[i:i + 1].astype(np.int16) if i in fixed
                   else rule.solve(_Steps(m, cur, None, first, last), ref))
            s = _Steps(m, cur, nxt, first, last)
            if rule.carry and i == 1:
                ref = rule.carry(s)
            ok = alive & rule.step(s, ref)[0] & (nxt[0] >= 1) & (nxt[0] <= m)
            if 2 * np.count_nonzero(ok) < n:
                # in place, so that a block allocates its rows once
                keep = np.flatnonzero(ok)
                n = len(keep)
                rows[:, :n] = rows[:, keep]
                rows, alive = rows[:, :n], np.ones(n, dtype=bool)
                first, last, nxt = first[:, keep], last[:, keep], nxt[:, keep]
                ref = None if ref is None else tuple(r[:, keep] for r in ref)
            else:
                alive, nxt = ok, np.where(ok, nxt, 0)
            rows[i] = nxt[0]
            cur = nxt
        found.append(rows.T[~_misses_a_value(rows.T)])
    return np.concatenate(found)


def _search(label: str, m: int) -> np.ndarray:
    """The rows of the labeled class of degree m, solved from its step rule.

    Y is solved from every start, as verify_theorems checks that it is
    shift-closed, and Yprime is Y filtered by its own rule (_passing).  X is
    decoded from theta(1) = 1 by its pairs (k, s) (_x_rows) and then
    shift-closed: a shift leaves every difference mod m as it is.  Returns an
    (N, m) array of dtype _dtype_for(m), rows in no particular order.
    """
    if label == "Yprime":
        return _passing(label, _solve(_RULES["Y"], m))
    if label == "X":
        return _shifts(_x_rows(m))
    return _solve(_RULES[label], m)


def _passing(label: str, rows: np.ndarray) -> np.ndarray:
    """The rows of an (N, m) array that pass every step of the labeled rule."""
    return rows[_accepts(label, _Block(rows, rows.shape[1]))]


def check_route(label: str, m: int, method: str, force: bool = False) -> None:
    """Refuse a label, method or degree that enumerate_class refuses, before any work.

    Methods 'lift' and 'farey' apply to V and Sstar only, and refuse degrees
    above 500 unless force=True, and above 2000 (lifting.check_lift_degree);
    the brute-force routes have their own ceilings.
    """
    if label not in LABELS:
        raise ValueError(f"unknown class label {label!r}; expected one of {LABELS}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    check_degree(m, None)
    if method in ("lift", "farey"):
        if label not in ("V", "Sstar"):
            raise ValueError(f"method {method!r} only enumerates V or Sstar, not {label}")
        lifting.check_lift_degree(m, force)


def enumerate_class(label: str, m: int, method: str = "brute", force: bool = False) -> PermClass:
    """Enumerate one labeled class of degree m, refused as check_route refuses it.

    method 'brute' solves the class from its step rule, builds the affine
    layers, or reads the Farey table for Sstar and SstarTilde (guarded alike;
    see module doc), 'lift' runs the degree-lifting recursion, and 'farey'
    reads the interval table.
    """
    check_route(label, m, method, force)
    if method in ("lift", "farey"):
        rows = lifting.lift_level(m, force).rows() if method == "lift" else suranyi_table(m).as_array()
        return PermClass(label, m, rows)

    if label in ("VL0", "VL1"):
        return PermClass(label, m, affine_rows(m, int(label[-1])))

    _check_brute_guard(m)
    if label in WALK_LABELS:
        return PermClass(label, m, _search(label, m))
    if label == "Vminus":
        v, vl1 = _search("V", m), enumerate_class("VL1", m).as_array()
        return PermClass(label, m, v[~_rows_in(v, vl1)])
    rows = suranyi_table(m).as_array()
    return PermClass(label, m, rows if label == "Sstar" else _shifts(rows))


def verify_theorems(m_max: int) -> list[dict]:
    """Exhaustively check the structural theorems for every m up to m_max.

    Returns one record per check: {"m", "check", "passed", "detail"}.
    Failures become records, not exceptions.
    """
    _check_brute_guard(m_max, "m_max")
    phi = totients(m_max)
    records = []
    record = partial(add_record, records)
    prev_w = PermClass("W", 1, np.ones((1, 1), dtype=np.uint8))
    for m in range(2, m_max + 1):
        v, w, y, x, sstar = (enumerate_class(label, m) for label in ("V", "W", "Y", "X", "Sstar"))
        vl0, vl1 = (enumerate_class(label, m).as_array() for label in ("VL0", "VL1"))
        rows = v.as_array().astype(np.int16)

        record(m, "V = W", v == w, f"|V|={len(v)}, |W|={len(w)}")
        record(m, "W subset of Y", _rows_in(w.as_array(), y.as_array()).all())
        if m >= 3:
            # Yprime is Y filtered by its rule, as _search solves it
            yprime = PermClass("Yprime", m, _passing("Yprime", y.as_array()))
            record(m, "Y = Yprime", y == yprime, f"|Y|={len(y)}")
        # closed under the shift by 1 is closed under every shift
        ya = y.as_array()
        record(m, "Y is shift-closed", _rows_in(ya % ya.dtype.type(m) + 1, ya).all())
        record(m, "X = shift-closure of V", x == shift_closure(v), f"|X|={len(x)}")
        record(m, "Sstar (Farey table) = V", sstar == v)
        record(m, "|V| = totient sum", len(v) == totient_sum(m), f"{len(v)} vs {totient_sum(m)}")
        y_expected = m * totient_sum(m - 1)
        record(m, "|Y| = m * totient sum up to m-1", len(y) == y_expected, f"{len(y)} vs {y_expected}")

        residues = np.diff(rows, axis=1) % m
        singletons = int((residues == residues[:, :1]).all(axis=1).sum())
        record(m, "singleton-CDS members of V number 2*phi(m)", singletons == 2 * phi[m],
               f"{singletons} vs {2 * phi[m]}")

        # rows are distinct in every class, so a layer lies in V when V has all its rows
        in0, in1 = _rows_in(rows, vl0), _rows_in(rows, vl1)
        record(m, "affine layers VL0, VL1 disjoint subsets of V, each of size phi(m)",
               in0.sum() == len(vl0) == phi[m] and in1.sum() == len(vl1) == phi[m]
               and not (in0 & in1).any())

        image = PermClass("psi-image", m - 1, ya[ya[:, 0] == 1, 1:] - 1)
        record(m, "psi(S^1 intersect Y) = W of degree m-1", image == prev_w,
               f"|image|={len(image)}")

        if m >= 3:
            # rows that share a gamma-normal form are shifts of each other; every two
            # must lie one in VL0, one in VL1: each in a layer, no two in the same one only
            _, group, size = np.unique(_row_items((rows - rows[:, :1]) % m + 1),
                                       return_inverse=True, return_counts=True)
            paired = size[group] > 1
            ok = (in0 | in1)[paired].all() and all(
                np.bincount(group[paired & only]).max(initial=0) <= 1
                for only in (in0 & ~in1, in1 & ~in0))
            record(m, "equivalent pairs inside V pair up the affine layers", ok,
                   f"{(size * (size - 1) // 2).sum()} pairs, phi(m)={phi[m]}")
        prev_w = w
    return records
