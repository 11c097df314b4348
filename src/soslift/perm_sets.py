"""Membership predicates and brute-force enumeration of the permutation classes.

Classes by label:

  V       congruential recurrence theta(i+1)-theta(i) = theta(1) - [theta(m)<=theta(i)] mod m
  W       the same recurrence as an exact integer equation
  Y       constant delta sequence (m >= 3); all of S_2 for m = 2
  Yprime  delta identically equal to -A_theta (the ascent count)
  X       congruential difference set inside some {k, k+1}
  Sstar   inverses of the Sos permutations (via the Farey interval table)
  SstarTilde  shift closure of Sstar
  VL0/VL1 affine layers {theta_ab(m, a, b) : gcd(a, m) = 1}
  Vminus  V minus VL1
  SosRec  permutations satisfying the three-case Sos recurrence (exploratory:
          whether it ever exceeds the inverses of V is open; compare it with
          {inverse(theta) : theta in V} yourself, no claim is encoded here)

Brute-force enumeration walks the symmetric group in lexicographic order as
uint8 blocks, one per (theta(1), theta(2)) prefix, and tests every row of a
block at once with an array form of the class predicate, in exact integer
arithmetic; the per-row predicates (in_V, in_W, ...) are the reference the
tests compare it with.  One walk serves every class a caller asks for
(enumerate_classes): the step columns of a block are built once and shared
by the predicates.  Sstar is the Farey table itself, read with no walk, as
is SstarTilde, its shift closure.  Method 'brute' is capped at m = 10, for
enumerate_class and verify_theorems alike, unless SOSLIFT_MAX_BRUTE_M raises it.
"""
from __future__ import annotations

import os
from functools import cached_property
from itertools import permutations as _sym_group
from math import gcd

import numpy as np

from . import lifting
from .farey import totient_sum, totients
from .perm_core import (
    PermClass,
    Permutation,
    _row_items,
    _rows_in,
    ascents,
    cds,
    delta,
    in_V,
    shift_closure,
)
from .sos import suranyi_table, theta_ab

LABELS = ("V", "W", "Y", "Yprime", "X", "Sstar", "SstarTilde", "VL0", "VL1", "Vminus", "SosRec")
METHODS = ("brute", "lift", "farey")
DEFAULT_MAX_BRUTE_M = 10
ENV_MAX_BRUTE_M = "SOSLIFT_MAX_BRUTE_M"


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


def _max_brute_m() -> int:
    raw = os.environ.get(ENV_MAX_BRUTE_M)
    if raw is None:
        return DEFAULT_MAX_BRUTE_M
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{ENV_MAX_BRUTE_M} must be an integer, got {raw!r}") from None


def _check_brute_guard(m: int) -> None:
    cap = _max_brute_m()
    if m > cap:
        raise ValueError(
            f"brute-force enumeration over S_{m} refused (cap {cap}); "
            f"set {ENV_MAX_BRUTE_M} to raise it"
        )


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


class _Block:
    """One block of S_m and the int16 step columns that its class predicates share.

    The columns come from the block transposed, (m, N), so each is a
    contiguous (m-1, N) or (1, N) array: cur = theta(i) and nxt = theta(i+1)
    for i in [m-1], first = theta(1), last = theta(m).  d, asc, wrap and
    delta are built on first use and then shared by every predicate of the
    walk.  Everything stays int16 (the brackets are int8 views of the
    comparisons), since a promotion to int64 costs more than the arithmetic.
    """

    def __init__(self, rows: np.ndarray, m: int):
        self.rows, self.m = rows, np.int16(m)
        t = rows.T.astype(np.int16)
        self.cur, self.nxt, self.first, self.last = t[:-1], t[1:], t[:1], t[-1:]

    def __len__(self) -> int:
        return len(self.rows)

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


# Array forms of the per-row predicates: each takes a _Block and the degree
# and returns the (N,) mask of accepted rows, from the same formula over the
# block's columns.

def _v_rows(b: _Block, m: int) -> np.ndarray:
    # d - first + wrap lies in (-2m, m), so it is 0 mod m exactly when it is 0 or -m
    e = b.d - b.first + b.wrap
    return ((e == 0) | (e == -m)).all(axis=0)


def _w_rows(b: _Block, m: int) -> np.ndarray:
    return (b.d == b.first - b.wrap + b.m * (b.asc - 1)).all(axis=0)


def _y_rows(b: _Block, m: int) -> np.ndarray:
    if m < 3:
        return np.ones(len(b), dtype=bool)
    return (b.delta == b.delta[:1]).all(axis=0)


def _yprime_rows(b: _Block, m: int) -> np.ndarray:
    if m < 3:
        raise ValueError(f"Yprime needs degree >= 3, got {m}")
    return (b.delta == -b.asc.sum(axis=0, dtype=np.int16)).all(axis=0)


def _x_rows(b: _Block, m: int) -> np.ndarray:
    if m < 2:
        return np.ones(len(b), dtype=bool)
    residues = b.d + b.m * (b.d < 0)  # d mod m, as d lies in (-m, m)
    return (residues.max(axis=0) - residues.min(axis=0) <= 1) & (residues != 0).all(axis=0)


def _sosrec_rows(b: _Block, m: int) -> np.ndarray:
    cur, nxt, first, last = b.cur, b.nxt, b.first, b.last
    bad = (
        ((cur <= m - first) & (nxt != cur + first))
        | ((m - first < cur) & (cur < last) & (nxt != cur + first - last))
        | ((last <= cur) & (nxt != cur - last))
    )
    return ~bad.any(axis=0)


_ROW_TESTS = {
    "V": _v_rows,
    "W": _w_rows,
    "Y": _y_rows,
    "Yprime": _yprime_rows,
    "X": _x_rows,
    "SosRec": _sosrec_rows,
}
WALK_LABELS = tuple(_ROW_TESTS)


def _walk(labels: tuple[str, ...], m: int) -> dict[str, np.ndarray]:
    """The rows of S_m in each labeled class, from one walk of S_m.

    Every predicate sees every block, so the columns a block shares are
    built once for all of them.  Returns {label: (N, m) uint8 array in
    lexicographic order}.
    """
    found = {label: [] for label in labels}
    for rows in _sym(m):
        block = _Block(rows, m)
        for label, parts in found.items():
            parts.append(rows[_ROW_TESTS[label](block, m)])
        del rows, block  # before _sym builds the next block
    return {label: np.concatenate(parts) for label, parts in found.items()}


def _brute(label: str, m: int) -> np.ndarray:
    """The rows of S_m in the class, as an (N, m) uint8 array in lexicographic order."""
    return _walk((label,), m)[label]


def enumerate_class(label: str, m: int, method: str = "brute", force: bool = False) -> PermClass:
    """Enumerate one labeled class of degree m.

    method 'brute' filters the symmetric group, or reads the Farey table for
    Sstar and SstarTilde (guarded alike; see module doc),
    'lift' runs the degree-lifting recursion, and 'farey' reads the interval
    table; the latter two apply to V and Sstar only, and refuse degrees
    above 500 unless force=True, and above 2000 (lifting.check_lift_degree).
    """
    if label not in LABELS:
        raise ValueError(f"unknown class label {label!r}; expected one of {LABELS}")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if m < 1:
        raise ValueError(f"degree must be positive, got {m}")

    if method in ("lift", "farey"):
        if label not in ("V", "Sstar"):
            raise ValueError(f"method {method!r} only enumerates V or Sstar, not {label}")
        lifting.check_lift_degree(m, force)
        if method == "lift":
            lifted = lifting.lift_to(m, force)
            lifted.label = label
            return lifted
        return PermClass.from_array(label, m, suranyi_table(m).as_array())

    if label in ("VL0", "VL1"):
        b = int(label[-1])
        return PermClass(label, m, (theta_ab(m, a, b) for a in range(1, m + 1) if gcd(a, m) == 1))

    _check_brute_guard(m)
    if label == "Vminus":
        v, vl1 = _brute("V", m), enumerate_class("VL1", m).as_array()
        return PermClass.from_array(label, m, v[~_rows_in(v, vl1)])
    if label in ("Sstar", "SstarTilde"):
        sstar = PermClass.from_array(label, m, suranyi_table(m).as_array())
        return sstar if label == "Sstar" else shift_closure(sstar)
    return PermClass.from_array(label, m, _brute(label, m))


def enumerate_classes(labels: tuple[str, ...], m: int) -> dict[str, PermClass]:
    """Brute-force classes of degree m, every one from the same walk of S_m.

    labels: from WALK_LABELS, the labels with an array predicate.
    Guarded and validated like enumerate_class.
    """
    unknown = [label for label in labels if label not in WALK_LABELS]
    if unknown:
        raise ValueError(f"enumerate_classes walks only {WALK_LABELS}, not {unknown}")
    if m < 1:
        raise ValueError(f"degree must be positive, got {m}")
    _check_brute_guard(m)
    return {label: PermClass.from_array(label, m, rows) for label, rows in _walk(labels, m).items()}


def verify_theorems(m_max: int) -> list[dict]:
    """Exhaustively check the structural theorems for every m up to m_max.

    Returns one record per check: {"m", "check", "passed", "detail"}.
    Failures become records, not exceptions.
    """
    cap = _max_brute_m()
    if not 2 <= m_max <= cap:
        raise ValueError(f"m_max must lie in [2, {cap}] for exhaustive checks, got {m_max}; "
                         f"set {ENV_MAX_BRUTE_M} to raise the cap")
    phi = totients(m_max)
    records = []

    def record(m: int, check: str, passed: bool, detail: str = "") -> None:
        records.append({"m": m, "check": check, "passed": passed, "detail": detail})

    prev_w = PermClass.from_array("W", 1, np.ones((1, 1), dtype=np.uint8))
    for m in range(2, m_max + 1):
        classes = enumerate_classes(("V", "W", "Y", "X") + (("Yprime",) if m >= 3 else ()), m)
        v, w, y, x = (classes[label] for label in ("V", "W", "Y", "X"))
        sstar = enumerate_class("Sstar", m, method="farey")
        vl0, vl1 = (enumerate_class(label, m).as_array() for label in ("VL0", "VL1"))
        rows = v.as_array().astype(np.int16)

        record(m, "V = W", v == w, f"|V|={len(v)}, |W|={len(w)}")
        record(m, "W subset of Y", bool(_rows_in(w.as_array(), y.as_array()).all()))
        if m >= 3:
            record(m, "Y = Yprime", y == classes["Yprime"], f"|Y|={len(y)}")
        record(m, "Y is shift-closed", shift_closure(y) == y)
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
               bool(in0.sum() == len(vl0) == phi[m] and in1.sum() == len(vl1) == phi[m]
                    and not (in0 & in1).any()))

        ya = y.as_array()
        image = PermClass.from_array("psi-image", m - 1, ya[ya[:, 0] == 1, 1:] - 1)
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
            record(m, "equivalent pairs inside V pair up the affine layers", bool(ok),
                   f"{(size * (size - 1) // 2).sum()} pairs, phi(m)={phi[m]}")
        prev_w = w
    return records


def report_passed(records: list[dict]) -> bool:
    return all(r["passed"] for r in records)
