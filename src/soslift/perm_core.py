"""Permutations in one-line notation and the residue/shift toolkit.

Everything is 1-based to match the combinatorial conventions: a permutation
theta of degree m maps positions 1..m to values 1..m, and ``theta(i)`` is
``values[i-1]``.  All values are immutable; every operation returns a new
object.
"""
from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_DEGREE = 10_000


def mod_m(j: int, m: int) -> int:
    """Standard residue of j modulo m, in {0, ..., m-1}.

    >>> mod_m(5, 4), mod_m(-1, 4), mod_m(8, 4)
    (1, 3, 0)
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    return j % m


def supermod_m(j: int, m: int) -> int:
    """Residue of j modulo m taken in {1, ..., m}: 0 is replaced with m.

    >>> supermod_m(4, 4), supermod_m(5, 4), supermod_m(0, 3)
    (4, 1, 3)
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    return (j - 1) % m + 1


class Permutation:
    """Immutable permutation of [m] in one-line notation.

    Text form: concatenated digits for m <= 9 ("2413"), space-separated
    integers for larger degrees ("10 1 2 ...").  JSON form:
    ``{"m": 4, "values": [2, 4, 1, 3]}``.
    """

    __slots__ = ("_values",)

    def __init__(self, values: Iterable[int]):
        vals = tuple(int(v) for v in values)
        m = len(vals)
        if m < 1:
            raise ValueError("permutation needs at least one value")
        if m > MAX_DEGREE:
            raise ValueError(f"degree {m} exceeds the supported ceiling {MAX_DEGREE}")
        if sorted(vals) != list(range(1, m + 1)):
            raise ValueError(f"not a permutation of 1..{m}: {vals}")
        self._values = vals

    @property
    def m(self) -> int:
        return len(self._values)

    @property
    def values(self) -> tuple[int, ...]:
        return self._values

    @classmethod
    def parse(cls, text: str) -> "Permutation":
        """Parse one-line notation, digit-string or space-separated."""
        tok = text.strip()
        if not tok:
            raise ValueError("empty permutation text")
        if any(ch.isspace() for ch in tok):
            parts = tok.split()
        else:
            parts = list(tok)
        try:
            vals = [int(p) for p in parts]
        except ValueError:
            bad = next(p for p in parts if not p.lstrip("-").isdigit())
            raise ValueError(f"invalid permutation token {bad!r} in {text!r}") from None
        try:
            return cls(vals)
        except ValueError:
            raise ValueError(f"invalid permutation {text!r}: not a bijection of 1..{len(vals)}") from None

    @classmethod
    def from_json(cls, obj: dict) -> "Permutation":
        vals = obj["values"]
        if obj.get("m", len(vals)) != len(vals):
            raise ValueError(f"inconsistent JSON permutation: m={obj['m']} but {len(vals)} values")
        return cls(vals)

    def to_json(self) -> dict:
        return {"m": self.m, "values": list(self._values)}

    def one_line(self) -> str:
        return next(format_rows((self._values,), self.m, "oneline"))

    def __call__(self, i: int) -> int:
        """Value at 1-based position i."""
        if not 1 <= i <= self.m:
            raise IndexError(f"position {i} outside [1, {self.m}]")
        return self._values[i - 1]

    def __len__(self) -> int:
        return len(self._values)

    def __iter__(self) -> Iterator[int]:
        return iter(self._values)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Permutation) and self._values == other._values

    def __hash__(self) -> int:
        return hash(self._values)

    def __lt__(self, other: "Permutation") -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._values < other._values

    def __le__(self, other: "Permutation") -> bool:
        if not isinstance(other, Permutation):
            return NotImplemented
        return self._values <= other._values

    def __repr__(self) -> str:
        return f"Permutation({self.one_line()!r})"

    def __str__(self) -> str:
        return self.one_line()


def shift(theta: Permutation, k: int) -> Permutation:
    """Shift action: add k to every value, wrapped back into [m].

    >>> str(shift(Permutation.parse("12"), 1))
    '21'
    """
    m = theta.m
    return Permutation(supermod_m(v + k, m) for v in theta)


def shift_equivalent(theta: Permutation, other: Permutation) -> bool:
    """True iff the two permutations differ by a shift."""
    if theta.m != other.m:
        raise ValueError(f"degree mismatch: {theta.m} vs {other.m}")
    m = theta.m
    k = other(1) - theta(1)
    return all(supermod_m(v + k, m) == w for v, w in zip(theta, other))


def gamma(theta: Permutation) -> Permutation:
    """The unique shift of theta whose first value is 1."""
    m = theta.m
    k = theta(1)
    return Permutation(supermod_m(v - k + 1, m) for v in theta)


def psi(theta: Permutation) -> Permutation:
    """Drop the leading fixed point: (1, t2, ..., tm) -> (t2-1, ..., tm-1).

    Defined only on permutations with theta(1) = 1; inverse of psi_inverse.
    """
    if theta.m < 2:
        raise ValueError("psi needs degree >= 2")
    if theta(1) != 1:
        raise ValueError(f"psi requires theta(1) = 1, got {theta.one_line()}")
    return Permutation(v - 1 for v in theta.values[1:])


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
    vals = theta.values
    return sum(1 for i in range(len(vals) - 1) if vals[i] <= vals[i + 1])


def cds(theta: Permutation) -> frozenset[int]:
    """Congruential difference set {(theta(i+1) - theta(i)) mod m}.

    >>> sorted(cds(Permutation.parse("1342")))
    [1, 2]
    """
    m = theta.m
    if m < 2:
        raise ValueError("cds needs degree >= 2")
    vals = theta.values
    return frozenset((vals[i + 1] - vals[i]) % m for i in range(m - 1))


def in_V(theta: Permutation) -> bool:
    """Congruential recurrence membership (the class V)."""
    m = theta.m
    vals = theta.values
    first, last = vals[0], vals[-1]
    return all(
        (vals[i + 1] - vals[i]) % m == (first - (last <= vals[i])) % m
        for i in range(m - 1)
    )


def inverse(theta: Permutation) -> Permutation:
    """Group inverse: position of each value."""
    out = [0] * theta.m
    for pos, v in enumerate(theta, start=1):
        out[v - 1] = pos
    return Permutation(out)


def format_rows(rows: Iterable[Sequence[int]], m: int, fmt: str) -> Iterator[str]:
    """One line of text per degree-m row of values.

    fmt "oneline": the values concatenated up to degree 9 and separated by
    spaces beyond.  fmt "json": ``{"m": m, "values": [...]}`` exactly as
    json.dumps writes Permutation.to_json().  Values are looked up in a
    table of the m + 1 tokens "0".."m".
    """
    tokens = [str(v) for v in range(m + 1)]
    if fmt == "json":
        head, sep, tail = f'{{"m": {m}, "values": [', ", ", "]}"
    else:
        head, sep, tail = "", "" if m <= 9 else " ", ""
    return (head + sep.join([tokens[v] for v in row]) + tail for row in rows)


def _dtype_for(m: int) -> np.dtype:
    return np.dtype(np.uint8 if m <= 255 else np.uint16)


class PermClass:
    """A finite set of same-degree permutations with a canonical order.

    Members are exposed sorted lexicographically and without duplicates.
    Large classes produced by the lifting kernel are stored as a compact
    integer array and only materialized into Permutation objects on first
    access; ``len()`` never materializes.
    """

    __slots__ = ("label", "m", "_members", "_array")

    def __init__(self, label: str, m: int, members: Iterable[Permutation] = ()):
        self.label = label
        self.m = m
        self._members: tuple[Permutation, ...] | None = tuple(sorted(set(members)))
        for p in self._members:
            if p.m != m:
                raise ValueError(f"degree mismatch in {label}: expected {m}, got {p.m}")
        self._array: np.ndarray | None = None

    @classmethod
    def from_array(cls, label: str, m: int, array: np.ndarray) -> "PermClass":
        """Wrap an (N, m) array of distinct permutation rows without copying."""
        obj = cls.__new__(cls)
        obj.label = label
        obj.m = m
        obj._members = None
        obj._array = array
        return obj

    @property
    def members(self) -> tuple[Permutation, ...]:
        if self._members is None:
            self._members = tuple(Permutation(row) for row in self.sorted_rows())
        return self._members

    def sorted_rows(self) -> list[Sequence[int]]:
        """Member values in lexicographic order, one sequence of ints per member.

        An array-backed class is lexsorted and checked without building
        Permutation objects: a row that is not a permutation of 1..m raises
        ValueError, as Permutation() would.
        """
        if self._members is not None:
            return [p.values for p in self._members]
        arr = self._array
        if arr.shape[0] > 1:
            arr = arr[np.lexsort(arr.T[::-1])]
        # numpy sorts 16-bit lanes far faster than 8-bit ones; promote_types only widens
        ranked = np.sort(arr.astype(np.promote_types(arr.dtype, np.uint16)), axis=1)
        bad = (ranked != np.arange(1, self.m + 1)).any(axis=1)
        if bad.any():
            row = tuple(arr[int(np.argmax(bad))].tolist())
            raise ValueError(f"not a permutation of 1..{self.m}: {row}")
        return arr.tolist()

    def as_array(self) -> np.ndarray:
        """Member rows as an (N, m) integer array; row order unspecified."""
        if self._array is None:
            self._array = np.array([p.values for p in self._members], dtype=_dtype_for(self.m)).reshape(len(self._members), self.m)
        return self._array

    def __len__(self) -> int:
        if self._members is not None:
            return len(self._members)
        return self._array.shape[0]

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.members)

    def __contains__(self, item: object) -> bool:
        if not isinstance(item, Permutation):
            return False
        members = self.members
        i = bisect_left(members, item)
        return i < len(members) and members[i] == item

    def __eq__(self, other: object) -> bool:
        """Set equality on members; labels are not compared."""
        if not isinstance(other, PermClass):
            return NotImplemented
        return self.m == other.m and self.members == other.members

    def __hash__(self) -> int:
        return hash((self.m, self.members))

    def __repr__(self) -> str:
        return f"PermClass({self.label!r}, m={self.m}, size={len(self)})"


def shift_closure(perms):
    """Saturate a collection of permutations under all shifts.

    Accepts any iterable of Permutation; given a PermClass, returns a
    PermClass with the same label.  Idempotent.
    """
    items = list(perms)
    seen: set[Permutation] = set()
    for p in items:
        for k in range(p.m):
            seen.add(shift(p, k))
    closed = tuple(sorted(seen))
    if isinstance(perms, PermClass):
        return PermClass(perms.label, perms.m, closed)
    return closed
