"""Permutations in one-line notation and the residue/shift toolkit.

Everything is 1-based to match the combinatorial conventions: a permutation
theta of degree m maps positions 1..m to values 1..m, and ``theta(i)`` is
``values[i-1]``.  All values are immutable; every operation returns a new
object.
"""
from __future__ import annotations

from functools import lru_cache, total_ordering
from typing import Iterable, Iterator

import numpy as np

MAX_DEGREE = 10_000
# the most bytes that one per-block temporary of a row check, a tau ranking
# or a piece of printed text may hold (scratch_rows)
SCRATCH_BYTES = 1 << 18
# the class labels and methods that perm_sets.enumerate_class takes; kept
# here so that the command-line parser is built without loading perm_sets
LABELS = ("V", "W", "Y", "Yprime", "X", "Sstar", "SstarTilde", "VL0", "VL1", "Vminus", "SosRec")
METHODS = ("brute", "lift", "farey")


def check_degree(m: int, ceiling: int | None = MAX_DEGREE, name: str = "degree") -> None:
    """Refuse m below 1 or above ceiling (None: no ceiling), before any work.

    Every degree, order and depth that soslift takes is refused here, and
    only here, by one of the two texts below.
    """
    if m < 1:
        raise ValueError(f"{name} must be positive, got {m}")
    if ceiling is not None and m > ceiling:
        raise ValueError(f"{name} {m} exceeds the supported ceiling {ceiling}")


def supermod_m(j: int, m: int) -> int:
    """Residue of j modulo m taken in {1, ..., m}: 0 is replaced with m.

    >>> supermod_m(4, 4), supermod_m(5, 4), supermod_m(0, 3)
    (4, 1, 3)
    """
    if m < 1:
        raise ValueError(f"modulus must be positive, got {m}")
    return (j - 1) % m + 1


@total_ordering
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
        check_degree(m)
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
        parts = tok.split() if any(ch.isspace() for ch in tok) else list(tok)
        vals = []
        for p in parts:
            try:
                vals.append(int(p))
            except ValueError:  # also a digit run past int's digit limit
                raise ValueError(f"invalid permutation token {p!r} in {text!r}") from None
        try:
            return cls(vals)
        except ValueError:
            raise ValueError(f"invalid permutation {text!r}: not a bijection of 1..{len(vals)}") from None

    @classmethod
    def from_json(cls, obj: dict) -> "Permutation":
        return cls(_json_values(obj))

    def to_json(self) -> dict:
        return {"m": self.m, "values": list(self._values)}

    def one_line(self) -> str:
        return format_rows((self._values,), self.m, "oneline")[:-1]

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

    def __repr__(self) -> str:
        return f"Permutation({self.one_line()!r})"

    def __str__(self) -> str:
        return self.one_line()


def report_passed(records: list[dict]) -> bool:
    """Whether every record of a report {"m", "check", "passed", "detail"} passed."""
    return all(r["passed"] for r in records)


def add_record(records: list[dict], m: int, check: str, passed: object, detail: str = "") -> None:
    """Append one record {"m", "check", "passed", "detail"} of a report, passed as a bool."""
    records.append({"m": m, "check": check, "passed": bool(passed), "detail": detail})


def _json_values(obj: dict) -> list[int]:
    """The values of a JSON permutation object: a list of integers (no bools)
    whose length is obj["m"] when that is given.  They are not yet checked to
    be a permutation."""
    vals = obj["values"]
    if not isinstance(vals, list) or not {int}.issuperset(map(type, vals)):
        raise TypeError(f"JSON permutation values must be a list of integers, got {vals!r}")
    if obj.get("m", len(vals)) != len(vals):
        raise ValueError(f"inconsistent JSON permutation: m={obj['m']} but {len(vals)} values")
    return vals


def shift(theta: Permutation, k: int) -> Permutation:
    """Shift action: add k to every value, wrapped back into [m].

    >>> str(shift(Permutation.parse("12"), 1))
    '21'
    """
    return Permutation(supermod_m(v + k, theta.m) for v in theta)


def gamma(theta: Permutation) -> Permutation:
    """The unique shift of theta whose first value is 1."""
    return shift(theta, 1 - theta(1))


def psi(theta: Permutation) -> Permutation:
    """Drop the leading fixed point: (1, t2, ..., tm) -> (t2-1, ..., tm-1).

    Defined only on permutations with theta(1) = 1.
    """
    if theta.m < 2:
        raise ValueError("psi needs degree >= 2")
    if theta(1) != 1:
        raise ValueError(f"psi requires theta(1) = 1, got {theta.one_line()}")
    return Permutation(v - 1 for v in theta.values[1:])


def in_V(theta: Permutation) -> bool:
    """Congruential recurrence membership (the class V)."""
    m, vals = theta.m, theta.values
    return all((b - a) % m == (vals[0] - (vals[-1] <= a)) % m for a, b in zip(vals, vals[1:]))


def _token_table(tokens: list[str]) -> np.ndarray:
    """The tokens NUL-padded to one width w in {1, 2, 4, 8}, one uint(8w) each."""
    w = 1 << (max(map(len, tokens)) - 1).bit_length()
    return np.frombuffer("".join(t.ljust(w, "\0") for t in tokens).encode("ascii"), dtype=f"u{w}")


@lru_cache(maxsize=32)
def _encoding(m: int, fmt: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The head bytes and the inner and last token tables of degree m in fmt.

    All three are read-only (frombuffer of bytes), so one copy serves every call.
    """
    if fmt == "json":
        head, sep, tail = f'{{"m": {m}, "values": [', ", ", "]}"
    else:
        head, sep, tail = "", "" if m <= 9 else " ", ""
    return (np.frombuffer(head.encode("ascii"), dtype=np.uint8),
            _token_table([f"{v}{sep}" for v in range(m + 1)]),
            _token_table([f"{v}{tail}\n" for v in range(m + 1)]))


def format_rows(rows: np.ndarray, m: int, fmt: str) -> str:
    """The rows of an (n, m) integer array with values in 1..m, one
    newline-terminated line each, as one string.

    fmt "oneline": the values concatenated up to degree 9 and separated by
    spaces beyond.  fmt "json": ``{"m": m, "values": [...]}`` exactly as
    json.dumps writes Permutation.to_json().  The block is encoded at once:
    each value v of the first m - 1 columns is looked up as "v" + separator
    in a table of NUL-padded tokens, the last column in a second table of
    "v" + tail + newline, the head goes in front of every row, and the
    padding is deleted from the bytes of the whole block (no token holds a
    NUL).  With no head and one token width for both tables (oneline from
    degree 10), the whole block is one gather from the inner table, its last
    column overwritten in place.  A block takes up to 8 bytes per value,
    several times over, so callers pass blocks of bounded size.
    """
    rows = np.asarray(rows)
    head_bytes, inner, last = _encoding(m, fmt)
    if len(head_bytes) or inner.dtype != last.dtype:
        # take() returns C-contiguous (n, k) arrays, which view as (n, k*w) bytes
        inner, last = inner.take(rows[:, :-1]), last.take(rows[:, -1:])
        block = np.concatenate([np.broadcast_to(head_bytes, (len(rows), len(head_bytes))),
                                inner.view(np.uint8), last.view(np.uint8)], axis=1)
    else:
        block = inner.take(rows)
        block[:, -1] = last.take(rows[:, -1])
    return block.tobytes().translate(None, b"\0").decode("ascii")


def _dtype_for(m: int) -> np.dtype:
    return np.dtype(np.uint8 if m <= 255 else np.uint16)


def _row_items(rows: np.ndarray, copy: bool = False) -> np.ndarray:
    """The rows of an (N, m) array of values in 0..m as (N,) opaque items, one per row.

    The items view a C-contiguous big-endian array of dtype _dtype_for(m), so
    item order is lexicographic row order and equal items are equal rows:
    rows itself when it is such an array and copy is False, else a fresh copy.
    """
    big_endian = _dtype_for(rows.shape[1]).newbyteorder(">")
    big = (np.array if copy else np.asarray)(rows, dtype=big_endian, order="C")
    return big.view(np.dtype((np.void, big.shape[1] * big.itemsize))).ravel()


def _rows_in(rows: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (N, m) array that are also rows of an (M, m) array.

    The items of ``other`` are sorted once and each item of ``rows`` is
    looked up by binary search, so the test holds little beyond the two
    item copies (np.isin on opaque items held about ten times its inputs).
    """
    keys = _row_items(other, copy=True)
    keys.sort()
    items = _row_items(rows)
    if not len(keys):
        return np.zeros(len(items), dtype=bool)
    at = np.searchsorted(keys, items).clip(max=len(keys) - 1)
    return keys[at] == items


def scratch_rows(m: int) -> int:
    """Rows of degree m per block of a blocked pass: at most SCRATCH_BYTES
    of 8 bytes per value, and at least one row."""
    return max(1, SCRATCH_BYTES // (8 * m))


def _misses_a_value(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of an (N, m) array of values in 1..m that are not permutations.

    Each block of scratch_rows(m) rows is offset into one reused int64 index
    buffer and scattered by flat index into one reused (block, m + 1) mask,
    so the check holds at most SCRATCH_BYTES of indices and an eighth of
    that of mask beyond the (N,) result, whatever N.
    """
    n, m = rows.shape
    block = max(1, min(n, scratch_rows(m)))
    seen = np.empty((block, m + 1), dtype=bool)
    index = np.empty((block, m), dtype=np.int64)
    offsets = np.arange(0, block * (m + 1), m + 1)[:, None]
    misses = np.empty(n, dtype=bool)
    for start in range(0, n, block):
        part = rows[start:start + block]
        k = len(part)
        seen[:k] = False
        np.add(part, offsets[:k], out=index[:k])
        seen.ravel()[index[:k]] = True
        np.logical_not(seen[:k, 1:].all(axis=1), out=misses[start:start + k])
    return misses


def _sorted_rows(label: str, m: int, array: np.ndarray) -> np.ndarray:
    """The rows of an (N, m) integer array as the members of a class: in
    lexicographic order, deduplicated, of dtype _dtype_for(m), and each
    checked to be a permutation of 1..m (ValueError naming the label if not).
    The array is borrowed, so _sort_rows sorts one C-contiguous copy of it, and
    the sorted rows are checked by _misses_a_value, which holds for rows from
    any caller (lifting.sorted_blocks checks its decoded walks more cheaply).
    """
    check_degree(m, name=f"{label} degree")
    if array.ndim != 2 or array.shape[1] != m or not np.issubdtype(array.dtype, np.integer):
        raise ValueError(f"{label} of degree {m} needs an (N, {m}) integer array, "
                         f"got shape {array.shape} of {array.dtype}")
    if len(array) and (array.min() < 1 or array.max() > m):
        _refuse(label, array, ((array < 1) | (array > m)).any(axis=1))
    rows = _sort_rows(m, np.array(array, dtype=_dtype_for(m), order="C"))
    return _refuse(label, rows, _misses_a_value(rows))


def _sort_rows(m: int, rows: np.ndarray) -> np.ndarray:
    """A C-contiguous (N, m) array of dtype _dtype_for(m) that the caller hands
    over, in lexicographic order and deduplicated, in its own buffer, which the
    result views; the rows are not checked, so each caller checks the result.
    The rows are sorted as big-endian byte items (_row_items), so uint16 rows on a
    little-endian machine are byte-swapped in place before the sort and after it.
    """
    big_endian = rows.dtype.newbyteorder(">")
    items = _row_items(_in_place_as(big_endian, rows))
    items.sort()
    distinct = items[1:] != items[:-1]
    if not distinct.all():
        items = items[np.concatenate(([True], distinct))]
    return _in_place_as(_dtype_for(m), items.view(big_endian).reshape(len(items), m))


def _in_place_as(dtype: np.dtype, rows: np.ndarray) -> np.ndarray:
    """The values of a C-contiguous array as dtype (its own in either byte order), in its
    buffer: numpy casts a 1-d array onto itself in place, several times faster than byteswap."""
    if dtype != rows.dtype:
        np.copyto(rows.reshape(-1).view(dtype), rows.reshape(-1))
    return rows.view(dtype)


def _refuse(label: str, rows: np.ndarray, bad: np.ndarray) -> np.ndarray:
    """The rows of an (N, m) array, or a ValueError naming the first that bad marks."""
    if bad.any():
        row = tuple(rows[int(np.argmax(bad))].tolist())
        raise ValueError(f"not a permutation of 1..{rows.shape[1]} in {label}: {row}")
    return rows


class PermClass:
    """A finite set of same-degree permutations, held in one canonical form.

    The members are the rows of one read-only (N, m) array of dtype
    _dtype_for(m): in lexicographic order, deduplicated and checked to be
    permutations of 1..m when the class is built.  ``members`` builds
    Permutation objects, in the same order, on first access; nothing else does.
    """

    __slots__ = ("label", "m", "_members", "_array")

    def __init__(self, label: str, m: int, rows: np.ndarray):
        """The class of the rows of an (N, m) integer array, in any order and with repeats."""
        rows = _sorted_rows(label, m, np.asarray(rows))
        rows.flags.writeable = False
        self.label, self.m, self._array, self._members = label, m, rows, None

    @property
    def members(self) -> tuple[Permutation, ...]:
        if self._members is None:
            self._members = tuple(map(Permutation, self._array.tolist()))
        return self._members

    def as_array(self) -> np.ndarray:
        """The members in lexicographic order: a read-only (N, m) array of dtype _dtype_for(m)."""
        return self._array

    def __len__(self) -> int:
        return len(self._array)

    def __iter__(self) -> Iterator[Permutation]:
        return iter(self.members)

    def __contains__(self, item: object) -> bool:
        return (isinstance(item, Permutation) and item.m == self.m
                and bool(_rows_in(self._array, np.array([item.values])).any()))

    def __eq__(self, other: object) -> bool:
        """Set equality on members; labels are not compared."""
        if not isinstance(other, PermClass):
            return NotImplemented
        return self.m == other.m and np.array_equal(self._array, other._array)

    def __hash__(self) -> int:
        return hash((self.m, self._array.tobytes()))

    def __repr__(self) -> str:
        return f"PermClass({self.label!r}, m={self.m}, size={len(self)})"


def _shifts(rows: np.ndarray) -> np.ndarray:
    """Every shift of an (N, m) array of values in 1..m, as (mN, m) rows of dtype
    _dtype_for(m): shift k of v is wrap[k + v], one gather per shift into one array."""
    n, m = rows.shape
    wrap = np.tile(np.arange(1, m + 1, dtype=_dtype_for(m)), 2)
    out = np.empty((m, n, m), dtype=wrap.dtype)
    for k in range(m):
        np.take(wrap[k:], rows, out=out[k])
    return out.reshape(m * n, m)


def shift_closure(perms: PermClass) -> PermClass:
    """The class saturated under all shifts, with the same label.  Idempotent."""
    return PermClass(perms.label, perms.m, _shifts(perms.as_array()))
