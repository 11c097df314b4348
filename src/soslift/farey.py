"""Order-m Farey sequences, their open intervals, and totient sums.

All arithmetic is exact: the terms come as int64 numerator and denominator
arrays (farey_terms, the reduced fractions sorted by one integer key), or as
``fractions.Fraction`` values, which are stored reduced and compare exactly.
Text form is always "p/q" (so 0 and 1 print as "0/1" and "1/1"); JSON form
is ``{"num": p, "den": q}``.
"""
from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .perm_core import check_degree


def parse_fraction(text: str) -> Fraction:
    """Parse "p/q" (or a bare integer) into an exact Fraction."""
    tok = text.strip()
    try:
        return Fraction(tok)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"invalid fraction token {tok!r}") from None


def format_fraction(f: Fraction) -> str:
    return f"{f.numerator}/{f.denominator}"


@dataclass(frozen=True)
class FareyInterval:
    """Open interval (lo, hi) between successive order-m Farey terms.

    ``index`` is the 1-based position of the interval in the left-to-right
    interval list of its order.
    """

    lo: Fraction
    hi: Fraction
    index: int

    def __contains__(self, alpha: Fraction) -> bool:
        return self.lo < alpha < self.hi

    def __str__(self) -> str:
        return f"({format_fraction(self.lo)}, {format_fraction(self.hi)})"


def farey_terms(m: int) -> tuple[np.ndarray, np.ndarray]:
    """Numerators and denominators of the order-m Farey terms, as int64 arrays.

    The terms are the reduced fractions p/q with 0 <= p <= q <= m, ascending,
    built by that definition: the grid pairs (q, p) with p <= q and
    gcd(p, q) = 1, sorted by the integer key floor(p * m^2 / q).  Distinct
    terms differ by at least 1/m^2, so their keys differ by at least 1 and the
    order is exact, with no float; the key fits int64 for m below 2 * 10^6.

    >>> [f"{p}/{q}" for p, q in zip(*farey_terms(3))]
    ['0/1', '1/3', '1/2', '2/3', '1/1']
    """
    check_degree(m, None, "order")
    # int64 before any product, as a 32-bit intp would overflow the key
    den, num = (a.astype(np.int64, copy=False) for a in np.nonzero(np.tri(m + 1, dtype=bool)))
    reduced = np.gcd(num, den) == 1
    num, den = num[reduced], den[reduced]
    order = np.argsort(num * (m * m) // den)
    return num[order], den[order]


def term_labels(num: np.ndarray, den: np.ndarray) -> list[str]:
    """The terms of farey_terms as "p/q".

    >>> term_labels(*farey_terms(2))
    ['0/1', '1/2', '1/1']
    """
    return [f"{p}/{q}" for p, q in zip(num.tolist(), den.tolist())]


def interval_labels(terms: list[str]) -> list[str]:
    """The open intervals between consecutive term labels as "(a/b, c/d)".

    >>> interval_labels(term_labels(*farey_terms(2)))
    ['(0/1, 1/2)', '(1/2, 1/1)']
    """
    return [f"({lo}, {hi})" for lo, hi in zip(terms, terms[1:])]


def farey_json_pieces(m: int, num: np.ndarray, den: np.ndarray) -> Iterator[str]:
    """The text of json.dumps({"m": m, "terms": [...], "intervals": [...]},
    indent=2) for the terms of farey_terms, {"num": p, "den": q} each, and
    their intervals, {"lo": term, "hi": term, "index": t} each, in pieces of
    at most 4096 terms or intervals.  There are always two terms or more, so
    neither list is empty.

    >>> import json
    >>> json.loads("".join(farey_json_pieces(1, *farey_terms(1))))["intervals"]
    [{'lo': {'num': 0, 'den': 1}, 'hi': {'num': 1, 'den': 1}, 'index': 1}]
    """
    # the fixed text of one term and of one interval, at the nesting depth
    # where json.dumps(indent=2) writes them
    term = '    {\n      "num": %d,\n      "den": %d\n    }'
    interval = ('    {\n      "lo": {\n        "num": %d,\n        "den": %d\n      },\n'
                '      "hi": {\n        "num": %d,\n        "den": %d\n      },\n'
                '      "index": %d\n    }')
    p, q = num.tolist(), den.tolist()
    yield f'{{\n  "m": {m},\n  "terms": [\n'
    for start in range(0, len(p), 4096):
        stop = start + 4096
        part = zip(p[start:stop], q[start:stop])
        yield (",\n" if start else "") + ",\n".join([term % pq for pq in part])
    yield '\n  ],\n  "intervals": [\n'
    for start in range(0, len(p) - 1, 4096):
        stop = start + 4096
        part = zip(p[start:stop], q[start:stop], p[start + 1:stop + 1], q[start + 1:stop + 1],
                   range(start + 1, stop + 1))
        yield (",\n" if start else "") + ",\n".join([interval % iv for iv in part])
    yield "\n  ]\n}"


def farey_sequence(m: int) -> list[Fraction]:
    """The order-m Farey terms of farey_terms as exact Fractions, ascending.

    >>> [str(f) for f in farey_sequence(3)]
    ['0', '1/3', '1/2', '2/3', '1']
    """
    num, den = farey_terms(m)
    return [Fraction(p, q) for p, q in zip(num.tolist(), den.tolist())]


def farey_intervals(m: int) -> list[FareyInterval]:
    """The open intervals between successive order-m Farey terms, indexed 1..N."""
    terms = farey_sequence(m)
    return [FareyInterval(lo, hi, t) for t, (lo, hi) in enumerate(zip(terms, terms[1:]), start=1)]


def totients(m: int) -> list[int]:
    """Euler phi for 0..m by sieve; totients(m)[k] == phi(k) (phi(0) := 0)."""
    if m < 0:
        raise ValueError(f"negative bound {m}")
    phi = list(range(m + 1))
    for p in range(2, m + 1):
        if phi[p] == p:
            for k in range(p, m + 1, p):
                phi[k] -= phi[k] // p
    return phi


def totient_sum(m: int) -> int:
    """Sum of phi(k) for k = 1..m: the number of order-m Farey intervals.

    >>> totient_sum(1), totient_sum(4), totient_sum(6)
    (1, 6, 12)
    """
    check_degree(m, None, "order")
    return sum(totients(m)[1:])
