from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from soslift.farey import (
    FareyInterval,
    farey_intervals,
    farey_sequence,
    farey_terms,
    format_fraction,
    interval_labels,
    parse_fraction,
    term_labels,
    totient_sum,
    totients,
)

from oracles import mediant


def test_sequence_small_orders_frozen() -> None:
    assert farey_sequence(1) == [Fraction(0), Fraction(1)]
    assert farey_sequence(3) == [
        Fraction(0),
        Fraction(1, 3),
        Fraction(1, 2),
        Fraction(2, 3),
        Fraction(1),
    ]
    assert farey_sequence(5) == [
        Fraction(0),
        Fraction(1, 5),
        Fraction(1, 4),
        Fraction(1, 3),
        Fraction(2, 5),
        Fraction(1, 2),
        Fraction(3, 5),
        Fraction(2, 3),
        Fraction(3, 4),
        Fraction(4, 5),
        Fraction(1),
    ]


def test_sequence_is_sorted_reduced_and_counted() -> None:
    for m in range(1, 31):
        seq = farey_sequence(m)
        assert seq == sorted(seq)
        assert len(seq) == len(set(seq))
        assert len(seq) == 1 + totient_sum(m)
        assert all(0 <= t <= 1 and t.denominator <= m for t in seq)


def test_consecutive_terms_are_unimodular() -> None:
    for m in range(1, 13):
        seq = farey_sequence(m)
        for lo, hi in zip(seq, seq[1:]):
            assert lo.denominator * hi.numerator - lo.numerator * hi.denominator == 1


def test_sequence_is_the_fractions_of_the_term_arrays() -> None:
    for m in range(1, 41):
        num, den = farey_terms(m)
        assert num.dtype == den.dtype == np.int64
        assert farey_sequence(m) == [Fraction(p, q) for p, q in zip(num.tolist(), den.tolist())]


@pytest.mark.parametrize("m", [*range(1, 121), 300, 1000, 2000])
def test_term_arrays_are_every_reduced_fraction_in_order(m: int) -> None:
    # ascending, reduced, in [0, 1] with denominators <= m, and 1 + totient_sum(m)
    # of them: exactly the order-m Farey terms, whatever builds them
    num, den = farey_terms(m)
    assert num.dtype == den.dtype == np.int64
    assert (num[0], den[0], num[-1], den[-1]) == (0, 1, 1, 1)
    assert np.all((0 <= num) & (num <= den) & (den <= m))
    assert np.all(np.gcd(num, den) == 1)
    assert np.all(num[:-1] * den[1:] < num[1:] * den[:-1])
    assert np.all(den[:-1] * num[1:] - num[:-1] * den[1:] == 1)
    assert len(num) == len(den) == 1 + totient_sum(m)


def test_sequence_rejects_nonpositive_order() -> None:
    with pytest.raises(ValueError, match="order must be positive"):
        farey_sequence(0)
    with pytest.raises(ValueError, match="order must be positive"):
        farey_terms(0)


def test_intervals_are_indexed_and_adjacent() -> None:
    for m in range(1, 13):
        ivs = farey_intervals(m)
        assert len(ivs) == totient_sum(m)
        assert [iv.index for iv in ivs] == list(range(1, len(ivs) + 1))
        assert ivs[0].lo == 0
        assert ivs[-1].hi == 1
        for left, right in zip(ivs, ivs[1:]):
            assert left.hi == right.lo


def test_interval_membership_is_strict() -> None:
    iv = FareyInterval(Fraction(1, 3), Fraction(1, 2), 2)
    assert str(iv) == "(1/3, 1/2)"
    assert Fraction(2, 5) in iv
    assert iv.lo not in iv
    assert iv.hi not in iv


def test_farey_labels_are_the_text_of_the_fraction_intervals() -> None:
    for m in range(1, 41):
        terms = term_labels(*farey_terms(m))
        intervals = interval_labels(terms)
        assert terms == [format_fraction(f) for f in farey_sequence(m)]
        assert intervals == [str(iv) for iv in farey_intervals(m)]


def test_mediant_lies_inside_and_is_reduced() -> None:
    ivs = farey_intervals(3)
    assert mediant(ivs[1]) == Fraction(2, 5)
    for m in range(1, 13):
        for iv in farey_intervals(m):
            mid = mediant(iv)
            assert mid in iv
            assert mid.numerator == iv.lo.numerator + iv.hi.numerator
            assert mid.denominator == iv.lo.denominator + iv.hi.denominator


def test_totients_sieve_frozen() -> None:
    assert totients(10) == [0, 1, 1, 2, 2, 4, 2, 6, 4, 6, 4]
    assert totients(1) == [0, 1]
    with pytest.raises(ValueError, match="negative bound"):
        totients(-1)


def test_totient_sum_frozen_values() -> None:
    expected = {1: 1, 3: 4, 4: 6, 5: 10, 6: 12, 12: 46, 200: 12232}
    for m, total in expected.items():
        assert totient_sum(m) == total
    phi = totients(30)
    for m in range(1, 31):
        assert totient_sum(m) == sum(phi[1 : m + 1])


def test_fraction_text_round_trip() -> None:
    alpha = parse_fraction("2/5")
    assert alpha == Fraction(2, 5)
    assert format_fraction(alpha) == "2/5"
    assert parse_fraction("4/10") == Fraction(2, 5)
    with pytest.raises(ValueError, match="invalid fraction token"):
        parse_fraction("2/0")
    with pytest.raises(ValueError, match="invalid fraction token"):
        parse_fraction("x")
