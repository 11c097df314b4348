"""Per-row membership predicates: the test oracles for the class rules.

Each predicate reads one Permutation and states its class's rule directly
from the definition.  The library states the same rules once, column-wise,
as the step rules of perm_sets._RULES; the tests compare the two.
"""
from __future__ import annotations

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
