"""Reference arithmetic for the checks, computed without the brc package.

Everything here follows from the mark (ghost) map of the Burnside ring of
O(2): on the dihedral span the mark at D(x) is phi_x(a) = a_O2 + 2 *
sum_{x|n} a_n, the ring product becomes a pointwise product of marks,
and the key k_S has marks eps_x = (-1)**#{s in S : x | s}.  The formulas
below are derived from that identity alone, so they check the program's
products, solver and suites from outside.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Sequence


def marks(key_set: Iterable[int], limit: int) -> list[int]:
    """[eps_1, ..., eps_limit] of the key built from `key_set` (index 0 unused)."""
    indices = tuple(key_set)
    eps = [0] * (limit + 1)
    for x in range(1, limit + 1):
        eps[x] = -1 if sum(1 for s in indices if s % x == 0) % 2 else 1
    return eps


def mobius_table(limit: int) -> list[int]:
    """mu(0..limit) by a linear sieve (mu(0) unused)."""
    mu = [1] * (limit + 1)
    mu[0] = 0
    is_composite = [False] * (limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_composite[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            if i * p > limit:
                break
            is_composite[i * p] = True
            if i % p == 0:
                mu[i * p] = 0
                break
            mu[i * p] = -mu[i]
    return mu


def divisor_sums(values: Sequence[int], limit: int) -> list[int]:
    """[0, F(1), ..., F(limit)] with F(x) = sum of values[n] over multiples n of x.

    `values` is indexed from 1 (values[0] is ignored) and has length limit + 1.
    """
    sums = [0] * (limit + 1)
    for x in range(1, limit + 1):
        sums[x] = sum(values[x : limit + 1 : x])
    return sums


def key_coefficients(key_set: Iterable[int]) -> dict[int, int]:
    """Nonzero dihedral coefficients {n: a_n} of the key element k_S.

    The O2 coefficient is 1, so phi_x(k_S) = 1 + 2 * sum_{x|n} a_n = eps_x;
    Moebius inversion of f(x) = (eps_x - 1) / 2 over x <= max S gives a_n.
    """
    indices = tuple(key_set)
    top = max(indices)
    eps = marks(indices, top)
    mu = mobius_table(top)
    f = [0] + [(eps[x] - 1) // 2 for x in range(1, top + 1)]
    coeffs: dict[int, int] = {}
    for n in range(1, top + 1):
        a = sum(mu[m // n] * f[m] for m in range(n, top + 1, n))
        if a:
            coeffs[n] = a
    return coeffs


def window_operator(key_set: Iterable[int], window: int) -> tuple[tuple[int, ...], ...]:
    """Z^-1 . diag(eps) . Z on W_window, with Z[x][n] = [x | n].

    Entry [j-1][i-1] is the coefficient of D(j) in D(i) * k_S, i.e.
    sum over x with j | x | i of mu(x / j) * eps_x.
    """
    eps = marks(key_set, window)
    mu = mobius_table(window)
    rows = []
    for j in range(1, window + 1):
        row = [0] * window
        for i in range(j, window + 1, j):
            row[i - 1] = sum(
                mu[x // j] * eps[x] for x in range(j, i + 1, j) if i % x == 0
            )
        rows.append(tuple(row))
    return tuple(rows)


def divisor_count(m: int) -> int:
    return sum(1 for k in range(1, m + 1) if m % k == 0)


# Case counts of the verify suites at their default ranges: basis pairs
# over {D(1..24), SO2, O2}; every key set of up to 3 indices from 1..12
# plus 1000 random trials; 500 random trials; and, for each m <= 50, the
# recurrence itself plus one case per proper divisor of m.
TABLE_MAX_INDEX = 24
INVOLUTION_EXHAUSTIVE = (12, 3)
INVOLUTION_TRIALS = 1000
PROP_COEFF_TRIALS = 500
RF1_MAX_IRREP = 50


def verify_case_counts() -> dict[str, int]:
    pairs = (TABLE_MAX_INDEX + 2) ** 2
    n, r_max = INVOLUTION_EXHAUSTIVE
    return {
        "table": pairs,
        "recurrence": pairs,
        "involution": sum(comb(n, r) for r in range(1, r_max + 1)) + INVOLUTION_TRIALS,
        "prop-coeff": PROP_COEFF_TRIALS,
        "rf1": RF1_MAX_IRREP + 1 + sum(divisor_count(m) - 1 for m in range(1, RF1_MAX_IRREP + 1)),
    }
