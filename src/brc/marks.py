"""Marks on the divisor lattice of the window W_L, where the ring product is pointwise.

Marks on W_L travel as the map {x: eps_x} of those not 1: `key_marks`
reads a key set's off its indices and `MarkAction` applies such a map
through Mobius columns.  Both factor by one prime table per process,
rebuilt only for a larger bound up to limits.MAX_LENGTH; marks on W_L
take it up to L, so their MarkAction builds none."""

from __future__ import annotations

from array import array
from bisect import bisect_right
from itertools import compress, count
from math import isqrt
from operator import not_
from typing import Iterable, Mapping, Sequence

from .burnside import BurnsideElement, KeySet, as_key_set
from .limits import MAX_LENGTH

__all__ = ["divisor_sums", "from_divisor_sums", "window_marks", "key_marks", "MarkAction"]

_table = (array("H", [0, 0]), [])


def divisor_sums(values: Sequence[int]) -> list[int]:
    """F_x = sum_{x|n<=L} values[n-1] for x = 1..L, L = len(values).

    The divisor-sum matrix Z (Z[x][n] = 1 when x divides n) carries a
    window element into mark coordinates: its mark at D(x) is 2*F_x.
    Costs O(L log L).
    """
    padded = [0, *values]
    half = len(values) // 2
    sums = [sum(padded[x::x]) for x in range(1, half + 1)]
    # Above L/2 the only multiple of x in the window is x itself.
    sums.extend(values[half:])
    return sums


def from_divisor_sums(sums: Sequence[int]) -> list[int]:
    """The values whose divisor sums are `sums`: the inverse of divisor_sums.

    Z is unitriangular, so the downward sweep
    c_x = G_x - sum_{m=2x,3x,...<=L} c_m recovers c in O(L log L).
    """
    # In place, descending x: every slot above x already holds c.
    out = [0, *sums]
    for x in range(len(sums) // 2, 0, -1):
        out[x] -= sum(out[2 * x :: x])
    return out[1:]


def _sieve(bound: int) -> tuple[array, list[int]]:
    # factor[n] is 0 at 0, 1 and the primes, else a prime factor of n: each p
    # still 0 when reached is prime and claims its multiples from p*p.
    factor = array("H", [0]) * (bound + 1)
    for p in range(2, isqrt(bound) + 1):
        if not factor[p]:
            factor[p * p :: p] = array("H", [p]) * len(range(p * p, bound + 1, p))
    return factor, list(compress(count(), map(not_, factor)))[2:]


def _prime_table(bound: int) -> tuple[array, list[int]]:
    # The process's (factor, primes), rebuilt up to `bound`, refused above MAX_LENGTH.
    global _table
    if bound >= len(_table[0]):
        if bound > MAX_LENGTH:
            raise ValueError(f"prime table bound {bound} is above the limit {MAX_LENGTH}")
        _table = _sieve(bound)
    return _table


def _divisors_upto(n: int, limit: int) -> list[int]:
    # Divisors <= limit, unordered, from the primes <= min(limit, sqrt(n)) that
    # divide n; the cofactor left, if at most limit, is 1 or one more prime.
    primes = _prime_table(limit)[1]
    divisors = [1] if limit > 0 else []
    for p in primes[: bisect_right(primes, min(limit, isqrt(n)))]:
        power = divisors
        while not n % p:
            n //= p
            power = [d * p for d in power if d * p <= limit]
            divisors += power
    if 1 < n <= limit:
        divisors += [d * n for d in divisors if d * n <= limit]
    return divisors


def window_marks(k: BurnsideElement, length: int) -> list[int]:
    """Marks phi_x(k) = k_O2 + 2*sum_{x|n} k_n for x = 1..length (SO2 has mark 0)."""
    marks = [k._full] * length
    for n, c in k._dih.items():
        for d in _divisors_upto(n, length):
            marks[d - 1] += 2 * c
    return marks


def key_marks(s: KeySet | Iterable[int], length: int) -> dict[int, int]:
    """The non-unit marks of key_element(s) on W_length, {x: -1}, x ascending.

    O2 - D(i) has mark -1 at the divisors of i and +1 elsewhere, and marks
    are multiplicative, so eps_x = (-1)**#{i in s : x | i}.
    """
    odd: set[int] = set()
    for i in as_key_set(s):
        odd.symmetric_difference_update(_divisors_upto(i, length))
    return dict.fromkeys(sorted(odd), -1)


def _mobius_column(x: int, factor: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
    # The x/q with mu(q) = +1 and with mu(q) = -1, q | x squarefree: each
    # distinct prime p of x adds the terms so far divided by p, sign flipped.
    plus, minus = (x,), ()
    while x > 1:
        p = factor[x] or x
        while x % p == 0:
            x //= p
        plus, minus = plus + tuple([d // p for d in minus]), minus + tuple([d // p for d in plus])
    return plus, minus


class MarkAction:
    """The map p -> p * k on D(1)..D(L), built once from the non-unit marks {x: phi_x(k)} of k on W_L.

    Marks are multiplicative and stay on the window, so with F =
    divisor_sums(p), p*k = Z^-1(m*F) = p + sum_{x in N} (m_x - 1) * F_x *
    Z^-1 e_x over the N of x with m_x != 1, each column Z^-1 e_x being
    sum_{q | x, q squarefree} mu(q) * e_{x/q} (Rota 1964), kept with the
    weight m_x - 1 of each x in N, which the prime table factors; an x
    keyed outside 1..L is a ValueError.  A call returns a new list in
    O(L + sum_{x in N} (L/x + 2**omega(x))).  A key's N holds only
    divisors of its indices; marks not 1 at nearly every x hold about
    6/pi**2 * L * ln(L) terms, more than Z^-1 takes.
    """

    def __init__(self, marks: Mapping[int, int], window: int) -> None:
        if outside := [x for x in marks if not 1 <= x <= window]:
            raise ValueError(f"mark at D{outside[0]} outside the window W_{window}")
        self.window = window
        weights = {x: m - 1 for x, m in marks.items() if m != 1}
        factor = _prime_table(max(weights, default=1))[0]
        self._columns = [(x, weight, *_mobius_column(x, factor)) for x, weight in weights.items()]

    def __call__(self, values: Sequence[int]) -> list[int]:
        if len(values) != self.window:
            raise ValueError(f"{self.window} marks for a window of {len(values)}")
        # Padded with a 0 at n = 0, so that a quotient x/q is its own position.
        out = [0, *values]
        for x, weight, plus, minus in self._columns:
            f = sum(values[x - 1 :: x])
            if f:
                f *= weight
                for n in plus:
                    out[n] += f
                for n in minus:
                    out[n] -= f
        del out[0]
        return out
