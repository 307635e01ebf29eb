"""Every size limit that refuses input, and the checks that refuse it.

Each check runs before the work it guards and raises ValueError; the
message encoder and the file readers raise MessageError and
FileFormatError from the same constants.  Imports nothing from the
package at run time.  Timings are wall time and peak RSS of the whole
process at the cap, on a 2-vCPU VM under Python 3.11.7.
"""

from __future__ import annotations

from math import comb
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from collections.abc import Collection

    from .burnside import KeySet

# Longest message, in bytes, largest declared ciphertext length and
# widest attack window.  A ciphertext file of a few bytes can declare any
# L, and decryption works on a dense vector of L coefficients.
MAX_LENGTH = 1 << 20

# Most indices of a key set wherever the cost grows as 2**|S|: subset
# enumeration, the identity-query reply, the probe reply's odd gcds, a key
# file and every key set the CLI parses.  The key of the first 20 primes'
# product over each prime has 2**20 terms; `brc keygen` prints it in 4.1 s
# at 234 MB.  As the hidden `--s0` of `brc attack cpa` its probe leaves 20
# odd gcds, a reply of 2**19 terms: 2.8-3.6 s at 188 MB (six runs).
MAX_KEY_SIZE = 20

# Most decimal digits of one index of a key file or a CLI key set (KeySet
# takes any).  Marking costs min(L, sqrt(s)) divisor tests per index s, each
# linear in its digits.  Under the 20 indices lcm(1..60) * 73 * (146 + 7j),
# j = 0..19, of 30 digits (25 848 marks of -1), `brc encrypt` of a MAX_LENGTH
# message took 2.8-3.6 s at 61 MB and `brc decrypt` 3.5-3.9 s at 67 MB (five
# runs each); 4300-digit indices, the longest int() reads, took 131 s.
MAX_INDEX_DIGITS = 30

# key_coeff_mobius takes |T| remainders for each q <= max(s) // n, T the
# multiples of n in s, so its cost grows as the square of that quotient.  At
# the bound a key of 20 indices takes 6 ms and the densest key set,
# {n, 2n, ..., 4096n}, 1.0 s.
MAX_MOBIUS_QUOTIENT = 1 << 12

# Most body bytes `brc decrypt` reads after a ciphertext's length line
# declares L.  A text of L bytes, each 0..127, encrypts to coefficients with
# |c_n| <= 127 * sum_{q <= L} floor(L / q) < 127 * L * (L.bit_length() + 1), so
# the body holds at most L lines `D<n> -<c>`, each with no more digits of n
# than L has and of c than that bound has, plus 4 bytes: 170 000 bytes at
# L = 10 000 and 22 020 096 at MAX_LENGTH, where the longest body measured is
# 13 882 783 bytes.
def max_text_ciphertext_body(length: int) -> int:
    return length * (len(str(length)) + len(str(127 * length * (length.bit_length() + 1))) + 4)


# Most twins ambiguous_family builds; each costs a prime search, its marks on
# the window and a report line.  At the window MAX_LENGTH the cap takes 1.9-3.0 s
# at 40 MB for the key {2, 3}, and 134 s at 41 MB for the 30-digit key above.
MAX_TWINS = 100

# Games in one sweep, n*(n-1)*2 on n key sets.  Near the cap (--max-index 12
# --max-size 3, 177 012 games; --max-index 8 --max-size 8, 129 540 games on
# the largest sets) `brc attack cpa-sweep` takes 2.0-2.9 s at 16.2-16.4 MB
# (five runs each).
MAX_SWEEP_GAMES = 200_000

# Most plaintext values (pairs x window) the known-plaintext demonstration
# draws: four pairs at the full window, 4.4 s at 206 MB.  A pair on a small
# window counts as MIN_PAIR_COST values, about what its own lists and
# solver pass cost, so a million pairs on W_1 are refused as well.
MAX_DRAWN_VALUES = 4 * MAX_LENGTH
MIN_PAIR_COST = 64

# Caps of the `brc verify` ranges: recurrence 2.5 s and table 0.5 s at
# --max-index 200 (the cost grows as N**3 and N**2); prop-coeff 2.5 s and
# involution 2.1 s at --trials 100000; rf1 0.9 s and 18 MB at --max-irrep
# 800 (time grows as N**2; the lattice holds about N ln N counts).
MAX_TABLE_INDEX = 200
MAX_TRIALS = 100_000
MAX_IRREP = 800

# Each option's inclusive range.  0 trials leaves only the exhaustive
# cases of a suite, if it has any.
RANGES = {
    "window": (1, MAX_LENGTH), "count": (1, MAX_TWINS), "max_index": (1, MAX_TABLE_INDEX),
    "trials": (0, MAX_TRIALS), "max_irrep": (1, MAX_IRREP),
}


def check_range(option: str, value: int) -> None:
    low, high = RANGES[option]
    if value < low:
        raise ValueError(f"{option} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{option} must be <= {high}, got {value}")


def check_subset_cap(s: Collection[int]) -> None:
    if len(s) > MAX_KEY_SIZE:
        raise ValueError(f"key set has {len(s)} indices, above the limit {MAX_KEY_SIZE}")


def check_key_limits(key_set: KeySet) -> None:
    """ValueError above MAX_KEY_SIZE indices or MAX_INDEX_DIGITS digits per index."""
    check_subset_cap(key_set)
    if key_set.max_index >= 10**MAX_INDEX_DIGITS:
        raise ValueError(f"key index has more than {MAX_INDEX_DIGITS} digits")


def check_mobius_quotient(quotient: int) -> None:
    if quotient > MAX_MOBIUS_QUOTIENT:
        raise ValueError(f"max(s) // n is {quotient}, above the Mobius oracle's bound {MAX_MOBIUS_QUOTIENT}")


def check_sweep_size(max_index: int, max_size: int) -> None:
    # Counts the key sets size by size with math.comb and stops at the
    # first count over the cap, so no input makes the check itself slow.
    n = 0
    for size in range(1, min(max_size, max_index) + 1):
        n += comb(max_index, size)
        if n * (n - 1) * 2 > MAX_SWEEP_GAMES:
            raise ValueError(
                f"indices <= {max_index}, |S| <= {max_size} need more than "
                f"{MAX_SWEEP_GAMES} games, the cpa-sweep cap"
            )
    if n < 2:
        raise ValueError(f"fewer than two key sets with indices <= {max_index}, |S| <= {max_size}")


def check_drawn_values(n_pairs: int, window: int) -> None:
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    if n_pairs * max(window, MIN_PAIR_COST) > MAX_DRAWN_VALUES:
        raise ValueError(
            f"{n_pairs} pairs on W_{window} cost more than {MAX_DRAWN_VALUES} plaintext "
            f"values (a pair counts as at least {MIN_PAIR_COST})"
        )
