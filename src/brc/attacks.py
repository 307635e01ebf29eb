"""Cryptanalysis toolkit for the cipher.

Everything an adversary can observe lives in a finite window
W_L = span{D(1), ..., D(L)}: the key acts there as an integer L x L
matrix, M = Z^-1 * diag(eps) * Z in mark coordinates (Z the divisor-sum
matrix, eps_x the key's marks).  This module recovers those marks from
known plaintexts by reading them off divisor sums, often from a single
pair, with a generic fraction-free elimination of the dense matrix kept
as the reference; builds prime-scaled key sets that are
indistinguishable on any such window (so passive data never identifies
the key set); and runs the one-query chosen-plaintext experiment that
distinguishes any two candidate key sets with certainty, alone or over
every pair of a bounded key space.  The known-plaintext and ambiguity
demonstrations work on window vectors and key marks and never build a
key element; the operator matrix is built from the marks only when a
result's `matrix` is read, as a report does up to MAX_PRINTED_WINDOW.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, count as count_from, islice, permutations
from math import comb, isqrt
from operator import mul
from typing import Callable, Iterable, Sequence

from .burnside import (
    IDENTITY,
    BurnsideElement,
    D,
    KeySet,
    _check_cap,
    as_key_set,
    divisor_sums,
    from_divisor_sums,
    key_coeff_fold,
    key_element,
    key_marks,
    mark_product,
    window_marks,
)
from .cipher import MAX_LENGTH

__all__ = [
    "OperatorMatrix",
    "operator_matrix",
    "ambiguous_key",
    "ambiguous_family",
    "choose_probe",
    "CpaExperiment",
    "CpaResult",
    "cpa_distinguish",
    "run_cpa_experiment",
    "identity_query_leak",
    "CpaSweepResult",
    "run_cpa_sweep",
    "MAX_SWEEP_GAMES",
    "OracleMismatchError",
    "InconsistentPairsError",
    "KpaResult",
    "known_plaintext_solver",
    "generic_plaintext_solver",
    "MAX_TWINS",
    "MAX_PRINTED_WINDOW",
    "MAX_DRAWN_VALUES",
    "MIN_PAIR_COST",
    "AmbiguityResult",
    "run_ambiguity_demo",
    "KpaDemoResult",
    "run_kpa_demo",
    "format_cpa_report",
    "format_identity_report",
    "format_cpa_sweep_report",
    "format_ambiguity_report",
    "format_kpa_report",
]


class OracleMismatchError(RuntimeError):
    """Oracle reply matches neither candidate key (protocol violation)."""


class InconsistentPairsError(ValueError):
    """No single integer operator maps the given plaintexts to ciphertexts."""


@dataclass(frozen=True)
class OperatorMatrix:
    """Integer matrix of p -> p*k on the window basis D(1)..D(window).

    rows[j][i] is the coefficient of D(j+1) in the image of D(i+1);
    column i is the ciphertext of the probe D(i+1).
    """

    window: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.window < 1:
            raise ValueError(f"window must be >= 1, got {self.window}")
        if len(self.rows) != self.window or any(len(r) != self.window for r in self.rows):
            raise ValueError("matrix shape does not match window")

    def column(self, i: int) -> tuple[int, ...]:
        """Image of the probe D(i) as a coefficient vector (1-based i)."""
        return tuple(row[i - 1] for row in self.rows)

    def diagonal(self) -> tuple[int, ...]:
        return tuple(self.rows[i][i] for i in range(self.window))

    def render(self) -> str:
        width = max(len(str(e)) for row in self.rows for e in row)
        return "\n".join(" ".join(f"{e:>{width}}" for e in row) for row in self.rows)


def _operator_from_marks(marks: Sequence[int]) -> OperatorMatrix:
    # M = Z^-1 * diag(marks) * Z: column i is the image of D(i), whose
    # divisor sums are marks[x-1] at the divisors x of i and 0 elsewhere.
    # The image lies on D(1)..D(i), so inverting its first i sums suffices.
    window = len(marks)
    columns = [
        from_divisor_sums([eps if i % x == 0 else 0 for x, eps in zip(range(1, i + 1), marks)])
        + [0] * (window - i)
        for i in range(1, window + 1)
    ]
    return OperatorMatrix(window=window, rows=tuple(zip(*columns)))


def operator_matrix(key: BurnsideElement, window: int) -> OperatorMatrix:
    """Matrix of multiplication by `key` (any element) restricted to the window, from its marks."""
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    return _operator_from_marks(window_marks(key, window))


def _is_prime(n: int) -> bool:
    if n < 4:
        return n > 1
    return n % 2 == 1 and all(n % f for f in range(3, isqrt(n) + 1, 2))


def ambiguous_key(s: KeySet | Iterable[int], window: int, q: int) -> KeySet:
    """Scale every index by a prime q > window.

    gcd(i, q*n) = gcd(i, n) for every i <= window, so the scaled key
    acts identically on W_window while being a different key set.
    """
    s = as_key_set(s)
    if not _is_prime(q):
        raise ValueError(f"scale factor {q} is not prime")
    if q <= window:
        raise ValueError(f"scale prime {q} must exceed the window {window}")
    return KeySet(q * i for i in s)


# Most twins ambiguous_family builds.  Each twin costs a prime search and,
# in run_ambiguity_demo, its marks on the window and one report line: about
# 3 s for the full cap at the window MAX_LENGTH.
MAX_TWINS = 100


def ambiguous_family(s: KeySet | Iterable[int], window: int, count: int) -> list[KeySet]:
    """The first `count` prime-scaled twins of `s` above the window, count <= MAX_TWINS."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if count > MAX_TWINS:
        raise ValueError(f"count must be <= {MAX_TWINS}, got {count}")
    primes = (q for q in count_from(window + 1) if _is_prime(q))
    return [ambiguous_key(s, window, q) for q in islice(primes, count)]


def choose_probe(s0: KeySet | Iterable[int], s1: KeySet | Iterable[int]) -> int:
    """Largest index on which the candidate key sets disagree.

    At that index the folded key coefficients of the two candidates
    have different parity, so one encrypted probe separates them.
    """
    s0, s1 = as_key_set(s0), as_key_set(s1)
    diff = set(s0.indices) ^ set(s1.indices)
    if not diff:
        raise ValueError("candidate key sets are identical")
    return max(diff)


@dataclass
class CpaExperiment:
    """Key-distinguishing game: candidates, a hidden bit, a probe oracle.

    The oracle answers only dihedral probes (queries of the identity
    class would hand over the key element wholesale; see
    identity_query_leak for that demonstration).
    """

    s0: KeySet
    s1: KeySet
    hidden_bit: int
    query_log: list[int] = field(default_factory=list)

    def __post_init__(self) -> None:
        self.s0 = as_key_set(self.s0)
        self.s1 = as_key_set(self.s1)
        if self.s0 == self.s1:
            raise ValueError("candidate key sets are identical")
        if self.hidden_bit not in (0, 1):
            raise ValueError(f"hidden bit must be 0 or 1, got {self.hidden_bit}")

    @property
    def hidden_set(self) -> KeySet:
        return self.s1 if self.hidden_bit else self.s0

    def query_probe(self, x: int) -> BurnsideElement:
        """Encrypt the probe D(x) under the hidden key."""
        if x < 1:
            raise ValueError(f"probe index must be >= 1, got {x}")
        self.query_log.append(x)
        return BurnsideElement({D(x): 1}) * key_element(self.hidden_set)

    @property
    def queries(self) -> int:
        return len(self.query_log)


@dataclass(frozen=True)
class CpaResult:
    """Outcome of the one-probe distinguisher."""

    probe: int
    response: BurnsideElement
    observed: int
    expected0: int
    expected1: int
    guess: int


def cpa_distinguish(
    s0: KeySet | Iterable[int],
    s1: KeySet | Iterable[int],
    oracle: Callable[[int], BurnsideElement],
) -> CpaResult:
    """Identify the hidden key with a single chosen-plaintext query.

    Probes at the largest index where the candidates disagree; the
    probe's own coefficient in the reply equals 1 + 2*fold for the
    hidden candidate, and the two folds differ in parity.
    """
    s0, s1 = as_key_set(s0), as_key_set(s1)
    probe = choose_probe(s0, s1)
    # Folds first: an oversize candidate hits their cap before the oracle builds its element.
    expected0 = 1 + 2 * key_coeff_fold(s0, probe)
    expected1 = 1 + 2 * key_coeff_fold(s1, probe)
    response = oracle(probe)
    observed = response.dihedral_coeff(probe)
    if observed == expected0:
        guess = 0
    elif observed == expected1:
        guess = 1
    else:
        raise OracleMismatchError(
            f"probe D{probe} reply coefficient {observed} matches neither "
            f"candidate ({expected0} / {expected1})"
        )
    return CpaResult(
        probe=probe,
        response=response,
        observed=observed,
        expected0=expected0,
        expected1=expected1,
        guess=guess,
    )


def run_cpa_experiment(
    s0: KeySet | Iterable[int], s1: KeySet | Iterable[int], hidden_bit: int
) -> tuple[CpaResult, CpaExperiment]:
    """Play one full game in-process and return result plus query log."""
    experiment = CpaExperiment(s0=as_key_set(s0), s1=as_key_set(s1), hidden_bit=hidden_bit)
    result = cpa_distinguish(experiment.s0, experiment.s1, experiment.query_probe)
    return result, experiment


def identity_query_leak(
    s0: KeySet | Iterable[int], s1: KeySet | Iterable[int], hidden_bit: int
) -> tuple[int, BurnsideElement]:
    """Trivial distinguisher when identity-class queries are admissible.

    Encrypting the identity element returns the key element itself, so
    one unrestricted query reveals the hidden bit.  Kept separate from
    the headline attack, which works under the dihedral restriction.
    A key element has up to 2**|S| terms, so candidates above the
    dihedral game's subset cap are refused before any is built.
    """
    game = CpaExperiment(s0=s0, s1=s1, hidden_bit=hidden_bit)
    _check_cap(game.s0)
    _check_cap(game.s1)
    # The single query is the identity class itself; the oracle reply is
    # IDENTITY * k = k, the hidden key element in the clear.
    response = IDENTITY * key_element(game.hidden_set)
    if response == key_element(game.s0):
        return 0, response
    if response == key_element(game.s1):
        return 1, response
    raise OracleMismatchError("identity-query reply matches neither candidate key")


@dataclass(frozen=True)
class CpaSweepResult:
    """Tally of the one-probe distinguisher over a bounded key space."""

    max_index: int
    max_size: int
    key_sets: int
    games: int
    correct: int
    queries: int
    probes: tuple[tuple[int, int], ...]  # (probe index, games), ascending


# Games in one sweep, n*(n-1)*2 on n key sets.  Near the cap (--max-index 12
# --max-size 3, 177 012 games; --max-index 8 --max-size 8, 129 540 games on
# the largest sets) `brc attack cpa-sweep` takes 4-5 s; see README.
MAX_SWEEP_GAMES = 200_000


def _check_sweep_size(max_index: int, max_size: int) -> None:
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


def run_cpa_sweep(max_index: int, max_size: int) -> CpaSweepResult:
    """Play the game for every ordered pair of distinct key sets.

    The key space holds every set of indices <= max_index with
    1 <= |S| <= max_size; each ordered pair is played with both hidden
    bits, so the sweep plays n*(n-1)*2 games on n key sets, at most
    MAX_SWEEP_GAMES.  Both limits are checked before any key set is built.
    """
    _check_sweep_size(max_index, max_size)
    key_space = [
        KeySet(combo)
        for size in range(1, min(max_size, max_index) + 1)
        for combo in combinations(range(1, max_index + 1), size)
    ]
    games = correct = queries = 0
    probes: Counter[int] = Counter()
    for s0, s1 in permutations(key_space, 2):
        for hidden in (0, 1):
            result, experiment = run_cpa_experiment(s0, s1, hidden)
            games += 1
            correct += result.guess == hidden
            queries += experiment.queries
            probes[result.probe] += 1
    return CpaSweepResult(
        max_index=max_index,
        max_size=max_size,
        key_sets=len(key_space),
        games=games,
        correct=correct,
        queries=queries,
        probes=tuple(sorted(probes.items())),
    )


@dataclass(frozen=True)
class KpaResult:
    """Outcome of a known-plaintext operator solve.

    `marks` holds eps_1..eps_L when known_plaintext_solver pins every one
    down, and is None otherwise.  `undetermined` lists the window indices
    the pairs leave open, one per missing unit of rank: the marks eps_x no
    pair pins down for known_plaintext_solver, the free columns of the
    elimination for generic_plaintext_solver.
    """

    window: int
    pairs_used: int
    rank: int
    marks: tuple[int, ...] | None
    undetermined: tuple[int, ...] = ()

    @property
    def determined(self) -> bool:
        return self.rank == self.window

    @cached_property
    def matrix(self) -> OperatorMatrix | None:
        """The recovered operator on W_L, built from the marks on first access.

        None while the result is undetermined.  generic_plaintext_solver
        stores the matrix it eliminated here instead.
        """
        return None if self.marks is None else _operator_from_marks(self.marks)


def _check_solver_input(pairs: Sequence[tuple[Sequence[int], Sequence[int]]], window: int) -> None:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if not pairs:
        raise ValueError("at least one plaintext/ciphertext pair is required")
    for pair in pairs:
        for v in pair:
            if len(v) != window:
                raise ValueError(f"vector of {len(v)} coefficients on the window W_{window}")


def known_plaintext_solver(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]], window: int
) -> KpaResult:
    """Solve for the key's marks on the window from plaintext/ciphertext pairs.

    Works in mark coordinates.  On W_L the key acts as
    M = Z^-1 * diag(eps) * Z, with Z the divisor-sum matrix and eps_x
    the key's mark at D(x), so a pair (p, c) says G_x = eps_x * F_x for
    the divisor sums F of p and G of c.  Each mark is read off any pair
    with F_x != 0 and checked against every pair: G_x must equal
    eps_x * F_x, G_x must vanish where F_x does, and eps_x must be an
    integer (it is M's diagonal entry).  Any failure raises
    InconsistentPairsError.  `rank` counts the determined marks; when
    some stay open the result is undetermined (marks None) and names
    them.  A pair holds two window vectors of length L (ValueError
    otherwise); `cipher.ring_decode` turns a window element into one.
    Each pair costs O(L log L); the result's `matrix` view costs
    O(L^2 log L) on first access and is not built here.
    """
    _check_solver_input(pairs, window)
    # 0 holds the place of a mark still open.
    marks = [0] * window
    open_x: Sequence[int] = range(window)
    for p, c in pairs:
        f_sums = divisor_sums(p)
        g_sums = divisor_sums(c)
        opened = [x for x in open_x if f_sums[x]]
        for x in opened:
            marks[x] = g_sums[x] // f_sums[x]
        # One pass checks G_x = eps_x * F_x at every x: an open mark asks
        # G_x = 0 where F_x = 0, and a floored non-integer mark fails.
        if list(map(mul, marks, f_sums)) != g_sums:
            raise _first_inconsistency(marks, set(opened), f_sums, g_sums)
        open_x = [x for x in open_x if not f_sums[x]]
    undetermined = tuple(x + 1 for x in open_x)
    return KpaResult(
        window=window,
        pairs_used=len(pairs),
        rank=window - len(undetermined),
        marks=None if undetermined else tuple(marks),
        undetermined=undetermined,
    )


def _first_inconsistency(
    marks: Sequence[int], opened: set[int], f_sums: Sequence[int], g_sums: Sequence[int]
) -> InconsistentPairsError:
    # The error of a pair that failed the check, found by walking x upwards:
    # a mark the pair opens must be an integer, and every other x must
    # keep G_x = eps_x * F_x with the marks read before the pair.
    for x, (eps, f, g) in enumerate(zip(marks, f_sums, g_sums)):
        if x in opened:
            if g % f:
                return InconsistentPairsError(
                    f"mark at D{x + 1} is {g}/{f}, not an integer; pairs are "
                    "not generated by an integer operator"
                )
        elif g != eps * f:
            return InconsistentPairsError(
                f"pairs break G_x = eps_x * F_x at D{x + 1}; no single "
                "ring element generates them"
            )
    raise AssertionError("a pair failed the check at no window index")


def generic_plaintext_solver(
    pairs: Sequence[tuple[Sequence[int], Sequence[int]]], window: int
) -> KpaResult:
    """Solve for any integer operator on W_L that maps each p to its c.

    The reference for known_plaintext_solver: it assumes nothing about
    the operator's form, and takes the same pairs of window vectors.
    Fraction-free (Bareiss) Gauss-Jordan elimination of the augmented
    system [P | C] in exact integers; after full reduction every pivot
    equals the last one, d, and the operator's entries are the
    right-hand sides divided by d, so the operator is integral exactly
    when d divides them.  Returns an undetermined result (matrix None)
    when the plaintexts do not span the window; raises
    InconsistentPairsError when no single integer operator explains the
    pairs.  Its results carry no marks: the eliminated matrix itself is
    the result's `matrix`.
    """
    _check_solver_input(pairs, window)
    # Augmented system [P | C]: row j is (plaintext_j, ciphertext_j).
    matrix = [[*p, *c] for p, c in pairs]

    n_rows = len(matrix)
    pivot_cols: list[int] = []
    previous = 1
    row = 0
    for col in range(window):
        pivot = next((r for r in range(row, n_rows) if matrix[r][col]), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        lead_row = matrix[row]
        lead = lead_row[col]
        for r in range(n_rows):
            if r != row:
                factor = matrix[r][col]
                # Bareiss step: every quotient is an exact minor of [P | C].
                matrix[r] = [(lead * a - factor * b) // previous for a, b in zip(matrix[r], lead_row)]
        previous = lead
        pivot_cols.append(col)
        row += 1
        if row == n_rows:
            break

    # A zeroed plaintext part with surviving ciphertext part has no solution.
    for r in range(row, n_rows):
        if not any(matrix[r][:window]) and any(matrix[r][window:]):
            raise InconsistentPairsError(
                "pairs are not generated by any single linear operator"
            )

    rank = len(pivot_cols)
    if rank < window:
        free = tuple(col + 1 for col in range(window) if col not in pivot_cols)
        return KpaResult(window=window, pairs_used=n_rows, rank=rank, marks=None, undetermined=free)

    # Full rank: the P part is now previous * I, so pivot row r holds
    # previous * M[t][col] in right-hand column t (output t, input col).
    entries: list[list[int]] = [[0] * window for _ in range(window)]
    for r, col in enumerate(pivot_cols):
        for t in range(window):
            value, remainder = divmod(matrix[r][window + t], previous)
            if remainder:
                raise InconsistentPairsError(
                    "recovered operator is not integral; pairs are not "
                    "generated by an integer operator"
                )
            entries[t][col] = value
    result = KpaResult(window=window, pairs_used=n_rows, rank=rank, marks=None)
    # Fill the cached `matrix` view, which has no marks to build from.
    result.__dict__["matrix"] = OperatorMatrix(window=window, rows=tuple(tuple(r) for r in entries))
    return result


# The ambiguity and known-plaintext demonstrations work on marks and
# window vectors, O(L) memory, and accept any window up to MAX_LENGTH.
# Their reports print the dense window x window operator matrix up to
# this window; above it they list the x with eps_x = -1 instead, and no
# matrix is built.
MAX_PRINTED_WINDOW = 1000

# Most plaintext values (pairs x window) the known-plaintext demonstration
# draws: four pairs at the full window, a few seconds.  A pair on a small
# window counts as MIN_PAIR_COST values, about what its own lists and
# solver pass cost, so a million pairs on W_1 are refused as well.
MAX_DRAWN_VALUES = 4 * MAX_LENGTH
MIN_PAIR_COST = 64


def _check_demo_window(window: int) -> None:
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    if window > MAX_LENGTH:
        raise ValueError(f"window must be <= {MAX_LENGTH}, got {window}")


@dataclass(frozen=True)
class AmbiguityResult:
    """Prime-scaled twins and their window-operator comparison, from the base key's marks."""

    base: KeySet
    window: int
    base_marks: tuple[int, ...]
    twins: tuple[tuple[int, KeySet], ...]
    matrices_equal: tuple[bool, ...]
    elements_differ: tuple[bool, ...]

    @cached_property
    def base_matrix(self) -> OperatorMatrix:
        """The base key's operator on W_L, built from its marks on first access."""
        return _operator_from_marks(self.base_marks)

    @property
    def all_matrices_equal(self) -> bool:
        return all(self.matrices_equal)

    @property
    def all_elements_differ(self) -> bool:
        return all(self.elements_differ)

    @property
    def ok(self) -> bool:
        return self.all_matrices_equal and self.all_elements_differ


def run_ambiguity_demo(
    s: KeySet | Iterable[int], window: int, count: int
) -> AmbiguityResult:
    """Exhibit `count` distinct key sets acting identically on the window.

    The window must lie in 1..MAX_LENGTH and the count in 1..MAX_TWINS.

    Uses key sets and their marks only, never a key element, so the cost
    does not grow as 2**|S|.  Z is invertible, so twins are compared by their
    marks at D(1)..D(window).  Distinct key sets have distinct elements:
    at x = max(S ^ T) the counts #{s : x | s} differ by one, so the marks
    at D(x) have opposite signs; hence `elements_differ` is t != s.
    """
    s = as_key_set(s)
    _check_demo_window(window)
    base_marks = tuple(key_marks(s, window))
    twins = tuple((t.indices[0] // s.indices[0], t) for t in ambiguous_family(s, window, count))
    return AmbiguityResult(
        base=s,
        window=window,
        base_marks=base_marks,
        twins=twins,
        matrices_equal=tuple(tuple(key_marks(t, window)) == base_marks for _, t in twins),
        elements_differ=tuple(t != s for _, t in twins),
    )


@dataclass(frozen=True)
class KpaDemoResult:
    """Seeded known-plaintext run against a hidden key."""

    key_set: KeySet
    window: int
    seed: int
    solver: KpaResult
    matches_true_operator: bool | None
    twins: tuple[KeySet, ...]
    twins_match: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        """No recovered matrix disagrees with the key's, and every twin's matches."""
        return self.matches_true_operator is not False and all(self.twins_match)


_REJECTED_BYTES = bytes(range(128, 256))
# Mersenne words per getrandbits call of the plaintext draw.
_DRAW_WORDS = 1 << 16


def _draw_plaintext_values(rng: random.Random, count: int) -> bytes:
    """The values of `[rng.randint(0, 127) for _ in range(count)]`, drawn in bulk.

    randint(0, 127) takes getrandbits(8), the top byte of one 32-bit
    Mersenne word, and draws again while that byte is >= 128.
    getrandbits(32*m) packs the next m words little-endian, so its bytes
    3, 7, 11, ... are their top bytes in order, and dropping those >= 128
    leaves the values the loop returns.  Words past the last value kept
    are drawn and discarded, so `rng` ends in another state than the
    loop leaves it in.
    """
    values = bytearray()
    while len(values) < count:
        # About two words per value still wanted: half the top bytes are kept.
        words = min(2 * (count - len(values)) + 64, _DRAW_WORDS)
        top_bytes = rng.getrandbits(32 * words).to_bytes(4 * words, "little")[3::4]
        values += top_bytes.translate(None, _REJECTED_BYTES)
    del values[count:]
    return bytes(values)


def run_kpa_demo(
    key_set: KeySet | Iterable[int],
    window: int,
    n_pairs: int,
    seed: int = 0,
) -> KpaDemoResult:
    """Generate seeded random pairs, solve, and show key non-identifiability.

    Even when the operator is fully recovered, three prime-scaled twins
    produce the very same matrix, so the key set remains open.  Each
    plaintext holds `window` values of `random.Random(seed).randint(0, 127)`
    (a plaintext of zeros becomes D(1)), and each ciphertext vector is
    the mark product of its plaintext vector with the key's window marks;
    no key element is built.  The recovered marks are compared with the
    key's, which is exact because Z is invertible, and no operator matrix
    is built here.  The window must lie in 1..MAX_LENGTH, and
    n_pairs * max(window, MIN_PAIR_COST) at most MAX_DRAWN_VALUES.
    Memory stays O(n_pairs * window): `brc attack kpa --window 1048576
    --pairs 4` takes about 4.4 s and 206 MB peak RSS (Python 3.11,
    2 vCPU).
    """
    key_set = as_key_set(key_set)
    _check_demo_window(window)
    if n_pairs < 1:
        raise ValueError(f"need at least one pair, got {n_pairs}")
    if n_pairs * max(window, MIN_PAIR_COST) > MAX_DRAWN_VALUES:
        raise ValueError(
            f"{n_pairs} pairs on W_{window} cost more than {MAX_DRAWN_VALUES} plaintext "
            f"values (a pair counts as at least {MIN_PAIR_COST})"
        )
    ambiguity = run_ambiguity_demo(key_set, window, 3)
    drawn = _draw_plaintext_values(random.Random(seed), n_pairs * window)
    pairs = []
    for start in range(0, n_pairs * window, window):
        values = list(drawn[start : start + window])
        if not any(values):
            values = [1] + [0] * (window - 1)
        pairs.append((values, mark_product(values, ambiguity.base_marks)))
    solver = known_plaintext_solver(pairs, window)
    matches = solver.marks == ambiguity.base_marks if solver.determined else None
    return KpaDemoResult(
        key_set=ambiguity.base,
        window=window,
        seed=seed,
        solver=solver,
        matches_true_operator=matches,
        twins=tuple(twin for _, twin in ambiguity.twins),
        twins_match=ambiguity.matrices_equal,
    )


def _indent(text: str, pad: str = "    ") -> str:
    return "\n".join(pad + line for line in text.splitlines())


def _minus_marks(marks: Sequence[int]) -> str:
    # Stands in for an operator matrix too large to print.
    minus = ", ".join(f"D{x}" for x, eps in enumerate(marks, 1) if eps == -1)
    return f"-1 at {minus}; +1 elsewhere (no matrix above W_{MAX_PRINTED_WINDOW})"


def _decision_lines(guess: int, queries: int, hidden_bit: int, seed: int | None) -> list[str]:
    lines = [
        f"decision       : {guess}",
        f"queries        : {queries}",
        f"hidden bit     : {hidden_bit}",
        f"outcome        : {'SUCCESS' if guess == hidden_bit else 'FAILURE'}",
    ]
    if seed is not None:
        lines.append(f"seed           : {seed}")
    return lines


def format_cpa_report(result: CpaResult, experiment: CpaExperiment, seed: int | None = None) -> str:
    """Structured text report of one distinguishing game.

    `seed`, when given, is the seed the hidden bit was drawn from.
    """
    lines = [
        "CPA key-distinguishing attack",
        f"candidates     : S0 = {experiment.s0}, S1 = {experiment.s1}",
        f"chosen probe   : D{result.probe}",
        "oracle response:",
        _indent(result.response.render()),
        f"probe coefficient observed {result.observed}; "
        f"expected {result.expected0} for S0, {result.expected1} for S1",
        *_decision_lines(result.guess, experiment.queries, experiment.hidden_bit, seed),
    ]
    return "\n".join(lines)


def format_identity_report(
    s0: KeySet, s1: KeySet, hidden_bit: int, guess: int, response: BurnsideElement, seed: int | None = None
) -> str:
    """Report of the identity-class query game (see identity_query_leak)."""
    lines = [
        "CPA key-distinguishing attack (identity-class query)",
        f"candidates     : S0 = {s0}, S1 = {s1}",
        "oracle response:",
        _indent(response.render()),
        *_decision_lines(guess, 1, hidden_bit, seed),
    ]
    return "\n".join(lines)


def format_cpa_sweep_report(result: CpaSweepResult) -> str:
    lines = [
        f"key space      : {result.key_sets} sets "
        f"(indices <= {result.max_index}, |S| <= {result.max_size})",
        f"experiments    : {result.games} (ordered pairs x both hidden bits)",
        f"success rate   : {result.correct / result.games:.6f} ({result.correct}/{result.games})",
        f"queries/game   : {result.queries / result.games:.3f}",
        "probe histogram:",
        *(f"  D{probe:<3} {games}" for probe, games in result.probes),
    ]
    return "\n".join(lines)


def format_ambiguity_report(result: AmbiguityResult) -> str:
    lines = [
        f"Key ambiguity on the window W_{result.window}",
        f"base key set   : {result.base}",
    ]
    for (q, twin), m_eq, e_diff in zip(
        result.twins, result.matrices_equal, result.elements_differ
    ):
        lines.append(
            f"twin q={q:<6}: {twin}  matrix equal: {'yes' if m_eq else 'NO'}  "
            f"key element differs: {'yes' if e_diff else 'NO'}"
        )
    if result.window <= MAX_PRINTED_WINDOW:
        lines.append("operator matrix on the window:")
        lines.append(_indent(result.base_matrix.render()))
    else:
        lines.append(f"operator marks on the window: {_minus_marks(result.base_marks)}")
    verdict = (
        "matrices identical; key set not identifiable from this window"
        if result.ok
        else "demonstration FAILED"
    )
    lines.append(f"conclusion     : {verdict}")
    return "\n".join(lines)


def format_kpa_report(result: KpaDemoResult) -> str:
    lines = [
        f"Known-plaintext attack on the window W_{result.window}",
        f"hidden key set : {result.key_set}",
        f"seed           : {result.seed}",
        f"pairs used     : {result.solver.pairs_used}",
        f"system rank    : {result.solver.rank} / {result.window}",
    ]
    if result.solver.determined:
        lines.append("operator fully determined: yes")
        lines.append(
            f"matches hidden key's operator: "
            f"{'yes' if result.matches_true_operator else 'NO'}"
        )
        if result.window <= MAX_PRINTED_WINDOW:
            assert result.solver.matrix is not None
            lines.append("recovered matrix:")
            lines.append(_indent(result.solver.matrix.render()))
        else:
            assert result.solver.marks is not None
            lines.append(f"recovered marks: {_minus_marks(result.solver.marks)}")
    else:
        lines.append("operator fully determined: no (underdetermined system)")
        lines.append(f"open marks     : {', '.join(f'D{x}' for x in result.solver.undetermined)}")
    twin_bits = ", ".join(
        f"{t} ({'same' if ok else 'DIFFERENT'} matrix)"
        for t, ok in zip(result.twins, result.twins_match)
    )
    lines.append(f"scaled twins   : {twin_bits}")
    verdict = (
        "recovering the operator does not identify the key set"
        if result.ok
        else "demonstration FAILED"
    )
    lines.append(f"conclusion     : {verdict}")
    return "\n".join(lines)
