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
every pair of a bounded key space.  What a passive attack learns is one
WindowMarks, the map of the key's non-unit marks on W_L with 0 at an x
left open: known_plaintext_solver returns it, also from a partial solve,
and run_kpa_demo and run_ambiguity_demo report it.  Those demonstrations
work on window vectors and key marks (from `brc.marks`) and never build
a key element; a WindowMarks builds dense marks and the operator matrix
only when asked, as a report does up to MAX_PRINTED_WINDOW.  Each demonstration's result
(CpaGame, CpaSweepResult, AmbiguityResult, KpaDemoResult, which holds
the AmbiguityResult it ran) renders its own `report()` and carries its
`ok` verdict.  A CpaGame pairs the attacker's CpaResult with the
referee's CpaExperiment, because its verdict needs the hidden bit.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations, count as count_from, islice, permutations
from math import gcd, isqrt
from operator import ne
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .burnside import BurnsideElement, KeySet, _check_dihedral_index, _key_fold, as_key_set, key_coeff_fold
from .limits import check_drawn_values, check_range, check_subset_cap, check_sweep_size
from .marks import MarkAction, from_divisor_sums, key_marks, window_marks

__all__ = [
    "OperatorMatrix",
    "operator_matrix",
    "ambiguous_key",
    "ambiguous_family",
    "choose_probe",
    "CpaExperiment",
    "CpaResult",
    "cpa_distinguish",
    "CpaGame",
    "run_cpa_experiment",
    "CpaSweepResult",
    "run_cpa_sweep",
    "OracleMismatchError",
    "InconsistentPairsError",
    "WindowMarks",
    "KpaResult",
    "known_plaintext_solver",
    "generic_plaintext_solver",
    "MAX_PRINTED_WINDOW",
    "AmbiguityResult",
    "run_ambiguity_demo",
    "KpaDemoResult",
    "run_kpa_demo",
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


# The demonstrations work on marks and window vectors: run_ambiguity_demo
# holds non-unit marks and run_kpa_demo O(n_pairs * L) values, and both
# accept any window up to limits.MAX_LENGTH.  Their reports print the dense
# window x window operator matrix up to this window; above it they list the
# x with eps_x = -1 instead, and no matrix is built.
MAX_PRINTED_WINDOW = 1000


@dataclass(frozen=True)
class WindowMarks:
    """The key's marks on W_L as the map {x: eps_x} of those not 1, with 0 at an x left open.

    On W_L the key acts as M = Z^-1 * diag(eps) * Z, so the marks are all
    an attack learns of it; `operator()` builds the dense eps and M.
    """

    window: int
    marks: Mapping[int, int]

    def operator(self) -> OperatorMatrix:
        return _operator_from_marks([self.marks.get(x, 1) for x in range(1, self.window + 1)])

    def lines(self, head: str) -> list[str]:
        """Report lines under `head`, whose {} names what follows: the operator
        matrix up to MAX_PRINTED_WINDOW, above it the x with eps_x = -1, if any."""
        if self.window <= MAX_PRINTED_WINDOW:
            return [head.format("matrix") + ":", _indent(self.operator().render())]
        minus = ", ".join(f"D{x}" for x in sorted(self.marks) if self.marks[x] == -1)
        marks = f"-1 at {minus}; +1 elsewhere" if minus else "+1 everywhere"
        return [f"{head.format('marks')}: {marks} (no matrix above W_{MAX_PRINTED_WINDOW})"]


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


def ambiguous_family(s: KeySet | Iterable[int], window: int, count: int) -> list[KeySet]:
    """The first `count` prime-scaled twins of `s` above the window, count <= limits.MAX_TWINS."""
    check_range("count", count)
    primes = (q for q in count_from(window + 1) if _is_prime(q))
    return [ambiguous_key(s, window, q) for q in islice(primes, count)]


def choose_probe(s0: KeySet | Iterable[int], s1: KeySet | Iterable[int]) -> int:
    """Largest index on which the candidate key sets disagree.

    Exactly one candidate holds that index and they agree above it, so
    the index divides one more index of that candidate and their marks
    there are opposite: the probe's coefficient in the reply,
    1 + 2*key_coeff_fold, is +1 under one and -1 under the other, and
    one encrypted probe separates them.
    """
    s0, s1 = as_key_set(s0), as_key_set(s1)
    diff = set(s0).symmetric_difference(s1)
    if not diff:
        raise ValueError("candidate key sets are identical")
    return max(diff)


@dataclass
class CpaExperiment:
    """Key-distinguishing game: candidates, a hidden bit, a probe oracle.

    The oracle answers only dihedral probes, the messages D(x); the
    identity class O2 is not a message, and its reply would be the key
    element itself.
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
        if type(self.hidden_bit) is not int or self.hidden_bit not in (0, 1):
            raise ValueError(f"hidden bit must be 0 or 1, got {self.hidden_bit}")

    @property
    def hidden_set(self) -> KeySet:
        return self.s1 if self.hidden_bit else self.s0

    def query_probe(self, x: int) -> BurnsideElement:
        """Encrypt the probe D(x) under the hidden key, from the probe's odd gcds.

        D(x)*(O2 - D(s)) = D(x)*(O2 - D(gcd(x, s))), and each basic degree
        is an involution, so D(x)*k_S = D(x)*k_G with G the values
        gcd(x, s), s in S, that occur an odd number of times.  Every index
        of k_G divides x, and D(x)*D(d) = 2*D(d) for d | x, so the reply is
        D(x) + 2*(k_G - O2), its coefficients twice those of key_element's
        fold over sorted G, plus D(x): neither a KeySet, a key element nor
        a ring product is built.  x is refused with the errors D(x)
        raises, and G above limits.MAX_KEY_SIZE indices, before the query
        is logged.
        """
        _check_dihedral_index(x)
        odd: set[int] = set()
        for s in self.hidden_set:
            odd ^= {gcd(x, s)}
        check_subset_cap(odd)
        self.query_log.append(x)
        # Package-internal fast path: the reply's coefficients straight from k_G's.
        reply = {d: 2 * c for d, c in _key_fold(sorted(odd)).items()}
        reply[x] = reply.get(x, 0) + 1
        return BurnsideElement._raw(reply)

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
    guess: int

    @property
    def expected1(self) -> int:
        """s1's probe coefficient: the candidates' marks at the probe are opposite."""
        return -self.expected0


def cpa_distinguish(
    s0: KeySet | Iterable[int],
    s1: KeySet | Iterable[int],
    oracle: Callable[[int], BurnsideElement],
) -> CpaResult:
    """Identify the hidden key with a single chosen-plaintext query.

    Probes at the largest index where the candidates disagree; the
    probe's own coefficient in the reply equals 1 + 2*fold for the
    hidden candidate, its mark (-1)**#{s in S : probe | s}.  The
    candidates agree above the probe and exactly one of them holds it,
    so the probe divides one more index of that candidate and their marks
    are opposite: s0's fold alone gives both expected values.
    """
    s0, s1 = as_key_set(s0), as_key_set(s1)
    probe = choose_probe(s0, s1)
    # Both caps before the fold: an oversize candidate is refused before the oracle runs.
    check_subset_cap(s0)
    check_subset_cap(s1)
    expected0 = 1 + 2 * key_coeff_fold(s0, probe)
    response = oracle(probe)
    observed = response.dihedral_coeff(probe)
    if observed == expected0:
        guess = 0
    elif observed == -expected0:
        guess = 1
    else:
        raise OracleMismatchError(
            f"probe D{probe} reply coefficient {observed} matches neither "
            f"candidate ({expected0} / {-expected0})"
        )
    return CpaResult(probe=probe, response=response, observed=observed, expected0=expected0, guess=guess)


class CpaGame(NamedTuple):
    """One played game: the attacker's result and the referee's experiment, which holds the hidden bit."""

    result: CpaResult
    experiment: CpaExperiment

    @property
    def ok(self) -> bool:
        """The guess is the hidden bit."""
        return self.result.guess == self.experiment.hidden_bit

    def report(self) -> str:
        result, experiment = self
        lines = [
            "CPA key-distinguishing attack",
            f"candidates     : S0 = {experiment.s0}, S1 = {experiment.s1}",
            f"chosen probe   : D{result.probe}",
            "oracle response:",
            _indent(result.response.render()),
            f"probe coefficient observed {result.observed}; "
            f"expected {result.expected0} for S0, {result.expected1} for S1",
            f"decision       : {result.guess}",
            f"queries        : {experiment.queries}",
            f"hidden bit     : {experiment.hidden_bit}",
            f"outcome        : {'SUCCESS' if self.ok else 'FAILURE'}",
        ]
        return "\n".join(lines)


def run_cpa_experiment(s0: KeySet | Iterable[int], s1: KeySet | Iterable[int], hidden_bit: int) -> CpaGame:
    """Play one full game in-process; the game unpacks as (result, experiment)."""
    experiment = CpaExperiment(s0=s0, s1=s1, hidden_bit=hidden_bit)
    return CpaGame(cpa_distinguish(experiment.s0, experiment.s1, experiment.query_probe), experiment)


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

    @property
    def ok(self) -> bool:
        """Every game was won."""
        return self.correct == self.games

    def report(self) -> str:
        lines = [
            f"key space      : {self.key_sets} sets (indices <= {self.max_index}, |S| <= {self.max_size})",
            f"experiments    : {self.games} (ordered pairs x both hidden bits)",
            f"success rate   : {self.correct / self.games:.6f} ({self.correct}/{self.games})",
            f"queries/game   : {self.queries / self.games:.3f}",
            "probe histogram:",
            *(f"  D{probe:<3} {games}" for probe, games in self.probes),
        ]
        return "\n".join(lines)


def run_cpa_sweep(max_index: int, max_size: int) -> CpaSweepResult:
    """Play the game for every ordered pair of distinct key sets.

    The key space holds every set of indices <= max_index with
    1 <= |S| <= max_size; each ordered pair is played with both hidden
    bits, so the sweep plays n*(n-1)*2 games on n key sets, at most
    limits.MAX_SWEEP_GAMES.  Both limits are checked before any key set is built.
    """
    check_sweep_size(max_index, max_size)
    key_space = [
        KeySet(combo)
        for size in range(1, min(max_size, max_index) + 1)
        for combo in combinations(range(1, max_index + 1), size)
    ]
    games = correct = queries = 0
    probes: Counter[int] = Counter()
    for s0, s1 in permutations(key_space, 2):
        for hidden in (0, 1):
            game = run_cpa_experiment(s0, s1, hidden)
            games += 1
            correct += game.ok
            queries += game.experiment.queries
            probes[game.result.probe] += 1
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

    `undetermined` lists the window indices the pairs leave open, one per
    missing unit of rank: the marks eps_x no pair pins down for
    known_plaintext_solver, which returns every mark it read in `marks`,
    and the free columns of the elimination for generic_plaintext_solver,
    which returns no marks and, at full rank, the matrix it `eliminated`.
    """

    window: int
    pairs_used: int
    undetermined: tuple[int, ...]
    marks: WindowMarks | None = None
    eliminated: OperatorMatrix | None = None

    @property
    def rank(self) -> int:
        return self.window - len(self.undetermined)

    @property
    def determined(self) -> bool:
        return not self.undetermined

    @cached_property
    def matrix(self) -> OperatorMatrix | None:
        """The recovered operator on W_L, None while undetermined; built from the marks on first access."""
        return self.eliminated if self.marks is None or self.undetermined else self.marks.operator()


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
    some stay open the result is undetermined, names them, and keeps the
    marks it did read, 0 at each open x.  A pair holds two window vectors
    of length L (ValueError otherwise); `cipher.ring_decode` turns a
    window element into one.
    Every pair goes through one loop.  It walks the x still open, where
    every earlier pair had F_x = G_x = 0, summing both vectors only
    there (above L/2 the sums are the entries at x), and reads each mark
    it can.  When some mark was known before the pair, the pair must then
    equal, element by element, its plaintext's image under a MarkAction
    of the marks read so far, built again only after a pair reads a
    mark.  So the first pair costs O(L log L) and builds no action; a
    later one costs L/x per open x plus O(L + sum_{x in N} (L/x +
    2**omega(x))) per vector, N the x of a mark other than 1.  The
    result's `matrix` view costs O(L^2 log L) on first access.
    """
    _check_solver_input(pairs, window)
    # The marks read that are not 1; an open x, where every pair so far has
    # F_x = G_x = 0, has mark 1, so a pair equals its image exactly when G = eps * F.
    marks: dict[int, int] = {}
    # The x still open, 0-based and ascending.
    open_x: Sequence[int] = range(window)
    action = None
    half = window // 2
    for p, c in pairs:
        still_open = []
        for x in open_x:
            f, g = (sum(p[x :: x + 1]), sum(c[x :: x + 1])) if x < half else (p[x], c[x])
            if f and not g % f:
                if g != f:
                    marks[x + 1] = g // f
            elif f or g:
                raise _first_inconsistency(marks, open_x, p, c)
            else:
                still_open.append(x)
        # With every x open before the pair, the walk above checked them all.
        if len(open_x) < window:
            if action is None or len(still_open) < len(open_x):
                action = MarkAction(marks, window)
            if any(map(ne, action(p), c)):
                raise _first_inconsistency(marks, open_x, p, c)
        open_x = still_open
    for x in open_x:
        marks[x + 1] = 0
    return KpaResult(
        window=window,
        pairs_used=len(pairs),
        undetermined=tuple(x + 1 for x in open_x),
        marks=WindowMarks(window, marks),
    )


def _first_inconsistency(
    marks: Mapping[int, int], open_x: Iterable[int], p: Sequence[int], c: Sequence[int]
) -> InconsistentPairsError:
    # The error of a pair that failed the check, found by walking x upwards
    # with the same direct sums: a mark open before the pair (`open_x`,
    # ascending) must be an integer where the pair reads it, and every other
    # x must keep G_x = eps_x * F_x with the marks read before the pair.
    opens = iter(open_x)
    next_open = next(opens, None)
    for x in range(len(p)):
        f = sum(p[x :: x + 1])
        g = sum(c[x :: x + 1])
        is_open = x == next_open
        if is_open:
            next_open = next(opens, None)
        if is_open and f:
            if g % f:
                return InconsistentPairsError(
                    f"mark at D{x + 1} is {g}/{f}, not an integer; pairs are "
                    "not generated by an integer operator"
                )
        elif g != marks.get(x + 1, 1) * f:
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
    pairs.  Its results carry no marks: the eliminated matrix is both
    `eliminated` and the result's `matrix`.
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

    if len(pivot_cols) < window:
        free = tuple(col + 1 for col in range(window) if col not in pivot_cols)
        return KpaResult(window=window, pairs_used=n_rows, undetermined=free)

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
    eliminated = OperatorMatrix(window=window, rows=tuple(tuple(r) for r in entries))
    return KpaResult(window=window, pairs_used=n_rows, undetermined=(), eliminated=eliminated)


@dataclass(frozen=True)
class AmbiguityResult:
    """Prime-scaled twins and their window-operator comparison, from the base key's marks."""

    base: KeySet
    marks: WindowMarks
    twins: tuple[tuple[int, KeySet], ...]
    matrices_equal: tuple[bool, ...]
    elements_differ: tuple[bool, ...]

    @property
    def ok(self) -> bool:
        """Every twin acts as the base key on the window and has another key element."""
        return all(self.matrices_equal) and all(self.elements_differ)

    def report(self) -> str:
        lines = [f"Key ambiguity on the window W_{self.marks.window}", f"base key set   : {self.base}"]
        for (q, twin), m_eq, e_diff in zip(self.twins, self.matrices_equal, self.elements_differ):
            lines.append(
                f"twin q={q:<6}: {twin}  matrix equal: {'yes' if m_eq else 'NO'}  "
                f"key element differs: {'yes' if e_diff else 'NO'}"
            )
        lines.extend(self.marks.lines("operator {} on the window"))
        verdict = "matrices identical; key set not identifiable from this window" if self.ok else "demonstration FAILED"
        lines.append(f"conclusion     : {verdict}")
        return "\n".join(lines)


def run_ambiguity_demo(
    s: KeySet | Iterable[int], window: int, count: int
) -> AmbiguityResult:
    """Exhibit `count` distinct key sets acting identically on the window.

    The window and the count must lie in their ranges of limits.RANGES,
    both checked before any mark is computed.

    Uses key sets and their marks only, never a key element, so the cost
    does not grow as 2**|S|.  Z is invertible, so twins are compared by their
    marks at D(1)..D(window).  Distinct key sets have distinct elements:
    at x = max(S ^ T) the counts #{s : x | s} differ by one, so the marks
    at D(x) have opposite signs; hence `elements_differ` is t != s.
    """
    s = as_key_set(s)
    check_range("window", window)
    twins = tuple((t[0] // s[0], t) for t in ambiguous_family(s, window, count))
    marks = key_marks(s, window)
    return AmbiguityResult(
        base=s,
        marks=WindowMarks(window, marks),
        twins=twins,
        matrices_equal=tuple(key_marks(t, window) == marks for _, t in twins),
        elements_differ=tuple(t != s for _, t in twins),
    )


@dataclass(frozen=True)
class KpaDemoResult:
    """Seeded known-plaintext run against the hidden key of `ambiguity`, the demonstration it ran."""

    ambiguity: AmbiguityResult
    seed: int
    solver: KpaResult
    matches_true_operator: bool | None

    @property
    def twins(self) -> tuple[KeySet, ...]:
        return tuple(twin for _, twin in self.ambiguity.twins)

    @property
    def twins_match(self) -> tuple[bool, ...]:
        return self.ambiguity.matrices_equal

    @property
    def ok(self) -> bool:
        """No recovered matrix disagrees with the key's, and every twin's matches."""
        return self.matches_true_operator is not False and all(self.twins_match)

    def report(self) -> str:
        solver = self.solver
        lines = [
            f"Known-plaintext attack on the window W_{solver.window}",
            f"hidden key set : {self.ambiguity.base}",
            f"seed           : {self.seed}",
            f"pairs used     : {solver.pairs_used}",
            f"system rank    : {solver.rank} / {solver.window}",
        ]
        if solver.determined:
            lines.append("operator fully determined: yes")
            lines.append(f"matches hidden key's operator: {'yes' if self.matches_true_operator else 'NO'}")
            lines.extend(solver.marks.lines("recovered {}"))
        else:
            lines.append("operator fully determined: no (underdetermined system)")
            lines.append(f"open marks     : {', '.join(f'D{x}' for x in solver.undetermined)}")
        twin_bits = ", ".join(
            f"{t} ({'same' if same else 'DIFFERENT'} matrix)" for t, same in zip(self.twins, self.twins_match)
        )
        lines.append(f"scaled twins   : {twin_bits}")
        verdict = "recovering the operator does not identify the key set" if self.ok else "demonstration FAILED"
        lines.append(f"conclusion     : {verdict}")
        return "\n".join(lines)


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
    the mark product of its plaintext vector with the key's non-unit
    marks, by one MarkAction built for all of them; no key element is
    built.  The recovered marks are compared with the key's, which is
    exact because Z is invertible, and no operator matrix is built here.
    The window and the pairs are checked against limits.RANGES and
    limits.check_drawn_values before any work.  Memory stays
    O(n_pairs * window); the README's Limits table gives the cost at the cap.
    """
    key_set = as_key_set(key_set)
    check_range("window", window)
    check_drawn_values(n_pairs, window)
    ambiguity = run_ambiguity_demo(key_set, window, 3)
    drawn = _draw_plaintext_values(random.Random(seed), n_pairs * window)
    action = MarkAction(ambiguity.marks.marks, window)
    pairs = []
    for start in range(0, n_pairs * window, window):
        values = list(drawn[start : start + window])
        if not any(values):
            values = [1] + [0] * (window - 1)
        pairs.append((values, action(values)))
    solver = known_plaintext_solver(pairs, window)
    matches = solver.marks == ambiguity.marks if solver.determined else None
    return KpaDemoResult(ambiguity=ambiguity, seed=seed, solver=solver, matches_true_operator=matches)


def _indent(text: str, pad: str = "    ") -> str:
    return "\n".join(pad + line for line in text.splitlines())

