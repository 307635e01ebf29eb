"""Named oracle-equivalence suites behind the CLI `verify` subcommand.

Each suite replays one family of ring identities over a bounded range
and reports case/failure counts plus the first counterexample, so a
failure pinpoints which piece of machinery (multiplication rules,
lattice fixture, closed-form coefficients, fixed-point recurrence)
has drifted.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from itertools import combinations
from math import gcd
from typing import Callable, Iterator

from .burnside import (
    IDENTITY,
    O2,
    SO2,
    BurnsideElement,
    D,
    Generator,
    KeySet,
    basic_degree,
    key_coeff,
    key_coeff_mobius,
    key_element,
)
from .degree import basic_degree_recurrence, fixed_point_dims, o2_lattice, recurrence_mul

__all__ = [
    "MAX_TABLE_INDEX",
    "MAX_TRIALS",
    "MAX_IRREP",
    "SuiteResult",
    "verify_table",
    "verify_recurrence",
    "verify_involution",
    "verify_prop_coeff",
    "verify_basic_degree",
    "SUITES",
    "run_suite",
]


# Upper bounds on the ranges a caller may ask for, checked before any case
# runs.  At each cap, `brc verify` takes (2-vCPU VM, wall time, max RSS):
# recurrence 2.5 s and table 0.5 s at --max-index 200 (the cost grows as
# N**3 and N**2); prop-coeff 2.5 s and involution 2.1 s at --trials 100000;
# rf1 0.9 s and 18 MB at --max-irrep 800 (time grows as N**2; the lattice
# holds about N ln N counts).
MAX_TABLE_INDEX = 200
MAX_TRIALS = 100_000
MAX_IRREP = 800

# Each option's inclusive range.  0 trials leaves only the exhaustive
# cases, if the suite has any.
_RANGES = {"max_index": (1, MAX_TABLE_INDEX), "trials": (0, MAX_TRIALS), "max_irrep": (1, MAX_IRREP)}


def _check_range(option: str, value: int) -> None:
    low, high = _RANGES[option]
    if value < low:
        raise ValueError(f"{option} must be >= {low}, got {value}")
    if value > high:
        raise ValueError(f"{option} must be <= {high}, got {value}")


@dataclass(frozen=True)
class SuiteResult:
    name: str
    cases: int
    failures: int
    first_failure: str | None
    elapsed: float

    @property
    def ok(self) -> bool:
        return self.failures == 0

    def summary(self) -> str:
        state = "PASS" if self.ok else "FAIL"
        line = f"{self.name:<12} {state}  cases={self.cases} failures={self.failures} ({self.elapsed:.2f}s)"
        if self.first_failure:
            line += f"\n    first counterexample: {self.first_failure}"
        return line


def _run(name: str, cases: Iterator[str | None]) -> SuiteResult:
    """Count a suite's cases; each yields None or its counterexample text."""
    start = time.perf_counter()
    total = 0
    failures = 0
    first: str | None = None
    for failure in cases:
        total += 1
        if failure is not None:
            failures += 1
            if first is None:
                first = failure
    return SuiteResult(
        name=name,
        cases=total,
        failures=failures,
        first_failure=first,
        elapsed=time.perf_counter() - start,
    )


def _units(max_index: int) -> dict[Generator, BurnsideElement]:
    # Each basis class as a one-term element, built once per generator.
    gens = [D(k) for k in range(1, max_index + 1)] + [SO2, O2]
    return {g: BurnsideElement({g: 1}) for g in gens}


def _expected_product(g: Generator, h: Generator) -> BurnsideElement:
    # Literal multiplication-table entry for a pair of basis classes.
    if g == O2:
        return BurnsideElement({h: 1})
    if h == O2:
        return BurnsideElement({g: 1})
    if g == SO2 and h == SO2:
        return BurnsideElement({SO2: 2})
    if g == SO2 or h == SO2:
        return BurnsideElement({})
    return BurnsideElement({D(gcd(g.index, h.index)): 2})


def verify_table(max_index: int = 24) -> SuiteResult:
    """Ring product against the literal table entry, all basis pairs."""
    _check_range("max_index", max_index)

    def cases() -> Iterator[str | None]:
        units = _units(max_index)
        for g, unit_g in units.items():
            for h, unit_h in units.items():
                got = unit_g * unit_h
                want = _expected_product(g, h)
                yield None if got == want else f"{g.label}*{h.label}: got {got}, want {want}"

    return _run("table", cases())


def verify_recurrence(max_index: int = 24) -> SuiteResult:
    """Lattice-recurrence product against the direct product."""
    _check_range("max_index", max_index)

    def cases() -> Iterator[str | None]:
        lattice = o2_lattice(max_index)
        units = _units(max_index)
        for g, unit_g in units.items():
            for h, unit_h in units.items():
                direct = unit_g * unit_h
                recur = recurrence_mul(g, h, lattice)
                yield None if direct == recur else f"{g.label}*{h.label}: direct {direct}, recurrence {recur}"

    return _run("recurrence", cases())


def _random_key_set(rng: random.Random, max_size: int, max_index: int) -> KeySet:
    size = rng.randint(1, max_size)
    return KeySet(rng.sample(range(1, max_index + 1), size))


def verify_involution(
    exhaustive_index: int = 12,
    exhaustive_size: int = 3,
    trials: int = 1000,
    trial_size: int = 8,
    trial_index: int = 100,
    seed: int = 0,
) -> SuiteResult:
    """key * key == identity, exhaustively small plus random large."""
    _check_range("trials", trials)

    def cases() -> Iterator[str | None]:
        for size in range(1, exhaustive_size + 1):
            for combo in combinations(range(1, exhaustive_index + 1), size):
                k = key_element(combo)
                yield None if k * k == IDENTITY else f"S={set(combo)}: square is not the identity"
        rng = random.Random(seed)
        for _ in range(trials):
            s = _random_key_set(rng, trial_size, trial_index)
            k = key_element(s)
            yield None if k * k == IDENTITY else f"S={s}: square is not the identity"

    return _run("involution", cases())


def verify_prop_coeff(
    trials: int = 500, max_size: int = 8, max_index: int = 60, seed: int = 0
) -> SuiteResult:
    """Three independent algorithms for one key coefficient agree.

    key_coeff enumerates subsets, key_coeff_mobius inverts the key's
    marks over the divisor lattice, and key_element folds the factors by
    int index; the case fails unless all three give the same coefficient.
    """
    _check_range("trials", trials)

    def cases() -> Iterator[str | None]:
        rng = random.Random(seed)
        for trial in range(trials):
            s = _random_key_set(rng, max_size, max_index)
            # Alternate arbitrary indices with members of S so the odd
            # (membership) branch is exercised as often as the even one.
            if trial % 2:
                s0 = rng.choice(s.indices)
            else:
                s0 = rng.randint(1, max_index)
            closed = key_coeff(s, s0)
            mobius = key_coeff_mobius(s, s0)
            element = key_element(s).dihedral_coeff(s0)
            yield None if closed == mobius == element else (
                f"S={s}, s0={s0}: closed {closed}, mobius {mobius}, element {element}"
            )

    return _run("prop-coeff", cases())


def verify_basic_degree(max_irrep: int = 50) -> SuiteResult:
    """Fixed-point recurrence against the closed basic degree, m <= bound.

    Checks full equality and, separately, that the recurrence leaves no
    residue at proper divisors of m.
    """
    _check_range("max_irrep", max_irrep)

    def cases() -> Iterator[str | None]:
        lattice = o2_lattice(max_irrep)
        dims = fixed_point_dims(max_irrep, max_irrep)
        for m in range(0, max_irrep + 1):
            got = basic_degree_recurrence(m, lattice, dims)
            want = basic_degree(m)
            yield None if got == want else f"m={m}: recurrence {got}, direct {want}"
            for k in range(1, m):
                if m % k == 0:
                    coeff = got.dihedral_coeff(k)
                    yield None if coeff == 0 else f"m={m}: nonzero coefficient {coeff} at proper divisor D{k}"

    return _run("rf1", cases())


SUITES: dict[str, Callable[..., SuiteResult]] = {
    "table": verify_table,
    "recurrence": verify_recurrence,
    "involution": verify_involution,
    "prop-coeff": verify_prop_coeff,
    "rf1": verify_basic_degree,
}

# The run_suite options each suite takes.
_SUITE_OPTIONS: dict[str, tuple[str, ...]] = {
    "table": ("max_index",),
    "recurrence": ("max_index",),
    "involution": ("trials", "seed"),
    "prop-coeff": ("trials", "seed"),
    "rf1": ("max_irrep",),
}


def run_suite(name: str, **options) -> list[SuiteResult]:
    """Run one named suite, or every suite for name == 'all'.

    An option set to None keeps the suite's default; every other value,
    0 included, is passed to the suites that take it.  An option that
    no suite takes and every given option's range are checked before
    the first suite runs.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    for option in options:
        if not any(option in taken for taken in _SUITE_OPTIONS.values()):
            raise ValueError(f"unknown option {option!r}")
    for option in _RANGES:
        if options.get(option) is not None:
            _check_range(option, options[option])
    names = SUITES if name == "all" else [name]
    return [
        SUITES[single](**{k: options[k] for k in _SUITE_OPTIONS[single] if options.get(k) is not None})
        for single in names
    ]
