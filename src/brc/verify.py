"""Named oracle-equivalence suites behind the CLI `verify` subcommand.

Each suite replays one family of ring identities over a bounded range
and reports case/failure counts plus the first counterexample, so a
failure pinpoints which piece of machinery (multiplication rules,
lattice fixture, closed-form coefficients, fixed-point recurrence)
has drifted.  A suite's parameters are exactly the `brc verify`
options it takes, so `SUITES` is the one table `run_suite` reads.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from inspect import signature
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
from .limits import RANGES, check_range

__all__ = [
    "SuiteResult",
    "verify_table",
    "verify_recurrence",
    "verify_involution",
    "verify_prop_coeff",
    "verify_basic_degree",
    "SUITES",
    "run_suite",
]


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

    def report(self) -> str:
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


def _unit_pairs(max_index: int) -> Iterator[tuple[Generator, Generator, BurnsideElement]]:
    # Each ordered pair of basis classes and the product of their one-term elements.
    gens = [D(k) for k in range(1, max_index + 1)] + [SO2, O2]
    units = {g: BurnsideElement({g: 1}) for g in gens}
    for g, unit_g in units.items():
        for h, unit_h in units.items():
            yield g, h, unit_g * unit_h


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
    check_range("max_index", max_index)

    def cases() -> Iterator[str | None]:
        for g, h, got in _unit_pairs(max_index):
            want = _expected_product(g, h)
            yield None if got == want else f"{g.label}*{h.label}: got {got}, want {want}"

    return _run("table", cases())


def verify_recurrence(max_index: int = 24) -> SuiteResult:
    """Lattice-recurrence product against the direct product."""
    check_range("max_index", max_index)

    def cases() -> Iterator[str | None]:
        lattice = o2_lattice(max_index)
        for g, h, direct in _unit_pairs(max_index):
            recur = recurrence_mul(g, h, lattice)
            yield None if direct == recur else f"{g.label}*{h.label}: direct {direct}, recurrence {recur}"

    return _run("recurrence", cases())


# Fixed case shapes: (most indices, largest index) of the key sets checked.
_EXHAUSTIVE_KEYS = (3, 12)
_INVOLUTION_KEYS = (8, 100)
_PROP_COEFF_KEYS = (8, 60)


def _random_key_set(rng: random.Random, max_size: int, max_index: int) -> KeySet:
    size = rng.randint(1, max_size)
    return KeySet(rng.sample(range(1, max_index + 1), size))


def verify_involution(trials: int = 1000, seed: int = 0) -> SuiteResult:
    """key * key == identity, exhaustively small plus random large."""
    check_range("trials", trials)

    def cases() -> Iterator[str | None]:
        most, largest = _EXHAUSTIVE_KEYS
        for size in range(1, most + 1):
            for combo in combinations(range(1, largest + 1), size):
                k = key_element(combo)
                yield None if k * k == IDENTITY else f"S={set(combo)}: square is not the identity"
        rng = random.Random(seed)
        for _ in range(trials):
            s = _random_key_set(rng, *_INVOLUTION_KEYS)
            k = key_element(s)
            yield None if k * k == IDENTITY else f"S={s}: square is not the identity"

    return _run("involution", cases())


def verify_prop_coeff(trials: int = 500, seed: int = 0) -> SuiteResult:
    """Three independent algorithms for one key coefficient agree.

    key_coeff enumerates subsets, key_coeff_mobius inverts the key's
    marks over the divisor lattice, and key_element folds the factors by
    int index; the case fails unless all three give the same coefficient.
    """
    check_range("trials", trials)

    def cases() -> Iterator[str | None]:
        most, largest = _PROP_COEFF_KEYS
        rng = random.Random(seed)
        for trial in range(trials):
            s = _random_key_set(rng, most, largest)
            # Alternate arbitrary indices with members of S so the odd
            # (membership) branch is exercised as often as the even one.
            if trial % 2:
                s0 = rng.choice(s)
            else:
                s0 = rng.randint(1, largest)
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
    check_range("max_irrep", max_irrep)

    def cases() -> Iterator[str | None]:
        lattice = o2_lattice(max_irrep)
        dims = fixed_point_dims(max_irrep)
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


def run_suite(name: str, **options) -> list[SuiteResult]:
    """Run one named suite, or every suite for name == 'all'.

    An option set to None keeps the suite's default; every other value,
    0 included, is passed to the suites whose parameters name it.  An
    option that no suite takes, one given to a named suite that does not
    take it, and every given option's range are checked before the first
    suite runs.
    """
    if name != "all" and name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    taken = {single: signature(suite).parameters for single, suite in SUITES.items()}
    for option, value in options.items():
        if not any(option in params for params in taken.values()):
            raise ValueError(f"unknown option {option!r}")
        if name != "all" and value is not None and option not in taken[name]:
            raise ValueError(f"suite {name!r} does not take option {option!r}")
    for option in RANGES:
        if options.get(option) is not None:
            check_range(option, options[option])
    names = SUITES if name == "all" else [name]
    return [
        SUITES[single](**{k: v for k, v in options.items() if v is not None and k in taken[single]})
        for single in names
    ]
