"""Acceptance suite: one test per exit criterion.

Every criterion is checked at its stated tolerance (exact integer
equality throughout) and within its stated wall-clock budget; each test
prints one pass/fail line (run with ``pytest -s`` to see them inline).
"""

import random
import time
from itertools import combinations
from math import gcd

from brc.attacks import (
    ambiguous_key,
    operator_matrix,
    run_cpa_experiment,
)
from brc.burnside import (
    IDENTITY,
    SO2,
    O2,
    BurnsideElement,
    D,
    KeySet,
    key_coeff,
    key_coeff_fold,
    key_element,
)
from brc.cipher import decrypt_message, encrypt_message, encrypt, ring_encode
from brc.degree import linear_iso_degree
from brc.verify import (
    verify_basic_degree,
    verify_involution,
    verify_prop_coeff,
    verify_recurrence,
    verify_table,
)


def _report(number: int, name: str, ok: bool, elapsed: float, bound: float, detail: str) -> None:
    in_budget = elapsed < bound
    status = "PASS" if ok and in_budget else "FAIL"
    print(f"[criterion {number:2d}] {status} {name}: {detail} ({elapsed:.2f}s, budget {bound:g}s)")
    assert ok, f"criterion {number} failed: {detail}"
    assert in_budget, f"criterion {number} exceeded budget: {elapsed:.2f}s >= {bound:g}s"


def _three_primes_above(limit: int) -> list[int]:
    def is_prime(n: int) -> bool:
        if n < 2:
            return False
        f = 2
        while f * f <= n:
            if n % f == 0:
                return False
            f += 1
        return True

    out, q = [], limit + 1
    while len(out) < 3:
        if is_prime(q):
            out.append(q)
        q += 1
    return out


def test_criterion_01_multiplication_table():
    result = verify_table(max_index=24)
    _report(
        1,
        "multiplication table",
        result.ok and result.cases == 26 * 26,
        result.elapsed,
        1.0,
        result.first_failure or f"{result.cases} basis pairs exact",
    )


def test_criterion_02_recurrence_oracle():
    result = verify_recurrence(max_index=24)
    _report(
        2,
        "lattice recurrence vs direct product",
        result.ok and result.cases == 26 * 26,
        result.elapsed,
        5.0,
        result.first_failure or f"{result.cases} basis pairs exact",
    )


def test_criterion_03_involution():
    result = verify_involution(
        exhaustive_index=12, exhaustive_size=3, trials=1000, trial_size=8, trial_index=100, seed=3
    )
    exhaustive = sum(
        1 for size in (1, 2, 3) for _ in combinations(range(1, 13), size)
    )
    _report(
        3,
        "key involution",
        result.ok and result.cases == exhaustive + 1000,
        result.elapsed,
        10.0,
        result.first_failure or f"{exhaustive} exhaustive + 1000 random key sets",
    )


def test_criterion_04_closed_form_coefficients():
    result = verify_prop_coeff(trials=500, max_size=8, max_index=60, seed=4)
    _report(
        4,
        "closed-form coefficients (three-way)",
        result.ok and result.cases >= 500,
        result.elapsed,
        30.0,
        result.first_failure or f"{result.cases} randomized cases exact",
    )


def test_criterion_05_support_preservation():
    rng = random.Random(5)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        length = rng.randint(1, 64)
        values = [rng.randint(0, 127) for _ in range(length)]
        s = KeySet(rng.sample(range(1, 41), rng.randint(1, 6)))
        # The paper's claim is about the ring product p*k, so it is
        # computed with the generic product, not the cipher's marks.
        product = ring_encode(values) * key_element(s)
        assert product.coeff(O2) == 0
        assert product.coeff(SO2) == 0
        assert all(k <= length for k in product.dihedral_indices())
        assert encrypt(ring_encode(values), length, key_element(s)).element == product
        checked += 1
    _report(
        5,
        "support preservation",
        checked == 1000,
        time.perf_counter() - start,
        5.0,
        f"{checked} random (plaintext, key) pairs, L <= 64",
    )


def test_criterion_06_roundtrip():
    rng = random.Random(6)
    start = time.perf_counter()
    checked = 0
    for _ in range(1000):
        length = rng.randint(1, 64)
        data = bytes(rng.randint(0, 127) for _ in range(length))
        s = KeySet(rng.sample(range(1, 41), rng.randint(1, 6)))
        assert decrypt_message(encrypt_message(data, s), s) == data
        checked += 1
    _report(
        6,
        "encrypt/decrypt roundtrip",
        checked == 1000,
        time.perf_counter() - start,
        10.0,
        f"{checked} random ASCII messages byte-exact",
    )


def test_criterion_07_key_ambiguity():
    # Exhaustive over |S| <= 2 would already take the full domain past
    # the budget in pure Python, so coverage follows the randomized
    # pattern of criterion 4: every |S| <= 2 set exhaustively, plus
    # 1000 seeded random sets from the full |S| <= 5 domain.
    start = time.perf_counter()
    comparisons = 0

    def check(s: KeySet, window: int) -> None:
        nonlocal comparisons
        base_key = key_element(s)
        base = operator_matrix(base_key, window)
        for q in _three_primes_above(window):
            twin = ambiguous_key(s, window, q)
            twin_key = key_element(twin)
            assert operator_matrix(twin_key, window) == base, (s, window, q)
            assert twin_key != base_key, (s, q)  # full elements still differ
            comparisons += 1

    for size in (1, 2):
        for combo in combinations(range(1, 21), size):
            for window in range(1, 21):
                check(KeySet(combo), window)
    exhaustive = comparisons

    rng = random.Random(7)
    for _ in range(1000):
        s = KeySet(rng.sample(range(1, 21), rng.randint(1, 5)))
        check(s, rng.randint(1, 20))

    _report(
        7,
        "key ambiguity on the window",
        comparisons == exhaustive + 3000,
        time.perf_counter() - start,
        10.0,
        f"{exhaustive} exhaustive (|S|<=2) + 3000 sampled matrix comparisons",
    )


def test_criterion_08_cpa_distinguisher():
    start = time.perf_counter()
    key_space = [
        KeySet(combo)
        for size in (1, 2, 3)
        for combo in combinations(range(1, 9), size)
    ]
    total = 0
    correct = 0
    for s0 in key_space:
        for s1 in key_space:
            if s0 == s1:
                continue
            for hidden in (0, 1):
                result, experiment = run_cpa_experiment(s0, s1, hidden)
                assert experiment.query_log == [result.probe]  # exactly one query
                total += 1
                if result.guess == hidden:
                    correct += 1
    _report(
        8,
        "one-query CPA distinguisher",
        correct == total and total == len(key_space) * (len(key_space) - 1) * 2,
        time.perf_counter() - start,
        10.0,
        f"success {correct}/{total} over all ordered pairs, both bits",
    )


def test_criterion_09_oracle_response_identities():
    rng = random.Random(9)
    start = time.perf_counter()
    checked = 0
    for _ in range(500):
        s = KeySet(rng.sample(range(1, 21), rng.randint(1, 5)))
        x = rng.randint(1, 20)
        response = BurnsideElement({D(x): 1}) * key_element(s)
        expected = BurnsideElement({D(x): 1})
        for n in range(1, s.max_index + 1):
            a = key_coeff(s, n)
            if a:
                expected = expected + BurnsideElement({D(gcd(x, n)): 2 * a})
        assert response == expected, (s, x)
        assert response.coeff(D(x)) == 1 + 2 * key_coeff_fold(s, x), (s, x)
        checked += 1
    _report(
        9,
        "probe response identities",
        checked == 500,
        time.perf_counter() - start,
        5.0,
        f"{checked} random (S, x) cases exact",
    )


def test_criterion_10_basic_degree_recurrence():
    result = verify_basic_degree(max_irrep=50)
    _report(
        10,
        "fixed-point recurrence basic degrees",
        result.ok,
        result.elapsed,
        5.0,
        result.first_failure or "m <= 50 exact incl. vanishing proper divisors",
    )


def test_criterion_11_linear_isomorphism_degree():
    rng = random.Random(11)
    start = time.perf_counter()
    checked = 0
    for _ in range(200):
        support = rng.sample(range(1, 31), rng.randint(0, 6))
        multiplicities = {k: rng.randint(0, 6) for k in support}
        odd = sorted(k for k, m in multiplicities.items() if m % 2)
        expected = key_element(odd) if odd else IDENTITY
        assert linear_iso_degree(multiplicities) == expected, multiplicities
        checked += 1
    _report(
        11,
        "linear isomorphism degree",
        checked == 200,
        time.perf_counter() - start,
        2.0,
        f"{checked} random spectra reduce mod 2",
    )
