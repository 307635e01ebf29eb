import tracemalloc
from math import isqrt, lcm

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from brc import cipher, limits, marks
from brc.attacks import run_kpa_demo
from brc.burnside import KeySet, key_element
from brc.marks import MarkAction, _divisors_upto, key_marks, window_marks

_MAX_INDEX = 10**limits.MAX_INDEX_DIGITS - 1
_SMALL = 4096


def _lcm_multiples(k):
    # lcm(1..k) * m: many divisors on every window.
    base = lcm(*range(1, k + 1))
    return st.integers(1, _MAX_INDEX // base).map(base.__mul__)


def _prime_powers_times_small(p):
    # p**e * m, m <= _SMALL: one prime repeated up to the digit cap.
    e = 1
    while p ** (e + 1) * _SMALL <= _MAX_INDEX:
        e += 1
    return st.builds(lambda e, m: p**e * m, st.integers(1, e), st.integers(1, _SMALL))


indices = st.one_of(
    st.integers(1, _MAX_INDEX),
    st.integers(1, 5 * _SMALL),
    st.integers(1, 60).flatmap(_lcm_multiples),
    st.sampled_from([2, 3, 5, 7, 11, 1021, 4093]).flatmap(_prime_powers_times_small),
)
windows = st.integers(1, _SMALL)


def _direct_marks(s, length):
    return [(-1) ** sum(i % x == 0 for i in s) for x in range(1, length + 1)]


def _minus_set(eps):
    # The map {x: -1} of the x whose dense mark eps[x-1] is -1.
    return {x: -1 for x, m in enumerate(eps, 1) if m == -1}


@given(st.sets(indices, min_size=1, max_size=limits.MAX_KEY_SIZE).map(KeySet), windows)
@example(KeySet([6, 10, 15]), 0)
@example(KeySet([lcm(*range(1, 61)) * 73 * (146 + 7 * j) for j in range(limits.MAX_KEY_SIZE)]), _SMALL)
@example(KeySet([4093 * 4091, 4093**2, 2**99]), _SMALL)
def test_key_marks_equal_the_mark_definition(s, length):
    # Exactly the -1 set of the definition, indices above the window
    # included, ascending, and no mark of 1 stored.
    sparse = key_marks(s, length)
    assert sparse == _minus_set(_direct_marks(s, length))
    assert list(sparse) == sorted(sparse)
    assert 1 not in sparse.values()


@given(indices, st.integers(0, _SMALL))
@example(1, 0)
@example(1, 1)
@example(4093 * 4091, _SMALL)  # the cofactor 4093 above sqrt(n) is one more prime
@example(2 * 4093, 4093)  # ... also at the window's edge
@example(2**99, _SMALL)
def test_divisors_upto_are_the_divisors_up_to_the_limit(n, limit):
    assert sorted(_divisors_upto(n, limit)) == [d for d in range(1, limit + 1) if n % d == 0]


@given(st.sets(indices, min_size=1, max_size=6).map(KeySet), st.integers(0, _SMALL))
def test_window_marks_of_the_key_element_are_its_key_marks(s, length):
    dense = window_marks(key_element(s), length)
    assert set(dense) <= {1, -1}
    assert _minus_set(dense) == key_marks(s, length)


def test_prime_table_holds_the_primes_and_a_prime_factor_of_each_composite():
    factor, primes = marks._sieve(5000)
    want = [n for n in range(2, 5001) if all(n % d for d in range(2, isqrt(n) + 1))]
    assert list(primes) == want
    assert [n for n in range(5001) if not factor[n]] == [0, 1, *want]
    assert all(n % factor[n] == 0 and factor[n] in want for n in range(4, 5001) if factor[n])


def test_prime_table_is_built_at_most_once_per_encrypt_and_per_kpa_demo(monkeypatch):
    builds = []
    sieve = marks._sieve
    monkeypatch.setattr(marks, "_table", sieve(0))
    monkeypatch.setattr(marks, "_sieve", lambda bound: builds.append(bound) or sieve(bound))
    # A cold table is built once for the window, and the action reads it.
    key = KeySet([6, 10, 15, lcm(*range(1, 31)) * 7])
    message = bytes(range(32, 127)) * 50
    ciphertext = cipher.encrypt(message, key)
    assert builds == [len(message)]
    # The same window again, and a smaller one, build nothing.
    assert cipher.decrypt(ciphertext, key) == message
    assert run_kpa_demo(key, 60, 2, seed=0).ok
    assert builds == [len(message)]
    # A larger window: one build for the demo, its twins and both actions.
    assert run_kpa_demo([2, 3, 7, 12, 30], 6000, 2, seed=0).ok
    assert builds == [len(message), 6000]


def test_prime_table_refuses_a_bound_above_max_length_before_any_allocation(monkeypatch):
    top = limits.MAX_LENGTH
    bounds = []

    def record(bound):
        # A stand-in table of the bound's length, with nothing allocated.
        bounds.append(bound)
        return range(bound + 1), range(0)

    monkeypatch.setattr(marks, "_table", marks._sieve(0))
    monkeypatch.setattr(marks, "_sieve", record)
    above = {top + 1: -1}
    calls = [
        lambda: marks._prime_table(top + 1),
        lambda: _divisors_upto(6, top + 1),
        lambda: key_marks([2, 3], top + 1),
        lambda: MarkAction(above, top + 1),
    ]
    for call in calls:
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^prime table bound {top + 1} is above the limit {top}$"):
                call()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 14
    assert bounds == []
    # The bound is inclusive.
    assert len(marks._prime_table(top)[0]) == top + 1
    assert bounds == [top]
