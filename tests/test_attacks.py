import random
import re
import sys
import tracemalloc
from dataclasses import replace

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from brc.attacks import (
    CpaExperiment,
    CpaGame,
    CpaResult,
    InconsistentPairsError,
    OperatorMatrix,
    OracleMismatchError,
    WindowMarks,
    ambiguous_family,
    ambiguous_key,
    choose_probe,
    cpa_distinguish,
    generic_plaintext_solver,
    known_plaintext_solver,
    operator_matrix,
    run_ambiguity_demo,
    run_cpa_experiment,
    run_cpa_sweep,
    run_kpa_demo,
)
from brc.burnside import (
    IDENTITY,
    ZERO,
    BurnsideElement,
    D,
    KeySet,
    MarkAction,
    divisor_sums,
    key_coeff,
    key_coeff_fold,
    key_element,
    key_marks,
)
from brc import attacks, burnside, cipher, limits
from brc.cipher import ring_decode, ring_encode
from strategies import elements, key_sets, unit_multipliers

from math import gcd, lcm, prod


# ------------------------------------------------------------ operator matrix


def test_operator_matrix_single_index_key():
    m = operator_matrix(key_element([2]), 2)
    assert m.rows == ((-1, 0), (0, -1))


def test_operator_matrix_identity_key():
    m = operator_matrix(IDENTITY, 4)
    assert m.rows == tuple(
        tuple(1 if i == j else 0 for i in range(4)) for j in range(4)
    )


def test_operator_matrix_composite_key():
    # columns are D(i) * (O2 + 2*D1 - D2 - D3), expanded term by term
    m = operator_matrix(key_element([2, 3]), 3)
    assert m.column(1) == (1, 0, 0)
    assert m.column(2) == (2, -1, 0)
    assert m.column(3) == (2, 0, -1)
    assert m.rows[0][2] == 2
    assert m.rows[2][2] == -1


def test_operator_matrix_diagonal_reads_folded_coeffs():
    s = KeySet([2, 3, 5])
    m = operator_matrix(key_element(s), 12)
    for i, entry in enumerate(m.diagonal(), start=1):
        assert entry == 1 + 2 * key_coeff_fold(s, i)


@given(
    st.one_of(
        key_sets(max_size=6, max_index=1000).map(key_element),
        unit_multipliers(),
        elements(max_index=1000),
    ),
    st.integers(1, 60),
)
def test_operator_matrix_equals_ring_product_columns(k, window):
    # Reference: column i is D(i) * k through the generic ring product.
    columns = [ring_decode(BurnsideElement({D(i): 1}) * k, window) for i in range(1, window + 1)]
    assert operator_matrix(k, window).rows == tuple(zip(*columns))


def test_operator_matrix_rejects_bad_window():
    with pytest.raises(ValueError):
        operator_matrix(IDENTITY, 0)


def test_operator_matrix_shape_validated():
    with pytest.raises(ValueError):
        OperatorMatrix(window=2, rows=((1,),))


# ------------------------------------------------------------- ambiguous keys


def test_ambiguous_key_scales_indices():
    assert ambiguous_key(KeySet([2]), 3, 5) == KeySet([10])
    assert ambiguous_key(KeySet([2, 3]), 5, 7) == KeySet([14, 21])


def test_ambiguous_key_matrices_match():
    base = operator_matrix(key_element([2]), 3)
    twin = operator_matrix(key_element(ambiguous_key(KeySet([2]), 3, 5)), 3)
    assert base == twin


def test_ambiguous_key_rejects_small_prime():
    with pytest.raises(ValueError):
        ambiguous_key(KeySet([2]), 3, 3)


def test_ambiguous_key_rejects_composite():
    with pytest.raises(ValueError):
        ambiguous_key(KeySet([2]), 3, 9)


def test_ambiguous_family_first_primes():
    assert ambiguous_family(KeySet([2]), 3, 2) == [KeySet([10]), KeySet([14])]
    assert ambiguous_family(KeySet([3]), 2, 1) == [KeySet([9])]


def test_ambiguous_family_count_cap(monkeypatch):
    assert len(ambiguous_family(KeySet([2]), 3, limits.MAX_TWINS)) == limits.MAX_TWINS

    def refuse(q):
        raise AssertionError("prime search ran for a count above the cap")

    # Refused before any prime search, so a huge count costs nothing.
    monkeypatch.setattr(attacks, "_is_prime", refuse)
    for count in (limits.MAX_TWINS + 1, 10**9):
        with pytest.raises(ValueError, match=f"count must be <= {limits.MAX_TWINS}"):
            ambiguous_family(KeySet([2]), 3, count)


def test_ambiguous_family_rejects_zero_count():
    with pytest.raises(ValueError):
        ambiguous_family(KeySet([2]), 3, 0)


def test_ambiguous_family_distinct_and_operator_equal():
    s = KeySet([2, 5])
    window = 6
    family = ambiguous_family(s, window, 4)
    assert len(set(family)) == 4
    base_matrix = operator_matrix(key_element(s), window)
    base_key = key_element(s)
    for twin in family:
        assert twin != s
        assert key_element(twin) != base_key  # full elements differ
        assert operator_matrix(key_element(twin), window) == base_matrix


# ------------------------------------------------------------------ CPA game


def test_choose_probe_examples():
    assert choose_probe(KeySet([2]), KeySet([3])) == 3
    assert choose_probe(KeySet([2, 3]), KeySet([2, 5])) == 5


def test_choose_probe_rejects_equal_sets():
    with pytest.raises(ValueError):
        choose_probe(KeySet([2]), KeySet([2]))


def test_cpa_distinguish_hidden_zero():
    result, experiment = run_cpa_experiment(KeySet([2]), KeySet([3]), hidden_bit=0)
    assert result.probe == 3
    assert result.response == BurnsideElement({D(3): 1, D(1): -2})
    assert result.observed == 1
    assert result.guess == 0
    assert experiment.query_log == [3]


def test_cpa_distinguish_hidden_one():
    result, experiment = run_cpa_experiment(KeySet([2]), KeySet([3]), hidden_bit=1)
    assert result.probe == 3
    assert result.response == BurnsideElement({D(3): -1})
    assert result.observed == -1 == 1 + 2 * key_coeff_fold(KeySet([3]), 3)
    assert result.guess == 1
    assert experiment.queries == 1


@pytest.mark.parametrize("hidden_bit", [0, 1])
def test_cpa_game_is_ok_exactly_when_the_guess_is_the_hidden_bit(hidden_bit):
    game = run_cpa_experiment(KeySet([2]), KeySet([3]), hidden_bit)
    assert isinstance(game, CpaGame)
    assert game.ok and game.result.guess == hidden_bit
    flipped = game._replace(result=replace(game.result, guess=1 - hidden_bit))
    assert not flipped.ok
    assert flipped.report().endswith("outcome        : FAILURE")


def test_run_cpa_experiment_unpacks_into_result_and_experiment():
    result, experiment = run_cpa_experiment(KeySet([2]), KeySet([3]), 1)
    assert isinstance(result, CpaResult) and isinstance(experiment, CpaExperiment)
    assert (result, experiment) == run_cpa_experiment(KeySet([2]), KeySet([3]), 1)


def test_cpa_distinguish_overlapping_sets():
    result, _ = run_cpa_experiment(KeySet([2, 3]), KeySet([2]), hidden_bit=0)
    assert result.probe == 3
    assert result.observed == -1 == 1 + 2 * key_coeff_fold(KeySet([2, 3]), 3)
    assert result.guess == 0


def test_cpa_cap_raises_before_the_oracle(monkeypatch):
    # The subset cap rejects 21-index candidates before the oracle folds
    # its reply.
    def refuse(*args):
        raise AssertionError("reply fold run")

    monkeypatch.setattr(attacks, "_key_fold", refuse)
    with pytest.raises(ValueError, match="^key set has 21 indices, above the limit 20$"):
        run_cpa_experiment(KeySet(range(1, 22)), KeySet([*range(1, 21), 22]), hidden_bit=0)


@pytest.mark.parametrize(
    "s0, s1, size",
    [
        (KeySet(range(1, 22)), KeySet([2, 3]), 21),
        (KeySet([2, 3]), KeySet(range(1, 22)), 21),
        # Both above the cap: s0 is checked first.
        (KeySet(range(1, 23)), KeySet([*range(1, 21), 23]), 22),
    ],
    ids=["s0", "s1", "s0-first"],
)
def test_cpa_caps_each_candidate_before_any_query(monkeypatch, s0, s1, size):
    def refuse(*args):
        raise AssertionError("reply fold run")

    monkeypatch.setattr(attacks, "_key_fold", refuse)
    experiment = CpaExperiment(s0=s0, s1=s1, hidden_bit=0)
    with pytest.raises(ValueError, match=f"^key set has {size} indices, above the limit 20$"):
        cpa_distinguish(experiment.s0, experiment.s1, experiment.query_probe)
    assert experiment.query_log == []


def test_cpa_game_folds_s0_once(monkeypatch):
    # The candidates' marks at the probe are opposite, so one fold gives
    # both expected values: s0's, whichever candidate holds the probe.
    folded = []

    def counted(s, x):
        folded.append((s, x))
        return key_coeff_fold(s, x)

    monkeypatch.setattr(attacks, "key_coeff_fold", counted)
    games = [([2], [3]), ([3], [2]), ([4, 6, 8, 10], [4, 6, 8, 10, 12]), ([3, 4, 6, 9, 10, 12], [3, 4, 6, 9, 12])]
    for s0, s1 in games:
        for hidden_bit in (0, 1):
            folded.clear()
            result, _ = run_cpa_experiment(s0, s1, hidden_bit)
            assert folded == [(KeySet(s0), result.probe)]
            assert result.guess == hidden_bit


def test_no_cpa_game_builds_a_key_element(monkeypatch):
    # Each game runs the fold once, on the probe's sorted odd gcds, and
    # never through key_element, which looks the fold up in burnside.
    fold, folds = burnside._key_fold, []

    def counted(indices):
        folds.append(indices)
        return fold(indices)

    def refuse(*args):
        raise AssertionError("key element built")

    monkeypatch.setattr(burnside, "_key_fold", refuse)
    monkeypatch.setattr(attacks, "_key_fold", counted)
    pairs = [
        ([2], [3]),
        ([3, 4, 6, 9, 10, 12], [3, 4, 6, 9, 12, 20]),
        (list(range(1, 17)), [*range(1, 16), 18]),
    ]
    for s0, s1 in pairs:
        for hidden_bit in (0, 1):
            folds.clear()
            game = run_cpa_experiment(s0, s1, hidden_bit)
            assert game.ok
            gcds = [gcd(game.result.probe, s) for s in game.experiment.hidden_set]
            assert folds == [sorted(g for g in set(gcds) if gcds.count(g) % 2)]
    folds.clear()
    sweep = run_cpa_sweep(6, 2)
    assert sweep.ok
    assert len(folds) == sweep.games
    assert all(f == sorted(set(f)) for f in folds)


def test_cpa_oracle_mismatch_detected():
    with pytest.raises(OracleMismatchError):
        cpa_distinguish(KeySet([2]), KeySet([3]), lambda x: ZERO)


def test_cpa_experiment_validates_inputs():
    with pytest.raises(ValueError):
        CpaExperiment(s0=KeySet([2]), s1=KeySet([2]), hidden_bit=0)
    with pytest.raises(ValueError):
        CpaExperiment(s0=KeySet([2]), s1=KeySet([3]), hidden_bit=2)


@pytest.mark.parametrize("bit", [True, False, 1.0, 0.0])
def test_cpa_experiment_refuses_a_hidden_bit_that_is_not_the_int_0_or_1(bit):
    # Each equals 0 or 1, so `bit in (0, 1)` alone would play the game.
    text = f"^hidden bit must be 0 or 1, got {re.escape(str(bit))}$"
    with pytest.raises(ValueError, match=text):
        CpaExperiment(s0=KeySet([2]), s1=KeySet([3]), hidden_bit=bit)
    with pytest.raises(ValueError, match=text):
        run_cpa_experiment((2,), (3,), bit)


def test_cpa_experiment_rejects_bad_probe():
    experiment = CpaExperiment(s0=KeySet([2]), s1=KeySet([3]), hidden_bit=0)
    with pytest.raises(ValueError):
        experiment.query_probe(0)


@pytest.mark.parametrize(
    "x, error, text",
    [
        (True, TypeError, "generator index must be an int, got True"),
        (2.0, TypeError, "generator index must be an int, got 2.0"),
        (0, ValueError, "dihedral index must be >= 1, got 0"),
        (-3, ValueError, "dihedral index must be >= 1, got -3"),
    ],
)
def test_refused_probe_is_not_logged(x, error, text):
    # The oracle refuses x with the errors D(x) raises, before it logs the query.
    experiment = CpaExperiment(s0=KeySet([2]), s1=KeySet([3]), hidden_bit=0)
    for refused in (D, experiment.query_probe):
        with pytest.raises(error, match=f"^{re.escape(text)}$"):
            refused(x)
    assert experiment.query_log == []


def test_query_probe_caps_the_odd_gcds_before_the_key_element(monkeypatch):
    # Every s <= 21 divides lcm(1..21), so the 21 gcds are the key set itself.
    def refuse(*args):
        raise AssertionError("reply fold run")

    monkeypatch.setattr(attacks, "_key_fold", refuse)
    experiment = CpaExperiment(s0=KeySet(range(1, 22)), s1=KeySet([22]), hidden_bit=0)
    with pytest.raises(ValueError, match="^key set has 21 indices, above the limit 20$"):
        experiment.query_probe(lcm(*range(1, 22)))
    assert experiment.query_log == []


def test_query_probe_answers_an_oversize_key_with_few_odd_gcds(monkeypatch):
    # gcd(x, s) is 1 for s = 1, 23 and 29 and s itself for s = 2..20, so the
    # 22-index key leaves the 20 odd gcds 1..20, at the cap but not above it.
    s = KeySet([*range(1, 21), 23, 29])
    x = lcm(*range(1, 21))
    built = []

    def capped(g):
        if len(g) > limits.MAX_KEY_SIZE:
            raise AssertionError("key fold above the cap run")
        built.append(set(g))
        return burnside._key_fold(g)

    monkeypatch.setattr(attacks, "_key_fold", capped)
    experiment = CpaExperiment(s0=s, s1=KeySet([2]), hidden_bit=0)
    assert experiment.query_probe(x) == BurnsideElement({D(x): 1}) * key_element(s)
    assert built == [set(range(1, 21))]
    assert experiment.query_log == [x]


_PRIMES_12 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37]
# Each index is the product of 11 of the first 12 primes, so every probe
# gcd differs from the others and the reply keeps 2**11 terms.
_PRIME_PRODUCT_KEY = KeySet(prod(_PRIMES_12) // q for q in _PRIMES_12)


def _probe_games():
    # A key set and a probe: one of its indices, 1, above its maximum, a
    # small x that many indices share a gcd with, or any x up to 120.
    keys = st.one_of(key_sets(max_size=8, max_index=60), st.just(_PRIME_PRODUCT_KEY))
    return keys.flatmap(
        lambda s: st.tuples(
            st.just(s),
            st.one_of(
                st.sampled_from(s.indices),
                st.just(1),
                st.integers(s.max_index + 1, 2 * s.max_index + 60),
                st.integers(1, 12),
                st.integers(1, 120),
            ),
        )
    )


@given(_probe_games())
@example((KeySet([2, 4, 6, 8]), 2))  # four equal gcds: no odd one, the reply is D(2)
@example((KeySet([2, 3, 4]), 6))  # gcds 2, 3, 2: the reply is D(6) * k_{3}
@example((_PRIME_PRODUCT_KEY, _PRIME_PRODUCT_KEY.max_index))
@example((_PRIME_PRODUCT_KEY, prod(_PRIMES_12)))
def test_query_probe_matches_the_ring_product(game):
    s, x = game
    experiment = CpaExperiment(s0=s, s1=KeySet([s.max_index + 1]), hidden_bit=0)
    assert experiment.query_probe(x) == BurnsideElement({D(x): 1}) * key_element(s)
    assert experiment.query_log == [x]


@given(key_sets(max_size=5, max_index=20), key_sets(max_size=5, max_index=20))
def test_probe_parity_separates_candidates(s0, s1):
    if s0 == s1:
        return
    probe = choose_probe(s0, s1)
    # Exactly one candidate holds the probe, and no index above it
    # separates them, so their marks there, 1 + 2*fold, are opposite.
    assert key_coeff_fold(s0, probe) + key_coeff_fold(s1, probe) == -1


def _cpa_candidate_pairs():
    """Nested, neighbouring (S and S minus {j}), disjoint and 30-digit candidate pairs, in either order."""
    # 30-digit indices 10**26 * k; the listed k divide one another often, so folds do not vanish.
    wide = st.one_of(st.integers(1000, 9999), st.sampled_from([1000, 1200, 2000, 2400, 3600, 4800, 7200, 9600]))
    wide = wide.map(lambda k: 10**26 * k)
    small = key_sets(max_size=6, max_index=40)
    nested = st.tuples(small, small).map(lambda p: (p[0], KeySet({*p[0], *p[1]})))
    neighbouring = key_sets(max_size=8, max_index=60).filter(lambda s: len(s) > 1).flatmap(
        lambda s: st.sampled_from(s.indices).map(lambda j: (s, KeySet(i for i in s if i != j)))
    )
    disjoint = st.sets(st.integers(1, 60), min_size=2, max_size=10).flatmap(
        lambda u: st.integers(1, len(u) - 1).map(lambda k: (KeySet(sorted(u)[:k]), KeySet(sorted(u)[k:])))
    )
    thirty_digits = st.tuples(st.sets(wide, min_size=1, max_size=5), st.sets(wide, min_size=1, max_size=5))
    thirty_digits = thirty_digits.map(lambda p: (KeySet(p[0]), KeySet(p[1])))
    pairs = st.one_of(nested, neighbouring, disjoint, thirty_digits).filter(lambda p: p[0] != p[1])
    return st.tuples(pairs, st.booleans()).map(lambda t: t[0][::-1] if t[1] else t[0])


@given(_cpa_candidate_pairs(), st.sampled_from([0, 1]))
def test_cpa_expected_values_are_each_candidates_fold(pair, hidden_bit):
    s0, s1 = pair
    result, experiment = run_cpa_experiment(s0, s1, hidden_bit)
    assert result.expected0 == 1 + 2 * key_coeff_fold(s0, result.probe)
    assert result.expected1 == 1 + 2 * key_coeff_fold(s1, result.probe)
    assert result.guess == hidden_bit
    assert experiment.query_log == [result.probe]


@given(key_sets(max_size=5, max_index=20), st.integers(1, 20))
def test_oracle_response_identity(s, x):
    response = BurnsideElement({D(x): 1}) * key_element(s)
    expected = BurnsideElement({D(x): 1})
    for n in range(1, s.max_index + 1):
        a = key_coeff(s, n)
        if a:
            expected = expected + BurnsideElement({D(gcd(x, n)): 2 * a})
    assert response == expected
    assert response.coeff(D(x)) == 1 + 2 * key_coeff_fold(s, x)


# ----------------------------------------------------------- ciphertext only


# 10 KB of 7-bit text with zero bytes and a zero tail, so some divisor sums are 0.
_MESSAGE = bytes(random.Random(13).randrange(128) for _ in range(10_000)) + bytes(240)
_PRIMES_16 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]


@pytest.mark.parametrize(
    "indices",
    [
        [2, 3],
        [1],
        [prod(_PRIMES_16) // q for q in _PRIMES_16],
        # 20 30-digit multiples of lcm(1..60): many marks of -1.
        [lcm(*range(1, 61)) * 73 * (146 + 7 * j) for j in range(20)],
        [random.Random(5 + j).randrange(10**29, 10**30) for j in range(20)],
    ],
    ids=["2,3", "1", "prime-products", "lcm-multiples", "random-30-digit"],
)
def test_one_ciphertext_gives_up_its_plaintext_without_the_key(indices):
    # The text codec's values are >= 0, so every plaintext divisor sum
    # F_x is >= 0, and the ciphertext's are G_x = eps_x * F_x.  So
    # sign(G_x) is the key's mark wherever G_x != 0, and where G_x = 0 so
    # is F_x, whatever the mark: the mark product by the signs of G is
    # the plaintext.
    ct = cipher.encrypt(_MESSAGE, KeySet(indices))
    assert list(ct.values) != list(_MESSAGE)
    signs = [(g > 0) - (g < 0) for g in divisor_sums(ct.values)]
    assert 0 in signs
    assert cipher.decode_text(MarkAction(signs)(ct.values)) == _MESSAGE


# --------------------------------------------------------- known plaintexts


# The mark-coordinate solver and its generic reference must agree on
# every pair set below; each test runs both.
SOLVERS = (known_plaintext_solver, generic_plaintext_solver)


def _pair(p, key, window):
    # A known plaintext and its ciphertext as window vectors.
    return ring_decode(p, window), ring_decode(p * key, window)


def _probe_pairs(key, window):
    return [_pair(BurnsideElement({D(i): 1}), key, window) for i in range(1, window + 1)]


def test_solver_recovers_operator_from_probes():
    key = key_element([2, 3])
    for solver in SOLVERS:
        result = solver(_probe_pairs(key, 4), 4)
        assert result.determined
        assert result.rank == 4
        assert result.undetermined == ()
        assert result.matrix == operator_matrix(key, 4)


def test_solver_reports_underdetermined():
    key = key_element([2])
    pair = _pair(BurnsideElement({D(1): 1}), key, 2)
    for solver in SOLVERS:
        result = solver([pair], 2)
        assert not result.determined
        assert result.matrix is None
        assert result.rank == 1
        assert result.undetermined == (2,)


def test_solver_detects_inconsistent_pairs():
    key = key_element([2])
    p1 = BurnsideElement({D(1): 1})
    p2 = BurnsideElement({D(2): 1})
    # third pair is linearly dependent but its ciphertext is corrupted
    p3, c3 = _pair(p1 + p2, key, 2)
    c3[0] += 1
    pairs = [_pair(p1, key, 2), _pair(p2, key, 2), (p3, c3)]
    for solver in SOLVERS:
        with pytest.raises(InconsistentPairsError):
            solver(pairs, 2)


def test_solver_detects_non_integral_operator():
    # 2*D1 -> D1 forces the matrix entry 1/2
    pairs = [([2, 0], [1, 0]), ([0, 1], [0, 1])]
    for solver in SOLVERS:
        with pytest.raises(InconsistentPairsError):
            solver(pairs, 2)


def test_solver_handles_mixed_support_pairs():
    key = key_element([2, 5])
    window = 5
    vectors = [
        [1, 0, 2, 0, 0],
        [0, 1, 0, 3, 0],
        [0, 0, 1, 0, 4],
        [1, 1, 1, 1, 1],
        [2, 0, 0, 1, 0],
    ]
    pairs = [_pair(ring_encode(vec), key, window) for vec in vectors]
    for solver in SOLVERS:
        result = solver(pairs, window)
        assert result.determined
        assert result.matrix == operator_matrix(key, window)


def test_solvers_accept_window_vectors():
    # Lists, as run_kpa_demo passes them, and tuples, as Ciphertext.values holds them.
    key = key_element([2, 5])
    vectors = [[1, 0, 2, 0, 0], [0, 1, 0, 3, 0], [0, 0, 1, 0, 4], [1, 1, 1, 1, 1], [2, 0, 0, 1, 0]]
    pairs = [_pair(ring_encode(v), key, 5) for v in vectors]
    for solver in SOLVERS:
        by_list = solver(pairs, 5)
        by_tuple = solver([(tuple(p), tuple(c)) for p, c in pairs], 5)
        assert by_list == by_tuple
        assert by_list.matrix == operator_matrix(key, 5)


def test_solvers_reject_vector_of_wrong_length():
    for solver in SOLVERS:
        with pytest.raises(ValueError, match="W_2"):
            solver([([1, 0, 0], [1, 0])], 2)
        with pytest.raises(ValueError, match="W_2"):
            solver([((1, 0), (1,))], 2)


def test_solver_rejects_ciphertext_off_a_zero_divisor_sum():
    # D2 - D1 has divisor sum 0 at D1, so any ring element maps it to an
    # element with divisor sum 0 there; D1 has 1.  A generic linear map
    # can still send one vector anywhere.
    pairs = [([-1, 1], [1, 0])]
    with pytest.raises(InconsistentPairsError, match="D1"):
        known_plaintext_solver(pairs, 2)
    assert generic_plaintext_solver(pairs, 2).rank == 1


@given(key_sets(max_size=4, max_index=40), st.integers(1, 30), st.integers(-3, 2), st.integers(0, 2**32 - 1))
def test_mark_solver_at_least_as_strong_as_generic(s, window, extra_pairs, seed):
    key = key_element(s)
    # Uniform plaintext bytes, as run_kpa_demo draws them; hypothesis
    # integers favour zeros, which would leave almost every system short.
    rng = random.Random(seed)
    pairs = []
    for _ in range(max(1, window + extra_pairs)):
        p = ring_encode([rng.randint(0, 127) for _ in range(window)])
        pairs.append(_pair(p, key, window))
    marks = known_plaintext_solver(pairs, window)
    generic = generic_plaintext_solver(pairs, window)
    assert marks.rank >= generic.rank
    assert len(marks.undetermined) == window - marks.rank
    assert len(generic.undetermined) == window - generic.rank
    # A partial solve keeps every mark it read, with 0 at each open x.
    assert marks.marks == WindowMarks(tuple(0 if x in marks.undetermined else eps for x, eps in enumerate(key_marks(s, window), 1)))
    expected = operator_matrix(key, window)
    if marks.determined:
        assert marks.matrix == expected
    if generic.determined:
        assert generic.matrix == expected


def _walked_mark_solver(pairs, window):
    # The mark solver's checks one x at a time: the order and text of the
    # errors known_plaintext_solver must keep.
    marks = [None] * window
    for p, c in pairs:
        for x, (f, g) in enumerate(zip(divisor_sums(p), divisor_sums(c))):
            if marks[x] is None and f:
                if g % f:
                    return f"mark at D{x + 1} is {g}/{f}, not an integer; pairs are not generated by an integer operator"
                marks[x] = g // f
            if g != (marks[x] or 0) * f:
                return f"pairs break G_x = eps_x * F_x at D{x + 1}; no single ring element generates them"
    return marks


@given(
    key_sets(max_size=3, max_index=12),
    st.integers(1, 12),
    st.lists(st.tuples(st.lists(st.integers(-2, 3), min_size=12, max_size=12), st.integers(0, 11), st.integers(-3, 3)), min_size=1, max_size=4),
)
# The first pair reads the mark 0 at D1, then finds G_2 = 1 where F_2 = 0.
@example(KeySet([2]), 4, [([1] + [0] * 11, 1, 1)])
def test_mark_solver_errors_follow_the_walk_in_x(s, window, draws):
    # Mostly zeros and small values, so marks stay open across pairs and a
    # corrupted ciphertext entry can fail at a mark read, at an open mark
    # or at a mark fixed by an earlier pair.
    marks = key_marks(s, window)
    pairs = []
    for values, at, delta in draws:
        p = values[:window]
        c = MarkAction(marks)(p)
        c[at % window] += delta
        pairs.append((p, c))
    expected = _walked_mark_solver(pairs, window)
    # Tuple vectors, as Ciphertext.values holds them, solve as lists do.
    for vectors in (pairs, [(tuple(p), tuple(c)) for p, c in pairs]):
        if isinstance(expected, str):
            with pytest.raises(InconsistentPairsError) as info:
                known_plaintext_solver(vectors, window)
            assert str(info.value) == expected
            continue
        result = known_plaintext_solver(vectors, window)
        assert result.undetermined == tuple(x + 1 for x, eps in enumerate(expected) if eps is None)
        assert result.marks == WindowMarks(tuple(0 if eps is None else eps for eps in expected))


# A first pair of nonzero values but at `holes` above L/2 reads every mark
# except those, so each later pair is checked against the marks read and
# reads the open ones.  Any integer marks, as a non-key operator has.
@given(
    st.integers(1, 16),
    st.lists(st.integers(-3, 3), min_size=16, max_size=16),
    st.lists(st.integers(1, 4), min_size=16, max_size=16),
    st.sets(st.integers(0, 15)),
    st.lists(st.lists(st.integers(-2, 3), min_size=16, max_size=16), min_size=1, max_size=3),
    st.tuples(st.integers(0, 2), st.integers(0, 15), st.integers(-3, 3)),
)
# A broken known mark above L/2: D1 of W_1.  On a wider window one
# corrupted entry also breaks D1 <= L/2.
@example(1, [1] * 16, [1] * 16, set(), [[1] * 16], (0, 0, 1))
# A consistent solve with the mark 2 at D1.
@example(8, [2] + [1] * 15, [1] * 16, set(), [[1] * 16], (0, 0, 0))
# D7 of W_8, left open by the first pair, read by the second.
@example(8, [1] * 16, [1] * 16, {6}, [[1] * 16], (0, 0, 0))
# A corrupted entry at D7, left open by the first pair: 3/2 is no mark.
@example(8, [1] * 16, [1] * 16, {6}, [[2] * 16], (0, 6, 1))
# D13 of W_16, open through the second pair, reads 7/3 in the third,
# whose corrupted entry also breaks D1, known since the first: D1 is named.
@example(16, [1] * 12 + [2] + [1] * 3, [1] * 16, {12}, [[1] * 12 + [0] + [1] * 3, [1] * 12 + [3] + [1] * 3], (1, 12, 1))
def test_mark_solver_errors_on_later_pairs_follow_the_walk_in_x(window, marks, first, holes, later, corruption):
    marks = marks[:window]
    p1 = [0 if x in holes and x >= window // 2 else v for x, v in enumerate(first[:window])]
    pairs = [(p1, MarkAction(marks)(p1))]
    for values in later:
        pairs.append((values[:window], MarkAction(marks)(values[:window])))
    which, at, delta = corruption
    pairs[1 + which % len(later)][1][at % window] += delta
    expected = _walked_mark_solver(pairs, window)
    if isinstance(expected, str):
        with pytest.raises(InconsistentPairsError) as info:
            known_plaintext_solver(pairs, window)
        assert str(info.value) == expected
        return
    result = known_plaintext_solver(pairs, window)
    assert result.undetermined == tuple(x + 1 for x, eps in enumerate(expected) if eps is None)
    assert result.marks == WindowMarks(tuple(0 if eps is None else eps for eps in expected))


def test_solves_build_no_divisor_sums(monkeypatch):
    # Every pair is read by direct sums at its open x, and so is the walk
    # that names a failing pair: no solve builds a divisor-sum vector, also
    # when the first pair leaves marks above L/2 open for later pairs to
    # read (D34 of W_60 at seed 0, 16 marks of W_4096).
    def refuse(values):
        raise AssertionError(f"divisor sums of {len(values)} values")

    monkeypatch.setattr(burnside, "divisor_sums", refuse)
    assert not hasattr(attacks, "divisor_sums")
    key = KeySet([2, 3, 7, 12, 30])
    for window, n_pairs in [(60, 60), (4096, 3)]:
        result = run_kpa_demo(key, window, n_pairs, seed=0)
        assert result.matches_true_operator and result.solver.rank == window
    # A dense first pair reads every mark.
    marks = key_marks(key, 40)
    rng = random.Random(3)
    pairs = []
    for _ in range(40):
        p = [rng.randint(1, 127) for _ in range(40)]
        pairs.append((p, MarkAction(marks)(p)))
    assert known_plaintext_solver(pairs, 40).marks == WindowMarks(tuple(marks))
    # A first pair reads the mark 1 at D1 and breaks at D2, where F is 0.
    with pytest.raises(InconsistentPairsError) as info:
        known_plaintext_solver([([1, 0, 0, 0], [1, 0, 0, 1])], 4)
    assert str(info.value) == "pairs break G_x = eps_x * F_x at D2; no single ring element generates them"
    # +2 at n = 35 and -2 at n = 37 keep G_1 and break D5, D7, D35 and D37.
    c = list(pairs[1][1])
    c[34] += 2
    c[36] -= 2
    with pytest.raises(InconsistentPairsError) as info:
        known_plaintext_solver([pairs[0], (pairs[1][0], c)], 40)
    assert str(info.value) == "pairs break G_x = eps_x * F_x at D5; no single ring element generates them"


def test_solver_peak_memory_stays_below_one_ciphertext():
    # The solver holds its marks, one slice of a pair and, from the second
    # pair on, one image under its action: less than the ciphertext list
    # and its ints.
    window = 1 << 16
    key = KeySet([2, 3, 7, 12, 30])
    marks = key_marks(key, window)
    action = MarkAction(marks)
    rng = random.Random(7)
    pairs = []
    for _ in range(3):
        p = [rng.randint(0, 127) for _ in range(window)]
        pairs.append((p, action(p)))
    c = pairs[0][1]
    vector = sys.getsizeof(c) + sum(map(sys.getsizeof, c))
    for n_pairs in (1, 3):
        used = pairs[:n_pairs]
        tracemalloc.start()
        try:
            result = known_plaintext_solver(used, window)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        open_x = set(result.undetermined)
        assert result.marks == WindowMarks(tuple(0 if x in open_x else eps for x, eps in enumerate(marks, 1)))
        assert peak < vector, (n_pairs, peak, vector)
    assert result.determined


def test_actions_are_built_once_per_demo_and_per_pair_that_reads_a_mark(monkeypatch):
    builds = []
    build = attacks.MarkAction
    monkeypatch.setattr(attacks, "MarkAction", lambda marks: builds.append(len(marks)) or build(marks))
    solved_after = []
    solve = attacks.known_plaintext_solver
    monkeypatch.setattr(attacks, "known_plaintext_solver", lambda pairs, w: solved_after.append(len(builds)) or solve(pairs, w))
    # The demo's one action makes all 60 ciphertexts, and the solver's one
    # checks every later pair: the second pair reads D34, the one mark
    # the first leaves open at seed 0, before its action is built.
    key = KeySet([2, 3, 7, 12, 30])
    result = run_kpa_demo(key, 60, 60, seed=0)
    assert result.matches_true_operator
    assert solved_after == [1]
    assert builds == [60, 60]
    # A consistent 60-pair solve: one action for the second pair, and one
    # more for each pair after it that reads a mark still open.
    marks = key_marks(key, 60)
    rng = random.Random(5)
    for zeros in (0, 0.9):
        pairs = []
        for _ in range(60):
            p = [0 if rng.random() < zeros else rng.randint(1, 127) for _ in range(60)]
            pairs.append((p, MarkAction(marks)(p)))
        open_x = set(range(60))
        reads = []
        for p, _ in pairs:
            f_sums = divisor_sums(p)
            reads.append(any(f_sums[x] for x in open_x))
            open_x = {x for x in open_x if not f_sums[x]}
        builds.clear()
        result = known_plaintext_solver(pairs, 60)
        assert result.determined and result.marks == WindowMarks(tuple(marks))
        assert len(builds) == 1 + sum(reads[2:])
    assert sum(reads[2:]) > 1


def test_solver_returns_marks_and_builds_matrix_on_access(monkeypatch):
    key = key_element([2, 5])
    expected = operator_matrix(key, 6)
    built = []
    build = attacks._operator_from_marks
    monkeypatch.setattr(attacks, "_operator_from_marks", lambda marks: built.append(marks) or build(marks))
    result = known_plaintext_solver(_probe_pairs(key, 6), 6)
    assert result.marks == WindowMarks(tuple(key_marks([2, 5], 6)))
    assert built == []
    assert result.matrix == expected
    assert result.matrix is result.matrix
    assert built == [result.marks.eps]
    assert generic_plaintext_solver(_probe_pairs(key, 6), 6).marks is None


def test_partial_solve_keeps_the_marks_it_read():
    # The one --seed 6 pair on W_8 has divisor sum 0 at D5 only: every
    # other mark of {2, 3} is read, and D5's stays 0.
    result = run_kpa_demo(KeySet([2, 3]), window=8, n_pairs=1, seed=6).solver
    expected = key_marks([2, 3], 8)
    assert result.undetermined == (5,)
    assert result.marks == WindowMarks(tuple(0 if x == 5 else eps for x, eps in enumerate(expected, 1)))



# -------------------------------------------------------------- demo drivers


def test_run_ambiguity_demo_succeeds():
    result = run_ambiguity_demo(KeySet([2, 3]), window=5, count=3)
    assert all(result.matrices_equal)
    assert all(result.elements_differ)
    assert result.ok
    assert [q for q, _ in result.twins] == [7, 11, 13]
    report = result.report()
    assert "{14, 21}" in report and "matrices identical" in report


def test_run_ambiguity_demo_compares_twins_by_marks(monkeypatch):
    # A key that is not a scaled twin has other marks on W_5: {2, 3} and
    # {2, 3, 5} differ at D5, so the demonstration must fail.
    monkeypatch.setattr(attacks, "ambiguous_family", lambda s, window, count: [KeySet([14, 21]), KeySet([2, 3, 5])])
    result = run_ambiguity_demo(KeySet([2, 3]), window=5, count=2)
    assert result.matrices_equal == (True, False)
    assert result.elements_differ == (True, True)
    assert not result.ok
    assert operator_matrix(key_element([2, 3, 5]), 5) != result.marks.operator()


@given(key_sets(max_size=4, max_index=30), st.lists(key_sets(max_size=4, max_index=30), max_size=4), st.integers(1, 12))
def test_run_ambiguity_demo_set_comparison_is_exact(s, others, window):
    # elements_differ compares key sets; distinct sets have distinct key
    # elements, so it agrees with comparing the elements themselves, also
    # for the base set and for candidates that are not twins.
    family = [s, *others]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(attacks, "ambiguous_family", lambda *_: family)
        result = run_ambiguity_demo(s, window, len(family))
    base = key_element(s)
    assert result.elements_differ == tuple(key_element(t) != base for t in family)
    base_matrix = result.marks.operator()
    assert result.matrices_equal == tuple(operator_matrix(key_element(t), window) == base_matrix for t in family)
    assert base_matrix == operator_matrix(base, window)


def test_run_kpa_demo_builds_no_sparse_messages(monkeypatch):
    # Plaintexts and ciphertexts stay window vectors from draw to solver.
    def refuse(*args, **kwargs):
        raise AssertionError("sparse element built or decoded")

    for module, name in [(cipher, "ring_encode"), (cipher, "ring_decode"), (cipher, "encrypt")]:
        monkeypatch.setattr(module, name, refuse)
    calls = []
    solve = attacks.known_plaintext_solver
    monkeypatch.setattr(attacks, "known_plaintext_solver", lambda pairs, window: calls.append(pairs) or solve(pairs, window))
    result = run_kpa_demo(KeySet([2, 3, 7]), window=12, n_pairs=12, seed=4)
    assert result.matches_true_operator and result.ok
    assert len(calls) == 1
    assert all(isinstance(p, list) and isinstance(c, list) for p, c in calls[0])


def test_run_kpa_demo_determined():
    result = run_kpa_demo(KeySet([2, 3]), window=4, n_pairs=6, seed=1)
    assert result.solver.determined
    assert result.matches_true_operator
    assert all(result.twins_match)
    # The ambiguity demonstration the run holds is the one for its key and window.
    assert result.ambiguity == run_ambiguity_demo(KeySet([2, 3]), window=4, count=3)
    report = result.report()
    assert "rank" in report and "4 / 4" in report


def test_run_kpa_demo_rejects_bad_window():
    with pytest.raises(ValueError, match="window"):
        run_kpa_demo(KeySet([2, 3]), window=0, n_pairs=3)


def _demo_plaintexts(monkeypatch, window, n_pairs, seed):
    seen = []
    solve = attacks.known_plaintext_solver
    monkeypatch.setattr(attacks, "known_plaintext_solver", lambda pairs, w: seen.extend(pairs) or solve(pairs, w))
    result = run_kpa_demo(KeySet([2, 3]), window=window, n_pairs=n_pairs, seed=seed)
    assert result.ok
    return [p for p, _ in seen]


# W_1 with seed 139 draws the value 0 first, and W_2 with seed 30890 two
# zeros: the all-zero fallback.  W_40000 with 2 pairs draws across several
# getrandbits calls.
@pytest.mark.parametrize(
    "window, n_pairs, seeds",
    [(1, 1, [*range(40), 139]), (1, 9, range(20)), (3, 7, range(30)), (8, 1, range(30)), (60, 60, range(5)), (40000, 2, [0, 1]), (2, 1, [30890])],
)
def test_run_kpa_demo_plaintexts_are_the_randint_loop(monkeypatch, window, n_pairs, seeds):
    assert random.Random(139).randint(0, 127) == 0
    rng = random.Random(30890)
    assert [rng.randint(0, 127), rng.randint(0, 127)] == [0, 0]
    for seed in seeds:
        rng = random.Random(seed)
        expected = []
        for _ in range(n_pairs):
            values = [rng.randint(0, 127) for _ in range(window)]
            expected.append(values if any(values) else [1] + [0] * (window - 1))
        with monkeypatch.context() as mp:
            assert _demo_plaintexts(mp, window, n_pairs, seed) == expected, (window, n_pairs, seed)


def test_run_kpa_demo_large_window_stays_linear(monkeypatch):
    # No operator matrix at W_65536, whose L x L entries alone would be 32 GiB.
    # Two pairs usually leave a few marks above L/2 open; seed 11 leaves none.
    def refuse(*args, **kwargs):
        raise AssertionError("operator matrix built by the demo")

    monkeypatch.setattr(attacks, "_operator_from_marks", refuse)
    window = 1 << 16
    tracemalloc.start()
    try:
        result = run_kpa_demo(KeySet([2, 3, 7, 12, 30]), window=window, n_pairs=2, seed=11)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert result.ok and result.matches_true_operator
    assert result.solver.rank == window
    assert result.solver.marks == WindowMarks(tuple(key_marks([2, 3, 7, 12, 30], window)))
    assert peak < 24 << 20, peak


def test_run_cpa_sweep_counts():
    result = run_cpa_sweep(max_index=5, max_size=2)
    n = 5 + 10  # singletons and pairs from 1..5
    assert result.key_sets == n
    assert result.games == n * (n - 1) * 2
    assert result.correct == result.games and result.ok
    assert result.queries == result.games
    assert sum(games for _, games in result.probes) == result.games
    assert [probe for probe, _ in result.probes] == sorted(probe for probe, _ in result.probes)


@pytest.mark.parametrize(
    "max_index, max_size",
    [(25, 2), (13, 3), (9, 5), (40, 3), (10**12, 10**9)],
)
def test_run_cpa_sweep_refuses_above_the_game_cap(monkeypatch, max_index, max_size):
    def refuse(*args):
        raise AssertionError("sweep work started above the cap")

    # Refused from the counts alone: no key set is built and no game played.
    monkeypatch.setattr(attacks, "KeySet", refuse)
    monkeypatch.setattr(attacks, "run_cpa_experiment", refuse)
    with pytest.raises(ValueError, match=f"more than {limits.MAX_SWEEP_GAMES} games"):
        run_cpa_sweep(max_index, max_size)


def test_run_cpa_sweep_cap_is_inclusive(monkeypatch):
    games = 15 * 14 * 2  # max_index 5, max_size 2
    monkeypatch.setattr(limits, "MAX_SWEEP_GAMES", games)
    assert run_cpa_sweep(5, 2).games == games
    monkeypatch.setattr(limits, "MAX_SWEEP_GAMES", games - 1)
    monkeypatch.setattr(attacks, "run_cpa_experiment", None)
    with pytest.raises(ValueError, match=f"more than {games - 1} games"):
        run_cpa_sweep(5, 2)


def test_cpa_sweep_cap_admits_the_defaults_and_criterion_8():
    # --max-index 8 --max-size 3: 92 key sets, 16 744 games.
    assert 92 * 91 * 2 <= limits.MAX_SWEEP_GAMES
    assert run_cpa_sweep(8, 3).games == 92 * 91 * 2


def test_run_kpa_demo_one_pair_determines_window():
    # A single random pair pins every mark of W_8 when none of its
    # divisor sums vanishes.
    result = run_kpa_demo(KeySet([2]), window=8, n_pairs=1, seed=1)
    assert result.solver.determined
    assert result.solver.rank == 8
    assert result.matches_true_operator
    assert result.ok


def test_run_kpa_demo_underdetermined():
    # With seed 6 the one plaintext's divisor sum at D5 is 0.
    result = run_kpa_demo(KeySet([2]), window=8, n_pairs=1, seed=6)
    assert not result.solver.determined
    assert result.solver.rank == 7
    assert result.solver.undetermined == (5,)
    assert result.matches_true_operator is None
    assert result.ok
    report = result.report()
    assert "underdetermined" in report
    assert "open marks     : D5\n" in report


def test_format_cpa_report_mentions_probe_and_queries():
    game = run_cpa_experiment(KeySet([2]), KeySet([3]), hidden_bit=1)
    report = game.report()
    assert "D3" in report
    assert "queries        : 1" in report
    assert "SUCCESS" in report
