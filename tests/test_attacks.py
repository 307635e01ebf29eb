import random
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from brc.attacks import (
    CpaExperiment,
    InconsistentPairsError,
    OperatorMatrix,
    OracleMismatchError,
    ambiguous_family,
    ambiguous_key,
    choose_probe,
    cpa_distinguish,
    format_ambiguity_report,
    format_cpa_report,
    format_kpa_report,
    generic_plaintext_solver,
    identity_query_leak,
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
    divisor_sums,
    key_coeff,
    key_coeff_fold,
    key_element,
    key_marks,
    mark_product,
)
from brc import attacks, cipher
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
    assert len(ambiguous_family(KeySet([2]), 3, attacks.MAX_TWINS)) == attacks.MAX_TWINS

    def refuse(q):
        raise AssertionError("prime search ran for a count above the cap")

    # Refused before any prime search, so a huge count costs nothing.
    monkeypatch.setattr(attacks, "_is_prime", refuse)
    for count in (attacks.MAX_TWINS + 1, 10**9):
        with pytest.raises(ValueError, match=f"count must be <= {attacks.MAX_TWINS}"):
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


def test_cpa_distinguish_overlapping_sets():
    result, _ = run_cpa_experiment(KeySet([2, 3]), KeySet([2]), hidden_bit=0)
    assert result.probe == 3
    assert result.observed == -1 == 1 + 2 * key_coeff_fold(KeySet([2, 3]), 3)
    assert result.guess == 0


def test_cpa_cap_raises_before_the_oracle(monkeypatch):
    # The folds' subset cap rejects 21-index candidates before the oracle
    # builds the hidden key element of 2**21 terms.
    def refuse(*args):
        raise AssertionError("key element built")

    monkeypatch.setattr(attacks, "key_element", refuse)
    with pytest.raises(ValueError, match="cap"):
        run_cpa_experiment(KeySet(range(1, 22)), KeySet([*range(1, 21), 22]), hidden_bit=0)


def test_cpa_oracle_mismatch_detected():
    with pytest.raises(OracleMismatchError):
        cpa_distinguish(KeySet([2]), KeySet([3]), lambda x: ZERO)


def test_cpa_experiment_validates_inputs():
    with pytest.raises(ValueError):
        CpaExperiment(s0=KeySet([2]), s1=KeySet([2]), hidden_bit=0)
    with pytest.raises(ValueError):
        CpaExperiment(s0=KeySet([2]), s1=KeySet([3]), hidden_bit=2)


def test_cpa_experiment_rejects_bad_probe():
    experiment = CpaExperiment(s0=KeySet([2]), s1=KeySet([3]), hidden_bit=0)
    with pytest.raises(ValueError):
        experiment.query_probe(0)


@given(key_sets(max_size=5, max_index=20), key_sets(max_size=5, max_index=20))
def test_probe_parity_separates_candidates(s0, s1):
    if s0 == s1:
        return
    probe = choose_probe(s0, s1)
    assert (key_coeff_fold(s0, probe) - key_coeff_fold(s1, probe)) % 2 == 1


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


def test_identity_query_leak():
    guess, response = identity_query_leak(KeySet([2]), KeySet([3]), hidden_bit=1)
    assert guess == 1
    assert response == key_element([3])


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
    assert cipher.decode_text(mark_product(ct.values, signs)) == _MESSAGE


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
def test_mark_solver_errors_follow_the_walk_in_x(s, window, draws):
    # Mostly zeros and small values, so marks stay open across pairs and a
    # corrupted ciphertext entry can fail at a mark read, at an open mark
    # or at a mark fixed by an earlier pair.
    marks = key_marks(s, window)
    pairs = []
    for values, at, delta in draws:
        p = values[:window]
        c = mark_product(p, marks)
        c[at % window] += delta
        pairs.append((p, c))
    expected = _walked_mark_solver(pairs, window)
    if isinstance(expected, str):
        with pytest.raises(InconsistentPairsError) as info:
            known_plaintext_solver(pairs, window)
        assert str(info.value) == expected
        return
    result = known_plaintext_solver(pairs, window)
    assert result.undetermined == tuple(x + 1 for x, eps in enumerate(expected) if eps is None)
    assert result.marks == (None if result.undetermined else tuple(expected))


def test_solver_returns_marks_and_builds_matrix_on_access(monkeypatch):
    key = key_element([2, 5])
    expected = operator_matrix(key, 6)
    built = []
    build = attacks._operator_from_marks
    monkeypatch.setattr(attacks, "_operator_from_marks", lambda marks: built.append(marks) or build(marks))
    result = known_plaintext_solver(_probe_pairs(key, 6), 6)
    assert result.marks == tuple(key_marks([2, 5], 6))
    assert built == []
    assert result.matrix == expected
    assert result.matrix is result.matrix
    assert built == [result.marks]
    assert generic_plaintext_solver(_probe_pairs(key, 6), 6).marks is None


# -------------------------------------------------------------- demo drivers


def test_run_ambiguity_demo_succeeds():
    result = run_ambiguity_demo(KeySet([2, 3]), window=5, count=3)
    assert result.all_matrices_equal
    assert result.all_elements_differ
    assert [q for q, _ in result.twins] == [7, 11, 13]
    report = format_ambiguity_report(result)
    assert "{14, 21}" in report and "matrices identical" in report


def test_run_ambiguity_demo_compares_twins_by_marks(monkeypatch):
    # A key that is not a scaled twin has other marks on W_5: {2, 3} and
    # {2, 3, 5} differ at D5, so the demonstration must fail.
    monkeypatch.setattr(attacks, "ambiguous_family", lambda s, window, count: [KeySet([14, 21]), KeySet([2, 3, 5])])
    result = run_ambiguity_demo(KeySet([2, 3]), window=5, count=2)
    assert result.matrices_equal == (True, False)
    assert result.elements_differ == (True, True)
    assert not result.ok
    assert operator_matrix(key_element([2, 3, 5]), 5) != result.base_matrix


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
    assert result.matrices_equal == tuple(operator_matrix(key_element(t), window) == result.base_matrix for t in family)
    assert result.base_matrix == operator_matrix(base, window)


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
    report = format_kpa_report(result)
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


# W_1 with seed 139 draws the value 0 first: the all-zero fallback.  W_40000
# with 2 pairs draws across several getrandbits calls.
@pytest.mark.parametrize(
    "window, n_pairs, seeds",
    [(1, 1, [*range(40), 139]), (1, 9, range(20)), (3, 7, range(30)), (8, 1, range(30)), (60, 60, range(5)), (40000, 2, [0, 1])],
)
def test_run_kpa_demo_plaintexts_are_the_randint_loop(monkeypatch, window, n_pairs, seeds):
    assert random.Random(139).randint(0, 127) == 0
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
    assert result.solver.marks == tuple(key_marks([2, 3, 7, 12, 30], window))
    assert peak < 24 << 20, peak


def test_run_cpa_sweep_counts():
    result = run_cpa_sweep(max_index=5, max_size=2)
    n = 5 + 10  # singletons and pairs from 1..5
    assert result.key_sets == n
    assert result.games == n * (n - 1) * 2
    assert result.correct == result.games
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
    with pytest.raises(ValueError, match=f"more than {attacks.MAX_SWEEP_GAMES} games"):
        run_cpa_sweep(max_index, max_size)


def test_run_cpa_sweep_cap_is_inclusive(monkeypatch):
    games = 15 * 14 * 2  # max_index 5, max_size 2
    monkeypatch.setattr(attacks, "MAX_SWEEP_GAMES", games)
    assert run_cpa_sweep(5, 2).games == games
    monkeypatch.setattr(attacks, "MAX_SWEEP_GAMES", games - 1)
    monkeypatch.setattr(attacks, "run_cpa_experiment", None)
    with pytest.raises(ValueError, match=f"more than {games - 1} games"):
        run_cpa_sweep(5, 2)


def test_cpa_sweep_cap_admits_the_defaults_and_criterion_8():
    # --max-index 8 --max-size 3: 92 key sets, 16 744 games.
    assert 92 * 91 * 2 <= attacks.MAX_SWEEP_GAMES
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
    report = format_kpa_report(result)
    assert "underdetermined" in report
    assert "open marks     : D5\n" in report


def test_format_cpa_report_mentions_probe_and_queries():
    result, experiment = run_cpa_experiment(KeySet([2]), KeySet([3]), hidden_bit=1)
    report = format_cpa_report(result, experiment)
    assert "D3" in report
    assert "queries        : 1" in report
    assert "SUCCESS" in report
