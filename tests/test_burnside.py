import copy
import gc
import itertools
import pickle
import re
import tracemalloc
from functools import reduce
from inspect import isfunction
from math import gcd, prod
from operator import mul

import pytest
from hypothesis import example, given
import hypothesis.strategies as st

from brc import burnside, limits, marks
from brc.burnside import (
    IDENTITY,
    SO2,
    O2,
    ZERO,
    BurnsideElement,
    D,
    ElementFormatError,
    Generator,
    KeySet,
    basic_degree,
    key_coeff,
    key_coeff_bruteforce,
    key_coeff_fold,
    key_coeff_mobius,
    key_element,
    ring_encode,
)
from brc.degree import o2_lattice, recurrence_mul
from brc.marks import MarkAction, divisor_sums, from_divisor_sums, key_marks, window_marks
from strategies import elements, key_sets, unit_multipliers


def elem(**kw):
    terms = {}
    for label, c in kw.items():
        if label == "O2":
            terms[O2] = c
        elif label == "SO2":
            terms[SO2] = c
        else:
            terms[D(int(label[1:]))] = c
    return BurnsideElement(terms)


# ---------------------------------------------------------------- generators


def test_generator_total_order():
    assert sorted([O2, D(2), SO2, D(1), D(10)]) == [D(1), D(2), D(10), SO2, O2]


def test_generator_labels():
    assert D(7).label == "D7"
    assert SO2.label == "SO2"
    assert O2.label == "O2"


def test_dihedral_index_must_be_positive():
    with pytest.raises(ValueError):
        D(0)
    with pytest.raises(ValueError):
        D(-3)


def test_unknown_family_rejected():
    with pytest.raises(ValueError):
        Generator(7, 1)


@pytest.mark.parametrize("g", [D(1), D(12), SO2, O2])
def test_generator_pickle_and_copy_roundtrip(g):
    for back in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert type(back) is Generator
        assert back == g
        assert hash(back) == hash(g)
        assert back.label == g.label


def test_generator_sorts_in_basis_order():
    assert sorted([O2, SO2, D(10), D(2)]) == [D(2), D(10), SO2, O2]


def test_generator_repr_and_str_are_labels():
    assert [repr(g) for g in (D(4), SO2, O2)] == ["D4", "SO2", "O2"]
    assert [str(g) for g in (D(4), SO2, O2)] == ["D4", "SO2", "O2"]


def test_generator_is_immutable():
    g = D(3)
    with pytest.raises(AttributeError):
        g.index = 4
    assert g.family == 0 and g.index == 3


def test_generator_constructor_equals_d():
    assert Generator(0, 3) == D(3)
    assert hash(Generator(0, 3)) == hash(D(3))


def test_element_rejects_plain_tuple_key():
    with pytest.raises(TypeError):
        BurnsideElement({(0, 3): 1})


@pytest.mark.parametrize(
    "build",
    [
        lambda: Generator(0, 2.0),
        lambda: Generator(0, True),
        lambda: D(True),
        lambda: Generator(2, False),
        lambda: BurnsideElement({D(1): True, O2: 1}),
        lambda: BurnsideElement({O2: True}),
        lambda: BurnsideElement({SO2: 2.0}),
        lambda: ring_encode([True, 2]),
        lambda: ring_encode([1, 2.5]),
    ],
    ids=["index-float", "index-bool", "D-bool", "O2-index-bool", "coeff-bool", "O2-bool", "SO2-float",
         "encode-bool", "encode-float"],
)
def test_bool_and_non_int_indices_and_coefficients_rejected(build):
    # True would be stored as is and render as "D1 True", which parse rejects.
    with pytest.raises(TypeError):
        build()


# ------------------------------------------------------------------ elements


def test_coeff_lookup():
    a = elem(D1=2, D2=-1)
    assert a.coeff(D(2)) == -1
    assert a.coeff(D(1)) == 2


def test_coeff_absent_generator_is_zero():
    assert elem(O2=1).coeff(SO2) == 0


def test_coeff_of_key_element():
    assert key_element([2, 3]).coeff(D(1)) == 2


@given(elements())
def test_dihedral_coeff_reads_coeff_by_int_index(a):
    for n in range(1, 66):
        assert a.dihedral_coeff(n) == a.coeff(D(n))


@pytest.mark.parametrize(
    "n, error", [(0, ValueError), (-3, ValueError), (True, TypeError), (2.0, TypeError), ("2", TypeError)]
)
def test_dihedral_coeff_refuses_what_d_refuses(n, error):
    with pytest.raises(error):
        D(n)
    with pytest.raises(error):
        key_element([2, 3]).dihedral_coeff(n)


def test_zero_coefficients_dropped():
    a = BurnsideElement({D(1): 0, D(2): 5})
    assert a.support() == (D(2),)
    assert a == elem(D2=5)


def test_mul_table_gcd_rule():
    assert elem(D4=1) * elem(D6=1) == elem(D2=2)


def test_mul_table_rotation_annihilates_dihedral():
    assert elem(SO2=1) * elem(D7=1) == ZERO


def test_mul_bilinear_expansion():
    # (3*D1 + D2) * (O2 - D2) = 3*D1 + D2 - 6*D1 - 2*D2 = -3*D1 - D2
    a = elem(D1=3, D2=1)
    b = elem(O2=1, D2=-1)
    assert a * b == elem(D1=-3, D2=-1)


def test_scalar_multiplication():
    a = elem(D1=3, O2=-1)
    assert 2 * a == elem(D1=6, O2=-2)
    assert a * 0 == ZERO


def test_addition_cancels_to_canonical_form():
    a = elem(D1=3, D2=1)
    b = elem(D1=-3, SO2=4)
    assert a + b == elem(D2=1, SO2=4)
    assert (a - a) == ZERO
    assert not (a - a)


# ------------------------------------------------------------------ rendering


def test_render_canonical_order():
    assert key_element([2, 3]).render() == "D1 2\nD2 -1\nD3 -1\nO2 1"


def test_render_zero():
    assert ZERO.render() == "0"


def test_parse_roundtrip_examples():
    for e in (ZERO, IDENTITY, key_element([2, 3]), elem(D5=-7, SO2=2)):
        assert BurnsideElement.parse(e.render()) == e


@given(elements(max_coeff=10**100))
def test_parse_inverts_render(a):
    # The bulk rendering against one formatted line per term.
    text = a.render()
    assert text == ("\n".join(f"{g.label} {c}" for g, c in a.terms()) or "0")
    assert BurnsideElement.parse(text) == a


def test_freed_element_leaves_no_generators_behind():
    # A 2**16-term key element (the first 16 odd primes' product over
    # each one, a key no other test builds): once it is freed, nothing
    # module-level may keep its classes, which take several MiB.
    primes = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]
    s = KeySet(prod(primes) // q for q in primes)
    tracemalloc.start()
    try:
        k = key_element(s)
        assert len(k.support()) == 2**16
        assert BurnsideElement.parse(k.render()) == k
        del k
        gc.collect()
        left = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert left < 1 << 20


@pytest.mark.parametrize(
    "text",
    [
        "",
        "D0 1",
        "Q3 1",
        "D2 0",
        "D2 one",
        "D2 1\nD1 1",  # out of order
        "D1 1\nD3 1\nD2 1\nD4 1",  # out of order, labels spanning their count
        "D1 1\nD3 1\nD3 1\nD4 1",  # repeated, labels spanning their count
        "D2 1 extra",
        "O2 1\nO2 2",  # duplicate
        # non-canonical tokens and spacing
        "D01 1",
        "D1 01",
        "D1 +1",
        "D1 -0",
        "D1 1_0",
        "D\u00b2 1",  # superscript two
        "D1 \u0663",  # Arabic-Indic three
        "D1  1",
        " D1 1",
        "D1 1 ",
        "D1 1\n",
        "D1 1\n\nD2 1",
        "D1 1\r\nD2 1",
        "0\n",
        "-0",
        "D" + "1" * 5000 + " 1",  # more digits than int() converts
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(ElementFormatError):
        BurnsideElement.parse(text)


# The exact messages, with non-ASCII lines quoted as the text they came from.
@pytest.mark.parametrize(
    "text, message",
    [
        ("D\u00b2 5", "term line 'D\u00b2 5' is malformed"),
        ("D1 \u0662", "term line 'D1 \u0662' is malformed"),
        ("O2 \u0663", "term line 'O2 \u0663' is malformed"),
        ("D1 5\nD\u00b2 5", "term line 'D\u00b2 5' is malformed"),
        ("SO2 \u0663\nO2 1", "term line 'SO2 \u0663' is malformed"),
        ("D1 1\r\nD2 1", "term line 'D1 1\\r' is malformed"),
        ("D1 5\nSO2 1\nD3 1", "term line 'SO2 1' is malformed"),
    ],
)
def test_parse_error_texts(text, message):
    with pytest.raises(ElementFormatError) as exc:
        BurnsideElement.parse(text)
    assert str(exc.value) == message


# Characters of the element grammar plus near misses, a lone surrogate among them.
_ELEMENT_ALPHABET = "DSO0123456789- +_\n\r\t\u00b2\u0662\udcff"


@st.composite
def element_texts(draw):
    """A rendered element with up to three small random edits."""
    text = draw(elements(max_index=30)).render()
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 2)))
        text = text[:i] + draw(st.text(alphabet=_ELEMENT_ALPHABET, max_size=2)) + text[j:]
    return text


@given(st.one_of(st.text(), element_texts()))
def test_parse_accepts_only_canonical_text(text):
    try:
        a = BurnsideElement.parse(text)
    except ElementFormatError:
        return
    assert a.render() == text


def test_str_compact_form():
    assert str(key_element([2])) == "O2 - D2"
    assert str(ZERO) == "0"


# ------------------------------------------------------------------ key sets


def test_key_set_normalizes_order():
    assert KeySet([3, 2]).indices == (2, 3)


# [1, "a"] and ["a", 1] cannot be sorted: the type check comes first.
@pytest.mark.parametrize("bad", [[], [0], [-1], [2, 2], [1.5], [True, 2], [1, "a"], ["a", 1]])
def test_key_set_rejects_invalid(bad):
    with pytest.raises(ValueError):
        KeySet(bad)


def test_key_set_container_protocol():
    s = KeySet([5, 2])
    assert list(s) == [2, 5]
    assert len(s) == 2
    assert 5 in s and 3 not in s
    assert s.max_index == 5
    assert (str(s), repr(s)) == ("{2, 5}", "KeySet((2, 5))")
    assert (str(KeySet([3])), repr(KeySet([3]))) == ("{3}", "KeySet((3,))")


def test_key_set_is_a_slotted_tuple_with_the_tuple_protocol():
    assert KeySet.__bases__ == (tuple,)
    assert KeySet.__slots__ == ()
    assert not {"__iter__", "__len__", "__contains__", "__eq__", "__hash__"} & vars(KeySet).keys()


# Indices of one digit to past the key file's digit cap.
_key_indices = st.one_of(st.integers(1, 60), st.integers(1, 10**40))


@given(st.lists(_key_indices, min_size=1, max_size=24, unique=True))
@example([5, 2])
@example([3])
def test_key_set_is_the_sorted_tuple_of_its_indices(xs):
    s, t = KeySet(xs), tuple(sorted(xs))
    assert tuple(s) == s.indices == t
    assert type(s.indices) is tuple
    assert (len(s), list(s), hash(s), s.max_index) == (len(t), list(t), hash(t), t[-1])
    assert all(i in s for i in xs)
    assert 0 not in s and t[-1] + 1 not in s and str(t[0]) not in s
    # The texts printed before a key set was a tuple.
    assert str(s) == "{" + ", ".join(str(i) for i in t) + "}"
    assert repr(s) == f"KeySet({t})"
    for back in (pickle.loads(pickle.dumps(s)), copy.copy(s), copy.deepcopy(s)):
        assert type(back) is KeySet
        assert back == s and hash(back) == hash(s)
    # New as a tuple: a key set equals the plain tuple of its indices, and no list.
    assert s == t and t == s and s != list(t)


def _key_set_error(xs):
    """The ValueError text of KeySet(xs), or None: the first failing rule, in this order."""
    if not xs:
        return "key set must be non-empty"
    for i in xs:
        if isinstance(i, bool) or not isinstance(i, int):
            return f"key index must be an int, got {i!r}"
        if i < 1:
            return f"key index must be >= 1, got {i}"
    if len(set(xs)) != len(xs):
        return f"duplicate key indices in {tuple(sorted(xs))}"
    return None


@given(st.lists(st.one_of(st.integers(-2, 6), st.booleans(), st.floats(), st.text(max_size=1)), max_size=5))
@example([])
@example([2, 2])
@example([3, 1, 3])
@example([1, "a"])
@example(["a", 1])
def test_key_set_refuses_invalid_lists_with_the_same_texts(xs):
    error = _key_set_error(xs)
    if error is None:
        assert tuple(KeySet(xs)) == tuple(sorted(xs))
        return
    with pytest.raises(ValueError) as exc:
        KeySet(xs)
    assert str(exc.value) == error


# ------------------------------------------------------------- basic degrees


def test_basic_degree_trivial_representation():
    assert basic_degree(0) == IDENTITY


def test_basic_degree_formula():
    assert basic_degree(5) == elem(O2=1, D5=-1)


def test_basic_degree_is_involution():
    assert basic_degree(5) * basic_degree(5) == IDENTITY


def test_basic_degree_rejects_negative():
    with pytest.raises(ValueError):
        basic_degree(-1)


def test_key_element_single_index():
    assert key_element([2]) == elem(O2=1, D2=-1)


def test_key_element_two_indices():
    assert key_element([2, 3]) == elem(O2=1, D1=2, D2=-1, D3=-1)


def test_key_element_is_involution():
    k = key_element([2, 3])
    assert k * k == IDENTITY


def _chained_key_element(s):
    # The left-to-right IDENTITY * basic_degree(i) * ... chain of ring products.
    return reduce(mul, map(basic_degree, sorted(s)), IDENTITY)


# Key indices up to 30 digits: small ones with many shared divisors, large
# random ones, and large multiples of small ones, so gcds above 1 occur.
_key_indices = st.one_of(
    st.integers(1, 120),
    st.integers(1, 10**30 - 1),
    st.builds(mul, st.integers(1, 60), st.integers(1, 10**28)),
)


@given(st.sets(_key_indices, min_size=1, max_size=12))
def test_key_element_equals_ring_product_chain(s):
    k = key_element(s)
    chained = _chained_key_element(s)
    assert k == chained
    assert k.render() == chained.render()


def test_key_element_sixteen_index_prime_product():
    # The product of the first 16 primes over each prime: every subset of
    # the 16 indices has its own gcd, so the key element has 2**16 terms.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
    s = KeySet(prod(primes) // q for q in primes)
    k = key_element(s)
    chained = _chained_key_element(s)
    assert len(k.support()) == 2**16
    assert k == chained
    assert k.render() == chained.render()


def test_key_element_never_calls_ring_product(monkeypatch):
    # key_element is one of the prop-coeff check's three independent
    # algorithms: it must not reach BurnsideElement.__mul__, which
    # key_coeff_bruteforce chains once per index.
    s = KeySet([4, 6, 9, 10, 15, 35])
    want = _chained_key_element(s)
    want_coeffs = {n: key_coeff_bruteforce(s, n) for n in range(1, s.max_index + 1)}
    real_mul = BurnsideElement.__mul__
    calls = []

    def refuse(self, other):
        raise AssertionError("BurnsideElement.__mul__ called")

    def count(self, other):
        calls.append(other)
        return real_mul(self, other)

    monkeypatch.setattr(BurnsideElement, "__mul__", refuse)
    assert key_element(s) == want
    monkeypatch.setattr(BurnsideElement, "__mul__", count)
    assert {n: key_coeff_bruteforce(s, n) for n in want_coeffs} == want_coeffs
    assert len(calls) == len(s) * len(want_coeffs)


# ------------------------------------------------------- coefficient formulas


def test_key_coeff_examples():
    assert key_coeff([2, 3], 1) == 2
    assert key_coeff([2, 3], 2) == -1
    assert key_coeff([2], 7) == 0


def test_key_coeff_fold_examples():
    assert key_coeff_fold([2, 3], 2) == -1
    assert key_coeff_fold([2, 3], 1) == 0
    assert key_coeff_fold([3], 3) == -1


def test_key_coeff_bruteforce_examples():
    assert key_coeff_bruteforce([2, 3], 1) == 2
    assert key_coeff_bruteforce([4], 4) == -1
    # oracle equality, value frozen from the expansion itself
    assert key_coeff_bruteforce([2, 4, 6], 2) == key_coeff([2, 4, 6], 2) == 1


def test_key_coeff_rejects_bad_index():
    with pytest.raises(ValueError):
        key_coeff([2, 3], 0)
    with pytest.raises(ValueError):
        key_coeff_fold([2, 3], 0)
    with pytest.raises(ValueError):
        key_coeff_bruteforce([2, 3], -1)
    with pytest.raises(ValueError):
        key_coeff_mobius([2, 3], 0)


_COEFF_FUNCTIONS = [key_coeff, key_coeff_fold, key_coeff_bruteforce, key_coeff_mobius]


@pytest.mark.parametrize("fn", _COEFF_FUNCTIONS)
@pytest.mark.parametrize("index", [True, False, 2.0, "2", None])
def test_coefficient_functions_refuse_a_non_int_index(monkeypatch, fn, index):
    # dihedral_coeff's TypeError, raised before anything else: the key set
    # is above the subset cap and, at n = 1, above the Mobius bound, and
    # any enumeration fails the test.
    with pytest.raises(TypeError) as dihedral:
        key_element([2, 3]).dihedral_coeff(index)

    def refuse(*args):
        raise AssertionError("work started")

    monkeypatch.setattr(burnside, "combinations", refuse)
    monkeypatch.setattr(burnside, "countOf", refuse)
    monkeypatch.setattr(burnside, "basic_degree", refuse)
    with pytest.raises(TypeError, match=f"^{re.escape(str(dihedral.value))}$"):
        fn([*range(1, 22), 10**6], index)


def test_subset_cap_enforced(monkeypatch):
    big = KeySet(range(1, 22))
    with pytest.raises(ValueError):
        key_coeff(big, 1)
    with pytest.raises(ValueError):
        key_coeff_bruteforce(big, 1)

    def refuse(*args):
        raise AssertionError("gcd taken")

    # The cap comes before the fold's x > max(s) shortcut and before any gcd.
    monkeypatch.setattr(burnside, "gcd", refuse)
    for x in (1, 22, 10**12):
        with pytest.raises(ValueError, match="^key set has 21 indices, above the limit 20$"):
            key_coeff_fold(big, x)


def _key_coeff_per_subset(s, s0):
    # The per-subset loop key_coeff used to run, kept as a reference.
    total = 0
    for r in range(2, len(s) + 1):
        for sub in itertools.combinations(s.indices, r):
            if gcd(*sub) == s0:
                total += (-2) ** (r - 2)
    return -(1 if s0 in s else 0) + 2 * total


@given(key_sets(max_size=8, max_index=60), st.integers(1, 70))
def test_key_coeff_and_fold_match_their_definitions(s, x):
    assert key_coeff(s, x) == _key_coeff_per_subset(s, x)
    fold = key_coeff_fold(s, x)
    assert fold == sum(key_coeff(s, n) for n in range(x, s.max_index + 1, x))
    # The probe's own mark, which the one-query distinguisher reads.
    assert 1 + 2 * fold == (-1) ** sum(1 for i in s if i % x == 0)


def _key_coeff_fold_per_subset(s, x):
    # The fold by its definition, one subset of s at a time: [x | gcd(I)].
    total = 0
    for r in range(2, len(s) + 1):
        for sub in itertools.combinations(s.indices, r):
            if gcd(*sub) % x == 0:
                total += (-2) ** (r - 2)
    return -sum(1 for i in s if i % x == 0) + 2 * total


# Products of small prime powers, up to limits.MAX_INDEX_DIGITS digits
# (the cube of 2*3*...*29 has 30): a probe and an index mostly share some
# primes and not others, so gcd(x, i) is mostly neither 1, x nor i.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)


def _smooth(primes, max_exponent):
    exponents = st.lists(st.integers(0, max_exponent), min_size=len(primes), max_size=len(primes))
    return exponents.map(lambda es: prod(p**e for p, e in zip(primes, es)))


@st.composite
def _smooth_keys_and_probes(draw):
    s = draw(st.sets(_smooth(_SMALL_PRIMES, 3), min_size=1, max_size=8).map(KeySet))
    x = draw(_smooth(_SMALL_PRIMES[:6], 2))
    if draw(st.booleans()):
        # A probe that divides some indices, so that x | gcd(I) occurs.
        x = gcd(x, *draw(st.lists(st.sampled_from(s.indices), min_size=1, max_size=3)))
    return s, x


@given(_smooth_keys_and_probes())
@example((KeySet([2 * 3 * 5 * 7**2, 2**2 * 3 * 11, 3 * 5 * 13, 2 * 3 * 5 * 7]), 2 * 3 * 7))
def test_key_coeff_fold_matches_its_definition_on_smooth_indices(key_and_probe):
    s, x = key_and_probe
    assert s.max_index < 10**limits.MAX_INDEX_DIGITS
    fold = key_coeff_fold(s, x)
    assert fold == _key_coeff_fold_per_subset(s, x)
    assert 1 + 2 * fold == (-1) ** sum(1 for i in s if i % x == 0)


@pytest.mark.parametrize("fn", [key_coeff, key_coeff_fold])
@pytest.mark.parametrize("n", [1, 2, 3, 7, 12])
def test_key_coeff_enumerates_each_subset_once(monkeypatch, fn, n):
    # key_coeff enumerates the indices; the fold enumerates their gcds
    # with the probe, one per index, so equal gcds still count apart.
    s = KeySet([2, 3, 4, 6, 8, 12, 16])
    seen = []

    def counted(indices, r):
        for sub in itertools.combinations(indices, r):
            seen.append(sub)
            yield sub

    monkeypatch.setattr(burnside, "combinations", counted)
    fn(s, n)
    values = s.indices if fn is key_coeff else tuple(gcd(n, i) for i in s)
    subsets = [sub for r in range(2, len(s) + 1) for sub in itertools.combinations(values, r)]
    assert len(subsets) == 2**7 - 8
    assert sorted(seen) == sorted(subsets)


def test_key_coeff_fold_above_max_enumerates_nothing(monkeypatch):
    def refuse(indices, r):
        raise AssertionError("subsets enumerated")

    monkeypatch.setattr(burnside, "combinations", refuse)
    assert key_coeff_fold([2, 3, 5], 6) == 0
    assert key_coeff_fold([2, 3, 5], 10**12) == 0


def test_key_coeff_mobius_examples():
    # S = {2, 3}, n = 1: eps is -1 at D2 and D3 and +1 at D1 and D6, so
    # a_1 = -(mu(2) + mu(3)) = 2.
    assert key_coeff_mobius([2, 3], 1) == 2
    assert key_coeff_mobius([2, 3], 2) == -1
    assert key_coeff_mobius([2, 3], 6) == 0
    assert key_coeff_mobius([4], 4) == -1
    assert key_coeff_mobius([4], 2) == 0
    assert key_coeff_mobius([2, 4, 6], 2) == 1
    # key_element([6, 10, 15]) = O2 - D6 - D10 - D15 + 2*D2 + 2*D3 + 2*D5 - 4*D1.
    assert [key_coeff_mobius([6, 10, 15], n) for n in range(1, 16)] == [
        key_element([6, 10, 15]).dihedral_coeff(n) for n in range(1, 16)
    ]
    assert key_coeff_mobius([6, 10, 15], 1) == -4
    # n above max(s): no multiple of n reaches a key index.
    assert key_coeff_mobius([2, 3], 4) == 0
    assert key_coeff_mobius([2, 3], 10**40) == 0


@given(key_sets(max_size=7, max_index=59), st.integers(1, 70))
@example(KeySet([1]), 1)
@example(KeySet([30, 42, 59]), 70)
def test_key_coeff_mobius_equals_key_coeff(s, n):
    assert key_coeff_mobius(s, n) == key_coeff(s, n)


def test_key_coeff_mobius_refuses_above_its_bound_before_any_work(monkeypatch):
    bound = limits.MAX_MOBIUS_QUOTIENT

    def refuse(*args):
        raise AssertionError("work started")

    with monkeypatch.context() as patched:
        patched.setattr(burnside, "countOf", refuse)
        patched.setattr(burnside, "_mobius", refuse)
        for s, n in [([bound + 1], 1), ([2, 2 * bound + 2], 2), ([10**29, 10**29 + 1], 7)]:
            with pytest.raises(ValueError, match="bound"):
                key_coeff_mobius(s, n)
    # The bound is inclusive.
    assert key_coeff_mobius([bound], 1) == key_element([bound]).dihedral_coeff(1) == 0
    assert key_coeff_mobius([2, 2 * bound + 1], 2) == -1


def test_key_coeff_mobius_shares_no_code_with_the_other_sides(monkeypatch):
    # The Mobius side must not reach the ring product, the fold, the
    # subset enumeration or the cipher's mark code, its prime table included.
    sets = [KeySet([4, 6, 9, 10, 15, 35]), KeySet([2, 3, 5, 7, 11, 13, 30, 60])]
    want = {s: [key_element(s).dihedral_coeff(n) for n in range(1, s.max_index + 3)] for s in sets}

    def refuse(*args):
        raise AssertionError("shared code called")

    monkeypatch.setattr(BurnsideElement, "__mul__", refuse)
    for name in ("key_element", "_key_fold", "_signed_subset_count"):
        monkeypatch.setattr(burnside, name, refuse)
    functions = [name for name, value in vars(marks).items() if isfunction(value) and value.__module__ == marks.__name__]
    assert {"_sieve", "_prime_table", "_divisors_upto", "key_marks", "_mobius_column"} <= set(functions)
    for name in functions:
        monkeypatch.setattr(marks, name, refuse)
    for name in ("__init__", "__call__"):
        monkeypatch.setattr(marks.MarkAction, name, refuse)
    for s, coeffs in want.items():
        assert [key_coeff_mobius(s, n) for n in range(1, s.max_index + 3)] == coeffs


# ------------------------------------------------------------ ring properties


@given(elements(), elements())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(elements(max_terms=5), elements(max_terms=5), elements(max_terms=5))
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(elements(), elements(), elements())
def test_mul_distributes_over_addition(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(elements(max_terms=12, max_coeff=2**80))
@example(BurnsideElement({O2: -(2**70), SO2: 3, D(4): 2**65 + 1, D(6): -5, D(9): 7}))
def test_square_equals_product_of_equal_copies(a):
    # a * a takes the square branch (both operands one object); the parsed
    # copy is a distinct equal element, so the right side takes the general path.
    copy = BurnsideElement.parse(a.render())
    assert copy is not a
    assert a * a == a * copy


@given(elements(), elements(), st.integers(-100, 100))
def test_mul_scalar_bilinearity(a, b, n):
    assert (n * a) * b == n * (a * b)


@given(elements())
def test_identity_element(a):
    assert IDENTITY * a == a
    assert a * IDENTITY == a


@given(key_sets(max_size=8, max_index=100))
def test_key_involution_random(s):
    k = key_element(s)
    assert k * k == IDENTITY


@given(key_sets(max_size=8, max_index=60), st.integers(1, 60))
def test_closed_form_matches_expansion(s, s0):
    closed = key_coeff(s, s0)
    assert closed == key_coeff_bruteforce(s, s0)
    assert closed == key_element(s).coeff(D(s0))


@given(key_sets(max_size=8, max_index=60), st.integers(1, 60))
def test_coeff_parity_marks_membership(s, s0):
    assert (key_coeff(s, s0) % 2 == 1) == (s0 in s)


@given(key_sets())
def test_key_element_structure(s):
    k = key_element(s)
    assert k.coeff(O2) == 1
    assert k.coeff(SO2) == 0


@given(key_sets(max_size=6, max_index=40))
def test_key_coeff_vanishes_above_max_index(s):
    for n in range(s.max_index + 1, s.max_index + 11):
        assert key_coeff(s, n) == 0


_LATTICE_24 = o2_lattice(24)


@given(elements(max_index=24, max_coeff=3), elements(max_index=24, max_coeff=3))
@example(elem(D1=1, O2=-2), elem(D1=1))  # 2*D1 - 2*D1: the product is zero
@example(elem(SO2=1, O2=-2), elem(SO2=1))  # 2*SO2 - 2*SO2
@example(elem(D2=1, D3=-1), elem(D2=1, D3=1))  # the D1 terms cancel
def test_mul_equals_lattice_recurrence_expansion(a, b):
    expected = ZERO
    for g, x in a.terms():
        for h, y in b.terms():
            expected = expected + recurrence_mul(g, h, _LATTICE_24) * (x * y)
    product = a * b
    assert product == expected
    assert all(c for _, c in product.terms())


# ------------------------------------------------------ window product


def _window_vector(a, length):
    return [a.coeff(D(n)) for n in range(1, length + 1)]


def _action(k, length):
    # The MarkAction of k on W_length, from the non-unit ones of its dense marks.
    return MarkAction({x: m for x, m in enumerate(window_marks(k, length), 1) if m != 1}, length)


def test_window_product_examples():
    # (3*D1 + D2) * (O2 - D2) = -3*D1 - D2, and SO2 annihilates the window.
    assert _action(key_element([2]), 2)([3, 1]) == [-3, -1]
    assert _action(elem(SO2=5), 2)([3, 1]) == [0, 0]
    assert _action(elem(O2=2, D6=1), 3)([0, 0, 7]) == [0, 0, 28]


@given(
    st.lists(st.integers(-1000, 1000), min_size=1, max_size=300),
    st.one_of(elements(max_index=1000), unit_multipliers()),
)
def test_window_product_equals_ring_product(values, k):
    # The mark product is exact for every multiplier, not only for keys.
    p = BurnsideElement({D(n): v for n, v in enumerate(values, start=1)})
    assert _action(k, len(values))(values) == _window_vector(p * k, len(values))


@pytest.mark.parametrize("length", [1, 2, 3, 7, 100])
def test_divisor_sums_equal_naive_sums(length):
    values = [(37 * n) % 23 - 11 for n in range(1, length + 1)]
    naive = [sum(values[n - 1] for n in range(x, length + 1, x)) for x in range(1, length + 1)]
    assert divisor_sums(values) == naive
    assert divisor_sums(tuple(values)) == naive


# ------------------------------------------------------------------ marks


@given(elements(max_index=1000), st.integers(0, 60))
def test_window_marks_equal_mark_definition(k, length):
    # phi_x(k) = k_O2 + 2 * sum_{x|n} k_n; SO2 has mark 0 at every D(x).
    want = [
        k.coeff(O2) + 2 * sum(c for g, c in k.terms() if g.is_dihedral and g.index % x == 0)
        for x in range(1, length + 1)
    ]
    assert window_marks(k, length) == want


@given(key_sets(max_size=8, max_index=1000), st.integers(0, 60))
def test_key_marks_equal_marks_of_key_element(s, length):
    # Indices up to 1000 on windows up to 60: most lie above the window.
    direct = [(-1) ** sum(1 for i in s if i % x == 0) for x in range(1, length + 1)]
    assert window_marks(key_element(s), length) == direct
    sparse = key_marks(s, length)
    # Exactly the -1 set, ascending, and no mark of 1 stored.
    assert sparse == {x: -1 for x, eps in enumerate(direct, 1) if eps == -1}
    assert list(sparse) == sorted(sparse)
    assert 1 not in sparse.values()


def test_key_marks_of_huge_indices():
    # Neither the size of S nor of its indices enters the cost beyond a
    # walk of the divisors <= L: 18 indices of 22 and 23 digits mark W_6 directly.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    total = 1
    for q in primes:
        total *= q
    s = KeySet(total // q for q in primes)
    # 2, 3 and 5 divide all but one index (17 of 18: odd), 4 divides none.
    assert key_marks(s, 6) == {2: -1, 3: -1, 5: -1}


@st.composite
def mark_action_cases(draw):
    """(values, marks) on one window: values a list or a tuple, marks a map {x: eps_x} of four shapes."""
    length = draw(st.integers(1, 200))
    values = draw(st.lists(st.integers(-1000, 1000), min_size=length, max_size=length))
    if draw(st.booleans()):
        values = tuple(values)
    shape = draw(st.sampled_from(["key", "signs", "ones", "integers"]))
    if shape == "key":
        index = st.one_of(st.integers(1, length), st.integers(1, 10**6))
        return values, key_marks(KeySet(draw(st.sets(index, min_size=1, max_size=10))), length)
    if shape == "signs":
        # +-1 marks ending in a run of 1s of any length, up to the whole window.
        top = draw(st.integers(0, length))
        eps = draw(st.lists(st.sampled_from([1, -1]), min_size=top, max_size=top)) + [1] * (length - top)
    elif shape == "ones":
        eps = [1] * length
    else:
        eps = draw(st.lists(st.integers(-(10**6), 10**6), min_size=length, max_size=length))
    # Marks of 1 may be stored or left out: either way their x has mark 1.
    keep_ones = draw(st.booleans())
    return values, {x: m for x, m in enumerate(eps, 1) if keep_ones or m != 1}


def _lone_mark(x, length, mark=-1):
    # Values 1..length, so F_x != 0, and one non-unit mark, at x.
    return list(range(1, length + 1)), {x: mark}


@given(mark_action_cases())
@example(([7], {1: -1}))  # L = 1
@example(_lone_mark(1, 5))  # x = 1: the column is e_1 alone
# Squareful x: the quotients by q with mu(q) = 0 are dropped.
@example(_lone_mark(4, 12))
@example(_lone_mark(8, 16))
@example(_lone_mark(9, 27))
@example(_lone_mark(12, 24, 3))
@example(_lone_mark(30, 60))  # 8-term column
@example(_lone_mark(210, 210, 0))  # 16-term column, at x = L
@example(((3, -4, 5), {}))  # no column: the product is p itself
@example(([1, -2, 3, -4, 5, -6], {2: -1, 6: -1}))  # columns up to x = L
@example(([3, -4, 5], {1: 1, 2: 1, 3: 1}))  # marks of 1 stored: a new list equal to p
@example(([5, -3, 2, 9], {4: -1}))  # the only non-unit mark at x = L
@example(([4, 0, -7, 2, 6, -1, 3], {7: -1, 5: -1}))  # non-unit marks only above L/2, x descending
def test_mark_action_equals_dense_reference(case):
    values, marks = case
    before = (list(values), dict(marks))
    eps = [marks.get(x, 1) for x in range(1, len(values) + 1)]
    dense = from_divisor_sums([m * f for m, f in zip(eps, divisor_sums(values))])
    out = MarkAction(marks, len(values))(values)
    assert out == dense
    assert type(out) is list and out is not values
    assert (list(values), dict(marks)) == before


@pytest.mark.parametrize(
    "k",
    [
        elem(O2=1, D6=1),  # marks 3 at x = 1, 2, 3, 6 (above L/2), 1 elsewhere
        elem(O2=2, D4=-1),  # marks 0 at x = 1, 2, 4, 2 elsewhere: a column at every x
        elem(O2=1, D7=1, D9=-1),  # marks 3 at x = 7 and -1 at x = 3, 9: the last column at 9 < L
    ],
)
def test_mark_action_takes_marks_of_a_general_element(k):
    values = [(-1) ** n * n for n in range(1, 11)]
    p = BurnsideElement({D(n): v for n, v in enumerate(values, start=1)})
    assert _action(k, 10)(values) == _window_vector(p * k, 10)


def test_mark_action_rejects_length_mismatch():
    with pytest.raises(ValueError, match="marks"):
        MarkAction({2: -1}, 2)([1, 2, 3])


@pytest.mark.parametrize("mapping", [{0: -1}, {6: -1}, {-2: 3}, {2: -1, 10**40: -1}, {2: -1, 6: 1}])
def test_mark_action_rejects_a_mark_outside_the_window(monkeypatch, mapping):
    # A map can key a mark where no window x is; it is refused before any
    # column is built or the prime table is read, also for a mark of 1.
    def refuse(*args):
        raise AssertionError("column built")

    monkeypatch.setattr(marks, "_mobius_column", refuse)
    monkeypatch.setattr(marks, "_prime_table", refuse)
    outside = next(x for x in mapping if not 1 <= x <= 5)
    with pytest.raises(ValueError, match=rf"^mark at D{outside} outside the window W_5$"):
        MarkAction(mapping, 5)
