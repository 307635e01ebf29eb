"""Shared hypothesis strategies for ring elements and key sets."""

import hypothesis.strategies as st

from brc.burnside import SO2, O2, BurnsideElement, D, KeySet


def generators(max_index: int = 64):
    return st.one_of(
        st.integers(1, max_index).map(D),
        st.just(SO2),
        st.just(O2),
    )


def elements(max_index: int = 64, max_terms: int = 8, max_coeff: int = 100):
    return st.dictionaries(
        generators(max_index),
        st.integers(-max_coeff, max_coeff),
        max_size=max_terms,
    ).map(BurnsideElement)


def key_sets(max_size: int = 8, max_index: int = 100):
    return st.sets(
        st.integers(1, max_index), min_size=1, max_size=max_size
    ).map(KeySet)


def plaintext_vectors(max_length: int = 64):
    return st.lists(st.integers(0, 127), min_size=1, max_size=max_length)


def unit_multipliers(max_index: int = 1000):
    """Elements with O2 coefficient 1 and arbitrary other terms.

    SO2, and dihedral classes above any window, so their window marks
    are odd but mostly not +-1: mostly no key element, for the window
    product and the operator matrix, which take any multiplier (the
    cipher takes a key set, never an element).
    """
    return st.dictionaries(generators(max_index), st.integers(-100, 100), max_size=8).map(
        lambda terms: BurnsideElement({**terms, O2: 1})
    )
