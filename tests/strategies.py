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


def window_elements(max_length: int = 300, max_terms: int = 40, max_coeff: int = 1000):
    """(L, element supported on D(1)..D(L)) pairs."""
    return st.integers(1, max_length).flatmap(
        lambda length: st.tuples(
            st.just(length),
            st.dictionaries(
                st.integers(1, length).map(D),
                st.integers(-max_coeff, max_coeff),
                max_size=max_terms,
            ).map(BurnsideElement),
        )
    )


def unit_multipliers(max_index: int = 1000):
    """Elements with O2 coefficient 1 and arbitrary other terms.

    SO2, and dihedral classes above any window, so their window marks
    are odd but mostly not +-1: multipliers that encrypt refuses unless
    the product happens to be an involution on the window.
    """
    return st.dictionaries(generators(max_index), st.integers(-100, 100), max_size=8).map(
        lambda terms: BurnsideElement({**terms, O2: 1})
    )
