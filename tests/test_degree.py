import dataclasses
import tracemalloc

import pytest
from hypothesis import given
import hypothesis.strategies as st

from brc.burnside import (
    IDENTITY,
    SO2,
    O2,
    ZERO,
    BurnsideElement,
    D,
    basic_degree,
    key_element,
)
from brc.degree import (
    LatticeConsistencyError,
    basic_degree_recurrence,
    fixed_point_dims,
    linear_iso_degree,
    o2_lattice,
    recurrence_mul,
)
from brc.verify import MAX_IRREP


# ------------------------------------------------------------ lattice fixture


def test_lattice_containment_counts():
    lat = o2_lattice(12)
    assert lat.contains_count(D(2), D(6)) == 1
    assert lat.contains_count(D(2), D(5)) == 0
    assert lat.contains_count(D(3), SO2) == 0
    assert lat.contains_count(D(3), O2) == 1
    assert lat.contains_count(SO2, SO2) == 1
    assert lat.contains_count(SO2, O2) == 1
    assert lat.contains_count(O2, O2) == 1
    assert lat.contains_count(SO2, D(4)) == 0


def test_lattice_weyl_orders():
    lat = o2_lattice(4)
    assert lat.weyl_order(O2) == 1
    assert lat.weyl_order(SO2) == 2
    assert all(lat.weyl_order(D(k)) == 2 for k in range(1, 5))


def test_lattice_self_containment():
    lat = o2_lattice(8)
    for cls in lat.classes:
        assert lat.contains_count(cls, cls) == 1


def test_lattice_classes_descend():
    lat = o2_lattice(3)
    assert lat.classes == (O2, SO2, D(3), D(2), D(1))


def test_positive_count_implies_partial_order():
    lat = o2_lattice(10)
    for h in lat.classes:
        for k in lat.classes:
            if lat.contains_count(h, k) > 0:
                assert lat.leq(h, k)


def test_partial_order_rules():
    lat = o2_lattice(10)
    assert lat.leq(D(2), D(6))
    assert not lat.leq(D(2), D(5))
    assert lat.leq(D(7), O2)
    assert not lat.leq(D(7), SO2)
    assert lat.leq(SO2, O2)
    assert not lat.leq(O2, SO2)


# ------------------------------------------------------- recurrence product


def test_recurrence_mul_gcd_rule():
    lat = o2_lattice(24)
    assert recurrence_mul(D(4), D(6), lat) == BurnsideElement({D(2): 2})


def test_recurrence_mul_rotation_row():
    lat = o2_lattice(8)
    assert recurrence_mul(SO2, D(5), lat) == ZERO
    assert recurrence_mul(SO2, SO2, lat) == BurnsideElement({SO2: 2})


def test_recurrence_mul_identity_row():
    lat = o2_lattice(8)
    assert recurrence_mul(O2, SO2, lat) == BurnsideElement({SO2: 1})
    assert recurrence_mul(O2, O2, lat) == IDENTITY
    assert recurrence_mul(O2, D(7), lat) == BurnsideElement({D(7): 1})


def test_recurrence_matches_direct_product():
    bound = 12
    lat = o2_lattice(bound)
    gens = [D(k) for k in range(1, bound + 1)] + [SO2, O2]
    for g in gens:
        for h in gens:
            direct = BurnsideElement({g: 1}) * BurnsideElement({h: 1})
            assert recurrence_mul(g, h, lat) == direct, (g, h)


def test_recurrence_mul_rejects_out_of_range():
    lat = o2_lattice(4)
    with pytest.raises(ValueError):
        recurrence_mul(D(5), D(2), lat)


def test_corrupted_lattice_raises_consistency_error():
    lat = o2_lattice(4)
    # D(2)*D(3) puts numerator 4 at the class D(1); a Weyl order of 3
    # there cannot divide it.
    bad = dataclasses.replace(lat, weyl={**lat.weyl, D(1): 3})
    with pytest.raises(LatticeConsistencyError):
        recurrence_mul(D(2), D(3), bad)


def test_lattice_tables_are_read_only():
    lat = o2_lattice(4)
    with pytest.raises(TypeError):
        lat.weyl[D(1)] = 3
    with pytest.raises(TypeError):
        lat.contains[(D(1), D(2))] = 2


def test_replaced_containment_count_changes_the_recurrence():
    # n(D1, D2) = 2 puts 16 - 2*2*2 = 8 at D(1), a coefficient of 4 there.
    lat = o2_lattice(4)
    bad = dataclasses.replace(lat, contains={**lat.contains, (D(1), D(2)): 2})
    direct = BurnsideElement({D(2): 1}) * BurnsideElement({D(2): 1})
    assert recurrence_mul(D(2), D(2), lat) == direct
    assert recurrence_mul(D(2), D(2), bad) != direct
    assert recurrence_mul(D(2), D(2), bad) == BurnsideElement({D(2): 2, D(1): 4})


# ------------------------------------------------------- fixed point spaces


def test_fixed_point_dims_divisibility():
    dims = fixed_point_dims(10, 10)
    assert dims.dim(6, D(3)) == 1
    assert dims.dim(6, D(4)) == 0
    assert dims.dim(6, D(6)) == 1


def test_fixed_point_dims_trivial_representation():
    dims = fixed_point_dims(5, 5)
    assert dims.dim(0, SO2) == 1
    assert dims.dim(0, O2) == 1
    assert dims.dim(0, D(3)) == 1


def test_fixed_point_dims_rotations_fix_nothing():
    dims = fixed_point_dims(5, 5)
    for m in range(1, 6):
        assert dims.dim(m, SO2) == 0
        assert dims.dim(m, O2) == 0


def test_oracle_tables_at_the_rf1_cap_stay_small():
    # The lattice holds about N ln N containment counts and the fixed-point
    # table none; N**2 cells at N = 800 would take tens of MiB.
    tracemalloc.start()
    try:
        tables = o2_lattice(MAX_IRREP), fixed_point_dims(MAX_IRREP, MAX_IRREP)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tables[1].dim(MAX_IRREP, D(MAX_IRREP)) == 1
    assert peak < 4 * 2**20


def test_fixed_point_dims_bounds_checked():
    dims = fixed_point_dims(5, 5)
    with pytest.raises(ValueError):
        dims.dim(6, D(2))
    with pytest.raises(ValueError):
        dims.dim(2, D(6))


# ------------------------------------------------------ basic degree oracle


def test_basic_degree_recurrence_formula():
    lat = o2_lattice(10)
    dims = fixed_point_dims(10, 10)
    assert basic_degree_recurrence(5, lat, dims) == BurnsideElement({O2: 1, D(5): -1})


def test_basic_degree_recurrence_trivial_representation():
    lat = o2_lattice(4)
    dims = fixed_point_dims(4, 4)
    assert basic_degree_recurrence(0, lat, dims) == IDENTITY


def test_basic_degree_recurrence_rotation_coefficient_vanishes():
    lat = o2_lattice(4)
    dims = fixed_point_dims(4, 4)
    assert basic_degree_recurrence(1, lat, dims).coeff(SO2) == 0


def test_basic_degree_recurrence_proper_divisors_vanish():
    lat = o2_lattice(12)
    dims = fixed_point_dims(12, 12)
    result = basic_degree_recurrence(12, lat, dims)
    for k in (1, 2, 3, 4, 6):
        assert result.coeff(D(k)) == 0
    assert result.coeff(D(12)) == -1


def test_basic_degree_recurrence_sweep():
    bound = 20
    lat = o2_lattice(bound)
    dims = fixed_point_dims(bound, bound)
    for m in range(0, bound + 1):
        assert basic_degree_recurrence(m, lat, dims) == basic_degree(m), m


def test_basic_degree_recurrence_bounds():
    lat = o2_lattice(4)
    dims = fixed_point_dims(4, 4)
    with pytest.raises(ValueError):
        basic_degree_recurrence(5, lat, dims)
    with pytest.raises(ValueError):
        basic_degree_recurrence(-1, lat, dims)
    with pytest.raises(ValueError):
        basic_degree_recurrence(2, o2_lattice(8), dims)  # dims table too small


# -------------------------------------------------- linear isomorphism degree


def test_linear_iso_degree_even_multiplicity():
    assert linear_iso_degree({5: 2}) == IDENTITY


def test_linear_iso_degree_two_components():
    assert linear_iso_degree({2: 1, 3: 1}) == key_element([2, 3])


def test_linear_iso_degree_empty_spectrum():
    assert linear_iso_degree({}) == IDENTITY


def test_linear_iso_degree_trivial_component():
    assert linear_iso_degree({0: 5}) == IDENTITY


def test_linear_iso_degree_validates():
    with pytest.raises(ValueError):
        linear_iso_degree({-1: 1})
    with pytest.raises(ValueError):
        linear_iso_degree({2: -1})


@given(
    st.dictionaries(st.integers(1, 30), st.integers(0, 6), max_size=6),
)
def test_linear_iso_degree_reduces_mod_two(multiplicities):
    odd = sorted(k for k, m in multiplicities.items() if m % 2)
    expected = key_element(odd) if odd else IDENTITY
    assert linear_iso_degree(multiplicities) == expected
