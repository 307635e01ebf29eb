"""Subgroup-lattice recurrences as independent oracles for the ring.

The basis product and the basic degrees are recomputed here from raw
lattice data (Weyl-group orders |W(H)| and containment counts n(H, K))
instead of the closed multiplication rules, via downward recurrences
over the class order.  For the product of classes H and K, coefficients
are computed from the maximal class downward:

    n_L = ( n(L,H)|W(H)| * n(L,K)|W(K)|
            - sum over classes M above L of n_M * n(L,M) * |W(M)| ) / |W(L)|

and for the degree element of the m-th irreducible representation the
leading term is replaced by (-1)**dim(fixed space of L in V_m):

    n_L = ( (-1)**dim V_m^L
            - sum over classes M above L of n_M * n(L,M) * |W(M)| ) / |W(L)|

Every division must be exact; a remainder means the lattice data is
inconsistent.  The lattice fixture for O(2) is certified purely by
these recurrences reproducing the direct rules in `burnside`.

The recurrences run on int class positions (the index of a class in
`LatticeData.classes`), not on `Generator` keys.  Once per lattice,
`LatticeData` derives from its Weyl orders and containment counts one
sparse column per class H: {position of L: n(L, H)|W(H)|}, holding only
the nonzero counts, about N ln N entries over N dihedral classes.  A
product's leading terms come from walking two columns against each
other, and the descent reads each solved class's column at the class
being solved.  It still visits every class and divides exactly at each,
so a wrong count or Weyl order anywhere in the data still shows.  The
lattice's `weyl` and `contains` are read-only views, so the derived
columns cannot go stale; `dataclasses.replace` builds a new lattice
with new columns.  The fixed-point dimensions are a rule, not a table:
`FixedPointTable.dim` computes each one on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

from .burnside import (
    IDENTITY,
    O2,
    SO2,
    BurnsideElement,
    D,
    Generator,
    basic_degree,
)

__all__ = [
    "LatticeConsistencyError",
    "LatticeData",
    "o2_lattice",
    "recurrence_mul",
    "FixedPointTable",
    "fixed_point_dims",
    "basic_degree_recurrence",
    "linear_iso_degree",
]


class LatticeConsistencyError(ArithmeticError):
    """A recurrence division left a remainder: the lattice data is wrong."""


@dataclass(frozen=True)
class LatticeData:
    """Weyl orders and containment counts over a finite class range.

    `classes` is stored in descending order (O2 first, then SO2, then
    D(max_index) down to D(1)), the order in which the recurrences
    compute coefficients.  `weyl` and `contains` are stored as read-only
    views of copies of the given mappings.
    """

    max_index: int
    classes: tuple[Generator, ...]
    weyl: Mapping[Generator, int]
    contains: Mapping[tuple[Generator, Generator], int]
    # Derived by __post_init__: each class's sparse column, in class order,
    # and the Weyl orders by class position.
    _columns: dict[Generator, dict[int, int]] = field(init=False, repr=False, compare=False)
    _weyl_at: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        weyl = MappingProxyType(dict(self.weyl))
        contains = MappingProxyType(dict(self.contains))
        position = {cls: p for p, cls in enumerate(self.classes)}
        columns: dict[Generator, dict[int, int]] = {cls: {} for cls in self.classes}
        for (low, high), n in contains.items():
            p = position.get(low)
            if p is None or high not in position or not n:
                continue
            columns[high][p] = n * weyl[high]
        setattr_ = object.__setattr__
        setattr_(self, "weyl", weyl)
        setattr_(self, "contains", contains)
        setattr_(self, "_columns", columns)
        setattr_(self, "_weyl_at", tuple(weyl[cls] for cls in self.classes))

    def weyl_order(self, h: Generator) -> int:
        return self.weyl[h]

    def contains_count(self, h: Generator, k: Generator) -> int:
        """Number of subgroups in class k containing a fixed member of h."""
        return self.contains.get((h, k), 0)

    def leq(self, h: Generator, k: Generator) -> bool:
        """Class partial order: h is (conjugate to) a subgroup of k."""
        if h == k or k == O2:
            return True
        if h == O2:
            return False
        if h == SO2 or k == SO2:
            return False  # dihedral classes and SO2 are incomparable
        return k.index % h.index == 0

    def _check_member(self, g: Generator) -> None:
        if g.is_dihedral and g.index > self.max_index:
            raise ValueError(
                f"generator {g.label} is outside the lattice range (max {self.max_index})"
            )


def o2_lattice(max_index: int) -> LatticeData:
    """Lattice fixture over {D(1..max_index), SO2, O2}.

    Weyl orders are 2 for every dihedral class and for SO2, 1 for O2.
    A dihedral D(k) lies in exactly one conjugate of D(m) when k divides
    m, in O2 itself, and in no conjugate of SO2 (rotations only).
    """
    if max_index < 1:
        raise ValueError(f"max_index must be >= 1, got {max_index}")
    dihedrals = [D(k) for k in range(1, max_index + 1)]
    classes = (O2, SO2, *reversed(dihedrals))
    weyl: dict[Generator, int] = {O2: 1, SO2: 2}
    weyl.update({g: 2 for g in dihedrals})
    contains: dict[tuple[Generator, Generator], int] = {
        (O2, O2): 1,
        (SO2, SO2): 1,
        (SO2, O2): 1,
    }
    for k, g in enumerate(dihedrals, 1):
        contains[(g, O2)] = 1
        for multiple in range(k, max_index + 1, k):
            contains[(g, dihedrals[multiple - 1])] = 1
    return LatticeData(max_index=max_index, classes=classes, weyl=weyl, contains=contains)


def _descend(lattice: LatticeData, leading: Sequence[int]) -> BurnsideElement:
    """Shared downward solve: peel coefficients off class by class.

    `leading` holds each class's leading term by class position.  A class
    solved with coefficient c takes c times its column entry off every
    class below it.
    """
    # Only classes already solved with a nonzero coefficient contribute.
    solved: list[tuple[int, int, dict[int, int]]] = []
    columns = lattice._columns.values()
    for p, (numerator, column, weyl) in enumerate(zip(leading, columns, lattice._weyl_at)):
        for _, c, above in solved:
            numerator -= c * above.get(p, 0)
        if numerator % weyl:
            raise LatticeConsistencyError(
                f"non-integral coefficient at {lattice.classes[p].label}: "
                f"{numerator} / {weyl}"
            )
        if numerator:
            solved.append((p, numerator // weyl, column))
    classes = lattice.classes
    return BurnsideElement({classes[p]: c for p, c, _ in solved})


def recurrence_mul(h: Generator, k: Generator, lattice: LatticeData) -> BurnsideElement:
    """Product of two basis classes computed from the lattice alone."""
    lattice._check_member(h)
    lattice._check_member(k)
    column_k = lattice._columns[k]
    leading = [0] * len(lattice.classes)
    for p, a in lattice._columns[h].items():
        leading[p] = a * column_k.get(p, 0)
    return _descend(lattice, leading)


@dataclass(frozen=True)
class FixedPointTable:
    """Real dimensions of fixed-point spaces of the irreducibles.

    The m-th nontrivial irreducible is the plane with the m-folded
    action: a rotation by theta acts as rotation by m*theta and a
    reflection as conjugation.  D(k) fixes the real axis when k divides
    m and nothing otherwise; rotations fix nothing; everything fixes
    the trivial representation (m = 0).  The table stores one bound, on
    m and on dihedral indices: `dim` applies this rule within it.
    """

    bound: int

    def dim(self, m: int, h: Generator) -> int:
        if not 0 <= m <= self.bound:
            raise ValueError(f"irrep index {m} outside table range 0..{self.bound}")
        if h.is_dihedral and h.index > self.bound:
            raise ValueError(f"{h.label} outside table range (max {self.bound})")
        return 1 if m == 0 or (h.is_dihedral and m % h.index == 0) else 0


def fixed_point_dims(bound: int) -> FixedPointTable:
    if bound < 1:
        raise ValueError("table bound must be >= 1")
    return FixedPointTable(bound=bound)


def basic_degree_recurrence(
    m: int, lattice: LatticeData, dims: FixedPointTable
) -> BurnsideElement:
    """Degree element of the m-th irreducible from fixed-point data.

    The leading term of each class L is (-1)**dim V_m^L, the degree of
    minus-identity on the fixed space.  For the trivial representation
    the degree element is the ring identity by convention, matching
    basic_degree(0).
    """
    if m < 0:
        raise ValueError(f"representation index must be >= 0, got {m}")
    if m == 0:
        return IDENTITY
    if m > lattice.max_index or lattice.max_index > dims.bound:
        raise ValueError("lattice range must cover the irrep index and the dims table")
    dim = dims.dim
    return _descend(lattice, [(-1) ** dim(m, cls) for cls in lattice.classes])


def _power(base: BurnsideElement, exponent: int) -> BurnsideElement:
    result = IDENTITY
    square = base
    while exponent:
        if exponent & 1:
            result = result * square
        square = square * square
        exponent >>= 1
    return result


def linear_iso_degree(multiplicities: Mapping[int, int]) -> BurnsideElement:
    """Degree of an equivariant linear isomorphism from its spectrum.

    `multiplicities` maps each irreducible index to the total number of
    copies of that irreducible across the negative eigenspaces.  The
    degree is the product of the matching basic degrees raised to those
    multiplicities; since each basic degree squares to the identity,
    only the odd multiplicities survive.
    """
    result = IDENTITY
    for index, mult in sorted(multiplicities.items()):
        if index < 0:
            raise ValueError(f"irrep index must be >= 0, got {index}")
        if mult < 0:
            raise ValueError(f"multiplicity must be >= 0, got {mult}")
        result = result * _power(basic_degree(index), mult)
    return result
