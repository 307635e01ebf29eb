"""Exact arithmetic in the Burnside ring of O(2).

The ring is the free Z-module on the subgroup classes with finite Weyl
group: the dihedral classes D(1), D(2), ..., the rotation class SO2 and
the full class O2.  Products of basis classes:

    O2 * x      = x                 (multiplicative identity)
    SO2 * SO2   = 2*SO2
    SO2 * D(m)  = 0
    D(k) * D(m) = 2*D(gcd(k, m))

extended bilinearly.  Elements are kept in canonical sparse form (no
zero coefficients stored), so equality is structural equality.

A basis class is a `Generator`, an immutable ``(family, index)`` tuple
(index 0 for SO2 and O2), so hashing and ordering are plain tuple
operations.  The product reads the O2 and SO2 coefficients of both
factors once, accumulates the dihedral coefficients of the result in a
dict keyed by the integer index (the terms 2*a*b at gcd(i, j) and the
O2-identity terms), and builds each D(n) only once, for the nonzero
sums.

Canonical text rendering, one term per line in ascending basis order
D1 < D2 < ... < SO2 < O2, e.g. for O2 + 2*D1 - D3:

    D1 2
    D3 -1
    O2 1

The zero element renders as the single line ``0``.
"""

from __future__ import annotations

import re
from functools import partial
from itertools import combinations, takewhile
from math import gcd, isqrt
from operator import add, eq, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

__all__ = [
    "Generator",
    "D",
    "SO2",
    "O2",
    "BurnsideElement",
    "ZERO",
    "IDENTITY",
    "ElementFormatError",
    "KeySet",
    "as_key_set",
    "basic_degree",
    "key_element",
    "key_coeff",
    "key_coeff_bruteforce",
    "key_coeff_fold",
    "divisor_sums",
    "from_divisor_sums",
    "window_marks",
    "key_marks",
    "mark_product",
    "DEFAULT_SUBSET_CAP",
]

# Family tags; their numeric order gives the basis order D(k) < SO2 < O2.
_DIHEDRAL = 0
_ROTATION = 1
_FULL = 2


class ElementFormatError(ValueError):
    """Raised when canonical element text cannot be parsed."""


class Generator(tuple):
    """Basis class of the ring: a dihedral class D(k), SO2 or O2.

    An immutable ``(family, index)`` pair, so hashing and comparison are
    the built-in tuple operations and the basis order is tuple order.
    """

    __slots__ = ()

    def __new__(cls, family: int, index: int = 0) -> Generator:
        if family == _DIHEDRAL:
            if index < 1:
                raise ValueError(f"dihedral index must be >= 1, got {index}")
        elif family in (_ROTATION, _FULL):
            if index != 0:
                raise ValueError("SO2/O2 carry no index")
        else:
            raise ValueError(f"unknown generator family {family}")
        return tuple.__new__(cls, (family, index))

    family = property(itemgetter(0))
    index = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[int, int]:
        return tuple(self)

    @property
    def is_dihedral(self) -> bool:
        return self[0] == _DIHEDRAL

    @property
    def label(self) -> str:
        family, index = self
        if family == _DIHEDRAL:
            return f"D{index}"
        return "SO2" if family == _ROTATION else "O2"

    def __repr__(self) -> str:
        return self.label


SO2 = Generator(_ROTATION)
O2 = Generator(_FULL)

_D_CACHE: dict[int, Generator] = {}


def D(k: int) -> Generator:
    """The dihedral basis class D(k), k >= 1."""
    g = _D_CACHE.get(k)
    if g is None:
        g = _D_CACHE[k] = Generator(_DIHEDRAL, k)
    return g


# One canonical term line: an ASCII label and a coefficient without
# leading zeros or a plus sign.  A zero coefficient matches so that it
# can be reported as such.
_TERM_LINE = re.compile(r"(D[1-9][0-9]*|SO2|O2) (0|-?[1-9][0-9]*)")


class BurnsideElement:
    """Finitely supported integer combination of basis classes.

    Values are immutable; all arithmetic returns new elements in
    canonical form.  Python integers are unbounded, so coefficient
    arithmetic is exact at any size.
    """

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Generator, int] = ()):
        clean: dict[Generator, int] = {}
        for g, c in dict(terms).items():
            if not isinstance(g, Generator):
                raise TypeError(f"term key must be a Generator, got {g!r}")
            if not isinstance(c, int):
                raise TypeError(f"coefficient must be an int, got {c!r}")
            if c:
                clean[g] = c
        self._terms = clean

    @classmethod
    def _raw(cls, terms: dict[Generator, int]) -> BurnsideElement:
        # Internal fast path: `terms` must already be canonical.
        elem = cls.__new__(cls)
        elem._terms = terms
        return elem

    def coeff(self, g: Generator) -> int:
        """Coefficient of the basis class `g`, 0 if absent."""
        return self._terms.get(g, 0)

    def support(self) -> tuple[Generator, ...]:
        """Basis classes with nonzero coefficient, in ascending order."""
        return tuple(sorted(self._terms))

    def terms(self) -> tuple[tuple[Generator, int], ...]:
        """(generator, coefficient) pairs in ascending basis order."""
        return tuple(sorted(self._terms.items()))

    def items(self) -> Iterator[tuple[Generator, int]]:
        """(generator, coefficient) pairs in storage order; `terms` sorts them."""
        return iter(self._terms.items())

    def dihedral_indices(self) -> tuple[int, ...]:
        """Indices k with a nonzero D(k) coefficient, ascending."""
        return tuple(sorted(g.index for g in self._terms if g.family == _DIHEDRAL))

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: BurnsideElement) -> BurnsideElement:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        acc = dict(self._terms)
        for g, c in other._terms.items():
            s = acc.get(g, 0) + c
            if s:
                acc[g] = s
            elif g in acc:
                del acc[g]
        return BurnsideElement._raw(acc)

    def __neg__(self) -> BurnsideElement:
        return BurnsideElement._raw({g: -c for g, c in self._terms.items()})

    def __sub__(self, other: BurnsideElement) -> BurnsideElement:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: BurnsideElement | int) -> BurnsideElement:
        if isinstance(other, int):
            if other == 0:
                return ZERO
            return BurnsideElement._raw({g: c * other for g, c in self._terms.items()})
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        lhs = self._terms
        rhs = other._terms
        a_full = lhs.get(O2, 0)
        b_full = rhs.get(O2, 0)
        a_rot = lhs.get(SO2, 0)
        b_rot = rhs.get(SO2, 0)
        a_dih = [(g[1], c) for g, c in lhs.items() if g[0] == _DIHEDRAL]
        b_dih = [(h[1], c) for h, c in rhs.items() if h[0] == _DIHEDRAL]
        # Dihedral coefficients of the product, keyed by index.
        acc: dict[int, int] = {}
        if b_full:
            for i, a in a_dih:
                acc[i] = a * b_full
        if a_full:
            for j, b in b_dih:
                acc[j] = acc.get(j, 0) + a_full * b
        for i, a in a_dih:
            a2 = 2 * a
            for j, b in b_dih:
                k = gcd(i, j)
                acc[k] = acc.get(k, 0) + a2 * b
        out = {D(k): c for k, c in acc.items() if c}
        rot = a_full * b_rot + a_rot * b_full + 2 * a_rot * b_rot
        if rot:
            out[SO2] = rot
        full = a_full * b_full
        if full:
            out[O2] = full
        return BurnsideElement._raw(out)

    def __rmul__(self, other: int) -> BurnsideElement:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def render(self) -> str:
        """Canonical multi-line text form (see module docstring)."""
        if not self._terms:
            return "0"
        return "\n".join(f"{g.label} {c}" for g, c in self.terms())

    @classmethod
    def parse(cls, text: str) -> BurnsideElement:
        """Parse the canonical rendering back into an element.

        Parsing is strict: `text` must be exactly what `render` produces,
        the single line ``0`` or newline-separated ``<label> <coeff>``
        lines in strictly ascending basis order with nonzero canonical
        ASCII coefficients, with no blank lines or extra whitespace.
        """
        if text == "0":
            return ZERO
        terms: dict[Generator, int] = {}
        prev: Generator | None = None
        for ln in text.split("\n"):
            m = _TERM_LINE.fullmatch(ln)
            if m is None:
                raise ElementFormatError(f"malformed term line {ln!r}")
            label, digits = m.groups()
            try:
                g = O2 if label == "O2" else SO2 if label == "SO2" else D(int(label[1:]))
                c = int(digits)
            except ValueError:  # more digits than int() converts
                raise ElementFormatError(f"number too long in line {ln!r}") from None
            if c == 0:
                raise ElementFormatError(f"zero coefficient stored for {g.label}")
            if prev is not None and not prev < g:
                raise ElementFormatError(f"terms out of order at {g.label}")
            prev = g
            terms[g] = c
        return cls._raw(terms)

    def __str__(self) -> str:
        # Compact human form, highest class first: "O2 + 2*D1 - D2".
        if not self._terms:
            return "0"
        parts: list[str] = []
        for g, c in sorted(self._terms.items(), reverse=True):
            sign = "-" if c < 0 else "+"
            mag = abs(c)
            body = g.label if mag == 1 else f"{mag}*{g.label}"
            parts.append(f"{sign} {body}")
        out = " ".join(parts)
        return out[2:] if out.startswith("+ ") else "-" + out[2:]

    def __repr__(self) -> str:
        return f"<BurnsideElement {self}>"


ZERO = BurnsideElement()
IDENTITY = BurnsideElement({O2: 1})


class KeySet:
    """Finite set of distinct positive representation indices.

    Normalized to a strictly increasing tuple; the derived key element
    is the product of the basic degrees of its indices.
    """

    __slots__ = ("indices",)

    def __init__(self, indices: Iterable[int]):
        idx = tuple(sorted(indices))
        if not idx:
            raise ValueError("key set must be non-empty")
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValueError(f"key index must be an int, got {i!r}")
            if i < 1:
                raise ValueError(f"key index must be >= 1, got {i}")
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate key indices in {idx}")
        self.indices: tuple[int, ...] = idx

    @property
    def max_index(self) -> int:
        return self.indices[-1]

    def __iter__(self) -> Iterator[int]:
        return iter(self.indices)

    def __len__(self) -> int:
        return len(self.indices)

    def __contains__(self, i: object) -> bool:
        return i in self.indices

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, KeySet):
            return NotImplemented
        return self.indices == other.indices

    def __hash__(self) -> int:
        return hash(self.indices)

    def __str__(self) -> str:
        return "{" + ", ".join(str(i) for i in self.indices) + "}"

    def __repr__(self) -> str:
        return f"KeySet({self.indices})"


def as_key_set(s: KeySet | Iterable[int]) -> KeySet:
    return s if isinstance(s, KeySet) else KeySet(s)


# Subset-enumerating operations cost 2**|S|; reject larger sets.
DEFAULT_SUBSET_CAP = 20


def _check_cap(s: KeySet) -> None:
    if len(s) > DEFAULT_SUBSET_CAP:
        raise ValueError(
            f"key set has {len(s)} indices, above the subset enumeration cap {DEFAULT_SUBSET_CAP}"
        )


def basic_degree(m: int) -> BurnsideElement:
    """Degree element of the m-th irreducible O(2)-representation.

    O2 - D(m) for m >= 1; the trivial representation (m = 0) yields the
    ring identity O2.  Each is an involution under the ring product.
    """
    if m < 0:
        raise ValueError(f"representation index must be >= 0, got {m}")
    if m == 0:
        return IDENTITY
    return BurnsideElement._raw({O2: 1, D(m): -1})


def key_element(s: KeySet | Iterable[int]) -> BurnsideElement:
    """Product of the basic degrees over the index set (self-inverse).

    One fold over the sorted indices, on the dihedral coefficients keyed
    by int index: with O2 coefficient 1, k*(O2 - D(i)) is
    k - D(i) - sum_j 2*k_j*D(gcd(i, j)), so each factor costs one gcd per
    term and the O2 coefficient stays 1.  The D(n) classes are built
    once, at the end, for the nonzero terms.  Shares no code with the
    ring product, which key_coeff_bruteforce chains instead.
    """
    acc: dict[int, int] = {}
    get = acc.get
    for i in as_key_set(s):
        terms = list(acc.items())
        acc[i] = get(i, 0) - 1
        for j, c in terms:
            k = gcd(i, j)
            acc[k] = get(k, 0) - 2 * c
    out = {D(k): c for k, c in acc.items() if c}
    out[O2] = 1
    return BurnsideElement._raw(out)


def key_coeff(s: KeySet | Iterable[int], s0: int) -> int:
    """Coefficient of D(s0) in key_element(s), by subset enumeration.

    Evaluates -[s0 in s] + 2 * sum over subsets I of s, |I| >= 2, of
    (-2)**(|I|-2) * [gcd(I) == s0].  Singleton subsets other than {s0}
    never hit s0, and {s0} itself is accounted for by the membership
    term, so only subsets of size >= 2 are enumerated.
    """
    if s0 < 1:
        raise ValueError(f"dihedral index must be >= 1, got {s0}")
    s = as_key_set(s)
    _check_cap(s)
    total = 0
    for r in range(2, len(s) + 1):
        for sub in combinations(s.indices, r):
            if gcd(*sub) == s0:
                total += (-2) ** (r - 2)
    return -(1 if s0 in s else 0) + 2 * total


def key_coeff_bruteforce(s: KeySet | Iterable[int], s0: int) -> int:
    """Same coefficient, read off a literal expansion of the product.

    Chains the generic ring product, BurnsideElement.__mul__, over the
    basic-degree factors left to right from IDENTITY and looks up D(s0).
    Neither key_coeff's subset enumeration nor key_element's fold shares
    this code, so the three are independent checks of one another.
    """
    if s0 < 1:
        raise ValueError(f"dihedral index must be >= 1, got {s0}")
    s = as_key_set(s)
    _check_cap(s)
    product = IDENTITY
    for i in s:
        product = product * basic_degree(i)
    return product.coeff(D(s0))


def key_coeff_fold(s: KeySet | Iterable[int], x: int) -> int:
    """Sum of key_coeff(s, n) over the multiples n of x.

    Coefficients vanish above max(s) (every subset gcd is bounded by
    its smallest member), so the sum is finite.  The self-coefficient
    of an encrypted probe D(x) equals 1 + 2*key_coeff_fold(s, x), which
    is what the one-query distinguisher reads out.
    """
    if x < 1:
        raise ValueError(f"dihedral index must be >= 1, got {x}")
    s = as_key_set(s)
    _check_cap(s)
    return sum(key_coeff(s, n) for n in range(x, s.max_index + 1, x))


def divisor_sums(values: Sequence[int]) -> list[int]:
    """F_x = sum_{x|n<=L} values[n-1] for x = 1..L, L = len(values).

    The divisor-sum matrix Z (Z[x][n] = 1 when x divides n) carries a
    window element into mark coordinates: its mark at D(x) is 2*F_x.
    Costs O(L log L).
    """
    padded = [0, *values]
    half = len(values) // 2
    sums = [sum(padded[x::x]) for x in range(1, half + 1)]
    # Above L/2 the only multiple of x in the window is x itself.
    sums.extend(values[half:])
    return sums


def from_divisor_sums(sums: Sequence[int]) -> list[int]:
    """The values whose divisor sums are `sums`: the inverse of divisor_sums.

    Z is unitriangular, so the downward sweep
    c_x = G_x - sum_{m=2x,3x,...<=L} c_m recovers c in O(L log L).
    """
    # In place, descending x: every slot above x already holds c.
    out = [0, *sums]
    for x in range(len(sums) // 2, 0, -1):
        out[x] -= sum(out[2 * x :: x])
    return out[1:]


def _divisors_upto(n: int, limit: int) -> Iterator[int]:
    # Divisors of n that are <= limit, in O(min(limit, sqrt(n))) steps:
    # a divisor e <= limit above sqrt(n) is found as the cofactor n // d.
    for d in range(1, min(limit, isqrt(n)) + 1):
        if n % d == 0:
            yield d
            e = n // d
            if e != d and e <= limit:
                yield e


def window_marks(k: BurnsideElement, length: int) -> list[int]:
    """Marks phi_x(k) = k_O2 + 2*sum_{x|n} k_n for x = 1..length (SO2 has mark 0)."""
    marks = [k.coeff(O2)] * length
    for g, c in k._terms.items():
        if g.family == _DIHEDRAL:
            for d in _divisors_upto(g.index, length):
                marks[d - 1] += 2 * c
    return marks


def key_marks(s: KeySet | Iterable[int], length: int) -> list[int]:
    """window_marks(key_element(s), length) without building the key element.

    O2 - D(i) has mark -1 at the divisors of i and +1 elsewhere, and marks
    are multiplicative, so eps_x = (-1)**#{i in s : x | i}.
    """
    marks = [1] * length
    for i in as_key_set(s):
        for d in _divisors_upto(i, length):
            marks[d - 1] = -marks[d - 1]
    return marks


def mark_product(values: Sequence[int], marks: Sequence[int]) -> list[int]:
    """Coefficients on D(1)..D(L) of (sum_n values[n-1]*D(n)) * k from marks[x-1] = phi_x(k).

    No product raises a dihedral index, so p and c = p*k both lie on
    D(1)..D(L), and marks are multiplicative: with phi_x(p) = 2*F_x for
    F = divisor_sums(p), c has divisor sums G_x = F_x*phi_x(k), so
    c = Z^-1(m*F) = p + Z^-1((m - 1)*F).  The correction h = (m - 1)*F
    vanishes above T, the last x with marks[x-1] != 1, and so does
    Z^-1 h (every multiple of an x > T lies above T): it is
    from_divisor_sums of h on D(1)..D(T), added to p there, and c equals
    p above T.  F_x is summed only where m_x != 1, so the cost is
    O(L + sum_{x<=T, m_x!=1} L/x + T log T); a key's marks are +1 at
    every x that divides no key index.  Returns a new list.
    """
    if len(marks) != len(values):
        raise ValueError(f"{len(marks)} marks for a window of {len(values)}")
    # The trailing marks are all 1, so their sum is their count.
    top = len(marks) - sum(takewhile(partial(eq, 1), reversed(marks)))
    half = min(top, len(values) // 2)
    h = [(m - 1) * sum(values[x - 1 :: x]) if m != 1 else 0 for x, m in zip(range(1, half + 1), marks)]
    # Above L/2 the only multiple of x in the window is x itself.
    h += [(m - 1) * p for m, p in zip(marks[half:top], values[half:top])]
    out = list(map(add, values, from_divisor_sums(h)))
    out += values[top:]
    return out

