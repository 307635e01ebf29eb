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
operations.  Generators label terms at the public interface only (the
constructor, `coeff`, `support`, `terms`, `str`): an element stores its
dihedral coefficients in a dict keyed by the int index and its SO2 and
O2 coefficients as two ints, and all arithmetic works on those.
A key's index set S is a `KeySet`, also an immutable tuple: the
distinct positive indices in increasing order.  Iteration, membership
and hashing are tuple operations, and a key set equals the plain tuple
of its indices.

Canonical text rendering, one term per line in ascending basis order
D1 < D2 < ... < SO2 < O2, e.g. for O2 + 2*D1 - D3:

    D1 2
    D3 -1
    O2 1

The zero element renders as the single line ``0``.  The `D<n> <c>`
lines are written by `format_terms` and read by `read_terms`, both on
ASCII bytes; `render`, `parse` and the ciphertext files of `brc.cipher`
share them.  Neither runs Python code per term: `format_terms`
interleaves indices and coefficients by two slice assignments and
formats them with one bytes `%` call, and `read_terms` checks a chunk
of lines with one regex fullmatch of the line grammar, then converts
all its numbers with one `json.loads`, reading its range of the bytes
in place.  A ciphertext file is parsed in its own bytes, with no
decoded copy; `render` decodes the bytes it formats, and `parse`
encodes its text as UTF-8, so a non-ASCII character fails the ASCII
grammar like any other.
"""

from __future__ import annotations

import json
import re
from functools import partial
from itertools import combinations, compress, count, islice, repeat, starmap
from math import gcd, isqrt
from operator import add, countOf, itemgetter, lt, ne
from typing import Iterable, Iterator, Mapping, Sequence

from .limits import check_mobius_quotient, check_subset_cap

__all__ = [
    "Generator",
    "D",
    "SO2",
    "O2",
    "BurnsideElement",
    "ZERO",
    "IDENTITY",
    "ElementFormatError",
    "SupportWindowError",
    "KeySet",
    "as_key_set",
    "basic_degree",
    "key_element",
    "key_coeff",
    "key_coeff_bruteforce",
    "key_coeff_fold",
    "key_coeff_mobius",
    "divisor_sums",
    "from_divisor_sums",
    "window_marks",
    "key_marks",
    "mark_product",
    "ring_encode",
    "ring_decode",
    "format_terms",
    "read_terms",
]

# Family tags; their numeric order gives the basis order D(k) < SO2 < O2.
_DIHEDRAL = 0
_ROTATION = 1
_FULL = 2


class ElementFormatError(ValueError):
    """Raised when canonical element text cannot be parsed."""


class SupportWindowError(ValueError):
    """Element support escapes the dihedral window {D(1), ..., D(L)}."""


def _check_int(x: object, what: str) -> None:
    # bool is an int subclass, but True would be stored and printed as True.
    if isinstance(x, bool) or not isinstance(x, int):
        raise TypeError(f"{what} must be an int, got {x!r}")


def _check_dihedral_index(n: object) -> None:
    # As D(n) refuses it: TypeError for a bool or non-int, ValueError below 1.
    _check_int(n, "generator index")
    if n < 1:
        raise ValueError(f"dihedral index must be >= 1, got {n}")


class Generator(tuple):
    """Basis class of the ring: a dihedral class D(k), SO2 or O2.

    An immutable ``(family, index)`` pair, so hashing and comparison are
    the built-in tuple operations and the basis order is tuple order.
    """

    __slots__ = ()

    def __new__(cls, family: int, index: int = 0) -> Generator:
        _check_int(index, "generator index")
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


def D(k: int) -> Generator:
    """The dihedral basis class D(k), k >= 1."""
    return Generator(_DIHEDRAL, k)


# One canonical `D<n> <c>` line: an ASCII label and a nonzero coefficient
# without leading zeros or a plus sign, and a run of whole lines.  The run
# is matched chunk by chunk: a pattern repeating a group over the whole
# text keeps state for every repetition.
_TERM = re.compile(rb"D[1-9][0-9]* -?[1-9][0-9]*")
_TERM_LINES = re.compile(rb"(?:%s\n)+" % _TERM.pattern)
# Bytes checked by one fullmatch call, rounded up to a whole line.
_TERM_CHUNK = 1 << 14
# Term lines as a JSON array body: both separators made commas, and `D`
# deleted by translate's second argument.
_TO_JSON = bytes.maketrans(b" \n", b",,")
# The SO2 and O2 lines that end an element's text, or nothing at a line end.
_TAIL = re.compile(rb"(?:^|(?<=\n))(?:SO2 (-?[1-9][0-9]*)\n)?(?:O2 (-?[1-9][0-9]*)\n)?\Z")


def format_terms(indices: Iterable[int], coeffs: Sequence[int]) -> bytes:
    """One `D<n> <c>` line, ending in a newline, per index n and coefficient c, in one `%` call.

    The `%` arguments n1, c1, n2, c2, ... are interleaved by two
    extended-slice assignments, so no Python code runs per term.
    `indices` must yield exactly len(coeffs) values.  Returns ASCII bytes.
    """
    flat = [0] * (2 * len(coeffs))
    flat[::2] = indices
    flat[1::2] = coeffs
    return (b"D%d %d\n" * len(coeffs)) % tuple(flat)


def read_terms(data: bytes, start: int = 0, end: int | None = None) -> Iterator[tuple[list[int], list[int]]]:
    """Indices and coefficients of the `D<n> <c>` lines in data[start:end], one chunk at a time.

    The range is whole lines, each ending in a newline, read in chunks
    of about _TERM_CHUNK bytes without copying the rest of `data`.
    One fullmatch of the line grammar checks a chunk; it is the only
    gate, since `json.loads` also reads forms the grammar refuses
    (``1.0``, ``-0``, ``NaN``).  After it every token is a canonical
    ASCII decimal int, and one `json.loads` of the chunk, with `D`
    deleted and the separators made commas, converts them all; json
    converts through int(), so a number longer than int() converts is
    still an error.  Only one chunk's bytes and numbers are alive at
    once.  Indices ascend strictly, also across chunks; any violation is
    ElementFormatError, raised before the chunk is yielded.  A malformed
    line is quoted as its UTF-8 text.
    """
    if end is None:
        end = len(data)
    last = 0
    while start < end:
        stop = data.find(b"\n", start + _TERM_CHUNK, end) + 1 or end
        chunk = data[start:stop]
        if _TERM_LINES.fullmatch(chunk) is None:
            bad = next(ln for ln in chunk.split(b"\n") if not _TERM.fullmatch(ln))
            raise ElementFormatError(f"term line {bad.decode('utf-8', 'surrogatepass')!r} is malformed")
        try:
            numbers = json.loads(b"[" + chunk.translate(_TO_JSON, b"D")[:-1] + b"]")
        except ValueError:  # more digits than int() converts
            raise ElementFormatError("term number has more digits than int() converts") from None
        labels = numbers[::2]
        first, top = labels[0], labels[-1]
        if top - first + 1 == len(labels):
            # Labels spanning their own count ascend strictly only as first..top.
            ascending = labels == list(range(first, top + 1))
        else:
            ascending = all(map(lt, labels, islice(labels, 1, None)))
        if first <= last or not ascending:
            raise ElementFormatError("terms must be in strictly ascending order")
        last = top
        yield labels, numbers[1::2]
        start = stop


class BurnsideElement:
    """Finitely supported integer combination of basis classes.

    Values are immutable; all arithmetic returns new elements in
    canonical form.  Python integers are unbounded, so coefficient
    arithmetic is exact at any size.
    """

    __slots__ = ("_dih", "_rot", "_full")

    def __init__(self, terms: Mapping[Generator, int] = ()):
        terms = dict(terms)
        for g, c in terms.items():
            if not isinstance(g, Generator):
                raise TypeError(f"term key must be a Generator, got {g!r}")
            _check_int(c, "coefficient")
        self._dih = {g[1]: c for g, c in terms.items() if c and g[0] == _DIHEDRAL}
        self._rot = terms.get(SO2, 0)
        self._full = terms.get(O2, 0)

    @classmethod
    def _raw(cls, dih: dict[int, int], rot: int = 0, full: int = 0) -> BurnsideElement:
        # Internal fast path: `dih` must hold no zero coefficient.
        elem = cls.__new__(cls)
        elem._dih, elem._rot, elem._full = dih, rot, full
        return elem

    def coeff(self, g: Generator) -> int:
        """Coefficient of the basis class `g`, 0 if absent."""
        family, index = g
        if family == _DIHEDRAL:
            return self._dih.get(index, 0)
        return self._rot if family == _ROTATION else self._full

    def dihedral_coeff(self, n: int) -> int:
        """Coefficient of D(n), read by int index without building D(n).

        Refuses n as D(n) does: TypeError for a bool or non-int,
        ValueError below 1.
        """
        _check_dihedral_index(n)
        return self._dih.get(n, 0)

    def support(self) -> tuple[Generator, ...]:
        """Basis classes with nonzero coefficient, in ascending order."""
        return tuple(g for g, _ in self.terms())

    def terms(self) -> tuple[tuple[Generator, int], ...]:
        """(generator, coefficient) pairs in ascending basis order."""
        out = [(D(k), c) for k, c in sorted(self._dih.items())]
        out += [(g, c) for g, c in ((SO2, self._rot), (O2, self._full)) if c]
        return tuple(out)

    def dihedral_indices(self) -> tuple[int, ...]:
        """Indices k with a nonzero D(k) coefficient, ascending."""
        return tuple(sorted(self._dih))

    def __bool__(self) -> bool:
        return bool(self._dih or self._rot or self._full)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self._rot == other._rot and self._full == other._full and self._dih == other._dih

    def __hash__(self) -> int:
        return hash((frozenset(self._dih.items()), self._rot, self._full))

    def __add__(self, other: BurnsideElement) -> BurnsideElement:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        acc = dict(self._dih)
        for k, c in other._dih.items():
            s = acc.get(k, 0) + c
            if s:
                acc[k] = s
            elif k in acc:
                del acc[k]
        return BurnsideElement._raw(acc, self._rot + other._rot, self._full + other._full)

    def __neg__(self) -> BurnsideElement:
        return BurnsideElement._raw({k: -c for k, c in self._dih.items()}, -self._rot, -self._full)

    def __sub__(self, other: BurnsideElement) -> BurnsideElement:
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: BurnsideElement | int) -> BurnsideElement:
        if isinstance(other, int):
            if other == 0:
                return ZERO
            dih = {k: c * other for k, c in self._dih.items()}
            return BurnsideElement._raw(dih, self._rot * other, self._full * other)
        if not isinstance(other, BurnsideElement):
            return NotImplemented
        lhs = self._dih
        rhs = other._dih
        a_full = self._full
        b_full = other._full
        # Dihedral coefficients of the product: the O2-identity terms, then 2*a*b at gcd(i, j).
        acc = {i: a * b_full for i, a in lhs.items()} if b_full else {}
        get = acc.get
        if a_full:
            for j, b in rhs.items():
                acc[j] = get(j, 0) + a_full * b
        if lhs is rhs:
            # A square (k * k): (i, j) and (j, i) land on the same gcd, so
            # take each unordered pair of distinct indices once with weight
            # 4*a*b, and each (i, i) once with weight 2*a*a.
            rest = list(lhs.items())
            while rest:
                i, a = rest.pop()
                acc[i] = get(i, 0) + 2 * a * a
                a4 = 4 * a
                for j, b in rest:
                    k = gcd(i, j)
                    acc[k] = get(k, 0) + a4 * b
        else:
            for i, a in lhs.items():
                a2 = 2 * a
                for j, b in rhs.items():
                    k = gcd(i, j)
                    acc[k] = get(k, 0) + a2 * b
        rot = a_full * other._rot + self._rot * b_full + 2 * self._rot * other._rot
        return BurnsideElement._raw({k: c for k, c in acc.items() if c}, rot, a_full * b_full)

    def __rmul__(self, other: int) -> BurnsideElement:
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def render(self) -> str:
        """Canonical multi-line text form (see module docstring)."""
        if not self:
            return "0"
        indices = sorted(self._dih)
        text = format_terms(indices, list(map(self._dih.__getitem__, indices))).decode("ascii")
        text += "".join(f"{g.label} {c}\n" for g, c in ((SO2, self._rot), (O2, self._full)) if c)
        return text[:-1]

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
        # Lone surrogates encode too, so any str reaches the grammar.
        body = (text + "\n").encode("utf-8", "surrogatepass")
        # The SO2 and O2 lines, if any, are among the last two.
        m = _TAIL.search(body, body.rfind(b"\n", 0, body.rfind(b"\n", 0, -1)) + 1)
        try:
            rot, full = (int(c or 0) for c in m.groups())
        except ValueError:  # more digits than int() converts
            raise ElementFormatError("number too long in the SO2 or O2 line") from None
        dih: dict[int, int] = {}
        for indices, coeffs in read_terms(body, 0, m.start()):
            dih.update(zip(indices, coeffs))
        return cls._raw(dih, rot, full)

    def __str__(self) -> str:
        # Compact human form, highest class first: "O2 + 2*D1 - D2".
        if not self:
            return "0"
        parts: list[str] = []
        for g, c in reversed(self.terms()):
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


class KeySet(tuple):
    """Finite set of distinct positive representation indices, a strictly increasing tuple.

    The derived key element is the product of the basic degrees of its
    indices.
    """

    __slots__ = ()

    def __new__(cls, indices: Iterable[int]) -> KeySet:
        idx = tuple(indices)
        if not idx:
            raise ValueError("key set must be non-empty")
        # Before sorting, which would raise TypeError on mixed types.
        for i in idx:
            if isinstance(i, bool) or not isinstance(i, int):
                raise ValueError(f"key index must be an int, got {i!r}")
            if i < 1:
                raise ValueError(f"key index must be >= 1, got {i}")
        idx = tuple(sorted(idx))
        if len(set(idx)) != len(idx):
            raise ValueError(f"duplicate key indices in {idx}")
        return tuple.__new__(cls, idx)

    indices = property(tuple)
    max_index = property(itemgetter(-1))

    def __str__(self) -> str:
        return "{" + ", ".join(map(str, self)) + "}"

    def __repr__(self) -> str:
        return f"KeySet({tuple(self)})"


def as_key_set(s: KeySet | Iterable[int]) -> KeySet:
    return s if isinstance(s, KeySet) else KeySet(s)


def basic_degree(m: int) -> BurnsideElement:
    """Degree element of the m-th irreducible O(2)-representation.

    O2 - D(m) for m >= 1; the trivial representation (m = 0) yields the
    ring identity O2.  Each is an involution under the ring product.
    """
    if m < 0:
        raise ValueError(f"representation index must be >= 0, got {m}")
    if m == 0:
        return IDENTITY
    return BurnsideElement._raw({m: -1}, full=1)


def _key_fold(indices: Iterable[int]) -> dict[int, int]:
    # The nonzero dihedral coefficients of the product of the basic degrees
    # over `indices`, which must be ascending, distinct, positive ints; the
    # product's O2 coefficient is 1.  key_element's docstring derives it.
    acc: dict[int, int] = {}
    get = acc.get
    for i in indices:
        terms = list(acc.items())
        acc[i] = get(i, 0) - 1
        for j, c in terms:
            k = gcd(i, j)
            acc[k] = get(k, 0) - 2 * c
    return {k: c for k, c in acc.items() if c}


def key_element(s: KeySet | Iterable[int]) -> BurnsideElement:
    """Product of the basic degrees over the index set (self-inverse).

    One fold over the sorted indices, on the dihedral coefficients keyed
    by int index: with O2 coefficient 1, k*(O2 - D(i)) is
    k - D(i) - sum_j 2*k_j*D(gcd(i, j)), so each factor costs one gcd per
    term and the O2 coefficient stays 1.  The fold is shared with the CPA
    oracle, which runs it on a probe's odd gcds; it shares no code with
    the ring product, which key_coeff_bruteforce chains instead.
    """
    return BurnsideElement._raw(_key_fold(as_key_set(s)), full=1)


def _signed_subset_count(values: tuple[int, ...], target: int) -> int:
    # sum over r >= 2 of (-2)**(r-2) * #{I of size r : gcd(*I) == target},
    # I a subset of positions, so equal values count apart: key_coeff passes
    # the indices, key_coeff_fold their gcds with the probe.  Each size is
    # counted at C speed; every subset of size >= 2 is visited once.
    total, weight = 0, 1
    for r in range(2, len(values) + 1):
        total += weight * countOf(starmap(gcd, combinations(values, r)), target)
        weight *= -2
    return total


def key_coeff(s: KeySet | Iterable[int], s0: int) -> int:
    """Coefficient of D(s0) in key_element(s), by subset enumeration.

    Evaluates -[s0 in s] + 2 * sum over subsets I of s, |I| >= 2, of
    (-2)**(|I|-2) * [gcd(I) == s0].  Singleton subsets other than {s0}
    never hit s0, and {s0} itself is accounted for by the membership
    term, so only subsets of size >= 2 are enumerated: one enumeration
    per call, each size counted by `countOf` over `starmap(gcd, ...)`,
    at a cost of 2**|s| gcds whatever s0 is.
    """
    _check_dihedral_index(s0)
    s = as_key_set(s)
    check_subset_cap(s)
    return -(1 if s0 in s else 0) + 2 * _signed_subset_count(s, s0)


def _mobius(q: int) -> int:
    # mu(q) by trial division: 0 if a square divides q, else -1 to the
    # number of prime factors.
    mu = 1
    p = 2
    while p * p <= q:
        if q % p == 0:
            q //= p
            if q % p == 0:
                return 0
            mu = -mu
        p += 1
    return -mu if q > 1 else mu


def key_coeff_mobius(s: KeySet | Iterable[int], n: int) -> int:
    """Same coefficient, by Mobius inversion of the key's marks.

    The mark of O2 + sum_m a_m*D(m) at D(x) is 1 + 2*sum_{x|m} a_m, and
    the key's is eps_x = (-1)**#{i in s : x | i}, one sign per basic
    degree O2 - D(i) with x | i.  So (eps_x - 1)/2 sums a over the
    multiples of x, and Mobius inversion on the divisor lattice (Rota
    1964) gives a_n = sum_{n|m<=max(s)} mu(m/n) * (eps_m - 1)/2; above
    max(s) every eps_m is 1.  A multiple m = n*q divides only multiples
    of n, so with T = {i // n : i in s, n | i}, eps_m is -1 exactly when
    #{t in T : q | t}, counted by |T| remainders, is odd; only there is
    mu(q) needed, by trial division.  It is 0 for n > max(s).  Shares
    no code with the ring product, key_element's fold or key_coeff's
    subset enumeration, and its cost does not grow as 2**|s|; it refuses
    max(s) // n above limits.MAX_MOBIUS_QUOTIENT before any work.
    """
    _check_dihedral_index(n)
    s = as_key_set(s)
    check_mobius_quotient(s.max_index // n)
    quotients = [i // n for i in s if i % n == 0]
    top = quotients[-1] if quotients else 0
    total = 0
    for q in range(1, top + 1):
        if countOf(map(q.__rmod__, quotients), 0) & 1:
            total -= _mobius(q)
    return total


def key_coeff_bruteforce(s: KeySet | Iterable[int], s0: int) -> int:
    """Same coefficient, read off a literal expansion of the product.

    Chains the generic ring product, BurnsideElement.__mul__, over the
    basic-degree factors left to right from IDENTITY and looks up D(s0).
    Neither key_coeff's subset enumeration nor key_element's fold shares
    this code.  Only the tests call it; `brc verify prop-coeff` takes
    key_coeff_mobius as its third side.
    """
    _check_dihedral_index(s0)
    s = as_key_set(s)
    check_subset_cap(s)
    product = IDENTITY
    for i in s:
        product = product * basic_degree(i)
    return product.dihedral_coeff(s0)


def key_coeff_fold(s: KeySet | Iterable[int], x: int) -> int:
    """Sum of key_coeff(s, n) over the multiples n of x, in one enumeration.

    Every subset gcd is at most max(s), so summing [gcd(I) == n] over
    the multiples n of x gives [x | gcd(I)], which is
    [gcd(x, *I) == x].  With g_i = gcd(x, i), taken once per index,
    gcd(x, *I) is gcd of the g_i over I when |I| >= 2, and x | i exactly
    when g_i == x.  The fold is therefore -#{i : g_i == x} + 2 * sum over
    subsets J of g, |J| >= 2, of (-2)**(|J|-2) * [gcd(*J) == x]: one
    enumeration per call, 2**|s| gcds of divisors of x whatever max(s)
    is (none when x > max(s), where the fold is 0).  The self-coefficient
    of an encrypted probe D(x) equals 1 + 2*key_coeff_fold(s, x), which
    is what the one-query distinguisher reads out.
    """
    _check_dihedral_index(x)
    s = as_key_set(s)
    check_subset_cap(s)
    if x > s.max_index:
        return 0
    g = tuple(map(partial(gcd, x), s))
    return -countOf(g, x) + 2 * _signed_subset_count(g, x)


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
    marks = [k._full] * length
    for n, c in k._dih.items():
        for d in _divisors_upto(n, length):
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
    p above T.  One C-level count of the 1 marks and one C-level scan
    that stops at T find the x with m_x != 1; F_x is summed and h filled
    only at those, so the cost is O(L + sum_{x<=T, m_x!=1} L/x + T log T);
    a key's marks are +1 at every x that divides no key index.  Returns a
    new list.
    """
    if len(marks) != len(values):
        raise ValueError(f"{len(marks)} marks for a window of {len(values)}")
    nonunit = list(islice(compress(count(1), map(ne, marks, repeat(1))), len(marks) - marks.count(1)))
    # Summed before h exists: the slice at x = 1 copies the whole window.
    corrections = [(marks[x - 1] - 1) * sum(values[x - 1 :: x]) for x in nonunit]
    top = nonunit[-1] if nonunit else 0
    h = [0] * top
    for x, c in zip(nonunit, corrections):
        h[x - 1] = c
    out = list(map(add, values, from_divisor_sums(h)))
    out += values[top:]
    return out


def ring_encode(values: Sequence[int]) -> BurnsideElement:
    """Element with coefficient values[i-1] at D(i); zeros are dropped."""
    if not values:
        raise ValueError("empty plaintext vector")
    dih = {i: v for i, v in enumerate(values, start=1) if v}
    for v in dih.values():
        _check_int(v, "coefficient")
    return BurnsideElement._raw(dih)


def ring_decode(element: BurnsideElement, length: int) -> list[int]:
    """Coefficient vector of `element` on D(1)..D(length); it must lie in that window."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    if element._full or element._rot:
        raise SupportWindowError("element has support outside the dihedral span")
    dih = element._dih
    if max(dih, default=0) > length:
        k = min(k for k in dih if k > length)
        raise SupportWindowError(f"element has support at D{k}, outside window L={length}")
    values = [0] * length
    for k, c in dih.items():
        values[k - 1] = c
    return values
