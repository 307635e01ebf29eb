"""Involutory-multiplier cipher on the dihedral span of the ring.

A message of L bytes becomes the window vector p = sum_i p_i * D(i);
the ciphertext is p * k for the key element k of a key set S (the
product of the basic degrees O2 - D(s), s in S, hence self-inverse, so
decryption is the same multiplication).
The product never raises a dihedral index, so ciphertext support stays
inside the window {D(1), ..., D(L)}.

The key is its index set S (a `KeySet`).  `encrypt` and `decrypt`
compute the product in mark coordinates (`burnside.mark_product`), with
the key's marks read straight off S (`burnside.key_marks`), so the key
element, which can have 2**|S| terms, is never built.  Those marks are
all +-1, and +1 at every x that divides no key index, so the ciphertext
is the message vector plus a Mobius inversion on D(1)..D(T) of
(eps_x - 1) times the divisor sums, T the last x <= L with eps_x != 1.
That costs O(L + sum_{x<=T, eps_x!=1} L/x + T log T), at most
O(L log L).  `BurnsideElement.__mul__` stays the general ring product
and the reference the tests compare against.

The dense window vector is the cipher's one representation: a
`Ciphertext` stores it, and the file codec writes it and reads it back
without building a sparse element.  The body lines go through
`burnside.format_terms` and `burnside.read_terms`, the bytes codec
element text uses too, one slice or chunk at a time with no Python loop
over the terms.  The writer refuses a value that is not an int before
it opens the file, and writes bytes.  The reader refuses a file with a
non-ASCII byte, then parses the body in place in the file's bytes,
with no decoded copy, and stores a chunk of consecutive labels with one
list extension, so the coefficients of a dense body become the vector
as they are read.

File formats (ASCII text, canonical: a reader accepts exactly the bytes
the matching writer produces for some value, and raises FileFormatError
for anything else):

    key file:           BRC-KEY v1
                        S 2 3

    ciphertext file:    BRC-CT v1
                        L 5
                        D1 -3
                        D4 7

The body is the canonical rendering of the window element: one
`D<n> <c>` line per nonzero coefficient, n ascending, or `0`.  Numbers
are ASCII digits with no leading zeros, `+` or `_`.  The declared
length L travels with the ciphertext, since only nonzero coefficients
are stored and trailing zeros would otherwise be lost; it is at most
MAX_LENGTH.  A key file holds at most MAX_KEY_SIZE = 20 indices, the
subset-enumeration cap, so any key file also works with key_coeff.
Marking a message costs min(L, sqrt(s)) divisor tests per index s, each
linear in the digits of s, so a key file index has at most
MAX_INDEX_DIGITS = 30 digits.  That admits the product of the first 20
primes over each one of them: 20 indices of 25 to 27 digits whose key
element has 2**20 terms, the most at MAX_KEY_SIZE.  Under 20 indices of 30
digits that are multiples of lcm(1..60), lcm(1..60) * 73 * (146 + 7j)
for j = 0..19 (25 848 marks of -1, the last at x = 1 048 476), `brc
encrypt` of a MAX_LENGTH message took 2.8-3.6 s at peak RSS 61 MB and
`brc decrypt` of its 11.3 MiB ciphertext 3.5-3.9 s at 67 MB (five runs
each, 2-vCPU VM, Python 3.11.7; about 2 s of each is the key's marks);
4300-digit indices, the longest int() reads, took 131 s before the cap.
"""

from __future__ import annotations

import re
from collections import deque
from dataclasses import dataclass
from functools import partial
from itertools import compress, count, repeat
from operator import add, countOf
from pathlib import Path
from typing import Sequence

from .burnside import (
    DEFAULT_SUBSET_CAP,
    ElementFormatError,
    KeySet,
    SupportWindowError,
    format_terms,
    key_marks,
    mark_product,
    read_terms,
    ring_decode,
    ring_encode,
)

__all__ = [
    "MessageError",
    "SupportWindowError",
    "FileFormatError",
    "Ciphertext",
    "encode_text",
    "decode_text",
    "ring_encode",
    "ring_decode",
    "encrypt",
    "decrypt",
    "check_key_limits",
    "write_key_file",
    "read_key_file",
    "write_ciphertext_file",
    "read_ciphertext_file",
    "KEY_MAGIC",
    "CT_MAGIC",
    "MAX_LENGTH",
    "MAX_KEY_SIZE",
    "MAX_INDEX_DIGITS",
]

KEY_MAGIC = "BRC-KEY v1"
CT_MAGIC = "BRC-CT v1"

# Longest message, in bytes, and largest declared ciphertext length.  A
# ciphertext file of a few bytes can declare any L, and decryption works
# on a dense vector of L coefficients.
MAX_LENGTH = 1 << 20

# Most indices in a key file and in `brc keygen` (module docstring).
MAX_KEY_SIZE = DEFAULT_SUBSET_CAP

# Most decimal digits of one index in a key file and in `brc keygen`
# (module docstring).  KeySet itself takes indices of any size.
MAX_INDEX_DIGITS = 30

_KEY_LINE = re.compile(r"S(?: [1-9][0-9]*)+")
_LENGTH_LINE = re.compile(rb"L ([1-9][0-9]*)")
_NON_ASCII = re.compile(rb"[\x80-\xff]")
# n -> n - 1, the vector slot of the label D(n).
_PRED = partial(add, -1)
# Window values formatted by one `%` call of the writer.
_CT_SLICE = 1 << 12
# Longest canonical key file: the header, then "S" and MAX_KEY_SIZE
# indices of MAX_INDEX_DIGITS digits, each after a space.
_KEY_FILE_MAX = len(f"{KEY_MAGIC}\nS\n") + MAX_KEY_SIZE * (MAX_INDEX_DIGITS + 1)


class MessageError(ValueError):
    """Message bytes cannot be encoded or decoded (empty, too long or non-ASCII)."""


class FileFormatError(ValueError):
    """Key or ciphertext file violates its strict text format."""


@dataclass(frozen=True)
class Ciphertext:
    """Encrypted window vector: coefficient values[n-1] at D(n), n = 1..length.

    The vector is the one stored form, and its size is the declared
    message length, at least 1.  A window element e becomes one through
    `Ciphertext(ring_decode(e, L))`, and `ring_encode(ct.values)` turns
    it back.
    """

    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", tuple(self.values))
        if not self.values:
            raise ValueError("declared length must be >= 1, got 0")

    @property
    def length(self) -> int:
        return len(self.values)


def encode_text(data: bytes | str) -> list[int]:
    """Map 7-bit text to its integer vector, one code per byte."""
    if isinstance(data, str):
        try:
            data = data.encode("ascii")
        except UnicodeEncodeError as exc:
            raise MessageError(f"non-ASCII character at position {exc.start}") from None
    if not data:
        raise MessageError("empty message")
    if len(data) > MAX_LENGTH:
        raise MessageError(f"message of {len(data)} bytes is longer than {MAX_LENGTH} bytes")
    if not data.isascii():
        pos = next(pos for pos, b in enumerate(data) if b > 127)
        raise MessageError(f"non-ASCII byte 0x{data[pos]:02x} at position {pos}")
    return list(data)


def decode_text(values: Sequence[int]) -> bytes:
    """Inverse of encode_text; every value must be a 7-bit code."""
    if not values:
        raise MessageError("empty vector")
    try:
        data = bytes(values)
    except ValueError:  # a value outside 0..255, named below
        pass
    else:
        if data.isascii():
            return data
    pos, v = next((pos, v) for pos, v in enumerate(values) if not 0 <= v <= 127)
    raise MessageError(f"recovered value {v} at position {pos} is outside [0, 127]")


def encrypt(data: bytes | str, key_set: KeySet) -> Ciphertext:
    """encode_text(data) times the key element of key_set, computed from the key's marks."""
    values = encode_text(data)
    return Ciphertext(mark_product(values, key_marks(key_set, len(values))))


def decrypt(ciphertext: Ciphertext, key_set: KeySet) -> bytes:
    """The same product on the ciphertext vector, then decode_text: the key is its own inverse."""
    marks = key_marks(key_set, ciphertext.length)
    return decode_text(mark_product(ciphertext.values, marks))


def check_key_limits(key_set: KeySet) -> None:
    """ValueError above MAX_KEY_SIZE indices or MAX_INDEX_DIGITS digits per index."""
    if len(key_set) > MAX_KEY_SIZE:
        raise ValueError(f"key set has {len(key_set)} indices, above the limit {MAX_KEY_SIZE}")
    if key_set.max_index >= 10**MAX_INDEX_DIGITS:
        raise ValueError(f"key index has more than {MAX_INDEX_DIGITS} digits")


def write_key_file(path: str | Path, key_set: KeySet) -> None:
    """Write a key file; a key beyond check_key_limits is a ValueError."""
    check_key_limits(key_set)
    indices = " ".join(str(i) for i in key_set)
    Path(path).write_text(f"{KEY_MAGIC}\nS {indices}\n")


def _read_ascii(path: str | Path, what: str, size: int = -1) -> bytes:
    """At most `size` bytes of the file (all with -1), refused unless all are ASCII."""
    # Bytes, not text mode: newline translation would accept "\r\n".
    with open(path, "rb") as f:
        data = f.read(size)
    if not data.isascii():
        raise FileFormatError(f"non-ASCII byte at offset {_NON_ASCII.search(data).start()} of {what} file")
    return data


def read_key_file(path: str | Path) -> KeySet:
    # One byte past the longest canonical file tells a longer file apart
    # without reading it all.
    text = _read_ascii(path, "key", _KEY_FILE_MAX + 1).decode("ascii")
    if len(text) > _KEY_FILE_MAX:
        raise FileFormatError(f"key file is longer than {_KEY_FILE_MAX} bytes")
    lines = text.split("\n")
    if len(lines) != 3 or lines[2]:
        raise FileFormatError("key file must be exactly 2 newline-terminated lines")
    if lines[0] != KEY_MAGIC:
        raise FileFormatError(f"bad key file header {lines[0]!r}")
    if not _KEY_LINE.fullmatch(lines[1]):
        raise FileFormatError(f"bad key line {lines[1]!r}")
    tokens = lines[1].split()[1:]
    if len(tokens) > MAX_KEY_SIZE:
        raise FileFormatError(f"key file holds {len(tokens)} indices, above the limit {MAX_KEY_SIZE}")
    if max(map(len, tokens)) > MAX_INDEX_DIGITS:
        raise FileFormatError(f"key index has more than {MAX_INDEX_DIGITS} digits")
    indices = [int(tok) for tok in tokens]
    if indices != sorted(set(indices)):
        raise FileFormatError("key indices must be strictly increasing")
    return KeySet(indices)


def write_ciphertext_file(path: str | Path, ciphertext: Ciphertext) -> None:
    """Write the header, the declared length and the nonzero terms of the vector.

    A value that is not an int (a float or a bool, which `%d` would
    print as an int) is a TypeError, raised before the file is opened.
    Each _CT_SLICE values become text in one `format_terms` call, written
    at once, so the writer holds one slice's text and no string per term.
    """
    values = ciphertext.values
    if countOf(map(type, values), int) != len(values):
        n, v = next((n, v) for n, v in enumerate(values, start=1) if type(v) is not int)
        raise TypeError(f"ciphertext value at D{n} must be an int, got {v!r}")
    with open(path, "wb") as f:
        f.write(f"{CT_MAGIC}\nL {len(values)}\n".encode("ascii"))
        if not any(values):
            f.write(b"0\n")
        for start in range(0, len(values), _CT_SLICE):
            part = values[start : start + _CT_SLICE]
            f.write(format_terms(compress(count(start + 1), part), list(filter(None, part))))


def read_ciphertext_file(path: str | Path) -> Ciphertext:
    """Read a canonical ciphertext file straight into its window vector.

    The file's bytes are parsed in a helper, so they are freed before the
    vector is copied into the Ciphertext's tuple.
    """
    return Ciphertext(_read_ciphertext_values(_read_ascii(path, "ciphertext")))


def _read_ciphertext_values(data: bytes) -> list[int]:
    """The window vector of a ciphertext file's ASCII bytes, parsed in place by offsets."""
    first = data.find(b"\n")
    body = data.find(b"\n", first + 1) + 1 if first >= 0 else 0
    if not body or body == len(data):
        raise FileFormatError("truncated ciphertext file")
    if not data.endswith(b"\n"):
        raise FileFormatError("ciphertext file must end with a newline")
    header, length_line = data[:first].decode("ascii"), data[first + 1 : body - 1]
    if header != CT_MAGIC:
        raise FileFormatError(f"bad ciphertext header {header!r}")
    m = _LENGTH_LINE.fullmatch(length_line)
    if m is None:
        raise FileFormatError(f"bad length line {length_line.decode('ascii')!r}")
    # Compare digit counts first: int() refuses very long digit strings.
    if len(m[1]) > len(str(MAX_LENGTH)) or int(m[1]) > MAX_LENGTH:
        raise FileFormatError(f"declared length {m[1].decode('ascii')} is above the limit {MAX_LENGTH}")
    window = int(m[1])
    # The body of the zero vector, "0", holds no term lines.
    if data.startswith(b"0\n", body) and body + 2 == len(data):
        body = len(data)
    # values[n-1] holds D(n) for n up to the last label read so far.
    values: list[int] = []
    try:
        for labels, coeffs in read_terms(data, body):
            # Ascending, so the last label bounds the chunk before any is used as an index.
            top = labels[-1]
            if top > window:
                raise FileFormatError(f"ciphertext has support at D{top}, outside window L={window}")
            if top - labels[0] + 1 == len(labels):
                # Consecutive labels: zeros up to the chunk, then its coefficients.
                values += repeat(0, labels[0] - 1 - len(values))
                values += coeffs
            else:
                values += repeat(0, top - len(values))
                deque(map(values.__setitem__, map(_PRED, labels), coeffs), maxlen=0)
    except ElementFormatError as exc:
        raise FileFormatError(f"ciphertext {exc}") from None
    values += repeat(0, window - len(values))
    return values
