"""Involutory-multiplier cipher on the dihedral span of the ring.

A message of L bytes becomes the window vector p = sum_i p_i * D(i);
the ciphertext is p * k for the key element k of a key set S (the
product of the basic degrees O2 - D(s), s in S, hence self-inverse, so
decryption is the same multiplication).
The product never raises a dihedral index, so ciphertext support stays
inside the window {D(1), ..., D(L)}.

The key is its index set S (a `KeySet`).  `encrypt` and `decrypt`
apply the key in mark coordinates, by a `marks.MarkAction` of the
key's marks read straight off S by its primes (`marks.key_marks`), so
the key element, which can have 2**|S| terms, is never built.  Those
marks are +1 at every x that divides no key index, so they pass as the
map {x: -1} of the others, applied in O(L + sum_{x in it} (L/x +
2**omega(x))).  The general ring product `BurnsideElement.__mul__` is
the reference the tests compare against.

The dense window vector is the cipher's one representation: a
`Ciphertext` stores it, and the file codec writes and reads its body
lines through `burnside.format_terms` and `burnside.read_terms`, one
slice or chunk at a time, with no sparse element and no Python loop
over the terms.  The reader checks the header and the length line
first, reads the body no further than one byte past its `max_body`
bound (`brc decrypt` passes `limits.max_text_ciphertext_body`), and
parses it in place in the file's bytes into a vector allocated once.

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
are stored and trailing zeros would otherwise be lost.  The length, the
indices of a key file and the digits of each index have caps in
`brc.limits`, and `read_message_file` reads a message file no further
than one byte past its length cap.
"""

from __future__ import annotations

import os
import re
import stat
from collections import deque
from dataclasses import dataclass
from functools import partial
from io import FileIO
from itertools import compress, count
from operator import add, countOf
from pathlib import Path
from typing import Callable, Sequence

from .burnside import (
    ElementFormatError,
    KeySet,
    SupportWindowError,
    format_terms,
    read_terms,
    ring_decode,
    ring_encode,
)
from .limits import MAX_INDEX_DIGITS, MAX_KEY_SIZE, MAX_LENGTH, check_key_limits
from .marks import MarkAction, key_marks

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
    "write_key_file",
    "read_key_file",
    "write_ciphertext_file",
    "read_ciphertext_file",
    "read_message_file",
    "KEY_MAGIC",
    "CT_MAGIC",
]

KEY_MAGIC = "BRC-KEY v1"
CT_MAGIC = "BRC-CT v1"

_KEY_LINE = re.compile(r"S(?: [1-9][0-9]*)+")
_LENGTH_LINE = re.compile(r"L ([1-9][0-9]*)")
_NON_ASCII = re.compile(rb"[\x80-\xff]")
# n -> n - 1, the vector slot of the label D(n).
_PRED = partial(add, -1)
# Window values formatted by one `%` call of the writer.
_CT_SLICE = 1 << 12
# Most bytes read of the header line and of the length line each; no
# valid one is that long, and an error quotes a longer one cut there.
_CT_HEAD_LINE = 80
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
        raise _too_long(len(data))
    if not data.isascii():
        pos = next(pos for pos, b in enumerate(data) if b > 127)
        raise MessageError(f"non-ASCII byte 0x{data[pos]:02x} at position {pos}")
    return list(data)


def _too_long(size: int | None) -> MessageError:
    """The MessageError for a message above MAX_LENGTH; `size` is its length, None if unknown."""
    of_size = "" if size is None else f" of {size} bytes"
    return MessageError(f"message{of_size} is longer than {MAX_LENGTH} bytes")


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
    return Ciphertext(MarkAction(key_marks(key_set, len(values)), len(values))(values))


def decrypt(ciphertext: Ciphertext, key_set: KeySet) -> bytes:
    """The same product on the ciphertext vector, then decode_text: the key is its own inverse."""
    action = MarkAction(key_marks(key_set, ciphertext.length), ciphertext.length)
    return decode_text(action(ciphertext.values))


def write_key_file(path: str | Path, key_set: KeySet) -> None:
    """Write a key file; a key beyond check_key_limits is a ValueError."""
    check_key_limits(key_set)
    indices = " ".join(str(i) for i in key_set)
    Path(path).write_text(f"{KEY_MAGIC}\nS {indices}\n")


def _ascii(data: bytes, what: str, offset: int = 0) -> bytes:
    """`data`, refused at its first non-ASCII byte; `offset` is where it starts in the file."""
    if not data.isascii():
        raise FileFormatError(f"non-ASCII byte at offset {offset + _NON_ASCII.search(data).start()} of {what} file")
    return data


def read_message_file(path: str | Path) -> bytes:
    """The bytes of a message file; MessageError above MAX_LENGTH, read no further."""
    with open(path, "rb") as f:
        data = f.read(MAX_LENGTH + 1)
        if len(data) <= MAX_LENGTH:
            return data
        info = os.fstat(f.fileno())
    # A pipe or device has no size to report without reading it all.
    raise _too_long(info.st_size if stat.S_ISREG(info.st_mode) else None)


def read_key_file(path: str | Path) -> KeySet:
    # Bytes, not text mode: newline translation would accept "\r\n".  One byte past
    # the longest canonical file tells a longer file apart without reading it all.
    with open(path, "rb") as f:
        text = _ascii(f.read(_KEY_FILE_MAX + 1), "key").decode("ascii")
    if len(text) > _KEY_FILE_MAX:
        raise FileFormatError(f"key file is longer than {_KEY_FILE_MAX} bytes")
    lines = text.split("\n")
    if len(lines) != 3 or lines[2]:
        raise FileFormatError("key file must be exactly 2 newline-terminated lines")
    if lines[0] != KEY_MAGIC:
        raise FileFormatError(f"bad key file header {lines[0]!r}")
    if not _KEY_LINE.fullmatch(lines[1]):
        raise FileFormatError(f"bad key line {lines[1]!r}")
    # The read bound keeps every token short enough for int().
    indices = [int(tok) for tok in lines[1].split()[1:]]
    if indices != sorted(set(indices)):
        raise FileFormatError("key indices must be strictly increasing")
    key_set = KeySet(indices)
    try:
        check_key_limits(key_set)
    except ValueError as exc:
        raise FileFormatError(str(exc)) from None
    return key_set


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


def read_ciphertext_file(path: str | Path, max_body: Callable[[int], int] | None = None) -> Ciphertext:
    """Read a canonical ciphertext file straight into its window vector.

    The header and the length line, at most _CT_HEAD_LINE bytes each, are
    checked before the body is read.  With `max_body`, a body longer than
    max_body(L) bytes, L the declared length, is refused after one byte
    more is read; without it the body is read to its end.  The body's bytes
    are parsed in a helper, so they are freed before the vector is copied
    into the Ciphertext's tuple.
    """
    # Bytes, not text mode: newline translation would accept "\r\n".  Unbuffered:
    # the head is read a byte at a time and the body in one allocation.
    with open(path, "rb", buffering=0) as f:
        header = _read_head_line(f, 0)
        if header != CT_MAGIC:
            raise FileFormatError(f"bad ciphertext header {header!r}")
        length_line = _read_head_line(f, len(header) + 1)
        m = _LENGTH_LINE.fullmatch(length_line)
        if m is None:
            raise FileFormatError(f"bad length line {length_line!r}")
        # Compare digit counts first: int() refuses very long digit strings.
        if len(m[1]) > len(str(MAX_LENGTH)) or int(m[1]) > MAX_LENGTH:
            raise FileFormatError(f"declared length {m[1]} is above the limit {MAX_LENGTH}")
        window = int(m[1])
        values = _read_ciphertext_values(_read_body(f, window, max_body), window, len(header) + len(length_line) + 2)
    return Ciphertext(values)


def _read_body(f: FileIO, window: int, max_body: Callable[[int], int] | None) -> bytes:
    """The rest of the file, or FileFormatError one byte past max_body(window)."""
    if max_body is None:
        return f.readall()
    limit = max_body(window)
    # A pipe returns what it holds, so read until the file ends or the limit is passed.
    chunks = []
    left = limit + 1
    while left and (chunk := f.read(left)):
        chunks.append(chunk)
        left -= len(chunk)
    if not left:
        raise FileFormatError(f"ciphertext body is longer than {limit} bytes, the most a {window}-byte text encrypts to")
    return b"".join(chunks)


def _read_head_line(f: FileIO, offset: int) -> str:
    """The ciphertext file's line at `offset` without its newline, cut at _CT_HEAD_LINE bytes."""
    line = _ascii(f.readline(_CT_HEAD_LINE), "ciphertext", offset)
    if not line.endswith(b"\n") and len(line) < _CT_HEAD_LINE:
        raise FileFormatError("truncated ciphertext file")
    return line.decode("ascii").removesuffix("\n")


def _read_ciphertext_values(body: bytes, window: int, offset: int) -> list[int]:
    """The window vector of a ciphertext body found at `offset` of its file, parsed in place."""
    _ascii(body, "ciphertext", offset)
    if not body:
        raise FileFormatError("truncated ciphertext file")
    if not body.endswith(b"\n"):
        raise FileFormatError("ciphertext file must end with a newline")
    # The body of the zero vector, "0", holds no term lines.
    start = 2 if body == b"0\n" else 0
    # values[n-1] holds D(n); the whole window is allocated once, before the terms are read.
    values = [0] * window
    try:
        for labels, coeffs in read_terms(body, start):
            # Ascending, so the last label bounds the chunk before any is used as an index.
            top = labels[-1]
            if top > window:
                raise FileFormatError(f"ciphertext has support at D{top}, outside window L={window}")
            if top - labels[0] + 1 == len(labels):
                # Consecutive labels: the chunk's coefficients fill one slice.
                values[labels[0] - 1 : top] = coeffs
            else:
                deque(map(values.__setitem__, map(_PRED, labels), coeffs), maxlen=0)
    except ElementFormatError as exc:
        raise FileFormatError(f"ciphertext {exc}") from None
    return values
