"""Involutory-multiplier cipher on the dihedral span of the ring.

A message of L bytes becomes the window vector p = sum_i p_i * D(i);
the ciphertext is p * k for a key element k (a product of basic
degrees, hence self-inverse, so decryption is the same multiplication).
The product never raises a dihedral index, so ciphertext support stays
inside the window {D(1), ..., D(L)}.

Encryption and decryption compute that product in mark coordinates
(`burnside.window_product`): divisor sums of the message vector, a
pointwise multiplication by the key's marks, which are all +-1, and a
Mobius inversion.  The product costs O(L log L) whatever the key: the
key enters only through its L marks, gathered from its terms in
O(min(L, sqrt(n))) steps per D(n) term, so a key index as large as
10**12 costs no more than a small one.  `BurnsideElement.__mul__`
stays the general ring product and the reference the tests compare
against.

File formats (ASCII text, canonical: a reader accepts exactly the bytes
the matching writer produces for some value, and raises FileFormatError
for anything else):

    key file:           BRC-KEY v1
                        S 2 3

    ciphertext file:    BRC-CT v1
                        L 5
                        <canonical element rendering>

Numbers are ASCII digits with no leading zeros, `+` or `_`.  The
declared length L travels with the ciphertext, since only nonzero
coefficients are stored and trailing zeros would otherwise be lost; it
is at most MAX_LENGTH.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .burnside import (
    O2,
    SO2,
    BurnsideElement,
    D,
    ElementFormatError,
    KeySet,
    key_element,
    window_product,
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
    "encrypt_message",
    "decrypt_message",
    "write_key_file",
    "read_key_file",
    "write_ciphertext_file",
    "read_ciphertext_file",
    "KEY_MAGIC",
    "CT_MAGIC",
    "MAX_LENGTH",
]

KEY_MAGIC = "BRC-KEY v1"
CT_MAGIC = "BRC-CT v1"

# Longest message, in bytes, and largest declared ciphertext length.  A
# ciphertext file of a few bytes can declare any L, and decryption works
# on a dense vector of L coefficients.
MAX_LENGTH = 1 << 20

_KEY_LINE = re.compile(r"S(?: [1-9][0-9]*)+")
_LENGTH_LINE = re.compile(r"L ([1-9][0-9]*)")


class MessageError(ValueError):
    """Message bytes cannot be encoded or decoded (empty, too long or non-ASCII)."""


class SupportWindowError(ValueError):
    """Element support escapes the dihedral window {D(1), ..., D(L)}."""


class FileFormatError(ValueError):
    """Key or ciphertext file violates its strict text format."""


def _check_window(element: BurnsideElement, length: int, what: str) -> None:
    if element.coeff(O2) or element.coeff(SO2):
        raise SupportWindowError(f"{what} has support outside the dihedral span")
    for k in element.dihedral_indices():
        if k > length:
            raise SupportWindowError(f"{what} has support at D{k}, outside window L={length}")


def _check_key(key: BurnsideElement) -> None:
    if key.coeff(O2) != 1:
        raise ValueError("not a key element: coefficient at O2 must be 1")


@dataclass(frozen=True)
class Ciphertext:
    """Encrypted element together with its declared message length."""

    element: BurnsideElement
    length: int

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError(f"declared length must be >= 1, got {self.length}")
        _check_window(self.element, self.length, "ciphertext")


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
    for pos, b in enumerate(data):
        if b > 127:
            raise MessageError(f"non-ASCII byte 0x{b:02x} at position {pos}")
    return list(data)


def decode_text(values: Sequence[int]) -> bytes:
    """Inverse of encode_text; every value must be a 7-bit code."""
    if not values:
        raise MessageError("empty vector")
    for pos, v in enumerate(values):
        if not 0 <= v <= 127:
            raise MessageError(f"recovered value {v} at position {pos} is outside [0, 127]")
    return bytes(values)


def ring_encode(values: Sequence[int]) -> BurnsideElement:
    """Element with coefficient values[i-1] at D(i); zeros are dropped."""
    if not values:
        raise ValueError("empty plaintext vector")
    return BurnsideElement({D(i): v for i, v in enumerate(values, start=1) if v})


def ring_decode(element: BurnsideElement, length: int) -> list[int]:
    """Coefficient vector of `element` on D(1)..D(length)."""
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    _check_window(element, length, "element")
    values = [0] * length
    for g, c in element.items():
        values[g.index - 1] = c
    return values


def encrypt(plaintext: BurnsideElement, length: int, key: BurnsideElement) -> Ciphertext:
    """Multiply the plaintext element by the key inside window `length`."""
    _check_key(key)
    return Ciphertext(ring_encode(window_product(ring_decode(plaintext, length), key)), length)


def decrypt(ciphertext: Ciphertext, key: BurnsideElement) -> BurnsideElement:
    """Apply the same multiplication; the key is its own inverse."""
    _check_key(key)
    return ring_encode(window_product(ring_decode(ciphertext.element, ciphertext.length), key))


def encrypt_message(data: bytes | str, key_set: KeySet) -> Ciphertext:
    """encode_text + encrypt in one step, on the coefficient vector."""
    values = encode_text(data)
    return Ciphertext(ring_encode(window_product(values, key_element(key_set))), len(values))


def decrypt_message(ciphertext: Ciphertext, key_set: KeySet) -> bytes:
    """decrypt + decode_text in one step, on the coefficient vector."""
    values = ring_decode(ciphertext.element, ciphertext.length)
    return decode_text(window_product(values, key_element(key_set)))


def write_key_file(path: str | Path, key_set: KeySet) -> None:
    indices = " ".join(str(i) for i in key_set)
    Path(path).write_text(f"{KEY_MAGIC}\nS {indices}\n")


def _read_ascii(path: str | Path, what: str) -> str:
    # Bytes, not text mode: newline translation would accept "\r\n".
    data = Path(path).read_bytes()
    try:
        return data.decode("ascii")
    except UnicodeDecodeError as exc:
        raise FileFormatError(f"non-ASCII byte at offset {exc.start} of {what} file") from None


def read_key_file(path: str | Path) -> KeySet:
    lines = _read_ascii(path, "key").split("\n")
    if len(lines) != 3 or lines[2]:
        raise FileFormatError("key file must be exactly 2 newline-terminated lines")
    if lines[0] != KEY_MAGIC:
        raise FileFormatError(f"bad key file header {lines[0]!r}")
    if not _KEY_LINE.fullmatch(lines[1]):
        raise FileFormatError(f"bad key line {lines[1]!r}")
    try:
        indices = [int(tok) for tok in lines[1].split()[1:]]
    except ValueError:  # more digits than int() converts
        raise FileFormatError("key index too long") from None
    if indices != sorted(set(indices)):
        raise FileFormatError("key indices must be strictly increasing")
    return KeySet(indices)


def write_ciphertext_file(path: str | Path, ciphertext: Ciphertext) -> None:
    body = ciphertext.element.render()
    Path(path).write_text(f"{CT_MAGIC}\nL {ciphertext.length}\n{body}\n")


def read_ciphertext_file(path: str | Path) -> Ciphertext:
    lines = _read_ascii(path, "ciphertext").split("\n")
    if len(lines) < 4:
        raise FileFormatError("truncated ciphertext file")
    if lines[-1]:
        raise FileFormatError("ciphertext file must end with a newline")
    if lines[0] != CT_MAGIC:
        raise FileFormatError(f"bad ciphertext header {lines[0]!r}")
    m = _LENGTH_LINE.fullmatch(lines[1])
    if m is None:
        raise FileFormatError(f"bad length line {lines[1]!r}")
    # Compare digit counts first: int() refuses very long digit strings.
    if len(m[1]) > len(str(MAX_LENGTH)) or int(m[1]) > MAX_LENGTH:
        raise FileFormatError(f"declared length {m[1]} is above the limit {MAX_LENGTH}")
    length = int(m[1])
    try:
        element = BurnsideElement.parse("\n".join(lines[2:-1]))
    except ElementFormatError as exc:
        raise FileFormatError(f"bad element body: {exc}") from None
    try:
        return Ciphertext(element=element, length=length)
    except SupportWindowError as exc:
        raise FileFormatError(str(exc)) from None
