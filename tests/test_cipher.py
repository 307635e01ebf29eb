import hashlib
import random
import time
import tracemalloc
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given

from brc import burnside, cipher
from brc.burnside import SO2, O2, ZERO, BurnsideElement, D, ElementFormatError, KeySet, key_element
from brc.cipher import (
    MAX_LENGTH,
    Ciphertext,
    FileFormatError,
    MessageError,
    SupportWindowError,
    decode_text,
    decrypt,
    encode_text,
    encrypt,
    read_ciphertext_file,
    read_key_file,
    ring_decode,
    ring_encode,
    write_ciphertext_file,
    write_key_file,
)
from strategies import key_sets, plaintext_vectors


# ------------------------------------------------------------- text encoding


def test_encode_single_char():
    assert encode_text("A") == [65]


def test_encode_two_chars():
    assert encode_text("Hi") == [72, 105]


def test_encode_accepts_bytes():
    assert encode_text(b"Hi") == [72, 105]


def test_encode_rejects_empty():
    with pytest.raises(MessageError):
        encode_text("")


def test_encode_rejects_message_above_max_length():
    encode_text(b"a" * MAX_LENGTH)
    with pytest.raises(MessageError, match="longer"):
        encode_text(b"a" * (MAX_LENGTH + 1))


def test_encode_rejects_non_ascii_byte():
    with pytest.raises(MessageError, match="position 1"):
        encode_text(b"a\xc3\xa9")


def test_encode_rejects_non_ascii_str():
    with pytest.raises(MessageError):
        encode_text("café")


def test_decode_inverts_encode():
    assert decode_text(encode_text("Hi there")) == b"Hi there"


def test_decode_rejects_out_of_range():
    with pytest.raises(MessageError, match="position 1"):
        decode_text([65, 300])
    with pytest.raises(MessageError):
        decode_text([-1])


@pytest.mark.parametrize(
    "data, message",
    [
        (b"ab\x7f\xe9\xff", "non-ASCII byte 0xe9 at position 3"),
        (bytearray(b"\x80"), "non-ASCII byte 0x80 at position 0"),
        ("ab\u00e9", "non-ASCII character at position 2"),
    ],
)
def test_encode_error_names_first_bad_byte(data, message):
    with pytest.raises(MessageError) as info:
        encode_text(data)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "values, message",
    [
        ([65, 128, 300], "recovered value 128 at position 1 is outside [0, 127]"),
        ((0, 127, -3, 200), "recovered value -3 at position 2 is outside [0, 127]"),
        ([10**40], f"recovered value {10**40} at position 0 is outside [0, 127]"),
        ([1, 2, 255], "recovered value 255 at position 2 is outside [0, 127]"),
    ],
)
def test_decode_error_names_first_bad_value(values, message):
    with pytest.raises(MessageError) as info:
        decode_text(values)
    assert str(info.value) == message


def test_decode_accepts_tuples_and_every_code():
    assert decode_text(tuple(range(128))) == bytes(range(128))


# ------------------------------------------------------------- ring encoding


def test_ring_encode_definitional():
    assert ring_encode([3, 1]) == BurnsideElement({D(1): 3, D(2): 1})


def test_ring_encode_drops_zero_but_length_is_separate():
    assert ring_encode([0, 5]) == BurnsideElement({D(2): 5})


def test_ring_encode_single():
    assert ring_encode([65]) == BurnsideElement({D(1): 65})


def test_ring_decode_basic():
    assert ring_decode(BurnsideElement({D(1): 65}), 1) == [65]


def test_ring_decode_restores_zeros():
    assert ring_decode(BurnsideElement({D(2): 5}), 2) == [0, 5]


def test_ring_decode_rejects_support_outside_window():
    with pytest.raises(SupportWindowError):
        ring_decode(BurnsideElement({D(3): 1}), 2)


def test_ring_decode_rejects_non_dihedral_support():
    with pytest.raises(SupportWindowError):
        ring_decode(BurnsideElement({O2: 1}), 3)


# ----------------------------------------------------------- encrypt/decrypt


def _ring_product(values, s):
    """The paper's p * k by the generic ring product, as a window vector."""
    return ring_decode(ring_encode(values) * key_element(s), len(values))


def test_encrypt_example():
    c = encrypt(bytes([3, 1]), KeySet([2]))
    assert c.values == (-3, -1)
    assert c.length == 2


def test_encrypt_single_term():
    # 5*D3 * (O2 - D3) = 5*D3 - 10*D3 = -5*D3
    c = encrypt(bytes([0, 0, 5]), KeySet([3]))
    assert c.values == (0, 0, -5)


def test_encrypt_rejects_plaintext_outside_window():
    # The window W_L has 1 <= L <= MAX_LENGTH, checked before any key marks.
    with pytest.raises(MessageError, match="empty"):
        encrypt(b"", KeySet([2]))
    with pytest.raises(MessageError, match="longer"):
        encrypt(b"a" * (MAX_LENGTH + 1), KeySet([2]))


def test_decrypt_roundtrips_example():
    assert decrypt(Ciphertext([-3, -1]), KeySet([2])) == bytes([3, 1])


def test_decrypt_zero_element():
    c = Ciphertext(ring_decode(ZERO, 4))
    assert decrypt(c, KeySet([2, 3])) == bytes(4)


def test_message_roundtrip_hi():
    ct = encrypt("Hi", KeySet([2, 3]))
    assert decrypt(ct, KeySet([2, 3])) == b"Hi"


def test_encrypt_frozen_value():
    # (72*D1 + 105*D2) * (O2 - D2): D1*D2 and D2*D2 both fall on the
    # plaintext support, giving -72*D1 - 105*D2.
    ct = encrypt("Hi", KeySet([2]))
    assert ct.length == 2
    assert ring_encode(ct.values) == BurnsideElement({D(1): -72, D(2): -105})


def test_nul_byte_roundtrip():
    ct = encrypt(b"\x00", KeySet([2]))
    assert ct.values == (0,)
    assert decrypt(ct, KeySet([2])) == b"\x00"


# ---------------------------------------------------------------- properties


@given(plaintext_vectors(), key_sets(max_size=6, max_index=40))
def test_roundtrip_exact(values, s):
    ct = encrypt(bytes(values), s)
    assert ct.length == len(values)
    assert decrypt(ct, s) == bytes(values)


@given(plaintext_vectors(), key_sets(max_size=6, max_index=40))
def test_support_preservation(values, s):
    product = ring_encode(values) * key_element(s)
    assert product.coeff(O2) == 0
    assert product.coeff(SO2) == 0
    assert all(k <= len(values) for k in product.dihedral_indices())
    assert list(encrypt(bytes(values), s).values) == ring_decode(product, len(values))


@given(
    st.lists(st.tuples(st.integers(0, 63), st.integers(0, 64)), min_size=1, max_size=16),
    key_sets(max_size=4, max_index=20),
)
def test_encryption_is_linear(pairs, s):
    # Sums stay 7-bit, so the sum of two messages is a message too.
    v1, v2 = zip(*pairs)
    lhs = encrypt(bytes(map(sum, pairs)), s).values
    rhs = tuple(map(sum, zip(encrypt(bytes(v1), s).values, encrypt(bytes(v2), s).values)))
    assert lhs == rhs


@given(plaintext_vectors(max_length=300), key_sets(max_size=6, max_index=1000))
def test_encrypt_and_decrypt_equal_ring_product(values, s):
    # Key indices mostly lie above L.
    product = _ring_product(values, s)
    assert list(encrypt(bytes(values), s).values) == product
    assert decrypt(Ciphertext(product), s) == bytes(values)


def test_huge_key_index_encrypts_1kb_quickly():
    s = KeySet([3, 10**12])
    data = bytes(32 + i % 95 for i in range(1000))
    start = time.perf_counter()
    ct = encrypt(data, s)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    assert list(ct.values) == _ring_product(list(data), s)
    assert decrypt(ct, s) == data


def test_encrypt_ciphertext_file_is_fixed(tmp_path):
    # A seeded 10 KB message under a 16-index key; the digest pins the
    # whole ciphertext file, so any change to the product shows here.
    key = KeySet([3, 5, 8, 11, 14, 18, 21, 26, 30, 33, 37, 42, 47, 52, 58, 63])
    data = bytes(b & 0x7F for b in random.Random(20261018).randbytes(10_000))
    path = tmp_path / "msg.ct"
    write_ciphertext_file(path, encrypt(data, key))
    text = path.read_bytes()
    assert len(text) == 89856
    assert hashlib.sha256(text).hexdigest() == "4d6e1a7846a20ddc5be1553d3ace42641408ed0a50830bc742771e254465c533"
    assert decrypt(read_ciphertext_file(path), key) == data


# -------------------------------------------------------------- file formats


def test_key_file_roundtrip(tmp_path):
    path = tmp_path / "key.brc"
    write_key_file(path, KeySet([2, 3, 10]))
    assert path.read_text() == "BRC-KEY v1\nS 2 3 10\n"
    assert read_key_file(path) == KeySet([2, 3, 10])


def test_key_file_index_digit_cap(tmp_path):
    path = tmp_path / "key.brc"
    longest = 10**cipher.MAX_INDEX_DIGITS - 1
    write_key_file(path, KeySet([3, longest]))
    assert read_key_file(path) == KeySet([3, longest])
    path.write_text(f"BRC-KEY v1\nS 3 {longest + 1}\n")
    with pytest.raises(FileFormatError, match="digits"):
        read_key_file(path)
    with pytest.raises(ValueError, match="digits"):
        write_key_file(tmp_path / "k2.brc", KeySet([3, longest + 1]))
    assert not (tmp_path / "k2.brc").exists()


def test_key_file_of_the_longest_canonical_size_reads(tmp_path):
    path = tmp_path / "key.brc"
    longest = 10**cipher.MAX_INDEX_DIGITS - 1
    key = KeySet(range(longest - cipher.MAX_KEY_SIZE + 1, longest + 1))
    write_key_file(path, key)
    assert path.stat().st_size == cipher._KEY_FILE_MAX
    assert read_key_file(path) == key


def test_key_file_reader_stops_past_the_longest_canonical_size(tmp_path):
    # A sparse 64 MiB file: the reader refuses it after the first bytes.
    path = tmp_path / "huge.brc"
    with open(path, "wb") as f:
        f.write(b"BRC-KEY v1\nS 2 3\n")
        f.truncate(64 << 20)
    tracemalloc.start()
    try:
        with pytest.raises(FileFormatError, match=f"longer than {cipher._KEY_FILE_MAX} bytes"):
            read_key_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 16


@pytest.mark.parametrize(
    "content",
    [
        "",
        "BRC-KEY v2\nS 2 3\n",
        "BRC-KEY v1\nT 2 3\n",
        "BRC-KEY v1\nS 3 2\n",  # not increasing
        "BRC-KEY v1\nS 2 2\n",  # duplicate
        "BRC-KEY v1\nS 2 x\n",
        "BRC-KEY v1\nS\n",
        "BRC-KEY v1\nS 2\nextra\n",
        # non-canonical text
        "BRC-KEY v1\nS 02 3\n",
        "BRC-KEY v1\nS 2 \u0663\n",  # Arabic-Indic three
        "BRC-KEY v1\nS +2\n",
        "BRC-KEY v1\nS 1_0\n",
        "BRC-KEY v1\nS 2  3\n",
        "BRC-KEY v1\nS 2 3 \n",
        "BRC-KEY v1\nS 2 3",
        "BRC-KEY v1\r\nS 2 3\r\n",
        "\nBRC-KEY v1\nS 2 3\n",
        "BRC-KEY v1\n\nS 2 3\n",
        "BRC-KEY v1\nS " + "1" * 5000 + "\n",  # more digits than int() converts
    ],
)
def test_key_file_strict_parsing(tmp_path, content):
    path = tmp_path / "key.brc"
    path.write_text(content)
    with pytest.raises(FileFormatError):
        read_key_file(path)


def test_ciphertext_file_roundtrip(tmp_path):
    path = tmp_path / "msg.ct"
    ct = encrypt("A\x00\x00", KeySet([2, 3]))
    assert ct.length == 3
    write_ciphertext_file(path, ct)
    back = read_ciphertext_file(path)
    assert back == ct
    assert back.length == 3  # declared length survives trailing zeros


def test_ciphertext_of_an_empty_generator_is_refused(tmp_path):
    # Checked after the values become a tuple, so no length-0 ciphertext
    # reaches the writer, whose "L 0" file the reader would refuse.
    with pytest.raises(ValueError, match="declared length must be >= 1"):
        Ciphertext(v for v in [])
    ct = Ciphertext(v for v in [0, 5])
    path = tmp_path / "gen.ct"
    write_ciphertext_file(path, ct)
    assert read_ciphertext_file(path) == ct


def test_ciphertext_file_zero_element(tmp_path):
    path = tmp_path / "zero.ct"
    ct = Ciphertext(ring_decode(ZERO, 2))
    write_ciphertext_file(path, ct)
    assert path.read_text() == "BRC-CT v1\nL 2\n0\n"
    assert read_ciphertext_file(path) == ct


@pytest.mark.parametrize(
    "content",
    [
        "",
        "BRC-CT v1\nL 2\n",
        "BRC-CT v2\nL 2\n0\n",
        "BRC-CT v1\nK 2\n0\n",
        "BRC-CT v1\nL 0\n0\n",
        "BRC-CT v1\nL -3\n0\n",
        "BRC-CT v1\nL 2\nD3 1\n",  # support outside declared window
        "BRC-CT v1\nL 2\nO2 1\n",  # non-dihedral support
        "BRC-CT v1\nL 2\nD1 0\n",  # stored zero coefficient
        "BRC-CT v1\nL 2\nnot a term\n",
        # non-canonical text
        "BRC-CT v1\nL 2\nD01 5\n",
        "BRC-CT v1\nL 2\nD1 +5\n",
        "BRC-CT v1\nL 2\nD1 05\n",
        "BRC-CT v1\nL 2\nD1 1_0\n",
        "BRC-CT v1\nL \u0662\nD1 5\n",  # Arabic-Indic two
        "BRC-CT v1\nL 2\nD\u00b2 5\n",  # superscript two
        "BRC-CT v1\nL 02\nD1 5\n",
        "BRC-CT v1\nL +2\nD1 5\n",
        "BRC-CT v1\nL 2\nD1 5",
        "BRC-CT v1\nL 2\nD1 5\n\n",
        "BRC-CT v1\nL 2\n\nD1 5\n",
        "BRC-CT v1\nL 2\nD1 5 \n",
        "BRC-CT v1\r\nL 2\r\nD1 5\r\n",
        "BRC-CT v1 \nL 2\nD1 5\n",
        # declared length above MAX_LENGTH
        "BRC-CT v1\nL 2000000\nD1 1\n",
        "BRC-CT v1\nL " + "9" * 5000 + "\nD1 1\n",
        # numbers longer than int() converts, repeated and misplaced terms
        "BRC-CT v1\nL 2\nD" + "1" * 5000 + " 1\n",
        "BRC-CT v1\nL 2\nD1 " + "1" * 5000 + "\n",
        "BRC-CT v1\nL 2\nD1 1\nD1 1\n",
        "BRC-CT v1\nL 4\nD1 1\nD3 1\nD2 1\nD4 1\n",  # labels spanning their count, out of order
        "BRC-CT v1\nL 2\nD1 1\nSO2 1\n",
        "BRC-CT v1\nL 2\n0\nD1 5\n",
    ],
)
def test_ciphertext_file_strict_parsing(tmp_path, content):
    path = tmp_path / "bad.ct"
    path.write_text(content)
    with pytest.raises(FileFormatError):
        read_ciphertext_file(path)


# The exact messages: a non-ASCII byte is refused by its offset before any
# line is parsed; ASCII lines are quoted as text.
@pytest.mark.parametrize(
    "content, message",
    [
        ("BRC-CT v1\nL 2\nD\u00b2 5\n", "non-ASCII byte at offset 15 of ciphertext file"),
        ("BRC-CT v1\nL 2\nD1 \u0662\n", "non-ASCII byte at offset 17 of ciphertext file"),
        ("BRC-CT v1\nL 2\nO2 \u0663\n", "non-ASCII byte at offset 17 of ciphertext file"),
        ("BRC-CT v1\nL 2\nD1 5\nD\u00b2 5\n", "non-ASCII byte at offset 20 of ciphertext file"),
        ("BRC-CT v\u00b9\nL 2\nD1 5\n", "non-ASCII byte at offset 8 of ciphertext file"),
        ("BRC-CT v1\nL \u0662\nD1 5\n", "non-ASCII byte at offset 12 of ciphertext file"),
        ("BRC-CT v2\nL 2\nD1 5\n", "bad ciphertext header 'BRC-CT v2'"),
        ("BRC-CT v1\r\nL 2\r\nD1 5\r\n", "bad ciphertext header 'BRC-CT v1\\r'"),
        ("BRC-CT v1\nL +2\nD1 5\n", "bad length line 'L +2'"),
        ("BRC-CT v1\nL 2 \nD1 5\n", "bad length line 'L 2 '"),
        ("BRC-CT v1\nL 2000000\nD1 1\n", "declared length 2000000 is above the limit 1048576"),
        ("BRC-CT v1\nL 2\nD1 5\nD2 x\n", "ciphertext term line 'D2 x' is malformed"),
        ("BRC-KEY v1\nS 2 \u0663\n", "non-ASCII byte at offset 15 of key file"),
    ],
)
def test_file_error_texts(tmp_path, content, message):
    path = tmp_path / "bad"
    path.write_bytes(content.encode())
    reader = read_key_file if content.startswith("BRC-KEY") else read_ciphertext_file
    with pytest.raises(FileFormatError) as exc:
        reader(path)
    assert str(exc.value) == message


# Window vectors with many zero entries, so that gaps between terms show.
_sparse_vectors = st.lists(st.one_of(st.just(0), st.integers(-(10**6), 10**6)), min_size=1, max_size=300)


@given(st.one_of(_sparse_vectors, st.integers(1, 300).map(lambda n: [0] * n)))
def test_ciphertext_codec_matches_element_rendering(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("codec") / "v.ct"
    write_ciphertext_file(path, Ciphertext(values=values))
    assert path.read_bytes() == f"BRC-CT v1\nL {len(values)}\n{ring_encode(values).render()}\n".encode()
    back = read_ciphertext_file(path)
    assert back.values == tuple(values)
    assert back.length == len(values)


def test_ciphertext_file_accepts_max_length(tmp_path):
    path = tmp_path / "max.ct"
    path.write_text(f"BRC-CT v1\nL {MAX_LENGTH}\nD1 1\n")
    assert read_ciphertext_file(path).length == MAX_LENGTH


def _read_file(tmp_path, length, body):
    path = tmp_path / "v.ct"
    path.write_text(f"BRC-CT v1\nL {length}\n{body}")
    return list(read_ciphertext_file(path).values)


def _read_element(tmp_path, length, body):
    return ring_decode(BurnsideElement.parse(body[:-1]), length)


# Both readers of `D<n> <c>` lines, the ciphertext body and the element
# text, which share burnside.read_terms and its chunk size; each chunk
# test runs both.
_READERS = [(_read_file, FileFormatError), (_read_element, (ElementFormatError, SupportWindowError))]


@pytest.mark.parametrize(
    "body",
    [
        "D1 1\nD1 1\n",  # repeated across a chunk boundary
        "D2 1\nD1 1\n",  # descending across a chunk boundary
        "D1 1\nD5 1\n",  # support outside L 4, in a later chunk
        "D1 1\nD2 1\nD3 x\n",  # bad line in a later chunk
        "D1 1\nD2 " + "1" * 5000 + "\n",  # too long, in a later chunk
    ],
)
def test_ciphertext_reader_checks_every_chunk(tmp_path, monkeypatch, body):
    # With a 1-character chunk every line is a chunk of its own.
    monkeypatch.setattr(burnside, "_TERM_CHUNK", 1)
    for reader, error in _READERS:
        with pytest.raises(error):
            reader(tmp_path, 4, body)


@pytest.mark.parametrize("chunk", [1, 7, 1 << 14])
def test_ciphertext_reader_chunking_round_trips(tmp_path, monkeypatch, chunk):
    monkeypatch.setattr(burnside, "_TERM_CHUNK", chunk)
    values = [(-1) ** n * n * 1000 if n % 3 else 0 for n in range(1, 3001)]
    path = tmp_path / "v.ct"
    write_ciphertext_file(path, Ciphertext(values=values))
    body = path.read_text().split("\n", 2)[2]
    for reader, _ in _READERS:
        assert reader(tmp_path, len(values), body) == values


# Term lines that json.loads would read but the `D<n> <c>` grammar
# refuses; the grammar's fullmatch is the only gate before json.
@pytest.mark.parametrize(
    "line",
    [
        "D2 -0",
        "D2 1.0",
        "D2 1e3",
        "D2 NaN",
        "D2 Infinity",
        "D2 true",
        "D2  1",  # double space
        "D2\t1",
        "D2 01",
        "D02 1",
        "D2 +1",
        "D2 1_0",
        "D2,1",
        "D2 [1]",
        "D-1 1",
    ],
)
@pytest.mark.parametrize("chunk", [1, burnside._TERM_CHUNK])
def test_readers_refuse_json_forms_outside_the_grammar(tmp_path, monkeypatch, line, chunk):
    monkeypatch.setattr(burnside, "_TERM_CHUNK", chunk)
    body = f"D1 1\n{line}\n"
    with pytest.raises(FileFormatError, match="malformed"):
        _read_file(tmp_path, 4, body)
    with pytest.raises(ElementFormatError, match="malformed"):
        BurnsideElement.parse(body[:-1])


def test_read_terms_reads_only_its_range():
    data = b"xx\nD1 5\nD2 -3\nD4 7\nO2 1\n"
    start = data.index(b"D")
    terms = list(burnside.read_terms(data, start, data.index(b"O2")))
    assert terms == [([1, 2, 4], [5, -3, 7])]


# Coefficients beyond 64 bits, of either sign, with zeros between them.
_wide_coefficients = st.one_of(st.just(0), st.integers(2**64, 2**200), st.integers(-(2**200), -(2**64)))


@given(
    st.lists(_wide_coefficients, min_size=1, max_size=60),
    st.integers(1, 9),
    st.integers(1, 80),
)
def test_ciphertext_codec_round_trips_wide_values_across_slices_and_chunks(tmp_path_factory, values, slice_size, chunk):
    # Small slices and chunks put their boundaries inside short vectors.
    path = tmp_path_factory.mktemp("wide") / "v.ct"
    with mock.patch.object(cipher, "_CT_SLICE", slice_size), mock.patch.object(burnside, "_TERM_CHUNK", chunk):
        write_ciphertext_file(path, Ciphertext(values=values))
        assert path.read_bytes() == f"BRC-CT v1\nL {len(values)}\n{ring_encode(values).render()}\n".encode()
        assert read_ciphertext_file(path).values == tuple(values)


@pytest.mark.parametrize("values", [[1.5, 2], [2, 0, -3.0], [True, 2], [3, False]])
def test_ciphertext_writer_refuses_non_int_values(tmp_path, values):
    path = tmp_path / "v.ct"
    with pytest.raises(TypeError, match="must be an int"):
        write_ciphertext_file(path, Ciphertext(values=values))
    assert not path.exists()


def test_ciphertext_reader_memory_is_linear_in_file(tmp_path):
    # A dense 100 KB ciphertext: the reader's peak stays a small multiple
    # of the file, since it keeps no per-line strings for the whole body
    # and parses the body in place in the file's bytes, with no decoded copy.
    data = bytes(32 + (13 * i) % 95 for i in range(100_000))
    path = tmp_path / "dense.ct"
    write_ciphertext_file(path, encrypt(data, KeySet([2, 3, 5, 7, 11, 13])))
    tracemalloc.start()
    try:
        ciphertext = read_ciphertext_file(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decrypt(ciphertext, KeySet([2, 3, 5, 7, 11, 13])) == data
    # The file's bytes and the growing vector are alive together: 2.36
    # times the file on Python 3.11.
    assert peak < 2.5 * path.stat().st_size


@pytest.mark.parametrize("slice_size", [1, 7, cipher._CT_SLICE])
@pytest.mark.parametrize(
    "values",
    [[0] * 5, [(-1) ** n * n * 1000 if n % 3 else 0 for n in range(1, 3001)], [0] * 4000 + [5, 0, -3]],
)
def test_ciphertext_writer_slicing_round_trips(tmp_path, monkeypatch, slice_size, values):
    monkeypatch.setattr(cipher, "_CT_SLICE", slice_size)
    path = tmp_path / "v.ct"
    write_ciphertext_file(path, Ciphertext(values=values))
    assert path.read_bytes() == f"BRC-CT v1\nL {len(values)}\n{ring_encode(values).render()}\n".encode()
    assert read_ciphertext_file(path).values == tuple(values)


def test_ciphertext_writer_memory_is_one_slice(tmp_path):
    # A dense 100 KB ciphertext: the writer's peak is a small multiple of
    # one slice (its tuples, label ints and text, under 128 bytes a value),
    # not of the 1 MB file.
    data = bytes(32 + (13 * i) % 95 for i in range(100_000))
    ciphertext = encrypt(data, KeySet([2, 3, 5, 7, 11, 13]))
    assert all(ciphertext.values)
    path = tmp_path / "dense.ct"
    tracemalloc.start()
    try:
        write_ciphertext_file(path, ciphertext)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert read_ciphertext_file(path) == ciphertext
    assert peak < 128 * cipher._CT_SLICE < path.stat().st_size


# Characters of the ciphertext grammar plus near misses.
_CT_ALPHABET = "BRC-T v1LDSO0123456789+_\n\r\t\u00b2\u0662"


@st.composite
def ciphertext_texts(draw):
    """A written ciphertext file with up to three small random edits."""
    values = draw(plaintext_vectors(max_length=12))
    ct = encrypt(bytes(values), draw(key_sets(max_size=3, max_index=12)))
    text = f"BRC-CT v1\nL {ct.length}\n{ring_encode(ct.values).render()}\n"
    for _ in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, len(text)))
        j = draw(st.integers(i, min(len(text), i + 2)))
        text = text[:i] + draw(st.text(alphabet=_CT_ALPHABET, max_size=2)) + text[j:]
    return text


@given(st.one_of(st.text(), ciphertext_texts()))
def test_ciphertext_reader_accepts_only_canonical_files(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("fuzz") / "in.ct"
    data = text.encode("utf-8", "surrogatepass")
    path.write_bytes(data)
    try:
        ct = read_ciphertext_file(path)
    except FileFormatError:
        return
    out = path.with_suffix(".out")
    write_ciphertext_file(out, ct)
    assert out.read_bytes() == data
