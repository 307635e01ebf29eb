import hashlib
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from brc import attacks, cipher, verify
from brc.cli import build_parser, main
from brc.cipher import read_key_file
from brc.burnside import BurnsideElement, KeySet


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --------------------------------------------------------------------- keygen


def test_keygen_prints_key_element(capsys):
    code, out, _ = run_cli(capsys, "keygen", "--indices", "2,3")
    assert code == 0
    assert out == "D1 2\nD2 -1\nD3 -1\nO2 1\n"


def test_keygen_single_index(capsys):
    code, out, _ = run_cli(capsys, "keygen", "--indices", "5")
    assert code == 0
    assert out == "D5 -1\nO2 1\n"


def test_keygen_writes_key_file(tmp_path, capsys):
    path = tmp_path / "key.brc"
    code, _, _ = run_cli(capsys, "keygen", "--indices", "2,3", "--out", str(path))
    assert code == 0
    assert path.read_text() == "BRC-KEY v1\nS 2 3\n"
    assert read_key_file(path) == KeySet([2, 3])


def test_keygen_rejects_duplicates(capsys):
    code, out, err = run_cli(capsys, "keygen", "--indices", "2,2")
    assert code == 1
    assert out == ""
    assert "duplicate" in err


def test_keygen_rejects_garbage(capsys):
    code, _, err = run_cli(capsys, "keygen", "--indices", "2,x")
    assert code == 1
    assert "error" in err


def test_keygen_out_rejects_key_above_cap(tmp_path, capsys):
    path = tmp_path / "key.brc"
    indices = ",".join(str(i) for i in range(1, cipher.MAX_KEY_SIZE + 2))
    code, out, err = run_cli(capsys, "keygen", "--indices", indices, "--out", str(path))
    assert code == 1
    assert out == ""
    assert "above the limit" in err
    assert not path.exists()


def test_keygen_out_rejects_index_above_digit_cap(tmp_path, capsys):
    path = tmp_path / "key.brc"
    too_long = "1" * (cipher.MAX_INDEX_DIGITS + 1)
    code, out, err = run_cli(capsys, "keygen", "--indices", f"2,{too_long}", "--out", str(path))
    assert code == 1
    assert out == ""
    assert f"more than {cipher.MAX_INDEX_DIGITS} digits" in err
    assert not path.exists()


def test_keygen_without_out_rejects_key_above_cap(capsys):
    # The key element has up to 2**|S| terms, so the cap holds without --out too.
    indices = ",".join(str(i) for i in range(1, cipher.MAX_KEY_SIZE + 2))
    code, out, err = run_cli(capsys, "keygen", "--indices", indices)
    assert code == 1
    assert out == ""
    assert err == f"error: key set has {cipher.MAX_KEY_SIZE + 1} indices, above the limit {cipher.MAX_KEY_SIZE}\n"


def test_keygen_without_out_rejects_index_above_digit_cap(capsys):
    too_long = "1" * (cipher.MAX_INDEX_DIGITS + 1)
    code, out, err = run_cli(capsys, "keygen", "--indices", f"2,{too_long}")
    assert code == 1
    assert out == ""
    assert err == f"error: key index has more than {cipher.MAX_INDEX_DIGITS} digits\n"


def test_keygen_out_accepts_index_at_digit_cap(tmp_path, capsys):
    path = tmp_path / "key.brc"
    longest = "9" * cipher.MAX_INDEX_DIGITS
    code, _, _ = run_cli(capsys, "keygen", "--indices", f"2,{longest}", "--out", str(path))
    assert code == 0
    assert read_key_file(path) == KeySet([2, int(longest)])


# ------------------------------------------------------------ encrypt/decrypt


@pytest.fixture
def keyfile(tmp_path, capsys):
    path = tmp_path / "key.brc"
    assert main(["keygen", "--indices", "2,3", "--out", str(path)]) == 0
    capsys.readouterr()
    return path


def test_encrypt_decrypt_roundtrip(tmp_path, keyfile, capsys):
    msg = tmp_path / "msg.txt"
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    msg.write_bytes(b"attack at dawn\n")
    assert run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", str(msg), "--out", str(ct))[0] == 0
    assert ct.read_text().startswith("BRC-CT v1\nL 15\n")
    assert run_cli(capsys, "decrypt", "--key", str(keyfile), "--in", str(ct), "--out", str(out))[0] == 0
    assert out.read_bytes() == b"attack at dawn\n"


def test_encrypt_rejects_empty_input(tmp_path, keyfile, capsys):
    msg = tmp_path / "empty.txt"
    msg.write_bytes(b"")
    code, _, err = run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", str(msg), "--out", str(tmp_path / "x.ct"))
    assert code == 1
    assert "empty" in err


def test_encrypt_reads_no_further_than_the_longest_message(tmp_path, keyfile, capsys):
    # A sparse 64 MiB input: refused after MAX_LENGTH + 1 bytes, with the
    # file's size in the message.
    msg = tmp_path / "huge.txt"
    with open(msg, "wb") as f:
        f.truncate(64 << 20)
    ct = tmp_path / "x.ct"
    tracemalloc.start()
    try:
        code, _, err = run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", str(msg), "--out", str(ct))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert err == f"error: message of {64 << 20} bytes is longer than {cipher.MAX_LENGTH} bytes\n"
    assert peak < 4 * cipher.MAX_LENGTH
    assert not ct.exists()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_encrypt_refuses_an_endless_input(tmp_path, keyfile, capsys):
    # A device has no size to report; it is read only up to the limit.
    ct = tmp_path / "x.ct"
    code, _, err = run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", "/dev/zero", "--out", str(ct))
    assert code == 1
    assert err == f"error: message is longer than {cipher.MAX_LENGTH} bytes\n"
    assert not ct.exists()


def test_encrypt_reports_non_ascii_position(tmp_path, keyfile, capsys):
    msg = tmp_path / "bad.txt"
    msg.write_bytes(b"ok\xffrest")
    code, _, err = run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", str(msg), "--out", str(tmp_path / "x.ct"))
    assert code == 1
    assert "position 2" in err


def test_decrypt_with_wrong_key_fails_loudly(tmp_path, capsys):
    k2 = tmp_path / "k2.brc"
    k3 = tmp_path / "k3.brc"
    assert main(["keygen", "--indices", "2", "--out", str(k2)]) == 0
    assert main(["keygen", "--indices", "3", "--out", str(k3)]) == 0
    capsys.readouterr()
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"Hi")
    ct = tmp_path / "msg.ct"
    assert run_cli(capsys, "encrypt", "--key", str(k2), "--in", str(msg), "--out", str(ct))[0] == 0
    code, _, err = run_cli(capsys, "decrypt", "--key", str(k3), "--in", str(ct), "--out", str(tmp_path / "out.txt"))
    assert code == 1
    assert "outside [0, 127]" in err


def test_decrypt_rejects_truncated_ciphertext(tmp_path, keyfile, capsys):
    ct = tmp_path / "trunc.ct"
    ct.write_text("BRC-CT v1\nL 2\n")
    code, _, err = run_cli(capsys, "decrypt", "--key", str(keyfile), "--in", str(ct), "--out", str(tmp_path / "o.txt"))
    assert code == 1
    assert "truncated" in err


def test_decrypt_rejects_declared_length_above_cap(tmp_path, keyfile, capsys):
    ct = tmp_path / "long.ct"
    ct.write_text("BRC-CT v1\nL 2000000\nD1 1\n")
    out = tmp_path / "o.txt"
    code, _, err = run_cli(capsys, "decrypt", "--key", str(keyfile), "--in", str(ct), "--out", str(out))
    assert code == 1
    assert "above the limit" in err
    assert not out.exists()


def test_encrypt_decrypt_build_no_sparse_element(tmp_path, keyfile, capsys, monkeypatch):
    # Files are written from and read into the window vector directly.
    def refuse(*args, **kwargs):
        raise RuntimeError("sparse element built on the file path")

    monkeypatch.setattr(BurnsideElement, "parse", refuse)
    monkeypatch.setattr(BurnsideElement, "render", refuse)
    monkeypatch.setattr(cipher, "ring_encode", refuse)
    monkeypatch.setattr(cipher, "ring_decode", refuse)
    msg = tmp_path / "msg.txt"
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    data = bytes(32 + (7 * i) % 95 for i in range(10_000))
    msg.write_bytes(data)
    assert run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", str(msg), "--out", str(ct))[0] == 0
    assert run_cli(capsys, "decrypt", "--key", str(keyfile), "--in", str(ct), "--out", str(out))[0] == 0
    assert out.read_bytes() == data


def _prime_product_key_file(tmp_path):
    # s_i = (product of the first 18 primes) / p_i: every subset of the 18
    # indices has its own gcd, so key_element(S) has 2**18 terms.
    primes = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61]
    total = 1
    for q in primes:
        total *= q
    path = tmp_path / "k18.brc"
    cipher.write_key_file(path, KeySet(total // q for q in primes))
    return path


@pytest.mark.parametrize("size", [2, 10_000])
def test_eighteen_index_key_encrypts_fast(tmp_path, capsys, monkeypatch, size):
    # The message path uses the key's marks and never builds its element.
    def refuse(*args, **kwargs):
        raise RuntimeError("key element built on the message path")

    monkeypatch.setattr(BurnsideElement, "__mul__", refuse)
    key = _prime_product_key_file(tmp_path)
    msg = tmp_path / "msg.txt"
    ct = tmp_path / "msg.ct"
    out = tmp_path / "msg.out"
    data = bytes(32 + (11 * i) % 95 for i in range(size))
    msg.write_bytes(data)
    start = time.perf_counter()
    assert run_cli(capsys, "encrypt", "--key", str(key), "--in", str(msg), "--out", str(ct))[0] == 0
    assert run_cli(capsys, "decrypt", "--key", str(key), "--in", str(ct), "--out", str(out))[0] == 0
    elapsed = time.perf_counter() - start
    assert out.read_bytes() == data
    assert elapsed < 1.0


@pytest.mark.parametrize("mode", ["kpa", "ambiguity"])
def test_eighteen_index_key_attack_demos_fast(tmp_path, capsys, monkeypatch, mode):
    # The demos work on the key's marks and never build a key element.
    def refuse(*args, **kwargs):
        raise AssertionError("key element built by an attack demo")

    monkeypatch.setattr(attacks, "key_element", refuse)
    monkeypatch.setattr(BurnsideElement, "__mul__", refuse)
    key = _prime_product_key_file(tmp_path)
    if mode == "kpa":
        argv = ["attack", "kpa", "--key", str(key), "--pairs", "1", "--window", "8"]
    else:
        indices = ",".join(str(i) for i in read_key_file(key))
        argv = ["attack", "ambiguity", "--s", indices, "--window", "8", "--count", "3"]
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    assert "FAILED" not in out
    assert elapsed < 1.0


def test_key_file_above_cap_exits_1(tmp_path, capsys):
    key = tmp_path / "big.brc"
    key.write_text("BRC-KEY v1\nS " + " ".join(str(i) for i in range(1, cipher.MAX_KEY_SIZE + 2)) + "\n")
    with pytest.raises(cipher.FileFormatError, match="above the limit"):
        read_key_file(key)
    msg = tmp_path / "msg.txt"
    msg.write_bytes(b"Hi")
    ct = tmp_path / "msg.ct"
    code, _, err = run_cli(capsys, "encrypt", "--key", str(key), "--in", str(msg), "--out", str(ct))
    assert code == 1
    assert "above the limit" in err
    assert not ct.exists()


def test_decrypt_long_declared_length_is_fast(tmp_path, keyfile, capsys):
    # Key {2, 3} fixes D1: the plaintext is one 0x01 byte and 199 999 NULs.
    ct = tmp_path / "long.ct"
    ct.write_text("BRC-CT v1\nL 200000\nD1 1\n")
    out = tmp_path / "o.txt"
    start = time.perf_counter()
    code, _, _ = run_cli(capsys, "decrypt", "--key", str(keyfile), "--in", str(ct), "--out", str(out))
    elapsed = time.perf_counter() - start
    assert code == 0
    assert out.read_bytes() == b"\x01" + bytes(199_999)
    assert elapsed < 1.0


# -------------------------------------------------------------------- attacks


def test_attack_cpa_fixed_bit(capsys):
    code, out, _ = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "1")
    assert code == 0
    assert "chosen probe   : D3" in out
    assert "decision       : 1" in out
    assert "queries        : 1" in out
    assert "SUCCESS" in out


def test_attack_cpa_identical_sets_error(capsys):
    code, _, err = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "2", "--hidden-bit", "0")
    assert code == 1
    assert "identical" in err


def test_attack_cpa_oversize_sets_exit_1_before_the_oracle(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("key element built")

    monkeypatch.setattr(attacks, "key_element", refuse)
    s0 = ",".join(str(i) for i in range(1, 22))
    s1 = ",".join(str(i) for i in [*range(1, 21), 22])
    code, out, err = run_cli(capsys, "attack", "cpa", "--s0", s0, "--s1", s1, "--hidden-bit", "0")
    assert code == 1
    assert out == ""
    assert "subset enumeration cap" in err


def test_attack_cpa_identity_query_oversize_sets_exit_1_before_the_oracle(capsys, monkeypatch):
    # The identity game builds whole key elements, 2**|S| terms each, so it
    # refuses the same sets as the dihedral game, with the same line.
    def refuse(*args):
        raise AssertionError("key element built")

    monkeypatch.setattr(attacks, "key_element", refuse)
    s0 = ",".join(str(i) for i in range(1, 22))
    s1 = ",".join(str(i) for i in [*range(1, 21), 22])
    argv = ("attack", "cpa", "--s0", s0, "--s1", s1, "--hidden-bit", "0")
    code, out, err = run_cli(capsys, *argv, "--identity-query")
    assert code == 1
    assert out == ""
    assert err == "error: key set has 21 indices, above the subset enumeration cap 20\n"
    assert run_cli(capsys, *argv)[2] == err


def test_attack_cpa_huge_index_candidates(capsys):
    # The probe is 2, so the folds enumerate the subsets of each candidate
    # once and never walk the multiples of 2 up to 10**12.
    code, out, _ = run_cli(
        capsys, "attack", "cpa", "--s0", "2,1000000000000", "--s1", "1000000000000", "--hidden-bit", "0"
    )
    assert code == 0
    assert "chosen probe   : D2" in out
    assert "outcome        : SUCCESS" in out


def test_attack_cpa_random_prints_seed(capsys):
    code, out, _ = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--random", "--seed", "42")
    assert code == 0
    assert "seed           : 42" in out
    # deterministic rerun gives the same transcript
    code2, out2, _ = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--random", "--seed", "42")
    assert (code2, out2) == (code, out)


def test_attack_cpa_identity_query(capsys):
    code, out, _ = run_cli(
        capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "0", "--identity-query"
    )
    assert code == 0
    assert "identity-class query" in out
    assert "decision       : 0" in out


def test_attack_cpa_identity_query_transcript(capsys):
    code, out, _ = run_cli(
        capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "0", "--identity-query"
    )
    assert code == 0
    assert out == (
        "CPA key-distinguishing attack (identity-class query)\n"
        "candidates     : S0 = {2}, S1 = {3}\n"
        "oracle response:\n"
        "    D2 -1\n"
        "    O2 1\n"
        "decision       : 0\n"
        "queries        : 1\n"
        "hidden bit     : 0\n"
        "outcome        : SUCCESS\n"
    )


def test_attack_cpa_sweep_transcript(capsys):
    code, out, _ = run_cli(capsys, "attack", "cpa-sweep", "--max-index", "4", "--max-size", "2")
    assert code == 0
    assert out == (
        "key space      : 10 sets (indices <= 4, |S| <= 2)\n"
        "experiments    : 180 (ordered pairs x both hidden bits)\n"
        "success rate   : 1.000000 (180/180)\n"
        "queries/game   : 1.000\n"
        "probe histogram:\n"
        "  D1   12\n"
        "  D2   24\n"
        "  D3   48\n"
        "  D4   96\n"
    )


def test_attack_cpa_sweep_above_the_cap_exits_1(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("game played above the cap")

    monkeypatch.setattr(attacks, "run_cpa_experiment", refuse)
    code, out, err = run_cli(capsys, "attack", "cpa-sweep", "--max-index", "40", "--max-size", "3")
    assert code == 1
    assert out == ""
    assert err.count("\n") == 1
    assert f"more than {attacks.MAX_SWEEP_GAMES} games" in err


def test_attack_cpa_sweep_rejects_tiny_key_space(capsys):
    code, out, err = run_cli(capsys, "attack", "cpa-sweep", "--max-index", "1")
    assert code == 1
    assert out == ""
    assert "fewer than two" in err


def test_attack_ambiguity_example(capsys):
    code, out, _ = run_cli(capsys, "attack", "ambiguity", "--s", "2,3", "--window", "5", "--count", "3")
    assert code == 0
    for twin in ("{14, 21}", "{22, 33}", "{26, 39}"):
        assert twin in out
    assert "matrices identical" in out


def test_attack_ambiguity_transcript(capsys):
    code, out, _ = run_cli(capsys, "attack", "ambiguity", "--s", "2,3", "--window", "6", "--count", "3")
    assert code == 0
    assert out == (
        "Key ambiguity on the window W_6\n"
        "base key set   : {2, 3}\n"
        "twin q=7     : {14, 21}  matrix equal: yes  key element differs: yes\n"
        "twin q=11    : {22, 33}  matrix equal: yes  key element differs: yes\n"
        "twin q=13    : {26, 39}  matrix equal: yes  key element differs: yes\n"
        "operator matrix on the window:\n"
        "     1  2  2  2  0  4\n"
        "     0 -1  0 -2  0 -2\n"
        "     0  0 -1  0  0 -2\n"
        "     0  0  0  1  0  0\n"
        "     0  0  0  0  1  0\n"
        "     0  0  0  0  0  1\n"
        "conclusion     : matrices identical; key set not identifiable from this window\n"
    )


def test_attack_ambiguity_invalid_count(capsys):
    code, _, err = run_cli(capsys, "attack", "ambiguity", "--s", "2", "--window", "5", "--count", "0")
    assert code == 1
    assert "count" in err


def test_attack_ambiguity_count_above_cap(capsys):
    code, out, err = run_cli(capsys, "attack", "ambiguity", "--s", "2,3", "--window", "8", "--count", str(10**9))
    assert code == 1
    assert out == ""
    assert err == f"error: count must be <= {attacks.MAX_TWINS}, got {10**9}\n"


def test_attack_kpa_report(tmp_path, keyfile, capsys):
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(keyfile), "--pairs", "6", "--window", "4", "--seed", "0"
    )
    assert code == 0
    assert "system rank    : 4 / 4" in out
    assert "does not identify the key set" in out


@pytest.fixture
def key_2_3_7_12_30(tmp_path):
    path = tmp_path / "k5.brc"
    cipher.write_key_file(path, KeySet([2, 3, 7, 12, 30]))
    return path


def test_attack_kpa_transcript(key_2_3_7_12_30, capsys):
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(key_2_3_7_12_30), "--pairs", "8", "--window", "8", "--seed", "0"
    )
    assert code == 0
    assert out == (
        "Known-plaintext attack on the window W_8\n"
        "hidden key set : {2, 3, 7, 12, 30}\n"
        "seed           : 0\n"
        "pairs used     : 8\n"
        "system rank    : 8 / 8\n"
        "operator fully determined: yes\n"
        "matches hidden key's operator: yes\n"
        "recovered matrix:\n"
        "    -1  0  0  0  0  2  0  0\n"
        "     0 -1  0  0  0 -2  0  0\n"
        "     0  0 -1  0  0 -2  0  0\n"
        "     0  0  0 -1  0  0  0 -2\n"
        "     0  0  0  0 -1  0  0  0\n"
        "     0  0  0  0  0  1  0  0\n"
        "     0  0  0  0  0  0 -1  0\n"
        "     0  0  0  0  0  0  0  1\n"
        "scaled twins   : {22, 33, 77, 132, 330} (same matrix), {26, 39, 91, 156, 390} (same matrix), "
        "{34, 51, 119, 204, 510} (same matrix)\n"
        "conclusion     : recovering the operator does not identify the key set\n"
    )


def test_attack_kpa_underdetermined_transcript(keyfile, capsys):
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(keyfile), "--pairs", "1", "--window", "8", "--seed", "6"
    )
    assert code == 0
    assert out == (
        "Known-plaintext attack on the window W_8\n"
        "hidden key set : {2, 3}\n"
        "seed           : 6\n"
        "pairs used     : 1\n"
        "system rank    : 7 / 8\n"
        "operator fully determined: no (underdetermined system)\n"
        "open marks     : D5\n"
        "scaled twins   : {22, 33} (same matrix), {26, 39} (same matrix), {34, 51} (same matrix)\n"
        "conclusion     : recovering the operator does not identify the key set\n"
    )


def test_attack_kpa_fails_on_wrong_recovered_matrix(keyfile, capsys, monkeypatch):
    solve = attacks.known_plaintext_solver

    def wrong_solver(pairs, window):
        result = solve(pairs, window)
        return replace(result, marks=tuple(-eps for eps in result.marks))

    monkeypatch.setattr(attacks, "known_plaintext_solver", wrong_solver)
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(keyfile), "--pairs", "6", "--window", "4", "--seed", "0"
    )
    assert code == 1
    assert "matches hidden key's operator: NO" in out
    assert out.endswith("conclusion     : demonstration FAILED\n")


def test_attack_kpa_rejects_zero_window(keyfile, capsys):
    code, out, err = run_cli(
        capsys, "attack", "kpa", "--key", str(keyfile), "--pairs", "3", "--window", "0"
    )
    assert code == 1
    assert out == ""
    assert "window" in err


@pytest.mark.parametrize("mode", ["kpa", "ambiguity"])
def test_attack_demos_reject_window_above_cap(keyfile, capsys, monkeypatch, mode):
    # The cap is checked before any mark, pair or matrix is computed.
    def refuse(*args, **kwargs):
        raise AssertionError("demo work started above the window cap")

    monkeypatch.setattr(attacks, "key_marks", refuse)
    monkeypatch.setattr(attacks, "_operator_from_marks", refuse)
    window = str(cipher.MAX_LENGTH + 1)
    if mode == "kpa":
        argv = ["attack", "kpa", "--key", str(keyfile), "--pairs", "1", "--window", window]
    else:
        argv = ["attack", "ambiguity", "--s", "2,3", "--window", window, "--count", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"window must be <= {cipher.MAX_LENGTH}" in err


def test_attack_ambiguity_at_window_cap(capsys):
    # The largest window whose operator matrix the report prints.
    window = str(attacks.MAX_PRINTED_WINDOW)
    code, out, _ = run_cli(capsys, "attack", "ambiguity", "--s", "2,3", "--window", window, "--count", "1")
    assert code == 0
    assert "FAILED" not in out
    assert "operator matrix on the window:\n" in out
    assert len(out.splitlines()) == 5 + attacks.MAX_PRINTED_WINDOW


@pytest.mark.parametrize("mode", ["kpa", "ambiguity"])
def test_attack_demos_above_print_bound_list_minus_marks(keyfile, capsys, mode):
    window = str(attacks.MAX_PRINTED_WINDOW + 1)
    if mode == "kpa":
        argv = ["attack", "kpa", "--key", str(keyfile), "--pairs", "3", "--window", window]
        line = "recovered marks: "
    else:
        argv = ["attack", "ambiguity", "--s", "2,3", "--window", window, "--count", "1"]
        line = "operator marks on the window: "
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f"{line}-1 at D2, D3; +1 elsewhere (no matrix above W_1000)\n" in out
    assert "matrix:" not in out and "matrix on the window" not in out
    assert out.endswith("does not identify the key set\n" if mode == "kpa" else "from this window\n")


def test_attack_kpa_report_digest(key_2_3_7_12_30, capsys):
    # SHA-256 of the report as first released: the plaintexts must stay the
    # values of random.Random(0).randint(0, 127) on every Python version.
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(key_2_3_7_12_30), "--pairs", "60", "--window", "60"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "b35446f605e08f3a0c7973556da88c2f1e1931c32cee7a326d28a2beba82de04"


@pytest.mark.parametrize(
    "pairs, window",
    [("0", "8"), ("5", str(cipher.MAX_LENGTH)), ("8", str(cipher.MAX_LENGTH // 2 + 1)), ("65537", "1")],
)
def test_attack_kpa_rejects_oversize_draw_before_work(keyfile, capsys, monkeypatch, pairs, window):
    def refuse(*args, **kwargs):
        raise AssertionError("demo work started for a refused pair count")

    monkeypatch.setattr(attacks, "run_ambiguity_demo", refuse)
    monkeypatch.setattr(attacks, "_draw_plaintext_values", refuse)
    code, out, err = run_cli(capsys, "attack", "kpa", "--key", str(keyfile), "--pairs", pairs, "--window", window)
    assert code == 1
    assert out == ""
    assert ("at least one pair" if pairs == "0" else "more than 4194304 plaintext values") in err


def test_attack_kpa_requires_window(keyfile, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["attack", "kpa", "--key", str(keyfile), "--pairs", "3"])
    assert exc.value.code == 2
    assert "--window" in capsys.readouterr().err


# --------------------------------------------------------------------- verify


@pytest.mark.parametrize("suite", ["table", "involution", "prop-coeff", "recurrence", "rf1"])
def test_verify_suites_pass(capsys, suite):
    args = ["verify", suite]
    if suite in ("involution", "prop-coeff"):
        args += ["--trials", "50"]
    code, out, _ = run_cli(capsys, *args)
    assert code == 0
    assert "PASS" in out
    assert "failures=0" in out


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--trials", "50")
    assert code == 0
    assert out.count("PASS") == 5


def test_verify_respects_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "table", "--max-index", "6")
    assert code == 0
    assert "cases=64" in out  # (6 dihedral + SO2 + O2) squared


def test_verify_zero_trials_runs_only_exhaustive_cases(capsys):
    code, out, _ = run_cli(capsys, "verify", "involution", "--trials", "0")
    assert code == 0
    assert "cases=298" in out  # every key set of up to 3 indices from 1..12


@pytest.mark.parametrize(
    "args",
    [
        ["table", "--max-index", "-1"],
        ["table", "--max-index", "0"],
        ["recurrence", "--max-index", "0"],
        ["prop-coeff", "--trials", "-1"],
        ["involution", "--trials", "-2"],
        ["all", "--trials", "-1"],
    ],
)
def test_verify_rejects_empty_or_negative_ranges(capsys, args):
    code, out, err = run_cli(capsys, "verify", *args)
    assert code == 1
    assert "PASS" not in out
    assert "must be" in err


@pytest.mark.parametrize(
    "suite, option, cap",
    [
        ("table", "--max-index", verify.MAX_TABLE_INDEX),
        ("recurrence", "--max-index", verify.MAX_TABLE_INDEX),
        ("involution", "--trials", verify.MAX_TRIALS),
        ("prop-coeff", "--trials", verify.MAX_TRIALS),
        ("rf1", "--max-irrep", verify.MAX_IRREP),
        ("all", "--max-index", verify.MAX_TABLE_INDEX),
        ("all", "--trials", verify.MAX_TRIALS),
        ("all", "--max-irrep", verify.MAX_IRREP),
        # The lower ends of the ranges, refused the same way below them.
        ("all", "--max-index", 1),
        ("all", "--max-irrep", 1),
        ("all", "--trials", 0),
    ],
)
def test_verify_above_the_cap_exits_1_before_any_case(capsys, monkeypatch, suite, option, cap):
    # Every suite runs its cases through verify._run, so a refusal that
    # comes first never reaches it; for 'all', no suite runs at all.
    def refuse(*args):
        raise AssertionError("suite cases ran outside the range")

    monkeypatch.setattr(verify, "_run", refuse)
    # Every cap is far above 1, every lower end is 0 or 1.
    value, relation = (cap - 1, ">=") if cap <= 1 else (cap + 1, "<=")
    code, out, err = run_cli(capsys, "verify", suite, option, str(value))
    assert code == 1
    assert out == ""
    assert err == f"error: {option[2:].replace('-', '_')} must be {relation} {cap}, got {value}\n"


def test_main_reuses_its_parser_without_carrying_options_over(capsys):
    # main builds its parser once per process; each call must still behave
    # exactly as the same command alone in a fresh interpreter.
    cpa = ["attack", "cpa", "--s0", "2", "--s1", "3"]
    calls = [
        [*cpa, "--random", "--seed", "5"],
        [*cpa, "--hidden-bit", "1"],
        [*cpa, "--hidden-bit", "0", "--seed", "5"],
        ["keygen", "--indices", "2,3"],
        ["verify", "table", "--max-index", "3"],
    ]
    seconds = re.compile(r"\(\d+\.\d+s\)")
    codes = []
    for argv in calls:
        code, out, err = run_cli(capsys, *argv)
        alone = subprocess.run([sys.executable, "-m", "brc", *argv], capture_output=True, text=True)
        assert (code, seconds.sub("", out), err) == (alone.returncode, seconds.sub("", alone.stdout), alone.stderr)
        codes.append(code)
    assert codes == [0, 0, 1, 0, 0]


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True) for line in block.splitlines()]
    commands = [argv for argv in commands if argv]
    assert len(commands) >= 10
    for argv in commands:
        assert argv[0] == "brc", argv
        build_parser().parse_args(argv[1:])


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "brc", "keygen", "--indices", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "D2 -1\nO2 1\n"
