import contextlib
import hashlib
import importlib
import io
import itertools
import os
import re
import shlex
import subprocess
import sys
import time
import tracemalloc
from dataclasses import replace
from inspect import ismodule
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import brc
from brc import attacks, burnside, cipher, cli, limits, verify
from brc.cli import build_parser, main
from brc.cipher import encrypt, read_key_file, write_ciphertext_file
from brc.burnside import BurnsideElement, D, KeySet, key_element


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


@pytest.mark.parametrize("indices", ["1_0", "+3", " 3", "3 ", "02", "\u0663", "2,,3", "2,", ""])
@pytest.mark.parametrize(
    "command", [["keygen", "--indices"], ["attack", "cpa", "--s1", "5", "--hidden-bit", "0", "--s0"]]
)
def test_index_lists_accept_only_canonical_integers(capsys, command, indices):
    # int() alone takes each of these tokens, or skipped the empty ones.
    code, out, err = run_cli(capsys, *command, indices)
    assert (code, out) == (1, "")
    assert err == f"error: indices must be comma-separated integers, got {indices!r}\n"


@pytest.mark.parametrize(
    "indices, error", [("0", "key index must be >= 1, got 0"), ("2,-3", "key index must be >= 1, got -3")]
)
def test_index_lists_leave_value_errors_to_the_key_set(capsys, indices, error):
    assert run_cli(capsys, "keygen", "--indices", indices) == (1, "", f"error: {error}\n")


# Each integer option, after the words and options its command needs.
_INTEGER_OPTIONS = [
    (["attack", "cpa", "--s0", "2", "--s1", "3"], "--hidden-bit"),
    (["attack", "cpa", "--s0", "2", "--s1", "3", "--random"], "--seed"),
    (["attack", "cpa-sweep"], "--max-index"),
    (["attack", "cpa-sweep"], "--max-size"),
    (["attack", "ambiguity", "--s", "2,3", "--count", "1"], "--window"),
    (["attack", "ambiguity", "--s", "2,3", "--window", "8"], "--count"),
    (["attack", "kpa", "--key", "key.brc", "--window", "8"], "--pairs"),
    (["attack", "kpa", "--key", "key.brc", "--pairs", "1"], "--window"),
    (["attack", "kpa", "--key", "key.brc", "--pairs", "1", "--window", "8"], "--seed"),
    (["verify", "table"], "--max-index"),
    (["verify", "all"], "--trials"),
    (["verify", "all"], "--seed"),
    (["verify", "rf1"], "--max-irrep"),
]


@pytest.mark.parametrize(
    "value", ["\u0663", "\uff11", "+1", "01", "-0", "-01", " 1", "1 ", "1_0", "x", "", "9" * 5000]
)
@pytest.mark.parametrize("command, option", _INTEGER_OPTIONS)
def test_integer_options_accept_only_canonical_decimals(capsys, command, option, value):
    # argparse's int() takes every value here but the last three.
    with pytest.raises(SystemExit) as exit_info:
        main([*command, option, value])
    captured = capsys.readouterr()
    prog = " ".join(["brc", *command[: 2 if command[0] == "attack" else 1]])
    assert (exit_info.value.code, captured.out) == (2, "")
    assert [line for line in captured.err.splitlines() if "error:" in line] == [
        f"{prog}: error: argument {option}: invalid int value: {value!r}"
    ]


def test_integer_options_take_negative_seeds(capsys):
    code, out, err = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--random", "--seed", "-5")
    assert (code, err) == (0, "")
    assert out.endswith("seed           : -5\n")


@pytest.mark.parametrize(
    "argv",
    # 3 MB of report, written while the reader is gone; and a short report, met at the final flush.
    [["attack", "ambiguity", "--s", "2,3", "--window", "1000", "--count", "100"], ["keygen", "--indices", "2,3"]],
)
def test_a_closed_stdout_exits_1_with_nothing_on_stderr(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "brc", *argv], stdout=write_end, stderr=subprocess.PIPE, timeout=60
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (1, b"")


def test_other_os_errors_still_print_one_error_line(tmp_path, capsys):
    missing = tmp_path / "missing.brc"
    code, out, err = run_cli(capsys, "attack", "kpa", "--key", str(missing), "--pairs", "1", "--window", "8")
    assert (code, out) == (1, "")
    assert err == f"error: [Errno 2] No such file or directory: {str(missing)!r}\n"


def test_keygen_out_rejects_key_above_cap(tmp_path, capsys):
    path = tmp_path / "key.brc"
    indices = ",".join(str(i) for i in range(1, limits.MAX_KEY_SIZE + 2))
    code, out, err = run_cli(capsys, "keygen", "--indices", indices, "--out", str(path))
    assert code == 1
    assert out == ""
    assert "above the limit" in err
    assert not path.exists()


def test_keygen_out_rejects_index_above_digit_cap(tmp_path, capsys):
    path = tmp_path / "key.brc"
    too_long = "1" * (limits.MAX_INDEX_DIGITS + 1)
    code, out, err = run_cli(capsys, "keygen", "--indices", f"2,{too_long}", "--out", str(path))
    assert code == 1
    assert out == ""
    assert f"more than {limits.MAX_INDEX_DIGITS} digits" in err
    assert not path.exists()


def test_keygen_out_accepts_index_at_digit_cap(tmp_path, capsys):
    path = tmp_path / "key.brc"
    longest = "9" * limits.MAX_INDEX_DIGITS
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
    assert err == f"error: message of {64 << 20} bytes is longer than {limits.MAX_LENGTH} bytes\n"
    assert peak < 4 * limits.MAX_LENGTH
    assert not ct.exists()


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="needs /dev/zero")
def test_encrypt_refuses_an_endless_input(tmp_path, keyfile, capsys):
    # A device has no size to report; it is read only up to the limit.
    ct = tmp_path / "x.ct"
    code, _, err = run_cli(capsys, "encrypt", "--key", str(keyfile), "--in", "/dev/zero", "--out", str(ct))
    assert code == 1
    assert err == f"error: message is longer than {limits.MAX_LENGTH} bytes\n"
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

    for module in (attacks, burnside):
        monkeypatch.setattr(module, "_key_fold", refuse)
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
    key.write_text("BRC-KEY v1\nS " + " ".join(str(i) for i in range(1, limits.MAX_KEY_SIZE + 2)) + "\n")
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


def _run_in_512_mib(argv):
    """Run argv under a 512 MiB address-space limit and a 30 s timeout."""
    resource = pytest.importorskip("resource")
    limit = 512 * 2**20

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    return subprocess.run(argv, capture_output=True, text=True, timeout=30, preexec_fn=cap_address_space)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_decrypt_refuses_an_endless_device_by_its_header(tmp_path, keyfile):
    # The header line is read at most 80 bytes deep and refused before the
    # body: reading /dev/zero whole would grow until the address-space
    # limit raised MemoryError, a traceback instead of one error line.
    argv = ["decrypt", "--key", str(keyfile), "--in", "/dev/zero", "--out", str(tmp_path / "o")]
    proc = _run_in_512_mib([sys.executable, "-m", "brc", *argv])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == f"error: bad ciphertext header {chr(0) * 80!r}\n"


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_decrypt_refuses_an_endless_pipe_after_a_valid_head(tmp_path, keyfile):
    # After a valid head the body is read at most max_text_ciphertext_body(2)
    # + 1 = 17 bytes deep; read to its end, the pipe would grow until the
    # address-space limit raised MemoryError.
    script = 'printf "BRC-CT v1\\nL 2\\n" | cat - /dev/zero | "$0" -m brc decrypt --key "$1" --in /dev/stdin --out "$2"'
    proc = _run_in_512_mib(["sh", "-c", script, sys.executable, str(keyfile), str(tmp_path / "o")])
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == "error: ciphertext body is longer than 16 bytes, the most a 2-byte text encrypts to\n"
    assert not (tmp_path / "o").exists()


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
        raise AssertionError("reply fold run")

    monkeypatch.setattr(attacks, "_key_fold", refuse)
    s0 = ",".join(str(i) for i in range(1, 22))
    s1 = ",".join(str(i) for i in [*range(1, 21), 22])
    code, out, err = run_cli(capsys, "attack", "cpa", "--s0", s0, "--s1", s1, "--hidden-bit", "0")
    assert code == 1
    assert out == ""
    assert err == "error: key set has 21 indices, above the limit 20\n"


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
    # random.Random(42).randrange(2) draws the hidden bit 0.
    code, out, err = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--random", "--seed", "42")
    assert (code, err) == (0, "")
    assert out == (
        "CPA key-distinguishing attack\n"
        "candidates     : S0 = {2}, S1 = {3}\n"
        "chosen probe   : D3\n"
        "oracle response:\n"
        "    D1 -2\n"
        "    D3 1\n"
        "probe coefficient observed 1; expected 1 for S0, -1 for S1\n"
        "decision       : 0\n"
        "queries        : 1\n"
        "hidden bit     : 0\n"
        "outcome        : SUCCESS\n"
        "seed           : 42\n"
    )
    # deterministic rerun gives the same transcript
    code2, out2, _ = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--random", "--seed", "42")
    assert (code2, out2) == (code, out)


def test_attack_cpa_random_draws_and_prints_a_fresh_seed(capsys):
    argv = ("attack", "cpa", "--s0", "2", "--s1", "3", "--random")
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    seeds = re.findall(r"^seed           : (\d+)$", out, re.MULTILINE)
    assert len(seeds) == 1
    assert out.endswith(f"seed           : {seeds[0]}\n")
    assert 0 <= int(seeds[0]) < 2**32
    # The printed seed replays the game.
    assert run_cli(capsys, *argv, "--seed", seeds[0]) == (0, out, "")


def test_attack_cpa_seed_without_random_is_refused(capsys):
    code, out, err = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "0", "--seed", "5")
    assert (code, out, err) == (1, "", "error: --seed is only meaningful together with --random\n")


def test_attack_cpa_wrong_guess_fails(capsys, monkeypatch):
    distinguish = attacks.cpa_distinguish

    def wrong_guess(s0, s1, oracle):
        result = distinguish(s0, s1, oracle)
        return replace(result, guess=1 - result.guess)

    monkeypatch.setattr(attacks, "cpa_distinguish", wrong_guess)
    code, out, _ = run_cli(capsys, "attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "0")
    assert code == 1
    assert "decision       : 1\n" in out
    assert out.endswith("hidden bit     : 0\noutcome        : FAILURE\n")


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


_NEIGHBOUR_TRANSCRIPTS = {
    # --s1 holds the probe, above every index of --s0.
    ("4,6,8,10", "4,6,8,10,12", 0): (
        "CPA key-distinguishing attack\n"
        "candidates     : S0 = {4, 6, 8, 10}, S1 = {4, 6, 8, 10, 12}\n"
        "chosen probe   : D12\n"
        "oracle response:\n"
        "    D2 2\n"
        "    D6 -2\n"
        "    D12 1\n"
        "probe coefficient observed 1; expected 1 for S0, -1 for S1\n"
        "decision       : 0\n"
        "queries        : 1\n"
        "hidden bit     : 0\n"
        "outcome        : SUCCESS\n"
    ),
    ("4,6,8,10", "4,6,8,10,12", 1): (
        "CPA key-distinguishing attack\n"
        "candidates     : S0 = {4, 6, 8, 10}, S1 = {4, 6, 8, 10, 12}\n"
        "chosen probe   : D12\n"
        "oracle response:\n"
        "    D2 -2\n"
        "    D6 2\n"
        "    D12 -1\n"
        "probe coefficient observed -1; expected 1 for S0, -1 for S1\n"
        "decision       : 1\n"
        "queries        : 1\n"
        "hidden bit     : 1\n"
        "outcome        : SUCCESS\n"
    ),
    # --s0 holds the probe, below its largest index.
    ("3,4,6,9,10,12", "3,4,6,9,12", 0): (
        "CPA key-distinguishing attack\n"
        "candidates     : S0 = {3, 4, 6, 9, 10, 12}, S1 = {3, 4, 6, 9, 12}\n"
        "chosen probe   : D10\n"
        "oracle response:\n"
        "    D2 2\n"
        "    D10 -1\n"
        "probe coefficient observed -1; expected -1 for S0, 1 for S1\n"
        "decision       : 0\n"
        "queries        : 1\n"
        "hidden bit     : 0\n"
        "outcome        : SUCCESS\n"
    ),
    ("3,4,6,9,10,12", "3,4,6,9,12", 1): (
        "CPA key-distinguishing attack\n"
        "candidates     : S0 = {3, 4, 6, 9, 10, 12}, S1 = {3, 4, 6, 9, 12}\n"
        "chosen probe   : D10\n"
        "oracle response:\n"
        "    D2 -2\n"
        "    D10 1\n"
        "probe coefficient observed 1; expected -1 for S0, 1 for S1\n"
        "decision       : 1\n"
        "queries        : 1\n"
        "hidden bit     : 1\n"
        "outcome        : SUCCESS\n"
    ),
}


@pytest.mark.parametrize("s0, s1, hidden_bit", list(_NEIGHBOUR_TRANSCRIPTS))
def test_attack_cpa_neighbouring_transcripts(capsys, s0, s1, hidden_bit):
    code, out, err = run_cli(capsys, "attack", "cpa", "--s0", s0, "--s1", s1, "--hidden-bit", str(hidden_bit))
    assert (code, err) == (0, "")
    assert out == _NEIGHBOUR_TRANSCRIPTS[s0, s1, hidden_bit]


def test_attack_cpa_sweep_default_transcript(capsys):
    # The defaults, --max-index 8 --max-size 3: 92 key sets, 16 744 games.
    code, out, _ = run_cli(capsys, "attack", "cpa-sweep")
    assert code == 0
    assert out == (
        "key space      : 92 sets (indices <= 8, |S| <= 3)\n"
        "experiments    : 16744 (ordered pairs x both hidden bits)\n"
        "success rate   : 1.000000 (16744/16744)\n"
        "queries/game   : 1.000\n"
        "probe histogram:\n"
        "  D1   112\n"
        "  D2   224\n"
        "  D3   408\n"
        "  D4   740\n"
        "  D5   1336\n"
        "  D6   2392\n"
        "  D7   4224\n"
        "  D8   7308\n"
    )


def test_attack_cpa_sweep_two_key_sets(capsys):
    # The smallest key space the sweep accepts: {1} and {2}, 2 * 1 * 2 games.
    code, out, _ = run_cli(capsys, "attack", "cpa-sweep", "--max-index", "2", "--max-size", "1")
    assert code == 0
    assert out == (
        "key space      : 2 sets (indices <= 2, |S| <= 1)\n"
        "experiments    : 4 (ordered pairs x both hidden bits)\n"
        "success rate   : 1.000000 (4/4)\n"
        "queries/game   : 1.000\n"
        "probe histogram:\n"
        "  D2   4\n"
    )


def test_attack_cpa_sweep_fails_on_one_lost_game(capsys, monkeypatch):
    play = attacks.run_cpa_experiment
    played = []

    def lose_the_first_game(s0, s1, hidden_bit):
        result, experiment = play(s0, s1, hidden_bit)
        played.append(hidden_bit)
        return attacks.CpaGame(replace(result, guess=1 - result.guess) if len(played) == 1 else result, experiment)

    monkeypatch.setattr(attacks, "run_cpa_experiment", lose_the_first_game)
    code, out, _ = run_cli(capsys, "attack", "cpa-sweep", "--max-index", "2", "--max-size", "1")
    assert code == 1
    assert "success rate   : 0.750000 (3/4)\n" in out


def test_attack_cpa_sweep_rejects_tiny_key_space(capsys):
    code, out, err = run_cli(capsys, "attack", "cpa-sweep", "--max-index", "1")
    assert code == 1
    assert out == ""
    assert "fewer than two" in err


def _ring_product_query_probe(self, x):
    # Reference oracle: D(x) times the whole hidden key element, by the ring product.
    self.query_log.append(x)
    return BurnsideElement({D(x): 1}) * key_element(self.hidden_set)


_PRIME_PRODUCTS_8 = [9699690 // q for q in (2, 3, 5, 7, 11, 13, 17, 19)]


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "0"],
        ["attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "1"],
        ["attack", "cpa", "--s0", "4,6,8,10", "--s1", "4,6,8,10,12", "--hidden-bit", "1"],
        ["attack", "cpa", "--s0", "2,1000000000000", "--s1", "1000000000000", "--hidden-bit", "0"],
        [
            "attack", "cpa", "--s0", ",".join(map(str, _PRIME_PRODUCTS_8)),
            "--s1", ",".join(map(str, _PRIME_PRODUCTS_8[:-1])), "--random", "--seed", "7",
        ],
        ["attack", "cpa-sweep", "--max-index", "5", "--max-size", "3"],
    ],
    ids=["2-3-bit-0", "2-3-bit-1", "repeated-gcds", "huge-index", "prime-products", "sweep"],
)
def test_attack_cpa_output_matches_the_ring_product_oracle(capsys, monkeypatch, argv):
    fast = run_cli(capsys, *argv)
    assert fast[0] == 0
    monkeypatch.setattr(attacks.CpaExperiment, "query_probe", _ring_product_query_probe)
    assert run_cli(capsys, *argv) == fast


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


def test_attack_ambiguity_fails_on_a_non_twin(capsys, monkeypatch):
    # {2, 3, 5} is no scaled twin of {2, 3}: their marks differ at D5.
    monkeypatch.setattr(attacks, "ambiguous_family", lambda s, window, count: [KeySet([14, 21]), KeySet([2, 3, 5])])
    code, out, _ = run_cli(capsys, "attack", "ambiguity", "--s", "2,3", "--window", "5", "--count", "2")
    assert code == 1
    assert "twin q=7     : {14, 21}  matrix equal: yes  key element differs: yes\n" in out
    assert "twin q=1     : {2, 3, 5}  matrix equal: NO  key element differs: yes\n" in out
    assert out.endswith("conclusion     : demonstration FAILED\n")


def test_attack_ambiguity_invalid_count(capsys):
    code, _, err = run_cli(capsys, "attack", "ambiguity", "--s", "2", "--window", "5", "--count", "0")
    assert code == 1
    assert "count" in err


def test_attack_ambiguity_count_above_cap(capsys):
    code, out, err = run_cli(capsys, "attack", "ambiguity", "--s", "2,3", "--window", "8", "--count", str(10**9))
    assert code == 1
    assert out == ""
    assert err == f"error: count must be <= {limits.MAX_TWINS}, got {10**9}\n"


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
        # Every mark negated: the key's are +-1, so -1 exactly where they are 1.
        wrong = {x: -1 for x in range(1, window + 1) if x not in result.marks.marks}
        return replace(result, marks=attacks.WindowMarks(window, wrong))

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
    window = str(limits.MAX_LENGTH + 1)
    if mode == "kpa":
        argv = ["attack", "kpa", "--key", str(keyfile), "--pairs", "1", "--window", window]
    else:
        argv = ["attack", "ambiguity", "--s", "2,3", "--window", window, "--count", "1"]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1
    assert out == ""
    assert f"window must be <= {limits.MAX_LENGTH}" in err


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


@pytest.mark.parametrize("mode", ["kpa", "ambiguity"])
def test_attack_demos_above_print_bound_with_no_minus_mark(tmp_path, capsys, mode):
    # Two primes above the window: every mark on W_1001 is +1.
    window = str(attacks.MAX_PRINTED_WINDOW + 1)
    if mode == "kpa":
        cipher.write_key_file(tmp_path / "key.brc", KeySet([1000003, 1000033]))
        argv = ["attack", "kpa", "--key", str(tmp_path / "key.brc"), "--pairs", "2", "--window", window]
        line = "recovered marks: "
    else:
        argv = ["attack", "ambiguity", "--s", "1000003,1000033", "--window", window, "--count", "1"]
        line = "operator marks on the window: "
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert f"{line}+1 everywhere (no matrix above W_1000)\n" in out
    assert "-1 at" not in out


def test_attack_kpa_report_digest(key_2_3_7_12_30, capsys):
    # SHA-256 of the report as first released: the plaintexts must stay the
    # values of random.Random(0).randint(0, 127) on every Python version.
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(key_2_3_7_12_30), "--pairs", "60", "--window", "60"
    )
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == "b35446f605e08f3a0c7973556da88c2f1e1931c32cee7a326d28a2beba82de04"


# SHA-256 of reports whose first pair leaves marks above L/2 open, so later
# pairs check the marks it read and read the open ones: D5 of W_8 at seed 6,
# D34 of W_40 and W_60 at seed 0, and 16 marks of W_4096 at seed 0.
@pytest.mark.parametrize(
    "window, pairs, seed, digest",
    [
        (8, 2, 6, "56f587786902c020dd4829ad0eeb51d08ba55ca7d4e12d22156c6491a56de3f3"),
        (40, 40, 0, "f467e03dcfe0b5064aea26eed3f2344a5cd09cc0e3640d46b80d2ec78537150d"),
        (60, 60, 0, "b35446f605e08f3a0c7973556da88c2f1e1931c32cee7a326d28a2beba82de04"),
        (4096, 3, 0, "a507f6c3a33dd1e92bd8b1db5c7f211de61abda5203af59855b4b6ba871b7980"),
    ],
)
def test_attack_kpa_reports_with_marks_open_after_the_first_pair(key_2_3_7_12_30, capsys, window, pairs, seed, digest):
    code, out, _ = run_cli(
        capsys, "attack", "kpa", "--key", str(key_2_3_7_12_30), "--pairs", str(pairs), "--window", str(window), "--seed", str(seed)
    )
    assert code == 0
    assert f"system rank    : {window} / {window}\n" in out
    if window > attacks.MAX_PRINTED_WINDOW:
        assert "recovered marks: -1 at D1, D2, D3, D4, D5, D7, D10, D12, D15, D30; +1 elsewhere (no matrix above W_1000)\n" in out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "pairs, window",
    [("0", "8"), ("5", str(limits.MAX_LENGTH)), ("8", str(limits.MAX_LENGTH // 2 + 1)), ("65537", "1")],
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


def test_verify_takes_its_suite_names_from_the_suite_table(monkeypatch):
    monkeypatch.setitem(verify.SUITES, "extra", verify.verify_table)
    for suite in [*verify.SUITES, "all"]:
        assert build_parser().parse_args(["verify", suite]).suite == suite


def test_verify_all(capsys):
    code, out, _ = run_cli(capsys, "verify", "all", "--trials", "50")
    assert code == 0
    assert out.count("PASS") == 5


@pytest.mark.parametrize(
    "args, cases",
    # D1, SO2 and O2 squared for recurrence; m = 0 and m = 1 for rf1.
    [(["recurrence", "--max-index", "1"], 9), (["rf1", "--max-irrep", "1"], 2)],
)
def test_verify_runs_the_low_ends_of_the_ranges(capsys, args, cases):
    code, out, _ = run_cli(capsys, "verify", *args)
    assert code == 0
    assert f"{args[0]:<12} PASS  cases={cases} failures=0 (" in out


def test_verify_fails_on_a_negated_side(capsys, monkeypatch):
    key_coeff = verify.key_coeff
    monkeypatch.setattr(verify, "key_coeff", lambda s, n: -key_coeff(s, n))
    seconds = re.compile(r"\(\d+\.\d+s\)")
    code, out, _ = run_cli(capsys, "verify", "prop-coeff", "--trials", "20")
    assert code == 1
    lines = seconds.sub("(s)", out).splitlines()
    assert re.fullmatch(r"prop-coeff   FAIL  cases=20 failures=\d+ \(s\)", lines[0]), lines
    assert lines[1].startswith("    first counterexample: S=")
    assert len(lines) == 2
    # One failing suite fails 'all', whose other suites still pass.
    code, out, _ = run_cli(capsys, "verify", "all", "--trials", "20")
    assert code == 1
    assert out.count("PASS") == 4 and out.count("FAIL") == 1


def test_verify_respects_bounds(capsys):
    code, out, _ = run_cli(capsys, "verify", "table", "--max-index", "6")
    assert code == 0
    assert "cases=64" in out  # (6 dihedral + SO2 + O2) squared


def test_verify_refuses_an_option_the_suite_does_not_take(capsys):
    assert run_cli(capsys, "verify", "rf1", "--max-index", "5") == (
        1,
        "",
        "error: suite 'rf1' does not take option 'max_index'\n",
    )
    assert run_cli(capsys, "verify", "table", "--trials", "3")[2] == "error: suite 'table' does not take option 'trials'\n"
    # An unset --seed is not given: the suites keep their seed 0.
    seconds = re.compile(r"\(\d+\.\d+s\)")
    unset = run_cli(capsys, "verify", "all", "--trials", "20")
    zero = run_cli(capsys, "verify", "all", "--trials", "20", "--seed", "0")
    assert unset[0] == zero[0] == 0
    assert seconds.sub("", unset[1]) == seconds.sub("", zero[1])


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
        ("table", "--max-index", limits.MAX_TABLE_INDEX),
        ("recurrence", "--max-index", limits.MAX_TABLE_INDEX),
        ("involution", "--trials", limits.MAX_TRIALS),
        ("prop-coeff", "--trials", limits.MAX_TRIALS),
        ("rf1", "--max-irrep", limits.MAX_IRREP),
        ("all", "--max-index", limits.MAX_TABLE_INDEX),
        ("all", "--trials", limits.MAX_TRIALS),
        ("all", "--max-irrep", limits.MAX_IRREP),
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


def test_readme_library_example_runs(capsys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Library example\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(block, "README.md", "exec"), {})
    # Each print line's comment is its output.
    expected = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert capsys.readouterr().out.splitlines() == expected


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "brc", "keygen", "--indices", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout == "D2 -1\nO2 1\n"


# -------------------------------------------------------- production boundary


def _refuse_ring_product(*args):
    raise AssertionError("ring product called")


def test_production_commands_never_multiply_ring_elements(tmp_path, capsys, monkeypatch):
    # BurnsideElement.__mul__ is the reference product of `verify`, degree.py
    # and the tests; every other subcommand works on key sets, marks and
    # coefficient vectors.  main turns no AssertionError into exit 1, so a
    # product under the patch fails this test.
    message = tmp_path / "msg.txt"
    message.write_bytes(b"Burnside ring of O(2)\n")
    commands = [
        ["keygen", "--indices", "2,3,12", "--out", "{dir}/key.brc"],
        ["encrypt", "--key", "{dir}/key.brc", "--in", str(message), "--out", "{dir}/msg.ct"],
        ["decrypt", "--key", "{dir}/key.brc", "--in", "{dir}/msg.ct", "--out", "{dir}/msg.out"],
        ["attack", "cpa", "--s0", "2,3,12", "--s1", "2,3", "--hidden-bit", "0"],
        ["attack", "cpa", "--s0", "4,6,8,10", "--s1", "4,6,8,10,12", "--random", "--seed", "7"],
        ["attack", "cpa-sweep", "--max-index", "5", "--max-size", "2"],
        ["attack", "ambiguity", "--s", "2,3", "--window", "6", "--count", "2"],
        ["attack", "kpa", "--key", "{dir}/key.brc", "--pairs", "2", "--window", "12"],
    ]

    def run_all(work):
        work.mkdir()
        outputs = [run_cli(capsys, *(arg.format(dir=work) for arg in argv))[:2] for argv in commands]
        return outputs, [(work / name).read_bytes() for name in ("key.brc", "msg.ct", "msg.out")]

    expected = run_all(tmp_path / "unpatched")
    assert [code for code, _ in expected[0]] == [0] * len(commands)
    monkeypatch.setattr(BurnsideElement, "__mul__", _refuse_ring_product)
    monkeypatch.setattr(BurnsideElement, "__rmul__", _refuse_ring_product)
    with pytest.raises(AssertionError, match="ring product called"):
        key_element([2]) * D(3)
    assert run_all(tmp_path / "patched") == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["attack", "cpa", "--s0", "2,3", "--s1", "2", "--hidden-bit", "1"],
        ["attack", "cpa", "--s0", "2", "--s1", "3", "--random", "--seed", "42"],
        ["attack", "cpa-sweep", "--max-index", "4", "--max-size", "2"],
        ["attack", "ambiguity", "--s", "2,3", "--window", "6", "--count", "2"],
        ["attack", "kpa", "--key", "{key}", "--pairs", "2", "--window", "12"],
        ["verify", "table", "--max-index", "6"],
        ["verify", "all"],
    ],
)
def test_reports_print_through_the_one_report_path(keyfile, capsys, monkeypatch, argv):
    # Each attack and verify command prints its results once through
    # _print_reports; only `attack cpa --random` adds its seed line after them.
    print_reports = cli._print_reports
    calls = []

    def recorded(*results):
        calls.append(results)
        return print_reports(*results)

    monkeypatch.setattr(cli, "_print_reports", recorded)
    code, out, _ = run_cli(capsys, *(arg.format(key=keyfile) for arg in argv))
    assert code == 0
    assert len(calls) == 1
    reports = "".join(f"{result.report()}\n" for result in calls[0])
    assert out == reports + ("seed           : 42\n" if "--random" in argv else "")


def test_package_exports_production_names_only():
    dropped = {
        "brc.attacks": ["generic_plaintext_solver", "operator_matrix"],
        "brc.burnside": [
            "key_coeff", "key_coeff_bruteforce", "key_coeff_mobius", "ring_encode", "ring_decode", "SupportWindowError",
        ],
        "brc.degree": [
            "FixedPointTable", "LatticeConsistencyError", "LatticeData", "basic_degree_recurrence",
            "fixed_point_dims", "linear_iso_degree", "o2_lattice", "recurrence_mul",
        ],
    }
    exported = {name: value for name, value in vars(brc).items() if not name.startswith("_") and not ismodule(value)}
    assert sum(map(len, dropped.values())) == 16
    for module, names in dropped.items():
        assert not exported.keys() & set(names)
        assert all(hasattr(importlib.import_module(module), name) for name in names)
    assert {"KeySet", "key_element", "key_coeff_fold", "CpaGame", "read_message_file"} <= exported.keys()
    for name, value in exported.items():
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_attack_cpa_has_no_identity_class_query(capsys):
    # The identity class O2 is not a message: the game admits only dihedral probes.
    with pytest.raises(SystemExit) as exit_info:
        main(["attack", "cpa", "--s0", "2", "--s1", "3", "--hidden-bit", "0", "--identity-query"])
    assert exit_info.value.code == 2
    assert "error: unrecognized arguments: --identity-query\n" in capsys.readouterr().err


# ------------------------------------------------------------ argument vectors

# Integer option values: near misses (zero, negative, a leading zero,
# non-ASCII digits, which argparse's int() takes, malformed text) and valid
# values of at most 3, so that no drawn vector does work near a cap.  Each
# option adds the value one above its own cap.
_INTS = ["1", "2", "3", "0", "-1", "02", "\u0662", "\uff13", "+1", "2.0", "x", ""]
_SEEDS = ["0", "-1", "42", "01", "9" * 40, "\u0663", "x"]
_INDEX_LISTS = [
    "2", "5", "2,3", "3,5,12", "4,6,8,10", "4,6,8,10,12", "0", "-3", "02", "\u0663", "2,,3", "2,2", "x", "",
    ",".join(map(str, range(1, limits.MAX_KEY_SIZE + 2))),
    "2," + "1" * (limits.MAX_INDEX_DIGITS + 1),
]
# Files of each vector's own directory, by name: None is a directory.
_FILES = {
    "key.brc": b"BRC-KEY v1\nS 2 3\n",
    "\u043a\u043b\u044e\u0447.brc": b"BRC-KEY v1\nS 2 3\n",
    "bad.brc": b"BRC-KEY v1\nS 3 2\n",
    "non-ascii.brc": "BRC-KEY v1\nS \u0663\n".encode(),
    "msg.txt": b"Burnside\n",
    "non-ascii.txt": "Burnside \u00e9\n".encode(),
    "non-ascii.ct": "BRC-CT v1\nL 2\nD1 \u0662\n".encode(),
    "empty": b"",
    "dir": None,
}
# A sweep plays n*(n-1)*2 games on n key sets; this many singletons are one too many.
_OVER_GAMES = str(next(n for n in itertools.count(2) if n * (n - 1) * 2 > limits.MAX_SWEEP_GAMES))
# "@name" is the file of that name; "missing" and "no-dir/out" do not exist.
_PATHS = [f"@{name}" for name in [*_FILES, "msg.ct", "missing", "no-dir/out"]]


def _option(flag, values, required=False):
    """The option with a drawn value, or (unless required) left out as often as one value is drawn."""
    return st.sampled_from(values if required else [None, *values]).map(
        lambda value: [] if value is None else [flag, value]
    )


def _vector(command, *options):
    return st.tuples(*options).map(lambda parts: [*command, *(arg for part in parts for arg in part)])


_ARGV = st.one_of(
    _vector(["keygen"], _option("--indices", _INDEX_LISTS), _option("--out", _PATHS)),
    *(
        _vector([mode], _option("--key", _PATHS), _option("--in", _PATHS), _option("--out", _PATHS))
        for mode in ("encrypt", "decrypt")
    ),
    _vector(
        ["attack", "cpa"],
        _option("--s0", _INDEX_LISTS),
        _option("--s1", _INDEX_LISTS),
        # The hidden bit is fixed, drawn with or without a seed, both, neither, or fixed with a seed.
        st.one_of(
            _option("--hidden-bit", ["0", "1", "2", "-1", "01", "\u0661", "x"], required=True),
            _option("--seed", _SEEDS).map(lambda seed: ["--random", *seed]),
            st.sampled_from([[], ["--random", "--hidden-bit", "0"], ["--hidden-bit", "0", "--seed", "5"]]),
        ),
        # No longer an option: the game admits only dihedral probes.
        st.sampled_from([[], [], [], ["--identity-query"]]),
    ),
    # --max-index is always given: the default key space plays 16 744 games.
    _vector(
        ["attack", "cpa-sweep"],
        _option("--max-index", [*_INTS, _OVER_GAMES], required=True),
        _option("--max-size", [*_INTS, str(limits.MAX_KEY_SIZE + 1)]),
    ),
    _vector(
        ["attack", "ambiguity"],
        _option("--s", _INDEX_LISTS),
        _option("--window", [*_INTS, str(limits.MAX_LENGTH + 1)]),
        _option("--count", [*_INTS, str(limits.MAX_TWINS + 1)]),
    ),
    _vector(
        ["attack", "kpa"],
        _option("--key", _PATHS),
        _option("--pairs", [*_INTS, str(limits.MAX_DRAWN_VALUES // limits.MIN_PAIR_COST + 1)]),
        _option("--window", [*_INTS, str(limits.MAX_LENGTH + 1)]),
        _option("--seed", _SEEDS),
    ),
    _vector(
        ["verify"],
        st.sampled_from(["table", "involution", "prop-coeff", "recurrence", "rf1", "all", "tables"]).map(lambda s: [s]),
        _option("--max-index", [*_INTS, str(limits.MAX_TABLE_INDEX + 1)]),
        _option("--trials", [*_INTS, str(limits.MAX_TRIALS + 1)]),
        _option("--seed", _SEEDS),
        _option("--max-irrep", [*_INTS, str(limits.MAX_IRREP + 1)]),
    ),
)


@settings(max_examples=200)
@given(_ARGV)
def test_argument_vectors_exit_0_1_or_2_with_at_most_one_error_line(tmp_path_factory, argv):
    work = tmp_path_factory.mktemp("argv")
    for name, content in _FILES.items():
        if content is None:
            (work / name).mkdir()
        else:
            (work / name).write_bytes(content)
    write_ciphertext_file(work / "msg.ct", encrypt(b"Burnside\n", KeySet([2, 3])))
    argv = [str(work / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in (0, 1, 2)
    assert sum("error:" in line for line in err.getvalue().splitlines()) <= 1
