"""Command-line interface: key generation, file encryption/decryption,
attack demonstrations and oracle-verification suites.

Exit status is 0 exactly when the requested operation met its contract
(files written, attack demonstration succeeded, all verification cases
passed).  Diagnostics go to stderr; reports and key renderings go to
stdout; binary artifacts go to the declared paths.
"""

from __future__ import annotations

import argparse
import functools
import os
import random
import stat
import sys
from pathlib import Path
from typing import Sequence

from . import attacks
from .burnside import KeySet, key_element
from .cipher import (
    MAX_LENGTH,
    MessageError,
    check_key_limits,
    decrypt_message,
    encrypt_message,
    read_ciphertext_file,
    read_key_file,
    write_ciphertext_file,
    write_key_file,
)
from .verify import MAX_IRREP, MAX_TABLE_INDEX, MAX_TRIALS, run_suite


def _parse_key_set(text: str) -> KeySet:
    try:
        indices = [int(tok) for tok in text.split(",") if tok.strip() != ""]
    except ValueError:
        raise ValueError(f"indices must be comma-separated integers, got {text!r}") from None
    return KeySet(indices)


def _cmd_keygen(args: argparse.Namespace) -> int:
    key_set = _parse_key_set(args.indices)
    # Before key_element, whose size grows as 2**|S|.
    check_key_limits(key_set)
    if args.out:
        write_key_file(args.out, key_set)
        print(f"wrote key file {args.out}", file=sys.stderr)
    print(key_element(key_set).render())
    return 0


def _read_message(path: str) -> bytes:
    """The bytes of a message file; MessageError above MAX_LENGTH, read no further."""
    with open(path, "rb") as f:
        data = f.read(MAX_LENGTH + 1)
        if len(data) <= MAX_LENGTH:
            return data
        info = os.fstat(f.fileno())
    # A pipe or device has no size to report without reading it all.
    if not stat.S_ISREG(info.st_mode):
        raise MessageError(f"message is longer than {MAX_LENGTH} bytes")
    raise MessageError(f"message of {info.st_size} bytes is longer than {MAX_LENGTH} bytes")


def _cmd_encrypt(args: argparse.Namespace) -> int:
    key_set = read_key_file(args.key)
    data = _read_message(args.in_path)
    ciphertext = encrypt_message(data, key_set)
    write_ciphertext_file(args.out_path, ciphertext)
    print(f"encrypted {len(data)} bytes -> {args.out_path}", file=sys.stderr)
    return 0


def _cmd_decrypt(args: argparse.Namespace) -> int:
    key_set = read_key_file(args.key)
    ciphertext = read_ciphertext_file(args.in_path)
    data = decrypt_message(ciphertext, key_set)
    Path(args.out_path).write_bytes(data)
    print(f"decrypted {len(data)} bytes -> {args.out_path}", file=sys.stderr)
    return 0


def _cmd_attack_cpa(args: argparse.Namespace) -> int:
    s0, s1 = _parse_key_set(args.s0), _parse_key_set(args.s1)
    if args.seed is not None and not args.random:
        raise ValueError("--seed is only meaningful together with --random")
    seed: int | None = None
    if args.random:
        seed = args.seed if args.seed is not None else random.SystemRandom().randrange(2**32)
        hidden_bit = random.Random(seed).randrange(2)
    else:
        hidden_bit = args.hidden_bit
    if args.identity_query:
        guess, response = attacks.identity_query_leak(s0, s1, hidden_bit)
        print(attacks.format_identity_report(s0, s1, hidden_bit, guess, response, seed))
    else:
        result, experiment = attacks.run_cpa_experiment(s0, s1, hidden_bit)
        guess = result.guess
        print(attacks.format_cpa_report(result, experiment, seed))
    return 0 if guess == hidden_bit else 1


def _cmd_attack_cpa_sweep(args: argparse.Namespace) -> int:
    result = attacks.run_cpa_sweep(args.max_index, args.max_size)
    print(attacks.format_cpa_sweep_report(result))
    return 0 if result.correct == result.games else 1


def _cmd_attack_ambiguity(args: argparse.Namespace) -> int:
    result = attacks.run_ambiguity_demo(_parse_key_set(args.s), args.window, args.count)
    print(attacks.format_ambiguity_report(result))
    return 0 if result.ok else 1


def _cmd_attack_kpa(args: argparse.Namespace) -> int:
    result = attacks.run_kpa_demo(read_key_file(args.key), args.window, args.pairs, seed=args.seed)
    print(attacks.format_kpa_report(result))
    return 0 if result.ok else 1


def _cmd_verify(args: argparse.Namespace) -> int:
    results = run_suite(
        args.suite,
        max_index=args.max_index,
        trials=args.trials,
        seed=args.seed,
        max_irrep=args.max_irrep,
    )
    for result in results:
        print(result.summary())
    return 0 if all(result.ok for result in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brc",
        description="Involutory-multiplier cipher over the O(2) Burnside ring.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    keygen = sub.add_parser("keygen", help="derive and store a key from its index set")
    keygen.add_argument("--indices", required=True, help="comma-separated distinct integers >= 1")
    keygen.add_argument("--out", help="key file to write (BRC-KEY v1)")
    keygen.set_defaults(func=_cmd_keygen)

    encrypt = sub.add_parser("encrypt", help="encrypt a 7-bit text file")
    encrypt.add_argument("--key", required=True, help="key file (BRC-KEY v1)")
    encrypt.add_argument("--in", dest="in_path", required=True, help="plaintext file")
    encrypt.add_argument("--out", dest="out_path", required=True, help="ciphertext file to write")
    encrypt.set_defaults(func=_cmd_encrypt)

    decrypt = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    decrypt.add_argument("--key", required=True, help="key file (BRC-KEY v1)")
    decrypt.add_argument("--in", dest="in_path", required=True, help="ciphertext file")
    decrypt.add_argument("--out", dest="out_path", required=True, help="plaintext file to write")
    decrypt.set_defaults(func=_cmd_decrypt)

    attack = sub.add_parser("attack", help="run an attack demonstration")
    attack_sub = attack.add_subparsers(dest="mode", required=True)

    cpa = attack_sub.add_parser("cpa", help="one-query key-distinguishing experiment")
    cpa.add_argument("--s0", required=True, help="first candidate key set, e.g. 2,3")
    cpa.add_argument("--s1", required=True, help="second candidate key set")
    pick = cpa.add_mutually_exclusive_group(required=True)
    pick.add_argument("--hidden-bit", type=int, choices=(0, 1), help="fixed hidden bit")
    pick.add_argument("--random", action="store_true", help="draw the hidden bit from a seeded RNG")
    cpa.add_argument("--seed", type=int, help="seed for --random (fresh one drawn and printed otherwise)")
    cpa.add_argument(
        "--identity-query",
        action="store_true",
        help="demonstrate the trivial identity-class query instead of the dihedral probe",
    )
    cpa.set_defaults(func=_cmd_attack_cpa)

    sweep = attack_sub.add_parser(
        "cpa-sweep",
        help="distinguisher over every pair of a bounded key space",
        description=f"Plays n*(n-1)*2 games on n key sets, at most {attacks.MAX_SWEEP_GAMES}.",
    )
    sweep.add_argument("--max-index", type=int, default=8, help="largest key index (default 8)")
    sweep.add_argument("--max-size", type=int, default=3, help="largest key set size (default 3)")
    sweep.set_defaults(func=_cmd_attack_cpa_sweep)

    ambiguity = attack_sub.add_parser("ambiguity", help="prime-scaled keys identical on a window")
    ambiguity.add_argument("--s", required=True, help="base key set, e.g. 2,3")
    ambiguity.add_argument("--window", type=int, required=True, help="observation window size L")
    ambiguity.add_argument(
        "--count", type=int, required=True, help=f"number of scaled twins, at most {attacks.MAX_TWINS}"
    )
    ambiguity.set_defaults(func=_cmd_attack_ambiguity)

    kpa = attack_sub.add_parser("kpa", help="known-plaintext operator recovery")
    kpa.add_argument("--key", required=True, help="key file for the hidden key")
    kpa.add_argument("--pairs", type=int, required=True, help="number of plaintext/ciphertext pairs")
    kpa.add_argument("--window", type=int, required=True, help="observation window size L")
    kpa.add_argument("--seed", type=int, default=0, help="RNG seed for the sampled plaintexts")
    kpa.set_defaults(func=_cmd_attack_kpa)

    verify = sub.add_parser("verify", help="run an oracle-equivalence suite")
    verify.add_argument(
        "suite",
        choices=("table", "involution", "prop-coeff", "recurrence", "rf1", "all"),
    )
    verify.add_argument(
        "--max-index", type=int, help=f"basis index bound for table/recurrence, at most {MAX_TABLE_INDEX}"
    )
    verify.add_argument(
        "--trials", type=int, help=f"random case count for involution/prop-coeff, at most {MAX_TRIALS}"
    )
    verify.add_argument("--seed", type=int, default=0, help="RNG seed for randomized suites")
    verify.add_argument("--max-irrep", type=int, help=f"representation bound for rf1, at most {MAX_IRREP}")
    verify.set_defaults(func=_cmd_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # Built on the first call of main, not at import, and reused: parsing
    # keeps no state in the parser, each call gets a fresh namespace.
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
