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
import sys
from pathlib import Path
from typing import Sequence

from . import attacks, limits
from .burnside import KeySet, key_element
from .cipher import (
    decrypt,
    encrypt,
    read_ciphertext_file,
    read_key_file,
    read_message_file,
    write_ciphertext_file,
    write_key_file,
)
from .verify import SUITES, run_suite


def _integer(text: str) -> int:
    """The type of every integer option and index: canonical ASCII decimals, the text str() gives back."""
    # int() alone also takes "+3", " 3", "1_0", "02" and non-ASCII digits.
    try:
        if str(value := int(text)) == text:
            return value
    except ValueError:
        pass
    # argparse prints this after the option's name.
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _parse_key_set(text: str) -> KeySet:
    """The key set of an option, refused above the key file's limits before any work."""
    try:
        indices = [_integer(tok) for tok in text.split(",")]
    except argparse.ArgumentTypeError:
        raise ValueError(f"indices must be comma-separated integers, got {text!r}") from None
    key_set = KeySet(indices)
    limits.check_key_limits(key_set)
    return key_set


def _cmd_keygen(args: argparse.Namespace) -> int:
    key_set = _parse_key_set(args.indices)
    if args.out:
        write_key_file(args.out, key_set)
        print(f"wrote key file {args.out}", file=sys.stderr)
    print(key_element(key_set).render())
    return 0


def _cmd_encrypt(args: argparse.Namespace) -> int:
    key_set = read_key_file(args.key)
    data = read_message_file(args.in_path)
    ciphertext = encrypt(data, key_set)
    write_ciphertext_file(args.out_path, ciphertext)
    print(f"encrypted {len(data)} bytes -> {args.out_path}", file=sys.stderr)
    return 0


def _cmd_decrypt(args: argparse.Namespace) -> int:
    key_set = read_key_file(args.key)
    ciphertext = read_ciphertext_file(args.in_path, max_body=limits.max_text_ciphertext_body)
    data = decrypt(ciphertext, key_set)
    Path(args.out_path).write_bytes(data)
    print(f"decrypted {len(data)} bytes -> {args.out_path}", file=sys.stderr)
    return 0


def _print_reports(*results) -> int:
    """Print each result's report; exit status 0 exactly when every result is ok."""
    for result in results:
        print(result.report())
    return 0 if all(result.ok for result in results) else 1


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
    code = _print_reports(attacks.run_cpa_experiment(s0, s1, hidden_bit))
    if seed is not None:
        print(f"seed           : {seed}")
    return code


def _cmd_attack_cpa_sweep(args: argparse.Namespace) -> int:
    return _print_reports(attacks.run_cpa_sweep(args.max_index, args.max_size))


def _cmd_attack_ambiguity(args: argparse.Namespace) -> int:
    return _print_reports(attacks.run_ambiguity_demo(_parse_key_set(args.s), args.window, args.count))


def _cmd_attack_kpa(args: argparse.Namespace) -> int:
    return _print_reports(attacks.run_kpa_demo(read_key_file(args.key), args.window, args.pairs, seed=args.seed))


def _cmd_verify(args: argparse.Namespace) -> int:
    return _print_reports(
        *run_suite(args.suite, max_index=args.max_index, trials=args.trials, seed=args.seed, max_irrep=args.max_irrep)
    )


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

    encrypt_cmd = sub.add_parser("encrypt", help="encrypt a 7-bit text file")
    encrypt_cmd.add_argument("--key", required=True, help="key file (BRC-KEY v1)")
    encrypt_cmd.add_argument("--in", dest="in_path", required=True, help="plaintext file")
    encrypt_cmd.add_argument("--out", dest="out_path", required=True, help="ciphertext file to write")
    encrypt_cmd.set_defaults(func=_cmd_encrypt)

    decrypt_cmd = sub.add_parser("decrypt", help="decrypt a ciphertext file")
    decrypt_cmd.add_argument("--key", required=True, help="key file (BRC-KEY v1)")
    decrypt_cmd.add_argument("--in", dest="in_path", required=True, help="ciphertext file")
    decrypt_cmd.add_argument("--out", dest="out_path", required=True, help="plaintext file to write")
    decrypt_cmd.set_defaults(func=_cmd_decrypt)

    attack = sub.add_parser("attack", help="run an attack demonstration")
    attack_sub = attack.add_subparsers(dest="mode", required=True)

    cpa = attack_sub.add_parser("cpa", help="one-query key-distinguishing experiment")
    cpa.add_argument("--s0", required=True, help="first candidate key set, e.g. 2,3")
    cpa.add_argument("--s1", required=True, help="second candidate key set")
    pick = cpa.add_mutually_exclusive_group(required=True)
    pick.add_argument("--hidden-bit", type=_integer, choices=(0, 1), help="fixed hidden bit")
    pick.add_argument("--random", action="store_true", help="draw the hidden bit from a seeded RNG")
    cpa.add_argument("--seed", type=_integer, help="seed for --random (fresh one drawn and printed otherwise)")
    cpa.set_defaults(func=_cmd_attack_cpa)

    sweep = attack_sub.add_parser(
        "cpa-sweep",
        help="distinguisher over every pair of a bounded key space",
        description=f"Plays n*(n-1)*2 games on n key sets, at most {limits.MAX_SWEEP_GAMES}.",
    )
    sweep.add_argument("--max-index", type=_integer, default=8, help="largest key index (default 8)")
    sweep.add_argument("--max-size", type=_integer, default=3, help="largest key set size (default 3)")
    sweep.set_defaults(func=_cmd_attack_cpa_sweep)

    ambiguity = attack_sub.add_parser("ambiguity", help="prime-scaled keys identical on a window")
    ambiguity.add_argument("--s", required=True, help="base key set, e.g. 2,3")
    ambiguity.add_argument("--window", type=_integer, required=True, help="observation window size L")
    ambiguity.add_argument(
        "--count", type=_integer, required=True, help=f"number of scaled twins, at most {limits.MAX_TWINS}"
    )
    ambiguity.set_defaults(func=_cmd_attack_ambiguity)

    kpa = attack_sub.add_parser("kpa", help="known-plaintext operator recovery")
    kpa.add_argument("--key", required=True, help="key file for the hidden key")
    kpa.add_argument("--pairs", type=_integer, required=True, help="number of plaintext/ciphertext pairs")
    kpa.add_argument("--window", type=_integer, required=True, help="observation window size L")
    kpa.add_argument("--seed", type=_integer, default=0, help="RNG seed for the sampled plaintexts")
    kpa.set_defaults(func=_cmd_attack_kpa)

    verify = sub.add_parser("verify", help="run an oracle-equivalence suite")
    verify.add_argument("suite", choices=(*SUITES, "all"))
    verify.add_argument(
        "--max-index", type=_integer, help=f"basis index bound for table/recurrence, at most {limits.MAX_TABLE_INDEX}"
    )
    verify.add_argument(
        "--trials", type=_integer, help=f"random case count for involution/prop-coeff, at most {limits.MAX_TRIALS}"
    )
    verify.add_argument("--seed", type=_integer, help="RNG seed for randomized suites")
    verify.add_argument("--max-irrep", type=_integer, help=f"representation bound for rf1, at most {limits.MAX_IRREP}")
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
        code = args.func(args)
        sys.stdout.flush()  # in the try: a reader that closed stdout early is met here
        return code
    except BrokenPipeError:
        # As the signal module's docs advise: stdout to devnull, so the flush at exit cannot raise.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except (ValueError, ArithmeticError, RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
