"""The four workloads: seeded inputs, timed operations and their checks.

A workload draws all of its inputs from the benchmark seed when it is
built, without touching the brc package.  `prepare` then does the
preparation a user of the program would do (key files, key elements)
and returns one warm-up operation; the runner times both as set-up.
`round` returns the operations of one round.  Every round of a run
repeats exactly the same operations, so counts per round repeat and
the share of failed operations does not depend on how many rounds fit
in the run.

Each operation calls the program through public entry points looked up
on the module at call time, so the traced run sees the wrappers it
installs.  Its check compares the output with the reference arithmetic
in oracle.py, or with a property the method must have.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Callable

import oracle

OK = "ok"
WRONG = "wrong"
FAILED = "failed"


@dataclass(frozen=True)
class Op:
    """One operation.  `check` maps (result, error) to OK, WRONG or FAILED.

    `timed` operations count towards ops_per_s and latency_p50_ms; the
    malformed-input cases do not.
    """

    run: Callable[[], Any]
    check: Callable[[Any, BaseException | None], str]
    timed: bool = True


def _checked(predicate: Callable[[Any], bool]) -> Callable[[Any, BaseException | None], str]:
    def check(result: Any, error: BaseException | None) -> str:
        if error is not None:
            return FAILED
        return OK if predicate(result) else WRONG

    return check


# --------------------------------------------------------------------------
# cipher-files


KEY_SIZES = (2, 6, 16)
# Dihedral terms in k_S for each key size, the mode of the distribution
# over random index sets from 2..64.  Keys are drawn until they have
# exactly this many, so the product work (10 000 plaintext terms times
# the key's support) is the same for every seed.
KEY_SUPPORT = {2: 3, 6: 8, 16: 20}
KEY_INDICES = range(2, 65)
MESSAGE_BYTES = 10_000

# Malformed inputs.  Each case passes only when the reader raises
# FileFormatError.  The first cases of each list are accepted by the
# readers today (non-canonical tokens), and `D² 5` escapes as a bare
# ValueError; they are counted as failed operations.
MALFORMED_KEYS = {
    "key-leading-zero": "BRC-KEY v1\nS 02 3\n",
    "key-non-ascii-digit": "BRC-KEY v1\nS 2 ٣\n",
    "key-bad-header": "BRC-KEY v2\nS 2 3\n",
    "key-unsorted": "BRC-KEY v1\nS 3 2\n",
    "key-zero-index": "BRC-KEY v1\nS 0 2\n",
    "key-empty-set": "BRC-KEY v1\nS\n",
    "key-non-integer": "BRC-KEY v1\nS 2 x\n",
}
MALFORMED_CIPHERTEXTS = {
    "ct-leading-zero-label": "BRC-CT v1\nL 2\nD01 5\n",
    "ct-plus-sign": "BRC-CT v1\nL 2\nD1 +5\n",
    "ct-underscore": "BRC-CT v1\nL 2\nD1 1_0\n",
    "ct-non-ascii-length": "BRC-CT v1\nL ٢\nD1 5\n",
    "ct-superscript-label": "BRC-CT v1\nL 2\nD² 5\n",
    "ct-bad-header": "BRC-CT v2\nL 2\nD1 5\n",
    "ct-zero-length": "BRC-CT v1\nL 0\nD1 5\n",
    "ct-unsorted": "BRC-CT v1\nL 3\nD2 1\nD1 1\n",
    "ct-zero-coefficient": "BRC-CT v1\nL 2\nD1 0\n",
    "ct-outside-window": "BRC-CT v1\nL 2\nD3 1\n",
    "ct-rotation-term": "BRC-CT v1\nL 2\nSO2 1\n",
    "ct-truncated": "BRC-CT v1\nL 2\n",
}


def _draw_key(rng: random.Random, size: int) -> tuple[int, ...]:
    while True:
        key = tuple(sorted(rng.sample(KEY_INDICES, size)))
        if len(oracle.key_coefficients(key)) == KEY_SUPPORT[size]:
            return key


def _read_ciphertext_terms(text: str, length: int) -> list[int] | None:
    """Coefficient vector [0, c_1, ..., c_L] of a ciphertext file, or None."""
    lines = text.split("\n")
    if lines[:2] != ["BRC-CT v1", f"L {length}"] or lines[-1] != "":
        return None
    values = [0] * (length + 1)
    for line in lines[2:-1]:
        label, _, coeff = line.partition(" ")
        if label[:1] != "D":
            return None
        n = int(label[1:])
        if not 1 <= n <= length:
            return None
        values[n] = int(coeff)
    return values


class CipherFiles:
    """`brc.cli.main` encrypts, then decrypts, seeded 10 KB text files.

    One operation is one file's round trip (two CLI calls) under one key;
    a round holds one round trip per key size plus every malformed file.
    """

    name = "cipher-files"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.dir = workdir
        self.keys = {size: _draw_key(rng, size) for size in KEY_SIZES}
        self.cases = [self._case(rng, str(size), self.keys[size]) for size in KEY_SIZES]
        self.warmup = self._case(rng, "warmup", self.keys[KEY_SIZES[0]])
        self.malformed = []
        for label, text in (*MALFORMED_KEYS.items(), *MALFORMED_CIPHERTEXTS.items()):
            path = workdir / f"{label}.txt"
            path.write_text(text, encoding="utf-8")
            self.malformed.append((label, path))

    def _case(self, rng: random.Random, label: str, key: tuple[int, ...]) -> SimpleNamespace:
        message = bytes(rng.randrange(32, 127) for _ in range(MESSAGE_BYTES))
        plain = self.dir / f"plain-{label}.txt"
        plain.write_bytes(message)
        eps = oracle.marks(key, MESSAGE_BYTES)
        sums = oracle.divisor_sums([0, *message], MESSAGE_BYTES)
        return SimpleNamespace(
            key_path=self.dir / f"key-{len(key)}.brc",
            plain=plain,
            message=message,
            cipher=self.dir / f"cipher-{label}.ct",
            rerendered=self.dir / f"cipher-{label}.rerendered.ct",
            decrypted=self.dir / f"decrypted-{label}.txt",
            expected_sums=[e * s for e, s in zip(eps, sums)],
        )

    def prepare(self, m: SimpleNamespace) -> Op:
        for size, key in self.keys.items():
            key_set = m.brc.KeySet(key)
            m.cipher.write_key_file(self.dir / f"key-{size}.brc", key_set)
            m.brc.key_element(key_set)
        self.m = m
        return self._roundtrip(self.warmup)

    def round(self) -> list[Op]:
        ops = [self._roundtrip(case) for case in self.cases]
        for label, path in self.malformed:
            reader = "read_key_file" if label.startswith("key") else "read_ciphertext_file"
            ops.append(Op(lambda reader=reader, path=path: getattr(self.m.cipher, reader)(path), self._rejects, timed=False))
        return ops

    def _rejects(self, result: Any, error: BaseException | None) -> str:
        return OK if isinstance(error, self.m.cipher.FileFormatError) else FAILED

    def _roundtrip(self, case: SimpleNamespace) -> Op:
        key, plain, cipher, out = map(str, (case.key_path, case.plain, case.cipher, case.decrypted))

        def run() -> tuple[int, int]:
            return (
                self.m.cli.main(["encrypt", "--key", key, "--in", plain, "--out", cipher]),
                self.m.cli.main(["decrypt", "--key", key, "--in", cipher, "--out", out]),
            )

        def correct(codes: tuple[int, int]) -> bool:
            if codes != (0, 0) or case.decrypted.read_bytes() != case.message:
                return False
            text = case.cipher.read_text(encoding="ascii")
            values = _read_ciphertext_terms(text, MESSAGE_BYTES)
            # Encryption multiplies every mark: sum_{x|n} c_n = eps_x * sum_{x|n} p_n.
            if values is None or oracle.divisor_sums(values, MESSAGE_BYTES) != case.expected_sums:
                return False
            reread = self.m.cipher.read_ciphertext_file(case.cipher)
            self.m.cipher.write_ciphertext_file(case.rerendered, reread)
            return case.rerendered.read_text(encoding="ascii") == text

        return Op(run, _checked(correct))


# --------------------------------------------------------------------------
# cpa-games


CPA_MAX_INDEX = 64
CPA_SIZES = range(1, 17)
# Games per (pair kind, size, hidden bit).  Subset enumeration costs more
# per subset when the running gcd stays above 1 for longer, which depends
# on the drawn sets; several games per slot average that out.
CPA_GAMES_PER_SLOT = 8


def _fold_multiples(size: int) -> int:
    """Multiples of the probe below max S in a neighbouring game of this size.

    key_coeff_fold enumerates every subset of S once per multiple, so
    fixing the count per size fixes the game's subset work.
    """
    return 1 + size % 3


class CpaGames:
    """`run_cpa_experiment` plays seeded key-distinguishing games.

    A round holds, for each size k, each hidden bit and CPA_GAMES_PER_SLOT
    times: one game over a random candidate pair of size k with different
    maxima (the probe is then the larger maximum, so the folds enumerate
    the subsets of one set once) and, for k >= 2, one game over a
    neighbouring pair S, S minus {j}, with j drawn so that
    max S // j == _fold_multiples(k).
    """

    name = "cpa-games"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        indices = range(1, CPA_MAX_INDEX + 1)
        slots = [(size, bit) for size in CPA_SIZES for bit in (0, 1) for _ in range(CPA_GAMES_PER_SLOT)]
        self.games: list[tuple[tuple[int, ...], tuple[int, ...], int]] = []
        for size, bit in slots:
            while True:
                s0 = tuple(sorted(rng.sample(indices, size)))
                s1 = tuple(sorted(rng.sample(indices, size)))
                if s0[-1] != s1[-1]:
                    break
            self.games.append((s0, s1, bit))
        for size, bit in slots:
            if size == 1:
                continue
            while True:
                big = tuple(sorted(rng.sample(indices, size)))
                probes = [j for j in big[:-1] if big[-1] // j == _fold_multiples(size)]
                if probes:
                    break
            j = rng.choice(probes)
            small = tuple(i for i in big if i != j)
            pair = (big, small) if rng.random() < 0.5 else (small, big)
            self.games.append((*pair, bit))

    def prepare(self, m: SimpleNamespace) -> Op:
        self.m = m
        self.key_sets = [(m.brc.KeySet(s0), m.brc.KeySet(s1), bit) for s0, s1, bit in self.games]
        return self._game(*self.key_sets[-1])

    def round(self) -> list[Op]:
        return [self._game(*game) for game in self.key_sets]

    def _game(self, s0: Any, s1: Any, bit: int) -> Op:
        hidden = (s0, s1)[bit].indices
        probe = max(set(s0.indices) ^ set(s1.indices))
        observed = oracle.marks(hidden, probe)[probe]

        def correct(outcome: Any) -> bool:
            result, experiment = outcome
            return (
                result.guess == bit
                and experiment.query_log == [probe]
                and result.probe == probe
                and result.observed == observed
            )

        return Op(lambda: self.m.attacks.run_cpa_experiment(s0, s1, bit), _checked(correct))


# --------------------------------------------------------------------------
# kpa-window


KPA_WINDOWS = (20, 40, 60)
KPA_KEY_SIZE = 5
KPA_KEY_INDICES = range(2, 61)


class KpaWindow:
    """`run_kpa_demo` recovers the operator from L known pairs on W_L.

    A round runs the windows 20, 40 and 60, each under its own seeded key
    and plaintext seed, so the keys rotate across the round.
    """

    name = "kpa-window"

    def __init__(self, seed: int, workdir: Path) -> None:
        rng = random.Random(f"{self.name}:{seed}")
        self.cases = [
            (window, tuple(sorted(rng.sample(KPA_KEY_INDICES, KPA_KEY_SIZE))), rng.randrange(2**32))
            for window in KPA_WINDOWS
        ]
        self.expected = {
            (window, key): (oracle.window_operator(key, window), oracle.marks(key, window))
            for window, key, _ in self.cases
        }

    def prepare(self, m: SimpleNamespace) -> Op:
        self.m = m
        self.key_sets = [(window, m.brc.KeySet(key), plain_seed) for window, key, plain_seed in self.cases]
        for _, key_set, _ in self.key_sets:
            m.brc.key_element(key_set)
        return self._demo(*self.key_sets[0])

    def round(self) -> list[Op]:
        return [self._demo(*case) for case in self.key_sets]

    def _demo(self, window: int, key_set: Any, plain_seed: int) -> Op:
        matrix, eps = self.expected[(window, key_set.indices)]

        def correct(result: Any) -> bool:
            solver = result.solver
            return (
                solver.rank == window
                and solver.matrix is not None
                and solver.matrix.rows == matrix
                and result.matches_true_operator is True
                and len(result.twins) == len(result.twins_match) > 0
                and all(result.twins_match)
                # Twins act identically on W_L: same marks for x <= L.
                and all(t.indices != key_set.indices and oracle.marks(t.indices, window) == eps for t in result.twins)
            )

        return Op(
            lambda: self.m.attacks.run_kpa_demo(key_set, window, window, seed=plain_seed),
            _checked(correct),
        )


# --------------------------------------------------------------------------
# verify-all


SUITE_ORDER = ("table", "recurrence", "involution", "prop-coeff", "rf1")


class VerifyAll:
    """`run_suite("all")` at its default ranges, with a seeded suite seed."""

    name = "verify-all"

    def __init__(self, seed: int, workdir: Path) -> None:
        self.suite_seed = random.Random(f"{self.name}:{seed}").randrange(2**32)
        self.cases = oracle.verify_case_counts()

    def prepare(self, m: SimpleNamespace) -> Op:
        self.m = m
        return self.round()[0]

    def round(self) -> list[Op]:
        def correct(results: Any) -> bool:
            return [r.name for r in results] == list(SUITE_ORDER) and all(
                r.ok and r.cases == self.cases[r.name] for r in results
            )

        return [Op(lambda: self.m.verify.run_suite("all", seed=self.suite_seed), _checked(correct))]


WORKLOADS = {cls.name: cls for cls in (CipherFiles, CpaGames, KpaWindow, VerifyAll)}
