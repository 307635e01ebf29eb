"""Every size limit lives in brc.limits, and each is refused before the work it guards."""

import ast
from itertools import count
from pathlib import Path

import pytest

from brc import attacks, burnside, cli, limits, verify
from brc.cli import main

SRC = Path(__file__).resolve().parents[1] / "src" / "brc"

OVER_KEY = ",".join(str(i) for i in range(1, limits.MAX_KEY_SIZE + 2))
OVER_DIGITS = "2," + "1" * (limits.MAX_INDEX_DIGITS + 1)
OVER_LENGTH = str(limits.MAX_LENGTH + 1)
# A sweep plays n*(n-1)*2 games on n key sets: 316 singletons fit the cap, 317 do not.
OVER_GAMES = str(next(n for n in count(2) if n * (n - 1) * 2 > limits.MAX_SWEEP_GAMES))
OVER_DRAWN = str(limits.MAX_DRAWN_VALUES // limits.MIN_PAIR_COST + 1)

# (argv, the one stderr line).  {key} holds {2, 3}; {key21}, {key31}, {long},
# {long_ct} and {long_body} are one above the key size, index digits, message
# length, declared length and ciphertext body caps.
REFUSALS = [
    pytest.param(["keygen", "--indices", OVER_KEY], "key set has 21 indices, above the limit 20", id="keygen-indices"),
    pytest.param(["keygen", "--indices", OVER_DIGITS], "key index has more than 30 digits", id="keygen-digits"),
    pytest.param(
        ["encrypt", "--key", "{key}", "--in", "{long}", "--out", "{out}"],
        "message of 1048577 bytes is longer than 1048576 bytes",
        id="encrypt-length",
    ),
    pytest.param(
        ["encrypt", "--key", "{key21}", "--in", "{msg}", "--out", "{out}"],
        "key set has 21 indices, above the limit 20",
        id="encrypt-key-indices",
    ),
    pytest.param(
        ["encrypt", "--key", "{key31}", "--in", "{msg}", "--out", "{out}"],
        "key index has more than 30 digits",
        id="encrypt-key-digits",
    ),
    pytest.param(
        ["decrypt", "--key", "{key}", "--in", "{long_ct}", "--out", "{out}"],
        "declared length 1048577 is above the limit 1048576",
        id="decrypt-length",
    ),
    pytest.param(
        ["decrypt", "--key", "{key}", "--in", "{long_body}", "--out", "{out}"],
        "ciphertext body is longer than 16 bytes, the most a 2-byte text encrypts to",
        id="decrypt-body",
    ),
    pytest.param(
        ["attack", "cpa", "--s0", OVER_KEY, "--s1", "2", "--hidden-bit", "0"],
        "key set has 21 indices, above the limit 20",
        id="cpa-indices",
    ),
    pytest.param(
        ["attack", "cpa", "--s0", OVER_DIGITS, "--s1", "2", "--hidden-bit", "0"],
        "key index has more than 30 digits",
        id="cpa-digits",
    ),
    pytest.param(
        ["attack", "cpa-sweep", "--max-index", OVER_GAMES, "--max-size", "1"],
        "indices <= 317, |S| <= 1 need more than 200000 games, the cpa-sweep cap",
        id="cpa-sweep-games",
    ),
    pytest.param(
        ["attack", "cpa-sweep", "--max-index", "40", "--max-size", "3"],
        "indices <= 40, |S| <= 3 need more than 200000 games, the cpa-sweep cap",
        id="cpa-sweep-games-far",
    ),
    pytest.param(
        ["attack", "cpa-sweep", "--max-index", "1"],
        "fewer than two key sets with indices <= 1, |S| <= 3",
        id="cpa-sweep-games-low",
    ),
    pytest.param(
        ["attack", "ambiguity", "--s", OVER_KEY, "--window", "8", "--count", "1"],
        "key set has 21 indices, above the limit 20",
        id="ambiguity-indices",
    ),
    pytest.param(
        ["attack", "ambiguity", "--s", OVER_DIGITS, "--window", "8", "--count", "1"],
        "key index has more than 30 digits",
        id="ambiguity-digits",
    ),
    pytest.param(
        ["attack", "ambiguity", "--s", "2,3", "--window", "8", "--count", str(limits.MAX_TWINS + 1)],
        "count must be <= 100, got 101",
        id="ambiguity-count",
    ),
    pytest.param(
        ["attack", "ambiguity", "--s", "2,3", "--window", "8", "--count", "0"],
        "count must be >= 1, got 0",
        id="ambiguity-count-low",
    ),
    pytest.param(
        ["attack", "ambiguity", "--s", "2,3", "--window", OVER_LENGTH, "--count", "1"],
        "window must be <= 1048576, got 1048577",
        id="ambiguity-window",
    ),
    pytest.param(
        ["attack", "ambiguity", "--s", "2,3", "--window", "0", "--count", "1"],
        "window must be >= 1, got 0",
        id="ambiguity-window-low",
    ),
    pytest.param(
        ["attack", "kpa", "--key", "{key}", "--pairs", "1", "--window", OVER_LENGTH],
        "window must be <= 1048576, got 1048577",
        id="kpa-window",
    ),
    pytest.param(
        ["attack", "kpa", "--key", "{key}", "--pairs", "1", "--window", "0"],
        "window must be >= 1, got 0",
        id="kpa-window-low",
    ),
    pytest.param(
        ["attack", "kpa", "--key", "{key}", "--pairs", OVER_DRAWN, "--window", "1"],
        "65537 pairs on W_1 cost more than 4194304 plaintext values (a pair counts as at least 64)",
        id="kpa-drawn",
    ),
    pytest.param(
        ["attack", "kpa", "--key", "{key}", "--pairs", "0", "--window", "8"],
        "need at least one pair, got 0",
        id="kpa-drawn-low",
    ),
    pytest.param(
        ["attack", "kpa", "--key", "{key21}", "--pairs", "1", "--window", "8"],
        "key set has 21 indices, above the limit 20",
        id="kpa-key-indices",
    ),
    *(
        pytest.param(["verify", suite, option, value], text, id=f"verify-{suite}-{option[2:]}-{value}")
        for suite, option, cap, low in [
            ("table", "--max-index", limits.MAX_TABLE_INDEX, 1),
            ("recurrence", "--max-index", limits.MAX_TABLE_INDEX, 1),
            ("involution", "--trials", limits.MAX_TRIALS, 0),
            ("prop-coeff", "--trials", limits.MAX_TRIALS, 0),
            ("rf1", "--max-irrep", limits.MAX_IRREP, 1),
            ("all", "--max-index", limits.MAX_TABLE_INDEX, 1),
            ("all", "--trials", limits.MAX_TRIALS, 0),
            ("all", "--max-irrep", limits.MAX_IRREP, 1),
        ]
        for value, text in [
            (str(cap + 1), f"{option[2:].replace('-', '_')} must be <= {cap}, got {cap + 1}"),
            (str(low - 1), f"{option[2:].replace('-', '_')} must be >= {low}, got {low - 1}"),
        ]
    ),
]


@pytest.fixture
def files(tmp_path):
    names = ("key", "key21", "key31", "msg", "long", "long_ct", "long_body", "out")
    paths = {name: tmp_path / name for name in names}
    paths["key"].write_text("BRC-KEY v1\nS 2 3\n")
    paths["key21"].write_text("BRC-KEY v1\nS " + OVER_KEY.replace(",", " ") + "\n")
    paths["key31"].write_text("BRC-KEY v1\nS " + OVER_DIGITS.replace(",", " ") + "\n")
    paths["msg"].write_bytes(b"Hi")
    with open(paths["long"], "wb") as f:
        f.truncate(limits.MAX_LENGTH + 1)
    paths["long_ct"].write_text(f"BRC-CT v1\nL {OVER_LENGTH}\nD1 1\n")
    # 17 body bytes; max_text_ciphertext_body(2) is 16.
    paths["long_body"].write_text("BRC-CT v1\nL 2\nD1 -2540\nD2 -254\n")
    return {name: str(path) for name, path in paths.items()}


@pytest.mark.parametrize("argv, error", REFUSALS)
def test_each_cap_is_refused_before_any_work(monkeypatch, capsys, files, argv, error):
    def refuse(*args, **kwargs):
        raise AssertionError("work started above a cap")

    # Every function that does a command's work, so no refusal can come late.
    for module, name in [
        (cli, "key_element"),
        (cli, "write_key_file"),
        (cli, "encrypt"),
        (cli, "decrypt"),
        (cli, "write_ciphertext_file"),
        (burnside, "_signed_subset_count"),
        (attacks, "_key_fold"),
        (attacks, "KeySet"),
        (attacks, "_is_prime"),
        (attacks, "key_marks"),
        (attacks, "_draw_plaintext_values"),
        (verify, "_run"),
    ]:
        monkeypatch.setattr(module, name, refuse)
    code = main([arg.format(**files) for arg in argv])
    captured = capsys.readouterr()
    assert (code, captured.out, captured.err) == (1, "", f"error: {error}\n")


@pytest.mark.parametrize(
    "length, bound", [(1, 8), (2, 16), (10_000, 170_000), (limits.MAX_LENGTH, 22_020_096)]
)
def test_text_ciphertext_body_bound(length, bound):
    # L lines `D<n> -<c>`, n <= L and |c| < 127 * L * (L.bit_length() + 1).
    assert limits.max_text_ciphertext_body(length) == bound


def test_drawn_values_cap_is_inclusive():
    # n_pairs * max(window, MIN_PAIR_COST) == MAX_DRAWN_VALUES is admitted.
    limits.check_drawn_values(limits.MAX_DRAWN_VALUES // limits.MIN_PAIR_COST, 1)
    limits.check_drawn_values(4, limits.MAX_LENGTH)
    assert 4 * limits.MAX_LENGTH == limits.MAX_DRAWN_VALUES


def test_only_limits_defines_a_cap():
    # attacks.MAX_PRINTED_WINDOW refuses nothing: it only decides what a report prints.
    defined = {
        (path.stem, node.id)
        for path in SRC.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store) and node.id.startswith(("MAX_", "MIN_"))
    }
    assert {(module, name) for module, name in defined if module != "limits"} == {("attacks", "MAX_PRINTED_WINDOW")}
    assert {name for module, name in defined if module == "limits"} >= {
        "MAX_LENGTH",
        "MAX_KEY_SIZE",
        "MAX_INDEX_DIGITS",
        "MAX_MOBIUS_QUOTIENT",
        "MAX_TWINS",
        "MAX_SWEEP_GAMES",
        "MAX_DRAWN_VALUES",
        "MIN_PAIR_COST",
        "MAX_TABLE_INDEX",
        "MAX_TRIALS",
        "MAX_IRREP",
    }
