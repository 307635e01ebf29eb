"""Reference loop that turns wall-clock times into calibrated times.

Wall-clock time on a small shared VM drifts with the host's load and
clock speed, by more than the changes the benchmark has to judge: the
same code runs up to 1.8 times slower from one second to the next.  The
benchmark therefore runs a fixed loop of its own right before and right
after each stretch of timed work, in the same process, and scales the
stretch by

    NOMINAL_REF_S / (median duration of the loop beside it)

so a time reads as if measured on a machine where the loop takes exactly
NOMINAL_REF_S.  The loop does a little of each kind of work the program
does: gcd and small-int dict updates (the ring product), exact fractions
(the known-plaintext solver) and formatting and parsing of term lines
(the file formats).
"""

from __future__ import annotations

import statistics
from fractions import Fraction
from math import gcd
from time import perf_counter

# Median duration of reference_loop() on the machine the figures in
# README.md were taken on (2-vCPU VM, Python 3.11.7, slower of its two
# speed states).  A constant, so calibrated times compare across runs
# and commits.
NOMINAL_REF_S = 1.5e-3

# Loop samples taken before and after each stretch of timed work.
BLOCK = 4


def reference_loop() -> int:
    acc: dict[int, int] = {}
    for a in range(1, 61):
        for b in range(1, 41):
            g = gcd(a, b)
            acc[g] = acc.get(g, 0) + a * b
    x = Fraction(0)
    for a in range(1, 76):
        x += Fraction(a, a + 7) * Fraction(3, a + 1)
    text = "\n".join(f"D{i} {i * 7 - 3000}" for i in range(1, 751))
    total = 0
    for line in text.split("\n"):
        total += int(line.split()[1])
    return len(acc) + x.denominator % 7 + total


def block() -> list[float]:
    """BLOCK timed runs of the reference loop."""
    samples = []
    for _ in range(BLOCK):
        t0 = perf_counter()
        reference_loop()
        samples.append(perf_counter() - t0)
    return samples


def factor(samples: list[float]) -> float:
    """NOMINAL_REF_S over the median of the samples taken beside a stretch."""
    return NOMINAL_REF_S / statistics.median(samples)
