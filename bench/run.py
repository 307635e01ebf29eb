"""Benchmark of the brc package: four workloads, calibrated times.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its
`src/` directory.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.  A
one-line summary with the raw (uncalibrated) figures goes to standard
error.  See README.md for the workloads, metrics and calibration.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import calibrate
from tracing import Tracer, metric_names
from workloads import FAILED, OK, WORKLOADS, WRONG

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Set-up is repeated this many times in a run; setup_s is the median.
SETUP_REPEATS = 5
# Timed work between two blocks of the reference loop: one operation,
# or as many short ones as add up to this.
STRETCH_S = 0.025
PACKAGE_MODULES = ("brc", "brc.burnside", "brc.cipher", "brc.attacks", "brc.degree", "brc.verify", "brc.cli")


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def pin_environment() -> None:
    """Fix the string-hash seed and the CPU, both sources of run-to-run noise.

    PYTHONHASHSEED is read at interpreter start, so the process re-executes
    itself once (same process id, no child) when it is not already 0.
    The process is then pinned to the highest-numbered CPU it may use.
    """
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.environ["PYTHONHASHSEED"] = "0"
        os.execv(sys.executable, [sys.executable, *sys.argv])
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass  # no affinity control here; run unpinned


def import_package() -> SimpleNamespace:
    """Import brc afresh, as a new process would."""
    for name in [n for n in sys.modules if n == "brc" or n.startswith("brc.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    modules = [importlib.import_module(name) for name in PACKAGE_MODULES]
    return SimpleNamespace(**{name.rpartition(".")[2]: module for name, module in zip(PACKAGE_MODULES, modules)}, all=modules)


def setup(workload) -> tuple[float, float, SimpleNamespace, bool]:
    """Import and prepare once; returns (calibrated s, raw s, modules, warm-up ok)."""
    gc.collect()
    before = calibrate.block()
    t0 = perf_counter()
    m = import_package()
    warmup = workload.prepare(m)
    result, error = run_op(warmup)
    raw = perf_counter() - t0
    factor = calibrate.factor(before + calibrate.block())
    return raw * factor, raw, m, verdict(warmup, result, error) == OK


def run_op(op):
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return op.run(), None
        except Exception as exc:  # the check decides whether this is expected
            return None, exc


def verdict(op, result, error) -> str:
    try:
        return op.check(result, error)
    except Exception:
        return WRONG


def measure(workload, seconds: float, tracer: Tracer | None) -> dict:
    setups = [setup(workload) for _ in range(SETUP_REPEATS)]
    m = setups[-1][2]
    source = Path(m.brc.__file__).resolve()
    if SRC.resolve() not in source.parents:
        raise RuntimeError(f"imported brc from {source}, not from {SRC}")
    correct = all(ok for *_, ok in setups)
    if tracer is not None:
        tracer.install(m.all)

    ops = workload.round()
    timed = [op for op in ops if op.timed]
    latencies: list[float] = []
    raw_latencies: list[float] = []
    round_times: list[float] = []
    raw_round_times: list[float] = []
    references: list[float] = []
    attempted = failed = 0
    deadline = perf_counter() + seconds
    while True:
        gc.collect()
        if tracer is not None:
            tracer.record_spans = not round_times
        raw_round = calibrated_round = 0.0
        pending = list(ops)
        while pending:
            # One stretch: at least STRETCH_S of work between two reference blocks.
            before = calibrate.block()
            stretch = []
            if tracer is not None:
                tracer.active = True
            while pending and sum(dt for *_, dt in stretch) < STRETCH_S:
                op = pending.pop(0)
                t0 = perf_counter()
                result, error = run_op(op)
                stretch.append((op, result, error, perf_counter() - t0))
            if tracer is not None:
                tracer.active = False
            beside = before + calibrate.block()
            factor = calibrate.factor(beside)
            references.append(statistics.median(beside))
            if tracer is not None:
                tracer.flush(factor)
            for op, result, error, dt in stretch:
                outcome = verdict(op, result, error)
                attempted += 1
                failed += outcome == FAILED
                correct = correct and outcome != WRONG
                if op.timed:
                    raw_latencies.append(dt)
                    latencies.append(dt * factor)
                    raw_round += dt
                    calibrated_round += dt * factor
        raw_round_times.append(raw_round)
        round_times.append(calibrated_round)
        if perf_counter() >= deadline:
            break

    return {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "rounds": len(round_times),
        "calibrated": {
            "ops_per_s": len(timed) / statistics.median(round_times),
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "setup_s": statistics.median(s[0] for s in setups),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        },
        "raw": {
            "ops_per_s": len(timed) / statistics.median(raw_round_times),
            "latency_p50_ms": statistics.median(raw_latencies) * 1e3,
            "setup_s": statistics.median(s[1] for s in setups),
            "reference_ms": statistics.median(references) * 1e3,
        },
    }


END_TO_END_UNITS = {"ops_per_s": "1/s", "latency_p50_ms": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not (SRC / "brc" / "__init__.py").is_file():
        print(f"error: no brc package under {SRC}", file=sys.stderr)
        return 2
    pin_environment()
    sys.path.insert(0, str(SRC))

    workdir = OUT / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        report = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    summary = " ".join(
        f"{kind}.{name}={value:.6g}" for kind in ("calibrated", "raw") for name, value in report[kind].items()
    )
    print(f"{args.workload} seed={args.seed} rounds={report['rounds']} {summary}", file=sys.stderr)
    if tracer is None:
        metrics = {name: {"value": report["calibrated"][name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}
    else:
        spans = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.write_spans(spans, {"workload": args.workload, "seed": args.seed, "round": 0})
        values = tracer.per_round(report["rounds"])
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in metric_names()}
        print(f"per-layer figures per round, {args.workload}, seed {args.seed}, {report['rounds']} rounds")
        print(f"traced end-to-end: {summary}")
        for name, unit in metric_names():
            print(f"  {name:<40} {values[name]:>14.3f} {unit}")
        print(f"spans of the first round: {spans.relative_to(ROOT)}")
    print(
        json.dumps(
            {"correct": report["correct"], "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
