"""Traced mode: wrappers around the program's layer functions.

The wrappers live here, in the benchmark, and are installed after
set-up into every namespace of the brc package that binds a traced
function (module globals and module-level dicts such as
verify.SUITES), plus the methods BurnsideElement.__mul__, parse and
render and CpaExperiment.query_probe.  Each call records a span (name,
start, end, parent); self time is a span minus the time its child
calls cover, including the children's own bookkeeping, so the tracing
cost does not land in a parent's self time.  Per-layer figures are sums
over the measured rounds divided by the number of rounds.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from types import ModuleType
from typing import Any, Callable

# A counter adds one call's work to the layer's counts: (work, args, kwargs, result).
Counter = Callable[[dict, tuple, dict, Any], None]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


def _term_pairs(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    a, b = args
    if hasattr(b, "support"):
        work["term_pairs"] += len(a.support()) * len(b.support())


def _subsets(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    n = len(_arg(args, kwargs, 0, "s"))
    work["subsets"] += 2**n - n - 1


def _parsed_bytes(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    work["bytes"] += len(_arg(args, kwargs, 1, "text").encode())


def _rendered_bytes(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    work["bytes"] += len(result.encode())


def _written_bytes(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    work["bytes"] += os.path.getsize(_arg(args, kwargs, 0, "path"))


def _cells(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    work["cells"] += len(_arg(args, kwargs, 0, "pairs")) * 2 * _arg(args, kwargs, 1, "window")


def _cases(work: dict, args: tuple, kwargs: dict, result: Any) -> None:
    work["cases"] += result.cases


@dataclass(frozen=True)
class Layer:
    """A traced function: metric prefix, home module, attribute path, stats."""

    name: str
    module: str
    attr: str
    stats: tuple[str, ...]
    counter: Counter | None = None


LAYERS = (
    Layer("burnside.mul", "brc.burnside", "BurnsideElement.__mul__", ("calls", "self_ms", "term_pairs"), _term_pairs),
    Layer("burnside.key_element", "brc.burnside", "key_element", ("calls", "self_ms")),
    Layer("burnside.key_coeff_fold", "brc.burnside", "key_coeff_fold", ("calls", "self_ms")),
    Layer("burnside.key_coeff", "brc.burnside", "key_coeff", ("calls", "self_ms", "subsets"), _subsets),
    Layer("burnside.key_coeff_bruteforce", "brc.burnside", "key_coeff_bruteforce", ("self_ms",)),
    Layer("burnside.parse", "brc.burnside", "BurnsideElement.parse", ("self_ms", "bytes"), _parsed_bytes),
    Layer("burnside.render", "brc.burnside", "BurnsideElement.render", ("self_ms", "bytes"), _rendered_bytes),
    Layer("cipher.read_key_file", "brc.cipher", "read_key_file", ("self_ms",)),
    Layer("cipher.read_ciphertext_file", "brc.cipher", "read_ciphertext_file", ("self_ms",)),
    Layer("cipher.write_ciphertext_file", "brc.cipher", "write_ciphertext_file", ("self_ms", "bytes"), _written_bytes),
    Layer("cipher.ring_encode", "brc.cipher", "ring_encode", ("self_ms",)),
    Layer("cipher.ring_decode", "brc.cipher", "ring_decode", ("self_ms",)),
    Layer("cipher.encrypt", "brc.cipher", "encrypt", ("self_ms",)),
    Layer("cipher.decrypt", "brc.cipher", "decrypt", ("self_ms",)),
    Layer("cli.main", "brc.cli", "main", ("self_ms",)),
    Layer("attacks.known_plaintext_solver", "brc.attacks", "known_plaintext_solver", ("calls", "self_ms", "cells"), _cells),
    Layer("attacks.operator_matrix", "brc.attacks", "operator_matrix", ("calls", "self_ms")),
    Layer("attacks.cpa_distinguish", "brc.attacks", "cpa_distinguish", ("self_ms",)),
    Layer("attacks.query_probe", "brc.attacks", "CpaExperiment.query_probe", ("self_ms",)),
    Layer("degree.o2_lattice", "brc.degree", "o2_lattice", ("self_ms",)),
    Layer("degree.fixed_point_dims", "brc.degree", "fixed_point_dims", ("self_ms",)),
    Layer("degree.recurrence_mul", "brc.degree", "recurrence_mul", ("calls", "self_ms")),
    Layer("degree.basic_degree_recurrence", "brc.degree", "basic_degree_recurrence", ("self_ms",)),
    Layer("verify.table", "brc.verify", "verify_table", ("self_ms", "cases"), _cases),
    Layer("verify.recurrence", "brc.verify", "verify_recurrence", ("self_ms", "cases"), _cases),
    Layer("verify.involution", "brc.verify", "verify_involution", ("self_ms", "cases"), _cases),
    Layer("verify.prop-coeff", "brc.verify", "verify_prop_coeff", ("self_ms", "cases"), _cases),
    Layer("verify.rf1", "brc.verify", "verify_basic_degree", ("self_ms", "cases"), _cases),
)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in table order."""
    units = {"self_ms": "ms", "bytes": "bytes"}
    return [(f"{layer.name}.{stat}", units.get(stat, "count")) for layer in LAYERS for stat in layer.stats]


class _Stats:
    """One layer's raw figures since the last flush."""

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        self.work = {"term_pairs": 0, "subsets": 0, "bytes": 0, "cells": 0, "cases": 0}


class Tracer:
    """Records spans and per-layer figures while `active` is set.

    The runner sets `active` only around the timed operations, so checks
    and set-up are not traced, and `record_spans` only in the first round.
    """

    def __init__(self) -> None:
        self.active = False
        self.record_spans = False
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.origin = perf_counter()
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._pending = {layer.name: _Stats() for layer in LAYERS}
        self.totals = {name: 0.0 for name, _ in metric_names()}

    def install(self, modules: list[ModuleType]) -> None:
        by_name = {module.__name__: module for module in modules}
        for layer in LAYERS:
            owner: Any = by_name[layer.module]
            *path, attr = layer.attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = inspect.getattr_static(owner, attr)
            if isinstance(original, classmethod):
                setattr(owner, attr, classmethod(self._wrap(layer, original.__func__)))
                continue
            wrapped = self._wrap(layer, original)
            if path:
                setattr(owner, attr, wrapped)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
                    elif isinstance(value, dict):
                        for k, v in value.items():
                            if v is original:
                                value[k] = wrapped

    def _wrap(self, layer: Layer, fn: Callable) -> Callable:
        stack = self._stack
        spans = self.spans
        counter = layer.counter
        name = layer.name

        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            t0 = perf_counter()
            span_id = -1
            if self.record_spans:
                span_id = len(spans)
                spans.append(None)
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            ok = False
            t1 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
            finally:
                t2 = perf_counter()
                stack.pop()
                stats = self._pending[name]
                stats.calls += 1
                stats.self_s += (t2 - t1) - frame[1]
                if span_id >= 0:
                    spans[span_id] = (name, t1 - self.origin, t2 - self.origin, parent)
                if ok and counter is not None:
                    counter(stats.work, args, kwargs, result)
                if stack:
                    stack[-1][1] += perf_counter() - t0
            return result

        return functools.update_wrapper(traced, fn)

    def flush(self, factor: float) -> None:
        """Add the figures of one stretch to the totals, self time calibrated."""
        for layer in LAYERS:
            stats = self._pending[layer.name]
            values = {"calls": stats.calls, "self_ms": stats.self_s * factor * 1e3, **stats.work}
            for stat in layer.stats:
                self.totals[f"{layer.name}.{stat}"] += values[stat]
            self._pending[layer.name] = _Stats()

    def per_round(self, rounds: int) -> dict[str, float]:
        return {name: value / rounds for name, value in self.totals.items()}

    def write_spans(self, path: Path, header: dict) -> None:
        spans = [
            {"name": name, "start_ms": start * 1e3, "end_ms": end * 1e3, "parent": parent}
            for name, start, end, parent in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "spans": spans}))
