"""Operation accounting and span tracing for the nsmml benchmark.

A :class:`Recorder` runs a workload's checked operations.  Every
operation counts as attempted; one that raises or fails a check counts as
failed, and the run goes on.  With tracing on, the recorder also keeps a
span for each operation (layer ``bench``) and for each library call the
benchmark makes inside it (layer = the ``nsmml`` module called).  Spans
stay in memory and are summarised when the run ends.
"""

from __future__ import annotations

import math
import sys
import traceback
from contextlib import contextmanager
from statistics import median
from time import perf_counter

BENCH = "bench"

# Span record fields.
LAYER, NAME, TAG, START, END, PARENT, OP = range(7)


class CheckFailed(Exception):
    """A benchmark correctness check did not hold."""


def check(cond, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


class Recorder:
    def __init__(self) -> None:
        self.tracing = False
        self.spans: list[list] = []
        self._open: list[int] = []
        self.op_id = 0
        self.calls: dict[str, int] = {}
        self.attempted = 0
        self.failed = 0

    def _push(self, layer: str, name: str, tag) -> None:
        parent = self._open[-1] if self._open else None
        self._open.append(len(self.spans))
        self.spans.append([layer, name, tag, perf_counter(), None, parent, self.op_id])

    def _pop(self) -> None:
        self.spans[self._open.pop()][END] = perf_counter()

    def call(self, layer: str, name: str, fn, *args, tag=None, **kwargs):
        """Call ``fn`` as the public function ``layer.name``; with tracing on,
        record its span (``tag`` splits one function into sub-metrics)."""
        self.calls[layer] = self.calls.get(layer, 0) + 1
        if not self.tracing:
            return fn(*args, **kwargs)
        self._push(layer, name, tag)
        try:
            return fn(*args, **kwargs)
        finally:
            self._pop()

    @contextmanager
    def op(self, name: str):
        """One checked operation: counted, isolated from the others, traced."""
        self.attempted += 1
        self.op_id += 1
        if self.tracing:
            self._push(BENCH, name, None)
        try:
            yield
        except Exception:  # a failed operation is counted; the run goes on
            self.failed += 1
            print(f"FAILED {name}:\n{traceback.format_exc()}", file=sys.stderr)
        finally:
            if self.tracing:
                self._pop()

    @contextmanager
    def run_pass(self, traced: bool):
        """One pass of the timed phase, traced as a root ``bench.pass`` span."""
        self.calls = {}
        self.tracing = traced
        if traced:
            self._push(BENCH, "pass", None)
        try:
            yield
        finally:
            if traced:
                self._pop()
            self.tracing = False


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] is not None:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def span_key(span: list) -> str:
    key = f"{span[LAYER]}.{span[NAME]}"
    return key if span[TAG] is None else f"{key}.{span[TAG]}"


def duration_stats(values: list[float]) -> dict:
    """Median and the highest of the 90th/99th/99.9th percentiles that has
    at least ten samples beyond it, with the sample count."""
    n = len(values)
    out = {"n": n, "median_s": median(values)}
    ordered = sorted(values)
    for pct in (99.9, 99.0, 90.0):
        rank = math.ceil(pct / 100.0 * n)  # nearest-rank percentile, 1-based
        if n - rank >= 10:
            out[f"p{pct:g}_s"] = ordered[rank - 1]
            break
    return out


def summarize(spans: list[list]) -> tuple[dict, dict, dict]:
    """Self time per layer, per function and per function tag, and the
    per-operation duration statistics of every function called."""
    selfs = self_times(spans)
    by_layer: dict[str, float] = {}
    by_name: dict[str, float] = {}
    durations: dict[str, list[float]] = {}
    for span, self_s in zip(spans, selfs):
        layer, name = span[LAYER], span[NAME]
        by_layer[layer] = by_layer.get(layer, 0.0) + self_s
        for key in {f"{layer}.{name}", span_key(span)}:
            by_name[key] = by_name.get(key, 0.0) + self_s
        if layer != BENCH:
            durations.setdefault(span_key(span), []).append(span[END] - span[START])
    ops = {key: duration_stats(vals) for key, vals in sorted(durations.items())}
    return by_layer, by_name, ops
