"""In-memory span tracing for the traced benchmark run.

The benchmark wraps ctax's public functions from its own code, at the
module attribute through which the caller looks them up (``harness`` calls
``build_prompt`` through ``ctax.harness.build_prompt``, so that is the
attribute replaced). Untraced runs never import this module.

A span is (id, parent id, name, start, end) and belongs to one run id.
Spans stay in memory and are written out once, when the run ends. A span's
self time is its duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import threading
import time
from pathlib import Path
from typing import Callable, NamedTuple

# (span name, module whose attribute is replaced, attribute). One span name
# may be installed at several call sites.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("harness.run", "ctax.cli", "run"),
    ("harness.score", "ctax.cli", "score"),
    ("harness.score_to_files", "ctax.cli", "score_to_files"),
    ("report.render_report", "ctax.cli", "render_report"),
    ("taskgen.generate_suite", "ctax.harness", "generate_suite"),
    ("modes.build_prompt", "ctax.harness", "build_prompt"),
    ("modes.parse_for_mode", "ctax.harness", "parse_for_mode"),
    ("modes.build_delayed_stage2", "ctax.harness", "build_delayed_stage2"),
    ("validation.extract_json", "ctax.harness", "extract_json"),
    ("validation.extract_json", "ctax.modes", "extract_json"),
    ("validation.extract_json", "ctax.checkers", "extract_json"),
    ("validation.validate_schema", "ctax.modes", "validate_schema"),
    ("checkers.score_completion", "ctax.harness", "score_completion"),
    ("records.append_record", "ctax.harness", "append_record"),
    ("records.read_records", "ctax.harness", "read_records"),
    ("backend.generate_all", "ctax.harness", "generate_all"),
    ("metrics.aggregate", "ctax.harness", "aggregate"),
    ("metrics.paired_comparison", "ctax.harness", "paired_comparison"),
)

# Spans whose result length is also counted (records.read_records -> records read).
COUNT_RESULTS = frozenset({"records.read_records"})


class Span(NamedTuple):
    id: int
    parent: int  # 0 for a root span
    name: str
    start: float
    end: float


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[Span] = []
        self.items: dict[str, int] = {}
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, fn: Callable) -> Callable:
        count_result = name in COUNT_RESULTS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = next(self._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self.spans.append(Span(span_id, parent, name, start, end))
            if count_result:
                with self._lock:
                    self.items[name] = self.items.get(name, 0) + len(result)
            return result

        return traced

    def install(self, targets=TARGETS) -> None:
        """Replace each target attribute with a traced wrapper. A target the
        program no longer has is listed in ``missing``, not an error, so a
        refactor shows as an idle layer."""
        for name, module_name, attr in targets:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(name, fn))

    def write(self, path: str | Path) -> None:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps({"run_id": self.run_id, **span._asdict()}) + "\n")

    def summary(self) -> dict[str, dict[str, float]]:
        return layer_summary(self.spans)


def covered(intervals: list[tuple[float, float]], start: float, end: float) -> float:
    """Length of [start, end] covered by the union of the intervals."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover. Children
    may overlap (threads), so their union is subtracted, not their sum."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span.parent, []).append((span.start, span.end))
    return {span.id: (span.end - span.start)
            - covered(children.get(span.id, []), span.start, span.end)
            for span in spans}


def layer_summary(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: calls, total (inclusive) seconds and self seconds."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = {}
    for span in spans:
        row = out.setdefault(span.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["total_s"] += span.end - span.start
        row["self_s"] += own[span.id]
    return out
