"""Markdown report rendering.

The report is a pure function of scored results: no timestamps, no
environment probes, so identical inputs give byte-identical output.
"""

from __future__ import annotations

from typing import Iterable, Sequence

from .checkers import CALENDAR_FAILURE_CLASSES
from .harness import CalendarRow, ScoreResult, _fmt_opt, _pts
from .metrics import BOOTSTRAP_VERSION, DEFAULT_BASELINE_MODE, ModeAggregate, PairedComparison
from .taskgen import CALENDAR_SEMANTIC_FIELDS

_MISSING = "—"  # a value that is absent, such as the trace accuracy of a mode without one


def _latency(agg: ModeAggregate) -> str:
    note = f" {agg.latency_note}" if agg.latency_note else ""
    return f"{agg.mean_latency_ms / 1000.0:.2f}s{note}"


def _reading(cmp: PairedComparison) -> str:
    if cmp.tax:
        return "accuracy lost to the constraint"
    return "accuracy gain under constraint" if cmp.signed_delta else "no measured tax"


def _table(header: Sequence[str], align: str, rows: Iterable[Sequence[object]]) -> str:
    """A Markdown table; align holds one "l" (left) or "r" (right) per column."""
    lines = ["| " + " | ".join(header) + " |",
             "|" + "".join("---:|" if a == "r" else "---|" for a in align)]
    lines += ["| " + " | ".join(map(str, row)) + " |" for row in rows]
    return "\n".join(lines)


def dashboard_table(aggregates: Sequence[ModeAggregate]) -> str:
    return _table(
        ["backend", "model", "task", "mode", "n", "validity %", "answer %", "exec %",
         "wrong-valid %", "trace %", "latency", "tokens", "overhead"], "llll" + "r" * 9,
        ([agg.backend_label, agg.model_id, agg.task, agg.mode, agg.n,
          *(_pts(rate, missing=_MISSING) for rate in (
              agg.schema_validity, agg.answer_accuracy, agg.exec_accuracy,
              agg.wrong_valid_rate, agg.trace_accuracy)), _latency(agg),
          _fmt_opt(agg.mean_completion_tokens, ".1f", _MISSING),
          _fmt_opt(agg.mean_structural_overhead, ".3f", _MISSING)]
         for agg in aggregates))


def tax_table(comparisons: Sequence[PairedComparison]) -> str:
    levels = "/".join(sorted({f"{cmp.acc_ci.level * 100:g}%" for cmp in comparisons}))
    return _table(
        ["backend", "model", "task", "metric", "mode", "baseline %", "constrained %",
         "signed Δ", "tax", f"Δ {levels} CI", "validity Δ", "wrong-valid Δ", "reading"],
        "lllllrrrrlrrl",
        ([cmp.backend_label, cmp.model_id, cmp.task, cmp.acc_metric, cmp.mode,
          _pts(cmp.acc_baseline, missing=_MISSING), _pts(cmp.acc_constrained, missing=_MISSING),
          _pts(cmp.signed_delta, "+.1f"), _pts(cmp.tax, missing=_MISSING),
          f"[{_pts(cmp.acc_ci.low, '+.1f')}, {_pts(cmp.acc_ci.high, '+.1f')}]",
          _pts(cmp.validity_delta, "+.1f"), _pts(cmp.wrong_valid_delta, "+.1f"), _reading(cmp)]
         for cmp in comparisons))


def calendar_table(rows: Sequence[CalendarRow]) -> str:
    return _table(["backend", "model", "mode", "n", *CALENDAR_FAILURE_CLASSES],
                  "lll" + "r" * (1 + len(CALENDAR_FAILURE_CLASSES)),
                  ([row.backend_label, row.model_id, row.mode, row.n,
                    *(n for _, n in row.class_counts)] for row in rows))


def calendar_field_table(rows: Sequence[CalendarRow]) -> str:
    return _table(["backend", "model", "mode", *CALENDAR_SEMANTIC_FIELDS],
                  "lll" + "r" * len(CALENDAR_SEMANTIC_FIELDS),
                  ([row.backend_label, row.model_id, row.mode,
                    *(n for _, n in row.field_counts)] for row in rows))


def render_report(result: ScoreResult, baseline_mode: str = DEFAULT_BASELINE_MODE) -> str:
    failed = sum(a.n_failed for a in result.aggregates if a.task != "all")
    parts = [
        "# Constraint-tax report",
        "",
        "Semantic accuracy, format validity, and their paired deltas across "
        "output-format modes. Percentages are points in [0, 100]; the tax is "
        "the paired accuracy drop of a constrained mode against the "
        f"`{baseline_mode}` baseline, clipped at zero (a positive signed delta "
        "is a gain, reported as such).",
        "",
        "## Mode dashboard",
        "",
        dashboard_table(result.aggregates),
        "",
        f"## Constraint tax vs `{baseline_mode}`",
        "",
    ]
    if result.comparisons:
        parts.append(tax_table(result.comparisons))
    else:
        parts.append("_No comparisons: baseline mode absent from the records._")
    if result.calendar:
        parts += [
            "",
            "## Calendar-argument failure classes",
            "",
            "Primary class per record (multi_field when two or more semantic "
            "fields are wrong):",
            "",
            calendar_table(result.calendar),
            "",
            "Per-field wrong counts (a record can contribute to several fields):",
            "",
            calendar_field_table(result.calendar),
        ]
    notes = [
        "",
        "## Notes",
        "",
        "- Latency is comparable only within a backend; never compare latency "
        "across backends or serving stacks. Rows marked `+ pkg.` carry a "
        "separate deterministic packaging step whose cost is tracked apart "
        "from generation latency.",
        "- `wrong-valid %` counts outputs that satisfied the format but failed "
        "execution: the failure mode format checks cannot see.",
        f"- Δ CIs are exact paired percentile-bootstrap intervals (`{BOOTSTRAP_VERSION}`): "
        "the limit of infinitely many resamples, computed from the paired counts "
        "with no resampling, so no seed or resample count enters.",
    ]
    if failed:
        notes.append(f"- {failed} generation(s) failed and are excluded from "
                     "every denominator above.")
    parts += notes
    return "\n".join(parts) + "\n"
