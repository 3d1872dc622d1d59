"""Markdown report rendering.

The report is a pure function of scored results: no timestamps, no
environment probes, so identical inputs give byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .checkers import CALENDAR_FAILURE_CLASSES
from .harness import CalendarRow, ScoreResult
from .metrics import (BOOTSTRAP_VERSION, DEFAULT_BASELINE_MODE, ModeAggregate,
                      PairedComparison, pts)
from .taskgen import CALENDAR_SEMANTIC_FIELDS


def _pct(rate: Fraction | None) -> str:
    return "—" if rate is None else f"{pts(rate):.1f}"


def _signed(rate: Fraction) -> str:
    return f"{pts(rate):+.1f}"


def _latency(agg: ModeAggregate) -> str:
    note = f" {agg.latency_note}" if agg.latency_note else ""
    return f"{agg.mean_latency_ms / 1000.0:.2f}s{note}"


def _reading(cmp: PairedComparison) -> str:
    if cmp.signed_delta < 0:
        return "accuracy gain under constraint"
    if cmp.tax == 0:
        return "no measured tax"
    return "accuracy lost to the constraint"


def dashboard_table(aggregates: Sequence[ModeAggregate]) -> str:
    lines = [
        "| backend | model | task | mode | n | validity % | answer % | exec % "
        "| wrong-valid % | trace % | latency | tokens | overhead |",
        "|---|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---:|",
    ]
    for agg in aggregates:
        tokens = ("—" if agg.mean_completion_tokens is None
                  else f"{agg.mean_completion_tokens:.1f}")
        overhead = ("—" if agg.mean_structural_overhead is None
                    else f"{agg.mean_structural_overhead:.3f}")
        lines.append(
            f"| {agg.backend_label} | {agg.model_id} | {agg.task} | {agg.mode} "
            f"| {agg.n} | {_pct(agg.schema_validity)} | {_pct(agg.answer_accuracy)} "
            f"| {_pct(agg.exec_accuracy)} | {_pct(agg.wrong_valid_rate)} "
            f"| {_pct(agg.trace_accuracy)} | {_latency(agg)} | {tokens} | {overhead} |")
    return "\n".join(lines)


def tax_table(comparisons: Sequence[PairedComparison]) -> str:
    levels = "/".join(sorted({f"{cmp.acc_ci.level * 100:g}%" for cmp in comparisons}))
    lines = [
        "| backend | model | task | metric | mode | baseline % | constrained % "
        f"| signed Δ | tax | Δ {levels} CI | validity Δ | wrong-valid Δ | reading |",
        "|---|---|---|---|---|---:|---:|---:|---:|---|---:|---:|---|",
    ]
    for cmp in comparisons:
        ci = f"[{pts(cmp.acc_ci.low):+.1f}, {pts(cmp.acc_ci.high):+.1f}]"
        lines.append(
            f"| {cmp.backend_label} | {cmp.model_id} | {cmp.task} | {cmp.acc_metric} "
            f"| {cmp.mode} | {_pct(cmp.acc_baseline)} | {_pct(cmp.acc_constrained)} "
            f"| {_signed(cmp.signed_delta)} | {pts(cmp.tax):.1f} | {ci} "
            f"| {_signed(cmp.validity_delta)} | {_signed(cmp.wrong_valid_delta)} "
            f"| {_reading(cmp)} |")
    return "\n".join(lines)


def calendar_table(rows: Sequence[CalendarRow]) -> str:
    header_classes = " | ".join(CALENDAR_FAILURE_CLASSES)
    lines = [
        f"| backend | model | mode | n | {header_classes} |",
        "|---|---|---|---:|" + "---:|" * len(CALENDAR_FAILURE_CLASSES),
    ]
    for row in rows:
        counts = dict(row.class_counts)
        cells = " | ".join(str(counts.get(c, 0)) for c in CALENDAR_FAILURE_CLASSES)
        lines.append(f"| {row.backend_label} | {row.model_id} | {row.mode} "
                     f"| {row.n} | {cells} |")
    return "\n".join(lines)


def calendar_field_table(rows: Sequence[CalendarRow]) -> str:
    header_fields = " | ".join(CALENDAR_SEMANTIC_FIELDS)
    lines = [
        f"| backend | model | mode | {header_fields} |",
        "|---|---|---|" + "---:|" * len(CALENDAR_SEMANTIC_FIELDS),
    ]
    for row in rows:
        counts = dict(row.field_counts)
        cells = " | ".join(str(counts.get(f, 0)) for f in CALENDAR_SEMANTIC_FIELDS)
        lines.append(f"| {row.backend_label} | {row.model_id} | {row.mode} | {cells} |")
    return "\n".join(lines)


def render_report(result: ScoreResult, baseline_mode: str = DEFAULT_BASELINE_MODE) -> str:
    failed = sum(a.n_failed for a in result.aggregates if a.task != "all")
    parts = [
        "# Constraint-tax report",
        "",
        "Semantic accuracy, format validity, and their paired deltas across "
        "output-format modes. Percentages are points in [0, 100]; the tax is "
        "the paired accuracy drop of a constrained mode against the "
        f"`{baseline_mode}` baseline, clipped at zero (a negative signed delta "
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
