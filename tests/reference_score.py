"""Reference scoring walk: each kept record on two lists, one Cell.of per cell.

harness.score groups each record once, into its (backend, model, family,
mode) cell, and joins every "all" cell from its family cells' columns. This
reference keeps the walk it replaced: every kept record goes on its family's
list and on "all"'s, and Cell.of reads each list anew. It returns its
warnings as harness.score does rather than printing them, so the two can be
compared output for output.
"""

from __future__ import annotations

from ctax.checkers import CALENDAR_FAILURE_CLASSES, GENERATION_FAILED
from ctax.errors import PairingError
from ctax.harness import CalendarRow, ScoreResult
from ctax.metrics import (ACC_METRICS, DEFAULT_BASELINE_MODE, BootstrapConfig, Cell, aggregate,
                          paired_comparison)
from ctax.modes import DELAYED_MODE, MODE_NAMES
from ctax.taskgen import CALENDAR_SEMANTIC_FIELDS, FAMILIES


def reference_score(records, bootstrap: BootstrapConfig | None = None,
                    baseline_mode: str = DEFAULT_BASELINE_MODE) -> ScoreResult:
    groups: dict = {}
    digests = set()
    for r in records:
        if (r.mode == DELAYED_MODE and r.stage == "stage1" and r.error_class != GENERATION_FAILED
                and r.packaged_text is None and not r.packaging_failed):
            continue  # model-variant provenance row, scored as freeform
        digests.add(r.config_digest)
        tasks = groups.setdefault((r.backend_label, r.model_id), {})
        for task in (r.family, "all"):
            tasks.setdefault(task, {}).setdefault(r.mode, []).append(r)
    if not groups:
        raise ValueError("no records to score" + (
            "; each is a model-variant delayed stage 1, which scores through its stage 2"
            if records else ""))
    warnings = []
    digests -= {None, ""}
    if len(digests) > 1:
        warnings.append(f"records mix {len(digests)} config digests; "
                        "cross-run comparability is not guaranteed")

    bootstrap = bootstrap or BootstrapConfig()
    mode_rank = {name: i for i, name in enumerate(MODE_NAMES)}
    task_rank = {family: i for i, family in enumerate(FAMILIES)}
    result = ScoreResult(aggregates=[], comparisons=[], calendar=[])
    for (backend_label, model_id), tasks in sorted(groups.items()):
        for task in sorted(tasks, key=lambda t: (task_rank.get(t, 99), t)):
            where = f"{backend_label}/{model_id}/{task}"
            kept = {}
            for mode in sorted(tasks[task], key=lambda m: mode_rank.get(m, 99)):
                cell_records = tasks[task][mode]
                if task == "all" and len({r.family for r in cell_records}) == 1:
                    continue  # the rollup would repeat its one family's row
                cell = Cell.of(cell_records)
                if not cell.ids:
                    warnings.append(f"{where}/{mode} has no scored records; row omitted")
                    continue
                rules = sorted({r.extraction_rule for r in cell_records})
                if len(rules) > 1:
                    warnings.append(f"{where}/{mode} mixes extraction rules {', '.join(rules)}")
                kept[mode] = cell
                result.aggregates.append(aggregate(cell, task=task))
                if task != "tool_call_argument":
                    continue
                classified = [r for r in cell_records if r.calendar_failure_class is not None]
                if classified:
                    result.calendar.append(CalendarRow(
                        backend_label, model_id, mode, len(classified),
                        tuple((name, sum(r.calendar_failure_class == name for r in classified))
                              for name in CALENDAR_FAILURE_CLASSES),
                        tuple((name, sum(name in r.calendar_wrong_fields for r in classified))
                              for name in CALENDAR_SEMANTIC_FIELDS)))
            if kept and baseline_mode not in kept:
                warnings.append(f"baseline mode {baseline_mode!r} absent for {where}; "
                                "comparisons skipped")
                continue
            for mode, cell in kept.items():
                if mode == baseline_mode:
                    continue
                try:
                    result.comparisons.extend([paired_comparison(
                        kept[baseline_mode], cell, acc_metric=metric, cfg=bootstrap)
                        for metric in ACC_METRICS])
                except PairingError as exc:
                    warnings.append(f"comparisons skipped for {where}/{mode}: {exc}")
    return ScoreResult(result.aggregates, result.comparisons, result.calendar, tuple(warnings))
