"""Run orchestration: config, generation loop, scoring, derivation.

A run is declarative: one JSON config names the suite, the modes, the
backends, and the bootstrap settings, and its canonical digest is stamped
into the manifest and every record. Records append to JSONL as they are
produced, so an interrupted run resumes by skipping keys already on disk.
"""

from __future__ import annotations

import json
import math
import time
from collections import abc
from dataclasses import dataclass, field as dc_field, fields, is_dataclass
from fractions import Fraction
from pathlib import Path
from types import UnionType
from typing import (Any, Iterable, Iterator, Mapping, Sequence, Union, get_args, get_origin,
                    get_type_hints)

from . import __version__
from .backend import (
    BackendConfig,
    GenerationResult,
    check_health,
    generate_all,
)
from .checkers import GENERATION_FAILED, score_completion
from .errors import ConfigError, PairingError
from .metrics import (
    ACC_METRICS,
    BOOTSTRAP_VERSION,
    DEFAULT_BASELINE_MODE,
    DEFAULT_EPSILON,
    BootstrapConfig,
    ModeAggregate,
    PairedComparison,
    aggregate,
    is_scored,
    paired_comparison,
    structural_overhead,
)
from .modes import (
    CONSTRAINT_NONE,
    DELAYED_VARIANTS,
    MODE_NAMES,
    TEMPLATE_VERSION,
    PromptBundle,
    build_delayed_stage2,
    build_prompt,
    get_mode,
    parse_for_mode,
    scoring_constraint,
    transported_constraint,
)
from .records import RunRecord, append_record, drop_torn_tail, read_records, timestamp
from .taskgen import FAMILIES, TaskInstance, generate_suite, write_suite
from .validation import PARSE_NO_JSON, canonical_digest, canonical_serialize, extract_json

DELAYED_MODE = "delayed_constraint"
DELAYED_SOURCE_MODES = frozenset({"prompt_json", "freeform", "freeform_direct",
                                  "freeform_brief_reasoning"})


@dataclass(frozen=True)
class SuiteConfig:
    families: tuple[str, ...] = FAMILIES
    count: int = 100
    seed: int = 0

    def __post_init__(self):
        if not self.families:
            raise ConfigError("config needs at least one task family")
        for family in self.families:
            if family not in FAMILIES:
                raise ConfigError(f"unknown task family: {family!r}")
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")


@dataclass(frozen=True)
class RunConfig:
    run_id: str = "run"
    suite: SuiteConfig = dc_field(default_factory=SuiteConfig)
    modes: tuple[str, ...] = MODE_NAMES
    backends: tuple[BackendConfig, ...] = ()
    bootstrap: BootstrapConfig = dc_field(default_factory=BootstrapConfig)
    delayed_variant: str = "deterministic"
    strict_extraction: bool = False
    strict_trace: bool = False
    baseline_mode: str = DEFAULT_BASELINE_MODE

    def __post_init__(self):
        if not self.modes:
            raise ConfigError("config needs at least one mode")
        for mode in self.modes:
            get_mode(mode)  # raises on unknown
        if not self.backends:
            raise ConfigError("config needs at least one backend")
        if self.delayed_variant not in DELAYED_VARIANTS:
            raise ConfigError(f"unknown delayed variant: {self.delayed_variant!r}")
        if self.baseline_mode not in MODE_NAMES:
            raise ConfigError(f"baseline_mode must name a mode, got {self.baseline_mode!r}")

    def digest(self) -> str:
        return canonical_digest(self.to_dict())

    def to_dict(self) -> dict[str, Any]:
        return _encode(self)


def _encode(value: Any) -> Any:
    """The JSON document of a config value, the one config_from_dict reads
    and the config digest hashes. A backend without base_url leaves out
    base_url and constraint_transport, and one without a fault profile
    leaves out fault."""
    if is_dataclass(value):
        doc = {f.name: _encode(getattr(value, f.name)) for f in fields(value)}
        if isinstance(value, BackendConfig):
            if not value.base_url:
                del doc["base_url"], doc["constraint_transport"]
            if value.fault is None:
                del doc["fault"]
        return doc
    if isinstance(value, tuple):
        return [_encode(item) for item in value]
    if isinstance(value, Mapping):
        return dict(value)
    return value


def _type_name(value: Any) -> str:
    return "null" if value is None else type(value).__name__


def _decode_value(hint: Any, value: Any, where: str) -> Any:
    """value checked against a field's type hint and converted to it; an
    int is taken for a float, never a bool for an int."""
    origin = get_origin(hint)
    if origin in (Union, UnionType):  # X | None
        return None if value is None else _decode_value(get_args(hint)[0], value, where)
    if is_dataclass(hint):
        return _decode(hint, value, where)
    if origin is tuple:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"{where} must be a list, got {_type_name(value)}")
        items: Any = tuple(_decode_value(get_args(hint)[0], item, f"{where}[{i}]")
                           for i, item in enumerate(value))
    elif origin is abc.Mapping:
        if not isinstance(value, Mapping):
            raise ConfigError(f"{where} must be an object, got {_type_name(value)}")
        items = {key: _decode_value(get_args(hint)[1], item, f"{where}.{key}")
                 for key, item in value.items()}
    else:
        if hint is float and type(value) is int:
            value = float(value)
        if type(value) is not hint:
            raise ConfigError(f"{where} must be {hint.__name__}, got {_type_name(value)}")
        if hint is float and not math.isfinite(value):
            raise ConfigError(f"{where} must be finite, got {value}")
        return value
    if not items:  # refused rather than read as "all" or as the default
        raise ConfigError(f"{where} must not be empty")
    return items


def _decode(config_type: type, doc: Any, where: str) -> Any:
    """A config_type built from its JSON object: every value checked against
    its field's type, absent keys left to the dataclass defaults, and every
    failure a ConfigError naming where in the config it is."""
    level = config_type.__name__.replace("Config", "").replace("Profile", "").lower()
    at = where or "config"
    if not isinstance(doc, Mapping):
        raise ConfigError(f"{at}: {level} config must be an object, got {_type_name(doc)}")
    hints = get_type_hints(config_type)  # the dataclass fields, names resolved
    unknown = sorted(set(doc) - set(hints))
    if unknown:
        raise ConfigError(
            f"unknown {level} config key(s) in {at}: {', '.join(map(repr, unknown))}")
    kwargs = {name: _decode_value(hint, doc[name], f"{where}.{name}" if where else name)
              for name, hint in hints.items() if name in doc}
    try:
        return config_type(**kwargs)
    except ConfigError as exc:
        raise ConfigError(f"{at}: {exc}") from None


def config_from_dict(doc: Mapping[str, Any]) -> RunConfig:
    return _decode(RunConfig, doc, "")


# ---------------------------------------------------------------------------
# Record construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _RecordContext:
    """What a record takes from its run."""

    backend_label: str
    model_id: str
    run_id: str | None
    config_digest: str | None
    strict_extraction: bool = False
    strict_trace: bool = False
    delayed_variant: str = "deterministic"

    def key(self, mode: str, stage: str, instance_id: str) -> tuple[str, str, str, str, str]:
        return (self.backend_label, self.model_id, mode, stage, instance_id)


def _record(ctx: _RecordContext, instance: TaskInstance, mode: str, stage: str,
            result: GenerationResult, started_at: str | None,
            derived_from: str | None = None) -> RunRecord:
    """Score one completion under (mode, stage) and build its record.

    Every record is built here: generation failures, plain modes, the
    delayed mode's stage 1 (packaged deterministically, or scored under the
    freeform contract in the model variant), its stage 2, and records
    derived from existing ones. Deterministic packaging leaves raw_text the
    untouched stage-1 completion, so structural overhead measures the
    payload against the characters the model actually generated.
    """
    family = instance.family
    contract = scoring_constraint(mode, family)
    common = dict(
        instance_id=instance.id,
        model_id=ctx.model_id,
        backend_label=ctx.backend_label,
        family=family,
        mode=mode,
        stage=stage,
        constraint_kind=contract.kind,
        constraint_digest=contract.digest(),
        constraint_enforced=transported_constraint(mode, family, stage).kind != CONSTRAINT_NONE,
        extraction_rule="strict/v1" if ctx.strict_extraction else "lenient/v1",
        run_id=ctx.run_id,
        config_digest=ctx.config_digest,
        derived_from=derived_from,
        latency_ms=result.latency_ms,
        started_at=started_at,
    )
    if result.failed:
        return RunRecord(**common, raw_text="", parse_status=PARSE_NO_JSON,
                         error_class=GENERATION_FAILED, failure_reason=result.failure_reason,
                         latency_annotation="+ pkg." if derived_from else None,
                         finished_at=timestamp())

    text, scored_as = result.raw_text, mode
    packaged_text = packaging_ms = latency_annotation = None
    packaging_failed = False
    if mode == DELAYED_MODE and stage == "stage1":
        if ctx.delayed_variant == "model":
            scored_as = "freeform"  # provenance row; stage 2 carries the verdict
        else:
            pkg_started = time.perf_counter()
            outcome = build_delayed_stage2(result.raw_text, instance, "deterministic")
            packaging_ms = (time.perf_counter() - pkg_started) * 1000.0
            latency_annotation = "+ pkg."
            packaged_text, packaging_failed = outcome.packaged_text, outcome.failed
            if not packaging_failed:
                text = outcome.packaged_text
    if packaging_failed:
        parse = extract_json(text, strict=ctx.strict_extraction)
    else:
        parse = parse_for_mode(text, scored_as, family, strict=ctx.strict_extraction)
    checks = score_completion(instance, scored_as, parse, text,
                              packaging_failed=packaging_failed,
                              strict_trace=ctx.strict_trace)
    return RunRecord(
        **common,
        raw_text=result.raw_text,
        parse_status=parse.status,
        violations=tuple({"path": v.path, "keyword": v.keyword, "message": v.message}
                         for v in parse.violations),
        schema_valid=checks.schema_valid,
        answer_correct=checks.answer_correct,
        exec_correct=checks.exec_correct,
        trace_correct=checks.trace_correct,
        error_class=checks.error_class,
        calendar_failure_class=checks.calendar_failure_class,
        calendar_wrong_fields=checks.calendar_wrong_fields,
        packaged_text=packaged_text,
        packaging_failed=packaging_failed,
        packaging_ms=packaging_ms,
        latency_annotation=latency_annotation,
        prompt_tokens=result.prompt_tokens,
        completion_tokens=result.completion_tokens,
        structural_overhead=structural_overhead(result.raw_text, checks.answer_payload),
        finished_at=timestamp(),
    )


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _suites(config: RunConfig) -> dict[str, list[TaskInstance]]:
    return {family: generate_suite(family, config.suite.count, config.suite.seed)
            for family in config.suite.families}


def run(config: RunConfig, out_dir: str | Path, resume: bool = False) -> Path:
    """Execute a run config; returns the records path.

    Each backend's work goes through one generate_all call: every record is
    scored and appended as its completion lands, so records.jsonl is in
    completion order (canonical_diff sorts it) and a killed run loses only
    the generations in flight and completions not yet scored. Reruns with
    --resume skip every (backend, model, mode, stage, instance) already on
    disk, so a killed run completes without duplicates. A final line left
    unterminated by a killed write is cut and its record made again, and a
    delayed stage 1 on disk whose model-variant stage 2 is missing gets its
    stage 2. A resume must run the config the directory was started with;
    it may only add modes.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records_path = out / "records.jsonl"
    if records_path.exists() and records_path.stat().st_size > 0 and not resume:
        raise ConfigError(
            f"{records_path} already has records; pass resume=True (--resume) "
            "or use a fresh output directory")
    digest = config.digest()
    done: dict[tuple[str, str, str, str, str], RunRecord] = {}
    if resume:
        _check_resumable(config, digest, out / "manifest.json")
        if records_path.exists():
            drop_torn_tail(records_path)
            done = {record.key(): record for record in read_records(records_path)}

    suites = _suites(config)
    instances_by_id = {i.id: i for suite in suites.values() for i in suite}
    write_suite((i for suite in suites.values() for i in suite), out / "tasks.jsonl")
    _write_manifest(config, digest, out)

    for backend in config.backends:
        if backend.kind == "endpoint":
            check_health(backend)

    with records_path.open("a", encoding="utf-8") as fh:
        for backend in config.backends:
            ctx = _RecordContext(backend.label, backend.model_id, config.run_id, digest,
                                 config.strict_extraction, config.strict_trace,
                                 config.delayed_variant)

            def land(bundle: PromptBundle, result: GenerationResult,
                     started_at: str) -> list[PromptBundle]:
                instance = instances_by_id[bundle.instance_id]
                record = _record(ctx, instance, bundle.mode, bundle.stage, result, started_at)
                append_record(fh, record)
                return _stage2_bundles(ctx, record, instance, done)

            generate_all(backend, _missing_bundles(ctx, config.modes, suites, done),
                         instances_by_id, land)
    print(f"[INFO] run complete: {records_path}")
    return records_path


def _check_resumable(config: RunConfig, digest: str, manifest_path: Path) -> None:
    """Refuse to resume a directory started under another config, unless
    the only change adds modes (every record on disk is then one the new
    config would make)."""
    if not manifest_path.exists():
        return
    try:
        manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
        stored_digest, stored = manifest["config_digest"], manifest["config"]
        stored_modes = set(stored["modes"])
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"cannot read {manifest_path}: {exc!r}") from None
    current = config.to_dict()
    if stored_modes <= set(config.modes) and {**stored, "modes": current["modes"]} == current:
        return
    raise ConfigError(
        f"cannot resume: {manifest_path} has config digest {stored_digest}, this config "
        f"has {digest}; resume with the original config or use a fresh output directory")


def _missing_bundles(ctx: _RecordContext, modes: Sequence[str],
                     suites: Mapping[str, list[TaskInstance]],
                     done: Mapping[tuple, RunRecord]) -> Iterator[PromptBundle]:
    """Every bundle not yet on disk, mode by mode in instance-id order, with
    the model-variant stage-2 bundles that stage-1 records on disk lack."""
    for mode in modes:
        bundles: list[PromptBundle] = []
        for suite in suites.values():
            for instance in suite:
                bundle = build_prompt(instance, mode)
                stored = done.get(ctx.key(mode, bundle.stage, instance.id))
                if stored is None:
                    bundles.append(bundle)
                else:
                    bundles.extend(_stage2_bundles(ctx, stored, instance, done))
        yield from sorted(bundles, key=lambda b: (b.instance_id, b.stage))


def _stage2_bundles(ctx: _RecordContext, record: RunRecord, instance: TaskInstance,
                    done: Mapping[tuple, RunRecord]) -> list[PromptBundle]:
    """The model-variant stage-2 bundle a delayed stage-1 record still
    lacks, if any."""
    if (ctx.delayed_variant != "model" or record.mode != DELAYED_MODE
            or record.stage != "stage1" or record.error_class == GENERATION_FAILED
            or ctx.key(DELAYED_MODE, "stage2", instance.id) in done):
        return []
    return [build_delayed_stage2(record.raw_text, instance, "model").stage2_bundle]


def _write_manifest(config: RunConfig, digest: str, out: Path) -> None:
    """The manifest holds each scoring constraint document once, keyed by
    the constraint_digest its records carry."""
    constraints = {}
    for mode in config.modes:
        for family in config.suite.families:
            contract = scoring_constraint(mode, family)
            if contract.kind != CONSTRAINT_NONE:
                constraints[contract.digest()] = {"kind": contract.kind,
                                                  "pattern": contract.pattern,
                                                  "schema": contract.schema}
    manifest = {
        "run_id": config.run_id,
        "config": config.to_dict(),
        "config_digest": digest,
        "constraints": constraints,
        "package_version": __version__,
        "template_version": TEMPLATE_VERSION,
        "bootstrap_version": BOOTSTRAP_VERSION,
        "created_at": timestamp(),
    }
    (out / "manifest.json").write_text(
        canonical_serialize(manifest) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# Delayed-constraint derivation from existing records
# ---------------------------------------------------------------------------

def derive_delayed(source_records: Sequence[RunRecord],
                   instances_by_id: Mapping[str, TaskInstance],
                   config: RunConfig | None = None) -> list[RunRecord]:
    """Re-package already-generated unconstrained records under the delayed
    contract, without further generation.

    Source records must come from prompt_json or a freeform mode. Latency
    is copied from the source and annotated "+ pkg."; packaging time is
    tracked separately and never added to generation latency. Instance ids
    and ordering are preserved. Without a config, derived records keep the
    source run's id, digest and extraction rule.
    """
    digest = config.digest() if config is not None else None
    derived: list[RunRecord] = []
    for source in source_records:
        if source.mode not in DELAYED_SOURCE_MODES:
            raise ConfigError(
                f"cannot derive delayed records from mode {source.mode!r}; "
                f"supported sources: {', '.join(sorted(DELAYED_SOURCE_MODES))}")
        instance = instances_by_id.get(source.instance_id)
        if instance is None:
            raise ConfigError(f"no task instance for record {source.instance_id!r}")
        if config is None:
            ctx = _RecordContext(source.backend_label, source.model_id,
                                 source.run_id or "derived", source.config_digest,
                                 strict_extraction=source.extraction_rule.startswith("strict"))
        else:
            ctx = _RecordContext(source.backend_label, source.model_id, config.run_id,
                                 digest, config.strict_extraction, config.strict_trace)
        result = GenerationResult(
            instance_id=source.instance_id,
            stage="stage1",
            raw_text=source.raw_text,
            latency_ms=source.latency_ms,
            backend_label=source.backend_label,
            prompt_tokens=source.prompt_tokens,
            completion_tokens=source.completion_tokens,
            failed=source.error_class == GENERATION_FAILED,
            failure_reason=source.failure_reason,
        )
        derived.append(_record(ctx, instance, DELAYED_MODE, "stage1", result,
                               source.started_at or timestamp(), derived_from=source.mode))
    return derived


# ---------------------------------------------------------------------------
# Scoring: aggregates + comparisons + calendar taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalendarRow:
    backend_label: str
    model_id: str
    mode: str
    n: int
    class_counts: tuple[tuple[str, int], ...]
    field_counts: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class ScoreResult:
    aggregates: list[ModeAggregate]
    comparisons: list[PairedComparison]
    calendar: list[CalendarRow]


def _final_records(records: Iterable[RunRecord]) -> list[RunRecord]:
    """Drop provenance stage-1 rows of the delayed mode when a stage-2 row
    exists for the same cell."""
    records = list(records)
    stage2 = {(r.backend_label, r.model_id, r.mode, r.instance_id, r.derived_from)
              for r in records if r.stage == "stage2"}
    out = []
    for record in records:
        if (record.mode == DELAYED_MODE and record.stage == "stage1"
                and (record.backend_label, record.model_id, record.mode,
                     record.instance_id, record.derived_from) in stage2):
            continue
        out.append(record)
    return out


def score(records: Sequence[RunRecord], bootstrap: BootstrapConfig | None = None,
          baseline_mode: str = DEFAULT_BASELINE_MODE,
          epsilon: float = DEFAULT_EPSILON) -> ScoreResult:
    """Aggregate records and compute paired comparisons against the
    baseline mode.

    Modes with no records are skipped with a warning; a missing baseline
    degrades to aggregates-only; mixed config digests get a warning (the
    records may not be comparable)."""
    records = _final_records(records)
    if not records:
        raise ValueError("no records to score")
    digests = {r.config_digest for r in records if r.config_digest}
    if len(digests) > 1:
        print(f"[WARN] records mix {len(digests)} config digests; "
              "cross-run comparability is not guaranteed")

    bootstrap = bootstrap or BootstrapConfig()
    cells: dict[tuple[str, str, str], list[RunRecord]] = {}
    for record in records:
        cells.setdefault((record.backend_label, record.model_id, record.mode),
                         []).append(record)

    mode_order = {name: i for i, name in enumerate(MODE_NAMES)}
    aggregates: list[ModeAggregate] = []
    by_group: dict[tuple[str, str], dict[str, dict[str, list[RunRecord]]]] = {}
    for (backend_label, model_id, mode), cell_records in sorted(
            cells.items(), key=lambda kv: (kv[0][0], kv[0][1], mode_order.get(kv[0][2], 99))):
        scored = [r for r in cell_records if is_scored(r)]
        if not scored:
            print(f"[WARN] mode {mode!r} for {backend_label}/{model_id} has no scored "
                  "records; row omitted")
            continue
        families = sorted({r.family for r in cell_records})
        tasks: dict[str, list[RunRecord]] = {}
        for family in families:
            tasks[family] = [r for r in cell_records if r.family == family]
        if len(families) > 1:
            tasks["all"] = cell_records
        for task, task_records in tasks.items():
            aggregates.append(aggregate(task_records, task=task))
            by_group.setdefault((backend_label, model_id), {}).setdefault(
                task, {})[mode] = task_records

    task_rank = {family: i for i, family in enumerate(FAMILIES)}
    aggregates.sort(key=lambda a: (a.backend_label, a.model_id,
                                   task_rank.get(a.task, 99), a.task,
                                   mode_order.get(a.mode, 99)))

    comparisons: list[PairedComparison] = []
    for (backend_label, model_id), task_map in sorted(by_group.items()):
        for task in sorted(task_map, key=lambda t: (task_rank.get(t, 99), t)):
            mode_map = task_map[task]
            if baseline_mode not in mode_map:
                print(f"[WARN] baseline mode {baseline_mode!r} absent for "
                      f"{backend_label}/{model_id}/{task}; comparisons skipped")
                continue
            base_records = mode_map[baseline_mode]
            for mode in sorted(mode_map, key=lambda m: mode_order.get(m, 99)):
                if mode == baseline_mode:
                    continue
                try:
                    mode_comparisons = [paired_comparison(
                        base_records, mode_map[mode], acc_metric=metric,
                        cfg=bootstrap, epsilon=epsilon) for metric in ACC_METRICS]
                except PairingError as exc:  # pairing mismatch, duplicates, all-failed
                    print(f"[WARN] comparisons skipped for {backend_label}/"
                          f"{model_id}/{task}/{mode}: {exc}")
                    continue
                comparisons.extend(mode_comparisons)

    return ScoreResult(aggregates=aggregates, comparisons=comparisons,
                       calendar=_calendar_rows(records))


def _calendar_rows(records: Sequence[RunRecord]) -> list[CalendarRow]:
    from .checkers import CALENDAR_FAILURE_CLASSES
    from .taskgen import CALENDAR_SEMANTIC_FIELDS

    groups: dict[tuple[str, str, str], list[RunRecord]] = {}
    for record in records:
        if record.family != "tool_call_argument":
            continue
        if record.calendar_failure_class is None:
            continue
        groups.setdefault((record.backend_label, record.model_id, record.mode),
                          []).append(record)
    mode_order = {name: i for i, name in enumerate(MODE_NAMES)}
    rows = []
    for (backend_label, model_id, mode) in sorted(
            groups, key=lambda k: (k[0], k[1], mode_order.get(k[2], 99))):
        cell = groups[(backend_label, model_id, mode)]
        class_counts = tuple(
            (name, sum(1 for r in cell if r.calendar_failure_class == name))
            for name in CALENDAR_FAILURE_CLASSES)
        field_counts = tuple(
            (name, sum(1 for r in cell if name in r.calendar_wrong_fields))
            for name in CALENDAR_SEMANTIC_FIELDS)
        rows.append(CalendarRow(backend_label=backend_label, model_id=model_id,
                                mode=mode, n=len(cell), class_counts=class_counts,
                                field_counts=field_counts))
    return rows


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def _fmt_rate(rate: Fraction | None) -> str:
    from .metrics import pts

    return "" if rate is None else f"{pts(rate):.1f}"


def _fmt_opt(value: float | None, fmt: str = ".1f") -> str:
    return "" if value is None else format(value, fmt)


def write_aggregates_csv(path: str | Path, aggregates: Sequence[ModeAggregate]) -> None:
    import csv

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "backend", "model", "task", "mode", "n", "n_failed",
            "schema_validity_pct", "answer_accuracy_pct", "exec_accuracy_pct",
            "trace_accuracy_pct", "wrong_valid_pct", "mean_latency_ms",
            "mean_completion_tokens", "mean_structural_overhead",
        ])
        for agg in aggregates:
            writer.writerow([
                agg.backend_label, agg.model_id, agg.task, agg.mode, agg.n, agg.n_failed,
                _fmt_rate(agg.schema_validity), _fmt_rate(agg.answer_accuracy),
                _fmt_rate(agg.exec_accuracy), _fmt_rate(agg.trace_accuracy),
                _fmt_rate(agg.wrong_valid_rate), f"{agg.mean_latency_ms:.1f}",
                _fmt_opt(agg.mean_completion_tokens),
                _fmt_opt(agg.mean_structural_overhead, ".3f"),
            ])


def write_comparisons_csv(path: str | Path,
                          comparisons: Sequence[PairedComparison]) -> None:
    import csv

    from .metrics import pts

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "backend", "model", "task", "baseline_mode", "mode", "acc_metric", "n",
            "acc_baseline_pct", "acc_constrained_pct", "signed_delta_pts", "tax_pts",
            "tax_normalized", "epsilon", "delta_ci_low_pts", "delta_ci_high_pts",
            "validity_delta_pts", "validity_ci_low_pts", "validity_ci_high_pts",
            "wrong_valid_delta_pts", "wrong_valid_ci_low_pts", "wrong_valid_ci_high_pts",
            "bootstrap_resamples", "bootstrap_level", "bootstrap_version",
        ])
        for cmp in comparisons:
            writer.writerow([
                cmp.backend_label, cmp.model_id, cmp.task, cmp.baseline_mode, cmp.mode,
                cmp.acc_metric, cmp.n,
                f"{pts(cmp.acc_baseline):.1f}", f"{pts(cmp.acc_constrained):.1f}",
                f"{pts(cmp.signed_delta):+.1f}", f"{pts(cmp.tax):.1f}",
                f"{cmp.tax_norm:.4f}", f"{cmp.epsilon:g}",
                f"{pts(cmp.acc_ci.low):+.1f}", f"{pts(cmp.acc_ci.high):+.1f}",
                f"{pts(cmp.validity_delta):+.1f}",
                f"{pts(cmp.validity_ci.low):+.1f}", f"{pts(cmp.validity_ci.high):+.1f}",
                f"{pts(cmp.wrong_valid_delta):+.1f}",
                f"{pts(cmp.wrong_valid_ci.low):+.1f}", f"{pts(cmp.wrong_valid_ci.high):+.1f}",
                cmp.acc_ci.resamples, f"{cmp.acc_ci.level:g}", BOOTSTRAP_VERSION,
            ])


def write_calendar_csv(path: str | Path, rows: Sequence[CalendarRow]) -> None:
    import csv

    from .checkers import CALENDAR_FAILURE_CLASSES
    from .taskgen import CALENDAR_SEMANTIC_FIELDS

    with Path(path).open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["backend", "model", "mode", "n",
                         *CALENDAR_FAILURE_CLASSES,
                         *[f"wrong_field_{f}" for f in CALENDAR_SEMANTIC_FIELDS]])
        for row in rows:
            class_map = dict(row.class_counts)
            field_map = dict(row.field_counts)
            writer.writerow([
                row.backend_label, row.model_id, row.mode, row.n,
                *[class_map.get(c, 0) for c in CALENDAR_FAILURE_CLASSES],
                *[field_map.get(f, 0) for f in CALENDAR_SEMANTIC_FIELDS],
            ])


def score_to_files(result: ScoreResult, out_dir: str | Path) -> dict[str, Path]:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    paths = {
        "aggregates": out / "aggregates.csv",
        "comparisons": out / "comparisons.csv",
        "calendar": out / "calendar_failures.csv",
    }
    write_aggregates_csv(paths["aggregates"], result.aggregates)
    write_comparisons_csv(paths["comparisons"], result.comparisons)
    write_calendar_csv(paths["calendar"], result.calendar)
    return paths


def load_records(path: str | Path) -> list[RunRecord]:
    return read_records(path)
