"""Run orchestration: config, generation loop, scoring, derivation.

A run is declarative: one JSON config names the suite, the modes, the
backends, and the bootstrap settings, and its canonical digest is stamped
into the manifest and every record. Records append to JSONL a landing
batch at a time, so an interrupted run resumes by skipping keys already on
disk.
"""

from __future__ import annotations

import csv
import json
import math
import time
from collections import abc
from dataclasses import dataclass, field as dc_field, fields, is_dataclass
from fractions import Fraction
from itertools import chain
from pathlib import Path
from types import SimpleNamespace, UnionType
from typing import (Any, Callable, Iterable, Iterator, Mapping, Sequence, Union, get_args,
                    get_origin, get_type_hints)

from . import __version__
from .backend import (
    BackendConfig,
    GenerationResult,
    build_request_body,
    check_descriptors,
    check_health,
    generate_all,
)
from .checkers import (CALENDAR_FAILURE_CLASSES, ERROR_CLASSES, GENERATION_FAILED,
                       score_completion)
from .errors import ConfigError, PairingError
from .metrics import (
    ACC_METRICS,
    BOOTSTRAP_VERSION,
    DEFAULT_BASELINE_MODE,
    DEFAULT_EPSILON,
    BootstrapConfig,
    Cell,
    ModeAggregate,
    PairedComparison,
    aggregate,
    paired_comparison,
    pts,
    structural_overhead,
)
from .modes import (
    CONSTRAINT_NONE,
    DELAYED_MODE,
    DELAYED_VARIANTS,
    MODE_CATALOG,
    MODE_NAMES,
    TEMPLATE_VERSION,
    PromptBundle,
    build_delayed_stage2,
    build_prompt,
    get_mode,
    parse_for_mode,
    scoring_constraint,
)
from .records import (_TEMPLATE, FIELD_TYPES, VERDICTS, RunRecord, adopt_record, append_record,
                      check_line, drop_torn_tail, field_fault, iter_jsonl, open_jsonl,
                      read_records, replace_file, timestamp)
from .taskgen import (CALENDAR_FAMILY, CALENDAR_SEMANTIC_FIELDS, FAMILIES, TaskInstance,
                      generate_suite, write_suite)
from .validation import (LENIENT_EXTRACTION, PARSE_NO_JSON, STRICT_EXTRACTION, canonical_digest,
                         canonical_serialize, extract_json)

# Modes a delayed stage 1 can be derived from: those generated unconstrained.
DELAYED_SOURCE_MODES = frozenset(m.name for m in MODE_CATALOG if not m.enforced) - {DELAYED_MODE}


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
            result: GenerationResult, derived_from: str | None = None) -> RunRecord:
    """Score one completion under (mode, stage) and build its record.

    Every record is built here: generation failures, plain modes, the
    delayed mode's stage 1 (packaged deterministically, or scored under the
    freeform contract in the model variant), its stage 2, and records
    derived from existing ones. Deterministic packaging leaves raw_text the
    untouched stage-1 completion, so structural overhead measures the
    payload against the characters the model actually generated.
    """
    family = instance.family
    state = _TEMPLATE.copy()  # every field at its default, in line order; set in place
    state["instance_id"] = instance.id
    state["model_id"] = ctx.model_id
    state["backend_label"] = ctx.backend_label
    state["family"] = family
    state["mode"] = mode
    state["stage"] = stage
    state["constraint_digest"] = scoring_constraint(mode, family).digest()
    state["extraction_rule"] = STRICT_EXTRACTION if ctx.strict_extraction else LENIENT_EXTRACTION
    state["run_id"] = ctx.run_id
    state["config_digest"] = ctx.config_digest
    state["derived_from"] = derived_from
    state["latency_ms"] = result.latency_ms
    state["started_at"] = result.started_at
    if result.failed:
        state["raw_text"] = ""
        state["parse_status"] = PARSE_NO_JSON
        state["error_class"] = GENERATION_FAILED
        state["failure_reason"] = result.failure_reason
        if derived_from:
            state["latency_annotation"] = "+ pkg."
        state["finished_at"] = timestamp()
        return adopt_record(state)

    text, scored_as = result.raw_text, mode
    packaging_failed = False
    if mode == DELAYED_MODE and stage == "stage1":
        if ctx.delayed_variant == "model":
            scored_as = "freeform"  # provenance row; stage 2 carries the verdict
        else:
            pkg_started = time.perf_counter()
            outcome = build_delayed_stage2(result.raw_text, instance, "deterministic")
            state["packaging_ms"] = (time.perf_counter() - pkg_started) * 1000.0
            state["latency_annotation"] = "+ pkg."
            state["packaged_text"] = outcome.packaged_text
            state["packaging_failed"] = packaging_failed = outcome.failed
            if not packaging_failed:
                text = outcome.packaged_text
    if packaging_failed:
        parse = extract_json(text, strict=ctx.strict_extraction)
    else:
        parse = parse_for_mode(text, scored_as, family, strict=ctx.strict_extraction)
    checks = score_completion(instance, scored_as, parse, text,
                              packaging_failed=packaging_failed,
                              strict_trace=ctx.strict_trace)
    state["raw_text"] = result.raw_text
    state["parse_status"] = parse.status
    if parse.violations:
        state["violations"] = tuple({"path": v.path, "keyword": v.keyword, "message": v.message}
                                    for v in parse.violations)
    state["schema_valid"] = checks.schema_valid
    state["answer_correct"] = checks.answer_correct
    state["exec_correct"] = checks.exec_correct
    state["trace_correct"] = checks.trace_correct
    state["error_class"] = checks.error_class
    state["calendar_failure_class"] = checks.calendar_failure_class
    state["calendar_wrong_fields"] = checks.calendar_wrong_fields
    state["prompt_tokens"] = result.prompt_tokens
    state["completion_tokens"] = result.completion_tokens
    state["structural_overhead"] = structural_overhead(result.raw_text, checks.answer_payload)
    state["finished_at"] = timestamp()
    return adopt_record(state)


# ---------------------------------------------------------------------------
# Run loop
# ---------------------------------------------------------------------------

def _suites(config: RunConfig) -> dict[str, list[TaskInstance]]:
    return {family: generate_suite(family, config.suite.count, config.suite.seed)
            for family in config.suite.families}


def run(config: RunConfig, out_dir: str | Path, resume: bool = False) -> Path:
    """Execute a run config; returns the records path.

    Each backend's work goes through one generate_all call, which lands
    completions a batch at a time: each record of a batch is scored and
    written, then the file is flushed once, so records.jsonl is in
    completion order (canonical_diff sorts it). A killed scripted run loses
    at most the batch in hand (up to backend._INLINE_RUN generations); a
    killed endpoint run loses only the generations in flight and the calls
    waiting on held connections, since every landing round is flushed
    before the loop waits again. Reruns with
    --resume skip every (backend, model, mode, stage, instance) already on
    disk, so a killed run regenerates what it lost, without duplicates. A
    final line left unterminated by a killed write is cut and its record
    made again, and a delayed stage 1 on disk whose model-variant stage 2 is
    missing gets its stage 2. A resume must run the config the directory
    was started with; it may only add modes. Without a manifest, every
    record on disk must carry this config's digest.
    """
    out = Path(out_dir)
    records_path = out / "records.jsonl"
    if records_path.exists() and records_path.stat().st_size > 0 and not resume:
        raise ConfigError(
            f"{records_path} already has records; pass resume=True (--resume) "
            "or use a fresh output directory")
    digest = config.digest()
    if resume:
        _check_resumable(config, digest, out / "manifest.json")
    suites = _suites(config)
    _check_transport(config, next(iter(suites.values()))[0])
    for backend in config.backends:  # before anything is written
        if backend.kind == "endpoint":
            check_descriptors(backend)
            check_health(backend)

    done: dict[tuple[str, str, str, str, str], RunRecord] = {}
    if resume and records_path.exists():
        drop_torn_tail(records_path)
        stored = read_records(records_path)
        # appending after it would leave a file score refuses
        refusal = _refusal(map(vars, stored))
        if refusal is not None:
            raise refusal
        if not (out / "manifest.json").exists():  # nothing says what config made them
            strays = {r.config_digest for r in stored} - {digest}
            if strays:
                raise ConfigError(
                    f"cannot resume: {out / 'manifest.json'} is missing and {records_path} "
                    f"holds records of config digest {', '.join(sorted(map(str, strays)))}, "
                    f"not this config's {digest}; resume with the original config or use a "
                    "fresh output directory")
        done = {record.key(): record for record in stored}
    out.mkdir(parents=True, exist_ok=True)
    write_suite((i for suite in suites.values() for i in suite), out / "tasks.jsonl")
    _write_manifest(config, digest, out)

    with open_jsonl(records_path, "a") as fh:
        for backend in config.backends:
            ctx = _RecordContext(backend.label, backend.model_id, config.run_id, digest,
                                 config.strict_extraction, config.strict_trace,
                                 config.delayed_variant)

            def land(pairs: list[tuple[PromptBundle, GenerationResult]]) -> list[PromptBundle]:
                follow_ups: list[PromptBundle] = []
                for bundle, result in pairs:
                    record = _record(ctx, bundle.instance, bundle.mode, bundle.stage, result)
                    append_record(fh, record)
                    follow_ups += _stage2_bundles(ctx, record, bundle.instance, done)
                fh.flush()
                return follow_ups

            generate_all(backend, _missing_bundles(ctx, config.modes, suites, done), land)
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


def _check_transport(config: RunConfig, instance: TaskInstance) -> None:
    """Build one request body per (endpoint backend, mode), and one for the
    model variant's stage 2, so that a constraint kind with no transport
    path, or a path that collides with the body, raises its ConfigError
    before anything is written or sent."""
    for backend in config.backends:
        if backend.kind != "endpoint":
            continue
        for mode in config.modes:
            build_request_body(backend, build_prompt(instance, mode))
        if config.delayed_variant == "model" and DELAYED_MODE in config.modes:
            build_request_body(backend, build_delayed_stage2("", instance, "model").stage2_bundle)


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
    replace_file(out / "manifest.json", [canonical_serialize(manifest) + "\n"])


# ---------------------------------------------------------------------------
# Delayed-constraint derivation from existing records
# ---------------------------------------------------------------------------

def derive_delayed(source_records: Sequence[RunRecord],
                   instances_by_id: Mapping[str, TaskInstance],
                   config: RunConfig | None = None) -> list[RunRecord]:
    """Re-package already-generated unconstrained records under the delayed
    contract, without further generation.

    Source records must come from prompt_json or a freeform mode, and hold
    no value score would refuse (a ConfigError names the record). Latency
    is copied from the source and annotated "+ pkg."; packaging time is
    tracked separately and never added to generation latency. Instance ids
    and ordering are preserved. Without a config, derived records keep the
    source run's id ("derived" when it has none) and digest, and its
    extraction strictness: they are parsed again under the current rule and
    stamped with it, so a lenient/v2 source gives lenient/v3 records.
    """
    # a value score refuses would reach the derived line
    refusal = _refusal(map(vars, source_records))
    if refusal is not None:
        raise refusal
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
        if source.family != instance.family:
            raise ConfigError(f"record {'/'.join(source.key())}: family {source.family!r}, "
                              f"but its task is of family {instance.family!r}")
        if config is None:
            ctx = _RecordContext(source.backend_label, source.model_id,
                                 source.run_id or "derived", source.config_digest,
                                 strict_extraction=source.extraction_rule.startswith("strict"))
        else:
            ctx = _RecordContext(source.backend_label, source.model_id, config.run_id,
                                 digest, config.strict_extraction, config.strict_trace)
        result = GenerationResult(
            raw_text=source.raw_text,
            latency_ms=source.latency_ms,
            prompt_tokens=source.prompt_tokens,
            completion_tokens=source.completion_tokens,
            failed=source.error_class == GENERATION_FAILED,
            failure_reason=source.failure_reason,
            started_at=source.started_at or timestamp(),
        )
        derived.append(_record(ctx, instance, DELAYED_MODE, "stage1", result,
                               derived_from=source.mode))
    return derived


# ---------------------------------------------------------------------------
# Scoring: aggregates + comparisons + calendar taxonomy
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CalendarRow:
    """Calendar failure counts of one (backend, model, mode) cell. class_counts
    holds one (class, count) pair per CALENDAR_FAILURE_CLASSES entry and
    field_counts one (field, count) pair per CALENDAR_SEMANTIC_FIELDS entry,
    each in that order, so the tables read the counts off in sequence."""

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
    warnings: tuple[str, ...] = ()  # what score found questionable, in the order found


# Fields score reads. A record holding in one of them a type its FIELD_TYPES
# entry does not allow, or a float that is not finite, is refused rather than
# scored.
_SCORED_FIELDS = (*VERDICTS, "backend_label", "model_id", "family", "mode", "instance_id",
                  "error_class", "extraction_rule", "config_digest", "latency_annotation",
                  "calendar_failure_class", "latency_ms", "completion_tokens",
                  "structural_overhead", "stage", "packaged_text", "packaging_failed")
_TYPES = {name: frozenset(FIELD_TYPES[name][0]) for name in _SCORED_FIELDS}
_ERROR_CLASSES = frozenset([*ERROR_CLASSES, GENERATION_FAILED])
_STAGES = ("single", "stage1", "stage2")  # a tuple: `in` compares a list stage, never hashes it


def _record_fault(doc: Mapping[str, Any]) -> str | None:
    """What score cannot read in a record's fields (vars) or a line's
    object, or None."""
    if (fault := field_fault(doc, _SCORED_FIELDS)) is not None:
        return fault
    get = doc.get
    if doc["family"] == "all":
        return "family must not be 'all', the task of the cross-family rows"
    if doc["stage"] not in _STAGES:
        return f"stage must be one of {', '.join(_STAGES)}, got {doc['stage']!r}"
    if (error_class := get("error_class", _TEMPLATE["error_class"])) not in _ERROR_CLASSES:
        return (f"error_class must be one of {', '.join(ERROR_CLASSES)} or {GENERATION_FAILED}, "
                f"got {error_class!r}")
    if (klass := get("calendar_failure_class")) not in (None, *CALENDAR_FAILURE_CLASSES):
        return (f"calendar_failure_class must be one of {', '.join(CALENDAR_FAILURE_CLASSES)} "
                f"or null, got {klass!r}")
    return None


def _named(doc: Mapping[str, Any]) -> str:
    """A record as a refusal names it: backend/model/mode/stage/instance."""
    return "/".join(map(str, (doc["backend_label"], doc["model_id"], doc["mode"], doc["stage"],
                              doc["instance_id"])))


def _refusal(docs: Iterable[Mapping[str, Any]],
             otherwise: str | None = None) -> ConfigError | None:
    """The error naming the first record score cannot read, of records'
    fields (vars) or lines' objects; when none is found, the error saying
    otherwise, or None without it."""
    for doc in docs:
        fault = _record_fault(doc)
        if fault is not None:
            return ConfigError(f"record {_named(doc)}: {fault}")
    return None if otherwise is None else ConfigError(otherwise)


def _provenance_row(doc: Mapping[str, Any]) -> bool:
    """A scored delayed stage 1 that was not packaged locally: a model-variant
    provenance row, scored as freeform, which the delayed cell leaves out."""
    get = doc.get
    return (doc["mode"] == DELAYED_MODE and doc["stage"] == "stage1"
            and get("error_class") != GENERATION_FAILED and get("packaged_text") is None
            and not get("packaging_failed"))


class Cells:
    """Records folded, one at a time, into the columns of their (backend,
    model, family, mode) cells (metrics.Cell): what score reads of them, with
    no record built or kept. A record is checked as a records line is
    (records.check_line) as it is folded. What else score cannot read of it
    shows in its cell's columns when score reads them, and score then names
    the record by reading that cell's records again from their sources: the
    files read, or the records given to Cells.of.

    A delayed-mode record whose stage, packaged_text or packaging_failed
    (what tells a provenance row) is off its type, or a provenance row
    holding a value score cannot read, marks its cell as unreadable; a
    provenance row is left out of the columns."""

    def __init__(self):
        self.cells: dict[tuple, Cell] = {}
        self.unreadable: set[tuple] = set()  # cells holding a record score cannot read
        self.unhashable: Mapping | None = None  # the first record no cell key can hold
        self._sources: list[Callable[[], Iterable[Mapping[str, Any]]]] = []

    @classmethod
    def of(cls, records: Iterable[RunRecord]) -> Cells:
        """records folded in order, each as its fields (vars). A record that
        no records line could hold is a ConfigError naming it."""
        records = list(records)  # read again to name a record
        cells = cls()
        cells._sources.append(lambda: map(vars, records))
        for record in records:
            doc = vars(record)
            try:
                cells.add(doc)
            except TypeError as exc:
                raise ConfigError(f"record {_named(doc)}: {exc}") from None
        return cells

    def read(self, path: str | Path, digest=None) -> list:
        """Fold in each line of a records file; one None per record read. A
        file that is not a regular one (a pipe) is not read again. A digest
        given (a hashlib object) takes the bytes folded."""
        if Path(path).is_file():
            self._sources.append(lambda: iter_jsonl(path, "record", dict))
        return read_records(path, self.add, digest)

    def add(self, doc: Mapping[str, Any]) -> None:
        """Fold in one record: a line's object, or a record's fields. What
        check_line refuses is a TypeError."""
        check_line(doc)
        try:
            key = _key(doc)
            cell = self.cells.get(key)
        except TypeError:  # a list where a label goes
            if self.unhashable is None:
                self.unhashable = doc
            return
        if cell is None:
            cell = self.cells[key] = Cell(key[0], key[1], key[3], key[2])
        if key[3] == DELAYED_MODE:
            get = doc.get
            if not (doc["stage"] in _STAGES
                    and type(get("packaged_text")) in _TYPES["packaged_text"]
                    and type(get("packaging_failed", False)) is bool):
                self.unreadable.add(key)
                return
            if _provenance_row(doc):
                if _record_fault(doc) is not None:
                    self.unreadable.add(key)
                return
        try:
            cell.add(doc)
        except TypeError:
            self.unreadable.add(key)

    def reread(self) -> Iterator[Mapping[str, Any]]:
        """Every record folded in, read again from its source, in order: a
        line's object, or a record's fields."""
        return chain.from_iterable(source() for source in self._sources)


def _key(doc: Mapping[str, Any]) -> tuple:
    return (doc["backend_label"], doc["model_id"], doc["family"], doc["mode"])


def _kept_in(cell: Cell, doc: Mapping[str, Any]) -> bool:
    """Whether a record read again is one the cell holds: of its labels and
    family (any family for "all"), and no provenance row."""
    return ((doc["backend_label"], doc["model_id"], doc["mode"])
            == (cell.backend_label, cell.model_id, cell.mode)
            and cell.task in ("all", doc["family"]) and not _provenance_row(doc))


def _readable(cell: Cell) -> bool:
    """Whether each of a family cell's columns holds only the types its
    field allows; one pass per column."""
    return (all(_TYPES[name].issuperset(map(type, column)) for name, column in (
                ("instance_id", chain(cell.ids, cell.failed)), ("extraction_rule", cell.rules),
                ("config_digest", cell.digests), ("latency_annotation", cell.notes),
                ("latency_ms", cell.latencies), ("completion_tokens", cell.tokens),
                ("structural_overhead", cell.overheads)))
            and _ERROR_CLASSES.issuperset(cell.error_classes)
            and cell.classes.keys() <= _CALENDAR_CLASSES)


_CALENDAR_CLASSES = frozenset(CALENDAR_FAILURE_CLASSES)


def _calendar_row(cell: Cell) -> CalendarRow | None:
    if not cell.classes:
        return None
    return CalendarRow(cell.backend_label, cell.model_id, cell.mode, cell.classes.total(),
                       tuple((name, cell.classes[name]) for name in CALENDAR_FAILURE_CLASSES),
                       tuple((name, cell.wrong[name]) for name in CALENDAR_SEMANTIC_FIELDS))


def _rollup(cells: Cells, parts: list[Cell]) -> Cell:
    """The "all" cell of one mode from its family cells: their columns joined,
    so no record is read again. Its ids then run family by family; where one
    repeats, the cell is folded again from the records in their order, so a
    pairing names the first duplicate as the records list it, unless its
    records cannot all be read again (a pipe)."""
    cell = Cell.join(parts)
    if len(cell.codes) < len(cell.ids):
        ordered = Cell(cell.backend_label, cell.model_id, cell.mode, "all")
        for doc in cells.reread():
            if _kept_in(ordered, doc):
                ordered.add(doc)
        if (len(ordered.ids), len(ordered.failed)) == (len(cell.ids), len(cell.failed)):
            cell = ordered
    return cell


def _aggregate(cells: Cells, cell: Cell, task: str, where: str) -> ModeAggregate:
    """aggregate(cell, task), with a mean that is not a finite number (one
    value past the largest float, or a sum that overflows) refused, naming
    the first scored record that holds a value score cannot read."""
    try:
        agg = aggregate(cell, task=task)
    except (ValueError, OverflowError):  # fsum of both infinities, or past the largest float
        agg = None
    if agg is None or not all(map(math.isfinite, (
            agg.mean_latency_ms, agg.mean_completion_tokens or 0.0,
            agg.mean_structural_overhead or 0.0))):
        raise _refusal((doc for doc in cells.reread()
                        if _kept_in(cell, doc) and doc.get("error_class") != GENERATION_FAILED),
                       f"{where}: a mean is not a finite number")
    return agg


def score(records: Iterable[RunRecord] | Cells, bootstrap: BootstrapConfig | None = None,
          baseline_mode: str = DEFAULT_BASELINE_MODE) -> ScoreResult:
    """Aggregate records and compute paired comparisons against the
    baseline mode.

    The records come folded into their (backend, model, family, mode)
    cells' columns (Cells: read from files, or Cells.of the records given),
    each record once, in order. A mode whose records span several families
    also gets an "all" cell, joined from its family cells' columns. A scored
    delayed stage 1 that was not packaged locally is a model-variant
    provenance row and is left out, once checked as a kept record is: the
    delayed cell takes its verdict from stage 2 only, so an instance whose
    stage 2 is missing leaves the cell.
    One walk over the cells in output order then emits the aggregates, the
    calendar rows and the comparisons; a cell's instance -> flag code map
    (Cell.codes) is built at its first pairing and serves the rest. Every
    output is independent of record order but for the warning naming a
    duplicated instance, which names the first in record order.

    A cell with no scored record is left out with a warning; a task without
    the baseline mode gets aggregates only; mixed config digests, and a cell
    that mixes extraction rules, get a warning (the records may not be
    comparable). The warnings are returned, in ScoreResult.warnings, not
    printed. A record holding a value in a field score reads (_SCORED_FIELDS)
    of a type its RunRecord annotation does not allow, or a float that is
    not finite, is a ConfigError naming the record, and so are no records
    to score (none, or only provenance rows)."""
    cells = records if isinstance(records, Cells) else Cells.of(records)
    if cells.unhashable is not None:
        raise _refusal([cells.unhashable], f"record {_named(cells.unhashable)} cannot be scored")
    digests: set = set()
    groups: dict[tuple[str, str], dict[str, dict[str, Cell]]] = {}
    by_mode: dict[tuple[str, str], dict[str, list[Cell]]] = {}
    for key, cell in cells.cells.items():
        backend_label, model_id, family, mode = key
        if (key in cells.unreadable or not all(type(label) is str for label in key)
                or family == "all" or not _readable(cell)):
            raise _refusal((doc for doc in cells.reread() if _key(doc) == key),
                           f"{'/'.join(map(str, key))} holds a value score cannot read")
        if not cell.ids and not cell.failed:  # provenance rows only
            continue
        digests |= cell.digests
        groups.setdefault((backend_label, model_id), {}).setdefault(family, {})[mode] = cell
        by_mode.setdefault((backend_label, model_id), {}).setdefault(mode, []).append(cell)
    if not groups:  # none given, or only provenance rows
        raise ConfigError("no records to score" + (
            "; each is a model-variant delayed stage 1, which scores through its stage 2"
            if cells.cells else ""))
    for group, modes in by_mode.items():  # a mode of one family would repeat its row
        groups[group]["all"] = {mode: _rollup(cells, parts)
                                for mode, parts in modes.items() if len(parts) > 1}

    warnings = []
    digests -= {None, ""}
    if len(digests) > 1:
        warnings.append(f"records mix {len(digests)} config digests; "
                        "cross-run comparability is not guaranteed")
    bootstrap = bootstrap or BootstrapConfig()
    mode_rank = {name: i for i, name in enumerate(MODE_NAMES)}
    task_rank = {family: i for i, family in enumerate(FAMILIES)}
    aggregates, comparisons, calendar = [], [], []
    for (backend_label, model_id), tasks in sorted(groups.items()):
        for task in sorted(tasks, key=lambda t: (task_rank.get(t, 99), t)):
            where = f"{backend_label}/{model_id}/{task}"
            kept: dict[str, Cell] = {}
            for mode in sorted(tasks[task], key=lambda m: mode_rank.get(m, 99)):
                cell = tasks[task][mode]
                if not cell.ids:
                    warnings.append(f"{where}/{mode} has no scored records; row omitted")
                    continue
                if len(cell.rules) > 1:
                    warnings.append(f"{where}/{mode} mixes extraction rules "
                                    f"{', '.join(sorted(cell.rules))}")
                kept[mode] = cell
                aggregates.append(_aggregate(cells, cell, task, f"{where}/{mode}"))
                if task == CALENDAR_FAMILY and (row := _calendar_row(cell)) is not None:
                    calendar.append(row)
            if kept and baseline_mode not in kept:
                warnings.append(f"baseline mode {baseline_mode!r} absent for {where}; "
                                "comparisons skipped")
                continue
            for mode, cell in kept.items():
                if mode == baseline_mode:
                    continue
                try:
                    comparisons.extend([paired_comparison(
                        kept[baseline_mode], cell, acc_metric=metric, cfg=bootstrap)
                        for metric in ACC_METRICS])
                except PairingError as exc:  # missing instances, duplicates, none scored
                    warnings.append(f"comparisons skipped for {where}/{mode}: {exc}")
    return ScoreResult(aggregates, comparisons, calendar, tuple(warnings))


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

# The CSVs' and the report's number formatters; missing is an absent value's text.
def _pts(rate: Fraction | float | None, fmt: str = ".1f", missing: str = "") -> str:
    return missing if rate is None else format(pts(rate), fmt)


def _fmt_opt(value: float | None, fmt: str = ".1f", missing: str = "") -> str:
    return missing if value is None else format(value, fmt)


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
    # writerow returns what its file's write returns: here, the row's text
    row_text = csv.writer(SimpleNamespace(write=str)).writerow
    replace_file(path, map(row_text, chain([header], rows)))


def score_to_files(result: ScoreResult, out_dir: str | Path) -> dict[str, Path]:
    """Write the three CSVs into out_dir, each whole or not at all."""
    out = Path(out_dir)
    paths = {
        "aggregates": out / "aggregates.csv",
        "comparisons": out / "comparisons.csv",
        "calendar": out / "calendar_failures.csv",
    }
    _write_csv(paths["aggregates"], [
        "backend", "model", "task", "mode", "n", "n_failed",
        "schema_validity_pct", "answer_accuracy_pct", "exec_accuracy_pct",
        "trace_accuracy_pct", "wrong_valid_pct", "mean_latency_ms",
        "mean_completion_tokens", "mean_structural_overhead",
    ], ([agg.backend_label, agg.model_id, agg.task, agg.mode, agg.n, agg.n_failed,
         _pts(agg.schema_validity), _pts(agg.answer_accuracy), _pts(agg.exec_accuracy),
         _pts(agg.trace_accuracy), _pts(agg.wrong_valid_rate),
         _fmt_opt(agg.mean_latency_ms), _fmt_opt(agg.mean_completion_tokens),
         _fmt_opt(agg.mean_structural_overhead, ".3f")] for agg in result.aggregates))
    _write_csv(paths["comparisons"], [
        "backend", "model", "task", "baseline_mode", "mode", "acc_metric", "n",
        "acc_baseline_pct", "acc_constrained_pct", "signed_delta_pts", "tax_pts",
        "tax_normalized", "epsilon", "delta_ci_low_pts", "delta_ci_high_pts",
        "validity_delta_pts", "validity_ci_low_pts", "validity_ci_high_pts",
        "wrong_valid_delta_pts", "wrong_valid_ci_low_pts", "wrong_valid_ci_high_pts",
        "bootstrap_resamples", "bootstrap_level", "bootstrap_version",
    ], ([cmp.backend_label, cmp.model_id, cmp.task, cmp.baseline_mode, cmp.mode,
         cmp.acc_metric, cmp.n, _pts(cmp.acc_baseline), _pts(cmp.acc_constrained),
         _pts(cmp.signed_delta, "+.1f"), _pts(cmp.tax), f"{cmp.tax_norm:.4f}",
         f"{DEFAULT_EPSILON:g}",
         *(_pts(v, "+.1f") for v in (cmp.acc_ci.low, cmp.acc_ci.high,
                                     cmp.validity_delta, cmp.validity_ci.low,
                                     cmp.validity_ci.high, cmp.wrong_valid_delta,
                                     cmp.wrong_valid_ci.low, cmp.wrong_valid_ci.high)),
         "exact", f"{cmp.acc_ci.level:g}", BOOTSTRAP_VERSION] for cmp in result.comparisons))
    _write_csv(paths["calendar"], [
        "backend", "model", "mode", "n", *CALENDAR_FAILURE_CLASSES,
        *[f"wrong_field_{f}" for f in CALENDAR_SEMANTIC_FIELDS],
    ], ([row.backend_label, row.model_id, row.mode, row.n,
         *(n for _, n in row.class_counts), *(n for _, n in row.field_counts)]
        for row in result.calendar))
    return paths
