"""Run records: the append-only JSONL ledger of every generation.

One record per (backend, model, mode, stage, instance). Records carry the
full scoring verdicts so downstream aggregation never needs to re-run a
checker, plus enough provenance (constraint digest, extraction rule,
config digest) to audit any number in a report. Records store nothing that
can be derived: the run's manifest.json holds each constraint document
keyed by its digest, and a prompt is rebuilt from tasks.jsonl and the
manifest's template_version. Canonical record lines
mask wall-clock fields (latency, timestamps, packaging time) so two runs
of the same config can be diffed for semantic identity.
"""

from __future__ import annotations

import datetime as dt
import json
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Any, Iterable, Iterator

from .errors import ConfigError

# Wall-clock fields masked by the canonical diff.
MASKED_FIELDS = ("latency_ms", "packaging_ms", "started_at", "finished_at")


@dataclass(frozen=True)
class RunRecord:
    instance_id: str
    model_id: str
    backend_label: str
    family: str
    mode: str
    stage: str  # single | stage1 | stage2
    constraint_kind: str
    constraint_digest: str | None
    constraint_enforced: bool
    raw_text: str
    parse_status: str
    violations: tuple[dict, ...] = ()
    schema_valid: bool = False
    answer_correct: bool = False
    exec_correct: bool = False
    trace_correct: bool | None = None
    error_class: str = "correct_valid"
    calendar_failure_class: str | None = None
    calendar_wrong_fields: tuple[str, ...] = ()
    packaged_text: str | None = None
    packaging_failed: bool = False
    derived_from: str | None = None
    latency_ms: float = 0.0
    latency_annotation: str | None = None  # "+ pkg." when packaging time is excluded
    packaging_ms: float | None = None
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    structural_overhead: float | None = None
    started_at: str | None = None
    finished_at: str | None = None
    extraction_rule: str = "lenient/v1"
    run_id: str | None = None
    config_digest: str | None = None
    failure_reason: str | None = None

    def key(self) -> tuple[str, str, str, str, str]:
        return (self.backend_label, self.model_id, self.mode, self.stage, self.instance_id)

    def to_dict(self) -> dict[str, Any]:
        doc = dict(vars(self))  # shallow; asdict would deep-copy every value
        doc["violations"] = [dict(v) for v in self.violations]
        doc["calendar_wrong_fields"] = list(self.calendar_wrong_fields)
        return doc


_FIELD_NAMES = {f.name for f in fields(RunRecord)}


def timestamp() -> str:
    """The current UTC time as records store it (started_at, finished_at)."""
    return dt.datetime.now(dt.timezone.utc).isoformat(timespec="milliseconds")


def record_from_dict(doc: dict[str, Any]) -> RunRecord:
    known = {k: v for k, v in doc.items() if k in _FIELD_NAMES}
    known["violations"] = tuple(known.get("violations") or ())
    known["calendar_wrong_fields"] = tuple(known.get("calendar_wrong_fields") or ())
    return RunRecord(**known)


def _line(record: RunRecord) -> str:
    return json.dumps(record.to_dict(), sort_keys=True, ensure_ascii=False) + "\n"


def write_records(path: str | Path, records: Iterable[RunRecord]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(map(_line, records))


def append_record(fh, record: RunRecord) -> None:
    fh.write(_line(record))
    fh.flush()


def iter_records(path: str | Path) -> Iterator[RunRecord]:
    """Records in file order; a line that is not a record raises
    ConfigError naming the file and line."""
    with Path(path).open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
                if not isinstance(doc, dict):
                    raise ValueError("not a JSON object")
                record = record_from_dict(doc)
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed record line ({exc})") from exc
            yield record


def read_records(path: str | Path) -> list[RunRecord]:
    return list(iter_records(path))


def drop_torn_tail(path: str | Path) -> None:
    """Cut a final line that lacks its newline: the trace of a write the
    process did not live to finish. Appending after it would glue the next
    record onto it."""
    with Path(path).open("rb+") as fh:
        data = fh.read()
        if data and not data.endswith(b"\n"):
            fh.truncate(data.rfind(b"\n") + 1)


def canonical_record_lines(path: str | Path) -> list[str]:
    """Records re-serialized for semantic comparison: wall-clock fields
    masked, rows sorted by key, keys sorted within each row."""
    lines = []
    for record in sorted(iter_records(path), key=lambda r: r.key()):
        doc = record.to_dict()
        for name in MASKED_FIELDS:
            doc[name] = None
        lines.append(json.dumps(doc, sort_keys=True, ensure_ascii=False))
    return lines


def canonical_diff(path_a: str | Path, path_b: str | Path) -> list[str]:
    """Human-readable differences between two record files after masking;
    empty list means semantically identical."""
    a = canonical_record_lines(path_a)
    b = canonical_record_lines(path_b)
    if a == b:
        return []
    diffs = []
    if len(a) != len(b):
        diffs.append(f"record count differs: {len(a)} vs {len(b)}")
    for i, (left, right) in enumerate(zip(a, b)):
        if left != right:
            diffs.append(f"record {i} differs")
            if len(diffs) > 10:
                diffs.append("...")
                break
    return diffs
