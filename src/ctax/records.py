"""Run records: the append-only JSONL ledger of every generation.

One record per (backend, model, mode, stage, instance). Records carry the
full scoring verdicts so downstream aggregation never needs to re-run a
checker, plus enough provenance (constraint digest, extraction rule,
config digest) to audit any number in a report. Records store nothing that
can be derived: the run's manifest.json holds each constraint document
keyed by its digest, and a prompt is rebuilt from tasks.jsonl and the
manifest's template_version. A line leaves out each optional field that
holds its default (_ALWAYS_WRITTEN names the keys every line carries), and
the reader fills it back in. Canonical record lines mask wall-clock fields
(latency, timestamps, packaging time) so two runs of the same config can be
diffed for semantic identity.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import os
import time
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator

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
    extraction_rule: str = "lenient/v1"  # lines without the field predate lenient/v2
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


# Every field at its default, in sorted name order (the order _LINE_ENCODER
# writes them in), so a record's fields fill slots already in place. A
# required field holds None until they fill it.
_TEMPLATE = {f.name: None if f.default is MISSING else f.default
             for f in sorted(fields(RunRecord), key=lambda f: f.name)}
_REQUIRED = frozenset(f.name for f in fields(RunRecord) if f.default is MISSING)


_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)


@functools.lru_cache(maxsize=1)  # thread-safe; endpoint workers stamp concurrently
def _millisecond_stamp(ms: int) -> str:
    return (_EPOCH + dt.timedelta(milliseconds=ms)).isoformat(timespec="milliseconds")


def timestamp() -> str:
    """The current UTC time as records store it (started_at, finished_at):
    YYYY-MM-DDTHH:MM:SS.mmm+00:00. Each millisecond is formatted once, and
    every call within it returns that text."""
    return _millisecond_stamp(time.time_ns() // 1_000_000)


def _fill(state: dict[str, Any], fields: dict[str, Any]) -> bool:
    """Fill a record's __dict__: every field at its default, then fields over
    them. False when fields holds a key that is not a field."""
    state.update(_TEMPLATE)
    state.update(fields)
    return len(state) == len(_TEMPLATE)


def _check_required(fields: dict[str, Any]) -> None:
    """A missing required field is a TypeError. Called once fields filled a
    state without an unknown key: then fields as many as the template hold
    every field."""
    if len(fields) != len(_TEMPLATE) and not fields.keys() >= _REQUIRED:
        missing = _REQUIRED - fields.keys()
        raise TypeError(f"missing field(s): {', '.join(sorted(missing))}")


def new_record(fields: dict[str, Any]) -> RunRecord:
    """RunRecord(**fields): absent optional fields take their defaults, and an
    unknown field or a missing required one is a TypeError. Fills __dict__
    directly: the frozen dataclass __init__ (a setattr call per field) costs
    several times as much."""
    record = object.__new__(RunRecord)
    state = record.__dict__
    if not _fill(state, fields):
        unknown = state.keys() - _TEMPLATE.keys()
        raise TypeError(f"unknown field(s): {', '.join(sorted(unknown))}")
    _check_required(fields)
    return record


def record_from_dict(doc: dict[str, Any]) -> RunRecord:
    """A record from its JSON object: unknown keys are dropped, absent
    optional fields take their defaults and a missing required field is a
    TypeError."""
    record = object.__new__(RunRecord)
    state = record.__dict__
    if not _fill(state, doc):
        doc = {k: v for k, v in doc.items() if k in _TEMPLATE}
        state.clear()
        _fill(state, doc)
    _check_required(doc)
    state["violations"] = tuple(state["violations"] or ())
    state["calendar_wrong_fields"] = tuple(state["calendar_wrong_fields"] or ())
    return record


# Built once: json.dumps with options builds a fresh encoder per call. An
# encoder keeps no state between calls.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False)


def _json_line(doc: dict[str, Any]) -> str:
    return _LINE_ENCODER.encode(doc) + "\n"


def open_jsonl(path: str | Path, mode: str = "w"):
    """A JSONL file opened for writing lines from _json_line, in UTF-8.

    Lone surrogates (a completion may hold one: JSON's "\\ud800" decodes to
    it) are the only characters UTF-8 cannot encode, and json.dumps leaves
    non-ASCII only inside string literals, so backslashreplace writes each
    as its \\uXXXX JSON escape, which reads back as the same character.
    Every other line is unchanged."""
    return Path(path).open(mode, encoding="utf-8", errors="backslashreplace")


def write_jsonl(path: str | Path, docs: Iterable[dict[str, Any]]) -> None:
    """One sorted-key JSON object per line: records.jsonl and tasks.jsonl."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open_jsonl(path) as fh:
        fh.writelines(map(_json_line, docs))


# Built once, like _LINE_ENCODER: json.loads reaches this scanner through
# three Python calls and two whitespace matches, and a stripped line has no
# whitespace for them to skip. scan(text, 0) -> (value, end) or StopIteration.
_SCAN_ONCE = json.JSONDecoder().scan_once


def iter_jsonl(path: str | Path, what: str, build: Callable[[dict], Any]) -> Iterator[Any]:
    """build(object) for each non-blank line, in file order; a line that is
    not a UTF-8 JSON object, or that build refuses, raises ConfigError
    naming the file and line."""
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                text = line.decode("utf-8")
                try:
                    doc, end = _SCAN_ONCE(text, 0)
                except StopIteration:
                    end = -1
                if end != len(text):  # not one JSON value: json.loads names the fault
                    doc = json.loads(text)
                if not isinstance(doc, dict):
                    raise ValueError("not a JSON object")
                item = build(doc)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed {what} line "
                                  f"({type(exc).__name__}: {exc})") from exc
            yield item


# Keys every records line carries: the required fields; the verdicts and
# error class, which readers of the raw lines (perfbench/workloads.py)
# index with no default; extraction_rule, whose default marks a line
# written before the field existed; and the masked wall-clock fields, so
# every raw line holds each key a canonical line masks.
_ALWAYS_WRITTEN = _REQUIRED | {
    "error_class", "schema_valid", "answer_correct", "exec_correct", "trace_correct",
    "extraction_rule", *MASKED_FIELDS}
# Every other field is left out of a line while it holds its default;
# record_from_dict fills it back in.
_OMITTABLE = tuple((name, default) for name, default in _TEMPLATE.items()
                   if name not in _ALWAYS_WRITTEN)


def _record_doc(record: RunRecord) -> dict[str, Any]:
    """A record's line as a dict: its fields as they stand (json writes the
    tuples as the lists to_dict would copy them into), less every omittable
    field equal to its default in type and value (False never stands in for
    0)."""
    doc = dict(vars(record))
    for name, default in _OMITTABLE:
        value = doc[name]
        if type(value) is type(default) and value == default:
            del doc[name]
    return doc


def write_records(path: str | Path, records: Iterable[RunRecord]) -> None:
    write_jsonl(path, map(_record_doc, records))


def append_record(fh, record: RunRecord) -> None:
    fh.write(_json_line(_record_doc(record)))
    fh.flush()


def iter_records(path: str | Path) -> Iterator[RunRecord]:
    return iter_jsonl(path, "record", record_from_dict)


def read_records(path: str | Path) -> list[RunRecord]:
    return list(iter_records(path))


_TAIL_BLOCK = 64 * 1024


def drop_torn_tail(path: str | Path) -> None:
    """Cut a final line that lacks its newline: the trace of a write the
    process did not live to finish. Appending after it would glue the next
    record onto it. Reads back from the end, a block at a time, only as far
    as the last newline."""
    with Path(path).open("rb+") as fh:
        end = fh.seek(0, os.SEEK_END)
        if not end:
            return
        fh.seek(end - 1)
        if fh.read(1) == b"\n":
            return
        while end:
            start = max(0, end - _TAIL_BLOCK)
            fh.seek(start)
            newline = fh.read(end - start).rfind(b"\n")
            if newline != -1:
                fh.truncate(start + newline + 1)
                return
            end = start
        fh.truncate(0)


def canonical_record_lines(path: str | Path) -> list[str]:
    """Records re-serialized for semantic comparison: wall-clock fields
    masked, rows sorted by key, keys sorted within each row."""
    lines = []
    for record in sorted(iter_records(path), key=lambda r: r.key()):
        doc = record.to_dict()
        for name in MASKED_FIELDS:
            doc[name] = None
        lines.append(_LINE_ENCODER.encode(doc))
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
