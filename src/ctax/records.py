"""Run records: the append-only JSONL ledger of every generation.

One record per (backend, model, mode, stage, instance). Records carry the
full scoring verdicts so downstream aggregation never needs to re-run a
checker, plus enough provenance (constraint digest, extraction rule,
config digest) to audit any number in a report. Records store nothing that
can be derived: the run's manifest.json holds each constraint document
keyed by its digest, and a prompt is rebuilt from tasks.jsonl and the
manifest's template_version. A record's constraint kind is
modes.scoring_constraint(mode, family).kind, and its constraint was
enforced when modes.transported_constraint(mode, family, stage).kind is not
"none"; a line that still carries either key reads as before, the key
dropped. A line leaves out each optional field that holds its default,
the wall-clock fields too (_ALWAYS_WRITTEN names the keys every line
carries), and the reader fills it back in. Canonical record lines mask
the wall-clock fields (latency, timestamps, packaging time), present or
not, so two runs of the same config can be diffed for semantic identity.
"""

from __future__ import annotations

import datetime as dt
import functools
import json
import math
import os
import time
from dataclasses import MISSING, dataclass, fields
from operator import itemgetter
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, Mapping

from .errors import ConfigError
from .validation import one_shot_encoder

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
    constraint_digest: str | None
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


# Every field at its default, in sorted name order (the order _json_line
# writes them in), so a record's fields fill slots already in place. A
# required field holds None until they fill it.
_TEMPLATE = {f.name: None if f.default is MISSING else f.default
             for f in sorted(fields(RunRecord), key=lambda f: f.name)}
_REQUIRED = frozenset(f.name for f in fields(RunRecord) if f.default is MISSING)

# Each form of annotation RunRecord uses -> the types a record may hold in a
# field of that form, and the words a refusal uses for them. A float field
# also takes an int, and its value must be finite.
_FORMS = {
    "str": ((str,), "a string"),
    "str | None": ((str, type(None)), "a string or null"),
    "bool": ((bool,), "true or false"),
    "bool | None": ((bool, type(None)), "true, false or null"),
    "int | None": ((int, type(None)), "an integer or null"),
    "float": ((int, float), "a finite number"),
    "float | None": ((int, float, type(None)), "a finite number or null"),
}
# field -> (types, description), for every field but the two list fields check_line reads
FIELD_TYPES = {f.name: _FORMS[f.type] for f in fields(RunRecord) if f.type in _FORMS}
# Read by its truth value, a verdict of "no" would score as true.
VERDICTS = ("schema_valid", "answer_correct", "exec_correct", "trace_correct")


_EPOCH = dt.datetime(1970, 1, 1, tzinfo=dt.timezone.utc)


@functools.lru_cache(maxsize=1)
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


def adopt_record(state: dict[str, Any]) -> RunRecord:
    """The record whose __dict__ is state itself: a copy of _TEMPLATE with
    the fields its maker sets assigned in place, so it holds every field in
    line order, with no second fill. A key the template lacks (a misspelled
    field) is a TypeError. The caller hands state over and keeps no use of
    it."""
    if len(state) != len(_TEMPLATE):
        unknown = state.keys() - _TEMPLATE.keys()
        raise TypeError(f"unknown field(s): {', '.join(sorted(unknown))}")
    record = object.__new__(RunRecord)
    object.__setattr__(record, "__dict__", state)  # the frozen __setattr__ refuses it
    return record


# Every line ctax writes holds the required fields and the verdicts, so one
# C call each reads them; a line without one takes the slower path.
_REQUIRED_OF = itemgetter(*sorted(_REQUIRED))
_VERDICTS_OF = itemgetter(*VERDICTS)


def check_line(doc: Mapping[str, Any]) -> None:
    """The checks every records line passes, whoever reads it: a line's
    object, or a record's fields (vars). A missing required field, a verdict
    that is not a bool (trace_correct may be None), or a list field that is
    not a list of its items or null, is a TypeError saying so; an absent
    optional field holds its default, and a key that is not a field is left
    for the reader to drop."""
    try:
        _REQUIRED_OF(doc)
        valid, answer, exec_ok, trace = _VERDICTS_OF(doc)
    except KeyError:
        if not doc.keys() >= _REQUIRED:
            raise TypeError(f"missing field(s): {', '.join(sorted(_REQUIRED - doc.keys()))}") \
                from None
        valid, answer, exec_ok, trace = (doc.get(name, _TEMPLATE[name]) for name in VERDICTS)
    # VERDICTS against FIELD_TYPES, checked inline: a call per line read would
    # show on score_report
    if (type(valid) is not bool or type(answer) is not bool or type(exec_ok) is not bool
            or (trace is not None and type(trace) is not bool)):
        raise TypeError(field_fault(doc))
    # a string here would read as its characters; a record holds a tuple
    get = doc.get
    if (violations := get("violations")) is not None and violations.__class__ is not tuple:
        _check_list(violations, "violations", dict, "objects")
    if (wrong := get("calendar_wrong_fields")) is not None and wrong.__class__ is not tuple:
        _check_list(wrong, "calendar_wrong_fields", str, "strings")


def _check_list(value: Any, name: str, item: type, items: str) -> None:
    if type(value) is not list or any(type(v) is not item for v in value):
        raise TypeError(f"{name} must be a list of {items} or null, got {value!r}")


def record_from_dict(doc: dict[str, Any]) -> RunRecord:
    """A record from its JSON object, checked as check_line checks it:
    unknown keys are dropped, absent optional fields take their defaults,
    and a list field is read as a tuple (null as empty)."""
    check_line(doc)
    record = object.__new__(RunRecord)
    state = record.__dict__
    if not _fill(state, doc):
        state.clear()
        _fill(state, {k: v for k, v in doc.items() if k in _TEMPLATE})
    for name in ("violations", "calendar_wrong_fields"):
        if state[name].__class__ is not tuple:
            state[name] = tuple(state[name] or ())
    return record


def field_fault(values: Mapping[str, Any], names: Iterable[str] = VERDICTS) -> str | None:
    """What is wrong with the first of the named fields that holds a type
    its FIELD_TYPES entry does not allow, or a float that is not finite; or
    None. values are a record's fields (vars), or a line's object, where an
    absent field holds its default."""
    for name in names:
        value = values.get(name, _TEMPLATE[name])
        types, kind = FIELD_TYPES[name]
        if type(value) not in types or (type(value) is float and not math.isfinite(value)):
            return f"{name} must be {kind}, got {value!r}"
    return None


# Built once: json.dumps with options builds a fresh encoder per call. An
# encoder keeps no state between calls. NaN and the infinities are refused
# (ValueError): they are not JSON, and the reader refuses them.
_LINE_ENCODER = json.JSONEncoder(sort_keys=True, ensure_ascii=False, allow_nan=False)
# (value, 0) -> the line's text in chunks, from the C encoder built once.
# It skips the cycle check; no line holds a cycle.
_ENCODE_CHUNKS = one_shot_encoder(_LINE_ENCODER)


def _json_line(doc: dict[str, Any]) -> str:
    return "".join(_ENCODE_CHUNKS(doc, 0)) + "\n"


def open_jsonl(path: str | Path, mode: str = "w"):
    """A JSONL file opened for writing lines from _json_line, in UTF-8, each
    line ending written as given (a CSV row's \\r\\n too), on every platform.

    Lone surrogates (a completion may hold one: JSON's "\\ud800" decodes to
    it) are the only characters UTF-8 cannot encode, and json.dumps leaves
    non-ASCII only inside string literals, so backslashreplace writes each
    as its \\uXXXX JSON escape, which reads back as the same character.
    Every other line is unchanged."""
    return Path(path).open(mode, encoding="utf-8", errors="backslashreplace", newline="")


def replace_file(path: str | Path, lines: Iterable[str]) -> None:
    """Write lines to a sibling temporary file, then rename it over path, so
    a process killed mid-write, or an error raised while the lines are made,
    leaves the old file whole rather than truncated. Every file ctax writes
    whole goes through here: manifest, tasks, derived records, score CSVs
    and report. Nothing is flushed to disk: this guards against a killed
    process, not a power loss."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    partial = path.with_name(f"{path.name}.partial")
    try:
        with open_jsonl(partial) as fh:
            fh.writelines(lines)
        os.replace(partial, path)
    except BaseException:
        partial.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, docs: Iterable[dict[str, Any]]) -> None:
    """One sorted-key JSON object per line: records.jsonl and tasks.jsonl."""
    replace_file(path, map(_json_line, docs))


def _refuse_constant(name: str) -> float:
    raise ValueError(f"{name} is not a number a record may hold")


# Reads records and tasks lines: json's reader with NaN, Infinity and
# -Infinity refused. The hook runs only where a line holds one, so a
# well-formed line costs the same. Built once, like _LINE_ENCODER: iter_jsonl
# calls its scanner directly, since json.loads reaches it through three
# Python calls and two whitespace matches, and a stripped line has no
# whitespace for them to skip.
_RECORD_DECODER = json.JSONDecoder(parse_constant=_refuse_constant)


def iter_jsonl(path: str | Path, what: str, build: Callable[[dict], Any],
               digest=None) -> Iterator[Any]:
    """build(object) for each non-blank line, in file order. A line that is
    not one UTF-8 JSON object, that holds NaN, Infinity or -Infinity, or
    that build refuses (a ValueError, KeyError, TypeError or AttributeError),
    raises ConfigError naming the file and line. A digest given (a hashlib
    object) takes each line's bytes as read: the bytes built from, no more."""
    scan, decode = _RECORD_DECODER.scan_once, _RECORD_DECODER.decode
    update = None if digest is None else digest.update
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            if update is not None:
                update(line)
            line = line.strip()
            if not line:
                continue
            try:
                text = line.decode("utf-8")
                try:
                    doc, end = scan(text, 0)
                except StopIteration:
                    end = -1
                if end != len(text):  # not one JSON value: a whole-text read names the fault
                    doc = decode(text)
                if not isinstance(doc, dict):
                    raise ValueError("not a JSON object")
                item = build(doc)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed {what} line "
                                  f"({type(exc).__name__}: {exc})") from exc
            yield item


# Keys every records line carries: the required fields; the verdicts and
# error class, which readers of the raw lines (perfbench/workloads.py)
# index with no default, and which check_line and metrics.Cell.add read by
# one C call; and extraction_rule, whose default marks a line written
# before the field existed.
_ALWAYS_WRITTEN = _REQUIRED | {
    "error_class", "schema_valid", "answer_correct", "exec_correct", "trace_correct",
    "extraction_rule"}
# Every other field, the masked wall-clock ones too, is left out of a line
# while it holds its default; record_from_dict fills it back in.
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
    """Write the record's line to fh, unflushed: the caller flushes once per
    landing batch."""
    fh.write(_json_line(_record_doc(record)))


def read_records(path: str | Path, build: Callable[[dict], Any] | None = None,
                 digest=None) -> list:
    """build(object) for each records line, in file order: its record
    (record_from_dict) unless another build is given, as when score folds
    each line into its cell and keeps nothing of it. A digest as iter_jsonl's."""
    return list(iter_jsonl(path, "record", record_from_dict if build is None else build,
                           digest))


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
    for record in sorted(read_records(path), key=lambda r: r.key()):
        doc = record.to_dict()
        for name in MASKED_FIELDS:
            doc[name] = None
        # NaN allowed, unlike in a records line: a number read as an infinity
        # (1e999 overflows a float) shows in the diff rather than failing it
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
