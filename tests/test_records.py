"""The records.jsonl line contract: what a read record is, and what a bad line is."""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import json.scanner
import re
import threading
from pathlib import Path

import pytest

from ctax.cli import main
from ctax.errors import ConfigError
from ctax import metrics, records
from ctax.harness import score
from ctax.records import (RunRecord, drop_torn_tail, read_records,
                          record_from_dict, timestamp, write_records)
from reference_jsonl import loads_iter_jsonl

REQUIRED = {
    "instance_id": "arithmetic_two_step-00000",
    "model_id": "m-v1",
    "backend_label": "b",
    "family": "arithmetic_two_step",
    "mode": "prompt_json",
    "stage": "single",
    "constraint_digest": None,
    "raw_text": '{"answer": "4"}',
    "parse_status": "ok",
}


def _records(n=3):
    return [RunRecord(**{**REQUIRED, "instance_id": f"arithmetic_two_step-{i:05d}"},
                      schema_valid=True, answer_correct=i % 2 == 0,
                      violations=({"path": "/answer", "rule": "type"},),
                      calendar_wrong_fields=("date",))
            for i in range(n)]


def test_a_line_without_a_required_field_names_its_file_and_line(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    write_records(path, _records())
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    doc = json.loads(lines[1])
    del doc["instance_id"]
    lines[1] = json.dumps(doc) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError, match=r"records\.jsonl:2: malformed record line"):
        read_records(path)
    capsys.readouterr()
    assert main(["score", "--records", str(path), "--out", str(tmp_path / "scores")]) == 2
    assert capsys.readouterr().err == (f"[ERROR] {path}:2: malformed record line "
                                       "(TypeError: missing field(s): instance_id)\n")


@pytest.mark.parametrize("name, value", [
    ("answer_correct", "no"), ("schema_valid", 0.5), ("exec_correct", None),
    ("answer_correct", 1), ("trace_correct", "yes"), ("trace_correct", 0),
])
def test_a_verdict_that_is_not_a_bool_names_its_file_and_line(tmp_path, capsys, name, value):
    path = tmp_path / "records.jsonl"
    write_records(path, _records())
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1] = json.dumps({**json.loads(lines[1]), name: value}) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    with pytest.raises(ConfigError, match=rf"records\.jsonl:2: malformed record line "
                                          rf"\(TypeError: .*{name}"):
        read_records(path)
    capsys.readouterr()
    assert main(["score", "--records", str(path), "--out", str(tmp_path / "scores")]) == 2
    kind = "true, false or null" if name == "trace_correct" else "true or false"
    assert capsys.readouterr().err == (f"[ERROR] {path}:2: malformed record line "
                                       f"(TypeError: {name} must be {kind}, got {value!r})\n")


# (verdict, a value that is not a bool) for score's in-memory records
_NOT_BOOLS = [(name, value) for name in ("schema_valid", "answer_correct", "exec_correct",
                                         "trace_correct")
              for value in (None, "yes", 2, 0.5)
              if not (name == "trace_correct" and value is None)]


@pytest.mark.parametrize("name, value", _NOT_BOOLS, ids=[f"{n}={v!r}" for n, v in _NOT_BOOLS])
def test_score_refuses_an_in_memory_verdict_that_is_not_a_bool_naming_its_record(name, value):
    records = _scoreable()
    records[1] = dataclasses.replace(records[1], **{name: value})
    with pytest.raises(ConfigError, match=re.escape(
            f"record b/m-v1/prompt_json/single/{records[1].instance_id}: {name} must be true")):
        score(records)


def _scoreable():
    """Two families by two modes, three instances each; the calendar
    instances fail on their attendee."""
    out = []
    for family in ("arithmetic_two_step", "tool_call_argument"):
        calendar = family == "tool_call_argument"
        for mode in ("prompt_json", "freeform"):
            for i in range(3):
                out.append(RunRecord(
                    **{**REQUIRED, "family": family, "mode": mode,
                       "instance_id": f"{family}-{i:05d}"},
                    schema_valid=True, answer_correct=not calendar, exec_correct=not calendar,
                    latency_ms=10.0 + i, structural_overhead=0.5, completion_tokens=20,
                    extraction_rule="lenient/v3", config_digest="d1",
                    calendar_failure_class="wrong_attendee" if calendar else None,
                    calendar_wrong_fields=("attendee",) if calendar else ()))
    return out


# (field, its value as JSON text, the whole refusal after "[ERROR] "): {line}
# stands for the line's "path:lineno: malformed record line", {record} for
# the record's backend/model/mode/stage/instance
_HOSTILE = [
    ("structural_overhead", "NaN",
     "{line} (ValueError: NaN is not a number a record may hold)"),
    ("latency_ms", "Infinity", "{line} (ValueError: Infinity is not a number a record may hold)"),
    ("structural_overhead", "-Infinity",
     "{line} (ValueError: -Infinity is not a number a record may hold)"),
    ("calendar_wrong_fields", '"attendee"',
     "{line} (TypeError: calendar_wrong_fields must be a list of strings or null, "
     "got 'attendee')"),
    ("calendar_wrong_fields", "[1]",
     "{line} (TypeError: calendar_wrong_fields must be a list of strings or null, got [1])"),
    ("violations", '"type"',
     "{line} (TypeError: violations must be a list of objects or null, got 'type')"),
    ("latency_ms", '"fast"', "record {record}: latency_ms must be a finite number, got 'fast'"),
    ("latency_ms", "true", "record {record}: latency_ms must be a finite number, got True"),
    ("latency_ms", "null", "record {record}: latency_ms must be a finite number, got None"),
    ("latency_ms", "1e999", "record {record}: latency_ms must be a finite number, got inf"),
    ("completion_tokens", '"20"',
     "record {record}: completion_tokens must be an integer or null, got '20'"),
    ("structural_overhead", "false",
     "record {record}: structural_overhead must be a finite number or null, got False"),
    ("mode", '["x"]', "record {record}: mode must be a string, got ['x']"),
    ("mode", "5", "record {record}: mode must be a string, got 5"),
    ("backend_label", "null", "record {record}: backend_label must be a string, got None"),
    ("backend_label", '["x"]', "record {record}: backend_label must be a string, got ['x']"),
    ("family", '"all"',
     "record {record}: family must not be 'all', the task of the cross-family rows"),
    ("instance_id", "7", "record {record}: instance_id must be a string, got 7"),
    ("extraction_rule", '["lenient/v3"]',
     "record {record}: extraction_rule must be a string, got ['lenient/v3']"),
    ("config_digest", '{"d": 1}',
     "record {record}: config_digest must be a string or null, got {{'d': 1}}"),
    ("latency_annotation", '["+ pkg."]',
     "record {record}: latency_annotation must be a string or null, got ['+ pkg.']"),
    ("calendar_failure_class", '"late"',
     "record {record}: calendar_failure_class must be one of correct, wrong_duration, "
     "wrong_topic, wrong_date, wrong_time, wrong_attendee, multi_field or null, got 'late'"),
]


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("name, value, refusal", _HOSTILE,
                         ids=[f"{name}={value}" for name, value, _ in _HOSTILE])
def test_a_hostile_records_line_exits_2_naming_its_line_or_record(tmp_path, capsys, command,
                                                                    name, value, refusal):
    path = tmp_path / "records.jsonl"
    records = _scoreable()
    write_records(path, records)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = 8 if name.startswith("calendar") else 2  # a calendar record, or a plain one
    doc = json.loads(lines[lineno - 1])
    doc[name] = "\x00hostile"
    lines[lineno - 1] = json.dumps(doc).replace('"\\u0000hostile"', value) + "\n"
    path.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--records", str(path), "--out", str(tmp_path / "out")]) == 2
    read = {**vars(records[lineno - 1]), name: json.loads(value)}
    record = "/".join(map(str, (read["backend_label"], read["model_id"], read["mode"],
                                read["stage"], read["instance_id"])))
    assert capsys.readouterr().err == "[ERROR] " + refusal.format(
        line=f"{path}:{lineno}: malformed record line", record=record) + "\n"
    assert not (tmp_path / "out").exists()


def test_a_calendar_class_outside_the_classes_is_refused_in_any_family(tmp_path, capsys):
    path = tmp_path / "records.jsonl"
    records = _scoreable()
    records[1] = dataclasses.replace(records[1], calendar_failure_class="late")  # arithmetic
    write_records(path, records)
    capsys.readouterr()
    assert main(["score", "--records", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"[ERROR] record b/m-v1/prompt_json/single/{records[1].instance_id}: "
        "calendar_failure_class must be one of correct, wrong_duration, wrong_topic, "
        "wrong_date, wrong_time, wrong_attendee, multi_field or null, got 'late'\n")
    assert not (tmp_path / "out").exists()


def test_a_record_line_is_never_written_with_nan_or_infinity(tmp_path):
    path = tmp_path / "records.jsonl"
    for value in (float("nan"), float("inf"), -float("inf")):
        with pytest.raises(ValueError):
            write_records(path, [RunRecord(**REQUIRED, latency_ms=value)])
        with open(path, "w", encoding="utf-8") as fh, pytest.raises(ValueError):
            records.append_record(fh, RunRecord(**REQUIRED, structural_overhead=value))


def test_canonical_lines_show_a_number_read_as_infinite(tmp_path):
    finite, huge = tmp_path / "finite.jsonl", tmp_path / "huge.jsonl"
    write_records(finite, [RunRecord(**REQUIRED, structural_overhead=0.5)])
    huge.write_text(finite.read_text(encoding="utf-8").replace(
        '"structural_overhead": 0.5', '"structural_overhead": 1e999'), encoding="utf-8")
    assert '"structural_overhead": Infinity' in records.canonical_record_lines(huge)[0]
    assert records.canonical_diff(finite, huge) == ["record 0 differs"]


def test_a_null_list_field_reads_as_empty(tmp_path):
    record = record_from_dict({**REQUIRED, "violations": None, "calendar_wrong_fields": None})
    assert record.violations == () and record.calendar_wrong_fields == ()


def test_every_scalar_field_and_every_checked_name_has_its_types():
    """FIELD_TYPES reads each field's types off its RunRecord annotation, so
    a field annotated in a form it does not know has no entry: the field is
    named here, not skipped by every type check."""
    from ctax import harness

    scalars = [f.name for f in dataclasses.fields(RunRecord)
               if f.name not in ("violations", "calendar_wrong_fields")]
    assert [name for name in scalars if name not in records.FIELD_TYPES] == []
    checked = (*records.VERDICTS, *harness._SCORED_FIELDS)
    assert [name for name in checked if name not in records.FIELD_TYPES] == []


def test_readme_lists_the_required_fields_as_records_defines_them():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    lists = re.findall(r"the (?:9 required fields|nine fields without a default)\s+\(([^)]*)\)",
                       readme)
    assert len(lists) == 2
    for text in lists:
        assert re.findall(r"`(\w+)`", text) == sorted(records._REQUIRED)


def test_a_null_trace_verdict_and_bool_verdicts_are_read():
    doc = {**REQUIRED, "schema_valid": True, "answer_correct": False, "exec_correct": True,
           "trace_correct": None}
    assert record_from_dict(doc) == RunRecord(**doc)
    assert record_from_dict({**doc, "trace_correct": False}).trace_correct is False


def test_unknown_keys_are_dropped():
    record = _records(1)[0]
    doc = {**record.to_dict(), "prompt": "retired field", "constraint_schema": {},
           "constraint_kind": "schema", "constraint_enforced": True}
    assert record_from_dict(doc) == record
    assert not hasattr(record_from_dict(doc), "prompt")


def test_a_read_record_is_frozen(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, _records(1))
    record = read_records(path)[0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.answer_correct = True


def test_absent_optional_fields_take_their_defaults():
    record = record_from_dict(dict(REQUIRED))
    assert record == RunRecord(**REQUIRED)
    assert record.extraction_rule == "lenient/v1"
    assert record.violations == () and record.calendar_wrong_fields == ()
    assert record.trace_correct is None and record.error_class == "correct_valid"


def test_a_line_leaves_out_a_default_only_when_type_and_value_match(tmp_path):
    path = tmp_path / "records.jsonl"
    write_records(path, [RunRecord(**REQUIRED),
                         RunRecord(**REQUIRED, packaging_failed=0, violations=[], latency_ms=0)])
    default, typed = path.read_text(encoding="utf-8").splitlines()
    assert '"packaging_failed"' not in default and '"violations"' not in default
    assert not {name for name in records.MASKED_FIELDS if f'"{name}"' in default}
    assert '"packaging_failed": 0,' in typed and '"violations": []' in typed
    assert '"latency_ms": 0,' in typed
    assert read_records(path)[1].packaging_failed == 0


def test_every_key_read_in_one_c_call_is_on_every_line():
    """A key an itemgetter reads with no default must be on every line, or
    each line that lacks it falls onto its reader's slow path."""
    for getter in (records._REQUIRED_OF, records._VERDICTS_OF, metrics._ALWAYS_READ):
        _, keys = getter.__reduce__()
        assert set(keys) <= records._ALWAYS_WRITTEN, keys


def test_a_record_read_from_its_fields_is_the_constructed_one():
    doc = {**REQUIRED, "schema_valid": True, "violations": ({"path": "", "keyword": "type"},),
           "calendar_wrong_fields": ("date", "topic"), "latency_ms": 12.5,
           "extraction_rule": "lenient/v2"}
    record = RunRecord(**doc)
    assert record == record_from_dict(doc)
    assert vars(record) == vars(record_from_dict(doc))
    assert RunRecord(**REQUIRED) == record_from_dict(dict(REQUIRED))
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.schema_valid = False


@pytest.mark.parametrize("change, named", [
    (lambda doc: doc.pop("raw_text"), "'raw_text'"),
    (lambda doc: doc.update(prompt="retired"), "'prompt'"),
    # one missing and one unknown: the unknown one is named
    (lambda doc: (doc.pop("raw_text"), doc.update(bogus=1)), "'bogus'"),
])
def test_the_constructor_refuses_a_missing_or_unknown_field(change, named):
    doc = dict(REQUIRED)
    change(doc)
    with pytest.raises(TypeError, match=re.escape(named)):
        RunRecord(**doc)


def test_a_dict_missing_a_field_is_refused_though_it_holds_an_unknown_key():
    doc = {**REQUIRED, "prompt": "retired field"}
    del doc["raw_text"]
    with pytest.raises(TypeError, match=re.escape("missing field(s): raw_text")):
        record_from_dict(doc)


def test_a_record_holds_its_fields_in_the_order_its_line_writes_them():
    names = [f.name for f in dataclasses.fields(RunRecord)]
    assert list(vars(record_from_dict(dict(REQUIRED)))) == sorted(names)
    assert list(vars(record_from_dict({**REQUIRED, "prompt": "retired"}))) == sorted(names)


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    st = None


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_records_round_trip_through_the_jsonl_file(tmp_path):
    text = st.text(max_size=12)
    optional_text = st.none() | text
    records = st.builds(
        RunRecord,
        instance_id=text, model_id=text, backend_label=text, family=text, mode=text,
        stage=st.sampled_from(["single", "stage1", "stage2"]), constraint_digest=optional_text,
        raw_text=text, parse_status=text,
        violations=st.lists(st.dictionaries(text, text | st.integers(), max_size=2),
                            max_size=2).map(tuple),
        schema_valid=st.booleans(), answer_correct=st.booleans(), exec_correct=st.booleans(),
        trace_correct=st.none() | st.booleans(), error_class=text,
        calendar_failure_class=optional_text,
        calendar_wrong_fields=st.lists(text, max_size=3).map(tuple),
        packaged_text=optional_text, packaging_failed=st.booleans(),
        latency_ms=st.floats(0, 1e6), prompt_tokens=st.none() | st.integers(0, 10**6),
        structural_overhead=st.none() | st.floats(0, 1), extraction_rule=text,
        failure_reason=optional_text)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(st.lists(records, max_size=4))
    def check(written):
        path = tmp_path / "records.jsonl"
        write_records(path, written)
        read = read_records(path)
        assert read == written
        for record in read:
            assert isinstance(record.violations, tuple)
            assert isinstance(record.calendar_wrong_fields, tuple)

    check()


# ---------------------------------------------------------------------------
# the JSONL reader against one json.loads call per line
# ---------------------------------------------------------------------------

@pytest.fixture(params=["c", "python"])
def scanner(request, monkeypatch):
    """Read with the C scanner, or with the pure-Python one everywhere, as in
    an interpreter without the json accelerator."""
    if request.param == "c":
        if json.scanner.c_make_scanner is None:
            pytest.skip("the C json scanner is not built")
        assert records._RECORD_DECODER.scan_once.__class__ is json.scanner.c_make_scanner
    else:
        monkeypatch.setattr(records._RECORD_DECODER, "scan_once",
                            json.scanner.py_make_scanner(records._RECORD_DECODER))
        # and every decoder built from here on, such as the reference's
        monkeypatch.setattr(json.scanner, "make_scanner", json.scanner.py_make_scanner)
    return request.param


def _read(reader, path):
    """What a reader makes of a file: its objects (repr keeps key order and
    reads NaN as itself), or its ConfigError message."""
    try:
        return repr(list(reader(path, "record", lambda doc: doc)))
    except ConfigError as exc:
        return f"ConfigError: {exc}"


def _agree(path, scanner):
    read, reference = _read(records.iter_jsonl, path), _read(loads_iter_jsonl, path)
    if scanner == "python":  # where pure-Python code hits the limit depends on the caller
        read, reference = (re.sub(r"RecursionError: .*", "RecursionError", text)
                           for text in (read, reference))
    assert read == reference
    return read


_DEEP_LIST = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("line", [
    b'{"a": 1, "b": [true, false, null], "c": {"d": "e"}}',
    b'{}',
    rb'{"x": "caf\u00e9 \ud800 \"q\" \\ \n", "y": "\u2028 ' + "café ☃".encode() + b'"}',
    b'{"n": [0, -0, -1.5e-3, 12345678901234567890, 1e400]}',
    b'{"a": 1, "a": 2}',
    b'  {"a" :\t1 ,  "b":[ ] }  ',
    b'{"a": 1}\r',
    b'\x0c{"a": 1}\x0b',
], ids=["nested", "empty", "strings", "numbers", "duplicate-key", "inner-whitespace",
        "crlf", "formfeed"])
def test_the_reader_reads_what_json_loads_reads(tmp_path, scanner, line):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"first": 1}\n\n   \n' + line + b"\n" + line)
    read = _agree(path, scanner)
    assert not read.startswith("ConfigError"), read


@pytest.mark.parametrize("line", [
    b'{"a": 1} x',
    b'{"a": 1}{"b": 2}',
    b'{"a": 1} {"b": 2}',
    b'\xef\xbb\xbf{"a": 1}',
    b"NaN",
    b"-Infinity",
    b'{"a": "torn',
    b'{"a": 1',
    b'{"a": 1,}',
    b"[1, 2]",
    b'"a string"',
    b"42",
    b'{"a": "\xff"}',
    b'{"a": "x\ry"}',
    b'\x1c{"a": 1}',
    _DEEP_LIST,
    b'{"a": ' * 100_000 + b"1" + b"}" * 100_000,
    b'{"n": NaN}',
    b'{"n": [1, Infinity]}',
    b'{"n": {"m": -Infinity}}',
], ids=["trailing-data", "two-objects", "two-objects-spaced", "bom", "nan", "infinity",
        "torn-string", "torn-object", "trailing-comma", "list", "string", "number",
        "not-utf8", "bare-cr", "leading-control", "deep-list", "deep-object",
        "nan-inside", "infinity-inside", "minus-infinity-inside"])
def test_a_malformed_line_fails_as_json_loads_fails(tmp_path, scanner, line):
    path = tmp_path / "records.jsonl"
    path.write_bytes(b'{"first": 1}\n' + line + b"\n")
    read = _agree(path, scanner)
    assert read.startswith(f"ConfigError: {path}:2: malformed record line ("), read


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_the_reader_agrees_with_json_loads_on_generated_objects(tmp_path, scanner):
    scalars = (st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
               | st.text(max_size=8))
    values = st.recursive(scalars, lambda inner: st.lists(inner, max_size=3)
                          | st.dictionaries(st.text(max_size=5), inner, max_size=3),
                          max_leaves=12)
    objects = st.dictionaries(st.text(max_size=5), values, max_size=5)
    lines = st.tuples(objects, st.booleans(), st.integers(0, 10**6)).map(
        lambda t: (json.dumps(t[0], ensure_ascii=t[1]), t[2]))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.lists(lines, min_size=1, max_size=4), st.booleans())
    def check(drawn, torn):
        texts = [text for text, _ in drawn]
        if torn:  # cut the last line short, as a killed writer leaves it
            text, cut = drawn[-1]
            texts[-1] = text[:cut % max(len(text), 1)]
        path = tmp_path / "records.jsonl"
        path.write_text("".join(text + "\n" for text in texts), encoding="utf-8",
                        errors="backslashreplace")
        _agree(path, scanner)

    check()


# ---------------------------------------------------------------------------
# the clock records stamp (started_at, finished_at)
# ---------------------------------------------------------------------------

_STAMP_RE = re.compile(r"\d{4}-\d\d-\d\dT\d\d:\d\d:\d\d\.\d{3}\+00:00")
_MS = dt.timedelta(milliseconds=1)


def test_timestamp_is_utc_to_the_millisecond():
    for _ in range(200):
        before = dt.datetime.now(dt.timezone.utc)
        text = timestamp()
        after = dt.datetime.now(dt.timezone.utc)
        assert _STAMP_RE.fullmatch(text), text
        stamp = dt.datetime.fromisoformat(text)
        assert stamp.utcoffset() == dt.timedelta(0)
        assert before - _MS <= stamp <= after + _MS


def test_timestamp_never_decreases():
    stamps = [timestamp() for _ in range(50_000)]
    assert stamps == sorted(stamps)  # fixed-width text: text order is time order
    assert len(set(stamps)) > 1


def test_timestamp_is_well_formed_from_four_threads():
    barrier = threading.Barrier(4)
    stamps: list[list[str]] = [[] for _ in range(4)]

    def stamp(out: list[str]) -> None:
        barrier.wait(timeout=10)
        out.extend(timestamp() for _ in range(20_000))

    threads = [threading.Thread(target=stamp, args=(out,)) for out in stamps]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    for out in stamps:
        assert len(out) == 20_000
        assert all(_STAMP_RE.fullmatch(text) for text in out)
        assert out == sorted(out)


# ---------------------------------------------------------------------------
# drop_torn_tail: the final line a killed write left without its newline
# ---------------------------------------------------------------------------

_LINE = b'{"instance_id": "x"}\n'


@pytest.mark.parametrize("content, kept", [
    # the torn line is longer than a read block, so its newline is blocks back
    (_LINE * 3 + b"y" * (records._TAIL_BLOCK + 100), _LINE * 3),
    (_LINE * 3 + b"y" * records._TAIL_BLOCK, _LINE * 3),  # newline ends the block before
    (b'{"instance_id": "torn', b""),  # one torn line: nothing is left
    (b"z" * (2 * records._TAIL_BLOCK + 1), b""),
    (_LINE * 3, _LINE * 3),  # clean: unchanged
    (b"", b""),
], ids=["torn-across-blocks", "torn-to-a-block-edge", "one-torn-line",
        "one-torn-line-of-three-blocks", "clean", "empty"])
def test_drop_torn_tail(tmp_path, content, kept):
    path = tmp_path / "records.jsonl"
    path.write_bytes(content)
    drop_torn_tail(path)
    assert path.read_bytes() == kept
