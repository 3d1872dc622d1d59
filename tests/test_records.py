"""The records.jsonl line contract: what a read record is, and what a bad line is."""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import json.scanner
import re
import threading

import pytest

from ctax.cli import main
from ctax.errors import ConfigError
from ctax import records
from ctax.records import (RunRecord, drop_torn_tail, new_record, read_records,
                          record_from_dict, timestamp, write_records)
from reference_jsonl import loads_iter_jsonl

REQUIRED = {
    "instance_id": "arithmetic_two_step-00000",
    "model_id": "m-v1",
    "backend_label": "b",
    "family": "arithmetic_two_step",
    "mode": "prompt_json",
    "stage": "single",
    "constraint_kind": "none",
    "constraint_digest": None,
    "constraint_enforced": False,
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
    err = capsys.readouterr().err
    assert "records.jsonl:2" in err and "instance_id" in err


def test_unknown_keys_are_dropped():
    record = _records(1)[0]
    doc = {**record.to_dict(), "prompt": "retired field", "constraint_schema": {}}
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
                         RunRecord(**REQUIRED, packaging_failed=0, violations=[])])
    default, typed = path.read_text(encoding="utf-8").splitlines()
    assert '"packaging_failed"' not in default and '"violations"' not in default
    assert '"packaging_failed": 0,' in typed and '"violations": []' in typed
    assert read_records(path)[1].packaging_failed == 0


def test_new_record_is_the_dataclass_constructor():
    doc = {**REQUIRED, "schema_valid": True, "violations": ({"path": "", "keyword": "type"},),
           "calendar_wrong_fields": ("date", "topic"), "latency_ms": 12.5,
           "extraction_rule": "lenient/v2"}
    record = new_record(doc)
    assert record == RunRecord(**doc)
    assert vars(record) == vars(RunRecord(**doc))
    assert new_record(dict(REQUIRED)) == RunRecord(**REQUIRED)
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.schema_valid = False


@pytest.mark.parametrize("change, named", [
    (lambda doc: doc.pop("raw_text"), "missing field(s): raw_text"),
    (lambda doc: doc.update(prompt="retired"), "unknown field(s): prompt"),
    # one missing and one unknown: the field count alone would balance out
    (lambda doc: (doc.pop("raw_text"), doc.update(bogus=1)), "unknown field(s): bogus"),
])
def test_new_record_refuses_what_the_constructor_refuses(change, named):
    doc = dict(REQUIRED)
    change(doc)
    with pytest.raises(TypeError):
        RunRecord(**doc)
    with pytest.raises(TypeError, match=re.escape(named)):
        new_record(doc)


def test_a_dict_missing_a_field_is_refused_though_it_holds_an_unknown_key():
    doc = {**REQUIRED, "prompt": "retired field"}
    del doc["raw_text"]
    with pytest.raises(TypeError, match=re.escape("missing field(s): raw_text")):
        record_from_dict(doc)


def test_a_record_holds_its_fields_in_the_order_its_line_writes_them():
    names = [f.name for f in dataclasses.fields(RunRecord)]
    assert list(vars(new_record(dict(REQUIRED)))) == sorted(names)
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
        stage=st.sampled_from(["single", "stage1", "stage2"]), constraint_kind=text,
        constraint_digest=optional_text, constraint_enforced=st.booleans(), raw_text=text,
        parse_status=text,
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
        assert records._SCAN_ONCE.__class__ is json.scanner.c_make_scanner
    else:
        monkeypatch.setattr(records, "_SCAN_ONCE",
                            json.scanner.py_make_scanner(json.JSONDecoder()))
        monkeypatch.setattr(json._default_decoder, "scan_once",
                            json.scanner.py_make_scanner(json._default_decoder))
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
    b'{"n": [0, -0, -1.5e-3, 12345678901234567890, 1e400, NaN, Infinity, -Infinity]}',
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
], ids=["trailing-data", "two-objects", "two-objects-spaced", "bom", "nan", "infinity",
        "torn-string", "torn-object", "trailing-comma", "list", "string", "number",
        "not-utf8", "bare-cr", "leading-control", "deep-list", "deep-object"])
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
