"""The records.jsonl line contract: what a read record is, and what a bad line is."""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import re
import threading

import pytest

from ctax.cli import main
from ctax.errors import ConfigError
from ctax import records
from ctax.records import (RunRecord, drop_torn_tail, new_record, read_records,
                          record_from_dict, timestamp, write_records)

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
])
def test_new_record_refuses_what_the_constructor_refuses(change, named):
    doc = dict(REQUIRED)
    change(doc)
    with pytest.raises(TypeError):
        RunRecord(**doc)
    with pytest.raises(TypeError, match=re.escape(named)):
        new_record(doc)


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
