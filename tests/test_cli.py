"""CLI subcommands, exercised in-process through main()."""

from __future__ import annotations

import hashlib
import json
import os
import re
import socket
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ctax
import ctax.cli
from ctax.cli import build_parser, main
from ctax.harness import SuiteConfig
from ctax.metrics import DEFAULT_BASELINE_MODE, BootstrapConfig
from ctax.records import canonical_diff, read_records, write_records
from ctax.taskgen import CALENDAR_SEMANTIC_FIELDS, read_suite
from test_harness import (_GOLDEN_FAILED_SCORE_SHA256, _GOLDEN_SCORE_SHA256, _generation_failed,
                          _golden_records)


def _run_config_doc(out_modes=("prompt_json", "answer_only_schema")):
    return {
        "run_id": "cli-run",
        "suite": {"families": ["boolean_logic"], "count": 4, "seed": 3},
        "modes": list(out_modes),
        "backends": [{"kind": "oracle", "label": "oracle", "model_id": "oracle-v1"}],
        "bootstrap": {"resamples": 60, "level": 0.95, "seed": 0},
    }


def test_gen_writes_suite(tmp_path, capsys):
    out = tmp_path / "tasks.jsonl"
    code = main(["gen", "--family", "boolean_logic", "--family", "symbolic_string",
                 "--count", "5", "--seed", "2", "--out", str(out)])
    assert code == 0
    suite = read_suite(out)
    assert len(suite) == 10
    assert {i.family for i in suite} == {"boolean_logic", "symbolic_string"}
    assert "wrote 10 instances" in capsys.readouterr().out


def test_gen_rejects_unknown_family(tmp_path, capsys):
    try:
        main(["gen", "--family", "calculus", "--out", str(tmp_path / "t.jsonl")])
    except SystemExit as exc:  # argparse choice failure
        assert exc.code == 2
    else:
        raise AssertionError("expected argparse to reject the family")


def test_run_score_report_pipeline(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc()))
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    assert (out_dir / "records.jsonl").exists()
    assert len(read_records(out_dir / "records.jsonl")) == 8

    # running again without --resume is a config error surfaced as exit 2
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 2
    assert "resume" in capsys.readouterr().err
    assert main(["run", "--config", str(config_path), "--out", str(out_dir),
                 "--resume"]) == 0

    score_dir = tmp_path / "scores"
    assert main(["score", "--records", str(out_dir / "records.jsonl"),
                 "--out", str(score_dir)]) == 0
    assert (score_dir / "aggregates.csv").exists()
    assert (score_dir / "comparisons.csv").exists()
    assert (score_dir / "calendar_failures.csv").exists()

    report_path = tmp_path / "report.md"
    assert main(["report", "--records", str(out_dir / "records.jsonl"),
                 "--out", str(report_path)]) == 0
    assert "# Constraint-tax report" in report_path.read_text()


def test_run_command_names_the_records_file(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc(("prompt_json",))))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    assert capsys.readouterr().out == f"[INFO] run complete: {tmp_path / 'run' / 'records.jsonl'}\n"


def test_score_accepts_multiple_record_files(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc(("prompt_json",))))
    main(["run", "--config", str(config_path), "--out", str(tmp_path / "a")])
    config_b = _run_config_doc(("freeform",))
    (tmp_path / "config-b.json").write_text(json.dumps(config_b))
    main(["run", "--config", str(tmp_path / "config-b.json"),
          "--out", str(tmp_path / "b")])
    score_dir = tmp_path / "scores"
    assert main(["score",
                 "--records", str(tmp_path / "a" / "records.jsonl"),
                 "--records", str(tmp_path / "b" / "records.jsonl"),
                 "--out", str(score_dir)]) == 0
    agg = (score_dir / "aggregates.csv").read_text().splitlines()
    assert len(agg) == 3  # header + one row per mode


def test_derive_delayed_command(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc(("prompt_json", "freeform"))))
    out_dir = tmp_path / "run"
    main(["run", "--config", str(config_path), "--out", str(out_dir)])

    # mixed modes without --source-mode is an error
    capsys.readouterr()
    code = main(["derive-delayed", "--records", str(out_dir / "records.jsonl"),
                 "--tasks", str(out_dir / "tasks.jsonl"),
                 "--out", str(tmp_path / "derived.jsonl")])
    assert code == 2
    assert "--source-mode" in capsys.readouterr().err

    code = main(["derive-delayed", "--records", str(out_dir / "records.jsonl"),
                 "--tasks", str(out_dir / "tasks.jsonl"),
                 "--source-mode", "prompt_json",
                 "--out", str(tmp_path / "derived.jsonl")])
    assert code == 0
    derived = read_records(tmp_path / "derived.jsonl")
    assert len(derived) == 4
    assert all(r.mode == "delayed_constraint" for r in derived)
    assert all(r.derived_from == "prompt_json" for r in derived)


def test_derive_delayed_refuses_a_source_score_would_refuse(tmp_path, capsys):
    # 1e999 reads as infinity, which no records line may be written with
    records = _scored_run(tmp_path)
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    doc = json.loads(lines[0])
    lines[0] = json.dumps({**doc, "latency_ms": "\x00"}).replace('"\\u0000"', "1e999") + "\n"
    records.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "derived.jsonl"
    assert main(["derive-delayed", "--records", str(records), "--source-mode", "prompt_json",
                 "--tasks", str(records.parent / "tasks.jsonl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert f"[ERROR] record oracle/oracle-v1/prompt_json/single/{doc['instance_id']}: " \
           "latency_ms must be a finite number, got inf" in err, err
    assert not out.exists()


@pytest.mark.parametrize("command", ["score", "resume", "derive-delayed"])
@pytest.mark.parametrize("value, fault", [
    ("null", "must be a string, got None"), ('["x"]', "must be a string, got ['x']"),
    ('"Generation_Failed"', f"must be one of {', '.join(ctax.ERROR_CLASSES)} or "
                            "generation_failed, got 'Generation_Failed'"),
], ids=["null", '["x"]', '"Generation_Failed"'])
def test_an_error_class_outside_the_taxonomy_exits_2_naming_its_record(tmp_path, capsys,
                                                                     command, value, fault):
    """Score reads error_class to tell a failed generation from a scored
    record, so a value outside ERROR_CLASSES and generation_failed is
    refused, not scored as a valid answer."""
    records = _scored_run(tmp_path)
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines) if '"mode": "prompt_json"' in line)
    doc = json.loads(lines[lineno])
    lines[lineno] = json.dumps({**doc, "error_class": "\x00"}).replace('"\\u0000"', value) + "\n"
    records.write_text("".join(lines), encoding="utf-8")
    before = records.read_bytes()
    out = tmp_path / "out"
    argv = {"score": ["score", "--records", str(records), "--out", str(out)],
            "resume": ["run", "--config", str(tmp_path / "config.json"),
                       "--out", str(records.parent), "--resume"],
            "derive-delayed": ["derive-delayed", "--records", str(records),
                               "--source-mode", "prompt_json", "--tasks",
                               str(records.parent / "tasks.jsonl"), "--out", str(out)]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"[ERROR] record oracle/oracle-v1/prompt_json/single/{doc['instance_id']}: "
        f"error_class {fault}\n")
    assert records.read_bytes() == before and not out.exists()


@pytest.mark.parametrize("command", ["score", "report", "resume"])
@pytest.mark.parametrize("field, value, fault", [
    ("error_class", "Generation_Failed", "error_class must be "),
    ("packaging_failed", "no", "packaging_failed must be true or false, got 'no'"),
    ("packaged_text", 5, "packaged_text must be a string or null, got 5"),
    ("stage", "stage3", "stage must be one of single, stage1, stage2, got 'stage3'"),
])
def test_a_provenance_row_field_score_cannot_read_exits_2_naming_its_record(
        tmp_path, capsys, command, field, value, fault):
    """Score tells a model-variant provenance row (a delayed stage 1, left
    out of the delayed cell) by stage, error_class, packaged_text and
    packaging_failed, so a value of another type or outside its set is
    refused, not read as a row to drop or to keep."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        **_run_config_doc(("prompt_json", "delayed_constraint")), "delayed_variant": "model",
        "suite": {"families": ["arithmetic_two_step"], "count": 4, "seed": 3}}))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    records = tmp_path / "run" / "records.jsonl"
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    lineno = next(i for i, line in enumerate(lines) if '"stage": "stage1"' in line)
    doc = {**json.loads(lines[lineno]), field: value}
    lines[lineno] = json.dumps(doc) + "\n"
    records.write_text("".join(lines), encoding="utf-8")
    before = records.read_bytes()
    out = tmp_path / "out"
    argv = {"score": ["score", "--records", str(records), "--out", str(out)],
            "report": ["report", "--records", str(records), "--out", str(out)],
            "resume": ["run", "--config", str(config_path), "--out", str(records.parent),
                       "--resume"]}[command]
    capsys.readouterr()
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert (f"[ERROR] record oracle/oracle-v1/delayed_constraint/{doc['stage']}/"
            f"{doc['instance_id']}: {fault}") in err and "Traceback" not in err, err
    if field != "error_class":  # that one's whole refusal is pinned above
        assert err == (f"[ERROR] record oracle/oracle-v1/delayed_constraint/{doc['stage']}/"
                       f"{doc['instance_id']}: {fault}\n")
    assert records.read_bytes() == before and not out.exists()


def test_validate_command_exit_codes(capsys):
    ok = main(["validate", "--mode", "answer_only_schema",
               "--family", "boolean_logic", "--text", '{"answer": "true"}'])
    out = capsys.readouterr().out
    assert ok == 0
    assert "status: ok" in out and "valid: True" in out

    bad = main(["validate", "--mode", "answer_only_schema",
                "--family", "boolean_logic", "--text", '{"answer": true}'])
    out = capsys.readouterr().out
    assert bad == 1
    assert "violation at /answer" in out


def test_validate_from_file_and_strict(tmp_path, capsys):
    path = tmp_path / "out.txt"
    path.write_text('prose {"answer": "true"} prose')
    assert main(["validate", "--mode", "answer_only_schema",
                 "--family", "boolean_logic", "--file", str(path)]) == 0
    capsys.readouterr()
    assert main(["validate", "--mode", "answer_only_schema",
                 "--family", "boolean_logic", "--file", str(path),
                 "--strict-extraction"]) == 1


def test_validate_refuses_both_text_and_file(tmp_path, capsys):
    path = tmp_path / "out.txt"
    path.write_text('{"answer": "true"}')
    with pytest.raises(SystemExit) as exited:
        main(["validate", "--mode", "answer_only_schema", "--family", "boolean_logic",
              "--text", "no json here", "--file", str(path)])
    assert exited.value.code == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_score_on_torn_records_file_exits_2(tmp_path, capsys):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc()))
    out_dir = tmp_path / "run"
    assert main(["run", "--config", str(config_path), "--out", str(out_dir)]) == 0
    records_path = out_dir / "records.jsonl"
    records_path.write_bytes(records_path.read_bytes()[:-40])
    capsys.readouterr()
    assert main(["score", "--records", str(records_path),
                 "--out", str(tmp_path / "scores")]) == 2
    assert "records.jsonl:8" in capsys.readouterr().err


def test_parser_defaults_are_the_dataclass_defaults():
    parser = build_parser()
    gen = parser.parse_args(["gen", "--out", "t.jsonl"])
    suite = SuiteConfig()
    assert (gen.count, gen.seed) == (suite.count, suite.seed)
    bootstrap = BootstrapConfig()
    for command in ("score", "report"):
        args = parser.parse_args([command, "--records", "r.jsonl", "--out", "o"])
        assert args.level == bootstrap.level
        assert args.baseline == DEFAULT_BASELINE_MODE


def test_run_with_unreadable_config_exits_2(tmp_path, capsys):
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2  # missing
    config_path.write_text('{"backends": [', encoding="utf-8")  # not JSON
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("cannot read config") == 2
    assert not out.exists()


def test_run_with_an_unreachable_endpoint_exits_2_before_writing(tmp_path, capsys):
    with socket.socket() as s:  # a port nothing listens on once the socket closes
        s.bind(("127.0.0.1", 0))
        port = s.getsockname()[1]
    doc = _run_config_doc()
    doc["backends"].append({"kind": "endpoint", "label": "ep", "model_id": "m",
                            "base_url": f"http://127.0.0.1:{port}"})
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert "health check failed" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("backend, named", [
    ({"kind": "endpoint", "base_url": "http://127.0.0.1:9", "timeout_ms": -5},
     "backends[0]: timeout_ms"),
    ({"kind": "endpoint", "base_url": "http://127.0.0.1:9", "timeout_ms": 0},
     "backends[0]: timeout_ms"),
    ({"kind": "corruptor", "fault": {"p_wrong_field": 1.5}},
     "backends[0].fault: p_wrong_field"),
    ({"kind": "oracle", "sampling": {"max_tokens": -1, "temperature": -3.0}},
     "backends[0].sampling: temperature"),
    ({"kind": "oracle", "sampling": {"max_tokens": 0}}, "backends[0].sampling: max_tokens"),
    ({"kind": "oracle", "sampling": {"temperature": -3.0}},
     "backends[0].sampling: temperature"),
    # one past the longest wait, in milliseconds, that an epoll selector takes
    ({"kind": "endpoint", "base_url": "http://127.0.0.1:9", "timeout_ms": 2**31},
     "backends[0]: timeout_ms"),
])
def test_run_with_an_out_of_range_backend_setting_exits_2(tmp_path, capsys, backend, named):
    """Refused while the config is read: no health check runs, nothing is
    written, and no exception escapes main."""
    doc = _run_config_doc()
    doc["backends"] = [backend]
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert f"{named} must be" in capsys.readouterr().err
    assert not out.exists()


def test_run_config_with_a_duplicated_key_exits_2(tmp_path, capsys):
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    config_path.write_text(json.dumps(_run_config_doc()).replace(
        '"modes": ', '"modes": ["freeform"], "modes": ', 1), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert "duplicate object key: 'modes'" in capsys.readouterr().err
    assert not out.exists()


def _scored_run(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc()))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    return tmp_path / "run" / "records.jsonl"


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("flags, named", [
    (["--level", "1.5"], "level"), (["--level", "0"], "level"),
])
def test_bad_bootstrap_flags_exit_2(tmp_path, capsys, command, flags, named):
    records = _scored_run(tmp_path)
    out = tmp_path / "scored"
    capsys.readouterr()
    assert main([command, "--records", str(records), "--out", str(out), *flags]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()
    # refused before any records file is read: a missing one is not what is named
    missing = tmp_path / "missing.jsonl"
    assert main([command, "--records", str(missing), "--out", str(out), *flags]) == 2
    err = capsys.readouterr().err
    assert named in err and str(missing) not in err, err
    assert not out.exists()


def test_report_labels_the_ci_with_its_level(tmp_path):
    records = _scored_run(tmp_path)
    for level, label in (("0.9", "Δ 90% CI"), ("0.95", "Δ 95% CI")):
        out = tmp_path / f"report-{level}.md"
        assert main(["report", "--records", str(records), "--out", str(out),
                     "--level", level]) == 0
        text = out.read_text(encoding="utf-8")
        header = next(line for line in text.splitlines() if "| signed Δ |" in line)
        assert f"| {label} |" in header
        assert "`bootstrap/v3`" in text.split("## Notes", 1)[1]


def _listing(root: Path) -> list[tuple[str, bytes | None]]:
    return sorted((str(p.relative_to(root)), p.read_bytes() if p.is_file() else None)
                  for p in root.rglob("*"))


@pytest.mark.parametrize("command, out_is, named", [
    ("score", "file", "scores directory"),
    ("run", "file", "run directory"),
    ("run", "inside-file", "run directory"),
    ("report", "directory", "report"),
    ("gen", "directory", "tasks"),
    ("derive-delayed", "directory", "records"),
])
def test_an_out_that_cannot_be_written_exits_2(tmp_path, capsys, command, out_is, named):
    """A file where a directory goes, or a directory where a file goes, is a
    configuration error naming the path; nothing is created or changed."""
    records = _scored_run(tmp_path)
    config_path = tmp_path / "config.json"
    occupied = tmp_path / "occupied"
    if out_is == "directory":
        occupied.mkdir()
        (occupied / "kept.txt").write_text("kept", encoding="utf-8")
    else:
        occupied.write_text("kept", encoding="utf-8")
    out = occupied / "run" if out_is == "inside-file" else occupied
    argv = {
        "score": ["score", "--records", str(records)],
        "run": ["run", "--config", str(config_path)],
        "report": ["report", "--records", str(records)],
        "gen": ["gen", "--count", "2"],
        "derive-delayed": ["derive-delayed", "--records", str(records),
                           "--tasks", str(records.parent / "tasks.jsonl"),
                           "--source-mode", "prompt_json"],
    }[command] + ["--out", str(out)]
    before = _listing(tmp_path)
    capsys.readouterr()
    assert main(argv) == 2
    assert f"cannot write {named} {out}: " in capsys.readouterr().err
    assert _listing(tmp_path) == before


@pytest.mark.parametrize("command", ["score", "report"])
def test_empty_or_missing_records_file_exits_2(tmp_path, capsys, command):
    records = _scored_run(tmp_path)
    empty = tmp_path / "empty.jsonl"
    empty.write_text("", encoding="utf-8")
    missing = tmp_path / "missing.jsonl"
    out = tmp_path / "scored"
    capsys.readouterr()
    for path in (empty, missing):
        assert main([command, "--records", str(records), "--records", str(path),
                     "--out", str(out)]) == 2
        assert str(path) in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("missing", ["records", "tasks"])
def test_derive_delayed_with_missing_input_exits_2(tmp_path, capsys, missing):
    records = _scored_run(tmp_path)
    paths = {"records": records, "tasks": records.parent / "tasks.jsonl"}
    paths[missing] = tmp_path / f"no-{missing}.jsonl"
    capsys.readouterr()
    assert main(["derive-delayed", "--records", str(paths["records"]),
                 "--tasks", str(paths["tasks"]), "--source-mode", "prompt_json",
                 "--out", str(tmp_path / "derived.jsonl")]) == 2
    assert f"cannot read {missing} {paths[missing]}" in capsys.readouterr().err
    assert not (tmp_path / "derived.jsonl").exists()


@pytest.mark.parametrize("tasks_text, error", [
    (None, "JSONDecodeError"),  # torn: the first 50 bytes of a real tasks file
    ('{"id": "x"}\n', "KeyError: 'ground_truth'"),
], ids=["torn", "missing-key"])
def test_derive_delayed_with_malformed_tasks_exits_2(tmp_path, capsys, tasks_text, error):
    records = _scored_run(tmp_path)
    tasks = tmp_path / "tasks.jsonl"
    if tasks_text is None:
        tasks.write_bytes((records.parent / "tasks.jsonl").read_bytes()[:50])
    else:
        tasks.write_text(tasks_text, encoding="utf-8")
    capsys.readouterr()
    assert main(["derive-delayed", "--records", str(records), "--tasks", str(tasks),
                 "--source-mode", "prompt_json",
                 "--out", str(tmp_path / "derived.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{tasks}:1: malformed task line" in err and error in err
    assert not (tmp_path / "derived.jsonl").exists()


@pytest.mark.parametrize("command", ["score", "resume"])
def test_undecodable_records_line_exits_2(tmp_path, capsys, command):
    records = _scored_run(tmp_path)
    lineno = len(records.read_bytes().splitlines()) + 1
    with records.open("ab") as fh:
        fh.write(b'{"instance_id": "\xff"}\n')
    capsys.readouterr()
    if command == "score":
        argv = ["score", "--records", str(records), "--out", str(tmp_path / "scored")]
    else:
        argv = ["run", "--config", str(tmp_path / "config.json"), "--out", str(records.parent),
                "--resume"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{records}:{lineno}: malformed record line" in err and "utf-8" in err


_DEEP = b"[" * 200_000 + b"]" * 200_000


@pytest.mark.parametrize("entry", ["score", "report", "resume", "derive-delayed-tasks",
                                   "run-config"])
def test_a_line_nested_too_deeply_exits_2(tmp_path, capsys, entry):
    records = _scored_run(tmp_path)
    config, tasks = tmp_path / "config.json", records.parent / "tasks.jsonl"
    out = tmp_path / "out"
    argv = {
        "score": ["score", "--records", str(records), "--out", str(out)],
        "report": ["report", "--records", str(records), "--out", str(out)],
        "resume": ["run", "--config", str(config), "--out", str(records.parent), "--resume"],
        "derive-delayed-tasks": ["derive-delayed", "--records", str(records),
                                 "--tasks", str(tasks), "--source-mode", "prompt_json",
                                 "--out", str(out)],
        "run-config": ["run", "--config", str(config), "--out", str(out)],
    }[entry]
    target = {"derive-delayed-tasks": tasks, "run-config": config}.get(entry, records)
    if entry == "run-config":
        target.write_bytes(_DEEP)
        named = f"cannot read config {config}: maximum recursion depth exceeded"
    else:
        lineno = len(target.read_bytes().splitlines()) + 1
        with target.open("ab") as fh:
            fh.write(_DEEP + b"\n")
        what = "task" if target == tasks else "record"
        named = f"{target}:{lineno}: malformed {what} line (RecursionError"
    capsys.readouterr()
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("old, new, error", [
    ('"family": "boolean_logic"', '"family": "bogus"', "unknown task family: 'bogus'"),
    ('"answer": "true"', '"answer": true', "answer must be a string, got True"),
], ids=["unknown-family", "bool-answer"])
def test_derive_delayed_with_a_wrong_typed_tasks_line_exits_2(tmp_path, capsys, old, new,
                                                              error):
    records = _scored_run(tmp_path)
    tasks = records.parent / "tasks.jsonl"
    text = tasks.read_text(encoding="utf-8")
    assert old in text
    tasks.write_text(text.replace(old, new), encoding="utf-8")
    line = next(n for n, doc in enumerate(text.splitlines(), 1) if old in doc)
    capsys.readouterr()
    assert main(["derive-delayed", "--records", str(records), "--tasks", str(tasks),
                 "--source-mode", "prompt_json",
                 "--out", str(tmp_path / "derived.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{tasks}:{line}: malformed task line" in err and error in err, err
    assert not (tmp_path / "derived.jsonl").exists()


def test_derive_delayed_refuses_a_record_of_another_family_than_its_task(tmp_path, capsys):
    records = _scored_run(tmp_path)
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    doc = json.loads(lines[0])
    lines[0] = json.dumps({**doc, "family": "arithmetic_two_step"}) + "\n"
    records.write_text("".join(lines), encoding="utf-8")
    capsys.readouterr()
    out = tmp_path / "derived.jsonl"
    assert main(["derive-delayed", "--records", str(records), "--source-mode", "prompt_json",
                 "--tasks", str(records.parent / "tasks.jsonl"), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert (f"[ERROR] record oracle/oracle-v1/prompt_json/single/{doc['instance_id']}: "
            "family 'arithmetic_two_step', but its task is of family 'boolean_logic'") in err, err
    assert not out.exists()


def test_derive_delayed_with_undecodable_tasks_exits_2(tmp_path, capsys):
    records = _scored_run(tmp_path)
    tasks = tmp_path / "tasks.jsonl"
    tasks.write_bytes((records.parent / "tasks.jsonl").read_bytes().replace(b'"', b"\xff", 1))
    capsys.readouterr()
    assert main(["derive-delayed", "--records", str(records), "--tasks", str(tasks),
                 "--source-mode", "prompt_json",
                 "--out", str(tmp_path / "derived.jsonl")]) == 2
    err = capsys.readouterr().err
    assert f"{tasks}:1: malformed task line (UnicodeDecodeError" in err
    assert not (tmp_path / "derived.jsonl").exists()


@pytest.mark.parametrize("content", [None, b'{"answer": "\xff"}'], ids=["missing", "not-utf8"])
def test_validate_with_unreadable_file_exits_2(tmp_path, capsys, content):
    path = tmp_path / "out.txt"
    if content is not None:
        path.write_bytes(content)
    assert main(["validate", "--mode", "answer_only_schema",
                 "--family", "boolean_logic", "--file", str(path)]) == 2
    assert f"cannot read output {path}" in capsys.readouterr().err


def test_resume_with_changed_config_exits_2(tmp_path, capsys):
    records = _scored_run(tmp_path)
    manifest = records.parent / "manifest.json"
    before = records.read_bytes(), manifest.read_bytes()
    changed = _run_config_doc()
    changed["suite"]["seed"] = 4
    config_path = tmp_path / "changed.json"
    config_path.write_text(json.dumps(changed))
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out", str(records.parent),
                 "--resume"]) == 2
    assert "config digest" in capsys.readouterr().err
    assert (records.read_bytes(), manifest.read_bytes()) == before


def test_resume_without_a_manifest_takes_only_the_config_its_records_carry(tmp_path, capsys):
    records = _scored_run(tmp_path)
    manifest = records.parent / "manifest.json"
    manifest.unlink()
    before = records.read_bytes()
    changed = _run_config_doc()
    changed["suite"]["count"] = 5
    config_path = tmp_path / "changed.json"
    config_path.write_text(json.dumps(changed))
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out", str(records.parent),
                 "--resume"]) == 2
    err = capsys.readouterr().err
    assert "manifest.json is missing" in err and "config digest" in err, err
    assert records.read_bytes() == before and not manifest.exists()
    # the config the records carry still resumes, and finds nothing to add
    assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(records.parent),
                 "--resume"]) == 0
    assert records.read_bytes() == before and manifest.exists()


def test_resume_refuses_a_number_read_as_infinite(tmp_path, capsys):
    records = _scored_run(tmp_path)
    lines = records.read_text(encoding="utf-8").splitlines(keepends=True)
    lines[1], hits = re.subn(r'"structural_overhead": [-+.0-9eE]+',
                             '"structural_overhead": 1e999', lines[1])
    assert hits == 1
    records.write_text("".join(lines), encoding="utf-8")
    before = records.read_bytes()
    record = read_records(records)[1]
    capsys.readouterr()
    assert main(["run", "--config", str(tmp_path / "config.json"), "--out", str(records.parent),
                 "--resume"]) == 2
    err = capsys.readouterr().err
    assert f"record {'/'.join(record.key())}: structural_overhead" in err, err
    assert "Traceback" not in err
    assert records.read_bytes() == before


@pytest.mark.parametrize("name", ["manifest.json", "tasks.jsonl"])
def test_a_rewrite_that_fails_midway_leaves_the_run_directory_resumable(
        tmp_path, capsys, monkeypatch, name):
    """run rewrites manifest.json and tasks.jsonl on every --resume. A write
    that dies after opening its file (a killed process, a full disk) must
    leave the old file whole, so the next --resume still runs."""
    records = _scored_run(tmp_path)
    out = records.parent
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc()), encoding="utf-8")
    before = {p.name: p.read_bytes() for p in out.iterdir()}
    real_open = Path.open

    def open_then_fail(self, mode="r", *args, **kwargs):
        if "w" in mode and self.name.startswith(name):  # the file or a sibling of it
            real_open(self, mode, *args, **kwargs).close()  # truncated or created
            raise OSError(28, "No space left on device")
        return real_open(self, mode, *args, **kwargs)

    monkeypatch.setattr(Path, "open", open_then_fail)
    assert main(["run", "--config", str(config_path), "--out", str(out), "--resume"]) == 2
    assert "No space left on device" in capsys.readouterr().err
    monkeypatch.undo()
    assert {p.name: p.read_bytes() for p in out.iterdir()} == before
    capsys.readouterr()
    assert main(["run", "--config", str(config_path), "--out", str(out), "--resume"]) == 0, \
        capsys.readouterr().err
    assert records.read_bytes() == before["records.jsonl"]


def test_cli_import_leaves_requests_unloaded():
    # a fresh interpreter: this one may have imported requests for other reasons
    code = "import sys, ctax.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_cli_import_leaves_the_thread_pool_and_logging_unloaded():
    # the endpoint runs on one selector loop: no thread pool (which loads
    # logging) and no http.client (which loads email and ssl); ssl loads
    # only for an https:// endpoint; scoring needs no numpy
    code = ("import sys, ctax.cli; print([m for m in ('concurrent.futures', 'logging', "
            "'http.client', 'email', 'ssl', 'numpy') if m in sys.modules])")
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_commands_run_with_numpy_unimportable(tmp_path, capsys):
    """gen, run, score, report, derive-delayed and validate need nothing
    beyond the standard library: in a process where importing numpy fails,
    each exits 0 and writes (validate: prints) what the same command writes
    in-process."""
    doc = {**_run_config_doc(("prompt_json", "freeform", "answer_only_schema")),
           "suite": {"families": ["boolean_logic", "tool_call_argument"], "count": 12,
                     "seed": 3},
           "backends": [{"kind": "corruptor", "label": "c", "model_id": "c-1",
                         "fault": {"p_invalid_json": 0.2, "p_wrong_field": 0.3}}]}
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    blocked = ("import sys; sys.modules['numpy'] = None; from ctax.cli import main; "
               "sys.exit(main(sys.argv[1:]))")
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    outputs, printed = {}, {}
    for where in ("blocked", "in-process"):
        out = tmp_path / where
        run_dir = out / "run"
        commands = [
            ["gen", "--family", "tool_call_argument", "--count", "3", "--seed", "5",
             "--out", str(out / "gen.jsonl")],
            ["run", "--config", str(config_path), "--out", str(run_dir)],
            ["score", "--records", str(run_dir / "records.jsonl"), "--out", str(out / "scores"),
             "--level", "0.9"],
            ["report", "--records", str(run_dir / "records.jsonl"),
             "--out", str(out / "report.md")],
            ["derive-delayed", "--records", str(run_dir / "records.jsonl"),
             "--tasks", str(run_dir / "tasks.jsonl"), "--source-mode", "prompt_json",
             "--out", str(out / "derived.jsonl")],
            ["validate", "--mode", "answer_only_schema", "--family", "tool_call_argument",
             "--text", '{"tool": "create_calendar_event", "arguments": {}}'],
        ]
        for command in commands:
            wanted = 1 if command[0] == "validate" else 0  # the arguments miss their fields
            if where == "blocked":
                proc = subprocess.run([sys.executable, "-c", blocked, *command],
                                      capture_output=True, text=True, env=env, timeout=120)
                assert proc.returncode == wanted, (command[0], proc.stderr)
                stdout = proc.stdout
            else:
                capsys.readouterr()
                assert main(command) == wanted, command[0]
                stdout = capsys.readouterr().out
        printed[where] = stdout  # validate's, the last command
        outputs[where] = {path.relative_to(out).as_posix(): path.read_bytes()
                          for path in [out / "gen.jsonl", run_dir / "tasks.jsonl",
                                       out / "report.md", *sorted((out / "scores").iterdir())]}
    assert len(outputs["blocked"]) == 6 and outputs["blocked"] == outputs["in-process"]
    assert "violation at /arguments" in printed["blocked"]
    assert printed["blocked"] == printed["in-process"]
    for records in ("run/records.jsonl", "derived.jsonl"):  # equal but for wall-clock fields
        assert read_records(tmp_path / "blocked" / records)
        assert canonical_diff(tmp_path / "blocked" / records,
                              tmp_path / "in-process" / records) == []


@pytest.mark.parametrize("command", ["score", "report"])
def test_a_file_of_only_provenance_rows_exits_2(tmp_path, capsys, command):
    """A model-variant delayed stage 1 scores only through its stage 2, so a
    file holding stage 1s whose stage 2 never landed has nothing to score:
    a configuration error, not a traceback."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        **_run_config_doc(("prompt_json", "delayed_constraint")), "delayed_variant": "model",
        "suite": {"families": ["arithmetic_two_step"], "count": 3, "seed": 3}}))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    lines = (tmp_path / "run" / "records.jsonl").read_text(encoding="utf-8").splitlines()
    stage1 = [line + "\n" for line in lines if '"stage": "stage1"' in line]
    assert len(stage1) == 3
    records, out = tmp_path / "stage1.jsonl", tmp_path / "out"
    records.write_text("".join(stage1), encoding="utf-8")
    capsys.readouterr()
    assert main([command, "--records", str(records), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "[ERROR] no records to score; each is a model-variant delayed stage 1, which scores "
        "through its stage 2\n")
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_records_from_a_pipe_are_read_once(tmp_path, capsys):
    """score reads a records file again only to name a refused record or
    order an "all" cell's duplicate; a pipe cannot be read again, so those
    keep what one read gives, never an emptied row or a hang."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({
        **_run_config_doc(("prompt_json", "freeform")),
        "suite": {"families": ["boolean_logic", "arithmetic_two_step"], "count": 3,
                  "seed": 3}}), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    lines = (tmp_path / "run" / "records.jsonl").read_text(encoding="utf-8").splitlines(True)
    repeat = next(line for line in lines if '"freeform"' in line)
    doubled = "".join([*lines, repeat])
    (tmp_path / "doubled.jsonl").write_text(doubled, encoding="utf-8")
    capsys.readouterr()
    assert main(["score", "--records", str(tmp_path / "doubled.jsonl"),
                 "--out", str(tmp_path / "file")]) == 0
    from_file = capsys.readouterr().out.replace(str(tmp_path / "file"), "<out>")
    assert "all/freeform: duplicate constrained record" in from_file
    argv = [sys.executable, "-m", "ctax.cli", "score", "--records", "/dev/stdin"]
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    piped = subprocess.run([*argv, "--out", str(tmp_path / "pipe")], input=doubled,
                           capture_output=True, text=True, env=env, timeout=60)
    assert (piped.returncode, piped.stdout.replace(str(tmp_path / "pipe"), "<out>")) == \
        (0, from_file)
    assert _listing(tmp_path / "pipe") == _listing(tmp_path / "file")
    hostile = "".join([json.dumps({**json.loads(lines[0]), "latency_ms": "fast"}) + "\n",
                       *lines[1:], repeat])
    refused = subprocess.run([*argv, "--out", str(tmp_path / "refused")], input=hostile,
                             capture_output=True, text=True, env=env, timeout=60)
    assert (refused.returncode, refused.stderr) == (
        2, "[ERROR] oracle/oracle-v1/arithmetic_two_step/prompt_json holds a value score cannot "
           "read\n")


def _corruptor_records(tmp_path):
    """The records of the benchmark's corruptor config at seed 1: 5 families x
    200 instances x 9 modes."""
    config_path = tmp_path / "corruptor.json"
    config_path.write_text(json.dumps({
        "run_id": "perfbench-offline-1",
        "suite": {"families": list(ctax.FAMILIES), "count": 200, "seed": 1},
        "modes": list(ctax.MODE_NAMES),
        "backends": [{"kind": "corruptor", "label": "corruptor", "model_id": "corruptor-v1",
                      "fault": {"p_invalid_json": 0.1, "p_wrong_field": 0.2, "seed": 1,
                                "wrong_field_targets": list(CALENDAR_SEMANTIC_FIELDS)}}],
        "delayed_variant": "deterministic"}), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    return tmp_path / "run" / "records.jsonl"


def test_score_and_report_build_no_record(tmp_path, capsys, monkeypatch):
    """score and report fold each line into its cell's columns: with no
    record built, their files and printed lines are what they were."""
    records = _corruptor_records(tmp_path)
    outputs = {}
    for where in ("records built", "no record built"):
        if where == "no record built":
            def refuse(*args):
                raise AssertionError("a record was built")

            monkeypatch.setattr(ctax.records, "record_from_dict", refuse)
            monkeypatch.setattr(ctax.records, "adopt_record", refuse)
        out = tmp_path / where
        capsys.readouterr()
        assert main(["score", "--records", str(records), "--out", str(out / "scores")]) == 0
        assert main(["report", "--records", str(records), "--out", str(out / "report.md")]) == 0
        printed = capsys.readouterr().out.replace(str(out), "<out>")
        outputs[where] = printed, {path.name: path.read_bytes()
                                   for path in [out / "report.md",
                                                *sorted((out / "scores").iterdir())]}
    assert len(outputs["no record built"][1]) == 4
    assert outputs["no record built"] == outputs["records built"]


def test_score_warns_when_a_cell_mixes_extraction_rules(tmp_path, capsys):
    # half the instances as a run made under lenient/v1 left them, half resumed
    records = read_records(_scored_run(tmp_path))
    old, new = tmp_path / "old.jsonl", tmp_path / "new.jsonl"
    write_records(old, [replace(r, extraction_rule="lenient/v1") for r in records[::2]])
    write_records(new, records[1::2])
    capsys.readouterr()
    assert main(["score", "--records", str(old), "--records", str(new),
                 "--out", str(tmp_path / "scored")]) == 0
    out = capsys.readouterr().out
    for mode in ("prompt_json", "answer_only_schema"):
        assert (f"[WARN] oracle/oracle-v1/boolean_logic/{mode} mixes extraction rules "
                "lenient/v1, lenient/v3") in out


def _records_args(records) -> list[str]:
    return [arg for path in records for arg in ("--records", str(path))]


def _reported(capsys, records, out, *flags):
    """report's exit code, stdout, and the bytes it wrote to out."""
    capsys.readouterr()
    code = main(["report", *_records_args(records), "--out", str(out), *flags])
    return code, capsys.readouterr().out, out.read_bytes() if out.exists() else None


def _cold_reported(monkeypatch, capsys, records, out, *flags):
    """_reported with an empty cache: the records scored by report itself."""
    with monkeypatch.context() as patch:
        patch.setenv("XDG_CACHE_HOME", str(out.parent / "cold-cache"))
        return _reported(capsys, records, out, *flags)


def _scored_and_cached(records, out, *flags) -> None:
    assert main(["score", *_records_args(records), "--out", str(out), *flags]) == 0


def _cache_entries() -> list[Path]:
    return sorted((Path(os.environ["XDG_CACHE_HOME"]) / "ctax" / "scores").glob("*.json"))


def _poison(entry: Path, **fields) -> None:
    """Rewrite a cache entry so that serving it shows: its report text is
    one no scoring gives, and fields replace its other values."""
    doc = json.loads(entry.read_text(encoding="utf-8"))
    entry.write_text(json.dumps({**doc, "report": "poisoned\n", **fields}), encoding="utf-8")


@pytest.mark.parametrize("failed", [False, True], ids=["golden", "with generation failures"])
def test_a_cached_report_matches_the_golden_hash(tmp_path, capsys, monkeypatch, failed):
    """report served from score's entry and report scoring the records
    itself write the golden report and print the same lines."""
    records = _golden_records(tmp_path)
    level, golden = "0.95", _GOLDEN_SCORE_SHA256["report"]
    if failed:
        records = [_generation_failed(r) if r.stage == "single" and i % 5 == 2 else r
                   for i, r in enumerate(records)]
        level, golden = "0.9", _GOLDEN_FAILED_SCORE_SHA256["report"]
    path = tmp_path / "golden.jsonl"
    write_records(path, records)
    _scored_and_cached([path], tmp_path / "scores", "--level", level)
    assert len(_cache_entries()) == 1
    out = tmp_path / "report.md"
    with monkeypatch.context() as patch:
        def refuse(*args, **kwargs):
            raise AssertionError("report scored records it had an entry for")

        patch.setattr(ctax.cli, "score", refuse)
        served = _reported(capsys, [path], out, "--level", level)
    cold = _cold_reported(monkeypatch, capsys, [path], out, "--level", level)
    assert served == cold
    assert served[1].startswith("[WARN] ")
    assert hashlib.sha256(served[2]).hexdigest() == golden


def test_report_misses_once_a_line_is_appended(tmp_path, capsys, monkeypatch):
    records = _scored_run(tmp_path)
    out = tmp_path / "report.md"
    _scored_and_cached([records], tmp_path / "scores")
    [entry] = _cache_entries()
    _poison(entry)
    assert _reported(capsys, [records], out)[2] == b"poisoned\n"  # served: a hit shows
    first = records.read_text(encoding="utf-8").splitlines(True)[0]
    with records.open("a", encoding="utf-8") as fh:
        fh.write(first.replace('"prompt_json"', '"answer_only_schema"'))
    appended = _reported(capsys, [records], out)
    assert appended == _cold_reported(monkeypatch, capsys, [records], out)
    assert appended[0] == 0 and appended[2] != b"poisoned\n"


@pytest.mark.parametrize("fault", ["torn entry", "mistyped entry", "mismatched key",
                                   "cache is a file", "no HOME", "another user's directory"])
def test_a_broken_cache_is_a_miss(tmp_path, capsys, monkeypatch, fault):
    """Whatever is wrong with the cache, report exits 0 with the bytes and
    lines of a report that scored the records itself."""
    records = _scored_run(tmp_path)
    out = tmp_path / "report.md"
    cold = _cold_reported(monkeypatch, capsys, [records], out)
    if fault == "cache is a file":
        (tmp_path / "cache-file").write_text("not a directory", encoding="utf-8")
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache-file"))
    elif fault == "no HOME":
        monkeypatch.delenv("XDG_CACHE_HOME")
        monkeypatch.delenv("HOME", raising=False)
    _scored_and_cached([records], tmp_path / "scores")
    if fault in ("torn entry", "mistyped entry", "mismatched key", "another user's directory"):
        [entry] = _cache_entries()
        if fault == "torn entry":
            entry.write_bytes(entry.read_bytes()[:200])
        elif fault == "mistyped entry":
            _poison(entry, warnings="[WARN] poisoned")
        elif fault == "mismatched key":
            _poison(entry, key="0" * 64)
        else:
            if not hasattr(os, "getuid"):
                pytest.skip("no user ids")
            _poison(entry)
            uid = os.getuid()
            monkeypatch.setattr(os, "getuid", lambda: uid + 1)
    assert _reported(capsys, [records], out) == cold
    assert cold[0] == 0


@pytest.mark.parametrize("flags", [["--level", "0.9"], ["--baseline", "answer_only_schema"],
                                   "edited code"])
def test_report_misses_on_another_level_baseline_or_code(tmp_path, capsys, monkeypatch, flags):
    records = _scored_run(tmp_path)
    out = tmp_path / "report.md"
    _scored_and_cached([records], tmp_path / "scores")
    [entry] = _cache_entries()
    _poison(entry)
    assert _reported(capsys, [records], out)[2] == b"poisoned\n"  # served: a hit shows
    if flags == "edited code":
        digest = ctax.cli._code_digest()
        monkeypatch.setattr(ctax.cli, "_code_digest", lambda: [*digest[:-1], "edited.py:0"])
        flags = []
    missed = _reported(capsys, [records], out, *flags)
    assert missed == _cold_reported(monkeypatch, capsys, [records], out, *flags)
    assert missed[0] == 0 and missed[2] != b"poisoned\n"


def test_a_bad_level_is_refused_before_the_cache_is_read(tmp_path, capsys, monkeypatch):
    records = _scored_run(tmp_path)
    _scored_and_cached([records], tmp_path / "scores")
    assert len(_cache_entries()) == 1

    def refuse(*args, **kwargs):
        raise AssertionError("a file was read")

    monkeypatch.setattr(ctax.cli, "_file_digest", refuse)
    monkeypatch.setattr(ctax.cli, "_cached_report", refuse)
    monkeypatch.setattr(ctax.harness, "read_records", refuse)
    out = tmp_path / "report.md"
    capsys.readouterr()
    assert main(["report", "--records", str(records), "--out", str(out), "--level", "1.5"]) == 2
    assert "level" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.skipif(not os.path.exists("/dev/stdin"), reason="no /dev/stdin")
def test_records_from_a_pipe_are_never_cached(tmp_path, capsys, monkeypatch):
    """A pipe is hashed by no second read: score keeps no entry for it, and
    report scores it itself."""
    records = _scored_run(tmp_path)
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    for command, out in (("score", tmp_path / "scores"), ("report", tmp_path / "piped.md")):
        piped = subprocess.run([sys.executable, "-m", "ctax.cli", command, "--records",
                                "/dev/stdin", "--out", str(out)],
                               input=records.read_text(encoding="utf-8"), capture_output=True,
                               text=True, env=env, timeout=60)
        assert (piped.returncode, piped.stderr) == (0, ""), command
    assert _cache_entries() == []
    cold = _cold_reported(monkeypatch, capsys, [records], tmp_path / "report.md")
    assert (tmp_path / "piped.md").read_bytes() == cold[2]


def test_the_cache_keeps_the_newest_16_entries(tmp_path, capsys, monkeypatch):
    records = _scored_run(tmp_path)
    digest = ctax.cli._code_digest()
    for edit in range(18):
        monkeypatch.setattr(ctax.cli, "_code_digest", lambda edit=edit: [*digest, f"edit-{edit}"])
        _scored_and_cached([records], tmp_path / "scores")
    entries = _cache_entries()
    assert len(entries) == 16
    for entry in entries:
        _poison(entry)
    out = tmp_path / "report.md"
    for edit, kept in ((0, False), (1, False), (2, True), (17, True)):
        monkeypatch.setattr(ctax.cli, "_code_digest", lambda edit=edit: [*digest, f"edit-{edit}"])
        assert (_reported(capsys, [records], out)[2] == b"poisoned\n") == kept, edit
