"""CLI subcommands, exercised in-process through main()."""

from __future__ import annotations

import json
import os
import socket
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import ctax
from ctax.cli import build_parser, main
from ctax.harness import SuiteConfig
from ctax.metrics import DEFAULT_BASELINE_MODE, BootstrapConfig
from ctax.records import read_records, write_records
from ctax.taskgen import read_suite


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


def test_cli_import_leaves_requests_unloaded():
    # a fresh interpreter: this one may have imported requests for other reasons
    code = "import sys, ctax.cli; print('requests' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
                "lenient/v1, lenient/v2") in out
