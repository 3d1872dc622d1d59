"""CLI subcommands, exercised in-process through main()."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ctax
from ctax.cli import build_parser, main
from ctax.harness import SuiteConfig
from ctax.metrics import DEFAULT_BASELINE_MODE, DEFAULT_EPSILON, BootstrapConfig
from ctax.records import read_records
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
                 "--out", str(score_dir), "--resamples", "60"]) == 0
    assert (score_dir / "aggregates.csv").exists()
    assert (score_dir / "comparisons.csv").exists()
    assert (score_dir / "calendar_failures.csv").exists()

    report_path = tmp_path / "report.md"
    assert main(["report", "--records", str(out_dir / "records.jsonl"),
                 "--out", str(report_path), "--resamples", "60"]) == 0
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
                 "--out", str(score_dir), "--resamples", "50"]) == 0
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
        assert BootstrapConfig(args.resamples, args.level, args.bootstrap_seed) == bootstrap
        assert (args.baseline, args.epsilon) == (DEFAULT_BASELINE_MODE, DEFAULT_EPSILON)


def test_run_with_unreadable_config_exits_2(tmp_path, capsys):
    config_path, out = tmp_path / "config.json", tmp_path / "out"
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2  # missing
    config_path.write_text('{"backends": [', encoding="utf-8")  # not JSON
    assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert capsys.readouterr().err.count("cannot read config") == 2
    assert not out.exists()


def _scored_run(tmp_path):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(_run_config_doc()))
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "run")]) == 0
    return tmp_path / "run" / "records.jsonl"


@pytest.mark.parametrize("command", ["score", "report"])
@pytest.mark.parametrize("flags, named", [
    (["--level", "1.5"], "level"), (["--level", "0"], "level"),
    (["--resamples", "0"], "resamples"), (["--resamples", "-1"], "resamples"),
])
def test_bad_bootstrap_flags_exit_2(tmp_path, capsys, command, flags, named):
    records = _scored_run(tmp_path)
    out = tmp_path / "scored"
    capsys.readouterr()
    assert main([command, "--records", str(records), "--out", str(out), *flags]) == 2
    assert named in capsys.readouterr().err
    assert not out.exists()


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
