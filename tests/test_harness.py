"""End-to-end run loop, delayed packaging, scoring, outputs."""

from __future__ import annotations

import datetime as dt
import json
import os
import re
import subprocess
import sys
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ctax
from ctax.backend import BackendConfig, FaultProfile, SamplingConfig
from ctax.cli import main
from ctax.errors import ConfigError
from ctax.harness import (
    RunConfig,
    SuiteConfig,
    config_from_dict,
    derive_delayed,
    load_records,
    run,
    score,
    score_to_files,
)
from ctax import metrics
from ctax.metrics import BOOTSTRAP_VERSION, BootstrapConfig
from ctax.modes import MODE_NAMES
from ctax.records import canonical_diff, canonical_record_lines
from ctax.report import render_report
from ctax.taskgen import CALENDAR_SEMANTIC_FIELDS, FAMILIES, generate_suite
from ctax.validation import canonical_serialize
from test_backend import stub_server


def _config(modes, families=("arithmetic_two_step", "boolean_logic"), count=3,
            run_id="t-run", backend_kind="oracle", fault=None, **kw):
    return RunConfig(
        run_id=run_id,
        suite=SuiteConfig(families=tuple(families), count=count, seed=17),
        modes=tuple(modes),
        backends=(BackendConfig(kind=backend_kind, label=backend_kind,
                                model_id="scripted-v1", fault=fault),),
        bootstrap=BootstrapConfig(resamples=80, seed=1),
        **kw,
    )


def _instances(config):
    out = {}
    for family in config.suite.families:
        for inst in generate_suite(family, config.suite.count, config.suite.seed):
            out[inst.id] = inst
    return out


# ---------------------------------------------------------------------------
# run loop
# ---------------------------------------------------------------------------

def test_run_writes_expected_files_and_counts(tmp_path):
    config = _config(("prompt_json", "freeform"))
    records_path = run(config, tmp_path / "out")
    records = load_records(records_path)
    assert len(records) == 2 * 3 * 2  # modes x count x families
    assert len({r.key() for r in records}) == len(records)
    tasks = (tmp_path / "out" / "tasks.jsonl").read_text().splitlines()
    assert len(tasks) == 6
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["run_id"] == "t-run"
    assert manifest["config_digest"] == config.digest()
    assert manifest["config"] == config.to_dict()
    assert manifest["package_version"] and manifest["template_version"]


def test_run_records_carry_scoring_fields(tmp_path):
    config = _config(("answer_only_schema",), families=("boolean_logic",))
    records = load_records(run(config, tmp_path / "out"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    rec = records[0]
    assert rec.constraint_kind == "schema"
    assert manifest["constraints"][rec.constraint_digest]["schema"] is not None
    assert rec.constraint_enforced
    assert rec.extraction_rule == "lenient/v1"
    assert rec.error_class == "correct_valid"
    assert rec.run_id == "t-run" and rec.config_digest == config.digest()
    assert rec.started_at and rec.finished_at


def test_prompt_json_records_are_scored_but_not_enforced(tmp_path):
    config = _config(("prompt_json",), families=("boolean_logic",))
    records = load_records(run(config, tmp_path / "out"))
    assert all(r.constraint_kind == "schema" for r in records)
    assert all(not r.constraint_enforced for r in records)


def test_run_refuses_dirty_output_without_resume(tmp_path):
    config = _config(("prompt_json",))
    run(config, tmp_path / "out")
    with pytest.raises(ConfigError, match="resume"):
        run(config, tmp_path / "out")


def test_resume_skips_done_work(tmp_path):
    config = _config(("prompt_json",))
    path = run(config, tmp_path / "out")
    before = path.read_text()
    run(config, tmp_path / "out", resume=True)
    assert path.read_text() == before  # nothing new to do

    wider = _config(("prompt_json", "final_only_regex"))
    run(wider, tmp_path / "out", resume=True)
    records = load_records(path)
    assert len(records) == 2 * 3 * 2
    assert len({r.key() for r in records}) == len(records)
    # the original rows were not rewritten
    assert path.read_text().startswith(before)


def test_resume_after_torn_final_line(tmp_path):
    # a kill inside append_record leaves a final line without its newline
    config = _config(("prompt_json", "delayed_constraint"))
    path = run(config, tmp_path / "out")
    full = canonical_record_lines(path)
    path.write_bytes(path.read_bytes()[:-40])
    run(config, tmp_path / "out", resume=True)
    records = load_records(path)
    assert len(records) == 2 * 3 * 2
    assert len({r.key() for r in records}) == len(records)
    assert canonical_record_lines(path) == full


def test_resume_regenerates_missing_model_stage2(tmp_path):
    config = _config(("delayed_constraint",), families=("boolean_logic",), count=4,
                     delayed_variant="model")
    path = run(config, tmp_path / "out")
    full = canonical_record_lines(path)
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(line for line in lines
                            if json.loads(line)["stage"] == "stage1"))
    run(config, tmp_path / "out", resume=True)
    assert canonical_record_lines(path) == full


def test_malformed_record_line_names_file_and_line(tmp_path):
    path = run(_config(("prompt_json",)), tmp_path / "out")
    lines = path.read_text().splitlines(keepends=True)
    lines[2] = lines[2][:30] + "\n"
    path.write_text("".join(lines))
    with pytest.raises(ConfigError, match=r"records\.jsonl:3"):
        load_records(path)


def test_old_format_records_load_and_score_the_same(tmp_path):
    # records once also stored the prompt and the constraint documents
    config = _config(("prompt_json", "final_only_regex"))
    records = load_records(run(config, tmp_path / "out"))
    old = tmp_path / "old.jsonl"
    old.write_text("".join(
        json.dumps({**r.to_dict(), "prompt": "Reply with only the final answer.",
                    "constraint_schema": {"type": "object"},
                    "constraint_pattern": "^(true|false)$"}) + "\n"
        for r in records))
    assert load_records(old) == records
    cfg = BootstrapConfig(resamples=50, seed=0)
    assert score(load_records(old), bootstrap=cfg) == score(records, bootstrap=cfg)


@pytest.mark.parametrize("change", ["suite seed", "strict extraction and a new mode",
                                    "a dropped mode"])
def test_resume_refuses_a_changed_config(tmp_path, change):
    config = _config(("prompt_json", "freeform"))
    path = run(config, tmp_path / "out")
    manifest = tmp_path / "out" / "manifest.json"
    before = path.read_bytes(), manifest.read_bytes()
    changed = {
        "suite seed": replace(config, suite=replace(config.suite, seed=18)),
        "strict extraction and a new mode": replace(
            config, strict_extraction=True,
            modes=("prompt_json", "freeform", "final_only_regex")),
        "a dropped mode": replace(config, modes=("prompt_json",)),
    }[change]
    with pytest.raises(ConfigError, match="config digest"):
        run(changed, tmp_path / "out", resume=True)
    assert (path.read_bytes(), manifest.read_bytes()) == before


def _endpoint_run_config(url, modes=("freeform",), count=5, **backend):
    return RunConfig(
        run_id="endpoint-run",
        suite=SuiteConfig(families=("boolean_logic",), count=count, seed=17),
        modes=tuple(modes),
        backends=(BackendConfig(kind="endpoint", label="stub", model_id="m-1b",
                                base_url=url, max_retries=0, **backend),),
    )


def test_endpoint_records_start_at_their_own_request(tmp_path):
    with stub_server(delay=0.03, content="Final answer: true") as (_state, url):
        config = _endpoint_run_config(url, max_in_flight=1)
        records = load_records(run(config, tmp_path / "out"))
    starts = sorted(dt.datetime.fromisoformat(r.started_at) for r in records)
    assert len(starts) == 5
    # one request at a time, each at least 30 ms long
    assert all((b - a).total_seconds() >= 0.025 for a, b in zip(starts, starts[1:]))
    for record in records:
        took = dt.datetime.fromisoformat(record.finished_at) - dt.datetime.fromisoformat(
            record.started_at)
        assert took.total_seconds() >= 0.025


def _complete_lines(path: Path) -> int:
    return path.read_bytes().count(b"\n") if path.exists() else 0


def test_killed_endpoint_run_keeps_landed_records_and_resumes(tmp_path):
    k, in_flight = 14, 2
    out = tmp_path / "out"
    with stub_server(hang_after=k, content="Final answer: true") as (state, url):
        config = _endpoint_run_config(url, modes=("freeform", "prompt_json"), count=20,
                                      max_in_flight=in_flight)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
        with subprocess.Popen([sys.executable, "-m", "ctax.cli", "run", "--config",
                               str(config_path), "--out", str(out)], env=env,
                              stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL) as proc:
            try:
                deadline = time.monotonic() + 30
                while state.hung < in_flight and time.monotonic() < deadline:
                    time.sleep(0.01)  # k answered, every worker now waits on the stub
                assert state.hung == in_flight and state.post_count == k + in_flight
                deadline = time.monotonic() + 5
                while (_complete_lines(out / "records.jsonl") < k - in_flight
                       and time.monotonic() < deadline):
                    time.sleep(0.01)
            finally:
                proc.kill()
                proc.wait(timeout=30)
        assert _complete_lines(out / "records.jsonl") >= k - in_flight

        state.hang_after = None  # the server recovers; the same config resumes
        run(config, out, resume=True)
    records = load_records(out / "records.jsonl")
    assert len(records) == 2 * 20
    assert len({r.key() for r in records}) == len(records)
    assert not [r for r in records if r.error_class == "generation_failed"]


# ---------------------------------------------------------------------------
# delayed mode inside the run loop
# ---------------------------------------------------------------------------

def test_delayed_deterministic_record_contract(tmp_path):
    config = _config(("delayed_constraint",), families=("arithmetic_two_step",))
    records = load_records(run(config, tmp_path / "out"))
    assert len(records) == 3
    for rec in records:
        assert rec.stage == "stage1"  # single generated stage
        assert "Final answer:" in rec.raw_text  # untouched stage-1 text
        assert rec.packaged_text is not None
        assert rec.packaged_text.startswith('{"answer":')
        assert not rec.packaging_failed
        assert rec.packaging_ms is not None and rec.packaging_ms >= 0.0
        assert rec.latency_annotation == "+ pkg."
        assert rec.error_class == "correct_valid"
        assert rec.constraint_kind == "schema"  # scored against the target schema
        assert not rec.constraint_enforced      # but generation ran free


def test_delayed_model_variant_two_stage_records(tmp_path):
    config = _config(("delayed_constraint",), families=("boolean_logic",),
                     delayed_variant="model")
    records = load_records(run(config, tmp_path / "out"))
    stage1 = [r for r in records if r.stage == "stage1"]
    stage2 = [r for r in records if r.stage == "stage2"]
    assert len(stage1) == 3 and len(stage2) == 3
    for rec in stage2:
        assert rec.constraint_enforced  # stage 2 carries the transported schema
        assert rec.error_class == "correct_valid"
    # scoring keeps only the stage-2 rows for the delayed cell
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    (agg,) = result.aggregates
    assert agg.mode == "delayed_constraint" and agg.n == 3


def test_delayed_packaging_failure_is_scored_invalid(tmp_path):
    # a corruptor that always malformes stage-1 text leaves nothing to package
    fault = FaultProfile(p_invalid_json=1.0)
    config = _config(("delayed_constraint",), families=("tool_call_argument",),
                     backend_kind="corruptor", fault=fault)
    records = load_records(run(config, tmp_path / "out"))
    assert len(records) == 3
    for rec in records:
        assert rec.packaging_failed
        assert rec.packaged_text is None
        assert rec.error_class == "invalid_json"
        assert not rec.schema_valid


# ---------------------------------------------------------------------------
# derive_delayed
# ---------------------------------------------------------------------------

def test_derive_delayed_matches_in_run_packaging(tmp_path):
    config = _config(("prompt_json", "delayed_constraint"),
                     families=("arithmetic_two_step", "tool_call_argument"))
    records = load_records(run(config, tmp_path / "out"))
    sources = [r for r in records if r.mode == "prompt_json"]
    in_run = {r.instance_id: r for r in records if r.mode == "delayed_constraint"}
    derived = derive_delayed(sources, _instances(config), config)
    assert len(derived) == len(sources)
    for d in derived:
        assert d.mode == "delayed_constraint"
        assert d.derived_from == "prompt_json"
        assert d.latency_annotation == "+ pkg."
        twin = in_run[d.instance_id]
        # same packaging + verdicts as the natively-run delayed mode
        assert d.packaged_text == twin.packaged_text
        for field in ("schema_valid", "answer_correct", "exec_correct",
                      "error_class", "parse_status", "constraint_enforced",
                      "constraint_digest"):
            assert getattr(d, field) == getattr(twin, field), field


def test_derive_delayed_rejects_constrained_sources(tmp_path):
    config = _config(("answer_only_schema",), families=("boolean_logic",))
    records = load_records(run(config, tmp_path / "out"))
    with pytest.raises(ConfigError, match="supported sources"):
        derive_delayed(records, _instances(config))


def test_derive_delayed_requires_instances(tmp_path):
    config = _config(("prompt_json",), families=("boolean_logic",))
    records = load_records(run(config, tmp_path / "out"))
    with pytest.raises(ConfigError, match="no task instance"):
        derive_delayed(records, {})


def test_derive_delayed_preserves_generation_failures(tmp_path):
    config = _config(("freeform",), families=("boolean_logic",))
    records = load_records(run(config, tmp_path / "out"))
    failed = replace(records[0], error_class="generation_failed", raw_text="")
    (derived,) = derive_delayed([failed], _instances(config))
    assert derived.error_class == "generation_failed"
    assert derived.mode == "delayed_constraint"
    assert derived.derived_from == "freeform"
    assert derived.latency_annotation == "+ pkg."


def test_derive_delayed_without_config_keeps_source_digest(tmp_path):
    config = _config(("freeform",),
                     families=("arithmetic_two_step", "tool_call_argument"))
    records = load_records(run(config, tmp_path / "out"))
    derived = derive_delayed(records, _instances(config))
    # no synthetic per-family digest fan-out: derived records stay in the
    # source run's digest group so joint scoring does not warn
    assert {d.config_digest for d in derived} == {records[0].config_digest}
    assert {d.run_id for d in derived} == {config.run_id}


def test_derive_delayed_never_invents_correctness(tmp_path):
    fault = FaultProfile(p_invalid_json=0.3, p_wrong_field=0.4, seed=5)
    config = _config(("freeform",), families=("arithmetic_two_step",), count=40,
                     backend_kind="corruptor", fault=fault)
    records = load_records(run(config, tmp_path / "out"))
    derived = derive_delayed(records, _instances(config), config)
    by_id = {r.instance_id: r for r in records}
    assert sum(d.exec_correct for d in derived) <= sum(
        by_id[d.instance_id].answer_correct for d in derived)


# ---------------------------------------------------------------------------
# config round trip
# ---------------------------------------------------------------------------

def test_config_round_trip():
    config = RunConfig(
        run_id="rt",
        suite=SuiteConfig(families=("boolean_logic",), count=5, seed=3),
        modes=("prompt_json", "delayed_constraint"),
        backends=(
            BackendConfig(kind="corruptor", label="noisy", model_id="m",
                          fault=FaultProfile(p_invalid_json=0.2, p_wrong_field=0.1,
                                             wrong_field_targets=("topic",), seed=9)),
            BackendConfig(kind="endpoint", label="live", model_id="m-3b",
                          base_url="http://host:8000",
                          sampling=SamplingConfig(temperature=0.1, max_tokens=99,
                                                  request_seed=4),
                          constraint_transport={"schema": "a.b", "regex": "c"}),
        ),
        bootstrap=BootstrapConfig(resamples=500, level=0.9, seed=2),
        delayed_variant="model",
        strict_extraction=True,
        strict_trace=True,
        baseline_mode="freeform",
    )
    clone = config_from_dict(config.to_dict())
    assert clone == config
    assert clone.digest() == config.digest()


def test_config_from_dict_validation():
    base = _config(("prompt_json",)).to_dict()
    bad_family = json.loads(json.dumps(base))
    bad_family["suite"]["families"] = ["algebra"]
    with pytest.raises(ConfigError, match="family"):
        config_from_dict(bad_family)
    bad_mode = json.loads(json.dumps(base))
    bad_mode["modes"] = ["yaml_mode"]
    with pytest.raises(ConfigError):
        config_from_dict(bad_mode)
    bad_variant = json.loads(json.dumps(base))
    bad_variant["delayed_variant"] = "oracle"
    with pytest.raises(ConfigError, match="variant"):
        config_from_dict(bad_variant)
    no_backends = json.loads(json.dumps(base))
    no_backends["backends"] = []
    with pytest.raises(ConfigError, match="backend"):
        config_from_dict(no_backends)


_KEYED_CONFIG = {
    "run_id": "keys",
    "suite": {"families": ["boolean_logic"], "count": 2, "seed": 0},
    "modes": ["prompt_json"],
    "backends": [{"kind": "corruptor", "label": "c", "sampling": {"temperature": 0.0},
                  "fault": {"p_invalid_json": 0.1, "seed": 1}}],
    "bootstrap": {"resamples": 10},
}


@pytest.mark.parametrize("where, typo", [
    ("run", "delayed_varaint"), ("suite", "cuont"), ("backend", "max_inflight"),
    ("sampling", "temprature"), ("fault", "p_wrong_feild"), ("bootstrap", "resampels"),
])
def test_config_rejects_unknown_keys(tmp_path, capsys, where, typo):
    doc = json.loads(json.dumps(_KEYED_CONFIG))
    backend = doc["backends"][0]
    levels = {"run": doc, "suite": doc["suite"], "backend": backend,
              "sampling": backend["sampling"], "fault": backend["fault"],
              "bootstrap": doc["bootstrap"]}
    config_from_dict(doc)
    levels[where][typo] = 1
    with pytest.raises(ConfigError, match=typo):
        config_from_dict(doc)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert typo in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_config_level_must_be_an_object():
    doc = json.loads(json.dumps(_KEYED_CONFIG))
    doc["backends"] = ["oracle"]
    with pytest.raises(ConfigError, match="backend config must be an object"):
        config_from_dict(doc)


_ENDPOINT_BLOCK = {"kind": "endpoint", "label": "local-vllm",
                   "model_id": "Qwen/Qwen2.5-1.5B-Instruct", "base_url": "http://localhost:8000",
                   "sampling": {"temperature": 0.0, "request_seed": 1234},
                   "max_in_flight": 4, "max_retries": 2}

# Digests computed with the field-by-field codec this one replaced: a
# config accepted before and after keeps the digest its records carry.
_PINNED_DIGESTS = [
    ("readme_demo", {
        "run_id": "demo",
        "suite": {"families": ["arithmetic_two_step", "tool_call_argument"],
                  "count": 25, "seed": 7},
        "modes": ["freeform", "prompt_json", "answer_only_schema", "delayed_constraint"],
        "backends": [{"kind": "oracle", "label": "oracle", "model_id": "oracle-v1"}],
        "bootstrap": {"resamples": 2000, "level": 0.95, "seed": 0}}, "3b183cf0f594"),
    ("readme_corruptor", {"backends": [
        {"kind": "corruptor", "label": "noisy", "model_id": "corruptor-v1",
         "fault": {"p_invalid_json": 0.2, "p_wrong_field": 0.3, "seed": 13}}]}, "aaaa61a4b5e1"),
    ("readme_endpoint", {"backends": [_ENDPOINT_BLOCK]}, "ee6c8d6bd660"),
    ("bench_offline", {
        "run_id": "perfbench-offline-101",
        "suite": {"families": list(FAMILIES), "count": 200, "seed": 101},
        "modes": list(MODE_NAMES),
        "backends": [{"kind": "corruptor", "label": "corruptor", "model_id": "corruptor-v1",
                      "fault": {"p_invalid_json": 0.1, "p_wrong_field": 0.2, "seed": 101,
                                "wrong_field_targets": list(CALENDAR_SEMANTIC_FIELDS)}}],
        "delayed_variant": "deterministic"}, "151fbbc9ac0b"),
    ("bench_endpoint", {
        "run_id": "perfbench-endpoint-101",
        "suite": {"families": list(FAMILIES), "count": 200, "seed": 101},
        "modes": list(MODE_NAMES),
        "backends": [{"kind": "endpoint", "label": "mock", "model_id": "mock-model",
                      "base_url": "http://127.0.0.1:8765", "max_in_flight": 2,
                      "max_retries": 2, "timeout_ms": 30000}],
        "delayed_variant": "model"}, "92da1a1d31c1"),
    ("keyed", _KEYED_CONFIG, "62e411e77ffa"),
    ("endpoint_full", {
        "run_id": "ep-full",
        "suite": {"families": ["tool_call_argument", "boolean_logic"], "count": 10, "seed": 5},
        "modes": ["prompt_json", "final_only_regex", "delayed_constraint"],
        "backends": [{"kind": "endpoint", "label": "sglang", "model_id": "m-3b",
                      "base_url": "http://127.0.0.1:30000",
                      "sampling": {"temperature": 0.7, "max_tokens": 256, "request_seed": 42},
                      "constraint_transport": {"schema": "response_format.json_schema",
                                               "regex": "regex"},
                      "timeout_ms": 5000, "max_in_flight": 8, "max_retries": 0}],
        "delayed_variant": "model", "strict_extraction": True, "strict_trace": True,
        "baseline_mode": "freeform"}, "fdb4c3d5ffc7"),
]


@pytest.mark.parametrize("doc, digest", [case[1:] for case in _PINNED_DIGESTS],
                         ids=[case[0] for case in _PINNED_DIGESTS])
def test_config_digest_is_pinned(doc, digest):
    config = config_from_dict(doc)
    assert config.digest() == digest
    assert config_from_dict(config.to_dict()) == config


def test_readme_configs_decode():
    """README's run config, and each backend block wrapped as a run config."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [json.loads(text if text.startswith("{") else "{" + text + "}")
              for text in re.findall(r"```json\n(.*?)\n```", readme, re.S)]
    assert len(blocks) == 4
    for block in blocks:
        if "backends" in block:
            doc = block
        elif "kind" in block:
            doc = {"backends": [block]}
        else:  # a fragment of the endpoint block
            doc = {"backends": [{**_ENDPOINT_BLOCK, **block}]}
        config_from_dict(doc)


@pytest.mark.parametrize("path, value", [
    ("strict_extraction", "false"), ("run_id", 5), ("modes", {"prompt_json": 1}), ("modes", []),
    ("backends", {"kind": "oracle"}),
    ("suite.count", "ten"), ("suite.count", None), ("suite.count", 100.0), ("suite.seed", True),
    ("suite.families", {"boolean_logic": 1}), ("suite.families", []),
    ("backends[0].timeout_ms", 1.9), ("backends[0].max_in_flight", True),
    ("backends[0].label", None), ("backends[0].constraint_transport", {}),
    ("backends[0].sampling.max_tokens", "ten"), ("backends[0].sampling.temperature", None),
    ("backends[0].sampling.temperature", float("nan")),
    ("backends[0].fault.p_invalid_json", None), ("backends[0].fault.seed", "ten"),
    ("backends[0].fault.wrong_field_targets", {"topic": 1}),
    ("bootstrap.resamples", "ten"), ("bootstrap.level", None),
])
def test_config_rejects_wrong_types(tmp_path, capsys, path, value):
    doc = json.loads(json.dumps(_KEYED_CONFIG))
    *parents, name = [int(key) if key.isdigit() else key for key in re.findall(r"\w+", path)]
    node = doc
    for key in parents:
        node = node[key]
    node[name] = value
    with pytest.raises(ConfigError, match=re.escape(path)):
        config_from_dict(doc)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert path in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_wrong_field_target_fails_before_any_output(tmp_path, capsys):
    with pytest.raises(ConfigError, match="durration"):
        FaultProfile(wrong_field_targets=("durration",))
    doc = json.loads(json.dumps(_KEYED_CONFIG))
    doc["backends"][0]["fault"]["wrong_field_targets"] = ["date", "durration"]
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "backends[0].fault: wrong_field_targets" in err and "durration" in err
    assert not (tmp_path / "out").exists()


def test_config_defaults_and_checks_live_on_the_dataclasses():
    oracle = BackendConfig()
    assert (oracle.kind, oracle.label) == ("oracle", "oracle")
    assert config_from_dict({"backends": [{}]}) == RunConfig(backends=(oracle,))
    assert RunConfig(backends=(oracle,)).suite == SuiteConfig()
    for build, match in [
        (lambda: SuiteConfig(families=("algebra",)), "family"),
        (lambda: SuiteConfig(families=()), "family"),
        (lambda: RunConfig(modes=("yaml_mode",), backends=(oracle,)), "mode"),
        (lambda: RunConfig(modes=(), backends=(oracle,)), "mode"),
        (lambda: RunConfig(delayed_variant="oracle", backends=(oracle,)), "variant"),
        (lambda: RunConfig(), "backend"),
        (lambda: FaultProfile(wrong_field_targets=()), "wrong_field_targets"),
    ]:
        with pytest.raises(ConfigError, match=match):
            build()


@pytest.mark.parametrize("path, value, level", [
    ("suite.count", 0, "suite"), ("suite.count", -4, "suite"),
    ("baseline_mode", "yaml", "config"),
    ("bootstrap.resamples", 0, "bootstrap"), ("bootstrap.level", 1.5, "bootstrap"),
    ("bootstrap.level", 0, "bootstrap"),
])
def test_config_rejects_out_of_range_values(tmp_path, capsys, path, value, level):
    doc = json.loads(json.dumps(_KEYED_CONFIG))
    *parents, name = path.split(".")
    node = doc
    for key in parents:
        node = node.setdefault(key, {})
    node[name] = value
    with pytest.raises(ConfigError, match=f"{level}: .*{name}"):
        config_from_dict(doc)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["run", "--config", str(config_path), "--out", str(tmp_path / "out")]) == 2
    assert name in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


# ---------------------------------------------------------------------------
# scoring
# ---------------------------------------------------------------------------

def test_score_shape_and_zero_tax(tmp_path):
    config = _config(("prompt_json", "answer_only_schema", "freeform"))
    records = load_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=60, seed=0))
    # 3 modes x (2 families + rollup)
    assert len(result.aggregates) == 9
    assert {a.task for a in result.aggregates} == {"arithmetic_two_step",
                                                   "boolean_logic", "all"}
    # 2 non-baseline modes x 3 tasks x 2 metrics
    assert len(result.comparisons) == 12
    for cmp in result.comparisons:
        assert cmp.baseline_mode == "prompt_json"
        assert cmp.tax == 0 and cmp.tax_norm == 0.0
        assert cmp.signed_delta == 0
    assert result.calendar == []


def test_score_aggregates_are_deterministically_ordered(tmp_path):
    config = _config(("answer_only_schema", "freeform", "prompt_json"))
    records = load_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    labels = [(a.task, a.mode) for a in result.aggregates]
    assert labels == [
        ("arithmetic_two_step", "freeform"),
        ("arithmetic_two_step", "prompt_json"),
        ("arithmetic_two_step", "answer_only_schema"),
        ("boolean_logic", "freeform"),
        ("boolean_logic", "prompt_json"),
        ("boolean_logic", "answer_only_schema"),
        ("all", "freeform"),
        ("all", "prompt_json"),
        ("all", "answer_only_schema"),
    ]


def test_score_includes_calendar_rows(tmp_path):
    config = _config(("prompt_json", "answer_only_schema", "freeform"),
                     families=("tool_call_argument",))
    records = load_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    # freeform rows carry no calendar classification
    assert [row.mode for row in result.calendar] == ["prompt_json",
                                                     "answer_only_schema"]
    for row in result.calendar:
        assert row.n == 3
        assert dict(row.class_counts)["correct"] == 3
        assert all(v == 0 for k, v in row.field_counts)


def test_score_warns_on_missing_baseline(tmp_path, capsys):
    config = _config(("freeform",))
    records = load_records(run(config, tmp_path / "out"))
    capsys.readouterr()
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    assert result.comparisons == []
    assert "baseline mode 'prompt_json' absent" in capsys.readouterr().out


def test_score_warns_on_mixed_digests(tmp_path, capsys):
    a = load_records(run(_config(("prompt_json",)), tmp_path / "a"))
    b = load_records(run(_config(("prompt_json",), run_id="other"), tmp_path / "b"))
    b = [replace(r, backend_label="other-backend") for r in b]
    capsys.readouterr()
    score(a + b, bootstrap=BootstrapConfig(resamples=50, seed=0))
    assert "config digests" in capsys.readouterr().out


def test_score_skips_duplicated_cell_with_warning(tmp_path, capsys):
    config = _config(("prompt_json", "freeform", "answer_only_schema"))
    records = load_records(run(config, tmp_path / "out"))
    doubled = records + [r for r in records if r.mode == "freeform"]
    capsys.readouterr()
    result = score(doubled, bootstrap=BootstrapConfig(resamples=50, seed=0))
    out = capsys.readouterr().out
    assert "duplicate" in out and "freeform" in out
    # the duplicated mode is skipped; the clean mode still gets compared
    assert {c.mode for c in result.comparisons} == {"answer_only_schema"}
    # aggregates stay count-honest about what was loaded
    freeform_all = [a for a in result.aggregates
                    if a.mode == "freeform" and a.task == "all"]
    assert freeform_all[0].n == 12


def test_answer_and_exec_rows_share_validity_and_wrong_valid_cis(tmp_path):
    fault = FaultProfile(p_invalid_json=0.3, p_wrong_field=0.3, seed=4,
                         wrong_field_targets=tuple(CALENDAR_SEMANTIC_FIELDS))
    config = _config(MODE_NAMES, families=FAMILIES, count=12,
                     backend_kind="corruptor", fault=fault)
    result = score(load_records(run(config, tmp_path / "out")),
                   bootstrap=BootstrapConfig(resamples=200, seed=0))
    by_pair: dict = {}
    for cmp in result.comparisons:
        by_pair.setdefault((cmp.task, cmp.mode), {})[cmp.acc_metric] = cmp
    assert len(by_pair) == 6 * (len(MODE_NAMES) - 1)
    shared = [(c["answer"].validity_ci, c["answer"].wrong_valid_ci,
               c["exec"].validity_ci, c["exec"].wrong_valid_ci) for c in by_pair.values()]
    assert any(v.low != v.high for v, *_ in shared)  # not only degenerate CIs
    for answer_validity, answer_wrong_valid, exec_validity, exec_wrong_valid in shared:
        assert answer_validity == exec_validity
        assert answer_wrong_valid == exec_wrong_valid


def test_score_lets_errors_outside_pairing_surface(tmp_path, monkeypatch):
    records = load_records(run(_config(("prompt_json", "freeform")), tmp_path / "out"))

    def broken_ci(*args, **kwargs):
        raise ValueError("bootstrap defect")

    monkeypatch.setattr(metrics, "_paired_delta_ci", broken_ci)
    with pytest.raises(ValueError, match="bootstrap defect"):
        score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))


def test_bootstrap_version_is_stamped(tmp_path):
    out = tmp_path / "out"
    records = load_records(run(_config(("prompt_json", "freeform")), out))
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    assert manifest["bootstrap_version"] == BOOTSTRAP_VERSION == "bootstrap/v2"
    paths = score_to_files(score(records, bootstrap=BootstrapConfig(resamples=50, seed=0)),
                           tmp_path / "scores")
    lines = paths["comparisons"].read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",bootstrap_level,bootstrap_version")
    assert len(lines) > 1 and all(line.endswith(",bootstrap/v2") for line in lines[1:])


def test_score_rejects_empty():
    with pytest.raises(ValueError):
        score([])


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------

def test_score_to_files_and_formats(tmp_path):
    config = _config(("prompt_json", "answer_only_schema"),
                     families=("tool_call_argument",))
    records = load_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    paths = score_to_files(result, tmp_path / "scores")
    agg_lines = paths["aggregates"].read_text().splitlines()
    assert agg_lines[0].startswith("backend,model,task,mode,n,n_failed,schema_validity_pct")
    assert ",100.0," in agg_lines[1]
    cmp_lines = paths["comparisons"].read_text().splitlines()
    assert "signed_delta_pts" in cmp_lines[0]
    assert ",+0.0," in cmp_lines[1]  # oracle: zero signed delta, sign preserved
    cal_lines = paths["calendar"].read_text().splitlines()
    assert cal_lines[0].startswith("backend,model,mode,n,correct,wrong_duration")
    assert len(cal_lines) == 3  # header + two object modes


def test_outputs_byte_identical_across_reruns(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        config = _config(("prompt_json", "answer_only_schema", "delayed_constraint"))
        records_path = run(config, tmp_path / tag)
        result = score(load_records(records_path),
                       bootstrap=BootstrapConfig(resamples=100, seed=0))
        paths = score_to_files(result, tmp_path / f"{tag}-scores")
        outputs.append({k: p.read_bytes() for k, p in paths.items()})
        outputs[-1]["report"] = render_report(result, "prompt_json").encode()
    assert outputs[0] == outputs[1]


def test_rerun_canonical_records_identical(tmp_path):
    config = _config(("prompt_json", "freeform", "delayed_constraint"))
    first = run(config, tmp_path / "a")
    second = run(config, tmp_path / "b")
    assert canonical_record_lines(first) == canonical_record_lines(second)
    assert canonical_diff(first, second) == []


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

def test_render_report_contents(tmp_path):
    config = _config(("prompt_json", "answer_only_schema", "delayed_constraint"),
                     families=("arithmetic_two_step", "tool_call_argument"))
    records = load_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    report = render_report(result, "prompt_json")
    assert "## Mode dashboard" in report
    assert "## Constraint tax vs `prompt_json`" in report
    assert "delayed_constraint" in report
    assert "no measured tax" in report  # oracle reading column
    assert "## Calendar-argument failure classes" in report
    assert "+ pkg." in report  # latency caveat for the delayed mode
    # reports are pure functions of the scores: no wall-clock timestamps
    assert not re.search(r"\d{4}-\d{2}-\d{2}T\d{2}", report)
    again = render_report(result, "prompt_json")
    assert report == again


def test_report_without_comparisons(tmp_path):
    config = _config(("freeform",), families=("boolean_logic",))
    records = load_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    report = render_report(result, "prompt_json")
    assert "_No comparisons" in report
