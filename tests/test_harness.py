"""End-to-end run loop, delayed packaging, scoring, outputs."""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
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
from ctax.backend import BackendConfig, FaultProfile, SamplingConfig, build_request_body
from ctax.cli import main
from ctax.errors import ConfigError
from ctax.harness import (
    RunConfig,
    SuiteConfig,
    config_from_dict,
    derive_delayed,
    load_records,
    run,
    _write_manifest,
    score,
    score_to_files,
)
from ctax import metrics
from ctax.metrics import BOOTSTRAP_VERSION, BootstrapConfig
from ctax.modes import (DELAYED_VARIANTS, MODE_NAMES, NO_CONSTRAINT, Constraint,
                        build_delayed_stage2, build_prompt, scoring_constraint,
                        transported_constraint)
from ctax.records import (MASKED_FIELDS, RunRecord, canonical_diff, canonical_record_lines,
                          read_records, write_records)
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
    assert rec.extraction_rule == "lenient/v2"
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


def _full_lines(records) -> str:
    """Records as lines carried them before a line left out its default
    fields: every field, in sorted key order."""
    return "".join(json.dumps(vars(r), sort_keys=True, ensure_ascii=False) + "\n"
                   for r in records)


def test_resume_over_full_format_lines_adds_only_the_missing_records(tmp_path):
    config = _config(("prompt_json", "delayed_constraint"))
    path = run(config, tmp_path / "out")
    full = canonical_record_lines(path)
    records = read_records(path)
    kept = _full_lines(records[:-3])
    path.write_text(kept, encoding="utf-8")
    run(config, tmp_path / "out", resume=True)
    text = path.read_text(encoding="utf-8")
    assert text.startswith(kept)  # the full lines were neither rewritten nor made again
    assert text.count("\n") == len(records)
    assert canonical_record_lines(path) == full


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


def test_a_lone_surrogate_in_a_completion_is_written_escaped_and_read_back(tmp_path):
    raw = '{"answer": "7\ud800"}'  # the stub's JSON body carries it as \ud800
    out = tmp_path / "out"
    with stub_server(content=raw) as (_state, url):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            _endpoint_run_config(url, modes=("prompt_json",), count=3).to_dict()))
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 0
        assert main(["run", "--config", str(config_path), "--out", str(out), "--resume"]) == 0
    data = (out / "records.jsonl").read_bytes()
    data.decode("utf-8")  # valid UTF-8
    assert data.count(b'7\\ud800') == 3
    records = read_records(out / "records.jsonl")
    assert [r.raw_text for r in records] == [raw] * 3
    assert {r.parse_status for r in records} == {"ok"}
    assert main(["score", "--records", str(out / "records.jsonl"),
                 "--out", str(tmp_path / "scores")]) == 0


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
# the record line format, pinned
# ---------------------------------------------------------------------------

# sha256 of each scripted run's records.jsonl bytes with the wall-clock
# fields set to null. Two runs of one commit cannot show a format drift;
# these pins can.
_GOLDEN_RECORD_SHA256 = {
    "deterministic": "001f39787e2550cab98da1095dc28c68842f56068e18f601d7acb0b25524675b",
    "model": "641b1f0d16a548191bf005e5e7d2adde9d8f3552d88e46f4b500c05f1b2ef6fe",
}
_MASK_RE = re.compile(rb'"(%s)": (?:null|"[^"]*"|[-+.0-9eE]+)'
                      % b"|".join(name.encode() for name in MASKED_FIELDS))


@pytest.fixture(scope="module")
def scripted_runs(tmp_path_factory):
    """A corruptor run over every mode and family, once per delayed variant."""
    fault = FaultProfile(p_invalid_json=0.1, p_wrong_field=0.2, seed=5,
                         wrong_field_targets=tuple(CALENDAR_SEMANTIC_FIELDS))
    runs = {}
    for variant in DELAYED_VARIANTS:
        config = RunConfig(
            run_id=f"record-golden-{variant}",
            suite=SuiteConfig(families=FAMILIES, count=10, seed=31),
            modes=MODE_NAMES,
            backends=(BackendConfig(kind="corruptor", label="corruptor", model_id="c-v1",
                                    fault=fault),),
            delayed_variant=variant)
        runs[variant] = (config, run(config, tmp_path_factory.mktemp(variant)))
    return runs


def test_record_lines_match_golden_hashes(scripted_runs):
    digests = {}
    for variant, (_config, path) in scripted_runs.items():
        data = path.read_bytes()
        lines = data.decode("utf-8").splitlines()
        assert len(lines) == 9 * 5 * 10 + (50 if variant == "model" else 0)
        for line in lines:
            assert line == json.dumps(json.loads(line), sort_keys=True, ensure_ascii=False)
        masked, hits = _MASK_RE.subn(rb'"\1": null', data)
        assert hits == len(MASKED_FIELDS) * len(lines)
        digests[variant] = hashlib.sha256(masked).hexdigest()
    assert digests == _GOLDEN_RECORD_SHA256


def test_full_and_compact_lines_read_back_to_equal_records(scripted_runs, tmp_path):
    for variant, (_config, path) in scripted_runs.items():
        records = read_records(path)
        full, compact, mixed = (tmp_path / f"{variant}-{name}.jsonl"
                                for name in ("full", "compact", "mixed"))
        full.write_text(_full_lines(records), encoding="utf-8")
        write_records(compact, records)
        assert compact.read_bytes() == path.read_bytes()  # run and write_records: one encoder
        assert compact.stat().st_size < full.stat().st_size
        pairs = zip(full.read_text(encoding="utf-8").splitlines(keepends=True),
                    compact.read_text(encoding="utf-8").splitlines(keepends=True))
        mixed.write_text("".join(pair[i % 2] for i, pair in enumerate(pairs)),
                         encoding="utf-8")
        for other in (full, mixed):
            assert read_records(other) == records
            assert canonical_diff(other, compact) == []


# The keys perfbench/workloads.py indexes in every records line it reads.
_BENCH_KEYS = ("instance_id", "backend_label", "model_id", "mode", "stage", "family",
               "raw_text", "error_class", "schema_valid", "answer_correct", "exec_correct",
               "trace_correct")


def _assert_lines_carry(path: Path, keys) -> None:
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines
    for line in lines:
        assert not set(keys) - json.loads(line).keys(), line


def test_every_line_carries_the_bench_keys_and_the_masked_fields(scripted_runs, tmp_path):
    keys = _BENCH_KEYS + MASKED_FIELDS
    for _config, path in scripted_runs.values():
        _assert_lines_carry(path, keys)
    with stub_server(fail_first=10**6, fail_status=400) as (_state, url):  # refuses every post
        failed = run(_endpoint_run_config(url, count=2), tmp_path / "failed")
    assert {r.error_class for r in read_records(failed)} == {"generation_failed"}
    _assert_lines_carry(failed, keys)
    source, derived = scripted_runs["deterministic"][1], tmp_path / "derived.jsonl"
    assert main(["derive-delayed", "--records", str(source),
                 "--tasks", str(source.parent / "tasks.jsonl"), "--source-mode", "freeform",
                 "--out", str(derived)]) == 0
    assert {r.derived_from for r in read_records(derived)} == {"freeform"}
    _assert_lines_carry(derived, keys)


def test_shared_constraints_stay_unchanged(scripted_runs, tmp_path):
    """Constraints are memoised, so every caller shares one schema dict: a
    caller that edited it would change every later record and request."""
    endpoint = BackendConfig(kind="endpoint", label="e", model_id="m",
                             base_url="http://127.0.0.1:9")
    for variant, (config, path) in scripted_runs.items():
        (tmp_path / variant).mkdir()
        _write_manifest(config, config.digest(), tmp_path / variant)
        instances = _instances(config)
        for mode in MODE_NAMES:
            for instance in instances.values():
                json.dumps(build_request_body(endpoint, build_prompt(instance, mode)))
        for record in read_records(path):
            fresh = scoring_constraint.__wrapped__(record.mode, record.family)
            assert record.constraint_digest == fresh.digest()
            if record.mode == "delayed_constraint" and record.stage == "stage1":
                outcome = build_delayed_stage2(record.raw_text, instances[record.instance_id],
                                               "model")
                json.dumps(build_request_body(endpoint, outcome.stage2_bundle))
    assert NO_CONSTRAINT == Constraint(kind="none")
    for mode in MODE_NAMES:
        for family in FAMILIES:
            shared, fresh = scoring_constraint(mode, family), scoring_constraint.__wrapped__(
                mode, family)
            assert shared == fresh and shared.digest() == fresh.digest()
            for stage in ("single", "stage1", "stage2"):
                transported = transported_constraint(mode, family, stage)
                assert transported == transported_constraint.__wrapped__(mode, family, stage)
                assert transported in (NO_CONSTRAINT, shared)


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


def test_delayed_cell_leaves_out_an_instance_whose_stage2_is_missing(tmp_path, capsys):
    config = _config(("prompt_json", "delayed_constraint"), families=("boolean_logic",),
                     delayed_variant="model")
    records = load_records(run(config, tmp_path / "out"))
    dropped = next(r for r in records if r.stage == "stage2")
    records.remove(dropped)
    capsys.readouterr()
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    # its stage 1 was scored under the freeform contract: no delayed verdict
    assert [(a.mode, a.n) for a in result.aggregates] == [
        ("prompt_json", 3), ("delayed_constraint", 2)]
    assert result.comparisons == []
    assert f"missing in constrained: {dropped.instance_id}" in capsys.readouterr().out


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


def test_score_leaves_out_a_family_cell_with_no_scored_record(tmp_path, capsys):
    records = load_records(run(_config(("prompt_json", "freeform")), tmp_path / "out"))
    records = [replace(r, error_class="generation_failed")
               if (r.family, r.mode) == ("boolean_logic", "freeform") else r
               for r in records]
    capsys.readouterr()
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    assert "oracle/scripted-v1/boolean_logic/freeform has no scored records" in \
        capsys.readouterr().out
    assert [(a.task, a.mode, a.n, a.n_failed) for a in result.aggregates] == [
        ("arithmetic_two_step", "freeform", 3, 0),
        ("arithmetic_two_step", "prompt_json", 3, 0),
        ("boolean_logic", "prompt_json", 3, 0),
        ("all", "freeform", 3, 3),
        ("all", "prompt_json", 6, 0),
    ]
    # the rollup pairs over the instances scored in both arms, and keeps its label
    assert [(c.task, c.n) for c in result.comparisons] == [
        ("arithmetic_two_step", 3), ("arithmetic_two_step", 3), ("all", 3), ("all", 3)]


# sha256 of the score outputs of _golden_records, made before scoring became
# one pass over the records; a change to them is a change to reported numbers.
# The aggregates, comparisons and report hashes were made again when the
# delayed cell began to take its verdict from stage 2 only: the instance
# whose stage 2 is dropped now leaves the corruptor's delayed cells.
_GOLDEN_SCORE_SHA256 = {
    "aggregates": "2f8055f7961c4697114537be67c55f3ddae2eb42e7fa865024ce4bc530044d16",
    "comparisons": "ea3d902242acd208938d35364756844447a8e010de74ef6e3fe37caef02b112b",
    "calendar": "335eeab81387a46cc8cf2bbbe41018fc1437a5adfac4511549da624264c8d01c",
    "report": "71fad1055a093bfd205f3d1f54662209f0f8301d0e27cb52d8241431117b272d",
}


def _golden_records(tmp_path):
    """Two runs of two scripted backends, scored together: the first with
    the model delayed variant and one stage-2 row dropped, the second over
    other families, plus a duplicated cell. No instance fails generation."""
    fault = FaultProfile(p_invalid_json=0.2, p_wrong_field=0.3, seed=8,
                         wrong_field_targets=tuple(CALENDAR_SEMANTIC_FIELDS))
    backends = (BackendConfig(kind="corruptor", label="corruptor", model_id="c-v1",
                              fault=fault),
                BackendConfig(kind="oracle", label="oracle", model_id="o-v1"))
    first = RunConfig(
        run_id="golden-a",
        suite=SuiteConfig(families=("arithmetic_two_step", "tool_call_argument",
                                    "boolean_logic"), count=5, seed=23),
        modes=("prompt_json", "freeform", "answer_only_schema", "final_only_regex",
               "delayed_constraint"),
        backends=backends, delayed_variant="model")
    second = RunConfig(
        run_id="golden-b",
        suite=SuiteConfig(families=("symbolic_string", "object_tracking"), count=5, seed=23),
        modes=("prompt_json", "freeform", "answer_only_schema"), backends=backends)
    records = load_records(run(first, tmp_path / "a"))
    dropped = next(r for r in records if r.stage == "stage2")
    records.remove(dropped)
    records += load_records(run(second, tmp_path / "b"))
    return records + [r for r in records if (r.backend_label, r.mode, r.family) ==
                      ("oracle", "answer_only_schema", "arithmetic_two_step")]


def test_score_outputs_match_golden_hashes(tmp_path):
    result = score(_golden_records(tmp_path), bootstrap=BootstrapConfig(resamples=200, seed=3))
    paths = score_to_files(result, tmp_path / "scores")
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    digests["report"] = hashlib.sha256(
        render_report(result, "prompt_json").encode("utf-8")).hexdigest()
    assert digests == _GOLDEN_SCORE_SHA256


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
    assert manifest["bootstrap_version"] == BOOTSTRAP_VERSION == "bootstrap/v3"
    paths = score_to_files(score(records, bootstrap=BootstrapConfig(resamples=50, seed=0)),
                           tmp_path / "scores")
    lines = paths["comparisons"].read_text(encoding="utf-8").splitlines()
    assert lines[0].endswith(",bootstrap_level,bootstrap_version")
    assert len(lines) > 1 and all(line.endswith(",bootstrap/v3") for line in lines[1:])


def test_score_rejects_empty():
    with pytest.raises(ValueError):
        score([])


def _row(backend, mode, i, family="arithmetic_two_step", **kw):
    fields = dict(schema_valid=True, answer_correct=True, exec_correct=True,
                  extraction_rule="lenient/v2", config_digest="d1")
    fields.update(kw)
    return RunRecord(instance_id=f"{family}-{i:05d}", model_id="m", backend_label=backend,
                     family=family, mode=mode, stage="single", constraint_kind="none",
                     constraint_digest=None, constraint_enforced=False, raw_text="",
                     parse_status="ok", **fields)


def test_score_warning_lines(tmp_path, capsys):
    records = [_row("dup", mode, i) for mode in ("prompt_json", "freeform", "answer_only_schema")
               for i in range(3)]
    records.append(_row("dup", "prompt_json", 0))  # a duplicated baseline instance
    records += [_row("miss", "prompt_json", i) for i in range(3)]
    records += [_row("miss", "freeform", i) for i in range(2)]  # missing from one arm
    records += [_row("fail", "prompt_json", i) for i in range(3)]
    records += [_row("fail", "freeform", i, error_class="generation_failed") for i in range(3)]
    records += [_row("nobase", "freeform", i) for i in range(3)]
    records += [_row("mixed", mode, i, extraction_rule=f"lenient/v{1 + i % 2}")
                for mode in ("prompt_json", "freeform") for i in range(3)]
    records.append(_row("digest", "prompt_json", 0, config_digest="d2"))
    path = tmp_path / "records.jsonl"
    write_records(path, records)
    capsys.readouterr()
    assert main(["score", "--records", str(path), "--out", str(tmp_path / "scores")]) == 0
    warnings = [line for line in capsys.readouterr().out.splitlines()
                if line.startswith("[WARN]")]
    duplicate = ("duplicate baseline record for instance 'arithmetic_two_step-00000'; a cell "
                 "must hold one record per instance — deduplicate the inputs before pairing")
    assert warnings == [
        "[WARN] records mix 2 config digests; cross-run comparability is not guaranteed",
        f"[WARN] comparisons skipped for dup/m/arithmetic_two_step/freeform: {duplicate}",
        f"[WARN] comparisons skipped for dup/m/arithmetic_two_step/answer_only_schema: "
        f"{duplicate}",
        "[WARN] fail/m/arithmetic_two_step/freeform has no scored records; row omitted",
        "[WARN] comparisons skipped for miss/m/arithmetic_two_step/freeform: instance sets "
        "differ; missing in constrained: arithmetic_two_step-00002",
        "[WARN] mixed/m/arithmetic_two_step/freeform mixes extraction rules "
        "lenient/v1, lenient/v2",
        "[WARN] mixed/m/arithmetic_two_step/prompt_json mixes extraction rules "
        "lenient/v1, lenient/v2",
        "[WARN] baseline mode 'prompt_json' absent for nobase/m/arithmetic_two_step; "
        "comparisons skipped",
    ]


def _recount(records, baseline="prompt_json"):
    """Aggregate counts and comparison point deltas by a plain walk over the
    records: the indicator rules of perfbench's expected_comparisons, with
    pairs over the instances scored in both arms."""
    cells: dict = {}
    for r in records:
        for task in (r.family, "all"):
            cells.setdefault((task, r.mode), []).append(r)

    def indicators(r):
        return {"valid": r.schema_valid, "answer": r.answer_correct, "exec": r.exec_correct,
                "wrong_valid": r.schema_valid and not r.exec_correct}

    aggregates, scored = {}, {}
    for (task, mode), cell in cells.items():
        if task == "all" and len({r.family for r in cell}) == 1:
            continue
        kept = {r.instance_id: indicators(r) for r in cell if r.error_class != "generation_failed"}
        if not kept:
            continue
        scored[(task, mode)] = kept
        traced = [r.trace_correct for r in cell
                  if r.error_class != "generation_failed" and r.trace_correct is not None]
        aggregates[(task, mode)] = (
            len(kept), len(cell) - len(kept),
            *(sum(ind[name] for ind in kept.values())
              for name in ("valid", "answer", "exec", "wrong_valid")),
            len(traced), sum(traced))
    comparisons = {}
    for (task, mode), cons in scored.items():
        base = scored.get((task, baseline))
        if mode == baseline or base is None:
            continue
        ids = base.keys() & cons.keys()
        if not ids:
            continue

        def delta(name):
            return Fraction(sum(cons[i][name] for i in ids) - sum(base[i][name] for i in ids),
                            len(ids))

        for metric in ("answer", "exec"):
            comparisons[(task, mode, metric)] = (
                len(ids), Fraction(sum(base[i][metric] for i in ids), len(ids)),
                delta(metric), delta("valid"), delta("wrong_valid"))
    return aggregates, comparisons


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    st = None


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_score_counts_match_a_record_walk():
    modes = ("prompt_json", "answer_only_schema", "freeform")
    verdicts = st.fixed_dictionaries({
        "failed": st.sampled_from([False, False, False, True]),
        "schema_valid": st.booleans(), "answer_correct": st.booleans(),
        "exec_correct": st.booleans(), "trace_correct": st.sampled_from([None, True, False]),
    })
    instances = st.lists(st.sampled_from(["arithmetic_two_step", "boolean_logic",
                                          "symbolic_string"]), min_size=1, max_size=8)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(instances, st.data())
    def check(families, data):
        records = []
        for i, family in enumerate(families):
            for mode in modes:
                v = data.draw(verdicts)
                failed = v.pop("failed")
                records.append(_row("b", mode, i, family,
                                    error_class="generation_failed" if failed else "x", **v))
        records = data.draw(st.permutations(records))
        with contextlib.redirect_stdout(io.StringIO()):
            result = score(records, bootstrap=BootstrapConfig(resamples=20, seed=0))
        aggregates, comparisons = _recount(records)
        assert {(a.task, a.mode): (a.n, a.n_failed, a.valid_count, a.answer_count,
                                   a.exec_count, a.wrong_valid_count, a.trace_n, a.trace_count)
                for a in result.aggregates} == aggregates
        assert {(c.task, c.mode, c.acc_metric): (c.n, c.acc_baseline, c.signed_delta,
                                                 c.validity_delta, c.wrong_valid_delta)
                for c in result.comparisons} == comparisons
        assert len(result.comparisons) == len(comparisons)

    check()


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
