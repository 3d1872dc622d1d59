"""End-to-end run loop, delayed packaging, scoring, outputs."""

from __future__ import annotations

import contextlib
import datetime as dt
import hashlib
import io
import json
import os
import re
import shutil
import signal
import subprocess
import sys
import textwrap
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

import ctax
from ctax import harness
from ctax.backend import (_INLINE_RUN, BackendConfig, FaultProfile, GenerationResult,
                          SamplingConfig, build_request_body)
from ctax.cli import main
from ctax.errors import ConfigError
from ctax.harness import (
    RunConfig,
    SuiteConfig,
    config_from_dict,
    derive_delayed,
    run,
    _write_manifest,
    score,
    score_to_files,
)
from ctax import metrics
from ctax.metrics import BOOTSTRAP_VERSION, BootstrapConfig
from ctax.modes import (DELAYED_MODE, DELAYED_VARIANTS, MODE_NAMES, NO_CONSTRAINT,
                        Constraint, build_delayed_stage2, build_prompt, scoring_constraint,
                        transported_constraint)
from ctax.records import (_ALWAYS_WRITTEN, _REQUIRED, _TEMPLATE, MASKED_FIELDS, RunRecord,
                          _json_line, _record_doc, adopt_record, canonical_diff,
                          canonical_record_lines, read_records, record_from_dict, write_records)
from ctax.report import render_report
from ctax.checkers import CALENDAR_FAILURE_CLASSES, GENERATION_FAILED
from ctax.taskgen import CALENDAR_SEMANTIC_FIELDS, FAMILIES, generate_suite
from ctax.validation import canonical_serialize
from reference_score import reference_score
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
    records = read_records(records_path)
    assert len(records) == 2 * 3 * 2  # modes x count x families
    assert len({r.key() for r in records}) == len(records)
    tasks = (tmp_path / "out" / "tasks.jsonl").read_text().splitlines()
    assert len(tasks) == 6
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["run_id"] == "t-run"
    assert manifest["config_digest"] == config.digest()
    assert manifest["config"] == config.to_dict()
    assert manifest["package_version"] and manifest["template_version"]


def _enforced(record: RunRecord) -> bool:
    """Whether a record's constraint was sent to its backend: derived from
    (mode, family, stage), not stored."""
    return transported_constraint(record.mode, record.family, record.stage).kind != "none"


def test_run_records_carry_scoring_fields(tmp_path):
    config = _config(("answer_only_schema",), families=("boolean_logic",))
    records = read_records(run(config, tmp_path / "out"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    rec = records[0]
    assert manifest["constraints"][rec.constraint_digest]["kind"] == "schema"
    assert manifest["constraints"][rec.constraint_digest]["schema"] is not None
    assert _enforced(rec)
    assert rec.extraction_rule == "lenient/v3"
    assert rec.error_class == "correct_valid"
    assert rec.run_id == "t-run" and rec.config_digest == config.digest()
    assert rec.started_at and rec.finished_at


def test_prompt_json_records_are_scored_but_not_enforced(tmp_path):
    config = _config(("prompt_json",), families=("boolean_logic",))
    records = read_records(run(config, tmp_path / "out"))
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert all(manifest["constraints"][r.constraint_digest]["kind"] == "schema" for r in records)
    assert not any(map(_enforced, records))


def test_a_record_names_its_constraint_by_digest_and_its_kind_and_enforcement_derive(tmp_path):
    enforced_modes = {"final_only_regex", "answer_only_schema", "rationale_answer_schema",
                      "typed_trace_schema"}
    config = _config(MODE_NAMES, families=FAMILIES, count=2, delayed_variant="model")
    path = run(config, tmp_path / "out")
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    records = read_records(path)
    assert len(records) == 9 * 5 * 2 + 5 * 2  # and a stage 2 per delayed instance
    for line in path.read_text(encoding="utf-8").splitlines():
        assert '"constraint_kind"' not in line and '"constraint_enforced"' not in line
    for r in records:
        kind = scoring_constraint(r.mode, r.family).kind
        assert (r.constraint_digest is None) == (kind == "none"), r.key()
        if kind != "none":
            assert manifest["constraints"][r.constraint_digest]["kind"] == kind, r.key()
        assert _enforced(r) == (r.mode in enforced_modes or r.stage == "stage2"), r.key()
    assert {r.stage for r in records if r.mode == DELAYED_MODE} == {"stage1", "stage2"}


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
    records = read_records(path)
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
    records = read_records(path)
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
        read_records(path)


def test_old_format_records_load_and_score_the_same(tmp_path):
    # records once also stored the prompt and the constraint documents
    config = _config(("prompt_json", "final_only_regex"))
    records = read_records(run(config, tmp_path / "out"))
    old = tmp_path / "old.jsonl"
    old.write_text("".join(
        json.dumps({**r.to_dict(), "prompt": "Reply with only the final answer.",
                    "constraint_schema": {"type": "object"},
                    "constraint_pattern": "^(true|false)$"}) + "\n"
        for r in records))
    assert read_records(old) == records
    cfg = BootstrapConfig(resamples=50, seed=0)
    assert score(read_records(old), bootstrap=cfg) == score(records, bootstrap=cfg)


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
        records = read_records(run(config, tmp_path / "out"))
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


@pytest.mark.parametrize("transport, modes, variant, message", [
    ({"schema": "guided_json"}, ("freeform", "final_only_regex"), "deterministic",
     "no constraint transport mapping for kind 'regex'"),
    ({"schema": "messages.guided"}, ("freeform", "answer_only_schema"), "deterministic",
     "collides at 'messages'"),
    ({"schema": "messages.guided", "regex": "guided_regex"}, ("freeform", "delayed_constraint"),
     "model", "collides at 'messages'"),
    ({"schema": "model"}, ("freeform", "answer_only_schema"), "deterministic",
     "collides at 'model'"),
    ({"schema": "guided_json."}, ("freeform", "answer_only_schema"), "deterministic",
     "has an empty part"),
])
def test_run_checks_the_constraint_transport_before_anything_is_written(
        tmp_path, capsys, transport, modes, variant, message):
    out = tmp_path / "out"
    with stub_server(content="Final answer: true") as (state, url):
        config = replace(_endpoint_run_config(url, modes=modes, count=50,
                                              constraint_transport=transport),
                         delayed_variant=variant)
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(config.to_dict()))
        assert main(["run", "--config", str(config_path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()
    assert state.post_count == 0


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
                    time.sleep(0.01)  # k answered, every slot now waits on the stub
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
    records = read_records(out / "records.jsonl")
    assert len(records) == 2 * 20
    assert len({r.key() for r in records}) == len(records)
    assert not [r for r in records if r.error_class == "generation_failed"]


_UNDER_A_LOW_DESCRIPTOR_LIMIT = """
import os, resource, sys
from ctax.cli import main
_, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
resource.setrlimit(resource.RLIMIT_NOFILE, (len(os.listdir("/dev/fd")) + 6, hard))
sys.exit(main(sys.argv[1:]))
"""


def test_run_refuses_a_max_in_flight_the_descriptor_limit_cannot_hold(tmp_path, monkeypatch):
    """Sockets past the soft RLIMIT_NOFILE used to fail their records as
    `Too many open files`, silently; run now refuses such a max_in_flight
    before anything is written or posted."""
    resource = pytest.importorskip("resource")
    out = tmp_path / "out"
    with stub_server(threaded=False, content="Final answer: true") as (state, url):
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(
            _endpoint_run_config(url, count=8, max_in_flight=4).to_dict()))
        env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
        proc = subprocess.run([sys.executable, "-c", _UNDER_A_LOW_DESCRIPTOR_LIMIT, "run",
                               "--config", str(config_path), "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "max_in_flight 4 needs 10" in proc.stderr and "ulimit -n" in proc.stderr
    assert not out.exists() and state.post_count == 0

    # the peak is 2 x max_in_flight sockets, the selector and the records file
    backend = BackendConfig(kind="endpoint", base_url="http://127.0.0.1:9", max_in_flight=5)
    _, hard = resource.getrlimit(resource.RLIMIT_NOFILE)
    for room, refused in ((12, False), (11, True)):
        limit = len(os.listdir("/dev/fd")) - 1 + room
        monkeypatch.setattr(resource, "getrlimit", lambda which: (limit, hard))
        if refused:
            with pytest.raises(ConfigError, match=f"needs 12 .* limit of {limit}"):
                harness.check_descriptors(backend)
        else:
            harness.check_descriptors(backend)
    monkeypatch.setitem(sys.modules, "resource", None)  # no such module: no check
    harness.check_descriptors(backend)


def test_a_scripted_run_lands_whole_flushed_batches(tmp_path, monkeypatch):
    """Scripted generate_all hands on_result lists of at most _INLINE_RUN
    pairs, and each batch's lines are whole and on disk, as another reader
    sees the file, before the next batch is generated."""
    config = _config(("prompt_json", "freeform"), count=150)  # 600 records
    records_path = tmp_path / "out" / "records.jsonl"
    seen = []  # (batch size, complete lines on disk, file ends with a newline)
    real_generate_all = harness.generate_all

    def watched(backend, bundles, on_result):
        def land(pairs):
            follow_ups = on_result(pairs)
            data = records_path.read_bytes()
            seen.append((len(pairs), data.count(b"\n"), data.endswith(b"\n")))
            return follow_ups

        real_generate_all(backend, bundles, land)

    monkeypatch.setattr(harness, "generate_all", watched)
    run(config, tmp_path / "out")
    assert [n for n, _, _ in seen] == [_INLINE_RUN, _INLINE_RUN, 600 - 2 * _INLINE_RUN]
    assert [lines for _, lines, _ in seen] == [_INLINE_RUN, 2 * _INLINE_RUN, 600]
    assert all(whole for _, _, whole in seen)


# Runs `ctax run` and kills its own process with SIGKILL right after the
# given number of landing batches returned: nothing unflushed survives that.
_KILL_AFTER_BATCHES = textwrap.dedent("""
    import os, signal, sys
    from ctax import cli, harness

    batches, real_generate_all = int(sys.argv[1]), harness.generate_all

    def generate_all(backend, bundles, on_result):
        landed = []

        def land(pairs):
            follow_ups = on_result(pairs)
            landed.append(len(pairs))
            if len(landed) == batches:
                os.kill(os.getpid(), signal.SIGKILL)
            return follow_ups

        real_generate_all(backend, bundles, land)

    harness.generate_all = generate_all
    sys.exit(cli.main(sys.argv[2:]))
""")


@pytest.mark.skipif(not hasattr(signal, "SIGKILL"), reason="needs SIGKILL")
def test_a_scripted_run_killed_between_batches_resumes_to_the_same_records(tmp_path):
    fault = FaultProfile(p_invalid_json=0.2, p_wrong_field=0.3, seed=3)
    config = _config(("prompt_json", "delayed_constraint"), count=150, backend_kind="corruptor",
                     fault=fault)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config.to_dict()))
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    killed = tmp_path / "killed"
    proc = subprocess.run([sys.executable, "-c", _KILL_AFTER_BATCHES, "2", "run", "--config",
                           str(config_path), "--out", str(killed)], env=env,
                          stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=120)
    assert proc.returncode == -signal.SIGKILL
    assert _complete_lines(killed / "records.jsonl") == 2 * _INLINE_RUN  # every landed batch
    assert main(["run", "--config", str(config_path), "--out", str(killed), "--resume"]) == 0

    whole = run(config, tmp_path / "whole")
    assert _complete_lines(killed / "records.jsonl") == 600
    assert canonical_diff(killed / "records.jsonl", whole) == []


# ---------------------------------------------------------------------------
# the record line format, pinned
# ---------------------------------------------------------------------------

# sha256 of each scripted run's records.jsonl bytes with the wall-clock
# fields set to null. Two runs of one commit cannot show a format drift;
# these pins can. Re-pinned when lines stopped carrying constraint_kind and
# constraint_enforced, and again when they stopped carrying latency_ms and
# packaging_ms at their defaults (0.0 and null): each time, the earlier
# lines with those keys taken out give these same bytes.
_GOLDEN_RECORD_SHA256 = {
    "deterministic": "6d9e15940dc059bd0dac66e60bc6479eb2c5ac9191ea222153a7947140e08a7b",
    "model": "0d2d798b407ee11e9b7ab0e4828279c248dd01e02420902ff5bbe6ef137ddd8e",
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
        digests[variant] = _masked_sha256(data)
    assert digests == _GOLDEN_RECORD_SHA256


def _masked_sha256(data: bytes) -> str:
    """sha256 of records.jsonl bytes with each wall-clock field a line holds
    null."""
    masked, hits = _MASK_RE.subn(rb'"\1": null', data)
    assert hits == sum(len(json.loads(line).keys() & set(MASKED_FIELDS))
                       for line in data.splitlines())
    return hashlib.sha256(masked).hexdigest()


_PURE_PYTHON_JSON = textwrap.dedent("""\
    import sys
    sys.modules["_json"] = None  # json falls back to its pure-Python scanner and encoder
    import ast, json, json.encoder, json.scanner
    assert json.encoder.c_make_encoder is None and json.scanner.c_make_scanner is None
    from ctax.harness import config_from_dict, run
    from ctax.validation import canonical_serialize
    cyclic = {"a": 1}
    cyclic["self"] = cyclic
    for refused in (cyclic, {"x": float("nan")}):
        try:
            canonical_serialize(refused)
        except ValueError:
            continue
        raise AssertionError(f"serialized {refused!r}")
    for variant, doc in json.loads(sys.argv[1]).items():
        run(config_from_dict(doc), f"{sys.argv[2]}/{variant}")
    print(json.dumps([canonical_serialize(value) for value in ast.literal_eval(sys.argv[3])]))
""")
_CANONICAL_SAMPLES = [
    {"b": 1, "a": {"d": [2.5, -0.0, 1e-07, 1e300, 10**30], "c": None}},
    {"t": 'café ☃ \u2028 \x00 "quoted" back\\slash \ud800', "z": True, "y": False},
    "plain text",
    {"tool": "create_calendar_event", "arguments": {"duration_minutes": 30, "attendee": "leo"}},
]
_CREATED_AT_RE = re.compile(rb'"created_at":"[^"]*"')


def test_json_without_its_c_accelerator_gives_the_same_bytes(scripted_runs, tmp_path):
    configs = {variant: config.to_dict() for variant, (config, _path) in scripted_runs.items()}
    env = {**os.environ, "PYTHONPATH": str(Path(ctax.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-c", _PURE_PYTHON_JSON, json.dumps(configs),
                           str(tmp_path), repr(_CANONICAL_SAMPLES)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    texts = json.loads(proc.stdout.splitlines()[-1])
    assert texts == [canonical_serialize(value) for value in _CANONICAL_SAMPLES]
    for variant, (_config, path) in scripted_runs.items():
        pure = tmp_path / variant
        assert _masked_sha256((pure / "records.jsonl").read_bytes()) == \
            _GOLDEN_RECORD_SHA256[variant]
        assert (pure / "tasks.jsonl").read_bytes() == (path.parent / "tasks.jsonl").read_bytes()
        pure_manifest, manifest = (
            _CREATED_AT_RE.subn(b'"created_at":null', (where / "manifest.json").read_bytes())
            for where in (pure, path.parent))
        assert pure_manifest == manifest and manifest[1] == 1


def _record_of_each_branch() -> dict[str, RunRecord]:
    """A record from each branch of harness._record."""
    ctx = harness._RecordContext("corruptor", "c-v1", "guard", "digest")
    arithmetic = generate_suite("arithmetic_two_step", 1, 3)[0]
    calendar = generate_suite("tool_call_argument", 1, 3)[0]
    answer = arithmetic.ground_truth.final_answer

    def landed(text: str) -> GenerationResult:
        return GenerationResult(raw_text=text, latency_ms=1.5, prompt_tokens=3,
                                completion_tokens=4, started_at="2026-01-01T00:00:00.000+00:00")

    scored = harness._record(ctx, arithmetic, "prompt_json", "single",
                             landed(json.dumps({"answer": answer})))
    failed = harness._record(ctx, arithmetic, "prompt_json", "single",
                             GenerationResult(raw_text="", latency_ms=0.0, failed=True,
                                              failure_reason="timed out"))
    instances = {arithmetic.id: arithmetic}
    return {
        "scored": scored,
        "scored, with violations": harness._record(ctx, arithmetic, "answer_only_schema",
                                                   "single", landed('{"answer": 4}')),
        "generation failed": failed,
        "delayed stage 1, packaged": harness._record(ctx, arithmetic, DELAYED_MODE, "stage1",
                                                     landed(f"Final answer: {answer}")),
        "delayed stage 1, packaging failed": harness._record(ctx, calendar, DELAYED_MODE,
                                                             "stage1", landed("no object here")),
        "model-variant stage 1": harness._record(replace(ctx, delayed_variant="model"),
                                                 arithmetic, DELAYED_MODE, "stage1",
                                                 landed(f"Final answer: {answer}")),
        "derived": derive_delayed([scored], instances)[0],
        "derived from a failed generation": derive_delayed([failed], instances)[0],
    }


def test_every_record_branch_fills_one_dict_in_line_order():
    made = _record_of_each_branch()
    for branch, record in made.items():
        assert list(vars(record)) == list(_TEMPLATE), branch
        assert record == RunRecord(**vars(record)), branch
    assert made["scored"].answer_correct and not made["scored"].violations
    assert made["scored, with violations"].violations[0]["keyword"] == "type"
    assert made["generation failed"].error_class == GENERATION_FAILED
    assert made["delayed stage 1, packaged"].packaged_text is not None
    assert made["delayed stage 1, packaging failed"].packaging_failed
    assert made["model-variant stage 1"].packaging_ms is None
    assert made["derived"].derived_from == "prompt_json"
    assert made["derived from a failed generation"].latency_annotation == "+ pkg."


def test_a_line_holds_no_default_but_the_keys_every_line_carries():
    made = _record_of_each_branch()
    for branch, record in made.items():
        doc = _record_doc(record)
        at_default = {name for name, value in vars(record).items()
                      if type(value) is type(_TEMPLATE[name]) and value == _TEMPLATE[name]}
        assert doc.keys() == _TEMPLATE.keys() - (at_default - _ALWAYS_WRITTEN), branch
        assert record_from_dict(json.loads(_json_line(doc))) == record, branch
    # the wall-clock fields follow the rule too
    assert made["generation failed"].latency_ms == 0.0
    assert "latency_ms" not in _record_doc(made["generation failed"])
    assert made["scored"].packaging_ms is None
    assert "packaging_ms" not in _record_doc(made["scored"])
    assert made["delayed stage 1, packaged"].packaging_ms is not None
    assert "packaging_ms" in _record_doc(made["delayed stage 1, packaged"])


def test_a_misspelled_record_field_is_refused_and_never_written(tmp_path, monkeypatch):
    state = dict(_TEMPLATE)
    state["packagng_ms"] = 1.0
    with pytest.raises(TypeError, match=re.escape("unknown field(s): packagng_ms")):
        adopt_record(state)
    # every record _record fills then holds the stray key
    monkeypatch.setattr(harness, "_TEMPLATE", {**_TEMPLATE, "packagng_ms": None})
    with pytest.raises(TypeError, match=re.escape("unknown field(s): packagng_ms")):
        run(_config(("prompt_json",)), tmp_path / "out")
    assert (tmp_path / "out" / "records.jsonl").read_bytes() == b""


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


def test_every_line_carries_the_bench_keys(scripted_runs, tmp_path):
    for _config, path in scripted_runs.values():
        _assert_lines_carry(path, _BENCH_KEYS)
    with stub_server(fail_first=10**6, fail_status=400) as (_state, url):  # refuses every post
        failed = run(_endpoint_run_config(url, count=2), tmp_path / "failed")
    assert {r.error_class for r in read_records(failed)} == {"generation_failed"}
    _assert_lines_carry(failed, _BENCH_KEYS)
    source, derived = scripted_runs["deterministic"][1], tmp_path / "derived.jsonl"
    assert main(["derive-delayed", "--records", str(source),
                 "--tasks", str(source.parent / "tasks.jsonl"), "--source-mode", "freeform",
                 "--out", str(derived)]) == 0
    assert {r.derived_from for r in read_records(derived)} == {"freeform"}
    _assert_lines_carry(derived, _BENCH_KEYS)


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
    records = read_records(run(config, tmp_path / "out"))
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
        # scored against the target schema, but generation ran free
        assert scoring_constraint(rec.mode, rec.family).kind == "schema"
        assert not _enforced(rec)


def test_delayed_model_variant_two_stage_records(tmp_path):
    config = _config(("delayed_constraint",), families=("boolean_logic",),
                     delayed_variant="model")
    records = read_records(run(config, tmp_path / "out"))
    stage1 = [r for r in records if r.stage == "stage1"]
    stage2 = [r for r in records if r.stage == "stage2"]
    assert len(stage1) == 3 and len(stage2) == 3
    for rec in stage2:
        assert _enforced(rec)  # stage 2 carries the transported schema
        assert rec.error_class == "correct_valid"
    # scoring keeps only the stage-2 rows for the delayed cell
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    (agg,) = result.aggregates
    assert agg.mode == "delayed_constraint" and agg.n == 3


def test_delayed_cell_leaves_out_an_instance_whose_stage2_is_missing(tmp_path):
    config = _config(("prompt_json", "delayed_constraint"), families=("boolean_logic",),
                     delayed_variant="model")
    records = read_records(run(config, tmp_path / "out"))
    dropped = next(r for r in records if r.stage == "stage2")
    records.remove(dropped)
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    # its stage 1 was scored under the freeform contract: no delayed verdict
    assert [(a.mode, a.n) for a in result.aggregates] == [
        ("prompt_json", 3), ("delayed_constraint", 2)]
    assert result.comparisons == []
    assert f"missing in constrained: {dropped.instance_id}" in "\n".join(result.warnings)


def test_delayed_packaging_failure_is_scored_invalid(tmp_path):
    # a corruptor that always malformes stage-1 text leaves nothing to package
    fault = FaultProfile(p_invalid_json=1.0)
    config = _config(("delayed_constraint",), families=("tool_call_argument",),
                     backend_kind="corruptor", fault=fault)
    records = read_records(run(config, tmp_path / "out"))
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
    records = read_records(run(config, tmp_path / "out"))
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
                      "error_class", "parse_status", "stage", "constraint_digest"):
            assert getattr(d, field) == getattr(twin, field), field


def test_derive_delayed_rejects_constrained_sources(tmp_path):
    config = _config(("answer_only_schema",), families=("boolean_logic",))
    records = read_records(run(config, tmp_path / "out"))
    with pytest.raises(ConfigError, match="supported sources"):
        derive_delayed(records, _instances(config))


def test_derive_delayed_requires_instances(tmp_path):
    config = _config(("prompt_json",), families=("boolean_logic",))
    records = read_records(run(config, tmp_path / "out"))
    with pytest.raises(ConfigError, match="no task instance"):
        derive_delayed(records, {})


def test_derive_delayed_preserves_generation_failures(tmp_path):
    config = _config(("freeform",), families=("boolean_logic",))
    records = read_records(run(config, tmp_path / "out"))
    failed = replace(records[0], error_class="generation_failed", raw_text="")
    (derived,) = derive_delayed([failed], _instances(config))
    assert derived.error_class == "generation_failed"
    assert derived.mode == "delayed_constraint"
    assert derived.derived_from == "freeform"
    assert derived.latency_annotation == "+ pkg."


def test_derive_delayed_without_config_keeps_source_digest(tmp_path):
    config = _config(("freeform",),
                     families=("arithmetic_two_step", "tool_call_argument"))
    records = read_records(run(config, tmp_path / "out"))
    derived = derive_delayed(records, _instances(config))
    # no synthetic per-family digest fan-out: derived records stay in the
    # source run's digest group so joint scoring does not warn
    assert {d.config_digest for d in derived} == {records[0].config_digest}
    assert {d.run_id for d in derived} == {config.run_id}


def test_derive_delayed_never_invents_correctness(tmp_path):
    fault = FaultProfile(p_invalid_json=0.3, p_wrong_field=0.4, seed=5)
    config = _config(("freeform",), families=("arithmetic_two_step",), count=40,
                     backend_kind="corruptor", fault=fault)
    records = read_records(run(config, tmp_path / "out"))
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
    records = read_records(run(config, tmp_path / "out"))
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
    records = read_records(run(config, tmp_path / "out"))
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
    records = read_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    # freeform rows carry no calendar classification
    assert [row.mode for row in result.calendar] == ["prompt_json",
                                                     "answer_only_schema"]
    for row in result.calendar:
        assert row.n == 3
        assert dict(row.class_counts)["correct"] == 3
        assert all(v == 0 for k, v in row.field_counts)


def test_score_warns_on_missing_baseline(tmp_path):
    config = _config(("freeform",))
    records = read_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    assert result.comparisons == []
    assert "baseline mode 'prompt_json' absent" in "\n".join(result.warnings)


def test_score_warns_on_mixed_digests(tmp_path):
    a = read_records(run(_config(("prompt_json",)), tmp_path / "a"))
    b = read_records(run(_config(("prompt_json",), run_id="other"), tmp_path / "b"))
    b = [replace(r, backend_label="other-backend") for r in b]
    result = score(a + b, bootstrap=BootstrapConfig(resamples=50, seed=0))
    assert "config digests" in "\n".join(result.warnings)


def test_score_skips_duplicated_cell_with_warning(tmp_path):
    config = _config(("prompt_json", "freeform", "answer_only_schema"))
    records = read_records(run(config, tmp_path / "out"))
    doubled = records + [r for r in records if r.mode == "freeform"]
    result = score(doubled, bootstrap=BootstrapConfig(resamples=50, seed=0))
    out = "\n".join(result.warnings)
    assert "duplicate" in out and "freeform" in out
    # the duplicated mode is skipped; the clean mode still gets compared
    assert {c.mode for c in result.comparisons} == {"answer_only_schema"}
    # aggregates stay count-honest about what was loaded
    freeform_all = [a for a in result.aggregates
                    if a.mode == "freeform" and a.task == "all"]
    assert freeform_all[0].n == 12


def test_score_leaves_out_a_family_cell_with_no_scored_record(tmp_path):
    records = read_records(run(_config(("prompt_json", "freeform")), tmp_path / "out"))
    records = [replace(r, error_class="generation_failed")
               if (r.family, r.mode) == ("boolean_logic", "freeform") else r
               for r in records]
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    assert "oracle/scripted-v1/boolean_logic/freeform has no scored records" in \
        "\n".join(result.warnings)
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


# The forms a records file holds lines in: as ctax writes them; every field
# written (lines made before absent keys meant defaults); with keys that are
# no longer fields and blank lines between; and with every field at its
# default left out, including those ctax always writes.
_FORMS = ("compact", "every field", "retired keys and blank lines", "defaults left out")


def _line(record, form):
    if form == "every field":
        return vars(record)
    if form == "retired keys and blank lines":
        return {**_record_doc(record), "constraint_kind": "schema", "constraint_enforced": False}
    if form == "defaults left out":
        return {name: value for name, value in vars(record).items() if name in _REQUIRED
                or not (type(value) is type(_TEMPLATE[name]) and value == _TEMPLATE[name])}
    return _record_doc(record)


def _write_form(path, records, form):
    text = "".join(json.dumps(_line(r, form), sort_keys=True, ensure_ascii=False) + "\n"
                   + ("\n  \n" if form == "retired keys and blank lines" else "")
                   for r in records)
    path.write_text(text, encoding="utf-8")


def _cli_scored(paths, out, level):
    """What `ctax score` then `ctax report` give on the records files: their
    exit codes, [WARN] lines, stderr, and the bytes of each file written."""
    argv = [arg for path in paths for arg in ("--records", str(path))] + ["--level", str(level)]
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        codes = (main(["score", *argv, "--out", str(out / "scores")]),
                 main(["report", *argv, "--out", str(out / "report.md")]))
    warnings = [line for line in stdout.getvalue().splitlines() if line.startswith("[WARN]")]
    files = {path.name: path.read_bytes()
             for path in [*sorted((out / "scores").glob("*.csv")), out / "report.md"]
             if path.exists()}
    return codes, warnings, stderr.getvalue(), files


def _memory_scored(result, out):
    """_cli_scored's outputs for a ScoreResult scored in memory: written, printed
    and rendered as the two commands do."""
    warnings = [f"[WARN] {warning}" for warning in result.warnings]
    paths = score_to_files(result, out)
    files = {path.name: path.read_bytes() for path in sorted(paths.values())}
    files["report.md"] = render_report(result, "prompt_json").encode("utf-8")
    return (0, 0), warnings * 2, "", files


# sha256 of the score outputs of _golden_records, made before scoring became
# one pass over the records; a change to them is a change to reported numbers.
# The aggregates, comparisons and report hashes were made again when the
# delayed cell began to take its verdict from stage 2 only: the instance
# whose stage 2 is dropped now leaves the corruptor's delayed cells. The
# report hash (here and below) was made again when the report's intro came
# to say that a positive signed delta is a gain.
_GOLDEN_SCORE_SHA256 = {
    "aggregates": "2f8055f7961c4697114537be67c55f3ddae2eb42e7fa865024ce4bc530044d16",
    "comparisons": "ea3d902242acd208938d35364756844447a8e010de74ef6e3fe37caef02b112b",
    "calendar": "335eeab81387a46cc8cf2bbbe41018fc1437a5adfac4511549da624264c8d01c",
    "report": "a4f4bf552924a654d24c78aaddb846935ee4746ac57d5a3ce75bbf72ab691de3",
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
    records = read_records(run(first, tmp_path / "a"))
    dropped = next(r for r in records if r.stage == "stage2")
    records.remove(dropped)
    records += read_records(run(second, tmp_path / "b"))
    return records + [r for r in records if (r.backend_label, r.mode, r.family) ==
                      ("oracle", "answer_only_schema", "arithmetic_two_step")]


def _score_digests(result, out_dir):
    paths = score_to_files(result, out_dir)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in paths.items()}
    digests["report"] = hashlib.sha256(
        render_report(result, "prompt_json").encode("utf-8")).hexdigest()
    return digests


# sha256 of the tasks.jsonl each run of _golden_records writes: suites
# regenerate byte-identically, key order and line format included.
_GOLDEN_TASKS_SHA256 = {
    "a": "ea73018ca8f07c59534b0de7860cfd26156abe4692f0f6ab99a36dbe4e8c9a18",
    "b": "0a618d7802ec172d77855b9124436409fed60a236259e3a0127d42fbd8b63e09",
}


def test_tasks_files_match_golden_hashes(tmp_path):
    _golden_records(tmp_path)
    assert {run: hashlib.sha256((tmp_path / run / "tasks.jsonl").read_bytes()).hexdigest()
            for run in _GOLDEN_TASKS_SHA256} == _GOLDEN_TASKS_SHA256


def _cli_digests(records, tmp_path, level, result):
    """_score_digests of the records written to a file in each form and scored
    through the CLI, each form's printed lines checked against result's."""
    digests = []
    for i, form in enumerate(_FORMS):
        path = tmp_path / f"form-{i}.jsonl"
        _write_form(path, records, form)
        codes, warnings, err, files = _cli_scored([path], tmp_path / f"cli-{i}", level)
        assert (codes, warnings, err) == ((0, 0), [f"[WARN] {w}" for w in result.warnings] * 2,
                                          ""), form
        names = {"aggregates": "aggregates.csv", "comparisons": "comparisons.csv",
                 "calendar": "calendar_failures.csv", "report": "report.md"}
        digests.append({key: hashlib.sha256(files[name]).hexdigest()
                        for key, name in names.items()})
    return digests


def test_score_outputs_match_golden_hashes(tmp_path):
    records = _golden_records(tmp_path)
    result = score(records, bootstrap=BootstrapConfig(resamples=200, seed=3))
    assert _score_digests(result, tmp_path / "scores") == _GOLDEN_SCORE_SHA256
    assert _cli_digests(records, tmp_path, 0.95, result) == [_GOLDEN_SCORE_SHA256] * len(_FORMS)


# sha256 of the score outputs of _golden_records with every fifth record a
# generation failure, at a 90% level: pins the n_failed column, the report's
# failed-generations note, and the CI level in the tax header and the
# bootstrap_level column.
_GOLDEN_FAILED_SCORE_SHA256 = {
    "aggregates": "be52f2aa7f25de2c1238c19e03ab6c61e6913e5d33122947e1ed548649e455ab",
    "comparisons": "e512bbc9e465c96afd4a23c40a72c3ed746a25bf2bb246f2256c62c9cf668e0a",
    "calendar": "e867404f60c2772d98dd6184a7b0b81ec24524460b2cac790b4de201f5be3f2c",
    "report": "197cb9176316b8243d5a914db9f21dec1d1ab4e9b9eb69a823b37eca2d86f74c",
}


def _generation_failed(record):
    """record as the run loop writes a failed generation of it."""
    return replace(record, raw_text="", parse_status="no_json_found", violations=(),
                   schema_valid=False, answer_correct=False, exec_correct=False,
                   trace_correct=None, error_class="generation_failed",
                   calendar_failure_class=None, calendar_wrong_fields=(),
                   prompt_tokens=None, completion_tokens=None, structural_overhead=None,
                   failure_reason="HTTP 503 after 3 attempt(s)")


def test_score_outputs_with_generation_failures_match_golden_hashes(tmp_path):
    records = [_generation_failed(r) if r.stage == "single" and i % 5 == 2 else r
               for i, r in enumerate(_golden_records(tmp_path))]
    result = score(records, bootstrap=BootstrapConfig(level=0.9))
    report = render_report(result, "prompt_json")
    assert "90% CI" in report and "generation(s) failed" in report
    assert _score_digests(result, tmp_path / "scores") == _GOLDEN_FAILED_SCORE_SHA256
    assert (_cli_digests(records, tmp_path, 0.9, result)
            == [_GOLDEN_FAILED_SCORE_SHA256] * len(_FORMS))


def test_answer_and_exec_rows_share_validity_and_wrong_valid_cis(tmp_path):
    fault = FaultProfile(p_invalid_json=0.3, p_wrong_field=0.3, seed=4,
                         wrong_field_targets=tuple(CALENDAR_SEMANTIC_FIELDS))
    config = _config(MODE_NAMES, families=FAMILIES, count=12,
                     backend_kind="corruptor", fault=fault)
    result = score(read_records(run(config, tmp_path / "out")),
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
    records = read_records(run(_config(("prompt_json", "freeform")), tmp_path / "out"))

    def broken_ci(*args, **kwargs):
        raise ValueError("bootstrap defect")

    monkeypatch.setattr(metrics, "_exact_ci", broken_ci)
    with pytest.raises(ValueError, match="bootstrap defect"):
        score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))


def test_bootstrap_version_is_stamped(tmp_path):
    out = tmp_path / "out"
    records = read_records(run(_config(("prompt_json", "freeform")), out))
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
                     family=family, mode=mode, stage="single", constraint_digest=None,
                     raw_text="", parse_status="ok", **fields)


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


def test_a_mean_that_is_not_finite_names_the_scored_record_behind_it():
    # the failed record's latency is never read, so it is not the one named
    records = [_row("b", "freeform", 0, error_class="generation_failed", latency_ms="fast"),
               _row("b", "freeform", 1, latency_ms=float("inf"))]
    with pytest.raises(ConfigError, match=re.escape(
            "record b/m/freeform/single/arithmetic_two_step-00001: "
            "latency_ms must be a finite number, got inf")):
        score(records)


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
                records.append(_row("b", mode, i, family, **v, error_class=(
                    "generation_failed" if failed else "correct_valid")))
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


def test_an_all_cell_names_its_first_duplicate_in_record_order():
    # family by family the rollup's ids would read a, a, b, b: a first
    a, b = ("arithmetic_two_step", 0), ("boolean_logic", 0)
    records = [_row("b", mode, i, family) for mode in ("prompt_json", "freeform")
               for family, i in (a, b)]
    records += [_row("b", "freeform", i, family) for family, i in (b, a)]
    warnings = score(records).warnings
    assert warnings[-1] == ("comparisons skipped for b/m/all/freeform: duplicate constrained "
                            "record for instance 'boolean_logic-00000'; a cell must hold one "
                            "record per instance — deduplicate the inputs before pairing")
    assert score(records).warnings == reference_score(records).warnings


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_score_matches_the_reference_walk_in_any_record_order(tmp_path):
    families = ("arithmetic_two_step", "boolean_logic", "tool_call_argument")
    modes = ("prompt_json", "freeform", "answer_only_schema", "delayed_constraint")
    calendar = st.fixed_dictionaries({
        "calendar_failure_class": st.sampled_from((None, *CALENDAR_FAILURE_CLASSES)),
        "calendar_wrong_fields": st.lists(st.sampled_from(CALENDAR_SEMANTIC_FIELDS),
                                          max_size=2, unique=True).map(tuple),
    })
    fields = st.fixed_dictionaries({
        "schema_valid": st.booleans(), "answer_correct": st.booleans(),
        "exec_correct": st.booleans(), "trace_correct": st.sampled_from([None, True, False]),
        "error_class": st.sampled_from(["correct_valid", "wrong_answer_valid_schema",
                                        "invalid_json", "generation_failed"]),
        "latency_ms": st.sampled_from([0.0, 1.5, 12.25, 300.0]),
        "completion_tokens": st.sampled_from([None, 7, 40]),
        "structural_overhead": st.sampled_from([None, 0.0, 0.125, 0.5]),
        "latency_annotation": st.sampled_from([None, None, "+ pkg."]),
        "extraction_rule": st.sampled_from(["lenient/v3", "lenient/v3", "lenient/v2",
                                            "lenient/v1"]),
        "config_digest": st.sampled_from(["d1", "d1", "d1", "d2", None]),
    })

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def check(data):
        chosen = data.draw(st.lists(st.sampled_from(families), min_size=1, max_size=3,
                                    unique=True))
        arms = data.draw(st.lists(st.sampled_from(modes), min_size=1, max_size=4, unique=True))
        records = []
        for backend in data.draw(st.sampled_from([("b",), ("b", "c")])):
            for family in chosen:
                for mode in arms:
                    all_failed = data.draw(st.integers(0, 9)) == 0  # a whole cell fails
                    for i in range(data.draw(st.integers(1, 4))):
                        kw = data.draw(fields)
                        if family == "tool_call_argument":
                            kw.update(data.draw(calendar))
                        if all_failed:
                            kw["error_class"] = "generation_failed"
                        if mode != "delayed_constraint":
                            records.append(_row(backend, mode, i, family, **kw))
                        elif data.draw(st.booleans()):  # packaged here: its stage 1 scores
                            records.append(replace(_row(backend, mode, i, family, **kw),
                                                   stage="stage1", packaged_text="{}"))
                        else:  # model variant: a provenance stage 1, and maybe its stage 2
                            records.append(replace(_row(backend, mode, i, family, **kw),
                                                   stage="stage1", error_class="correct_valid"))
                            if data.draw(st.integers(0, 5)):
                                records.append(replace(_row(backend, mode, i, family, **kw),
                                                       stage="stage2"))
        for _ in range(data.draw(st.integers(0, 3))):  # duplicates, within and across families
            twin = data.draw(st.sampled_from(records))
            records.append(replace(twin, family=data.draw(st.sampled_from(chosen))))
        def scored(walk, records):
            try:
                result = walk(records, bootstrap=BootstrapConfig(level=0.9))
            except ValueError as exc:  # only provenance rows: nothing to score
                return str(exc), ()
            return result, (result.aggregates, result.comparisons, result.calendar)

        result, rows = scored(score, records)
        assert result == scored(reference_score, records)[0]
        shuffled = data.draw(st.permutations(records))
        again, again_rows = scored(score, shuffled)
        assert again == scored(reference_score, shuffled)[0]
        assert again_rows == rows

        # the same records in files, one or two, in one of the forms lines come in
        form = data.draw(st.sampled_from(_FORMS))
        split = data.draw(st.integers(0, len(shuffled) - 1))
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"][:1 + bool(split)]
        for path, part in zip(paths, (shuffled[:split], shuffled[split:]) if split
                              else [shuffled]):
            _write_form(path, part, form)
        out = tmp_path / "cli"
        shutil.rmtree(out, ignore_errors=True)  # the last example's outputs
        outputs = _cli_scored(paths, out, 0.9)
        if isinstance(again, str):  # refused: nothing written, the refusal printed
            assert outputs == ((2, 2), [], f"[ERROR] {again}\n" * 2, {}), form
        else:
            assert outputs == _memory_scored(again, out / "memory"), form

    check()


# ---------------------------------------------------------------------------
# file outputs
# ---------------------------------------------------------------------------

def test_score_to_files_and_formats(tmp_path):
    config = _config(("prompt_json", "answer_only_schema"),
                     families=("tool_call_argument",))
    records = read_records(run(config, tmp_path / "out"))
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


def test_a_score_write_that_fails_leaves_the_old_csv_whole(tmp_path):
    result = score(_golden_records(tmp_path), bootstrap=BootstrapConfig(resamples=50, seed=0))
    paths = score_to_files(result, tmp_path / "scores")
    before = paths["comparisons"].read_bytes()
    rows = list(result.comparisons)
    assert len(rows) > 50
    rows[50] = replace(rows[50], tax_norm=None)  # the 51st row cannot be formatted
    with pytest.raises(TypeError):
        score_to_files(replace(result, comparisons=rows), tmp_path / "scores")
    assert paths["comparisons"].read_bytes() == before
    assert not list((tmp_path / "scores").glob("*.partial"))


def test_run_prints_nothing(tmp_path, capsys):
    run(_config(("prompt_json", "delayed_constraint")), tmp_path / "out")
    assert capsys.readouterr().out == ""


def test_outputs_byte_identical_across_reruns(tmp_path):
    outputs = []
    for tag in ("first", "second"):
        config = _config(("prompt_json", "answer_only_schema", "delayed_constraint"))
        records_path = run(config, tmp_path / tag)
        result = score(read_records(records_path),
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
    records = read_records(run(config, tmp_path / "out"))
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


def test_report_reads_a_tax_as_lost_and_a_gain_as_gained(tmp_path):
    """An oracle run with 3 of arithmetic's answer_only_schema records made
    wrong-valid (a tax) and 2 of boolean logic's prompt_json records made
    wrong (a gain under the constraint); symbolic strings stay untouched."""
    config = _config(("prompt_json", "answer_only_schema"), count=10,
                     families=("arithmetic_two_step", "boolean_logic", "symbolic_string"))
    edits = {("arithmetic_two_step", "answer_only_schema"): 3, ("boolean_logic", "prompt_json"): 2}
    records = []
    for record in read_records(run(config, tmp_path / "out")):
        key = (record.family, record.mode)
        if edits.get(key):
            edits[key] -= 1
            record = replace(record, answer_correct=False, exec_correct=False,
                             error_class="wrong_answer_valid_schema")
        records.append(record)
    report = render_report(score(records), "prompt_json")
    rows = [cells for line in report.splitlines()
            if len(cells := [c.strip() for c in line.split("|")[1:-1]]) == 13
            and cells[4] == "answer_only_schema"]
    readings = {(cells[2], cells[3]): (cells[7], cells[8], cells[12]) for cells in rows}
    assert readings == {
        **{("arithmetic_two_step", metric): ("-30.0", "30.0", "accuracy lost to the constraint")
           for metric in ("answer", "exec")},
        **{("boolean_logic", metric): ("+20.0", "0.0", "accuracy gain under constraint")
           for metric in ("answer", "exec")},
        **{("symbolic_string", metric): ("+0.0", "0.0", "no measured tax")
           for metric in ("answer", "exec")},
        **{("all", metric): ("-3.3", "3.3", "accuracy lost to the constraint")
           for metric in ("answer", "exec")},
    }
    assert "(a positive signed delta is a gain, reported as such)" in report


def test_report_without_comparisons(tmp_path):
    config = _config(("freeform",), families=("boolean_logic",))
    records = read_records(run(config, tmp_path / "out"))
    result = score(records, bootstrap=BootstrapConfig(resamples=50, seed=0))
    report = render_report(result, "prompt_json")
    assert "_No comparisons" in report
