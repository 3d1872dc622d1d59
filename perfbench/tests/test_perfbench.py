"""Tests of the benchmark itself: mock determinism, span arithmetic, output
checks, loader concurrency and the per-workload layer predictions.

Run with: python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import mock_server
import run as bench_run
import spans
import workloads
from ctax import backend as ctax_backend
from ctax.harness import config_from_dict, run
from ctax.modes import MODE_NAMES, build_prompt

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SEED = 5


def _bodies(count: int = 3) -> tuple[dict, list[dict]]:
    table, _ = workloads.EndpointMock.build_table(SEED, count)
    backend = config_from_dict(workloads.endpoint_config(SEED, count, "http://x")).backends[0]
    bodies = [ctax_backend.build_request_body(backend, bundle)
              for inst in workloads.suites(count, SEED)
              for bundle in (build_prompt(inst, mode) for mode in MODE_NAMES)]
    return table, bodies


def test_mock_answer_is_a_function_of_the_body():
    table, bodies = _bodies()
    for body in bodies[:50]:
        reordered = json.loads(json.dumps(dict(reversed(list(body.items())))))
        assert mock_server.draw(SEED, body) == mock_server.draw(SEED, reordered)
        first = mock_server.MockState(table, SEED).answer(json.dumps(body).encode())
        second = mock_server.MockState(table, SEED).answer(json.dumps(reordered).encode())
        assert first == second


def test_mock_503_count_does_not_depend_on_arrival_order():
    table, bodies = _bodies()
    requests = [json.dumps(b).encode() for b in bodies * 2]  # every body sighted twice
    outcomes = []
    for order_seed in range(3):
        shuffled = requests[:]
        random.Random(order_seed).shuffle(shuffled)
        state = mock_server.MockState(table, SEED)
        texts = {}
        for raw in shuffled:
            status, doc, _ = state.answer(raw)
            if status == 200:
                texts.setdefault(raw, set()).add(doc["choices"][0]["message"]["content"])
        assert all(len(t) == 1 for t in texts.values())
        outcomes.append((state.stats["unavailable"], state.stats["not_found"]))
    assert outcomes[0][0] > 0
    assert outcomes[0][1] == 0
    assert len(set(outcomes)) == 1


def test_mock_unknown_prompt_is_404():
    table, bodies = _bodies(1)
    body = dict(bodies[0], messages=[{"role": "user", "content": "not a suite prompt"}])
    status, _, _ = mock_server.MockState(table, SEED).answer(json.dumps(body).encode())
    assert status == 404


def test_truncation_always_changes_the_end():
    for text in ("7", "42", "true", '{"answer":"12"}', "Step 1: x -> 3\nFinal answer: 3"):
        cut = mock_server.truncate(text)
        assert len(cut) < len(text) and text.startswith(cut)


def test_self_time_subtracts_the_union_of_children():
    tree = [
        spans.Span(1, 0, "root", 0.0, 10.0),
        spans.Span(2, 1, "a", 1.0, 4.0),
        spans.Span(3, 1, "b", 3.0, 6.0),  # overlaps a, as spans of two threads do
        spans.Span(4, 2, "leaf", 2.0, 3.0),
        spans.Span(5, 1, "b", 8.0, 9.0),
    ]
    own = spans.self_times(tree)
    assert own == pytest.approx({1: 10.0 - 5.0 - 1.0, 2: 2.0, 3: 3.0, 4: 1.0, 5: 1.0})
    summary = spans.layer_summary(tree)
    assert summary["b"] == pytest.approx({"calls": 2, "total_s": 4.0, "self_s": 4.0})


def test_nominal_time_removes_the_chunks_and_scales_by_their_median():
    nominal = bench_run.NOMINAL_CHUNK_S
    chunk = 2 * nominal  # the machine ran at half the nominal speed
    speed = [(t, t + chunk) for t in (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)]
    assert bench_run.nominal_time(speed, 0.5, 6.5) == pytest.approx((6.0 - 6 * chunk) / 2)
    # too few chunks inside: speed from the nearest, none subtracted
    assert bench_run.nominal_time(speed, 3.5, 3.9) == pytest.approx(0.4 / 2)


def test_tracer_records_parents_and_result_counts(tmp_path):
    tracer = spans.Tracer("r1")
    inner = tracer.wrap("records.read_records", lambda: [1, 2, 3])
    outer = tracer.wrap("outer", lambda: inner() + inner())
    assert outer() == [1, 2, 3, 1, 2, 3]
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["records.read_records"].parent == by_name["outer"].id
    assert by_name["outer"].parent == 0
    assert tracer.items == {"records.read_records": 6}
    tracer.write(tmp_path / "spans.jsonl")
    lines = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert len(lines) == 3 and json.loads(lines[0])["run_id"] == "r1"


def _quiet_run(config_doc: dict, out: Path) -> None:
    import contextlib
    import io

    with contextlib.redirect_stdout(io.StringIO()):
        run(config_from_dict(config_doc), out)


def _flip_first_correct(records: Path) -> None:
    docs = workloads.read_jsonl(records)
    target = next(d for d in docs if d["error_class"] == "correct_valid")
    target["error_class"] = "wrong_answer_valid_schema"
    target["exec_correct"] = target["answer_correct"] = False
    records.write_text("".join(json.dumps(d) + "\n" for d in docs))


def test_flipped_verdict_fails_the_run_check(tmp_path):
    wl = workloads.OfflineCorruptor(tmp_path, SEED, count=3)
    _quiet_run(wl.config_doc, tmp_path / "out")
    assert wl.check(tmp_path / "out", {}).failures == []
    _flip_first_correct(tmp_path / "out" / "records.jsonl")
    failures = wl.check(tmp_path / "out", {}).failures
    assert len(failures) == 1 and "equals the oracle's" in failures[0]


def test_flipped_verdict_fails_the_score_check(tmp_path):
    wl = workloads.ScoreReport(tmp_path, SEED, count=3)
    from ctax.cli import main

    out = tmp_path / "iter"
    for argv in wl.argvs(out):
        assert main(argv) == 0
    assert wl.check(out, {}).failures == []
    _flip_first_correct(wl.records_path)
    docs = workloads.read_jsonl(wl.records_path)
    outcome = workloads.Outcome()
    workloads.check_scores(workloads.expected_aggregates(docs),
                           workloads.expected_comparisons(docs), out / "scores",
                           out / "report.md", outcome)
    failures = outcome.failures
    assert any(f.startswith("aggregates.csv") for f in failures)
    assert any(f.startswith("comparisons.csv") for f in failures)
    assert any(f.startswith("report tax table") for f in failures)


def test_loader_stays_within_max_in_flight(tmp_path, monkeypatch):
    """Client threads and concurrent requests stay within max_in_flight (the
    reference box's nproc), and the seed client opens one connection per
    request, so ports in TIME_WAIT are bounded by the request rate."""
    wl = workloads.EndpointMock(tmp_path, SEED, count=4)
    baseline_threads = threading.active_count()
    peak_threads = []
    generate = ctax_backend.generate

    def counting_generate(*args, **kwargs):
        peak_threads.append(threading.active_count())
        return generate(*args, **kwargs)

    monkeypatch.setattr(ctax_backend, "generate", counting_generate)
    try:
        wl.begin()
        config = json.loads(wl.config_path.read_text())
        _quiet_run(config, tmp_path / "out")
        outcome = wl.check(tmp_path / "out", {"wall_s": 1.0})
        stats = wl._control("GET", "/_bench/stats")
    finally:
        wl.close()
    assert outcome.failures == []
    assert outcome.failed == 0
    assert max(peak_threads) <= baseline_threads + wl.max_in_flight
    assert 1 <= stats["peak_in_flight"] <= wl.max_in_flight
    assert stats["connections"] == stats["requests"] + stats["models"]

    # TIME_WAIT lasts 60 s on Linux. An iteration cannot beat its ideal wall
    # (scheduled latency / max_in_flight), so at full size the connections
    # opened in any 60 s window stay inside the ephemeral port range.
    full_records = 5 * 20 * 10
    per_record = stats["connections"] / outcome.records
    ideal_per_record = stats["scheduled_s"] / wl.max_in_flight / outcome.records
    window = 60.0 / (ideal_per_record * full_records) + 1
    try:
        low, high = map(int, Path("/proc/sys/net/ipv4/ip_local_port_range").read_text().split())
    except OSError:
        low, high = 32768, 60999
    assert window * per_record * full_records < high - low


@pytest.mark.parametrize("name", ["offline_corruptor", "score_report", "endpoint_mock"])
def test_layers_predicted_idle_are_idle(tmp_path, name):
    """A small traced iteration calls every layer workloads.json says the
    workload loads and none it says stays idle."""
    notes = json.loads((BENCH / "workloads.json").read_text())["workloads"][name]
    wl = workloads.WORKLOADS[name](tmp_path, SEED, count=2)
    try:
        wl.begin()
        spec = {"root": str(ROOT), "kind": "work", "argvs": wl.argvs(tmp_path / "out"),
                "trace": 1, "spans": str(tmp_path / "spans.jsonl"), "run_id": "t"}
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        proc = subprocess.run([sys.executable, str(BENCH / "worker.py"),
                               str(tmp_path / "spec.json")],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert wl.check(tmp_path / "out", result).failures == []
    finally:
        wl.close()
    assert result["missing"] == []
    called = set(result["layers"])
    assert set(notes["loads"]) <= called
    assert not set(notes["idle"]) & called
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_untraced_worker_installs_no_wrappers(tmp_path):
    wl = workloads.OfflineCorruptor(tmp_path, SEED, count=1)
    spec = {"root": str(ROOT), "kind": "work", "argvs": wl.argvs(tmp_path / "out"),
            "trace": 0, "spans": str(tmp_path / "spans.jsonl"), "run_id": "t"}
    (tmp_path / "spec.json").write_text(json.dumps(spec))
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), str(tmp_path / "spec.json")],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "layers" not in json.loads(proc.stdout.strip().splitlines()[-1])
    assert not (tmp_path / "spans.jsonl").exists()


def test_sampled_spawn_shares_one_vcpu_and_restores_affinity(tmp_path):
    cpus = os.sched_getaffinity(0)
    wl = workloads.ScoreReport(tmp_path, SEED, count=1)
    result = bench_run.spawn({"kind": "work", "argvs": wl.argvs(tmp_path / "out"), "trace": 0},
                             tmp_path, time.perf_counter() + 120, sample=True)
    assert os.sched_getaffinity(0) == cpus
    assert len(result["starts_s"]) == len(result["walls_s"]) == 2
    assert len(result["speed"]) >= bench_run.MIN_SPEED_SAMPLES
    assert bench_run.iteration_time(wl, result) > 0
    assert wl.check(tmp_path / "out", result).failures == []
