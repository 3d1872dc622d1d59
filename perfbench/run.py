"""ctax benchmark: one workload per call, or all three in turn.

    python3 perfbench/run.py --workload offline_corruptor --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all

Workloads (see workloads.json for why each exists and which layers it loads):
  offline_corruptor  ctax run, corruptor backend, 9000 records
  score_report       ctax score then ctax report on those records
  endpoint_mock      ctax run against a mock chat-completions server

Each measured iteration is a fresh process. With ``--trace 0`` the run prints
the end-to-end metrics of BENCHMARK.json (medians over the iterations; set-up
is measured in its own fresh processes); with ``--trace 1`` it alternates
untraced and traced iterations and prints the per-layer metrics. Every
iteration's output is checked; a failed check is printed and makes the run
exit 1. The last stdout line is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
MIN_ITERATIONS = 3
MIN_TRACE_ITERATIONS = 2  # one untraced, one traced
BUDGET_S = 165  # a run must end within 180 s
MAX_PRINTED_FAILURES = 20
# Machine speed. This machine's vCPUs run the same code at speeds up to about
# twice apart, changing within seconds, so a run's median wall time follows
# the machine as much as ctax. While a set-up process or a command of a
# CPU-bound workload runs, run.py shares its vCPU (both are pinned to one)
# and times SPEED_ROWS' small fixed stdlib chunk every SAMPLE_EVERY_S. The
# median chunk time over a command tells how fast that vCPU ran meanwhile; the
# command's time, less the time the chunks took, is reported at the speed
# where one chunk takes NOMINAL_CHUNK_S.
SAMPLE_EVERY_S = 0.025
NOMINAL_CHUNK_S = 0.0005
MIN_SPEED_SAMPLES = 5
SPEED_ROWS = [{"id": f"r{i}", "n": i, "tags": [i % 7, i % 11], "text": "ab" * (i % 13)}
              for i in range(100)]

# per-layer metric -> span whose self time it reports
LAYER_SHARES = {
    "taskgen.generate_suite_share": "taskgen.generate_suite",
    "modes.build_prompt_share": "modes.build_prompt",
    "modes.parse_for_mode_share": "modes.parse_for_mode",
    "modes.build_delayed_stage2_share": "modes.build_delayed_stage2",
    "validation.extract_json_share": "validation.extract_json",
    "validation.validate_schema_share": "validation.validate_schema",
    "checkers.score_completion_share": "checkers.score_completion",
    "records.append_record_share": "records.append_record",
    "harness.self_share": "harness.run",
    "backend.generate_all_share": "backend.generate_all",
    "records.read_records_share": "records.read_records",
    "metrics.aggregate_share": "metrics.aggregate",
    "metrics.paired_comparison_share": "metrics.paired_comparison",
    "harness.score_share": "harness.score",
    "harness.score_to_files_share": "harness.score_to_files",
    "report.render_report_share": "report.render_report",
}
LAYER_CALLS = {
    "modes.build_prompt_calls": "modes.build_prompt",
    "modes.parse_for_mode_calls": "modes.parse_for_mode",
    "modes.build_delayed_stage2_calls": "modes.build_delayed_stage2",
    "checkers.score_completion_calls": "checkers.score_completion",
    "records.append_record_calls": "records.append_record",
    "backend.generate_all_calls": "backend.generate_all",
    "metrics.paired_comparison_calls": "metrics.paired_comparison",
    "harness.score_calls": "harness.score",
}
# per-layer metric -> value an iteration's check reports (0 where absent)
LAYER_EXTRAS = {
    "records.bytes_per_record": "bytes_per_record",
    "backend.requests": "requests",
    "backend.retries": "retries",
    "backend.connections_opened": "connections_opened",
}


class BenchError(Exception):
    pass


def speed_chunk() -> int:
    """JSON encode and decode, a sort with a Python key, dict building and a
    regex scan: a fixed mix that never changes with ctax."""
    text = json.dumps(SPEED_ROWS)
    rows = json.loads(text)
    rows.sort(key=lambda r: (r["text"], -r["n"]))
    index: dict[int, list[str]] = {}
    for r in rows:
        index.setdefault(r["tags"][0], []).append(f"{r['id']}:{r['n']}")
    return len(re.findall(r'"n": \d+', text)) + len(index)


def wait(proc: subprocess.Popen, deadline: float, sample: bool) -> list[tuple[float, float]]:
    """Wait for ``proc``; when ``sample``, time a speed chunk every
    SAMPLE_EVERY_S meanwhile and return the (start, end) marks."""
    speed = []
    while proc.poll() is None:
        if time.perf_counter() > deadline:
            raise BenchError("worker passed the run's time budget")
        time.sleep(SAMPLE_EVERY_S)
        if sample:
            start = time.perf_counter()
            speed_chunk()
            speed.append((start, time.perf_counter()))
    return speed


def spawn(spec: dict, work: Path, deadline: float, sample: bool) -> dict:
    """Run worker.py on a spec in a fresh process; its last stdout line,
    the perf_counter mark taken just before the spawn and, when ``sample``,
    the speed chunks timed on the worker's vCPU."""
    spec_path = work / "spec.json"
    spec_path.write_text(json.dumps({"root": str(ROOT), **spec}), encoding="utf-8")
    out_path, err_path = work / "worker.out", work / "worker.err"
    env = dict(os.environ, NO_PROXY="127.0.0.1,localhost", no_proxy="127.0.0.1,localhost",
               PYTHONHASHSEED="0")
    cpus = os.sched_getaffinity(0)
    if sample:
        os.sched_setaffinity(0, {min(cpus)})  # the worker inherits it
    try:
        with out_path.open("w") as out, err_path.open("w") as err:
            t_spawn = time.perf_counter()
            proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                                    stdout=out, stderr=err, env=env, cwd=ROOT)
        try:
            speed = wait(proc, deadline, sample)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    finally:
        os.sched_setaffinity(0, cpus)
    if proc.returncode != 0:
        stderr = err_path.read_text(encoding="utf-8")
        raise BenchError(f"worker exited with {proc.returncode}: {stderr[-2000:]}")
    last = out_path.read_text(encoding="utf-8").strip().splitlines()[-1]
    return {"t_spawn": t_spawn, "speed": speed, **json.loads(last)}


def nominal_time(speed: list[tuple[float, float]], start: float, end: float) -> float:
    """Seconds from ``start`` to ``end``, less the speed chunks run inside,
    at the speed where one chunk takes NOMINAL_CHUNK_S. A window too short
    for MIN_SPEED_SAMPLES chunks takes its speed from the nearest ones."""
    inside = [(a, b) for a, b in speed if a >= start and b <= end]
    near = inside
    if len(near) < MIN_SPEED_SAMPLES:
        middle = (start + end) / 2
        near = sorted(speed, key=lambda ab: abs(ab[0] - middle))[:MIN_SPEED_SAMPLES]
    if not near:
        raise BenchError("no speed samples taken")
    busy = sum(b - a for a, b in inside)
    return (end - start - busy) * NOMINAL_CHUNK_S / statistics.median(b - a for a, b in near)


def setup_sample(wl, work: Path, deadline: float) -> tuple[float, float]:
    """(wall, nominal) seconds from spawn to the end of set-up."""
    out = spawn({"kind": "setup", **wl.setup_spec()}, work, deadline, sample=True)
    return (out["setup_done"] - out["t_spawn"],
            nominal_time(out["speed"], out["t_spawn"], out["setup_done"]))


def measure(wl, work: Path, seconds: float, trace: bool, deadline: float) -> dict:
    """Iterate the workload for ``seconds`` (and at least the minimum
    count); return per-iteration samples, set-up samples and check results."""
    setups, samples, failures = [], [], []
    minimum = MIN_TRACE_ITERATIONS if trace else MIN_ITERATIONS
    start = time.perf_counter()
    longest = 0.0
    while True:
        i = len(samples)
        if not trace and len(setups) < SETUP_SAMPLES:
            setups.append(setup_sample(wl, work, deadline))
        traced = trace and i % 2 == 1
        out_dir = work / f"iter-{i}"
        wl.begin()
        began = time.perf_counter()
        result = spawn({"kind": "work", "argvs": wl.argvs(out_dir), "trace": int(traced),
                        "spans": str(ROOT / ".perfbench" / "spans" / f"{wl.name}.jsonl"),
                        "run_id": f"{wl.name}-seed{wl.seed}-iter{i}"}, work, deadline,
                       sample=wl.cpu_bound)
        outcome = wl.check(out_dir, result)
        shutil.rmtree(out_dir, ignore_errors=True)
        failures += [f"iteration {i}: {f}" for f in outcome.failures]
        samples.append({"traced": traced, "result": result, "outcome": outcome})
        now = time.perf_counter()
        longest = max(longest, now - began)
        if len(samples) >= minimum and now - start >= seconds:
            break
        if now + 1.5 * longest > deadline:
            break
    while not trace and len(setups) < SETUP_SAMPLES and time.perf_counter() + 5 < deadline:
        setups.append(setup_sample(wl, work, deadline))
    return {"setups": setups, "samples": samples, "failures": failures}


def iteration_time(wl, result: dict) -> float:
    """An iteration's ctax time: at the nominal machine speed on the
    CPU-bound workloads, by the wall clock on endpoint_mock, which mostly
    waits on the mock's scheduled latency."""
    if not wl.cpu_bound:
        return result["wall_s"]
    return sum(nominal_time(result["speed"], start, start + wall)
               for start, wall in zip(result["starts_s"], result["walls_s"]))


def end_to_end(wl, measured: dict) -> tuple[dict, dict]:
    """(BENCHMARK.json metrics, the named figures printed alongside them).

    Times are medians over the run: set-up at the nominal machine speed
    (see SAMPLE_EVERY_S), iterations as ``iteration_time`` gives them."""
    samples = measured["samples"]
    records = samples[0]["outcome"].records
    wall = statistics.median(s["result"]["wall_s"] for s in samples)
    timed = statistics.median(iteration_time(wl, s["result"]) for s in samples)
    metrics = {
        "setup_s": statistics.median(nominal for _, nominal in measured["setups"]),
        "records_per_s": records / timed,
        "peak_rss_mb": statistics.median(s["result"]["maxrss_kb"] / 1024.0 for s in samples),
    }
    attempted = sum(s["outcome"].records for s in samples)
    named = {
        "setup_s": metrics["setup_s"],
        "wall_setup_s": statistics.median(w for w, _ in measured["setups"]),
        ("score_records_per_s" if wl.name == "score_report" else "run_records_per_s"):
            metrics["records_per_s"],
        "wall_records_per_s": records / wall,
        "failed_share": sum(s["outcome"].failed for s in samples) / attempted,
        "peak_rss_mb": metrics["peak_rss_mb"],
    }
    if wl.name == "endpoint_mock":
        named["gap_to_ideal"] = statistics.median(s["outcome"].extra["gap_to_ideal"]
                                                  for s in samples)
    return metrics, named


def layer_metrics(sample: dict, max_in_flight: int) -> dict[str, float]:
    """Per-layer metrics of one traced iteration. Times are self-time shares
    of the iteration's wall, so a layer the workload never calls reads 0."""
    result, extra = sample["result"], sample["outcome"].extra
    layers, wall = result["layers"], result["wall_s"]

    def row(span: str) -> dict:
        return layers.get(span, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    out = {metric: row(span)["self_s"] / wall for metric, span in LAYER_SHARES.items()}
    out.update({metric: row(span)["calls"] for metric, span in LAYER_CALLS.items()})
    out.update({metric: extra.get(key, 0) for metric, key in LAYER_EXTRAS.items()})
    out["records.records_read"] = result["items"].get("records.read_records", 0)
    run_s, generate_s = row("harness.run")["total_s"], row("backend.generate_all")["total_s"]
    out["harness.outside_generate_share"] = (run_s - generate_s) / run_s if run_s else 0.0
    slots = max_in_flight * generate_s
    out["backend.slot_idle_share"] = ((slots - extra["service_s"]) / slots
                                      if "service_s" in extra and slots else 0.0)
    return out


def per_layer(wl, measured: dict) -> tuple[dict, dict]:
    """(BENCHMARK.json metrics: medians over traced iterations, absolute self
    seconds by span for the printed table)."""
    traced = [s for s in measured["samples"] if s["traced"]]
    untraced = [s for s in measured["samples"] if not s["traced"]]
    rows = [layer_metrics(s, getattr(wl, "max_in_flight", 1)) for s in traced]
    metrics = {name: statistics.median(r[name] for r in rows) for name in rows[0]}
    traced_time = statistics.median(iteration_time(wl, s["result"]) for s in traced)
    untraced_time = statistics.median(iteration_time(wl, s["result"]) for s in untraced)
    metrics["trace.overhead_share"] = (traced_time - untraced_time) / untraced_time
    seconds = {span: statistics.median(s["result"]["layers"].get(span, {}).get("self_s", 0.0)
                                       for s in traced)
               for span in sorted({n for s in traced for n in s["result"]["layers"]})}
    return metrics, seconds


def load_contract() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_one(name: str, seed: int, seconds: float, trace: bool) -> int:
    deadline = time.perf_counter() + BUDGET_S
    contract = load_contract()
    declared = contract["per_layer" if trace else "end_to_end"]
    notes = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"][name]
    sys.path.insert(0, str(ROOT / "src"))
    import ctax

    if not Path(ctax.__file__).resolve().is_relative_to(ROOT / "src"):
        raise BenchError(f"ctax imported from {ctax.__file__}, not from {ROOT / 'src'}")
    from workloads import WORKLOADS

    work = ROOT / ".perfbench" / f"{name}-{seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    wl = None
    try:
        wl = WORKLOADS[name](work, seed)
        measured = measure(wl, work, seconds, trace, deadline)
    finally:
        if wl is not None:
            wl.close()
        shutil.rmtree(work, ignore_errors=True)

    samples = measured["samples"]
    print(f"perfbench {name} seed={seed} trace={int(trace)}: {len(samples)} iterations, "
          f"{len(measured['setups'])} set-up processes")
    if trace:
        metrics, seconds_by_span = per_layer(wl, measured)
        missing = sorted({m for s in samples if s["traced"] for m in s["result"]["missing"]})
        if missing:
            print(f"  not traced, absent from ctax: {', '.join(missing)}")
        print(f"  {'span':32} {'self_s':>10}  expected")
        for span, value in seconds_by_span.items():
            expect = "idle" if span in notes["idle"] else "load" if span in notes["loads"] else ""
            print(f"  {span + '_s':32} {value:10.4f}  {expect}")
    else:
        metrics, named = end_to_end(wl, measured)
        units = {m["name"]: m["unit"] for m in declared}
        units.update(run_records_per_s="records/s", score_records_per_s="records/s",
                     wall_records_per_s="records/s", wall_setup_s="s",
                     failed_share="ratio", gap_to_ideal="ratio")
        for metric, value in named.items():
            print(f"  {metric:24} {value:12.4f} {units[metric]}")
        print("  per iteration, wall: " + ", ".join(
            "+".join(f"{w:.3f}" for w in s["result"]["walls_s"]) for s in samples)
            + " s; set-up " + ", ".join(f"{w:.3f}" for w, _ in measured["setups"]) + " s")
        print("  at nominal speed: " + "".join(
            f"{iteration_time(wl, s['result']):.3f}, " for s in samples if wl.cpu_bound)
            + "set-up " + ", ".join(f"{n:.3f}" for _, n in measured["setups"]) + " s")
    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise BenchError(f"no value for declared metrics {missing}")
    failures = measured["failures"]
    for failure in failures[:MAX_PRINTED_FAILURES]:
        print(f"  CHECK FAILED {failure}")
    if len(failures) > MAX_PRINTED_FAILURES:
        print(f"  ... {len(failures) - MAX_PRINTED_FAILURES} more failed checks")
    correct = not measured["failures"]
    print(f"  checks: {'PASS' if correct else 'FAIL'}")
    print(json.dumps({
        "correct": correct,
        "attempted": sum(s["outcome"].records for s in samples),
        "failed": sum(s["outcome"].failed for s in samples),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    notes = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="ctax benchmark")
    parser.add_argument("--workload", required=True, choices=[*notes["workloads"], "all"])
    parser.add_argument("--seed", type=int, default=notes["default_seed"])
    parser.add_argument("--seconds", type=float, default=load_contract()["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ctax" / "__init__.py").is_file():
        print(f"perfbench: no ctax sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        codes = [subprocess.run([sys.executable, __file__, "--workload", name,
                                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                                 "--trace", str(args.trace)]).returncode
                 for name in notes["workloads"]]
        return max(codes)
    try:
        return run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
