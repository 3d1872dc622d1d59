"""The three benchmark workloads: inputs, preparation and output checks.

Every workload is a closed loop with one client: the harness waits for each
result before it sends the next request. Inputs are a function of the seed
alone. Preparation (suites, oracle tables, the records file scored by
score_report, the mock server) happens outside the timed region; each
measured iteration is one fresh ``worker.py`` process driving
``ctax.cli.main``.

The checks read records and CSVs with the standard library only, so they do
not share code with the reader or the scorer they check.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
import urllib.request
from collections import Counter, defaultdict
from fractions import Fraction
from pathlib import Path

from ctax.backend import build_request_body, oracle_generate
from ctax.harness import config_from_dict, run
from ctax.modes import MODE_NAMES, OBJECT_MODES, build_delayed_stage2, build_prompt
from ctax.taskgen import CALENDAR_SEMANTIC_FIELDS, FAMILIES, generate_suite

from mock_server import draw, served_answer

DELAYED = "delayed_constraint"
BASELINE = "prompt_json"
CORRECT = "correct_valid"
FAILED = "generation_failed"
ENDPOINT_IN_FLIGHT = 2  # nproc of the 2-CPU reference box
REPORT_FIELDS = ("acc_baseline_pct", "acc_constrained_pct", "signed_delta_pts", "tax_pts",
                 "validity_delta_pts", "wrong_valid_delta_pts")

# Control requests go straight to the local mock, never through a proxy from the environment.
_LOCAL = urllib.request.build_opener(urllib.request.ProxyHandler({}))


class Outcome:
    """What one iteration produced and which checks it failed."""

    def __init__(self):
        self.records = 0
        self.failed = 0
        self.failures: list[str] = []
        self.extra: dict[str, float] = {}

    def fail(self, message: str) -> None:
        self.failures.append(message)


def suites(count: int, seed: int) -> list:
    return [inst for family in FAMILIES for inst in generate_suite(family, count, seed)]


def write_json(path: Path, doc) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
    return path


def corruptor_config(seed: int, count: int) -> dict:
    return {
        "run_id": f"perfbench-offline-{seed}",
        "suite": {"families": list(FAMILIES), "count": count, "seed": seed},
        "modes": list(MODE_NAMES),
        "backends": [{"kind": "corruptor", "label": "corruptor", "model_id": "corruptor-v1",
                      "fault": {"p_invalid_json": 0.1, "p_wrong_field": 0.2, "seed": seed,
                                "wrong_field_targets": list(CALENDAR_SEMANTIC_FIELDS)}}],
        "delayed_variant": "deterministic",
    }


def endpoint_config(seed: int, count: int, base_url: str) -> dict:
    return {
        "run_id": f"perfbench-endpoint-{seed}",
        "suite": {"families": list(FAMILIES), "count": count, "seed": seed},
        "modes": list(MODE_NAMES),
        "backends": [{"kind": "endpoint", "label": "mock", "model_id": "mock-model",
                      "base_url": base_url, "max_in_flight": ENDPOINT_IN_FLIGHT,
                      "max_retries": 2, "timeout_ms": 30000}],
        "delayed_variant": "model",
    }


def read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def record_key(doc: dict) -> tuple:
    return (doc["backend_label"], doc["model_id"], doc["mode"], doc["stage"], doc["instance_id"])


def check_keys(docs: list[dict], expected_keys, outcome: Outcome) -> None:
    """Every expected (backend, model, mode, stage, instance) record appears
    exactly once, and no other record appears."""
    counts = Counter(record_key(d) for d in docs)
    for key in expected_keys:
        if counts[key] != 1:
            outcome.fail(f"record {key} appears {counts[key]} times, expected once")
    for key in counts.keys() - set(expected_keys):
        outcome.fail(f"unexpected record {key}")


def check_oracle_verdicts(docs: list[dict], oracle: dict, outcome: Outcome) -> None:
    """A record whose completion equals the oracle's is correct_valid, and
    every other record is not."""
    for doc in docs:
        expected = oracle.get(record_key(doc))
        if expected is None or doc["error_class"] == FAILED:
            continue
        if (doc["raw_text"] == expected) != (doc["error_class"] == CORRECT):
            outcome.fail(f"record {record_key(doc)}: completion "
                         f"{'equals' if doc['raw_text'] == expected else 'differs from'} "
                         f"the oracle's but error_class is {doc['error_class']}")


def check_served_verdicts(docs: list[dict], served: dict, outcome: Outcome) -> None:
    """Each record holds the text the mock served for its request; clean and
    wrapped answers score correct_valid, degraded ones do not."""
    for doc in docs:
        expected = served.get(record_key(doc))
        if expected is None or doc["error_class"] == FAILED:
            continue
        kind, text = expected
        if doc["raw_text"] != text:
            outcome.fail(f"record {record_key(doc)}: completion differs from the "
                         f"{kind} answer the mock serves for its request")
        elif (kind != "degraded") != (doc["error_class"] == CORRECT):
            outcome.fail(f"record {record_key(doc)}: {kind} answer scored {doc['error_class']}")


def read_run_output(records_path: Path, outcome: Outcome) -> list[dict]:
    docs = read_jsonl(records_path)
    outcome.records = len(docs)
    outcome.failed = sum(1 for d in docs if d["error_class"] == FAILED)
    outcome.extra["bytes_per_record"] = records_path.stat().st_size / max(1, len(docs))
    return docs


# ---------------------------------------------------------------------------
# score_report: recompute counts and point deltas from the records
# ---------------------------------------------------------------------------

def pts(count: int, n: int) -> float:
    """Count share in percentage points, rounded as ctax displays rates."""
    return float(round(Fraction(count, n) * 1000)) / 10.0


def _indicators(doc: dict) -> dict[str, bool]:
    return {"valid": doc["schema_valid"], "answer": doc["answer_correct"],
            "exec": doc["exec_correct"],
            "wrong_valid": doc["schema_valid"] and not doc["exec_correct"]}


def _cells(docs: list[dict]) -> dict[tuple, list[dict]]:
    cells: dict[tuple, list[dict]] = defaultdict(list)
    multi = len({d["family"] for d in docs}) > 1
    for doc in docs:
        for task in (doc["family"], "all") if multi else (doc["family"],):
            cells[(doc["backend_label"], doc["model_id"], task, doc["mode"])].append(doc)
    return cells


def expected_aggregates(docs: list[dict]) -> dict[tuple, dict[str, str]]:
    out = {}
    for key, cell in _cells(docs).items():
        scored = [d for d in cell if d["error_class"] != FAILED]
        n = len(scored)
        sums = Counter()
        for doc in scored:
            sums.update(name for name, on in _indicators(doc).items() if on)
        traced = [d for d in scored if d["trace_correct"] is not None]
        out[key] = {
            "n": str(n), "n_failed": str(len(cell) - n),
            "schema_validity_pct": f"{pts(sums['valid'], n):.1f}",
            "answer_accuracy_pct": f"{pts(sums['answer'], n):.1f}",
            "exec_accuracy_pct": f"{pts(sums['exec'], n):.1f}",
            "wrong_valid_pct": f"{pts(sums['wrong_valid'], n):.1f}",
            "trace_accuracy_pct": (f"{pts(sum(1 for d in traced if d['trace_correct']), len(traced)):.1f}"
                                   if traced else ""),
        }
    return out


def expected_comparisons(docs: list[dict]) -> dict[tuple, dict[str, str]]:
    cells = _cells(docs)
    out = {}
    for (backend, model, task, mode), cell in cells.items():
        base_cell = cells.get((backend, model, task, BASELINE))
        if mode == BASELINE or base_cell is None:
            continue
        base = {d["instance_id"]: _indicators(d) for d in base_cell if d["error_class"] != FAILED}
        cons = {d["instance_id"]: _indicators(d) for d in cell if d["error_class"] != FAILED}
        n = len(base)

        def total(arm: dict, name: str) -> int:
            return sum(1 for ind in arm.values() if ind[name])

        for metric in ("answer", "exec"):
            acc_b, acc_c = total(base, metric), total(cons, metric)
            out[(backend, model, task, mode, metric)] = {
                "n": str(n),
                "acc_baseline_pct": f"{pts(acc_b, n):.1f}",
                "acc_constrained_pct": f"{pts(acc_c, n):.1f}",
                "signed_delta_pts": f"{pts(acc_c - acc_b, n):+.1f}",
                "tax_pts": f"{pts(max(acc_b - acc_c, 0), n):.1f}",
                "validity_delta_pts": f"{pts(total(cons, 'valid') - total(base, 'valid'), n):+.1f}",
                "wrong_valid_delta_pts":
                    f"{pts(total(cons, 'wrong_valid') - total(base, 'wrong_valid'), n):+.1f}",
            }
    return out


def _compare_rows(label: str, expected: dict, actual: dict, outcome: Outcome) -> None:
    for key in expected.keys() | actual.keys():
        if key not in actual:
            outcome.fail(f"{label}: row {key} missing")
        elif key not in expected:
            outcome.fail(f"{label}: unexpected row {key}")
        else:
            for field, value in expected[key].items():
                if actual[key][field] != value:
                    outcome.fail(f"{label}: row {key} {field} is {actual[key][field]}, "
                                 f"recomputed {value}")


def check_scores(expected_aggs: dict, comparisons: dict, scores_dir: Path, report_path: Path,
                 outcome: Outcome) -> None:
    """The score CSVs and the report's tax table hold the counts and point
    deltas recomputed from the records."""
    with (scores_dir / "aggregates.csv").open(encoding="utf-8", newline="") as fh:
        aggregates = {(r["backend"], r["model"], r["task"], r["mode"]): r for r in csv.DictReader(fh)}
    _compare_rows("aggregates.csv", expected_aggs, aggregates, outcome)

    with (scores_dir / "comparisons.csv").open(encoding="utf-8", newline="") as fh:
        rows = {(r["backend"], r["model"], r["task"], r["mode"], r["acc_metric"]): r
                for r in csv.DictReader(fh)}
    _compare_rows("comparisons.csv", comparisons, rows, outcome)

    report_rows = {}
    text = report_path.read_text(encoding="utf-8")
    section = text.split("## Constraint tax vs", 1)[-1].split("\n## ", 1)[0]
    for line in section.splitlines():
        cells = [c.strip() for c in line.strip().strip("|").split("|")]
        if len(cells) == 13 and cells[0] not in ("backend", "---"):
            key = (cells[0], cells[1], cells[2], cells[4], cells[3])
            report_rows[key] = dict(zip(REPORT_FIELDS, cells[5:9] + cells[10:12]))
    expected_report = {key: {f: row[f] for f in REPORT_FIELDS} for key, row in comparisons.items()}
    _compare_rows("report tax table", expected_report, report_rows, outcome)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class OfflineCorruptor:
    """ctax run, corruptor backend, 5 families x count x 9 modes."""

    name = "offline_corruptor"
    cpu_bound = True

    def __init__(self, work: Path, seed: int, count: int = 200):
        self.seed = seed
        self.config_doc = corruptor_config(seed, count)
        self.config_path = write_json(work / "config.json", self.config_doc)
        self.oracle = {}
        for inst in suites(count, seed):
            for mode in MODE_NAMES:
                stage = "stage1" if mode == DELAYED else "single"
                self.oracle[("corruptor", "corruptor-v1", mode, stage, inst.id)] = \
                    oracle_generate(inst, mode, stage)

    def setup_spec(self) -> dict:
        return {"config": str(self.config_path)}

    def argvs(self, out: Path) -> list[list[str]]:
        return [["run", "--config", str(self.config_path), "--out", str(out)]]

    def begin(self) -> None:
        pass

    def check(self, out: Path, result: dict) -> Outcome:
        outcome = Outcome()
        docs = read_run_output(out / "records.jsonl", outcome)
        check_keys(docs, self.oracle, outcome)
        check_oracle_verdicts(docs, self.oracle, outcome)
        return outcome

    def close(self) -> None:
        pass


class ScoreReport:
    """ctax score then ctax report on the offline_corruptor records of the
    same seed, prepared (and checked) outside the timed region."""

    name = "score_report"
    cpu_bound = True

    def __init__(self, work: Path, seed: int, count: int = 200):
        self.seed = seed
        source = OfflineCorruptor(work / "source", seed, count)
        self.records_path = work / "source" / "out" / "records.jsonl"
        with contextlib.redirect_stdout(io.StringIO()):
            run(config_from_dict(source.config_doc), self.records_path.parent)
        prepared = source.check(self.records_path.parent, {})
        if prepared.failures:
            raise RuntimeError("score_report input failed its checks: "
                               + "; ".join(prepared.failures))
        self.docs = read_jsonl(self.records_path)
        self.bytes_per_record = self.records_path.stat().st_size / len(self.docs)
        self.expected_aggregates = expected_aggregates(self.docs)
        self.expected_comparisons = expected_comparisons(self.docs)

    def setup_spec(self) -> dict:
        return {"argvs": self.argvs(self.records_path.parent / "unused")}

    def argvs(self, out: Path) -> list[list[str]]:
        return [["score", "--records", str(self.records_path), "--out", str(out / "scores")],
                ["report", "--records", str(self.records_path), "--out", str(out / "report.md")]]

    def begin(self) -> None:
        pass

    def check(self, out: Path, result: dict) -> Outcome:
        outcome = Outcome()
        outcome.records = len(self.docs)
        outcome.failed = sum(1 for d in self.docs if d["error_class"] == FAILED)
        outcome.extra["bytes_per_record"] = self.bytes_per_record
        check_scores(self.expected_aggregates, self.expected_comparisons,
                     out / "scores", out / "report.md", outcome)
        return outcome

    def close(self) -> None:
        pass


class EndpointMock:
    """ctax run, endpoint backend against the mock server, model-variant
    delayed packaging (a second, dependent request per delayed instance)."""

    name = "endpoint_mock"
    cpu_bound = False
    max_in_flight = ENDPOINT_IN_FLIGHT

    def __init__(self, work: Path, seed: int, count: int = 20):
        self.seed = seed
        table, self.served = self.build_table(seed, count)
        table_path = write_json(work / "mock_table.json", table)
        self.server = subprocess.Popen(
            [sys.executable, str(Path(__file__).resolve().parent / "mock_server.py"),
             "--table", str(table_path), "--seed", str(seed)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            port = int(self.server.stdout.readline())
        except ValueError:
            self.close()
            raise RuntimeError("mock server did not start") from None
        self.base_url = f"http://127.0.0.1:{port}"
        self.config_path = write_json(work / "config.json",
                                      endpoint_config(seed, count, self.base_url))

    @staticmethod
    def build_table(seed: int, count: int) -> tuple[dict, dict]:
        """(prompt -> [oracle text, wrappable], record key -> (kind, served
        text)). Stage-2 prompts embed the stage-1 text the mock serves, so
        they are built from it."""
        doc = endpoint_config(seed, count, "http://mock.invalid")
        backend = config_from_dict(doc).backends[0]
        table: dict[str, list] = {}
        served: dict[tuple, tuple[str, str]] = {}

        def add(bundle, oracle_text: str, wrappable: bool) -> str:
            entry = [oracle_text, wrappable]
            if table.setdefault(bundle.user_text, entry) != entry:
                raise RuntimeError(f"prompt of {bundle.instance_id}/{bundle.mode} maps "
                                   "to two different oracle answers")
            answer = served_answer(entry, draw(seed, build_request_body(backend, bundle)))
            served[("mock", "mock-model", bundle.mode, bundle.stage, bundle.instance_id)] = answer
            return answer[1]

        for inst in suites(count, seed):
            for mode in MODE_NAMES:
                bundle = build_prompt(inst, mode)
                text = add(bundle, oracle_generate(inst, mode, bundle.stage),
                           mode in OBJECT_MODES and bundle.stage == "single")
                if mode == DELAYED:
                    stage2 = build_delayed_stage2(text, inst, "model").stage2_bundle
                    add(stage2, oracle_generate(inst, mode, "stage2"), True)
        return table, served

    def _control(self, method: str, path: str) -> dict:
        request = urllib.request.Request(self.base_url + path, method=method,
                                         data=b"" if method == "POST" else None)
        with _LOCAL.open(request, timeout=10) as response:
            return json.loads(response.read())

    def setup_spec(self) -> dict:
        return {"config": str(self.config_path)}

    def argvs(self, out: Path) -> list[list[str]]:
        return [["run", "--config", str(self.config_path), "--out", str(out)]]

    def begin(self) -> None:
        self._control("POST", "/_bench/reset")

    def check(self, out: Path, result: dict) -> Outcome:
        outcome = Outcome()
        docs = read_run_output(out / "records.jsonl", outcome)
        check_keys(docs, self.served, outcome)
        check_served_verdicts(docs, self.served, outcome)
        stats = self._control("GET", "/_bench/stats")
        if stats["not_found"] or stats["bad_request"]:
            outcome.fail(f"mock answered {stats['not_found']} unknown prompts and "
                         f"{stats['bad_request']} malformed bodies")
        if stats["peak_in_flight"] > self.max_in_flight:
            outcome.fail(f"{stats['peak_in_flight']} requests in flight at once, "
                         f"max_in_flight is {self.max_in_flight}")
        ideal = stats["scheduled_s"] / self.max_in_flight
        outcome.extra.update(
            gap_to_ideal=result["wall_s"] / ideal,
            requests=stats["requests"],
            retries=stats["unavailable"] + stats["not_found"] + stats["bad_request"],
            connections_opened=stats["connections"],
            service_s=stats["service_s"])
        return outcome

    def close(self) -> None:
        self.server.stdin.close()  # the server stops when its stdin closes
        try:
            self.server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.server.kill()
            self.server.wait()
        self.server.stdout.close()


WORKLOADS = {w.name: w for w in (OfflineCorruptor, ScoreReport, EndpointMock)}
