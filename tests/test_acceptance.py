"""Acceptance suite: nine go/no-go checks for the whole harness.

Each test prints one `[criterion N] PASS/FAIL` line. Reference numbers are
frozen regression values for the reference aggregate deltas, the tax table,
the bootstrap brackets, and the calendar checker's verdict fixture.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from ctax.backend import BackendConfig, FaultProfile
from ctax.checkers import calendar_exec_ok, classify_calendar_failure
from ctax.harness import (
    RunConfig,
    SuiteConfig,
    derive_delayed,
    run,
    score,
    score_to_files,
)
from ctax.metrics import (
    BootstrapConfig,
    aggregate,
    bootstrap_rate_ci,
    constraint_tax,
    paired_comparison,
    pts,
)
from ctax.records import canonical_diff, read_records
from ctax.report import render_report
from ctax.taskgen import FAMILIES, generate_suite
from ctax.validation import validate_schema

from calendar_cases import CASES, EXPECTED_ARGS
from reference_validator import enumerate_pairs, reference_validate


_LINES: list[str] = []  # drained by the terminal-summary hook in conftest.py


def _announce(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num}] {'PASS' if ok else 'FAIL'} — {detail}"
    _LINES.append(line)
    print(line)


@dataclass(frozen=True)
class _Ind:
    """Indicator-set record: just enough surface for paired scoring."""

    instance_id: str
    schema_valid: bool
    answer_correct: bool
    exec_correct: bool
    backend_label: str = "ref"
    model_id: str = "ref"
    mode: str = "baseline"
    family: str = "arithmetic_two_step"
    error_class: str = "correct_valid"


def _indicators(n, n_valid, n_exec, n_answer, mode):
    return [_Ind(instance_id=f"i-{i:05d}", schema_valid=i < n_valid,
                 exec_correct=i < n_exec, answer_correct=i < n_answer, mode=mode)
            for i in range(n)]


# ---------------------------------------------------------------------------
# 1. indicator-set regression: aggregate deltas exact to 0.1 pt
# ---------------------------------------------------------------------------

def test_criterion_1_aggregate_delta_regression():
    started = time.perf_counter()
    n = 3000
    cfg = BootstrapConfig(resamples=50, seed=0)

    def delta(base_counts, cons_counts, metric):
        base = _indicators(n, *base_counts, mode="soft")
        cons = _indicators(n, *cons_counts, mode="hard")
        return paired_comparison(base, cons, acc_metric=metric, cfg=cfg)

    try:
        # (n_valid, n_exec, n_answer) per arm; each pair encodes the two
        # reference counts for one metric, kept record-coherent per set
        answer = delta((3000, 591, 591), (3000, 330, 330), "answer")
        assert pts(answer.signed_delta) == -8.7

        validity = delta((1845, 360, 591), (3000, 333, 330), "answer")
        assert pts(validity.validity_delta) == 38.5

        execd = delta((3000, 360, 591), (3000, 330, 330), "exec")
        assert pts(execd.signed_delta) == -1.0

        wrong_valid = delta((1845, 360, 591), (3000, 333, 330), "exec")
        assert pts(wrong_valid.wrong_valid_delta) == 39.4

        elapsed = time.perf_counter() - started
        assert elapsed < 1.0, f"took {elapsed:.2f}s"
    except AssertionError as exc:
        _announce(1, False, str(exc))
        raise
    _announce(1, True,
              f"answer -8.7, validity +38.5, exec -1.0, wrong-valid +39.4 "
              f"at n={n} in {elapsed * 1000:.0f}ms")


# ---------------------------------------------------------------------------
# 2. tax column from five (baseline, constrained) accuracy pairs
# ---------------------------------------------------------------------------

def test_criterion_2_tax_table_regression():
    pairs = (
        (Fraction(146, 1000), Fraction(27, 1000), 11.9),
        (Fraction(317, 1000), Fraction(117, 1000), 20.0),
        (Fraction(128, 1000), Fraction(187, 1000), 0.0),  # clipped gain
        (Fraction(915, 1000), Fraction(480, 1000), 43.5),
        (Fraction(390, 1000), Fraction(237, 1000), 15.3),
    )
    try:
        taxes = []
        for base, constrained, want in pairs:
            got = pts(constraint_tax(base, constrained))
            assert got == want, f"tax({float(base)}, {float(constrained)}) = {got}, want {want}"
            taxes.append(got)
    except AssertionError as exc:
        _announce(2, False, str(exc))
        raise
    _announce(2, True, "taxes " + ", ".join(f"{t:.1f}" for t in taxes)
              + " (clip at 0.0 included)")


# ---------------------------------------------------------------------------
# 3. calendar checker conformance on the 30-case fixture
# ---------------------------------------------------------------------------

def test_criterion_3_calendar_fixture_conformance():
    try:
        counts: dict[str, int] = {}
        for name, obj, want_exec, want_class in CASES:
            got_exec = calendar_exec_ok(obj, EXPECTED_ARGS)
            got_class, _wrong = classify_calendar_failure(obj, EXPECTED_ARGS)
            assert got_exec == want_exec, f"{name}: exec {got_exec}, want {want_exec}"
            assert got_class == want_class, f"{name}: class {got_class}, want {want_class}"
            counts[got_class] = counts.get(got_class, 0) + 1
        assert sum(counts.values()) == len(CASES) == 30
        # the fixture exercises every failure class plus the correct bucket
        assert set(counts) == {"correct", "wrong_duration", "wrong_topic",
                               "wrong_date", "wrong_time", "wrong_attendee",
                               "multi_field"}
    except AssertionError as exc:
        _announce(3, False, str(exc))
        raise
    _announce(3, True,
              f"30/30 verdicts match; classes partition n "
              f"({', '.join(f'{k}={v}' for k, v in sorted(counts.items()))})")


# ---------------------------------------------------------------------------
# 4. oracle end-to-end: perfect scores, zero tax everywhere
# ---------------------------------------------------------------------------

def test_criterion_4_oracle_end_to_end(tmp_path):
    started = time.perf_counter()
    config = RunConfig(
        run_id="acc-oracle",
        suite=SuiteConfig(families=FAMILIES, count=50, seed=0),
        modes=("freeform", "freeform_direct", "freeform_brief_reasoning",
               "prompt_json", "final_only_regex", "answer_only_schema",
               "rationale_answer_schema", "typed_trace_schema",
               "delayed_constraint"),
        backends=(BackendConfig(kind="oracle", label="oracle",
                                model_id="oracle-v1", max_in_flight=1),),
        bootstrap=BootstrapConfig(resamples=500, seed=0),
    )
    try:
        records = read_records(run(config, tmp_path / "oracle"))
        assert len(records) == 5 * 9 * 50
        result = score(records, bootstrap=config.bootstrap)
        assert len(result.aggregates) == 9 * 6  # modes x (families + rollup)
        for agg in result.aggregates:
            label = f"{agg.task}/{agg.mode}"
            assert pts(agg.schema_validity) == 100.0, label
            assert pts(agg.answer_accuracy) == 100.0, label
            assert pts(agg.exec_accuracy) == 100.0, label
            assert agg.wrong_valid_count == 0, label
            if agg.trace_n:
                assert pts(agg.trace_accuracy) == 100.0, label
        assert len(result.comparisons) == 8 * 6 * 2  # modes x tasks x metrics
        for cmp in result.comparisons:
            assert cmp.tax == 0 and cmp.signed_delta == 0, (cmp.task, cmp.mode)
            assert cmp.tax_norm == 0.0
        elapsed = time.perf_counter() - started
        assert elapsed < 60.0, f"took {elapsed:.1f}s"
    except AssertionError as exc:
        _announce(4, False, str(exc))
        raise
    _announce(4, True,
              f"2250 records, 54 aggregates all at 100%, 96 pairings all "
              f"tax-0 in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. corruptor calibration against its dials
# ---------------------------------------------------------------------------

def test_criterion_5_corruptor_calibration(tmp_path):
    try:
        invalid_cfg = RunConfig(
            run_id="acc-invalid",
            suite=SuiteConfig(families=("arithmetic_two_step",), count=1000, seed=1),
            modes=("prompt_json",),
            backends=(BackendConfig(kind="corruptor", label="noisy",
                                    model_id="corruptor-v1",
                                    fault=FaultProfile(p_invalid_json=0.4, seed=0)),),
        )
        records = read_records(run(invalid_cfg, tmp_path / "invalid"))
        validity = pts(aggregate(records).schema_validity)
        assert 57.0 <= validity <= 63.0, f"validity {validity}"

        wrong_cfg = RunConfig(
            run_id="acc-wrong",
            suite=SuiteConfig(families=("tool_call_argument",), count=1000, seed=2),
            modes=("answer_only_schema",),
            backends=(BackendConfig(kind="corruptor", label="noisy",
                                    model_id="corruptor-v1",
                                    fault=FaultProfile(p_wrong_field=0.5, seed=0)),),
        )
        wrong_records = read_records(run(wrong_cfg, tmp_path / "wrong"))
        agg = aggregate(wrong_records)
        hard_validity = pts(agg.schema_validity)
        wrong_valid = pts(agg.wrong_valid_rate)
        assert hard_validity == 100.0, f"validity {hard_validity}"
        assert 47.0 <= wrong_valid <= 53.0, f"wrong-valid {wrong_valid}"
    except AssertionError as exc:
        _announce(5, False, str(exc))
        raise
    _announce(5, True,
              f"p_invalid=0.4 -> validity {validity:.1f}% in [57, 63]; "
              f"hard schema p_wrong=0.5 -> validity 100.0%, "
              f"wrong-valid {wrong_valid:.1f}% in 50±3")


# ---------------------------------------------------------------------------
# 6. bootstrap brackets on 183/200 and 96/200
# ---------------------------------------------------------------------------

def test_criterion_6_bootstrap_brackets():
    cfg = BootstrapConfig()  # 2000 resamples, level 0.95, seed 0
    try:
        high_ci = bootstrap_rate_ci([1] * 183 + [0] * 17, cfg, "bracket-a")
        lo, hi = pts(high_ci.low), pts(high_ci.high)
        assert abs(lo - 87.5) <= 1.0 and abs(hi - 95.0) <= 1.0, (lo, hi)

        mid_ci = bootstrap_rate_ci([1] * 96 + [0] * 104, cfg, "bracket-b")
        lo2, hi2 = pts(mid_ci.low), pts(mid_ci.high)
        assert abs(lo2 - 41.0) <= 1.0 and abs(hi2 - 55.0) <= 1.0, (lo2, hi2)

        again = bootstrap_rate_ci([1] * 183 + [0] * 17, cfg, "bracket-a")
        assert (again.low, again.high) == (high_ci.low, high_ci.high)
        again2 = bootstrap_rate_ci([1] * 96 + [0] * 104, cfg, "bracket-b")
        assert (again2.low, again2.high) == (mid_ci.low, mid_ci.high)
    except AssertionError as exc:
        _announce(6, False, str(exc))
        raise
    _announce(6, True,
              f"183/200 -> [{lo:.1f}, {hi:.1f}] vs [87.5, 95.0]; "
              f"96/200 -> [{lo2:.1f}, {hi2:.1f}] vs [41.0, 55.0]; "
              "rerun-identical")


# ---------------------------------------------------------------------------
# 7. delayed packaging never invents correctness
# ---------------------------------------------------------------------------

def test_criterion_7_delayed_packaging_invariant(tmp_path):
    def run_and_derive(backend, families, mode, tag):
        config = RunConfig(
            run_id=f"acc-delayed-{tag}",
            suite=SuiteConfig(families=families, count=100, seed=3),
            modes=(mode,),
            backends=(backend,),
        )
        records = read_records(run(config, tmp_path / tag))
        instances = {}
        for family in families:
            for inst in generate_suite(family, 100, 3):
                instances[inst.id] = inst
        derived = derive_delayed(records, instances, config)
        return records, derived

    oracle = BackendConfig(kind="oracle", label="oracle", model_id="oracle-v1")
    wrongish = BackendConfig(kind="corruptor", label="wrongish", model_id="c-v1",
                             fault=FaultProfile(p_wrong_field=0.5, seed=4))
    lossy = BackendConfig(kind="corruptor", label="lossy", model_id="c-v1",
                          fault=FaultProfile(p_invalid_json=0.4, p_wrong_field=0.3,
                                             seed=5))
    try:
        # every source object extractable -> exec carried over exactly
        for backend, tag in ((oracle, "exact-oracle"), (wrongish, "exact-wrong")):
            src, der = run_and_derive(
                backend, ("arithmetic_two_step", "tool_call_argument"),
                "prompt_json", tag)
            src_exec = sum(r.exec_correct for r in src)
            der_exec = sum(r.exec_correct for r in der)
            assert der_exec == src_exec, (tag, src_exec, der_exec)

        # malformed stage-1 text cannot be packaged -> never exceeds source
        src, der = run_and_derive(
            lossy, ("arithmetic_two_step", "tool_call_argument"), "freeform",
            "lossy-freeform")
        src_exec = sum(r.exec_correct for r in src)
        der_exec = sum(r.exec_correct for r in der)
        assert der_exec <= src_exec, (src_exec, der_exec)
    except AssertionError as exc:
        _announce(7, False, str(exc))
        raise
    _announce(7, True,
              f"extractable sources carry exec exactly (oracle and "
              f"wrong-field); lossy freeform {der_exec}/{src_exec} never exceeds")


# ---------------------------------------------------------------------------
# 8. validator agrees with the brute-force reference on every pair
# ---------------------------------------------------------------------------

def test_criterion_8_validator_oracle_equivalence():
    try:
        pairs = enumerate_pairs()
        assert len(pairs) >= 10_000, f"only {len(pairs)} pairs enumerated"
        mismatches = []
        for value, schema in pairs:
            got = not validate_schema(value, schema)
            want = reference_validate(value, schema)
            if got != want:
                mismatches.append((value, schema, got, want))
        assert not mismatches, mismatches[:3]
    except AssertionError as exc:
        _announce(8, False, str(exc))
        raise
    _announce(8, True, f"{len(pairs)} value/schema pairs, 100% agreement")


# ---------------------------------------------------------------------------
# 9. scripted runs are deterministic down to the output bytes
# ---------------------------------------------------------------------------

def test_criterion_9_scripted_determinism(tmp_path):
    def full_run(tag):
        config = RunConfig(
            run_id="acc-determinism",
            suite=SuiteConfig(families=("arithmetic_two_step", "tool_call_argument"),
                              count=20, seed=6),
            modes=("freeform", "prompt_json", "answer_only_schema",
                   "delayed_constraint"),
            backends=(
                BackendConfig(kind="oracle", label="oracle", model_id="oracle-v1"),
                BackendConfig(kind="corruptor", label="noisy", model_id="c-v1",
                              fault=FaultProfile(p_invalid_json=0.25,
                                                 p_wrong_field=0.25, seed=13)),
            ),
            bootstrap=BootstrapConfig(resamples=200, seed=0),
        )
        records_path = run(config, tmp_path / tag)
        result = score(read_records(records_path), bootstrap=config.bootstrap)
        paths = score_to_files(result, tmp_path / f"{tag}-scores")
        blobs = {name: p.read_bytes() for name, p in paths.items()}
        blobs["report.md"] = render_report(result, "prompt_json").encode()
        return records_path, blobs

    try:
        path_a, blobs_a = full_run("run-a")
        path_b, blobs_b = full_run("run-b")
        diff = canonical_diff(path_a, path_b)
        assert diff == [], diff[:5]
        for name in sorted(blobs_a):
            assert blobs_a[name] == blobs_b[name], f"{name} differs between runs"
    except AssertionError as exc:
        _announce(9, False, str(exc))
        raise
    _announce(9, True,
              "records canonical-diff-identical; aggregates/comparisons/"
              "calendar CSVs and report byte-identical")
