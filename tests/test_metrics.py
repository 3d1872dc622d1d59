"""Aggregation counts, tax formulas, paired bootstrap behavior."""

from __future__ import annotations

import math
import random
import re
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np
import pytest
import reference_bootstrap

from ctax import metrics
from ctax.errors import ConfigError, PairingError
from ctax.metrics import (
    ACC_METRICS,
    BootstrapConfig,
    _exact_ci,
    aggregate,
    bootstrap_rate_ci,
    constraint_tax,
    normalized_tax,
    paired_comparison,
    pts,
    structural_overhead,
)


@dataclass(frozen=True)
class Stub:
    """Minimal record shape the metrics layer consumes."""

    instance_id: str
    backend_label: str = "b"
    model_id: str = "m"
    mode: str = "prompt_json"
    family: str = "arithmetic_two_step"
    error_class: str = "correct_valid"
    schema_valid: bool = True
    answer_correct: bool = True
    exec_correct: bool = True
    trace_correct: bool | None = None
    latency_ms: float = 10.0
    completion_tokens: int | None = 20
    structural_overhead: float | None = 0.5
    latency_annotation: str | None = None


def _block(n, n_exec, mode="prompt_json", all_valid=True, **kw):
    """n records, the first n_exec fully correct, the rest wrong-but-valid."""
    out = []
    for i in range(n):
        good = i < n_exec
        out.append(Stub(
            instance_id=f"t-{i:05d}",
            mode=mode,
            schema_valid=all_valid,
            answer_correct=good,
            exec_correct=good,
            error_class="correct_valid" if good else "wrong_answer_valid_schema",
            **kw,
        ))
    return out


# ---------------------------------------------------------------------------
# display rounding
# ---------------------------------------------------------------------------

def test_pts_exact_fraction_rounding():
    assert pts(Fraction(2667, 3000)) == 88.9
    assert pts(Fraction(591, 3000)) == 19.7
    assert pts(Fraction(96, 200)) == 48.0
    assert pts(Fraction(183, 200)) == 91.5
    assert pts(Fraction(1, 1)) == 100.0
    assert pts(Fraction(0, 5)) == 0.0


def test_pts_of_a_fraction_rounds_as_round_of_its_product():
    """pts rounds in integers; round(rate * 1000) is the rule it keeps, halves
    to even, on both sides of zero."""
    grid = {Fraction(k, d) for d in (1, 2, 3, 7, 8, 16, 40, 200, 2000, 3000, 4000, 9999)
            for k in range(-2 * d - 3, 2 * d + 4)}
    grid |= {Fraction(2 * k + 1, 2000) for k in range(-50, 50)}  # every x.x5 point: a half
    grid |= {Fraction(0), Fraction(-1, 10**9), Fraction(10**20 + 1, 10**20)}
    for rate in grid:
        assert pts(rate) == float(round(rate * 1000)) / 10.0, rate
    assert pts(Fraction(1, 2000)) == 0.0 and pts(Fraction(3, 2000)) == 0.2
    assert pts(Fraction(-1, 2000)) == 0.0 and pts(Fraction(-3, 2000)) == -0.2


def test_pts_float_path():
    assert pts(0.1966) == 19.7
    assert pts(0.435) == 43.5


# ---------------------------------------------------------------------------
# tax formulas
# ---------------------------------------------------------------------------

def test_tax_clips_at_zero():
    assert constraint_tax(0.128, 0.187) == 0.0
    assert constraint_tax(Fraction(1, 10), Fraction(2, 10)) == Fraction(0)


def test_tax_positive_cases():
    assert constraint_tax(0.146, 0.027) == pytest.approx(0.119)
    assert constraint_tax(Fraction(183, 200), Fraction(96, 200)) == Fraction(87, 200)


def test_normalized_tax():
    assert normalized_tax(0.197, 0.110) == pytest.approx((0.197 - 0.110) / 0.197)
    assert normalized_tax(0.0, 0.0) == 0.0
    # gain under constraint: tax clips to zero so the share does too
    assert normalized_tax(0.128, 0.187) == 0.0
    # epsilon keeps a zero baseline finite even with float noise
    assert normalized_tax(0.0, 0.0, epsilon=1e-6) == 0.0


# ---------------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------------

def test_aggregate_counts():
    agg = aggregate(_block(200, 96))
    assert agg.n == 200 and agg.n_failed == 0
    assert agg.valid_count == 200
    assert agg.exec_count == 96 and agg.answer_count == 96
    assert agg.wrong_valid_count == 104
    assert pts(agg.wrong_valid_rate) == 52.0
    assert pts(agg.exec_accuracy) == 48.0
    assert pts(agg.schema_validity) == 100.0
    assert agg.task == "arithmetic_two_step"


# (verdict, a value that is not a bool): read by its truth value, "no" would
# count as correct, and a trace verdict of 2 as two correct traces
_NOT_BOOLS = [(name, value) for name in ("schema_valid", "answer_correct", "exec_correct",
                                         "trace_correct")
              for value in (None, "yes", "no", 2, 1, 0.0, 0.5)
              if not (name == "trace_correct" and value is None)]


@pytest.mark.parametrize("name, value", _NOT_BOOLS, ids=[f"{n}={v!r}" for n, v in _NOT_BOOLS])
def test_a_verdict_that_is_not_a_bool_is_a_type_error_naming_it(name, value):
    records = _block(4, 2)
    odd = records[:1] + [replace(records[1], **{name: value})] + records[2:]
    fault = rf"^{name} must be true.* got {re.escape(repr(value))}$"
    with pytest.raises(TypeError, match=fault):
        aggregate(odd)
    if name != "trace_correct":  # a comparison reads no trace verdict
        with pytest.raises(TypeError, match=fault):
            paired_comparison(records, odd)
    assert aggregate(records).answer_count == 2


def test_aggregate_excludes_generation_failures():
    records = _block(50, 40) + [
        replace(s, error_class="generation_failed", schema_valid=False,
                answer_correct=False, exec_correct=False)
        for s in _block(10, 0)
    ]
    # renumber the failed block so ids do not collide
    records = records[:50] + [replace(r, instance_id=f"f-{i}")
                              for i, r in enumerate(records[50:])]
    agg = aggregate(records)
    assert agg.n == 50 and agg.n_failed == 10
    assert agg.exec_count == 40


def test_aggregate_rejects_mixed_cells():
    records = _block(2, 2) + _block(2, 2, mode="freeform")
    with pytest.raises(ValueError, match="mix"):
        aggregate(records)


def test_aggregate_rejects_empty_and_all_failed():
    with pytest.raises(ValueError):
        aggregate([])
    failed = [replace(s, error_class="generation_failed") for s in _block(3, 0)]
    with pytest.raises(ValueError, match="generation_failed"):
        aggregate(failed)


def test_aggregate_trace_denominator():
    traced = [replace(s, trace_correct=(i % 2 == 0))
              for i, s in enumerate(_block(10, 10, mode="typed_trace_schema"))]
    untraced = _block(10, 10, mode="typed_trace_schema")
    untraced = [replace(r, instance_id=f"u-{i}") for i, r in enumerate(untraced)]
    agg = aggregate(traced + untraced)
    assert agg.n == 20
    assert agg.trace_n == 10
    assert agg.trace_count == 5
    assert agg.trace_accuracy == Fraction(1, 2)
    plain = aggregate(_block(5, 5))
    assert plain.trace_n == 0 and plain.trace_accuracy is None


def test_aggregate_task_rollup_label():
    mixed = _block(3, 3) + [replace(r, instance_id=f"x-{i}", family="boolean_logic")
                            for i, r in enumerate(_block(3, 3))]
    assert aggregate(mixed).task == "all"
    assert aggregate(mixed, task="custom").task == "custom"


def test_aggregate_means_and_notes():
    records = [
        replace(_block(1, 1)[0], latency_ms=10.0, completion_tokens=10,
                structural_overhead=0.2),
        replace(_block(1, 1)[0], instance_id="t-2", latency_ms=30.0,
                completion_tokens=None, structural_overhead=0.6,
                latency_annotation="+ pkg."),
    ]
    agg = aggregate(records)
    assert agg.mean_latency_ms == pytest.approx(20.0)
    assert agg.mean_completion_tokens == pytest.approx(10.0)
    assert agg.mean_structural_overhead == pytest.approx(0.4)
    assert agg.latency_note == "+ pkg."
    assert aggregate(_block(2, 2)).latency_note is None


# ---------------------------------------------------------------------------
# single-rate bootstrap
# ---------------------------------------------------------------------------

def test_rate_ci_deterministic():
    ind = [1] * 183 + [0] * 17
    cfg = BootstrapConfig()
    a = bootstrap_rate_ci(ind, cfg, "cell")
    assert bootstrap_rate_ci(ind, cfg, "cell") == a
    # labels are inert: they once seeded a sampler, and the exact CI has none
    assert bootstrap_rate_ci(ind, cfg, "other-cell") == bootstrap_rate_ci(ind, cfg) == a


def test_rate_ci_degenerate_sets():
    cfg = BootstrapConfig(resamples=200, seed=1)
    ones = bootstrap_rate_ci([1] * 50, cfg)
    assert ones.low == ones.high == 1.0
    zeros = bootstrap_rate_ci([0] * 50, cfg)
    assert zeros.low == zeros.high == 0.0
    with pytest.raises(ValueError):
        bootstrap_rate_ci([], cfg)


def test_rate_ci_brackets_point_estimate():
    ind = [1] * 183 + [0] * 17
    ci = bootstrap_rate_ci(ind, BootstrapConfig(resamples=2000, seed=0))
    assert ci.low <= 0.915 <= ci.high
    assert 0.86 < ci.low < 0.90
    assert 0.93 < ci.high < 0.96


def test_rate_ci_coverage():
    # nominal 95% CI should cover the true rate in the vast majority of
    # simulated draws; allow slack for Monte Carlo noise at the small n
    rng = np.random.default_rng(7)
    cfg = BootstrapConfig(resamples=300, seed=3)
    p, n, sims = 0.7, 60, 400
    covered = 0
    for s in range(sims):
        draws = (rng.random(n) < p).astype(int)
        ci = bootstrap_rate_ci(draws, cfg, "coverage", s)
        if ci.low <= p <= ci.high:
            covered += 1
    assert covered / sims >= 0.88


# ---------------------------------------------------------------------------
# paired comparisons
# ---------------------------------------------------------------------------

def _nested_pair(n=200, n_base=183, n_cons=96):
    """Constrained-correct instances are a subset of baseline-correct ones."""
    base = _block(n, n_base)
    cons = _block(n, n_cons, mode="answer_only_schema")
    return base, cons


def test_paired_point_estimates():
    base, cons = _nested_pair()
    cmp = paired_comparison(base, cons, acc_metric="exec",
                            cfg=BootstrapConfig(resamples=200, seed=0))
    assert cmp.n == 200
    assert cmp.acc_baseline == Fraction(183, 200)
    assert cmp.acc_constrained == Fraction(96, 200)
    assert pts(cmp.signed_delta) == -43.5
    assert pts(cmp.tax) == 43.5
    assert cmp.baseline_mode == "prompt_json" and cmp.mode == "answer_only_schema"
    assert cmp.acc_metric == "exec"
    assert cmp.task == "arithmetic_two_step"
    # all records valid in both arms
    assert cmp.validity_delta == 0
    # wrong-valid = valid and not exec: 17 baseline vs 104 constrained
    assert cmp.wrong_valid_delta == Fraction(104 - 17, 200)


def test_paired_delta_ci_nested_arrangement():
    base, cons = _nested_pair()
    cmp = paired_comparison(base, cons, acc_metric="exec",
                            cfg=BootstrapConfig(resamples=2000, seed=0))
    # nested indicators give the tightest paired variance; the CI should
    # land near the analytic percentile interval for this arrangement
    assert -0.52 < cmp.acc_ci.low < -0.47
    assert -0.40 < cmp.acc_ci.high < -0.35
    assert cmp.acc_ci.low <= float(cmp.signed_delta) <= cmp.acc_ci.high


def test_paired_ci_deterministic():
    base, cons = _nested_pair()
    cfg = BootstrapConfig(resamples=400, seed=9)
    a = paired_comparison(base, cons, "exec", cfg)
    b = paired_comparison(base, cons, "exec", cfg)
    assert (a.acc_ci.low, a.acc_ci.high) == (b.acc_ci.low, b.acc_ci.high)
    assert (a.validity_ci.low, a.validity_ci.high) == \
        (b.validity_ci.low, b.validity_ci.high)


def test_paired_metrics_are_independent():
    base, cons = _nested_pair()
    # make answer and exec disagree on the constrained side
    cons = [replace(r, answer_correct=True) for r in cons]
    by_answer = paired_comparison(base, cons, "answer",
                                  BootstrapConfig(resamples=100, seed=0))
    by_exec = paired_comparison(base, cons, "exec",
                                BootstrapConfig(resamples=100, seed=0))
    assert by_answer.acc_constrained == Fraction(1)
    assert by_exec.acc_constrained == Fraction(96, 200)


def test_paired_rejects_unknown_metric():
    base, cons = _nested_pair(4, 4, 4)
    with pytest.raises(ValueError, match="metric"):
        paired_comparison(base, cons, "f1")
    assert ACC_METRICS == ("answer", "exec")


def test_pairing_error_names_missing_ids():
    base, cons = _nested_pair(6, 6, 6)
    with pytest.raises(PairingError) as err:
        paired_comparison(base, cons[:-1])
    assert err.value.missing_in_constrained == ["t-00005"]
    assert "t-00005" in str(err.value)


def test_pairing_rejects_duplicate_instances():
    base, cons = _nested_pair(6, 6, 6)
    with pytest.raises(ValueError, match="duplicate constrained record"):
        paired_comparison(base, cons + [cons[0]])
    with pytest.raises(ValueError, match="duplicate baseline record"):
        paired_comparison(base + [base[-1]], cons)


def test_pairing_ignores_generation_failures():
    base, cons = _nested_pair(6, 6, 6)
    cons[-1] = replace(cons[-1], error_class="generation_failed")
    base[-1] = replace(base[-1], error_class="generation_failed")
    cmp = paired_comparison(base, cons, "exec",
                            BootstrapConfig(resamples=50, seed=0))
    assert cmp.n == 5


def test_pairing_drops_an_instance_failed_in_one_arm():
    base, cons = _nested_pair(6, 6, 3)
    base[0] = replace(base[0], error_class="generation_failed")
    cons[-1] = replace(cons[-1], error_class="generation_failed")
    cmp = paired_comparison(base, cons, "exec", BootstrapConfig(resamples=50, seed=0))
    assert cmp.n == 4  # t-00000 and t-00005 leave both arms
    assert cmp.acc_baseline == 1 and cmp.acc_constrained == Fraction(2, 4)
    # a failed record and a scored one for the same instance are not duplicates
    assert paired_comparison(base + [replace(base[0], error_class="correct_valid")], cons,
                             "exec", BootstrapConfig(resamples=50, seed=0)).n == 5
    # an instance absent from an arm is still a mismatch, failed or not
    with pytest.raises(PairingError) as err:
        paired_comparison(base, cons[:-1], "exec")
    assert err.value.missing_in_constrained == ["t-00005"]


def test_paired_empty_after_filter():
    base, cons = _nested_pair(2, 2, 2)
    base = [replace(r, error_class="generation_failed") for r in base]
    cons = [replace(r, error_class="generation_failed") for r in cons]
    with pytest.raises(ValueError):
        paired_comparison(base, cons, "exec")


def test_clipped_tax_keeps_signed_delta():
    base = _block(100, 50)
    cons = _block(100, 60, mode="answer_only_schema")
    cmp = paired_comparison(base, cons, "exec",
                            BootstrapConfig(resamples=100, seed=0))
    assert pts(cmp.signed_delta) == 10.0
    assert cmp.tax == 0
    assert cmp.tax_norm == 0.0


def test_pairing_failures_are_pairing_errors():
    base, cons = _nested_pair(6, 6, 6)
    with pytest.raises(PairingError, match="duplicate constrained record"):
        paired_comparison(base, cons + [cons[0]])
    with pytest.raises(PairingError, match="missing in constrained: " + base[0].instance_id):
        paired_comparison(base, [])
    failed = [replace(r, error_class="generation_failed") for r in base]
    with pytest.raises(PairingError, match="empty"):
        paired_comparison(failed, failed)


@pytest.mark.parametrize("setting", [
    {"resamples": 0}, {"resamples": -3}, {"level": 0.0}, {"level": 1.0}, {"level": 1.5},
    {"level": -0.95},
], ids=lambda setting: "{}={}".format(*next(iter(setting.items()))))
def test_bootstrap_config_rejects_bad_settings(setting):
    with pytest.raises(ConfigError, match=next(iter(setting))):
        BootstrapConfig(**setting)


# The reference draws 20000 resamples, which keeps the Monte Carlo error of
# each percentile near 0.1 pt at these n; a distribution that differed would
# move the bounds by well over the 1 pt allowed.
@pytest.mark.parametrize("n, k_up, k_down, level", [
    (100, 0, 0, 0.95),      # every delta 0
    (100, 100, 0, 0.95),    # every delta +1
    (100, 0, 100, 0.95),    # every delta -1
    (200, 30, 10, 0.95),
    (200, 10, 60, 0.95),
    (200, 1, 0, 0.95),
    (400, 100, 100, 0.95),
    (400, 0, 37, 0.9),
    (1000, 150, 50, 0.95),
])
def test_paired_delta_ci_matches_index_resampling(n, k_up, k_down, level):
    baseline, constrained = reference_bootstrap.arms(n, k_up, k_down)
    arms = ([Stub(f"t-{i:05d}", mode=mode, answer_correct=bool(flag))
             for i, flag in enumerate(column)]
            for mode, column in (("prompt_json", baseline), ("answer_only_schema", constrained)))
    ci = paired_comparison(*arms, "answer", BootstrapConfig(level=level)).acc_ci
    low, high = reference_bootstrap.paired_delta_ci(baseline, constrained, 20000, level,
                                                    seed=n + k_up + k_down)
    assert abs(pts(ci.low) - pts(low)) <= 1.0, (ci.low, low)
    assert abs(pts(ci.high) - pts(high)) <= 1.0, (ci.high, high)
    if k_up + k_down == 0:
        assert (ci.low, ci.high) == (0.0, 0.0)
    if k_up == n:
        assert (ci.low, ci.high) == (1.0, 1.0)


def test_exact_ci_equals_enumerated_quantiles():
    """Every count vector with n <= 12: the FFT's bounds, for a paired delta
    and a single rate, are the enumerated law's quantiles. Level 0.5 puts CDF values exactly on a quantile (n = 2
    with shares 1/2 gives P = 1/4), which the FFT only reaches up to its
    rounding; 0.9 and 0.95 have no such tie at these n."""
    ties = 0
    for n in range(1, 13):
        for k_down in range(n + 1):
            for k_up in range(n - k_down + 1):
                law = reference_bootstrap.delta_law(k_down, n - k_down - k_up, k_up)
                cdf = np.cumsum([law.get(s, 0) for s in range(-n, n + 1)])
                baseline, constrained = reference_bootstrap.arms(n, k_up, k_down)
                for level in (0.5, 0.9, 0.95):
                    low, high = reference_bootstrap.exact_delta_ci(
                        k_down, n - k_down - k_up, k_up, level)
                    cfg = BootstrapConfig(level=level)
                    ci = _exact_ci(k_down, n - k_down - k_up, k_up, level)
                    assert (ci.low, ci.high) == (float(low), float(high)), \
                        (n, k_down, k_up, level)
                    if k_down == 0:  # a single rate: the same law with no -1s
                        assert bootstrap_rate_ci(constrained - baseline, cfg) == ci
                    ties += sum(1 for q in ((1 - Fraction(str(level))) / 2,
                                            (1 + Fraction(str(level))) / 2) if q in cdf)
    assert ties > 0


def test_a_tie_within_rounding_reads_as_a_tie(monkeypatch):
    """n = 2 with shares 1/2 puts F(0) = 1/4 and F(1) = 3/4 exactly on the
    0.5 level's quantiles. A law that lands both a rounding error below must
    still give the enumerated bounds."""
    delta_law = metrics._delta_law

    def low_by_rounding(*counts):
        lowest, step, weights = delta_law(*counts)
        total = sum(weights)
        weights[(0 - lowest) // step] -= 1e-13 * total  # s = 0
        weights[(2 - lowest) // step] += 1e-13 * total  # s = 2
        return lowest, step, weights

    monkeypatch.setattr(metrics, "_delta_law", low_by_rounding)
    ci = _exact_ci.__wrapped__(0, 1, 1, 0.5)  # unmemoised
    low, high = reference_bootstrap.exact_delta_ci(0, 1, 1, 0.5)
    assert (ci.low, ci.high) == (float(low), float(high)) == (0.0, 0.5)


def _random_counts(rng: random.Random, kind: str) -> tuple[int, int, int]:
    """A count vector (k_down, k_zero, k_up) of the given kind, with n
    log-uniform in [3, 9000]."""
    n = round(math.exp(rng.uniform(math.log(3), math.log(9000))))
    k = rng.randint(1, n - 1)
    if kind == "only up":
        return 0, n - k, k
    if kind == "only down":
        return k, n - k, 0
    if kind == "no zeros":
        return k, 0, n - k
    k_down = rng.randint(1, n - 2)
    k_up = rng.randint(1, n - 1 - k_down)
    return k_down, n - k_down - k_up, k_up


def test_exact_ci_equals_the_fft_reference():
    """The recurrence's bounds are the ones the FFT reads off the same law:
    every count vector with n <= 60 at four levels, and 3000 seeded random
    vectors up to n = 9000, one-sided either way, without zeros, and
    two-sided, at one of the levels each."""
    levels = (0.5, 0.9, 0.95, 0.99)
    checked = Counter()
    for n in range(1, 61):
        for k_down in range(n + 1):
            for k_up in range(n - k_down + 1):
                counts = k_down, n - k_down - k_up, k_up
                for level, bounds in zip(levels, reference_bootstrap.fft_delta_cis(*counts,
                                                                                   levels)):
                    ci = _exact_ci.__wrapped__(*counts, level)
                    assert (ci.low, ci.high) == bounds, (counts, level)
                    checked["n <= 60"] += 1
    rng = random.Random(22)
    for i in range(3000):
        kind = ("only up", "only down", "no zeros", "two-sided")[i % 4]
        counts, level = _random_counts(rng, kind), rng.choice(levels)
        ci = _exact_ci.__wrapped__(*counts, level)
        assert (ci.low, ci.high) == reference_bootstrap.fft_delta_cis(*counts, (level,))[0], \
            (counts, level)
        checked[kind] += 1
    assert checked == {"n <= 60": 158_840, "only up": 750, "only down": 750,
                       "no zeros": 750, "two-sided": 750}


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    st = None


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_exact_ci_brackets_the_point_on_the_lattice():
    @st.composite
    def counts(draw):
        n = draw(st.integers(1, 3000))
        k_down = draw(st.integers(0, n))
        return n, k_down, draw(st.integers(0, n - k_down))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(counts())
    def check(case):
        n, k_down, k_up = case
        counts = k_down, n - k_down - k_up, k_up
        wide = _exact_ci(*counts, 0.95)
        narrow = _exact_ci(*counts, 0.9)
        assert wide.low <= (k_up - k_down) / n <= wide.high
        for bound in (wide.low, wide.high, narrow.low, narrow.high):
            assert -1.0 <= bound <= 1.0
            assert bound == round(bound * n) / n
        assert wide.low <= narrow.low <= narrow.high <= wide.high

    check()


def test_paired_delta_ci_memory_does_not_scale_with_resamples_times_n():
    cfg = BootstrapConfig(resamples=2000, seed=0)
    tracemalloc.start()
    try:
        ci = _exact_ci.__wrapped__(20_000, 50_000, 30_000, cfg.level)  # unmemoised
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a resamples x n index array alone would take 1.6 GB
    assert peak < 50 * 2**20, peak
    assert ci.low < 0.1 < ci.high


def test_rate_ci_memory_does_not_scale_with_resamples_times_n():
    indicators = [1] * 1500 + [0] * 500
    cfg = BootstrapConfig(resamples=2000, seed=0)
    tracemalloc.start()
    try:
        ci = bootstrap_rate_ci(indicators, cfg, "memory")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a resamples x n index array and its gather would take about 64 MB
    assert peak < 8 * 2**20, peak
    assert ci.low < 0.75 < ci.high


# ---------------------------------------------------------------------------
# structural overhead
# ---------------------------------------------------------------------------

def test_structural_overhead_ratio():
    assert structural_overhead('{"answer": "9"}', "9") == pytest.approx(1 - 1 / 15)
    assert structural_overhead("9", "9") == 0.0


def test_structural_overhead_none_cases():
    assert structural_overhead("", "9") is None
    assert structural_overhead("text", None) is None


def test_structural_overhead_clipped_at_zero():
    assert structural_overhead("9", "9999") == 0.0
