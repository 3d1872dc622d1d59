"""Aggregation, constraint-tax formulas, and paired bootstrap comparisons.

Rates are kept as exact rational counts (fractions.Fraction) and only
rounded at display time, to 0.1 percentage point. Uncertainty comes from
a seeded percentile bootstrap, so confidence intervals are reproducible
bit-for-bit for a given seed. A paired comparison's binary indicators give
each instance a delta in {-1, 0, +1}, so a resample is one multinomial draw
of those counts rather than n index draws (BOOTSTRAP_VERSION). A mode pair's
answer and exec comparisons share one validity and one wrong-valid CI.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

import numpy as np

from .checkers import GENERATION_FAILED
from .errors import ConfigError, PairingError
from .rng import derive_seed

DEFAULT_EPSILON = 1e-6
DEFAULT_BASELINE_MODE = "prompt_json"
BOOTSTRAP_VERSION = "bootstrap/v2"  # v1 drew instance indices, so CI digits differ

ACC_METRICS = ("answer", "exec")


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 2000
    level: float = 0.95
    seed: int = 0

    def __post_init__(self):
        if self.resamples < 1:
            raise ConfigError(f"bootstrap resamples must be >= 1, got {self.resamples}")
        if not 0.0 < self.level < 1.0:
            raise ConfigError(f"bootstrap level must be in (0, 1), got {self.level}")


@dataclass(frozen=True)
class BootstrapCI:
    low: float
    high: float
    level: float
    resamples: int
    seed: int


@dataclass(frozen=True)
class ModeAggregate:
    """Counting summary of one (backend, model, task, mode) cell.

    task is a family name, or "all" for the cross-family rollup. n counts
    scored records only; generation failures are tallied in n_failed and
    excluded from every denominator.
    """

    backend_label: str
    model_id: str
    task: str
    mode: str
    n: int
    n_failed: int
    valid_count: int
    answer_count: int
    exec_count: int
    trace_n: int
    trace_count: int
    wrong_valid_count: int
    mean_latency_ms: float
    mean_completion_tokens: float | None
    mean_structural_overhead: float | None
    latency_note: str | None = None

    @property
    def schema_validity(self) -> Fraction:
        return Fraction(self.valid_count, self.n)

    @property
    def answer_accuracy(self) -> Fraction:
        return Fraction(self.answer_count, self.n)

    @property
    def exec_accuracy(self) -> Fraction:
        return Fraction(self.exec_count, self.n)

    @property
    def trace_accuracy(self) -> Fraction | None:
        if self.trace_n == 0:
            return None
        return Fraction(self.trace_count, self.trace_n)

    @property
    def wrong_valid_rate(self) -> Fraction:
        return Fraction(self.wrong_valid_count, self.n)


def pts(rate: Fraction | float) -> float:
    """Rate -> percentage points rounded to one decimal."""
    if isinstance(rate, Fraction):
        return float(round(rate * 1000)) / 10.0
    return round(rate * 100.0, 1)


def is_scored(record) -> bool:
    return record.error_class != GENERATION_FAILED


def aggregate(records: Sequence, task: str | None = None) -> ModeAggregate:
    """Aggregate records that share (backend, model, mode).

    Records may span several families; the task label then becomes "all"
    unless given explicitly.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    keys = {(r.backend_label, r.model_id, r.mode) for r in records}
    if len(keys) != 1:
        raise ValueError(f"records mix backend/model/mode cells: {sorted(keys)!r}")
    backend_label, model_id, mode = keys.pop()
    if task is None:
        families = {r.family for r in records}
        task = families.pop() if len(families) == 1 else "all"

    scored = [r for r in records if is_scored(r)]
    n_failed = len(records) - len(scored)
    if not scored:
        raise ValueError("no scored records to aggregate (all generation_failed)")

    valid = sum(1 for r in scored if r.schema_valid)
    answer = sum(1 for r in scored if r.answer_correct)
    exec_ok = sum(1 for r in scored if r.exec_correct)
    wrong_valid = sum(1 for r in scored if r.schema_valid and not r.exec_correct)
    traced = [r for r in scored if r.trace_correct is not None]
    tokens = [r.completion_tokens for r in scored if r.completion_tokens is not None]
    overheads = [r.structural_overhead for r in scored if r.structural_overhead is not None]
    notes = sorted({r.latency_annotation for r in scored if r.latency_annotation})
    latency_note = " ".join(notes) if notes else None

    return ModeAggregate(
        backend_label=backend_label,
        model_id=model_id,
        task=task,
        mode=mode,
        n=len(scored),
        n_failed=n_failed,
        valid_count=valid,
        answer_count=answer,
        exec_count=exec_ok,
        trace_n=len(traced),
        trace_count=sum(1 for r in traced if r.trace_correct),
        wrong_valid_count=wrong_valid,
        mean_latency_ms=float(np.mean([r.latency_ms for r in scored])),
        mean_completion_tokens=float(np.mean(tokens)) if tokens else None,
        mean_structural_overhead=float(np.mean(overheads)) if overheads else None,
        latency_note=latency_note,
    )


# ---------------------------------------------------------------------------
# Constraint tax
# ---------------------------------------------------------------------------

def constraint_tax(acc_baseline: Fraction | float, acc_constrained: Fraction | float):
    """Accuracy lost to the constrained interface, clipped at zero."""
    delta = acc_baseline - acc_constrained
    return max(delta, type(delta)(0))


def normalized_tax(acc_baseline: float, acc_constrained: float,
                   epsilon: float = DEFAULT_EPSILON) -> float:
    """Tax as a share of baseline accuracy, epsilon-guarded so a zero
    baseline stays finite."""
    tax = float(constraint_tax(acc_baseline, acc_constrained))
    return tax / max(epsilon, float(acc_baseline))


# ---------------------------------------------------------------------------
# Paired bootstrap
# ---------------------------------------------------------------------------

def _percentile_ci(samples: np.ndarray, cfg: BootstrapConfig, seed: int) -> BootstrapCI:
    alpha = (1.0 - cfg.level) / 2.0
    low, high = np.quantile(samples, [alpha, 1.0 - alpha])
    return BootstrapCI(low=float(low), high=float(high), level=cfg.level,
                       resamples=cfg.resamples, seed=seed)


def bootstrap_rate_ci(indicators: Sequence[int] | np.ndarray, cfg: BootstrapConfig,
                      *seed_parts: object) -> BootstrapCI:
    """Percentile CI for a single success rate (resampled means)."""
    data = np.asarray(indicators, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty indicator set")
    seed = derive_seed(cfg.seed, "rate", *seed_parts)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=(cfg.resamples, data.size))
    return _percentile_ci(data[idx].mean(axis=1), cfg, seed)


@lru_cache(maxsize=64)
def _count_ci(outcomes: tuple, cfg: BootstrapConfig, seed: int) -> BootstrapCI:
    """Percentile CI for the mean of a sample holding value v c times for each
    (v, c) in outcomes: a resample's counts are Multinomial(n, c/n). Cached, so
    a mode pair's per-metric comparisons share its validity and wrong-valid CIs."""
    values, counts = map(np.array, zip(*outcomes))
    n = int(counts.sum())
    draws = np.random.default_rng(seed).multinomial(n, counts / n, size=cfg.resamples)
    return _percentile_ci(draws @ values / n, cfg, seed)


def _paired_delta_ci(baseline: np.ndarray, constrained: np.ndarray,
                     cfg: BootstrapConfig, *seed_parts: object) -> BootstrapCI:
    """Percentile CI for mean(constrained) - mean(baseline) with paired
    instance draws: the mean of the per-instance deltas in {-1, 0, +1}."""
    distinct, counts = np.unique(constrained - baseline, return_counts=True)
    return _count_ci(tuple(zip(distinct.tolist(), counts.tolist())), cfg,
                     derive_seed(cfg.seed, "delta", *seed_parts))


@dataclass(frozen=True)
class PairedComparison:
    backend_label: str
    model_id: str
    task: str
    baseline_mode: str
    mode: str
    acc_metric: str  # answer | exec
    n: int
    acc_baseline: Fraction
    acc_constrained: Fraction
    signed_delta: Fraction  # constrained - baseline, unclipped
    tax: Fraction
    tax_norm: float
    epsilon: float
    validity_delta: Fraction
    wrong_valid_delta: Fraction
    acc_ci: BootstrapCI
    validity_ci: BootstrapCI
    wrong_valid_ci: BootstrapCI


_INDICATORS = {
    "answer": lambda r: r.answer_correct,
    "exec": lambda r: r.exec_correct,
    "validity": lambda r: r.schema_valid,
    "wrong_valid": lambda r: r.schema_valid and not r.exec_correct,
}


def paired_comparison(baseline_records: Iterable, constrained_records: Iterable,
                      acc_metric: str = "answer",
                      cfg: BootstrapConfig | None = None,
                      epsilon: float = DEFAULT_EPSILON) -> PairedComparison:
    """Compare two modes over the identical instance set.

    Joins on instance id (a mismatch is a PairingError naming the missing
    ids, as are a duplicated instance and an arm with no scored record),
    computes exact point deltas, and attaches percentile-bootstrap CIs for
    the accuracy, validity, and wrong-valid deltas.
    """
    if acc_metric not in ACC_METRICS:
        raise ValueError(f"unknown accuracy metric: {acc_metric!r}")
    cfg = cfg or BootstrapConfig()

    def by_id(records: Iterable, arm: str) -> dict:
        out: dict = {}
        for r in records:
            if not is_scored(r):
                continue
            if r.instance_id in out:
                raise PairingError(detail=(
                    f"duplicate {arm} record for instance {r.instance_id!r}; "
                    "a cell must hold one record per instance — deduplicate "
                    "the inputs before pairing"))
            out[r.instance_id] = r
        return out

    base = by_id(baseline_records, "baseline")
    cons = by_id(constrained_records, "constrained")
    if base.keys() != cons.keys():
        missing_b = sorted(cons.keys() - base.keys())
        missing_c = sorted(base.keys() - cons.keys())
        raise PairingError(missing_b, missing_c)
    if not base:
        raise PairingError(detail="cannot compare empty record sets")
    ids = sorted(base.keys())
    n = len(ids)

    def arrays(metric: str) -> tuple[np.ndarray, np.ndarray]:
        indicator = _INDICATORS[metric]
        return (np.array([indicator(base[i]) for i in ids], dtype=np.float64),
                np.array([indicator(cons[i]) for i in ids], dtype=np.float64))

    (b_acc, c_acc), (b_val, c_val), (b_wv, c_wv) = map(
        arrays, (acc_metric, "validity", "wrong_valid"))
    acc_b, acc_c = Fraction(int(b_acc.sum()), n), Fraction(int(c_acc.sum()), n)

    sample = base[ids[0]]
    pair = (sample.backend_label, sample.model_id, sample.mode, cons[ids[0]].mode)
    tax = constraint_tax(acc_b, acc_c)
    return PairedComparison(
        backend_label=sample.backend_label,
        model_id=sample.model_id,
        task=_task_label(base.values()),
        baseline_mode=sample.mode,
        mode=cons[ids[0]].mode,
        acc_metric=acc_metric,
        n=n,
        acc_baseline=acc_b,
        acc_constrained=acc_c,
        signed_delta=acc_c - acc_b,
        tax=tax,
        tax_norm=normalized_tax(float(acc_b), float(acc_c), epsilon),
        epsilon=epsilon,
        validity_delta=Fraction(int(c_val.sum()) - int(b_val.sum()), n),
        wrong_valid_delta=Fraction(int(c_wv.sum()) - int(b_wv.sum()), n),
        acc_ci=_paired_delta_ci(b_acc, c_acc, cfg, *pair, acc_metric, "acc"),
        validity_ci=_paired_delta_ci(b_val, c_val, cfg, *pair, "validity"),
        wrong_valid_ci=_paired_delta_ci(b_wv, c_wv, cfg, *pair, "wrong_valid"),
    )


def _task_label(records: Iterable) -> str:
    families = {r.family for r in records}
    return families.pop() if len(families) == 1 else "all"


def structural_overhead(completion: str, payload: str | None) -> float | None:
    """Share of completion characters that are not semantic payload.

    1 - len(payload)/len(completion); None when the completion is empty or
    nothing semantic was extractable.
    """
    if not completion or payload is None:
        return None
    ratio = len(payload) / len(completion)
    return max(0.0, 1.0 - ratio)
