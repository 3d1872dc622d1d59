"""Aggregation, constraint-tax formulas, and paired bootstrap comparisons.

Rates are kept as exact rational counts (fractions.Fraction) and only
rounded at display time, to 0.1 percentage point. Uncertainty comes from
a seeded percentile bootstrap over paired per-instance indicator draws,
so confidence intervals are reproducible bit-for-bit for a given seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

import numpy as np

from .checkers import GENERATION_FAILED
from .errors import PairingError
from .rng import derive_seed

DEFAULT_EPSILON = 1e-6
DEFAULT_BASELINE_MODE = "prompt_json"

ACC_METRICS = ("answer", "exec")


@dataclass(frozen=True)
class BootstrapConfig:
    resamples: int = 2000
    level: float = 0.95
    seed: int = 0


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

def _quantile_bounds(samples: np.ndarray, level: float) -> tuple[float, float]:
    alpha = (1.0 - level) / 2.0
    low, high = np.quantile(samples, [alpha, 1.0 - alpha])
    return float(low), float(high)


def bootstrap_rate_ci(indicators: Sequence[int] | np.ndarray, cfg: BootstrapConfig,
                      *seed_parts: object) -> BootstrapCI:
    """Percentile CI for a single success rate (resampled means)."""
    data = np.asarray(indicators, dtype=np.float64)
    if data.size == 0:
        raise ValueError("cannot bootstrap an empty indicator set")
    seed = derive_seed(cfg.seed, "rate", *seed_parts)
    rng = np.random.default_rng(seed)
    idx = rng.integers(0, data.size, size=(cfg.resamples, data.size))
    means = data[idx].mean(axis=1)
    low, high = _quantile_bounds(means, cfg.level)
    return BootstrapCI(low=low, high=high, level=cfg.level,
                       resamples=cfg.resamples, seed=seed)


def _paired_delta_ci(baseline: np.ndarray, constrained: np.ndarray,
                     cfg: BootstrapConfig, *seed_parts: object) -> BootstrapCI:
    """Percentile CI for mean(constrained) - mean(baseline) with paired
    instance draws (both arms resampled on the same indices)."""
    seed = derive_seed(cfg.seed, "delta", *seed_parts)
    rng = np.random.default_rng(seed)
    n = baseline.size
    deltas = np.empty(cfg.resamples, dtype=np.float64)
    # chunk so resamples * n never allocates more than ~16M cells
    chunk = max(1, min(cfg.resamples, (1 << 24) // max(1, n)))
    start = 0
    while start < cfg.resamples:
        stop = min(cfg.resamples, start + chunk)
        idx = rng.integers(0, n, size=(stop - start, n))
        deltas[start:stop] = constrained[idx].mean(axis=1) - baseline[idx].mean(axis=1)
        start = stop
    low, high = _quantile_bounds(deltas, cfg.level)
    return BootstrapCI(low=low, high=high, level=cfg.level,
                       resamples=cfg.resamples, seed=seed)


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


def _indicator(record, metric: str) -> int:
    if metric == "answer":
        return 1 if record.answer_correct else 0
    if metric == "exec":
        return 1 if record.exec_correct else 0
    raise ValueError(f"unknown accuracy metric: {metric!r}")


def paired_comparison(baseline_records: Iterable, constrained_records: Iterable,
                      acc_metric: str = "answer",
                      cfg: BootstrapConfig | None = None,
                      epsilon: float = DEFAULT_EPSILON) -> PairedComparison:
    """Compare two modes over the identical instance set.

    Joins on instance id (a mismatch is a PairingError naming the missing
    ids), computes exact point deltas, and attaches percentile-bootstrap
    CIs for the accuracy, validity, and wrong-valid deltas.
    """
    cfg = cfg or BootstrapConfig()

    def by_id(records: Iterable, arm: str) -> dict:
        out: dict = {}
        for r in records:
            if not is_scored(r):
                continue
            if r.instance_id in out:
                raise ValueError(
                    f"duplicate {arm} record for instance {r.instance_id!r}; "
                    "a cell must hold one record per instance — deduplicate "
                    "the inputs before pairing")
            out[r.instance_id] = r
        return out

    base = by_id(baseline_records, "baseline")
    cons = by_id(constrained_records, "constrained")
    if base.keys() != cons.keys():
        missing_b = sorted(cons.keys() - base.keys())
        missing_c = sorted(base.keys() - cons.keys())
        raise PairingError(missing_b, missing_c)
    if not base:
        raise ValueError("cannot compare empty record sets")
    ids = sorted(base.keys())
    n = len(ids)

    def arrays(metric: str) -> tuple[np.ndarray, np.ndarray, Fraction, Fraction]:
        b = np.array([_indicator(base[i], metric) for i in ids], dtype=np.float64)
        c = np.array([_indicator(cons[i], metric) for i in ids], dtype=np.float64)
        return b, c, Fraction(int(b.sum()), n), Fraction(int(c.sum()), n)

    b_acc, c_acc, acc_b, acc_c = arrays(acc_metric)
    b_val = np.array([1.0 if base[i].schema_valid else 0.0 for i in ids])
    c_val = np.array([1.0 if cons[i].schema_valid else 0.0 for i in ids])
    b_wv = np.array([1.0 if base[i].schema_valid and not base[i].exec_correct else 0.0
                     for i in ids])
    c_wv = np.array([1.0 if cons[i].schema_valid and not cons[i].exec_correct else 0.0
                     for i in ids])

    sample = base[ids[0]]
    key = (sample.backend_label, sample.model_id, sample.mode, cons[ids[0]].mode, acc_metric)
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
        acc_ci=_paired_delta_ci(b_acc, c_acc, cfg, *key, "acc"),
        validity_ci=_paired_delta_ci(b_val, c_val, cfg, *key, "validity"),
        wrong_valid_ci=_paired_delta_ci(b_wv, c_wv, cfg, *key, "wrong_valid"),
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
