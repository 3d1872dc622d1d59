"""Aggregation, constraint-tax formulas, and paired bootstrap comparisons.

Rates are kept as exact rational counts (fractions.Fraction) and only
rounded at display time, to 0.1 percentage point. A comparison works from
counts: each flag column's (k-, k0, k+) is read off the pairs' joint codes,
and its exact percentile-bootstrap CI (BOOTSTRAP_VERSION) computed from them,
as is a single rate's from its count of 1s (no CSV carries it). A cell's
instance -> flag code map (Cell.codes) is built once and serves every
comparison it takes part in; a mode pair's answer and exec comparisons
share one validity and one wrong-valid CI.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import accumulate, compress, repeat
from math import fsum, inf
from operator import itemgetter, lshift, mul, or_, truediv
from typing import Iterable, Mapping, Sequence

from .checkers import GENERATION_FAILED
from .errors import ConfigError, PairingError
from .records import _TEMPLATE, field_fault

DEFAULT_EPSILON = 1e-6
DEFAULT_BASELINE_MODE = "prompt_json"
BOOTSTRAP_VERSION = "bootstrap/v3"  # v1 and v2 sampled resamples, so CI digits differ

ACC_METRICS = ("answer", "exec")


@dataclass(frozen=True)
class BootstrapConfig:
    # resamples and seed are inert, as the CI is exact; they still decode and
    # validate, so a run config keeps its digest
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
    if isinstance(rate, Fraction):  # round(rate * 1000) / 10, in integers
        tenths, rest = divmod(rate.numerator * 1000, rate.denominator)
        if 2 * rest > rate.denominator or (2 * rest == rate.denominator and tenths & 1):
            tenths += 1  # half to even, as round() does
        return tenths / 10.0
    return round(rate * 100.0, 1)


FLAG_COLUMNS = ("answer", "exec", "validity", "wrong_valid")  # bit j of a Cell.flags code
# flag code by verdict, nested [answer][exec][valid]: three lookups cost less than a key tuple
_FLAG_NEST = {answer: {exec_ok: {valid: answer | exec_ok << 1 | valid << 2 | (valid > exec_ok) << 3
                                 for valid in (False, True)} for exec_ok in (False, True)}
              for answer in (False, True)}


@dataclass(frozen=True, eq=False)  # eq=False: a cell is its records' columns, not a value
class Cell:
    """The records of one (backend, model, mode) cell as columns, grown a
    record at a time by add, and complete before its first pairing (which
    builds codes and keeps them). ids, flags and the scored columns follow
    the scored records in the order added; a cell joined from others
    (Cell.join) holds theirs end to end. A flag code sets bit j when
    FLAG_COLUMNS[j] holds. A cell of no records has no labels."""

    backend_label: str | None
    model_id: str | None
    mode: str | None
    task: str  # the records' one family, or "all" when they span several
    ids: list[str] = field(default_factory=list)  # the scored records' instance ids
    failed: list[str] = field(default_factory=list)  # the generation_failed records' ids
    flags: list[int] = field(default_factory=list)
    traces: list[bool] = field(default_factory=list)  # the trace verdicts, None left out
    latencies: list[float] = field(default_factory=list)
    tokens: list[int] = field(default_factory=list)  # completion token counts, None left out
    overheads: list[float] = field(default_factory=list)  # None left out
    notes: set[str] = field(default_factory=set)  # latency annotations, empty ones left out
    # of every record, failed ones too: what score reports besides the aggregate
    rules: set[str] = field(default_factory=set)  # extraction rules
    error_classes: set[str] = field(default_factory=set)
    digests: set[str | None] = field(default_factory=set)  # config digests
    classes: Counter = field(default_factory=Counter)  # calendar_failure_class counts
    wrong: Counter = field(default_factory=Counter)  # the classified records' wrong fields

    @classmethod
    def of(cls, records: Iterable) -> Cell:
        """The cell of records that share (backend, model, mode). A verdict
        that is not a bool is a TypeError naming it, as on a records line
        read."""
        docs = [vars(r) for r in records]
        keys = {(d["backend_label"], d["model_id"], d["mode"]) for d in docs}
        if len(keys) > 1:
            raise ValueError(f"records mix backend/model/mode cells: {sorted(keys)!r}")
        families = {d["family"] for d in docs}
        cell = cls(*(keys.pop() if keys else (None, None, None)),
                   task=families.pop() if len(families) == 1 else "all")
        for doc in docs:
            if (fault := field_fault(doc)) is not None:
                raise TypeError(fault)
            cell.add(doc)
        return cell

    def add(self, doc: Mapping) -> None:
        """Fold one record into the columns: a records line's object, or a
        record's fields (vars), whose verdicts are bools. An absent field
        holds RunRecord's default. A value no set or count can hold (a list
        where a string goes) is a TypeError."""
        try:
            error_class, rule, answer, exec_ok, valid, trace = _ALWAYS_READ(doc)
        except KeyError:  # a line without a key every line ctax writes holds
            return self.add({**_TEMPLATE, **doc})
        get = doc.get
        self.error_classes.add(error_class)
        self.rules.add(rule)
        self.digests.add(get("config_digest"))
        if (klass := get("calendar_failure_class")) is not None:
            self.classes[klass] += 1
            if wrong := get("calendar_wrong_fields"):
                for name in set(wrong):
                    self.wrong[name] += 1
        if error_class == GENERATION_FAILED:
            self.failed.append(doc["instance_id"])
            return
        self.ids.append(doc["instance_id"])
        self.flags.append(_FLAG_NEST[answer][exec_ok][valid])
        if trace is not None:
            self.traces.append(trace)
        self.latencies.append(get("latency_ms", 0.0))
        if (tokens := get("completion_tokens")) is not None:
            self.tokens.append(tokens)
        if (overhead := get("structural_overhead")) is not None:
            self.overheads.append(overhead)
        if note := get("latency_annotation"):
            self.notes.add(note)

    @classmethod
    def join(cls, cells: Sequence[Cell]) -> Cell:
        """The cell of the given cells' records together, labelled as the first
        and with the task "all": each column is theirs end to end."""
        first = cells[0]
        joined = cls(first.backend_label, first.model_id, first.mode, "all")
        for cell in cells:
            for name in _COLUMNS:
                getattr(joined, name).extend(getattr(cell, name))
            for name in _SETS:
                getattr(joined, name).update(getattr(cell, name))
        return joined

    @cached_property
    def codes(self) -> dict[str, int]:
        """instance id -> flag code of each scored record. Built at the cell's
        first pairing and kept with it, so one baseline cell serves every
        constrained mode of its task."""
        return dict(zip(self.ids, self.flags))


# What Cell.add reads of every record by one C call: keys each records line
# carries (records._ALWAYS_WRITTEN). A line without one takes the slow path,
# so a field a line may leave out (latency_ms) is read with its default.
_ALWAYS_READ = itemgetter("error_class", "extraction_rule", "answer_correct", "exec_correct",
                          "schema_valid", "trace_correct")
_COLUMNS = ("ids", "failed", "flags", "traces", "latencies", "tokens", "overheads")
_SETS = ("notes", "rules", "error_classes", "digests")


def _cell(records: Iterable | Cell) -> Cell:
    return records if isinstance(records, Cell) else Cell.of(records)


def aggregate(records: Iterable | Cell, task: str | None = None) -> ModeAggregate:
    """Aggregate a cell, or the records of one (backend, model, mode).

    Records may span several families; the task label then becomes "all"
    unless given explicitly.
    """
    cell = _cell(records)
    if not cell.ids:
        raise ValueError("no scored records to aggregate (all generation_failed)"
                         if cell.failed else "cannot aggregate an empty record list")
    codes = Counter(cell.flags)
    answer, exec_ok, valid, wrong_valid = (sum(codes[code] for code in codes if code >> j & 1)
                                           for j in range(len(FLAG_COLUMNS)))
    n = len(cell.ids)
    return ModeAggregate(
        backend_label=cell.backend_label,
        model_id=cell.model_id,
        task=cell.task if task is None else task,
        mode=cell.mode,
        n=n,
        n_failed=len(cell.failed),
        valid_count=valid,
        answer_count=answer,
        exec_count=exec_ok,
        trace_n=len(cell.traces),
        trace_count=sum(cell.traces),
        wrong_valid_count=wrong_valid,
        mean_latency_ms=fsum(cell.latencies) / n,
        mean_completion_tokens=fsum(cell.tokens) / len(cell.tokens) if cell.tokens else None,
        mean_structural_overhead=(fsum(cell.overheads) / len(cell.overheads)
                                  if cell.overheads else None),
        latency_note=" ".join(sorted(cell.notes)) if cell.notes else None,
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

_TIE_TOLERANCE = 1e-9  # a CDF this close to a quantile reaches it, whatever the rounding


def _ratios(a: float, b: float, c: float, n: int) -> list[float]:
    """t(k+1)/t(k) for k < n, t(k) the x^k coefficient of (a + bx + cx^2)^n,
    a, b > 0. By p f' = n p' f for f = p^n, a(k+1)t(k+1) = (n-k)b t(k) +
    (2n-k+1)c t(k-1), where no term is negative for k < n."""
    ratios = [inf]  # t(0)/t(-1), as t(-1) = 0
    for k in range(n):
        ratios.append(((n - k) * b + (2 * n - k + 1) * c / ratios[-1]) / (a * (k + 1)))
    return ratios[1:]


def _delta_law(k_down: int, k_zero: int, k_up: int) -> tuple[int, int, list[float]]:
    """(lowest, step, w): w[i] is proportional to P(K+ - K- = s) at s = lowest + step*i, for
    (K-, K0, K+) ~ Multinomial(n, k/n) with two or three of the counts non-zero."""
    n = k_down + k_zero + k_up
    kinds = [(value, k / n) for value, k in zip((-1, 0, 1), (k_down, k_zero, k_up)) if k]
    if len(kinds) == 2:  # s = n*low + (high - low)*K, K ~ Binomial(n, p_high)
        (low, p_low), (high, p_high) = kinds
        lowest, step, ratios = n * low, high - low, _ratios(p_low, p_high, 0.0, n)
    else:  # (p- + p0 x + p+ x^2)^n up from x^0 to x^n, and down from x^2n to x^n
        (_, a), (_, b), (_, c) = kinds
        lowest, step = -n, 1
        ratios = _ratios(a, b, c, n) + [1.0 / r for r in reversed(_ratios(c, b, a, n))]
    mean = (k_up - k_down - lowest) // step  # weight 1 there, never far below the mode's
    below = list(accumulate(reversed(ratios[:mean]), truediv, initial=1.0))
    return lowest, step, below[:0:-1] + list(accumulate(ratios[mean:], mul, initial=1.0))


@lru_cache(maxsize=4096)
def _exact_ci(k_down: int, k_zero: int, k_up: int, level: float) -> BootstrapCI:
    """Percentile CI, over infinitely many resamples, for the mean of k_down -1s, k_zero 0s
    and k_up +1s: the first s/n whose CDF reaches alpha/2, and the first to reach 1 - alpha/2."""
    n = k_down + k_zero + k_up
    if n in (k_down, k_zero, k_up):  # one value throughout, and so every resample's mean
        return BootstrapCI(low=(k_up - k_down) / n, high=(k_up - k_down) / n, level=level)
    lowest, step, weights = _delta_law(k_down, k_zero, k_up)
    cdf = list(accumulate(weights))
    alpha = (1.0 - level) / 2.0
    low, high = (lowest + step * bisect_left(cdf, (q - _TIE_TOLERANCE) * cdf[-1])
                 for q in (alpha, 1.0 - alpha))
    return BootstrapCI(low=low / n, high=high / n, level=level)


def bootstrap_rate_ci(indicators: Sequence[int], cfg: BootstrapConfig,
                      *labels: object) -> BootstrapCI:
    """Exact percentile CI for a single success rate, the CI of (0, n - k, k)
    for k 1s among n 0/1 indicators. Trailing labels are ignored."""
    if not len(indicators):
        raise ValueError("cannot bootstrap an empty indicator set")
    k = sum(map(bool, indicators))
    return _exact_ci(0, len(indicators) - k, k, cfg.level)


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
    # k+ (k-) of the n pairs hold a flag in the constrained arm (the baseline) only
    signed_delta: Fraction  # Δ = constrained - baseline = (k+ - k-)/n, a gain when positive
    tax: Fraction  # max(-Δ, 0), the accuracy lost to the constraint
    tax_norm: float  # against DEFAULT_EPSILON
    validity_delta: Fraction
    wrong_valid_delta: Fraction
    acc_ci: BootstrapCI
    validity_ci: BootstrapCI
    wrong_valid_ci: BootstrapCI


@lru_cache(maxsize=1)  # a mode pair's answer and exec comparisons ask for it in turn
def _pair(baseline: Cell, constrained: Cell) -> Counter:
    """Counts of the joint flag codes (baseline's << 4 | constrained's) of the
    instances scored in both: each constrained code joined to its
    instance's code in the baseline's map, so neither map is built twice."""
    for arm, cell in (("baseline", baseline), ("constrained", constrained)):
        if len(cell.codes) < len(cell.ids):
            seen: set = set()
            duplicate = next(i for i in cell.ids if i in seen or seen.add(i))
            raise PairingError(detail=(
                f"duplicate {arm} record for instance {duplicate!r}; "
                "a cell must hold one record per instance — deduplicate "
                "the inputs before pairing"))
    base_code = baseline.codes
    base_ids, cons_ids = ((cell.codes.keys() | cell.failed) if cell.failed else cell.codes.keys()
                          for cell in (baseline, constrained))
    if base_ids != cons_ids:
        raise PairingError(sorted(cons_ids - base_ids), sorted(base_ids - cons_ids))
    ids, flags = constrained.ids, constrained.flags
    if baseline.failed:  # an instance the baseline did not score is no pair
        scored = [i in base_code for i in ids]
        ids, flags = list(compress(ids, scored)), list(compress(flags, scored))
    if not ids:
        raise PairingError(detail="cannot compare empty record sets")
    return Counter(map(or_, map(lshift, map(base_code.__getitem__, ids), repeat(4)), flags))


def _counts(joint: Counter, column: str) -> tuple[tuple[int, int, int], int]:
    """((k-, k0, k+), k_b) of one flag column over the pairs joint counts: k-
    pairs hold the flag in the baseline only, k+ in the constrained arm only,
    k0 in both or neither, and k_b in the baseline."""
    arms, j = Counter(), FLAG_COLUMNS.index(column)
    for code, count in joint.items():
        arms[code >> 4 + j & 1, code >> j & 1] += count
    return (arms[1, 0], arms[0, 0] + arms[1, 1], arms[0, 1]), arms[1, 0] + arms[1, 1]


def paired_comparison(baseline: Iterable | Cell, constrained: Iterable | Cell,
                      acc_metric: str = "answer",
                      cfg: BootstrapConfig | None = None) -> PairedComparison:
    """Compare two modes over the identical instance set.

    Takes two cells, or the two arms' records. Joins on instance id: both
    arms must hold the same instances (a mismatch is a PairingError naming
    the missing ids, as are a duplicated instance and no pair left). The
    pairs are the instances scored in both arms; one that is only
    generation_failed in either arm is dropped from both, and n counts the
    pairs. Every number comes from counts: each delta and its exact CI from
    its column's (k-, k0, k+), and the accuracies from the baseline's count
    besides. The task label comes from every baseline record.
    """
    if acc_metric not in ACC_METRICS:
        raise ValueError(f"unknown accuracy metric: {acc_metric!r}")
    level = (cfg or BootstrapConfig()).level
    base_cell, cons_cell = _cell(baseline), _cell(constrained)
    joint = _pair(base_cell, cons_cell)
    n = joint.total()
    (acc, acc_base), (valid, _), (wrong_valid, _) = (
        _counts(joint, column) for column in (acc_metric, "validity", "wrong_valid"))
    acc_b, acc_c = Fraction(acc_base, n), Fraction(acc_base + acc[2] - acc[0], n)
    return PairedComparison(
        backend_label=base_cell.backend_label,
        model_id=base_cell.model_id,
        task=base_cell.task,
        baseline_mode=base_cell.mode,
        mode=cons_cell.mode,
        acc_metric=acc_metric,
        n=n,
        acc_baseline=acc_b,
        acc_constrained=acc_c,
        signed_delta=Fraction(acc[2] - acc[0], n),
        tax=constraint_tax(acc_b, acc_c),
        tax_norm=normalized_tax(float(acc_b), float(acc_c)),
        validity_delta=Fraction(valid[2] - valid[0], n),
        wrong_valid_delta=Fraction(wrong_valid[2] - wrong_valid[0], n),
        acc_ci=_exact_ci(*acc, level),
        validity_ci=_exact_ci(*valid, level),
        wrong_valid_ci=_exact_ci(*wrong_valid, level),
    )


def structural_overhead(completion: str, payload: str | None) -> float | None:
    """Share of completion characters that are not semantic payload.

    1 - len(payload)/len(completion); None when the completion is empty or
    nothing semantic was extractable.
    """
    if not completion or payload is None:
        return None
    ratio = len(payload) / len(completion)
    return max(0.0, 1.0 - ratio)
