"""ctax: measure what structured-output constraints cost in task accuracy.

Deterministic task suites with executable ground truth, nine output-format
modes from freeform prose to strict typed schemas, scripted and HTTP
backends, and a paired scoring pipeline that separates format validity
from semantic correctness.
"""

from __future__ import annotations

__version__ = "0.1.0"

from .backend import (
    BackendConfig,
    FaultProfile,
    GenerationResult,
    SamplingConfig,
)
from .checkers import ERROR_CLASSES, CheckResult, calendar_exec_ok, score_completion
from .errors import ConfigError, PairingError
from .harness import (
    RunConfig,
    ScoreResult,
    SuiteConfig,
    config_from_dict,
    derive_delayed,
    run,
    score,
)
from .metrics import (
    BootstrapConfig,
    ModeAggregate,
    PairedComparison,
    aggregate,
    bootstrap_rate_ci,
    constraint_tax,
    normalized_tax,
    paired_comparison,
    structural_overhead,
)
from .modes import (
    MODE_CATALOG,
    MODE_NAMES,
    build_delayed_stage2,
    build_prompt,
    parse_for_mode,
)
from .records import RunRecord, canonical_diff, read_records, write_records
from .report import render_report
from .taskgen import FAMILIES, TaskInstance, generate_suite, read_suite, write_suite
from .validation import (
    ParseOutcome,
    Violation,
    canonical_serialize,
    extract_json,
    normalize_answer,
    validate_regex,
    validate_schema,
)

__all__ = [
    "__version__",
    "BackendConfig", "FaultProfile", "GenerationResult", "SamplingConfig",
    "ERROR_CLASSES", "CheckResult", "calendar_exec_ok", "score_completion",
    "ConfigError", "PairingError",
    "RunConfig", "ScoreResult", "SuiteConfig", "config_from_dict",
    "derive_delayed", "run", "score",
    "BootstrapConfig", "ModeAggregate", "PairedComparison", "aggregate",
    "bootstrap_rate_ci", "constraint_tax", "normalized_tax",
    "paired_comparison", "structural_overhead",
    "MODE_CATALOG", "MODE_NAMES", "build_delayed_stage2", "build_prompt",
    "parse_for_mode",
    "RunRecord", "canonical_diff", "read_records", "write_records",
    "render_report",
    "FAMILIES", "TaskInstance", "generate_suite", "read_suite", "write_suite",
    "ParseOutcome", "Violation", "canonical_serialize", "extract_json",
    "normalize_answer", "validate_regex", "validate_schema",
]
