"""Exception types shared across the harness."""

from __future__ import annotations

from typing import Sequence


class ConfigError(ValueError):
    """Raised for invalid configuration: unknown family or mode, a schema
    outside the supported keyword subset, or a constrained request with no
    transport mapping for its constraint kind."""


class PairingError(ValueError):
    """Raised when two arms cannot be paired instance by instance: their
    instance-id sets differ (the missing ids are kept), an arm holds an
    instance twice, or no instance is left once generation failures are
    dropped (both given as detail)."""

    def __init__(self, missing_in_baseline: Sequence[str] = (),
                 missing_in_constrained: Sequence[str] = (), detail: str | None = None):
        self.missing_in_baseline = list(missing_in_baseline)
        self.missing_in_constrained = list(missing_in_constrained)
        super().__init__(detail or "instance sets differ; " + "; ".join(
            f"missing in {arm}: {', '.join(ids[:5])}" + (" ..." if len(ids) > 5 else "")
            for arm, ids in (("baseline", self.missing_in_baseline),
                             ("constrained", self.missing_in_constrained)) if ids))


class GenerationFailed(RuntimeError):
    """Raised by the endpoint backend after bounded retries are exhausted.

    The harness converts this into a generation_failed record rather than
    aborting the run.
    """
