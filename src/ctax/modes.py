"""Output-mode catalog: prompts, constraints, and delayed packaging.

A mode fixes the interface a model must answer through: free text, a
regex-constrained final line, or a JSON object under a hard schema. The
instruction templates below are data, not code; bump TEMPLATE_VERSION on
any wording change so runs remain comparable.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple

from .errors import ConfigError
from .taskgen import CALENDAR_FAMILY, FAMILIES, TOOL_NAME, TRACE_OPS, TaskInstance
from .validation import (
    PARSE_OK,
    PARSE_REGEX_MISMATCH,
    ParseOutcome,
    canonical_digest,
    canonical_serialize,
    extract_final_answer,
    extract_json,
    validate_regex,
    validate_schema,
)

TEMPLATE_VERSION = "v1"

CONSTRAINT_NONE = "none"
CONSTRAINT_REGEX = "regex"
CONSTRAINT_SCHEMA = "schema"

# Where a mode's scored answer is read: the final-answer line, the matched line, a JSON object.
CHANNEL_FREEFORM, CHANNEL_REGEX, CHANNEL_OBJECT = "freeform", "regex", "object"

DELAYED_MODE = "delayed_constraint"
DELAYED_VARIANTS = ("deterministic", "model")


@dataclass(frozen=True)
class Constraint:
    """A constraint document. Treat the schema as read-only: the memoised
    constraints below hand one dict to every caller."""

    kind: str  # none | regex | schema
    pattern: str | None = None
    schema: dict | None = None

    def digest(self) -> str | None:
        return self._digest

    @functools.cached_property
    def _digest(self) -> str | None:  # cached in __dict__, outside the compared fields
        if self.kind == CONSTRAINT_SCHEMA and self.schema is not None:
            return canonical_digest(self.schema)
        if self.kind == CONSTRAINT_REGEX and self.pattern is not None:
            return canonical_digest(self.pattern)
        return None


NO_CONSTRAINT = Constraint(kind=CONSTRAINT_NONE)


class PromptBundle(NamedTuple):
    """One prompt and the instance it asks about; the instance owns the
    family, and the run's manifest stamps TEMPLATE_VERSION."""

    instance: TaskInstance
    mode: str
    stage: str  # single | stage1 | stage2
    user_text: str
    constraint: Constraint  # transported constraint (kind none if unenforced)

    @property
    def instance_id(self) -> str:
        return self.instance.id


# ---------------------------------------------------------------------------
# Answer-shape constraints per family
# ---------------------------------------------------------------------------

def answer_regex(family: str) -> str:
    """Fully anchored pattern accepting every ground-truth answer of the
    family (and as little else as practical)."""
    if family == "arithmetic_two_step":
        return r"^-?\d+$"
    if family in ("symbolic_string", "object_tracking"):
        return r"^[a-z]+$"
    if family == "boolean_logic":
        return r"^(true|false)$"
    if family == CALENDAR_FAMILY:
        return r'^\{"arguments":\{.+\},"tool":"create_calendar_event"\}$'
    raise ConfigError(f"unknown task family: {family!r}")


def calendar_schema() -> dict:
    """Hard schema for the calendar tool call.

    title is required so the object is a complete event, but the
    executable checker never scores it.
    """
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["tool", "arguments"],
        "properties": {
            "tool": {"const": TOOL_NAME},
            "arguments": {
                "type": "object",
                "additionalProperties": False,
                "required": ["title", "date", "start_time", "duration_minutes",
                             "attendee", "topic"],
                "properties": {
                    "title": {"type": "string"},
                    "date": {"type": "string", "pattern": r"^\d{4}-\d{2}-\d{2}$"},
                    "start_time": {"type": "string", "pattern": r"^\d{2}:\d{2}$"},
                    "duration_minutes": {"type": "integer", "minimum": 1},
                    "attendee": {"type": "string"},
                    "topic": {"type": "string"},
                },
            },
        },
    }


def answer_schema(family: str) -> dict:
    """Minimal schema capturing the family's final answer: a bare
    {"answer": string} wrapper, except the tool-call family where the
    answer IS the calendar object."""
    if family == CALENDAR_FAMILY:
        return calendar_schema()
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["answer"],
        "properties": {"answer": {"type": "string"}},
    }


def rationale_answer_schema(family: str) -> dict:
    """answer_schema plus a required free-text rationale field, listed first."""
    schema = answer_schema(family)
    schema["required"] = ["rationale", *schema["required"]]
    schema["properties"] = {"rationale": {"type": "string"}, **schema["properties"]}
    return schema


def typed_trace_schema(family: str) -> dict:
    """Typed reasoning trace: steps restricted to the family's op
    vocabulary, plus the final answer."""
    if family not in FAMILIES:
        raise ConfigError(f"unknown task family: {family!r}")
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["steps", "answer"],
        "properties": {
            "steps": {
                "type": "array",
                "items": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["op", "output"],
                    "properties": {
                        "op": {"enum": list(TRACE_OPS[family])},
                        "output": {"type": "string"},
                    },
                },
            },
            "answer": {"type": "string"},
        },
    }


# ---------------------------------------------------------------------------
# The mode catalog: one row per mode, and everything derived from it
# ---------------------------------------------------------------------------

_FINAL_LINE = 'End with one final line of exactly this form:\nFinal answer: <answer>'
_STEP_BY_STEP = f"Think through the problem step by step and explain your reasoning.\n{_FINAL_LINE}"


@dataclass(frozen=True)
class ModeDescriptor:
    """A mode's contract, stated once."""

    name: str
    channel: str  # freeform | regex | object
    schema: Callable[[str], dict] | None  # the object channel's schema, built per family
    enforced: bool  # the scoring constraint is sent to the backend
    instruction: str  # follows the problem text; "{ops}" lists the family's trace ops


MODE_CATALOG: tuple[ModeDescriptor, ...] = (
    ModeDescriptor("freeform", CHANNEL_FREEFORM, None, False, _STEP_BY_STEP),
    ModeDescriptor("freeform_direct", CHANNEL_FREEFORM, None, False,
                   "Reply with only the final answer on a single line. Do not explain."),
    ModeDescriptor("freeform_brief_reasoning", CHANNEL_FREEFORM, None, False,
                   f"Use at most two short sentences of reasoning.\n{_FINAL_LINE}"),
    ModeDescriptor("prompt_json", CHANNEL_OBJECT, answer_schema, False,
                   'Respond with only a JSON object {"answer": "..."} and nothing else.'),
    ModeDescriptor("final_only_regex", CHANNEL_REGEX, None, True,
                   "Reply with only the final answer and nothing else."),
    ModeDescriptor("answer_only_schema", CHANNEL_OBJECT, answer_schema, True,
                   'Respond with only a JSON object of the form {"answer": "..."}. '
                   "It must satisfy the required schema."),
    ModeDescriptor("rationale_answer_schema", CHANNEL_OBJECT, rationale_answer_schema, True,
                   'Respond with only a JSON object of the form '
                   '{"rationale": "...", "answer": "..."}. Keep the rationale brief.'),
    ModeDescriptor("typed_trace_schema", CHANNEL_OBJECT, typed_trace_schema, True,
                   'Respond with only a JSON object of the form '
                   '{"steps": [{"op": "...", "output": "..."}, ...], "answer": "..."} '
                   "listing every reasoning step. Allowed op values: {ops}."),
    # stage 1 reasons freely; stage 2, which packages the answer, is enforced
    ModeDescriptor(DELAYED_MODE, CHANNEL_OBJECT, answer_schema, False, _STEP_BY_STEP),
)

_BY_NAME = {m.name: m for m in MODE_CATALOG}
MODE_NAMES = tuple(_BY_NAME)
FREEFORM_MODES = frozenset(m.name for m in MODE_CATALOG if m.channel == CHANNEL_FREEFORM)
# Modes whose scored output is a JSON object (delayed counts: its scored
# artifact is the packaged object).
OBJECT_MODES = frozenset(m.name for m in MODE_CATALOG if m.channel == CHANNEL_OBJECT)
(REGEX_MODE,) = (m.name for m in MODE_CATALOG if m.channel == CHANNEL_REGEX)


def get_mode(name: str) -> ModeDescriptor:
    descriptor = _BY_NAME.get(name)
    if descriptor is None:
        raise ConfigError(f"unknown mode: {name!r}")
    return descriptor


@functools.cache
def scoring_constraint(mode: str, family: str) -> Constraint:
    """Constraint the scorer validates against: the answer regex of the
    regex channel, else the row's object schema (prompt_json and the delayed
    mode score it unenforced), else none. Memoised: one object per (mode,
    family), so its schema is built and its digest hashed once per process.
    The schema builders stay unmemoised, because rationale_answer_schema
    edits the dict that answer_schema returns.
    """
    descriptor = get_mode(mode)
    if descriptor.channel == CHANNEL_REGEX:
        return Constraint(kind=CONSTRAINT_REGEX, pattern=answer_regex(family))
    if descriptor.schema is None:
        return NO_CONSTRAINT
    return Constraint(kind=CONSTRAINT_SCHEMA, schema=descriptor.schema(family))


@functools.cache
def transported_constraint(mode: str, family: str, stage: str = "single") -> Constraint:
    """Constraint actually sent to the backend for decoding (memoised like
    scoring_constraint): the scoring constraint of an enforced mode or of
    the delayed mode's stage 2, else none."""
    if get_mode(mode).enforced or (mode == DELAYED_MODE and stage == "stage2"):
        return scoring_constraint(mode, family)
    return NO_CONSTRAINT


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

# Header/footer used by the calendar tool-call interface, for single-stage
# prompts whose expected output is the tool-call object itself (a typed
# trace carries it as its string answer instead).
_CALENDAR_HEADER = "You are a calendar assistant. Return only JSON."
_CALENDAR_FOOTER = f'Use tool name "{TOOL_NAME}".'

_STAGE2_INSTRUCTION = ("A draft solution follows between the markers.\n---\n{stage1}\n---\n"
                       "Package its final answer as a JSON object satisfying the required schema. "
                       "Respond with only the JSON object.")


def _instruction_block(descriptor: ModeDescriptor, family: str, stage: str) -> tuple[str, str]:
    """(prefix, suffix) wrapped around the untouched problem text."""
    if (family == CALENDAR_FAMILY and stage == "single"
            and descriptor.schema in (answer_schema, rationale_answer_schema)):
        suffix = _CALENDAR_FOOTER
        if descriptor.schema is rationale_answer_schema:
            suffix += ' Include a brief "rationale" field in the JSON object.'
        return _CALENDAR_HEADER, suffix
    text = descriptor.instruction
    if descriptor.schema is typed_trace_schema:
        # str.format would trip over the literal JSON braces in the template
        text = text.replace("{ops}", ", ".join(TRACE_OPS[family]))
    return "", text


def build_prompt(instance: TaskInstance, mode: str) -> PromptBundle:
    """Single-completion bundle for a mode (stage 1 for delayed_constraint;
    stage 2 is built from the stage-1 completion by build_delayed_stage2).

    Prompt construction never alters problem_text: instructions are pure
    prefix/suffix blocks.
    """
    stage = "stage1" if mode == DELAYED_MODE else "single"
    prefix, suffix = _instruction_block(get_mode(mode), instance.family, stage)
    return _bundle(instance, mode, stage, prefix, suffix)


def _bundle(instance: TaskInstance, mode: str, stage: str, prefix: str,
            suffix: str) -> PromptBundle:
    """The prompt of (instance, mode, stage): prefix, problem text and suffix
    joined by blank lines (an empty block left out), carrying the
    constraint transported for that stage."""
    parts = [p for p in (prefix, instance.problem_text, suffix) if p]
    return PromptBundle(instance, mode, stage, "\n\n".join(parts),
                        transported_constraint(mode, instance.family, stage))


# ---------------------------------------------------------------------------
# Delayed-constraint packaging
# ---------------------------------------------------------------------------

class PackagingOutcome(NamedTuple):
    """Result of turning an unconstrained stage-1 completion into the
    constrained object.

    deterministic variant: packaged_text carries the canonical
    re-serialization (None and failed=True when nothing extractable or the
    extracted value violates the target schema).
    model variant: stage2_bundle carries the second-stage prompt with the
    hard schema constraint attached.
    """

    packaged_text: str | None = None
    failed: bool = False
    stage2_bundle: PromptBundle | None = None


def _extract_stage1_value(stage1_text: str, family: str) -> Any | None:
    """Extraction rule shared by deterministic packaging: take a parsed
    JSON object when one is present, otherwise fall back to the freeform
    final-answer line."""
    parsed = extract_json(stage1_text)
    if parsed.ok and isinstance(parsed.value, dict):
        return parsed.value
    if family == CALENDAR_FAMILY:
        return None  # the calendar object cannot be rebuilt from a bare line
    answer = extract_final_answer(stage1_text)
    if answer is None:
        return None
    return {"answer": answer}


def build_delayed_stage2(stage1_text: str, instance: TaskInstance,
                         variant: str = "deterministic") -> PackagingOutcome:
    """Second stage of delayed_constraint.

    The deterministic variant never calls a model: it extracts the stage-1
    answer (or object), validates it against the target schema, and
    canonically re-serializes it. Packaging an already-canonical object is
    a fixpoint. Nothing to extract, or a value the schema refuses, is
    failed=True, which the record keeps as packaging_failed; no reason is
    given, since none is stored. The model variant returns a stage-2 prompt
    bundle instead.
    """
    if variant not in DELAYED_VARIANTS:
        raise ConfigError(f"unknown delayed variant: {variant!r}")
    family = instance.family
    if variant == "model":
        prefix = _CALENDAR_HEADER if family == CALENDAR_FAMILY else ""
        return PackagingOutcome(stage2_bundle=_bundle(
            instance, DELAYED_MODE, "stage2", prefix,
            _STAGE2_INSTRUCTION.format(stage1=stage1_text)))

    target = transported_constraint(DELAYED_MODE, family, "stage2")
    value = _extract_stage1_value(stage1_text, family)
    if value is None:
        return PackagingOutcome(failed=True)
    if family != CALENDAR_FAMILY and "answer" in value:
        value = {"answer": str(value["answer"])}
    if validate_schema(value, target.schema):
        return PackagingOutcome(failed=True)
    return PackagingOutcome(packaged_text=canonical_serialize(value))


def parse_for_mode(raw_text: str, mode: str, family: str,
                   strict: bool = False) -> ParseOutcome:
    """Parse a completion under a mode's scoring constraint.

    schema modes -> extract_json + validate_schema (violations attached);
    regex mode -> anchored full-match over the final answer line;
    unconstrained modes -> best-effort extract_json (freeform answer
    handling happens in the checkers, not here).
    """
    constraint = scoring_constraint(mode, family)
    if constraint.kind == CONSTRAINT_REGEX:
        lines = [line for line in raw_text.splitlines() if line.strip()]
        candidate = lines[-1].rstrip() if lines else raw_text.rstrip()
        if constraint.pattern and validate_regex(candidate, constraint.pattern):
            return ParseOutcome(status=PARSE_OK, matched_text=candidate.rstrip())
        return ParseOutcome(status=PARSE_REGEX_MISMATCH)
    parsed = extract_json(raw_text, strict=strict)
    if constraint.kind == CONSTRAINT_SCHEMA and parsed.ok:
        violations = tuple(validate_schema(parsed.value, constraint.schema or {}))
        return ParseOutcome(status=parsed.status, value=parsed.value,
                            matched_text=parsed.matched_text, violations=violations)
    return parsed
