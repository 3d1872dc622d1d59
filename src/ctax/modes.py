"""Output-mode catalog: prompts, constraints, and delayed packaging.

A mode fixes the interface a model must answer through: free text, a
regex-constrained final line, or a JSON object under a hard schema. The
instruction templates below are data, not code; bump TEMPLATE_VERSION on
any wording change so runs remain comparable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .errors import ConfigError
from .taskgen import FAMILIES, TOOL_NAME, TRACE_OPS, TaskInstance
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

DELAYED_VARIANTS = ("deterministic", "model")


@dataclass(frozen=True)
class ModeDescriptor:
    name: str
    interface: str
    constraint_kind: str  # constraint transported to the backend
    stages: tuple[str, ...]


MODE_CATALOG: tuple[ModeDescriptor, ...] = (
    ModeDescriptor("freeform", "Verbose step-by-step response", CONSTRAINT_NONE, ("single",)),
    ModeDescriptor("freeform_direct", "Answer-only final line", CONSTRAINT_NONE, ("single",)),
    ModeDescriptor("freeform_brief_reasoning", "Short scratchpad, final answer last",
                   CONSTRAINT_NONE, ("single",)),
    ModeDescriptor("prompt_json", "JSON requested only by prompt", CONSTRAINT_NONE, ("single",)),
    ModeDescriptor("final_only_regex", "Regex-constrained final answer",
                   CONSTRAINT_REGEX, ("single",)),
    ModeDescriptor("answer_only_schema", "Minimal answer JSON schema",
                   CONSTRAINT_SCHEMA, ("single",)),
    ModeDescriptor("rationale_answer_schema", "JSON schema with rationale and answer",
                   CONSTRAINT_SCHEMA, ("single",)),
    ModeDescriptor("typed_trace_schema", "Typed JSON trace with final answer",
                   CONSTRAINT_SCHEMA, ("single",)),
    ModeDescriptor("delayed_constraint", "Reason first, package answer second",
                   CONSTRAINT_NONE, ("stage1", "stage2")),
)

MODE_NAMES = tuple(m.name for m in MODE_CATALOG)

FREEFORM_MODES = frozenset({"freeform", "freeform_direct", "freeform_brief_reasoning"})
# Modes whose scored output is a JSON object (delayed counts: its scored
# artifact is the packaged object).
OBJECT_MODES = frozenset({"prompt_json", "answer_only_schema", "rationale_answer_schema",
                          "typed_trace_schema", "delayed_constraint"})
REGEX_MODE = "final_only_regex"


def get_mode(name: str) -> ModeDescriptor:
    for descriptor in MODE_CATALOG:
        if descriptor.name == name:
            return descriptor
    raise ConfigError(f"unknown mode: {name!r}")


@dataclass(frozen=True)
class Constraint:
    kind: str  # none | regex | schema
    pattern: str | None = None
    schema: dict | None = None

    def digest(self) -> str | None:
        if self.kind == CONSTRAINT_SCHEMA and self.schema is not None:
            return canonical_digest(self.schema)
        if self.kind == CONSTRAINT_REGEX and self.pattern is not None:
            return canonical_digest(self.pattern)
        return None


NO_CONSTRAINT = Constraint(kind=CONSTRAINT_NONE)


@dataclass(frozen=True)
class PromptBundle:
    instance_id: str
    family: str
    mode: str
    stage: str  # single | stage1 | stage2
    user_text: str
    constraint: Constraint  # transported constraint (kind none if unenforced)
    template_version: str = TEMPLATE_VERSION


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
    if family == "tool_call_argument":
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
    if family == "tool_call_argument":
        return calendar_schema()
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["answer"],
        "properties": {"answer": {"type": "string"}},
    }


def rationale_answer_schema(family: str) -> dict:
    """answer_schema plus a required free-text rationale field."""
    if family == "tool_call_argument":
        base = calendar_schema()
        return {
            "type": "object",
            "additionalProperties": False,
            "required": ["rationale", "tool", "arguments"],
            "properties": {
                "rationale": {"type": "string"},
                "tool": base["properties"]["tool"],
                "arguments": base["properties"]["arguments"],
            },
        }
    return {
        "type": "object",
        "additionalProperties": False,
        "required": ["rationale", "answer"],
        "properties": {
            "rationale": {"type": "string"},
            "answer": {"type": "string"},
        },
    }


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


def scoring_constraint(mode: str, family: str) -> Constraint:
    """Constraint the scorer validates against.

    For hard-constrained modes this equals the transported constraint; for
    prompt_json it is the same object schema requested by prompt only; for
    delayed_constraint it is the stage-2 packaging schema; freeform modes
    have none.
    """
    if mode in FREEFORM_MODES:
        return NO_CONSTRAINT
    if mode == REGEX_MODE:
        return Constraint(kind=CONSTRAINT_REGEX, pattern=answer_regex(family))
    if mode in ("prompt_json", "answer_only_schema", "delayed_constraint"):
        return Constraint(kind=CONSTRAINT_SCHEMA, schema=answer_schema(family))
    if mode == "rationale_answer_schema":
        return Constraint(kind=CONSTRAINT_SCHEMA, schema=rationale_answer_schema(family))
    if mode == "typed_trace_schema":
        return Constraint(kind=CONSTRAINT_SCHEMA, schema=typed_trace_schema(family))
    raise ConfigError(f"unknown mode: {mode!r}")


def transported_constraint(mode: str, family: str, stage: str = "single") -> Constraint:
    """Constraint actually sent to the backend for decoding."""
    kind = get_mode(mode).constraint_kind
    if mode == "delayed_constraint":
        if stage == "stage2":
            return Constraint(kind=CONSTRAINT_SCHEMA, schema=answer_schema(family))
        return NO_CONSTRAINT
    if kind == CONSTRAINT_NONE:
        return NO_CONSTRAINT
    return scoring_constraint(mode, family)


# ---------------------------------------------------------------------------
# Prompt construction
# ---------------------------------------------------------------------------

_FINAL_LINE = 'End with one final line of exactly this form:\nFinal answer: <answer>'

# Header/footer used by the calendar tool-call interface.
_CALENDAR_HEADER = "You are a calendar assistant. Return only JSON."
_CALENDAR_FOOTER = f'Use tool name "{TOOL_NAME}".'

_INSTRUCTIONS: dict[str, str] = {
    "freeform": f"Think through the problem step by step and explain your reasoning.\n{_FINAL_LINE}",
    "freeform_direct": "Reply with only the final answer on a single line. Do not explain.",
    "freeform_brief_reasoning": f"Use at most two short sentences of reasoning.\n{_FINAL_LINE}",
    "prompt_json": 'Respond with only a JSON object {"answer": "..."} and nothing else.',
    "final_only_regex": "Reply with only the final answer and nothing else.",
    "answer_only_schema": ('Respond with only a JSON object of the form {"answer": "..."}. '
                           "It must satisfy the required schema."),
    "rationale_answer_schema": ('Respond with only a JSON object of the form '
                                '{"rationale": "...", "answer": "..."}. Keep the rationale brief.'),
    "typed_trace_schema": ('Respond with only a JSON object of the form '
                           '{"steps": [{"op": "...", "output": "..."}, ...], "answer": "..."} '
                           "listing every reasoning step. Allowed op values: {ops}."),
    "delayed_constraint": f"Think through the problem step by step and explain your reasoning.\n{_FINAL_LINE}",
}

_STAGE2_INSTRUCTION = ("A draft solution follows between the markers.\n---\n{stage1}\n---\n"
                       "Package its final answer as a JSON object satisfying the required schema. "
                       "Respond with only the JSON object.")

# Calendar-family wording for modes whose expected output is the tool-call
# object itself.
_CALENDAR_OBJECT_MODES = frozenset({"prompt_json", "answer_only_schema", "rationale_answer_schema"})


def _instruction_block(mode: str, family: str) -> tuple[str, str]:
    """(prefix, suffix) wrapped around the untouched problem text."""
    if family == "tool_call_argument" and mode in _CALENDAR_OBJECT_MODES:
        suffix = _CALENDAR_FOOTER
        if mode == "rationale_answer_schema":
            suffix += ' Include a brief "rationale" field in the JSON object.'
        return _CALENDAR_HEADER, suffix
    text = _INSTRUCTIONS[mode]
    if mode == "typed_trace_schema":
        # str.format would trip over the literal JSON braces in the template
        text = text.replace("{ops}", ", ".join(TRACE_OPS[family]))
    return "", text


def build_prompt(instance: TaskInstance, mode: str) -> PromptBundle:
    """Single-completion bundle for a mode (stage 1 for delayed_constraint;
    stage 2 is built from the stage-1 completion by build_delayed_stage2).

    Prompt construction never alters problem_text: instructions are pure
    prefix/suffix blocks.
    """
    descriptor = get_mode(mode)
    prefix, suffix = _instruction_block(mode, instance.family)
    parts = [p for p in (prefix, instance.problem_text, suffix) if p]
    user_text = "\n\n".join(parts)
    stage = "stage1" if descriptor.stages[0] == "stage1" else "single"
    return PromptBundle(
        instance_id=instance.id,
        family=instance.family,
        mode=mode,
        stage=stage,
        user_text=user_text,
        constraint=transported_constraint(mode, instance.family, stage),
    )


# ---------------------------------------------------------------------------
# Delayed-constraint packaging
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PackagingOutcome:
    """Result of turning an unconstrained stage-1 completion into the
    constrained object.

    deterministic variant: packaged_text carries the canonical
    re-serialization (None and failed=True when nothing extractable or the
    extracted value violates the target schema).
    model variant: stage2_bundle carries the second-stage prompt with the
    hard schema constraint attached.
    """

    variant: str
    packaged_text: str | None = None
    failed: bool = False
    failure_reason: str | None = None
    stage2_bundle: PromptBundle | None = None


def _extract_stage1_value(stage1_text: str, family: str) -> Any | None:
    """Extraction rule shared by deterministic packaging: take a parsed
    JSON object when one is present, otherwise fall back to the freeform
    final-answer line."""
    parsed = extract_json(stage1_text)
    if parsed.ok and isinstance(parsed.value, dict):
        return parsed.value
    if family == "tool_call_argument":
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
    a fixpoint. The model variant returns a stage-2 prompt bundle instead.
    """
    if variant not in DELAYED_VARIANTS:
        raise ConfigError(f"unknown delayed variant: {variant!r}")
    family = instance.family
    target = answer_schema(family)
    if variant == "model":
        prefix, _ = _instruction_block("prompt_json", family)
        instruction = _STAGE2_INSTRUCTION.format(stage1=stage1_text)
        parts = [p for p in (prefix, instance.problem_text, instruction) if p]
        bundle = PromptBundle(
            instance_id=instance.id,
            family=family,
            mode="delayed_constraint",
            stage="stage2",
            user_text="\n\n".join(parts),
            constraint=Constraint(kind=CONSTRAINT_SCHEMA, schema=target),
        )
        return PackagingOutcome(variant=variant, stage2_bundle=bundle)

    value = _extract_stage1_value(stage1_text, family)
    if value is None:
        return PackagingOutcome(variant=variant, failed=True,
                                failure_reason="no extractable answer in stage-1 text")
    if family != "tool_call_argument" and "answer" in value:
        value = {"answer": str(value["answer"])}
    violations = validate_schema(value, target)
    if violations:
        reasons = "; ".join(f"{v.path or '/'}: {v.keyword}" for v in violations[:3])
        return PackagingOutcome(variant=variant, failed=True,
                                failure_reason=f"extracted value violates target schema ({reasons})")
    return PackagingOutcome(variant=variant, packaged_text=canonical_serialize(value))


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
