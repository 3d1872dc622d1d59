"""Semantic checkers and the error taxonomy.

Every completion is read once through its mode's answer channel, which
yields three things:

- freeform modes: the answer is the final-answer line; no such line is a
  parse_failure_freeform;
- the regex mode: the answer is the full-matched final line; a mismatch
  is a schema_validation_error;
- object modes: the answer is the object's "answer" (for tool calls, the
  whole object minus "rationale"; a typed trace's string answer also
  yields the tool object); no object, or a failed delayed packaging, is
  invalid_json, and schema violations are a schema_validation_error.

From that (answer text, calendar tool object, format error) triple come
schema validity (no format error), answer correctness (normalized string
equality with the ground truth), executable correctness (for tool calls,
field-level equivalence of the produced call; elsewhere, a correct answer
through a valid channel), trace correctness for typed reasoning traces,
and one error class per record, applied in precedence order: the format
error, then trace_answer_contradiction, then wrong_answer_valid_schema,
else correct_valid.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from .modes import FREEFORM_MODES, OBJECT_MODES, REGEX_MODE
from .taskgen import CALENDAR_SEMANTIC_FIELDS, TOOL_NAME, TaskInstance
from .validation import (
    ParseOutcome,
    canonical_serialize,
    extract_final_answer,
    extract_json,
    normalize_answer,
)

ERROR_CLASSES = (
    "correct_valid",
    "invalid_json",
    "parse_failure_freeform",
    "schema_validation_error",
    "trace_answer_contradiction",
    "wrong_answer_valid_schema",
)

# Transport failures sit outside the semantic taxonomy: such records are
# reported separately and excluded from accuracy denominators.
GENERATION_FAILED = "generation_failed"

CALENDAR_FAILURE_CLASSES = (
    "correct", "wrong_duration", "wrong_topic", "wrong_date",
    "wrong_time", "wrong_attendee", "multi_field",
)

_FIELD_TO_CLASS = {
    "date": "wrong_date",
    "start_time": "wrong_time",
    "duration_minutes": "wrong_duration",
    "attendee": "wrong_attendee",
    "topic": "wrong_topic",
}


@dataclass(frozen=True)
class CheckResult:
    schema_valid: bool
    answer_correct: bool
    exec_correct: bool
    trace_correct: bool | None  # None outside typed_trace_schema
    error_class: str
    calendar_failure_class: str | None = None
    calendar_wrong_fields: tuple[str, ...] = ()
    answer_payload: str | None = None  # semantic payload for overhead accounting


def _norm(value: Any) -> str:
    return str(value).strip().lower()


def expected_calendar_arguments(instance: TaskInstance) -> dict[str, Any]:
    target = instance.ground_truth.exec_target or {}
    return dict(target.get("arguments", {}))


def calendar_exec_ok(obj: Any, expected: dict[str, Any]) -> bool:
    """Executable equivalence for a calendar tool call.

    Tool name must match exactly; date/start_time/attendee/topic compare
    after trim+lowercase; duration compares as int(). Missing keys or
    uncoercible values are simply not equivalent. The title field is never
    scored.
    """
    try:
        if obj["tool"] != TOOL_NAME:
            return False
        args = obj["arguments"]
        return (
            _norm(args["date"]) == _norm(expected["date"])
            and _norm(args["start_time"]) == _norm(expected["start_time"])
            and int(args["duration_minutes"]) == int(expected["duration_minutes"])
            and _norm(args["attendee"]) == _norm(expected["attendee"])
            and _norm(args["topic"]) == _norm(expected["topic"])
        )
    except (KeyError, TypeError, ValueError):
        return False


def classify_calendar_failure(obj: Any, expected: dict[str, Any]) -> tuple[str, tuple[str, ...]]:
    """(primary class, wrong semantic fields) for a calendar object.

    Zero wrong fields -> "correct"; exactly one -> that field's class;
    two or more -> "multi_field". Fields that are missing or uncomparable
    count as wrong.
    """
    args = obj.get("arguments", {}) if isinstance(obj, dict) else {}
    if not isinstance(args, dict):
        args = {}
    wrong: list[str] = []
    for name in CALENDAR_SEMANTIC_FIELDS:
        try:
            if name == "duration_minutes":
                ok = int(args[name]) == int(expected[name])
            else:
                ok = _norm(args[name]) == _norm(expected[name])
        except (KeyError, TypeError, ValueError):
            ok = False
        if not ok:
            wrong.append(name)
    if isinstance(obj, dict) and obj.get("tool") != TOOL_NAME:
        # a mis-selected tool is at least as wrong as any single field
        wrong.append("tool")
    if not wrong:
        return "correct", ()
    if len(wrong) == 1 and wrong[0] in _FIELD_TO_CLASS:
        return _FIELD_TO_CLASS[wrong[0]], tuple(wrong)
    return "multi_field", tuple(wrong)


# ---------------------------------------------------------------------------
# Answer channels and verdicts
# ---------------------------------------------------------------------------

def _json_object(text: str | None) -> dict | None:
    if text:
        sub = extract_json(text)
        if sub.ok and isinstance(sub.value, dict):
            return sub.value
    return None


def _channel(instance: TaskInstance, mode: str, parse: ParseOutcome, raw_text: str,
             packaging_failed: bool) -> tuple[str | None, dict | None, str | None]:
    """(answer text, calendar tool object, format error) for one completion.

    The answer text is what the completion asserts, before normalization.
    The tool object is resolved for the calendar family only. The format
    error is the error class of a broken mode contract, None when the
    contract is met.
    """
    calendar = instance.family == "tool_call_argument"
    if mode in FREEFORM_MODES:
        answer = extract_final_answer(raw_text)
        tool = None
        if calendar:  # the answer line first, then the whole text ({} counts)
            tool = _json_object(answer)
            if tool is None:
                tool = _json_object(raw_text)
        return answer, tool, None if answer is not None else "parse_failure_freeform"
    if mode == REGEX_MODE:
        answer = parse.matched_text
        tool = _json_object(answer) if calendar else None
        return answer, tool, None if parse.ok else "schema_validation_error"
    value = parse.value
    if not isinstance(value, dict):
        return None, None, "invalid_json"
    tool = None
    if mode == "typed_trace_schema":
        answer = value.get("answer")
        if calendar and isinstance(answer, str):
            tool = _json_object(answer)
    elif calendar:
        tool = {k: v for k, v in value.items() if k != "rationale"}
        answer = canonical_serialize(tool)
    else:
        answer = value.get("answer")
    if packaging_failed:
        error = "invalid_json"
    elif parse.violations:
        error = "schema_validation_error"
    else:
        error = None
    return None if answer is None else str(answer), tool, error


def check_trace(instance: TaskInstance, steps: list[tuple[Any, Any]],
                strict: bool = False) -> bool:
    """Typed-trace correctness for (op, output) pairs.

    Step count and op sequence must match the gold trace and the final
    output must normalize to the final answer; strict additionally
    requires every intermediate output to match.
    """
    gold = instance.ground_truth.trace
    if len(steps) != len(gold):
        return False
    family = instance.family
    for (op, _output), gold_step in zip(steps, gold):
        if op != gold_step.op_name:
            return False
    last_output = steps[-1][1]
    if normalize_answer(str(last_output), family) != instance.ground_truth.final_answer:
        return False
    if strict:
        for (_op, output), gold_step in zip(steps, gold):
            if normalize_answer(str(output), family) != normalize_answer(gold_step.output, family):
                return False
    return True


def _trace_fields(instance: TaskInstance, mode: str, parse: ParseOutcome,
                  strict: bool) -> tuple[bool | None, bool]:
    """(trace_correct or None, trace_contradicts_answer)."""
    if mode != "typed_trace_schema" or not isinstance(parse.value, dict):
        return None, False
    steps_raw = parse.value.get("steps")
    if not isinstance(steps_raw, list):
        return False, False
    pairs: list[tuple[Any, Any]] = []
    for step in steps_raw:
        if not isinstance(step, dict):
            return False, False
        pairs.append((step.get("op"), step.get("output")))
    correct = check_trace(instance, pairs, strict=strict)
    contradicts = False
    answer = parse.value.get("answer")
    if pairs and answer is not None:
        family = instance.family
        contradicts = (normalize_answer(str(pairs[-1][1]), family)
                       != normalize_answer(str(answer), family))
    return correct, contradicts


def score_completion(instance: TaskInstance, mode: str, parse: ParseOutcome,
                     raw_text: str, packaging_failed: bool = False,
                     strict_trace: bool = False) -> CheckResult:
    """All verdicts for one completion under one mode, derived from its
    resolved channel."""
    family = instance.family
    answer, tool, format_error = _channel(instance, mode, parse, raw_text, packaging_failed)
    valid = format_error is None
    answer_ok = (answer is not None
                 and normalize_answer(answer, family) == instance.ground_truth.final_answer)
    trace_ok, contradicts = _trace_fields(instance, mode, parse, strict_trace)

    failure_class: str | None = None
    wrong_fields: tuple[str, ...] = ()
    payload = answer
    if family == "tool_call_argument":
        expected = expected_calendar_arguments(instance)
        # freeform and regex channels only yield a tool object when valid,
        # so exec_correct implies schema_valid in every mode
        exec_ok = valid and calendar_exec_ok(tool, expected)
        if valid and tool is not None and mode in OBJECT_MODES:
            failure_class, wrong_fields = classify_calendar_failure(tool, expected)
        args = tool.get("arguments") if tool is not None else None
        if isinstance(args, dict) and any(f in args for f in CALENDAR_SEMANTIC_FIELDS):
            payload = "".join(str(args[f]) for f in CALENDAR_SEMANTIC_FIELDS if f in args)
    else:
        exec_ok = valid and answer_ok

    if format_error is not None:
        label = format_error
    elif contradicts:
        label = "trace_answer_contradiction"
    elif not answer_ok or not exec_ok or trace_ok is False:
        label = "wrong_answer_valid_schema"
    else:
        label = "correct_valid"

    return CheckResult(
        schema_valid=valid,
        answer_correct=answer_ok,
        exec_correct=exec_ok,
        trace_correct=trace_ok,
        error_class=label,
        calendar_failure_class=failure_class,
        calendar_wrong_fields=wrong_fields,
        answer_payload=payload,
    )
