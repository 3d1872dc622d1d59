"""The value types built once or more per record: immutable, compared by
value, with their defaults and properties; and TaskInstance, a dict key."""

from __future__ import annotations

import pytest

from ctax.backend import GenerationResult
from ctax.checkers import CheckResult
from ctax.modes import NO_CONSTRAINT, PackagingOutcome, PromptBundle, build_prompt
from ctax.taskgen import (GroundTruth, TraceStep, generate_suite, instance_from_dict,
                          instance_to_dict)
from ctax.validation import PARSE_MALFORMED, PARSE_OK, ParseOutcome, Violation

INSTANCE = generate_suite("boolean_logic", 1, seed=3)[0]
CALENDAR = generate_suite("tool_call_argument", 1, seed=3)[0]

# (type name, a fresh value on each call, one of its fields)
VALUES = [
    ("Violation", lambda: Violation("/answer", "type", "expected string"), "path"),
    ("ParseOutcome", lambda: ParseOutcome(PARSE_OK, {"answer": "4"}, '{"answer": "4"}'),
     "status"),
    ("CheckResult", lambda: CheckResult(True, False, False, None, "wrong_answer_valid_schema"),
     "answer_correct"),
    ("GenerationResult", lambda: GenerationResult("Final answer: true", 12.5), "raw_text"),
    ("PromptBundle", lambda: PromptBundle(INSTANCE, "freeform", "single", "text",
                                          NO_CONSTRAINT), "mode"),
    ("PackagingOutcome", lambda: PackagingOutcome(packaged_text='{"answer": "true"}'),
     "packaged_text"),
    ("TraceStep", lambda: TraceStep("not", ("true",), "false"), "output"),
    ("GroundTruth", lambda: GroundTruth("false", (TraceStep("not", ("true",), "false"),)),
     "final_answer"),
]


@pytest.mark.parametrize("make, name", [(make, name) for _, make, name in VALUES],
                         ids=[type_name for type_name, _, _ in VALUES])
def test_a_value_refuses_attribute_assignment(make, name):
    value = make()
    with pytest.raises(AttributeError):
        setattr(value, name, getattr(value, name))
    with pytest.raises(AttributeError):
        value.not_a_field = 1
    assert value == make()


@pytest.mark.parametrize("make, name", [(make, name) for _, make, name in VALUES],
                         ids=[type_name for type_name, _, _ in VALUES])
def test_values_compare_by_value(make, name):
    a, b = make(), make()
    assert a == b and a is not b and not a != b


def test_values_that_differ_in_one_field_compare_unequal():
    assert Violation("/a", "type", "m") != Violation("/b", "type", "m")
    assert ParseOutcome(PARSE_OK) != ParseOutcome(PARSE_MALFORMED)
    assert GenerationResult("x", 0.0) != GenerationResult("x", 0.0, failed=True)
    assert (PromptBundle(INSTANCE, "freeform", "single", "t", NO_CONSTRAINT)
            != PromptBundle(INSTANCE, "freeform", "stage1", "t", NO_CONSTRAINT))


def test_defaults_are_kept():
    parse = ParseOutcome(PARSE_OK)
    assert (parse.value, parse.matched_text, parse.violations) == (None, None, ())
    check = CheckResult(True, True, True, None, "correct_valid")
    assert (check.calendar_failure_class, check.calendar_wrong_fields,
            check.answer_payload) == (None, (), None)
    result = GenerationResult("text", 0.0)
    assert (result.prompt_tokens, result.completion_tokens, result.failed,
            result.failure_reason, result.started_at) == (None, None, False, None, None)
    outcome = PackagingOutcome()
    assert (outcome.packaged_text, outcome.failed, outcome.stage2_bundle) == (None, False, None)
    assert GroundTruth("a", ()).exec_target is None


def test_properties_are_kept():
    violation = Violation("/answer", "type", "expected string")
    assert ParseOutcome(PARSE_OK).ok and ParseOutcome(PARSE_OK).valid
    assert ParseOutcome(PARSE_OK, violations=(violation,)).ok
    assert not ParseOutcome(PARSE_OK, violations=(violation,)).valid
    assert not ParseOutcome(PARSE_MALFORMED).ok and not ParseOutcome(PARSE_MALFORMED).valid
    assert build_prompt(INSTANCE, "freeform").instance_id == INSTANCE.id


def test_a_task_instance_keys_a_dict():
    table = {INSTANCE: "boolean", CALENDAR: "calendar"}
    assert table[generate_suite("boolean_logic", 1, seed=3)[0]] == "boolean"
    assert table[instance_from_dict(instance_to_dict(CALENDAR))] == "calendar"
    with pytest.raises(TypeError):  # its exec_target is a dict
        hash(CALENDAR.ground_truth)
