"""Answer/exec/trace verdicts, error taxonomy, calendar failure classes."""

from __future__ import annotations

import json

import pytest

from ctax.checkers import (
    CALENDAR_FAILURE_CLASSES,
    ERROR_CLASSES,
    GENERATION_FAILED,
    calendar_exec_ok,
    check_trace,
    classify_calendar_failure,
    expected_calendar_arguments,
    score_completion,
)
from ctax.modes import MODE_NAMES, build_prompt, parse_for_mode
from ctax.taskgen import FAMILIES, generate_suite
from ctax.validation import canonical_serialize

from calendar_cases import CASES, EXPECTED_ARGS


def _score(inst, mode, raw_text, **kw):
    parse = parse_for_mode(raw_text, mode, inst.family)
    return score_completion(inst, mode, parse, raw_text, **kw)


def _inst(family, seed=7):
    return generate_suite(family, 1, seed=seed)[0]


# ---------------------------------------------------------------------------
# calendar fixture conformance
# ---------------------------------------------------------------------------

def test_calendar_fixture_exec_verdicts():
    for name, obj, exec_ok, _cls in CASES:
        assert calendar_exec_ok(obj, EXPECTED_ARGS) == exec_ok, name


def test_calendar_fixture_failure_classes():
    for name, obj, exec_ok, cls in CASES:
        got, wrong = classify_calendar_failure(obj, EXPECTED_ARGS)
        assert got == cls, (name, got, cls)
        assert (got == "correct") == (wrong == ())
        assert (got == "correct") == exec_ok, name


def test_calendar_fixture_partition():
    counts: dict[str, int] = {}
    for _name, obj, _ok, _cls in CASES:
        got, _ = classify_calendar_failure(obj, EXPECTED_ARGS)
        counts[got] = counts.get(got, 0) + 1
    assert sum(counts.values()) == len(CASES) == 30
    assert set(counts) <= set(CALENDAR_FAILURE_CLASSES)
    assert counts["correct"] == 13


def test_calendar_title_never_scored():
    changed = dict(EXPECTED_ARGS)
    changed["title"] = "completely different words"
    obj = {"tool": "create_calendar_event", "arguments": changed}
    assert calendar_exec_ok(obj, EXPECTED_ARGS)
    cls, wrong = classify_calendar_failure(obj, EXPECTED_ARGS)
    assert cls == "correct" and wrong == ()


def test_calendar_wrong_tool_counts_as_field():
    obj = {"tool": "delete_calendar_event", "arguments": dict(EXPECTED_ARGS)}
    cls, wrong = classify_calendar_failure(obj, EXPECTED_ARGS)
    assert cls == "multi_field"
    assert wrong == ("tool",)
    assert not calendar_exec_ok(obj, EXPECTED_ARGS)


def test_calendar_missing_arguments_is_multi_field():
    obj = {"tool": "create_calendar_event"}
    cls, wrong = classify_calendar_failure(obj, EXPECTED_ARGS)
    assert cls == "multi_field"
    assert len(wrong) == 5


def test_expected_arguments_come_from_exec_target():
    inst = _inst("tool_call_argument")
    expected = expected_calendar_arguments(inst)
    assert set(expected) == {"title", "date", "start_time", "duration_minutes",
                             "attendee", "topic"}
    gold = json.loads(inst.ground_truth.final_answer)
    assert gold["arguments"] == expected


# ---------------------------------------------------------------------------
# trace checking
# ---------------------------------------------------------------------------

def _gold_pairs(inst):
    return [(s.op_name, s.output) for s in inst.ground_truth.trace]


def test_trace_gold_passes_both_modes():
    for family in ("arithmetic_two_step", "symbolic_string", "object_tracking",
                   "boolean_logic", "tool_call_argument"):
        inst = _inst(family)
        pairs = _gold_pairs(inst)
        assert check_trace(inst, pairs)
        assert check_trace(inst, pairs, strict=True)


def test_trace_wrong_step_count():
    inst = _inst("arithmetic_two_step")
    assert not check_trace(inst, _gold_pairs(inst)[:-1])
    assert not check_trace(inst, _gold_pairs(inst) + [("extra", "1")])


def test_trace_wrong_op_name():
    inst = _inst("arithmetic_two_step")
    pairs = _gold_pairs(inst)
    pairs[1] = ("subtract_red", pairs[1][1])
    assert not check_trace(inst, pairs)


def test_trace_wrong_final_output():
    inst = _inst("arithmetic_two_step")
    pairs = _gold_pairs(inst)
    pairs[-1] = (pairs[-1][0], "999")
    assert not check_trace(inst, pairs)


def test_trace_lenient_tolerates_wrong_intermediate():
    inst = _inst("arithmetic_two_step")
    pairs = _gold_pairs(inst)
    pairs[0] = (pairs[0][0], "999")
    assert check_trace(inst, pairs)
    assert not check_trace(inst, pairs, strict=True)


def test_trace_outputs_normalize():
    inst = _inst("arithmetic_two_step")
    pairs = [(op, int(out)) for op, out in _gold_pairs(inst)]
    assert check_trace(inst, pairs, strict=True)


# ---------------------------------------------------------------------------
# taxonomy constants
# ---------------------------------------------------------------------------

def test_taxonomy_is_fixed():
    assert ERROR_CLASSES == (
        "correct_valid", "invalid_json", "parse_failure_freeform",
        "schema_validation_error", "trace_answer_contradiction",
        "wrong_answer_valid_schema")
    assert GENERATION_FAILED not in ERROR_CLASSES
    assert CALENDAR_FAILURE_CLASSES == (
        "correct", "wrong_duration", "wrong_topic", "wrong_date",
        "wrong_time", "wrong_attendee", "multi_field")


# ---------------------------------------------------------------------------
# score_completion per mode: correct completions
# ---------------------------------------------------------------------------

def test_freeform_correct():
    inst = _inst("arithmetic_two_step")
    answer = inst.ground_truth.final_answer
    res = _score(inst, "freeform", f"First I add.\nFinal answer: {answer}")
    assert res.schema_valid and res.answer_correct and res.exec_correct
    assert res.error_class == "correct_valid"
    assert res.trace_correct is None
    assert res.answer_payload == answer


def test_prompt_json_correct():
    inst = _inst("boolean_logic")
    raw = canonical_serialize({"answer": inst.ground_truth.final_answer})
    res = _score(inst, "prompt_json", raw)
    assert res.error_class == "correct_valid"
    assert res.schema_valid and res.exec_correct


def test_regex_mode_correct():
    inst = _inst("symbolic_string")
    res = _score(inst, "final_only_regex",
                 f"thinking\n{inst.ground_truth.final_answer}")
    assert res.error_class == "correct_valid"
    assert res.schema_valid and res.answer_correct and res.exec_correct


def test_typed_trace_correct():
    inst = _inst("object_tracking")
    doc = {"steps": [{"op": s.op_name, "output": s.output}
                     for s in inst.ground_truth.trace],
           "answer": inst.ground_truth.final_answer}
    res = _score(inst, "typed_trace_schema", canonical_serialize(doc))
    assert res.error_class == "correct_valid"
    assert res.trace_correct is True


def test_tool_schema_mode_correct():
    inst = _inst("tool_call_argument")
    res = _score(inst, "answer_only_schema", inst.ground_truth.final_answer)
    assert res.error_class == "correct_valid"
    assert res.exec_correct and res.schema_valid
    assert res.calendar_failure_class == "correct"
    assert res.calendar_wrong_fields == ()


@pytest.mark.parametrize("text", [
    "[" * 2000,
    '{"answer": ' + "[" * 2000,
    "```json\n" + "[" * 2000 + "\n```",
    "Final answer: " + "[" * 2000,
], ids=["array", "object_member", "fenced", "final_line"])
def test_deep_nesting_does_not_parse_and_never_raises(text):
    # nested past the recursion limit; brackets rather than braces keep the
    # extractor's brace scan short
    for family in FAMILIES:
        inst = _inst(family)
        for mode in MODE_NAMES:
            parse = parse_for_mode(text, mode, family)
            assert not parse.ok
            res = score_completion(inst, mode, parse, text)
            assert res.error_class in ERROR_CLASSES and not res.exec_correct


# ---------------------------------------------------------------------------
# taxonomy precedence on failures
# ---------------------------------------------------------------------------

def test_object_mode_not_json_is_invalid_json():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "answer_only_schema", "I think the answer is nine.")
    assert res.error_class == "invalid_json"
    assert not res.schema_valid and not res.exec_correct


def test_object_mode_non_dict_json_is_invalid_json():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "answer_only_schema", "[1, 2, 3]")
    assert res.error_class == "invalid_json"


def test_freeform_without_answer_line_is_parse_failure():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "freeform", "")
    assert res.error_class == "parse_failure_freeform"
    res2 = _score(inst, "freeform_direct", "   \n   ")
    assert res2.error_class == "parse_failure_freeform"


def test_regex_mismatch_is_schema_validation_error():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "final_only_regex", "the answer is 9")
    assert res.error_class == "schema_validation_error"
    assert not res.schema_valid


def test_schema_violation_class():
    inst = _inst("arithmetic_two_step")
    # parses, but answer is a number where the schema wants a string
    res = _score(inst, "answer_only_schema",
                 json.dumps({"answer": int(inst.ground_truth.final_answer)}))
    assert res.error_class == "schema_validation_error"
    assert not res.schema_valid


def test_schema_violation_beats_wrong_answer():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "answer_only_schema", '{"answer": "9999", "junk": 1}')
    assert res.error_class == "schema_validation_error"


def test_trace_contradiction_class():
    inst = _inst("boolean_logic")
    steps = [{"op": s.op_name, "output": s.output}
             for s in inst.ground_truth.trace]
    wrong = "false" if inst.ground_truth.final_answer == "true" else "true"
    doc = {"steps": steps, "answer": wrong}
    res = _score(inst, "typed_trace_schema", canonical_serialize(doc))
    assert res.error_class == "trace_answer_contradiction"
    assert not res.exec_correct


def test_trace_wrong_op_is_wrong_answer_class():
    inst = _inst("boolean_logic")
    steps = [{"op": s.op_name, "output": s.output}
             for s in inst.ground_truth.trace]
    steps[0]["op"] = steps[1]["op"]  # breaks op sequence, not the enum
    doc = {"steps": steps, "answer": inst.ground_truth.final_answer}
    res = _score(inst, "typed_trace_schema", canonical_serialize(doc))
    assert res.error_class == "wrong_answer_valid_schema"
    assert res.trace_correct is False
    assert res.answer_correct  # the answer field itself is right


def test_wrong_answer_valid_schema_class():
    inst = _inst("symbolic_string")
    res = _score(inst, "answer_only_schema", '{"answer": "zz"}')
    assert res.error_class == "wrong_answer_valid_schema"
    assert res.schema_valid and not res.answer_correct


def test_freeform_wrong_answer():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "freeform", "Final answer: 999999")
    assert res.error_class == "wrong_answer_valid_schema"
    assert res.schema_valid  # an answer line exists; it is just wrong


def test_packaging_failure_is_invalid_json():
    inst = _inst("arithmetic_two_step")
    parse = parse_for_mode("", "delayed_constraint", inst.family)
    res = score_completion(inst, "delayed_constraint", parse, "",
                           packaging_failed=True)
    assert res.error_class == "invalid_json"
    assert not res.schema_valid


# ---------------------------------------------------------------------------
# exec semantics
# ---------------------------------------------------------------------------

def test_exec_requires_consumable_channel_for_plain_families():
    inst = _inst("arithmetic_two_step")
    answer = inst.ground_truth.final_answer
    # the right number buried mid-prose is not consumable: lenient
    # extraction takes the last line, which is wrong
    res = _score(inst, "freeform", f"the total is {answer}\nhope that helps")
    assert not res.answer_correct and not res.exec_correct
    assert res.error_class == "wrong_answer_valid_schema"


def test_exec_equals_answer_and_validity_for_plain_families():
    for family in ("arithmetic_two_step", "symbolic_string", "boolean_logic"):
        inst = _inst(family)
        good = canonical_serialize({"answer": inst.ground_truth.final_answer})
        for mode, raw in (("answer_only_schema", good),
                          ("freeform", f"Final answer: {inst.ground_truth.final_answer}"),
                          ("answer_only_schema", '{"answer": "nope"}')):
            res = _score(inst, mode, raw)
            assert res.exec_correct == (res.schema_valid and res.answer_correct)


def test_tool_exec_from_freeform_needs_object():
    inst = _inst("tool_call_argument")
    obj_text = inst.ground_truth.final_answer
    res = _score(inst, "freeform", f"I will call:\n{obj_text}\nFinal answer: done")
    assert res.exec_correct  # object recoverable from the prose
    res2 = _score(inst, "freeform", "Final answer: schedule the meeting")
    assert not res2.exec_correct


def test_tool_exec_in_object_mode_requires_validity():
    inst = _inst("tool_call_argument")
    gold = json.loads(inst.ground_truth.final_answer)
    gold["arguments"]["duration_minutes"] = str(gold["arguments"]["duration_minutes"])
    raw = json.dumps(gold)  # semantically equivalent but violates integer type
    res = _score(inst, "answer_only_schema", raw)
    assert not res.schema_valid
    assert not res.exec_correct
    assert res.error_class == "schema_validation_error"


def test_tool_rationale_mode_strips_rationale_for_exec():
    inst = _inst("tool_call_argument")
    gold = json.loads(inst.ground_truth.final_answer)
    doc = {"rationale": "user asked for a meeting", **gold}
    res = _score(inst, "rationale_answer_schema", json.dumps(doc))
    assert res.exec_correct
    assert res.error_class == "correct_valid"
    assert res.calendar_failure_class == "correct"


def test_tool_wrong_field_classified():
    inst = _inst("tool_call_argument")
    gold = json.loads(inst.ground_truth.final_answer)
    gold["arguments"]["duration_minutes"] = gold["arguments"]["duration_minutes"] + 15
    res = _score(inst, "answer_only_schema", json.dumps(gold))
    assert res.error_class == "wrong_answer_valid_schema"
    assert res.calendar_failure_class == "wrong_duration"
    assert res.calendar_wrong_fields == ("duration_minutes",)


def test_calendar_class_absent_outside_object_modes():
    inst = _inst("tool_call_argument")
    res = _score(inst, "freeform",
                 f"Final answer: {inst.ground_truth.final_answer}")
    assert res.calendar_failure_class is None


def test_calendar_class_absent_for_other_families():
    inst = _inst("boolean_logic")
    raw = canonical_serialize({"answer": inst.ground_truth.final_answer})
    res = _score(inst, "prompt_json", raw)
    assert res.calendar_failure_class is None


# ---------------------------------------------------------------------------
# answer payload (structural-overhead accounting)
# ---------------------------------------------------------------------------

def test_payload_is_answer_text_for_plain_families():
    inst = _inst("symbolic_string")
    answer = inst.ground_truth.final_answer
    res = _score(inst, "answer_only_schema", f'{{"answer": "{answer}"}}')
    assert res.answer_payload == answer


def test_payload_for_calendar_concatenates_semantic_fields():
    inst = _inst("tool_call_argument")
    res = _score(inst, "answer_only_schema", inst.ground_truth.final_answer)
    args = expected_calendar_arguments(inst)
    expected = "".join(str(args[f]) for f in
                       ("date", "start_time", "duration_minutes", "attendee", "topic"))
    assert res.answer_payload is not None
    assert sorted(res.answer_payload) == sorted(expected)
    assert str(args["title"]) not in ("", res.answer_payload)


def test_payload_none_when_nothing_extractable():
    inst = _inst("arithmetic_two_step")
    res = _score(inst, "freeform", "")
    assert res.answer_payload is None
    res2 = _score(inst, "answer_only_schema", "not json at all")
    assert res2.answer_payload is None


# ---------------------------------------------------------------------------
# mode-consistency over generated correct outputs
# ---------------------------------------------------------------------------

def test_gold_outputs_score_correct_under_every_mode():
    from ctax.backend import oracle_generate

    for family in ("arithmetic_two_step", "tool_call_argument"):
        for inst in generate_suite(family, 5, seed=11):
            for mode in ("freeform", "prompt_json", "final_only_regex",
                         "answer_only_schema", "rationale_answer_schema",
                         "typed_trace_schema"):
                raw = oracle_generate(inst, mode)
                parse = parse_for_mode(raw, mode, family)
                res = score_completion(inst, mode, parse, raw)
                assert res.error_class == "correct_valid", (family, mode)
                assert res.exec_correct


def test_cross_mode_agreement_on_same_wrong_answer():
    inst = _inst("arithmetic_two_step")
    wrong = "12345"
    for mode, raw in (
        ("freeform", f"Final answer: {wrong}"),
        ("prompt_json", f'{{"answer": "{wrong}"}}'),
        ("final_only_regex", wrong),
        ("answer_only_schema", f'{{"answer": "{wrong}"}}'),
    ):
        res = _score(inst, mode, raw)
        assert res.error_class == "wrong_answer_valid_schema", mode
        assert res.schema_valid and not res.answer_correct
