"""Mode catalog, constraints, prompt construction, delayed packaging."""

from __future__ import annotations

import hashlib
import json
import re

import pytest

from ctax.backend import BackendConfig, build_request_body, oracle_generate
from ctax.errors import ConfigError
from ctax.harness import DELAYED_SOURCE_MODES
from ctax.modes import (
    DELAYED_VARIANTS,
    FREEFORM_MODES,
    MODE_CATALOG,
    MODE_NAMES,
    OBJECT_MODES,
    REGEX_MODE,
    answer_regex,
    answer_schema,
    build_delayed_stage2,
    build_prompt,
    calendar_schema,
    get_mode,
    parse_for_mode,
    rationale_answer_schema,
    scoring_constraint,
    transported_constraint,
    typed_trace_schema,
)
from ctax.taskgen import FAMILIES, TRACE_OPS, generate_suite
from ctax.validation import canonical_serialize, validate_schema

# Frozen copy of the required calendar tool-call schema. Any drift in the
# builder is a contract break, so this literal is deliberately spelled out.
CALENDAR_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["tool", "arguments"],
    "properties": {
        "tool": {"const": "create_calendar_event"},
        "arguments": {
            "type": "object",
            "additionalProperties": False,
            "required": [
                "title", "date", "start_time", "duration_minutes",
                "attendee", "topic",
            ],
            "properties": {
                "title": {"type": "string"},
                "date": {"type": "string", "pattern": "^\\d{4}-\\d{2}-\\d{2}$"},
                "start_time": {"type": "string", "pattern": "^\\d{2}:\\d{2}$"},
                "duration_minutes": {"type": "integer", "minimum": 1},
                "attendee": {"type": "string"},
                "topic": {"type": "string"},
            },
        },
    },
}


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def test_catalog_has_nine_modes():
    assert len(MODE_CATALOG) == 9
    assert MODE_NAMES == (
        "freeform", "freeform_direct", "freeform_brief_reasoning",
        "prompt_json", "final_only_regex", "answer_only_schema",
        "rationale_answer_schema", "typed_trace_schema", "delayed_constraint")


def test_catalog_constraint_kinds():
    kinds = {m.name: transported_constraint(m.name, "boolean_logic").kind for m in MODE_CATALOG}
    for name in ("freeform", "freeform_direct", "freeform_brief_reasoning",
                 "prompt_json", "delayed_constraint"):
        assert kinds[name] == "none"
    assert kinds["final_only_regex"] == "regex"
    for name in ("answer_only_schema", "rationale_answer_schema",
                 "typed_trace_schema"):
        assert kinds[name] == "schema"


# Each mode's facts, by name: (channel, scoring constraint kind, transported
# constraint kind per stage, a delayed stage-1 source).
_CATALOG_TABLE = {
    "freeform": ("freeform", "none", {"single": "none"}, True),
    "freeform_direct": ("freeform", "none", {"single": "none"}, True),
    "freeform_brief_reasoning": ("freeform", "none", {"single": "none"}, True),
    "prompt_json": ("object", "schema", {"single": "none"}, True),
    "final_only_regex": ("regex", "regex", {"single": "regex"}, False),
    "answer_only_schema": ("object", "schema", {"single": "schema"}, False),
    "rationale_answer_schema": ("object", "schema", {"single": "schema"}, False),
    "typed_trace_schema": ("object", "schema", {"single": "schema"}, False),
    "delayed_constraint": ("object", "schema", {"stage1": "none", "stage2": "schema"}, False),
}


def test_catalog_table():
    assert tuple(_CATALOG_TABLE) == MODE_NAMES
    for family in FAMILIES:
        inst = generate_suite(family, 1, seed=21)[0]
        for mode in MODE_CATALOG:
            channel, scoring, transported, source = _CATALOG_TABLE[mode.name]
            assert mode.channel == channel
            assert scoring_constraint(mode.name, family).kind == scoring
            assert {stage: transported_constraint(mode.name, family, stage).kind
                    for stage in transported} == transported
            assert (mode.name in DELAYED_SOURCE_MODES) == source


def test_catalog_interfaces_described():
    # a mode's interface is the instruction that follows the problem text
    inst = generate_suite("arithmetic_two_step", 1, seed=21)[0]
    for mode in MODE_CATALOG:
        assert mode.instruction and isinstance(mode.instruction, str)
        user_text = build_prompt(inst, mode.name).user_text
        assert user_text.startswith(inst.problem_text)
        assert mode.instruction.split("{ops}")[0] in user_text


def test_delayed_mode_has_two_stages():
    inst = generate_suite("arithmetic_two_step", 1, seed=21)[0]
    assert build_prompt(inst, "delayed_constraint").stage == "stage1"
    stage2 = build_delayed_stage2("Final answer: 7", inst, "model").stage2_bundle
    assert stage2.stage == "stage2"
    for mode in MODE_NAMES:
        if mode != "delayed_constraint":
            assert build_prompt(inst, mode).stage == "single"
    assert DELAYED_VARIANTS == ("deterministic", "model")


def test_get_mode_unknown():
    with pytest.raises(ConfigError):
        get_mode("nonexistent_mode")


def test_mode_partition():
    assert FREEFORM_MODES | OBJECT_MODES | {REGEX_MODE, "prompt_json"} == set(MODE_NAMES)
    assert "prompt_json" in OBJECT_MODES


# ---------------------------------------------------------------------------
# answer regexes
# ---------------------------------------------------------------------------

def test_answer_regex_accepts_every_ground_truth():
    for family in FAMILIES:
        pattern = answer_regex(family)
        assert pattern.startswith("^") and pattern.endswith("$")
        for inst in generate_suite(family, 100, seed=13):
            assert re.fullmatch(pattern, inst.ground_truth.final_answer), \
                (family, inst.ground_truth.final_answer)


def test_answer_regex_rejects_noise():
    assert not re.fullmatch(answer_regex("arithmetic_two_step"), "9 balls")
    assert not re.fullmatch(answer_regex("boolean_logic"), "True")
    assert not re.fullmatch(answer_regex("symbolic_string"), "t g")


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

def test_calendar_schema_matches_frozen_contract():
    assert calendar_schema() == CALENDAR_SCHEMA


def test_calendar_schema_is_fresh_copy():
    a = calendar_schema()
    a["properties"]["tool"]["const"] = "tampered"
    assert calendar_schema() == CALENDAR_SCHEMA


def test_answer_schema_plain_families():
    for family in ("arithmetic_two_step", "symbolic_string", "object_tracking",
                   "boolean_logic"):
        schema = answer_schema(family)
        validate_schema(None, schema)
        assert schema["required"] == ["answer"]
        assert schema["additionalProperties"] is False
        assert validate_schema({"answer": "9"}, schema) == []
        assert validate_schema({"answer": "9", "x": 1}, schema) != []
        assert validate_schema({}, schema) != []


def test_answer_schema_tool_family_is_calendar_object():
    assert answer_schema("tool_call_argument") == CALENDAR_SCHEMA


def test_rationale_schema():
    schema = rationale_answer_schema("boolean_logic")
    validate_schema(None, schema)
    assert schema["required"] == ["rationale", "answer"]
    assert validate_schema({"rationale": "because", "answer": "true"}, schema) == []
    assert validate_schema({"answer": "true"}, schema) != []


def test_rationale_schema_tool_family():
    schema = rationale_answer_schema("tool_call_argument")
    validate_schema(None, schema)
    assert "rationale" in schema["required"]
    assert "tool" in schema["required"] and "arguments" in schema["required"]
    ok = {"rationale": "r", "tool": "create_calendar_event",
          "arguments": {"title": "t", "date": "2025-01-02", "start_time": "09:00",
                        "duration_minutes": 30, "attendee": "ann", "topic": "x"}}
    assert validate_schema(ok, schema) == []


def test_typed_trace_schema_per_family():
    for family in FAMILIES:
        schema = typed_trace_schema(family)
        validate_schema(None, schema)
        ops = schema["properties"]["steps"]["items"]["properties"]["op"]["enum"]
        assert tuple(ops) == TRACE_OPS[family]
        doc = {"steps": [{"op": ops[0], "output": "x"}], "answer": "x"}
        assert validate_schema(doc, schema) == []
        bad = {"steps": [{"op": "bogus", "output": "x"}], "answer": "x"}
        assert validate_schema(bad, schema) != []


def test_all_scoring_schemas_stay_in_subset():
    for family in FAMILIES:
        for mode in MODE_NAMES:
            constraint = scoring_constraint(mode, family)
            if constraint.schema is not None:
                validate_schema(None, constraint.schema)


# ---------------------------------------------------------------------------
# scoring vs transported constraints
# ---------------------------------------------------------------------------

def test_prompt_json_scored_but_not_transported():
    scoring = scoring_constraint("prompt_json", "boolean_logic")
    transported = transported_constraint("prompt_json", "boolean_logic")
    assert scoring.kind == "schema" and scoring.schema is not None
    assert transported.kind == "none"


def test_hard_modes_transport_their_constraint():
    for mode in ("answer_only_schema", "rationale_answer_schema",
                 "typed_trace_schema"):
        transported = transported_constraint(mode, "arithmetic_two_step")
        assert transported.kind == "schema"
        assert transported.schema == scoring_constraint(mode, "arithmetic_two_step").schema
    regex = transported_constraint("final_only_regex", "boolean_logic")
    assert regex.kind == "regex" and regex.pattern == "^(true|false)$"


def test_delayed_transport_by_stage():
    stage1 = transported_constraint("delayed_constraint", "boolean_logic", "stage1")
    stage2 = transported_constraint("delayed_constraint", "boolean_logic", "stage2")
    assert stage1.kind == "none"
    assert stage2.kind == "schema"
    assert stage2.schema == answer_schema("boolean_logic")


def test_constraint_digest_stable():
    a = scoring_constraint("answer_only_schema", "boolean_logic").digest()
    b = scoring_constraint("answer_only_schema", "boolean_logic").digest()
    assert a == b
    # plain families share the answer-only schema; the tool family does not
    c = scoring_constraint("answer_only_schema", "arithmetic_two_step").digest()
    d = scoring_constraint("answer_only_schema", "tool_call_argument").digest()
    assert a == c and a != d
    e = scoring_constraint("typed_trace_schema", "boolean_logic").digest()
    f = scoring_constraint("typed_trace_schema", "arithmetic_two_step").digest()
    assert e != f
    g = scoring_constraint("final_only_regex", "boolean_logic").digest()
    h = scoring_constraint("final_only_regex", "arithmetic_two_step").digest()
    assert g is not None and g == scoring_constraint("final_only_regex", "boolean_logic").digest()
    assert g != h and g not in (a, d, e, f)
    assert scoring_constraint("freeform", "boolean_logic").digest() is None


# ---------------------------------------------------------------------------
# prompt construction
# ---------------------------------------------------------------------------

def test_prompt_preserves_problem_text():
    for family in FAMILIES:
        inst = generate_suite(family, 1, seed=21)[0]
        for mode in MODE_NAMES:
            bundle = build_prompt(inst, mode)
            assert inst.problem_text in bundle.user_text
            assert bundle.instance_id == inst.id


# sha256 of the prompts and request bodies built for fixed instances. Records
# do not store prompts, and scripted backends ignore them, so nothing else
# shows a change of a prompt byte.
_GOLDEN_PROMPT_SHA256 = {
    "user_text": "db5ff3a7383e3c9cc50adf9e0b6c5740838c31c307f3a7dc03fb70a96d4358b6",
    "stage2_user_text": "0b628fd4b2ea8c2916e12b26bc691972b6640e5e5d04cc9a4659a430c4ecb4e6",
    "request_body": "2f1bc9adb81117ac8178f457afcc668810982dc69c64fc796b2bdb37efc0ce0b",
}


def _prompt_bundles():
    """Every mode's bundle for two instances of every family, then the
    model-variant stage-2 bundle built from each oracle stage-1 text."""
    instances = [inst for family in FAMILIES for inst in generate_suite(family, 2, seed=21)]
    singles = [build_prompt(inst, mode) for inst in instances for mode in MODE_NAMES]
    stage2 = [build_delayed_stage2(oracle_generate(inst, "delayed_constraint", "stage1"), inst,
                                   "model").stage2_bundle for inst in instances]
    return singles, stage2


def _sha256(texts) -> str:
    return hashlib.sha256("\x00".join(texts).encode("utf-8")).hexdigest()


def test_prompts_and_request_bodies_match_golden_hashes():
    singles, stage2 = _prompt_bundles()
    config = BackendConfig(kind="endpoint", base_url="http://localhost:1", model_id="m")
    bodies = (json.dumps(build_request_body(config, b), sort_keys=True, ensure_ascii=False)
              for b in singles + stage2)
    assert {
        "user_text": _sha256(b.user_text for b in singles),
        "stage2_user_text": _sha256(b.user_text for b in stage2),
        "request_body": _sha256(bodies),
    } == _GOLDEN_PROMPT_SHA256


def test_calendar_object_modes_use_fixed_header_footer():
    inst = generate_suite("tool_call_argument", 1, seed=21)[0]
    for mode in ("prompt_json", "answer_only_schema", "rationale_answer_schema"):
        bundle = build_prompt(inst, mode)
        assert bundle.user_text.startswith("You are a calendar assistant. Return only JSON.")
        assert 'Use tool name "create_calendar_event".' in bundle.user_text


def test_calendar_rationale_prompt_mentions_rationale():
    inst = generate_suite("tool_call_argument", 1, seed=21)[0]
    bundle = build_prompt(inst, "rationale_answer_schema")
    assert "rationale" in bundle.user_text


def test_typed_trace_prompt_lists_family_ops():
    inst = generate_suite("symbolic_string", 1, seed=21)[0]
    bundle = build_prompt(inst, "typed_trace_schema")
    for op in TRACE_OPS["symbolic_string"]:
        assert op in bundle.user_text


def test_freeform_prompt_asks_for_final_line():
    inst = generate_suite("arithmetic_two_step", 1, seed=21)[0]
    bundle = build_prompt(inst, "freeform")
    assert "Final answer:" in bundle.user_text


def test_delayed_stage1_prompt_is_unconstrained():
    inst = generate_suite("arithmetic_two_step", 1, seed=21)[0]
    bundle = build_prompt(inst, "delayed_constraint")
    assert bundle.stage == "stage1"
    assert bundle.constraint.kind == "none"
    assert "schema" not in bundle.user_text.lower()


# ---------------------------------------------------------------------------
# per-mode parsing
# ---------------------------------------------------------------------------

def test_parse_regex_mode():
    ok = parse_for_mode("reasoning...\n42", "final_only_regex", "arithmetic_two_step")
    assert ok.status == "ok" and ok.matched_text == "42"
    bad = parse_for_mode("the answer is 42", "final_only_regex", "arithmetic_two_step")
    assert bad.status == "regex_mismatch" and not bad.valid


def test_parse_object_mode_with_violations():
    out = parse_for_mode('{"answer": 9}', "answer_only_schema", "arithmetic_two_step")
    assert out.ok and not out.valid
    assert any(v.keyword == "type" for v in out.violations)


def test_parse_object_mode_valid():
    out = parse_for_mode('{"answer": "9"}', "answer_only_schema", "arithmetic_two_step")
    assert out.valid


def test_parse_freeform_mode_extracts_embedded_json():
    out = parse_for_mode('thinking {"answer": "9"} done', "freeform",
                         "arithmetic_two_step")
    assert out.ok and out.value == {"answer": "9"}


def test_parse_strict_extraction_rejects_embedded():
    out = parse_for_mode('noise {"answer": "9"} noise', "answer_only_schema",
                         "arithmetic_two_step", strict=True)
    assert not out.ok


# ---------------------------------------------------------------------------
# delayed packaging (deterministic variant)
# ---------------------------------------------------------------------------

def test_package_from_answer_object():
    inst = generate_suite("arithmetic_two_step", 1, seed=31)[0]
    answer = inst.ground_truth.final_answer
    text = f'Step 1: work\n{{"answer": "{answer}"}}'
    outcome = build_delayed_stage2(text, inst, "deterministic")
    assert not outcome.failed
    assert outcome.packaged_text == canonical_serialize({"answer": answer})


def test_package_from_final_line():
    inst = generate_suite("boolean_logic", 1, seed=31)[0]
    answer = inst.ground_truth.final_answer
    text = f"Step 1: evaluate\nFinal answer: {answer}"
    outcome = build_delayed_stage2(text, inst, "deterministic")
    assert not outcome.failed
    assert outcome.packaged_text == canonical_serialize({"answer": answer})


def test_package_idempotent():
    inst = generate_suite("symbolic_string", 1, seed=31)[0]
    first = build_delayed_stage2("Final answer: tg", inst, "deterministic")
    second = build_delayed_stage2(first.packaged_text, inst, "deterministic")
    assert not second.failed
    assert second.packaged_text == first.packaged_text


def test_package_tool_family_requires_object():
    inst = generate_suite("tool_call_argument", 1, seed=31)[0]
    obj_text = inst.ground_truth.final_answer
    ok = build_delayed_stage2(f"The call: {obj_text}", inst, "deterministic")
    assert not ok.failed and ok.packaged_text == obj_text
    bare = build_delayed_stage2("Final answer: schedule it", inst, "deterministic")
    assert bare.failed


def test_package_blank_text_fails():
    inst = generate_suite("arithmetic_two_step", 1, seed=31)[0]
    assert build_delayed_stage2("", inst, "deterministic").failed


def test_package_repairs_noisy_answer_object():
    # extra keys are dropped and the answer coerced to the schema's string form
    inst = generate_suite("arithmetic_two_step", 1, seed=31)[0]
    outcome = build_delayed_stage2('{"answer": 9, "junk": 1}', inst, "deterministic")
    assert not outcome.failed
    assert outcome.packaged_text == canonical_serialize({"answer": "9"})


def test_package_invalid_tool_object_fails():
    inst = generate_suite("tool_call_argument", 1, seed=31)[0]
    outcome = build_delayed_stage2('{"tool": "create_calendar_event"}', inst,
                                   "deterministic")
    assert outcome.failed


def test_package_model_variant_builds_stage2_bundle():
    inst = generate_suite("arithmetic_two_step", 1, seed=31)[0]
    stage1 = "Step 1: compute\nFinal answer: 7"
    outcome = build_delayed_stage2(stage1, inst, "model")
    bundle = outcome.stage2_bundle
    assert bundle is not None
    assert bundle.stage == "stage2"
    assert bundle.mode == "delayed_constraint"
    assert stage1 in bundle.user_text
    assert bundle.constraint.kind == "schema"


def test_package_unknown_variant():
    inst = generate_suite("arithmetic_two_step", 1, seed=31)[0]
    with pytest.raises(ConfigError):
        build_delayed_stage2("Final answer: 7", inst, "other")
