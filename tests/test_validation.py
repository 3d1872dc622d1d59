"""JSON extraction, schema subset validation, normalization, canonical form."""

from __future__ import annotations

import copy
import math
import time

import pytest

from ctax import validation
from ctax.errors import ConfigError
from ctax.validation import (
    canonical_digest,
    canonical_serialize,
    extract_final_answer,
    extract_json,
    normalize_answer,
    strict_loads,
    validate_regex,
    validate_schema,
)
from reference_extraction import walk_extract_json
from reference_validator import enumerate_pairs, reference_validate


# ---------------------------------------------------------------------------
# strict_loads
# ---------------------------------------------------------------------------

def test_strict_loads_plain_object():
    assert strict_loads('{"a": 1, "b": [true, null]}') == {"a": 1, "b": [True, None]}


def test_strict_loads_rejects_duplicate_keys():
    with pytest.raises(ValueError):
        strict_loads('{"a": 1, "a": 2}')


def test_strict_loads_rejects_nested_duplicate_keys():
    with pytest.raises(ValueError):
        strict_loads('{"outer": {"a": 1, "a": 2}}')


def test_strict_loads_rejects_non_finite():
    for text in ("NaN", "Infinity", "-Infinity", '{"x": NaN}', "[Infinity]"):
        with pytest.raises(ValueError):
            strict_loads(text)


# ---------------------------------------------------------------------------
# extract_json
# ---------------------------------------------------------------------------

def test_extract_whole_text_object():
    out = extract_json('{"answer": "9"}')
    assert out.ok and out.value == {"answer": "9"}


def test_extract_fenced_block_wins_over_inline():
    text = 'ignore {"answer": "1"}\n```json\n{"answer": "2"}\n```\ntail'
    out = extract_json(text)
    assert out.ok and out.value == {"answer": "2"}


def test_extract_fenced_block_case_insensitive():
    text = '```JSON\n{"answer": "3"}\n```'
    out = extract_json(text)
    assert out.ok and out.value == {"answer": "3"}


def test_extract_balanced_object_from_prose():
    text = 'The result is {"answer": "42"} as computed above.'
    out = extract_json(text)
    assert out.ok and out.value == {"answer": "42"}


def test_extract_first_balanced_object():
    text = 'a {"answer": "1"} b {"answer": "2"}'
    out = extract_json(text)
    assert out.value == {"answer": "1"}


def test_extract_braces_inside_strings_do_not_split_objects():
    text = 'x {"answer": "a}b", "note": "{"} y'
    out = extract_json(text)
    assert out.ok and out.value == {"answer": "a}b", "note": "{"}


def test_extract_nested_object():
    text = 'call: {"tool": "t", "arguments": {"duration_minutes": 30}} done'
    out = extract_json(text)
    assert out.ok and out.value["arguments"] == {"duration_minutes": 30}


def test_extract_malformed_when_brace_present():
    out = extract_json('{"answer": broken')
    assert not out.ok and out.status == "malformed_json"


def test_extract_no_json_found():
    out = extract_json("the answer is nine")
    assert not out.ok and out.status == "no_json_found"


def test_extract_empty_text():
    assert extract_json("").status == "no_json_found"


def test_extract_duplicate_keys_malformed():
    out = extract_json('{"a": 1, "a": 2}')
    assert out.status == "malformed_json"


def test_extract_strict_whole_text_only():
    ok = extract_json('{"answer": "9"}', strict=True)
    assert ok.ok
    embedded = extract_json('text {"answer": "9"} text', strict=True)
    assert not embedded.ok and embedded.status == "malformed_json"
    absent = extract_json("no braces here", strict=True)
    assert absent.status == "no_json_found"


def test_extract_strict_tolerates_surrounding_whitespace():
    out = extract_json('  {"answer": "9"}\n', strict=True)
    assert out.ok


def test_extract_non_object_top_level():
    # arrays and scalars parse but are not objects; extraction still reports them
    out = extract_json("[1, 2]")
    assert out.ok and out.value == [1, 2]


def test_extract_brace_inside_string_never_starts_a_candidate():
    # quotes count from the first open brace, which never closes here, so
    # the second brace sits inside a string literal
    assert extract_json('{"a": "{"b": 1}').status == "malformed_json"


@pytest.mark.parametrize("text", [
    'The "{" opens it: {"answer": "4"}',
    'Note: "{" then {"answer": "4"}',
    'Note: "{" then The answer is {"answer": "4"}.',
    'A "}" and a "{" come first: {"answer": "4"}',
    'Unmatched } and "{" first: {"answer": "4"}',
])
def test_extract_keeps_an_object_after_a_quoted_brace(text):
    # quotes count from the start of the text in a second pass, which runs
    # only when counting them so puts the first "{" inside a string literal
    out = extract_json(text)
    assert out.ok and out.value == {"answer": "4"} and out.matched_text == '{"answer": "4"}'


def test_extract_second_pass_runs_only_after_a_quote_before_the_first_brace():
    # without one it would only repeat the first pass's spans
    text = 'x {"a": 1, "a": 2}'
    assert list(validation._candidates(text, strict=False)) == ['{"a": 1, "a": 2}', text]
    text = 'The "{" opens it: {"answer": "4"}'
    assert list(validation._candidates(text, strict=False)) == ['{"answer": "4"}', text]


@pytest.mark.parametrize("text", [
    '{"a": {"answer": "42"}',
    'Sure: {"answer": "42"} and {',
])
def test_extract_spans_inside_an_unclosed_brace_still_parse(text):
    out = extract_json(text)
    assert out.ok and out.value == {"answer": "42"}


@pytest.mark.parametrize("text", [
    '{"' * 20000,
    "{" * 100000,
    '{"a":' * 30000,
    "```json\n{" * 10000,
    '"{' * 20000,
    '"}' + '"{' * 20000,
], ids=["brace-quote", "braces", "nested-keys", "fences", "quote-brace", "quote-close-brace"])
def test_extract_is_linear_on_unclosed_braces(text):
    started = time.perf_counter()
    assert extract_json(text).status == "malformed_json"
    assert time.perf_counter() - started < 1.0


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    st = None


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_extract_json_properties_over_brace_heavy_text():
    texts = st.lists(st.sampled_from(['{', '}', '"', '\\', '[', ']', ':', ',', ' ', 'a',
                                      '1', '\n', '"a"', '```json\n', '```']),
                     max_size=40).map("".join)

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(texts)
    def check(text):
        out = extract_json(text)
        assert out.status in ("ok", "malformed_json", "no_json_found")
        if out.ok:
            assert out.matched_text in text
            assert strict_loads(out.matched_text) == out.value

    check()


_DEEP = '{"a":' * 100_000 + "1" + "}" * 100_000


@pytest.mark.parametrize("text", [
    # a fence inside a JSON string still comes first
    '{"answer": "```json\n{\"a\": 1}\n```"}',
    '{"answer": "```json 7 ```"}',  # the whole text parses, but the fence wins
    '\u00a0{"answer": "4"}',
    '\u2028{"answer": "4"}\u2028',
    ' \t\n{"answer": "4"}\r\n',
    '\ufeff{"answer": "4"}',
    '{"answer": "4"}\ufeff',
    '{"a": 1, "a": 2}',
    '{"a": 1, "a": 2} then {"b": 2}',
    '{"a": NaN}',
    '{"a": 1e400}',
    '{"a": 1} {"b": 2}',
    '{"a": 1} trailing prose',
    '{"a": "unclosed',
    "{}",
    _DEEP,
    '{"x": ' + _DEEP + "}",
    "The answer is 4.",
    "Answer: 4 (see {the table} above)",
    "\ufeff42",
    "\ufeff The answer is 4.",
    "42",
    " -1.5e3 ",
    "true",
    "null",
    '"4"',
    "[1, 2]",
    "NaN",
    "Infinity",
], ids=["fence-in-string", "fence-beats-whole", "nbsp", "line-separator", "json-whitespace",
        "leading-bom", "trailing-bom", "duplicate-keys", "duplicate-then-object", "nan",
        "overflow", "two-objects", "object-then-prose", "unclosed-string", "empty-object",
        "deep", "deep-inside", "prose", "prose-with-braces", "bom-number", "bom-prose",
        "bare-number", "bare-negative", "bare-true", "bare-null", "bare-string",
        "bare-list", "bare-nan", "bare-infinity"])
@pytest.mark.parametrize("strict", [False, True])
def test_extract_json_matches_the_candidate_walk(text, strict):
    assert extract_json(text, strict=strict) == walk_extract_json(text, strict=strict)


def test_fence_inside_a_string_still_wins():
    out = extract_json('{"answer": "```json\n{\"a\": 1}\n```"}')
    assert out.ok and out.value == {"a": 1} and out.matched_text == '{"a": 1}'
    out = extract_json('{"answer": "```json 7 ```"}')
    assert out.ok and out.value == 7 and out.matched_text == "7"


def test_prose_is_never_handed_to_the_parser(monkeypatch):
    seen = []

    def counting_loads(text):
        seen.append(text)
        return strict_loads(text)

    monkeypatch.setattr(validation, "strict_loads", counting_loads)
    assert extract_json("The answer is 4.").status == "no_json_found"
    assert extract_json("Answer: {4} or {x: 1}").status == "malformed_json"
    assert seen == ["{4}", "{x: 1}"]  # the balanced spans, not the whole text


def test_no_candidate_text_is_parsed_twice(monkeypatch):
    seen = []

    def counting_loads(text):
        seen.append(text)
        return strict_loads(text)

    monkeypatch.setattr(validation, "strict_loads", counting_loads)
    for text in ['{"a": 1, "a": 2}', ' {"a": NaN} ', '{"a": 1} {"b": 2}', _DEEP,
                 '{"answer": "4"}', 'say {"a": 1, "a": 2}', '"x" {"a": 1, "a": 2}']:
        seen.clear()
        assert extract_json(text) == walk_extract_json(text)
        assert len(seen) == len(set(seen)), text
    seen.clear()
    assert extract_json('{"answer": "4"}').ok
    assert seen == ['{"answer": "4"}']  # the whole text, not a search first


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_extract_json_equals_the_candidate_walk_on_any_text():
    pieces = st.sampled_from([
        "{", "}", '"', "\\", "[", "]", ":", ",", " ", "\n", "\t", "\r", "\u00a0", "\u2028",
        "\ufeff", "a", "1", "-", ".", "e", '"a"', '"\\"', "```", "```json", "```json\n",
        "NaN", "null", '{"a": 1}', '{"answer": "4"}', '"answer"', "{}",
    ])
    texts = st.lists(pieces, max_size=30).map("".join)

    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    @given(texts, st.booleans())
    def check(text, strict):
        assert extract_json(text, strict=strict) == walk_extract_json(text, strict=strict)

    check()


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_canonical_serialize_is_a_fixpoint_through_strict_loads():
    values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False, allow_infinity=False)
        | st.text(max_size=8),
        lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                    max_size=3),
        max_leaves=10)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(values)
    def check(value):
        text = canonical_serialize(value)
        assert canonical_serialize(strict_loads(text)) == text

    check()


# ---------------------------------------------------------------------------
# schema document checking
# ---------------------------------------------------------------------------

def test_validate_schema_accepts_subset():
    validate_schema(None, {
        "type": "object",
        "required": ["answer"],
        "properties": {"answer": {"type": "string", "pattern": "^[a-z]+$"}},
        "additionalProperties": False,
    })


def test_validate_schema_rejects_unknown_keyword():
    with pytest.raises(ConfigError):
        validate_schema(None, {"type": "object", "maxLength": 4})


def test_validate_schema_rejects_nested_unknown_keyword():
    with pytest.raises(ConfigError):
        validate_schema(None, {"properties": {"a": {"anyOf": []}}})


def test_validate_schema_rejects_bad_pattern():
    with pytest.raises(ConfigError):
        validate_schema(None, {"pattern": "["})


def test_validate_schema_rejects_additional_properties_true():
    with pytest.raises(ConfigError):
        validate_schema(None, {"additionalProperties": True})


# Each kind of node outside the subset: not an object, a keyword the subset
# lacks, and each keyword's argument of the wrong form
_OUTSIDE_THE_SUBSET = [
    [], "object", None,
    {"maxLength": 3}, {"anyOf": [{"type": "string"}]}, {"$ref": "#"},
    {"type": "float"}, {"type": None}, {"type": ["string", "null"]},
    {"required": "answer"}, {"required": [1]},
    {"properties": [["a", {}]]},
    {"additionalProperties": True}, {"additionalProperties": {"type": "string"}},
    {"pattern": 3}, {"pattern": "["},
    {"minimum": "0"}, {"minimum": True},
    {"enum": []}, {"enum": "ab"},
]


@pytest.mark.parametrize("node", _OUTSIDE_THE_SUBSET, ids=repr)
def test_a_node_outside_the_subset_is_refused_at_every_depth(node):
    for schema in (node, {"type": "object", "properties": {"a": node}}, {"items": node},
                   {"items": {"properties": {"b": {"items": node}}}}):
        with pytest.raises(ConfigError):
            validate_schema(None, schema)
        with pytest.raises(ConfigError):
            validate_schema({"a": [{"b": [1]}]}, schema)


@pytest.mark.parametrize("value, schema", [
    (1234, {"type": "integer", "maxLength": 3}),
    ({"a": 1}, {"type": "object", "properties": {"a": {"anyOf": [{"type": "string"}]}}}),
    ({"a": 1, "b": 2}, {"type": "object", "additionalProperties": {"type": "string"}}),
], ids=["maxLength", "nested anyOf", "additionalProperties schema"])
def test_validate_schema_refuses_a_keyword_it_cannot_enforce(value, schema):
    # a guided decoder would enforce each of these, so skipping it would
    # judge an output valid that the decoder could never have produced
    with pytest.raises(ConfigError):
        validate_schema(value, schema)


# ---------------------------------------------------------------------------
# validate_schema
# ---------------------------------------------------------------------------

def test_validate_type_and_required():
    schema = {"type": "object", "required": ["answer"],
              "properties": {"answer": {"type": "string"}}}
    assert validate_schema({"answer": "x"}, schema) == []
    missing = validate_schema({}, schema)
    assert missing and missing[0].keyword == "required"
    wrong_type = validate_schema({"answer": 3}, schema)
    assert wrong_type and wrong_type[0].keyword == "type"
    assert wrong_type[0].path == "/answer"


def test_validate_additional_properties():
    schema = {"type": "object", "properties": {"a": {}},
              "additionalProperties": False}
    assert validate_schema({"a": 1}, schema) == []
    extra = validate_schema({"a": 1, "b": 2}, schema)
    assert extra and extra[0].keyword == "additionalProperties"


def test_validate_pattern_search_vs_anchored():
    assert validate_schema("xbx", {"pattern": "b"}) == []
    assert validate_schema("xbx", {"pattern": "^b$"}) != []
    assert validate_schema("b", {"pattern": "^b$"}) == []


def test_validate_pattern_ignored_on_non_strings():
    assert validate_schema(5, {"pattern": "^[a-z]+$"}) == []


def test_validate_integer_excludes_bool_and_float():
    assert validate_schema(3, {"type": "integer"}) == []
    assert validate_schema(True, {"type": "integer"}) != []
    assert validate_schema(3.0, {"type": "integer"}) != []


def test_validate_number_excludes_bool():
    assert validate_schema(3, {"type": "number"}) == []
    assert validate_schema(2.5, {"type": "number"}) == []
    assert validate_schema(False, {"type": "number"}) != []


def test_validate_const_bool_guard():
    assert validate_schema(True, {"const": True}) == []
    assert validate_schema(1, {"const": True}) != []
    assert validate_schema(True, {"const": 1}) != []
    assert validate_schema(1.0, {"const": 1}) == []


def test_validate_enum():
    schema = {"enum": ["a", 2, None]}
    assert validate_schema("a", schema) == []
    assert validate_schema(2, schema) == []
    assert validate_schema(None, schema) == []
    assert validate_schema(True, schema) != []
    assert validate_schema("b", schema) != []


def test_validate_minimum_inclusive():
    assert validate_schema(0, {"minimum": 0}) == []
    assert validate_schema(-1, {"minimum": 0}) != []
    assert validate_schema("abc", {"minimum": 0}) == []  # vacuous off-type


def test_validate_items():
    schema = {"type": "array", "items": {"type": "integer"}}
    assert validate_schema([1, 2], schema) == []
    bad = validate_schema([1, "x"], schema)
    assert bad and bad[0].path == "/1"


def test_validate_nested_path_reporting():
    schema = {"type": "object", "properties": {
        "arguments": {"type": "object", "properties": {
            "date": {"type": "string", "pattern": "^\\d{4}-\\d{2}-\\d{2}$"}}}}}
    bad = validate_schema({"arguments": {"date": "2025-3-01"}}, schema)
    assert bad and bad[0].path == "/arguments/date" and bad[0].keyword == "pattern"


def test_validate_type_mismatch_short_circuits_children():
    schema = {"type": "object", "required": ["a"],
              "properties": {"a": {"type": "string"}}}
    violations = validate_schema("not an object", schema)
    assert len(violations) == 1 and violations[0].keyword == "type"


def test_validate_collects_multiple_violations():
    schema = {"type": "object", "required": ["a", "b"],
              "properties": {"a": {"type": "string"}},
              "additionalProperties": False}
    violations = validate_schema({"a": 1, "z": 2}, schema)
    keywords = sorted(v.keyword for v in violations)
    assert keywords == ["additionalProperties", "required", "type"]


def test_a_schema_at_a_dropped_schemas_id_gets_its_own_verdict(monkeypatch):
    """The cache confirms an entry found at a schema's id by identity: an
    entry there that holds another schema (as if that one had been dropped
    and its memory taken over) is compiled again, not used."""
    schema, dropped = {"type": "integer"}, {"type": "string"}
    monkeypatch.setitem(validation._COMPILED, id(schema),
                        (dropped, validation._compile(dropped)))
    assert validate_schema("x", schema) == [
        validation.Violation("", "type", "expected integer, got str")]
    assert validation._COMPILED[id(schema)][0] is schema


def test_the_schema_cache_stays_bounded_over_criterion_8s_pairs():
    pairs = enumerate_pairs()
    assert len(pairs) == 12_958
    for value, schema in pairs:
        fresh = copy.deepcopy(schema)  # a schema never seen: each call compiles
        assert (not validate_schema(value, fresh)) == reference_validate(value, schema)
        assert len(validation._COMPILED) <= validation._COMPILED_MAX


# ---------------------------------------------------------------------------
# validate_regex
# ---------------------------------------------------------------------------

def test_regex_full_match_only():
    assert validate_regex("42", "^-?\\d+$")
    assert not validate_regex("42 balls", "^-?\\d+$")
    assert not validate_regex("x42", "^-?\\d+$")


def test_regex_trailing_whitespace_tolerated():
    assert validate_regex("42\n", "^-?\\d+$")
    assert validate_regex("true  ", "^(true|false)$")
    assert not validate_regex("  42", "^-?\\d+$")  # leading space is content


# ---------------------------------------------------------------------------
# final answer extraction
# ---------------------------------------------------------------------------

def test_final_answer_labeled_line():
    text = "Step 1: 3 + 5 = 8\nStep 2: 8 + 2 = 10\nFinal answer: 9"
    assert extract_final_answer(text) == "9"


def test_final_answer_is_variant():
    assert extract_final_answer("the final answer is 42") == "42"


def test_final_answer_case_insensitive():
    assert extract_final_answer("FINAL ANSWER: true") == "true"


def test_final_answer_last_label_wins():
    text = "Final answer: 1\nwait\nFinal answer: 2"
    assert extract_final_answer(text) == "2"


def test_final_answer_falls_back_to_last_line():
    assert extract_final_answer("some reasoning\n9") == "9"


def test_final_answer_blank_text_none():
    assert extract_final_answer("") is None
    assert extract_final_answer("  \n\n  ") is None


# ---------------------------------------------------------------------------
# answer normalization
# ---------------------------------------------------------------------------

def test_normalize_strip_lower():
    assert normalize_answer("  Eve ") == "eve"
    assert normalize_answer("TRUE") == "true"


def test_normalize_arithmetic_forms():
    family = "arithmetic_two_step"
    assert normalize_answer("1,234", family) == "1234"
    assert normalize_answer("+9", family) == "9"
    assert normalize_answer("9.0", family) == "9"
    assert normalize_answer("-0", family) == "0"
    assert normalize_answer(" 12 ", family) == "12"


def test_normalize_idempotent():
    samples = ["  Eve ", "TRUE", "1,234", "+9", "9.0", "-0", "tg", "9 balls",
               "{\"answer\":\"x\"}", ""]
    for family in (None, "arithmetic_two_step", "boolean_logic"):
        for sample in samples:
            once = normalize_answer(sample, family)
            assert normalize_answer(once, family) == once


# ---------------------------------------------------------------------------
# canonical serialization
# ---------------------------------------------------------------------------

def test_canonical_sorted_and_compact():
    obj = {"b": 1, "a": {"d": 2, "c": [3, 4]}}
    assert canonical_serialize(obj) == '{"a":{"c":[3,4],"d":2},"b":1}'


def test_canonical_preserves_unicode():
    assert canonical_serialize({"t": "café"}) == '{"t":"café"}'


def test_canonical_rejects_non_finite():
    with pytest.raises(ValueError):
        canonical_serialize({"x": math.nan})
    with pytest.raises(ValueError):
        canonical_serialize({"x": math.inf})


def test_canonical_rejects_a_cycle():
    cyclic: dict = {"a": 1}
    cyclic["self"] = cyclic
    with pytest.raises(ValueError):
        canonical_serialize(cyclic)
    listed: list = []
    listed.append(listed)
    with pytest.raises(ValueError):
        canonical_serialize({"x": listed})
    assert canonical_serialize({"a": [1, {"b": None}]}) == '{"a":[1,{"b":null}]}'


def test_canonical_round_trip_stable():
    obj = {"tool": "create_calendar_event",
           "arguments": {"duration_minutes": 30, "attendee": "leo"}}
    text = canonical_serialize(obj)
    assert canonical_serialize(strict_loads(text)) == text


def test_canonical_digest_is_short_and_stable():
    a = canonical_digest({"x": 1, "y": 2})
    b = canonical_digest({"y": 2, "x": 1})
    assert a == b and len(a) == 12
    assert canonical_digest({"x": 1}) != a
