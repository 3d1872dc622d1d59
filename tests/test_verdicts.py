"""Checker verdicts pinned by a golden table, overflowing JSON numbers,
and verdict invariants over arbitrary text."""

from __future__ import annotations

import json

import pytest

from ctax.checkers import ERROR_CLASSES, score_completion
from ctax.modes import MODE_NAMES, OBJECT_MODES, build_delayed_stage2, parse_for_mode
from ctax.taskgen import FAMILIES, TOOL_NAME, TRACE_OPS, generate_suite
from ctax.validation import extract_json

from verdict_cases import COLUMNS, GOLDEN_PATH, golden_cases, golden_row, verdict

FORMAT_CLASSES = frozenset({"invalid_json", "parse_failure_freeform", "schema_validation_error"})

INSTANCES = {family: generate_suite(family, 1, seed=7)[0] for family in FAMILIES}


def test_golden_verdict_table():
    lines = GOLDEN_PATH.read_text(encoding="utf-8").splitlines()
    assert json.loads(lines[0]) == list(COLUMNS)
    expected = [json.loads(line) for line in lines[1:]]
    got = [golden_row(*case) for case in golden_cases()]
    assert len(got) == len(expected)
    diffs = [(want, have) for want, have in zip(expected, got) if want != have]
    assert not diffs, f"{len(diffs)} rows differ, first: {diffs[0]}"


_OVERFLOW_TEXTS = (
    '{"tool":"%s","arguments":{"duration_minutes":1e400}}' % TOOL_NAME,
    '{"answer": 1e400}',
    '{"answer": "1", "rationale": -1e400}',
)


@pytest.mark.parametrize("family", FAMILIES)
@pytest.mark.parametrize("mode", MODE_NAMES)
def test_overflowing_number_does_not_parse(family, mode):
    """A number that overflows to inf is rejected like NaN: no object
    mode sees a parse, and nothing raises on the way to a verdict."""
    instance = INSTANCES[family]
    for text in _OVERFLOW_TEXTS:
        assert not extract_json(text).ok
        if mode == "delayed_constraint":  # score it the way a run does
            packaged = build_delayed_stage2(text, instance)
            res = verdict(instance, mode, packaged.packaged_text or text, packaged.failed)
        else:
            res = verdict(instance, mode, text, packaging_failed=False)
            if mode in OBJECT_MODES:
                assert res.error_class == "invalid_json", text
        assert res.error_class in ERROR_CLASSES


try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # pragma: no cover - hypothesis is optional
    st = None


@pytest.mark.skipif(st is None, reason="hypothesis is not installed")
def test_verdict_invariants_over_any_text():
    json_values = st.recursive(
        st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False)
        | st.text(max_size=12),
        lambda inner: st.lists(inner, max_size=3)
        | st.dictionaries(st.sampled_from(["answer", "rationale", "steps", "op", "output",
                                           "tool", "arguments", "date", "topic"]),
                          inner, max_size=4),
        max_leaves=8)
    ops = sorted({op for family_ops in TRACE_OPS.values() for op in family_ops})
    traces = st.fixed_dictionaries(
        {"steps": st.lists(st.fixed_dictionaries({"op": st.sampled_from(ops),
                                                  "output": st.text(max_size=6)}),
                           max_size=3),
         "answer": st.text(max_size=6)},
        optional={"note": st.text(max_size=3)})
    pieces = st.one_of(
        st.text(max_size=40),
        json_values.map(json.dumps),
        json_values.map(lambda v: f"```json\n{json.dumps(v)}\n```"),
        st.text(max_size=20).map(lambda t: f"Final answer: {t}"),
        st.sampled_from(["{", "}", "\n", "1e400", '"answer"', TOOL_NAME]),
        traces.map(json.dumps),
    )
    texts = st.lists(pieces, max_size=4).map("".join)

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(texts, st.booleans())
    def check(text, packaging_failed):
        for instance in INSTANCES.values():
            for mode in MODE_NAMES:
                parse = parse_for_mode(text, mode, instance.family)
                res = score_completion(instance, mode, parse, text,
                                       packaging_failed=packaging_failed)
                assert res.error_class in ERROR_CLASSES, (mode, text)
                assert res.schema_valid == (res.error_class not in FORMAT_CLASSES), (mode, text)
                assert not res.exec_correct or res.schema_valid, (mode, text)

    check()
