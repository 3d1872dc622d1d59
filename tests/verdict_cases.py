"""Completion texts that pin checker verdicts, and the golden verdict table.

Every (instance, mode) gets the oracle completion, two corruptor outputs
and hostile variants built from the oracle text: prose around a json
fence, truncation, reordered keys or lines, an injected rationale, a
typed-trace wrapper, null / numeric / empty answers, blank text, calendar
objects with empty or missing semantic fields, and a trace whose last
step contradicts its answer, with and without a schema violation. `checker_verdicts.jsonl` holds the verdicts
for one instance per family; regenerate it with

    PYTHONPATH=src python tests/verdict_cases.py > tests/checker_verdicts.jsonl

only when a verdict is meant to change.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from typing import Iterator

from ctax.backend import FaultProfile, _draw_fault, oracle_generate
from ctax.checkers import score_completion
from ctax.modes import MODE_NAMES, parse_for_mode
from ctax.taskgen import CALENDAR_SEMANTIC_FIELDS, FAMILIES, TOOL_NAME, TaskInstance, generate_suite
from ctax.validation import canonical_serialize, extract_json

GOLDEN_PATH = Path(__file__).with_name("checker_verdicts.jsonl")

COLUMNS = ("family", "mode", "variant", "packaging_failed", "text_sha",
           "schema_valid", "answer_correct", "exec_correct", "trace_correct",
           "error_class", "calendar_failure_class", "calendar_wrong_fields",
           "answer_payload")

_INVALID = FaultProfile(p_invalid_json=1.0, seed=3)
_WRONG = FaultProfile(p_wrong_field=1.0, wrong_field_targets=CALENDAR_SEMANTIC_FIELDS, seed=3)


def corrupt_generate(instance: TaskInstance, mode: str, fault: FaultProfile,
                     stage: str = "single") -> str:
    """The corruptor's completion of (instance, mode, stage) under fault."""
    return _draw_fault(instance, fault)(mode, stage)


def _scored_stage(mode: str) -> str:
    # the delayed mode's scored artifact is its packaged (stage-2) object
    return "stage2" if mode == "delayed_constraint" else "single"


def hostile_texts(instance: TaskInstance, mode: str) -> dict[str, str]:
    """variant name -> completion text for one (instance, mode)."""
    gt = instance.ground_truth
    stage = _scored_stage(mode)
    oracle = oracle_generate(instance, mode, stage)
    parsed = extract_json(oracle, strict=True)
    obj = parsed.value if parsed.ok and isinstance(parsed.value, dict) else None
    payload = gt.exec_target if gt.exec_target is not None else {"answer": gt.final_answer}
    numeric = int(gt.final_answer) if gt.final_answer.lstrip("-").isdigit() else 7
    lines = oracle.splitlines()
    steps = [{"op": s.op_name, "output": s.output} for s in gt.trace]
    float_duration = json.loads(json.dumps(payload))
    if "arguments" in float_duration:
        float_duration["arguments"]["duration_minutes"] = float(
            float_duration["arguments"]["duration_minutes"])
    return {
        "oracle": oracle,
        "malformed": corrupt_generate(instance, mode, _INVALID, stage),
        "wrong_field": corrupt_generate(instance, mode, _WRONG, stage),
        "prose_fence": f"Sure, here it is.\n```json\n{oracle}\n```\nHope that helps.",
        "truncated": oracle[: len(oracle) // 2],
        "shuffled": (json.dumps(dict(reversed(list(obj.items()))), indent=2)
                     if obj is not None else "\n".join(reversed(lines))),
        "rationale_injected": (json.dumps({"rationale": "checked twice", **obj})
                               if obj is not None else f"Rationale: checked twice\n{oracle}"),
        "trace_wrapped": json.dumps({"steps": [{"op": "noop", "output": oracle}],
                                     "answer": oracle}, indent=1),
        "trace_contradiction": json.dumps({"steps": steps, "answer": "zzz"}, indent=1),
        "trace_contradiction_extra_key": json.dumps(
            {"steps": steps, "answer": "zzz", "note": "x"}, indent=1),
        "null_answer": '{"answer": null}',
        "numeric_answer": json.dumps({"answer": numeric}),
        "empty_answer": '{"answer": ""}',
        "blank": " \n\t \n",
        "empty_args": json.dumps({"tool": TOOL_NAME,
                                  "arguments": {f: "" for f in CALENDAR_SEMANTIC_FIELDS}}),
        "title_only": json.dumps({"tool": TOOL_NAME, "arguments": {"title": "sync"}}),
        "final_line_object": f"Reasoning first.\nFinal answer: {canonical_serialize(payload)}",
        "float_duration": json.dumps(float_duration),
    }


def verdict(instance: TaskInstance, mode: str, text: str, packaging_failed: bool,
            strict: bool = False, strict_trace: bool = False):
    """Score `text` the way the harness does: a failed delayed packaging
    scores the stage-1 text's plain extraction, anything else parses under
    the mode's contract."""
    if packaging_failed:
        parse = extract_json(text, strict=strict)
    else:
        parse = parse_for_mode(text, mode, instance.family, strict=strict)
    return score_completion(instance, mode, parse, text, packaging_failed=packaging_failed,
                            strict_trace=strict_trace)


def golden_cases() -> Iterator[tuple[TaskInstance, str, str, str, bool]]:
    """(instance, mode, variant, text, packaging_failed) for one instance
    per family; the delayed mode also scores each text as a failed
    packaging."""
    for family in FAMILIES:
        instance = generate_suite(family, 1, seed=7)[0]
        for mode in MODE_NAMES:
            for variant, text in hostile_texts(instance, mode).items():
                for packaging_failed in ((False, True) if mode == "delayed_constraint"
                                         else (False,)):
                    yield instance, mode, variant, text, packaging_failed


def text_sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:10]


def golden_row(instance: TaskInstance, mode: str, variant: str, text: str,
               packaging_failed: bool) -> list:
    res = verdict(instance, mode, text, packaging_failed)
    return [instance.family, mode, variant, packaging_failed, text_sha(text),
            res.schema_valid, res.answer_correct, res.exec_correct, res.trace_correct,
            res.error_class, res.calendar_failure_class, list(res.calendar_wrong_fields),
            res.answer_payload]


def main() -> None:
    out = sys.stdout
    out.write(json.dumps(list(COLUMNS), separators=(",", ":")) + "\n")
    for case in golden_cases():
        out.write(json.dumps(golden_row(*case), separators=(",", ":"), ensure_ascii=False) + "\n")


if __name__ == "__main__":
    main()
