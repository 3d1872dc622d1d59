"""Reference extract_json: the lenient/v3 candidate walk and nothing else.

extract_json tries a fence-free text that starts with "{" as a whole before
it walks the candidates, and runs the second, quote-from-the-start pass only
when that pass puts the first "{" inside a string literal. This reference
has neither shortcut: it walks every candidate in the ungated order, with the
second pass whenever a '"' comes before the first "{". Agreement between the
two shows the shortcuts change no verdict.
"""

from __future__ import annotations

from typing import Iterator

from ctax.validation import (
    _FENCE_RE,
    PARSE_MALFORMED,
    PARSE_NO_JSON,
    PARSE_OK,
    ParseOutcome,
    _balanced_objects,
    strict_loads,
)


def ungated_candidates(text: str, strict: bool = False) -> Iterator[str]:
    if strict:
        yield text.strip()
        return
    for m in _FENCE_RE.finditer(text):
        yield m.group(1).strip()
    first = text.find("{")
    yield from _balanced_objects(text, first)
    if first > 0 and text.find('"', 0, first) != -1:
        yield from _balanced_objects(text, 0)
    yield text.strip()


def walk_extract_json(text: str, strict: bool = False) -> ParseOutcome:
    """The first candidate, in ungated_candidates order, that strict_loads
    accepts."""
    for candidate in ungated_candidates(text, strict):
        if not candidate:
            continue
        try:
            value = strict_loads(candidate)
        except (ValueError, RecursionError):
            continue
        return ParseOutcome(status=PARSE_OK, value=value, matched_text=candidate)
    return ParseOutcome(status=PARSE_MALFORMED if "{" in text else PARSE_NO_JSON)
