"""Reference extract_json: the lenient/v3 candidate walk and nothing else.

extract_json tries a fence-free text that starts with "{" as a whole before
it walks the candidates. This reference has no such shortcut, so agreement
between the two shows the shortcut changes no verdict.
"""

from __future__ import annotations

from ctax.validation import (
    PARSE_MALFORMED,
    PARSE_NO_JSON,
    PARSE_OK,
    ParseOutcome,
    _candidates,
    strict_loads,
)


def walk_extract_json(text: str, strict: bool = False) -> ParseOutcome:
    """The first candidate, in _candidates order, that strict_loads accepts."""
    for candidate in _candidates(text, strict):
        if not candidate:
            continue
        try:
            value = strict_loads(candidate)
        except (ValueError, RecursionError):
            continue
        return ParseOutcome(status=PARSE_OK, value=value, matched_text=candidate)
    return ParseOutcome(status=PARSE_MALFORMED if "{" in text else PARSE_NO_JSON)
