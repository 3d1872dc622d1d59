"""JSON extraction, schema-subset validation, normalization, canonical form.

This module owns the measurement-critical text handling: how a raw model
completion becomes a parsed value, how that value is judged against a
schema or regex constraint, and how answers are normalized before
comparison. All of it is deliberately small and exactly specified, because
schema validity is itself a reported metric rather than mere plumbing.

Each job is done once: extraction finds its candidates in one linear pass,
and validate_schema trusts its schema, because every schema ctax validates
against comes from the fixed builders in modes, which the tests run through
check_schema_doc for every (mode, family).
"""

from __future__ import annotations

import itertools
import json
import math
import re
from typing import Any, Iterator, NamedTuple

from .errors import ConfigError

# Supported schema keywords. Anything else in a schema document is a
# configuration error, never silently ignored.
SCHEMA_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties",
    "pattern", "const", "minimum", "enum", "items",
})

_TYPE_NAMES = frozenset({"object", "array", "string", "integer", "number", "boolean", "null"})

PARSE_OK = "ok"
PARSE_NO_JSON = "no_json_found"
PARSE_MALFORMED = "malformed_json"
PARSE_REGEX_MISMATCH = "regex_mismatch"


class Violation(NamedTuple):
    """One schema violation: a JSON-pointer-style path, the failing keyword,
    and a human-readable message."""

    path: str
    keyword: str
    message: str


class ParseOutcome(NamedTuple):
    status: str  # ok | no_json_found | malformed_json | regex_mismatch
    value: Any = None
    matched_text: str | None = None
    violations: tuple[Violation, ...] = ()

    @property
    def ok(self) -> bool:
        return self.status == PARSE_OK

    @property
    def valid(self) -> bool:
        """Parsed and free of schema violations."""
        return self.status == PARSE_OK and not self.violations


def _reject_constant(name: str) -> None:
    raise ValueError(f"non-finite JSON number: {name}")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):  # 1e400 overflows to inf
        raise ValueError(f"non-finite JSON number: {text}")
    return value


def unique_keys(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """json.loads object_pairs_hook: a key given twice is a ValueError."""
    out: dict[str, Any] = {}
    for key, value in pairs:
        if key in out:
            raise ValueError(f"duplicate object key: {key!r}")
        out[key] = value
    return out


# Built once: json.loads with hooks builds a fresh decoder and scanner per
# call. A decoder keeps no state between calls (json.loads shares one too).
_STRICT_DECODER = json.JSONDecoder(object_pairs_hook=unique_keys,
                                   parse_constant=_reject_constant,
                                   parse_float=_finite_float)


def strict_loads(text: str) -> Any:
    """json.loads with duplicate keys, NaN/Infinity and overflowing numbers
    rejected."""
    return _STRICT_DECODER.decode(text)


_FENCE_RE = re.compile(r"```json\s*\n?(.*?)```", re.DOTALL | re.IGNORECASE)


# A whole string literal (to the end of the text if it never closes).
_STRING_RE = re.compile(r'"[^"\\]*(?:\\.[^"\\]*)*"?', re.DOTALL)
_BRACE_OR_STRING_RE = re.compile(r"[{}]|" + _STRING_RE.pattern, re.DOTALL)


def _balanced_objects(text: str, start: int) -> Iterator[str]:
    """Maximal balanced {...} spans, left to right, from one string-aware pass.

    Quotes count from start, so a brace inside a string literal never opens
    a span; a "}" with no open brace is skipped. Spans that close inside a
    brace that never closes are yielded, in order, when the text runs out.
    """
    while start != -1:
        opens: list[int] = []
        inner: list[tuple[int, int]] = []  # closed spans not inside another closed span
        for m in _BRACE_OR_STRING_RE.finditer(text, start):
            i = m.start()
            if text[i] == "{":
                opens.append(i)
            elif text[i] == "}" and opens:
                first = opens.pop()
                if not opens:  # a top-level object: yield it, jump to the next brace
                    yield text[first:i + 1]
                    start = text.find("{", i + 1)
                    break
                while inner and inner[-1][0] > first:
                    inner.pop()
                inner.append((first, i + 1))
        else:
            yield from (text[first:end] for first, end in inner)
            return


def _candidates(text: str, strict: bool) -> Iterator[str]:
    if strict:
        yield text.strip()
        return
    for m in _FENCE_RE.finditer(text):
        yield m.group(1).strip()
    first = text.find("{")
    yield from _balanced_objects(text, first)
    # Counting quotes from the start changes the spans only when it puts the
    # first "{" inside a string literal; otherwise both passes match alike.
    if first > 0 and any(m.end() > first for m in _STRING_RE.finditer(text, 0, first + 1)):
        yield from _balanced_objects(text, 0)
    yield text.strip()


# Stamped on each record; bump when the candidates change. lenient/v1 restarted
# its scan at every brace after an unclosed one, even inside a string literal;
# lenient/v2 lost the object after a quoted "{" in the prose before it.
LENIENT_EXTRACTION = "lenient/v3"
STRICT_EXTRACTION = "strict/v1"


# The first characters of a JSON value, NaN and Infinity included. Candidates
# are stripped, so a candidate that starts with any other character has no
# value at its start and json would refuse it.
_VALUE_START = frozenset('{["-0123456789tfnNI')


def extract_json(text: str, strict: bool = False) -> ParseOutcome:
    """Pull a JSON value out of a completion.

    Candidate order: (1) fenced ```json blocks, (2) the maximal balanced
    {...} spans of a string-aware pass from the first "{", left to right,
    (3) when counting quotes from the start puts that brace inside a string
    literal, the spans of a second pass that counts them so, (4) the whole
    text. The first candidate that parses wins. With strict=True only the
    whole text is tried.

    No candidate parses -> malformed_json when braces were present,
    no_json_found otherwise.

    Without a fence, a stripped text that starts with "{" is tried first:
    if it parses, it is also the first balanced span, so the walk would
    pick it anyway; if not, the walk skips every candidate equal to it.
    """
    candidates = _candidates(text, strict)
    whole = text.strip()
    if not strict and whole.startswith("{") and "```" not in text:
        candidates = itertools.chain((whole,), (c for c in candidates if c != whole))
    for candidate in candidates:
        if not candidate or candidate[0] not in _VALUE_START:
            continue  # cannot parse: spares building a JSONDecodeError for prose
        try:
            value = strict_loads(candidate)
        except (ValueError, RecursionError):  # RecursionError: nesting too deep
            continue
        return ParseOutcome(status=PARSE_OK, value=value, matched_text=candidate)
    status = PARSE_MALFORMED if "{" in text else PARSE_NO_JSON
    return ParseOutcome(status=status)


def check_schema_doc(schema: Any) -> None:
    """Reject schema documents outside the supported subset (ConfigError)."""
    if not isinstance(schema, dict):
        raise ConfigError(f"schema document must be an object, got {type(schema).__name__}")
    for keyword, arg in schema.items():
        if keyword not in SCHEMA_KEYWORDS:
            raise ConfigError(f"unsupported schema keyword: {keyword!r}")
        if keyword == "type":
            if arg not in _TYPE_NAMES:
                raise ConfigError(f"unsupported type name: {arg!r}")
        elif keyword == "required":
            if not isinstance(arg, list) or not all(isinstance(k, str) for k in arg):
                raise ConfigError("required must be a list of property names")
        elif keyword == "properties":
            if not isinstance(arg, dict):
                raise ConfigError("properties must be an object")
            for sub in arg.values():
                check_schema_doc(sub)
        elif keyword == "additionalProperties":
            if arg is not False:
                raise ConfigError("additionalProperties supports only false")
        elif keyword == "pattern":
            if not isinstance(arg, str):
                raise ConfigError("pattern must be a string")
            try:
                re.compile(arg)
            except re.error as exc:
                raise ConfigError(f"pattern does not compile: {exc}") from exc
        elif keyword == "minimum":
            if not isinstance(arg, (int, float)) or isinstance(arg, bool):
                raise ConfigError("minimum must be a number")
        elif keyword == "enum":
            if not isinstance(arg, list) or not arg:
                raise ConfigError("enum must be a non-empty list")
        elif keyword == "items":
            check_schema_doc(arg)


def _type_ok(value: Any, name: str) -> bool:
    if name == "object":
        return isinstance(value, dict)
    if name == "array":
        return isinstance(value, list)
    if name == "string":
        return isinstance(value, str)
    if name == "boolean":
        return isinstance(value, bool)
    if name == "null":
        return value is None
    if name == "integer":
        # JSON has no bool/int conflation; Python does, so guard it.
        return isinstance(value, int) and not isinstance(value, bool)
    if name == "number":
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    raise ConfigError(f"unsupported type name: {name!r}")


def _json_equal(a: Any, b: Any) -> bool:
    if isinstance(a, bool) != isinstance(b, bool):
        return False
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if type(a) is not type(b):
        return False
    if isinstance(a, list):
        return len(a) == len(b) and all(_json_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_json_equal(v, b[k]) for k, v in a.items())
    return a == b


def _is_number(value: Any) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def validate_schema(value: Any, schema: dict) -> list[Violation]:
    """Validate a parsed value against a subset schema.

    Pattern keywords use search semantics: a pattern constrains the whole
    string only when it is anchored in the pattern text itself. Integer
    means no fractional part and not a boolean. Returns all violations,
    each with a path like "/arguments/date" ("" for the root).

    The schema is trusted: ctax validates only against the schemas that
    modes builds for each (mode, family), which the tests run through
    check_schema_doc.
    """
    out: list[Violation] = []
    _validate(value, schema, "", out)
    return out


def _validate(value: Any, schema: dict, path: str, out: list[Violation]) -> None:
    type_name = schema.get("type")
    if type_name is not None and not _type_ok(value, type_name):
        out.append(Violation(path, "type", f"expected {type_name}, got {_describe(value)}"))
        return  # further keywords would only cascade on the wrong type
    if "const" in schema and not _json_equal(value, schema["const"]):
        out.append(Violation(path, "const", f"expected {schema['const']!r}"))
    if "enum" in schema and not any(_json_equal(value, v) for v in schema["enum"]):
        out.append(Violation(path, "enum", f"value not in {schema['enum']!r}"))
    if "pattern" in schema and isinstance(value, str):
        if re.search(schema["pattern"], value) is None:
            out.append(Violation(path, "pattern", f"{value!r} does not match /{schema['pattern']}/"))
    if "minimum" in schema and _is_number(value) and value < schema["minimum"]:
        out.append(Violation(path, "minimum", f"{value} < {schema['minimum']}"))
    if isinstance(value, dict):
        properties = schema.get("properties", {})
        for key in schema.get("required", []):
            if key not in value:
                out.append(Violation(path, "required", f'missing required property "{key}"'))
        for key, sub in properties.items():
            if key in value:
                _validate(value[key], sub, f"{path}/{key}", out)
        if schema.get("additionalProperties") is False:
            for key in value:
                if key not in properties:
                    out.append(Violation(f"{path}/{key}", "additionalProperties",
                                         "property not allowed"))
    if isinstance(value, list) and "items" in schema:
        for index, item in enumerate(value):
            _validate(item, schema["items"], f"{path}/{index}", out)


def _describe(value: Any) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "boolean"
    if isinstance(value, (int, float)):
        return "number"
    return type(value).__name__


def validate_regex(text: str, pattern: str) -> bool:
    """Anchored full-match over the candidate answer, trailing whitespace
    stripped first."""
    return re.fullmatch(pattern, text.rstrip()) is not None


_FINAL_ANSWER_RE = re.compile(r"final answer(?:\s+is)?\s*[:\-]?\s*(.*)$", re.IGNORECASE)


def extract_final_answer(text: str) -> str | None:
    """Freeform answer extraction: the last line matching "final answer"
    (case-insensitive), else the last non-empty line. None if nothing
    extractable."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return None
    for line in reversed(lines):
        m = _FINAL_ANSWER_RE.search(line)
        if m:
            remainder = m.group(1).strip()
            if remainder:
                return remainder
    return lines[-1].strip()


def normalize_answer(text: object, family: str | None = None) -> str:
    """Trim and lowercase; arithmetic answers additionally drop thousands
    separators, leading '+' signs, a trailing '.0', and map '-0' to '0'.
    Idempotent by construction."""
    s = str(text).strip().lower()
    if family == "arithmetic_two_step":
        s = s.replace(",", "")
        s = s.lstrip("+")
        if s.endswith(".0"):
            s = s[:-2]
        if s == "-0":
            s = "0"
    return s


# Built once, like _STRICT_DECODER; it checks for cycles on every call.
_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      ensure_ascii=False, allow_nan=False)


def canonical_serialize(value: Any) -> str:
    """Canonical JSON text: keys sorted at every depth, no insignificant
    whitespace, UTF-8 verbatim, non-finite numbers and cycles rejected
    (ValueError)."""
    return _CANONICAL_ENCODER.encode(value)


def canonical_digest(value: Any, length: int = 12) -> str:
    import hashlib

    return hashlib.sha256(canonical_serialize(value).encode("utf-8")).hexdigest()[:length]

