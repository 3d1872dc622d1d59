"""JSON extraction, schema-subset validation, normalization, canonical form.

This module owns the measurement-critical text handling: how a raw model
completion becomes a parsed value, how that value is judged against a
schema or regex constraint, and how answers are normalized before
comparison. All of it is deliberately small and exactly specified, because
schema validity is itself a reported metric rather than mere plumbing.

Each job is done once: extraction finds its candidates in one linear pass,
and one compiler states the schema subset. It turns a schema into checks
once and refuses, as a ConfigError, any keyword or argument outside the
subset, so no keyword a decoder would enforce is skipped in silence.
"""

from __future__ import annotations

import itertools
import json
import math
import re
from json.encoder import c_make_encoder, encode_basestring, encode_basestring_ascii
from typing import Any, Callable, Iterator, NamedTuple

from .errors import ConfigError

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

    Each schema dict is compiled into checks on its first use, so it must
    not change afterwards (modes hands out one read-only dict per (mode,
    family)). The compiler is the one statement of the subset: a keyword
    outside it, or an argument of the wrong form, at any depth, is a
    ConfigError, never a keyword skipped in silence.
    """
    entry = _COMPILED.get(id(schema))
    if entry is None or entry[0] is not schema:
        if len(_COMPILED) >= _COMPILED_MAX:
            _COMPILED.clear()
        entry = _COMPILED[id(schema)] = (schema, _compile(schema))
    out: list[Violation] = []
    entry[1](value, "", out)
    return out


# id(schema) -> (schema, its compiled check). The entry holds the schema, so
# its id is not reused while the entry lives; `is` confirms the match. Far
# more slots than the schemas modes builds (one per (mode, family)); a cache
# that fills up is emptied.
_COMPILED: dict[int, tuple[dict, Callable[[Any, str, list], None]]] = {}
_COMPILED_MAX = 64

# type name -> (the Python types it admits, whether a bool counts). JSON
# has no bool/int conflation; Python does, so integer and number refuse bools.
_TYPE_CLASSES: dict[str, tuple[type | tuple[type, ...], bool]] = {
    "object": (dict, False), "array": (list, False), "string": (str, False),
    "boolean": (bool, True), "null": (type(None), False),
    "integer": (int, False), "number": ((int, float), False),
}


def _equality_check(keyword: str, options: list,
                    message: str) -> Callable[[Any, str, list], None]:
    """check(value, path, out) that appends a keyword violation unless value
    is _json_equal to one of options. Strings only by a set lookup: a
    string equals nothing but a string of the same text."""
    if all(type(option) is str for option in options):
        texts = frozenset(options)

        def check(value: Any, path: str, out: list) -> None:
            if type(value) is not str or value not in texts:
                out.append(Violation(path, keyword, message))
    else:
        def check(value: Any, path: str, out: list) -> None:
            if not any(_json_equal(value, option) for option in options):
                out.append(Violation(path, keyword, message))
    return check


def _compile(schema: Any) -> Callable[[Any, str, list], None]:
    """One schema node as check(value, path, out), which appends the node's
    violations to out: the type first (a wrong type stops there, since
    further keywords would only cascade on it), then const, enum, pattern,
    minimum, the object keywords and items, each keyword read once here.
    A node that is not an object, a keyword outside the subset and an
    argument of the wrong form are each a ConfigError."""
    if not isinstance(schema, dict):
        raise ConfigError(f"schema document must be an object, got {type(schema).__name__}")
    for keyword in schema:
        if keyword not in ("type", "required", "properties", "additionalProperties",
                           "pattern", "const", "minimum", "enum", "items"):
            raise ConfigError(f"unsupported schema keyword: {keyword!r}")
    type_name = schema.get("type")
    if "type" in schema and not (type(type_name) is str and type_name in _TYPE_CLASSES):
        raise ConfigError(f"unsupported type name: {type_name!r}")
    admitted, bool_ok = _TYPE_CLASSES.get(type_name, (object, True))
    checks: list[Callable[[Any, str, list], None]] = []
    if "const" in schema:
        checks.append(_equality_check("const", [schema["const"]],
                                      f"expected {schema['const']!r}"))
    if "enum" in schema:
        if not isinstance(schema["enum"], list) or not schema["enum"]:
            raise ConfigError("enum must be a non-empty list")
        checks.append(_equality_check("enum", schema["enum"],
                                      f"value not in {schema['enum']!r}"))
    if "pattern" in schema:
        pattern = schema["pattern"]
        if not isinstance(pattern, str):
            raise ConfigError("pattern must be a string")
        try:
            search = re.compile(pattern).search
        except re.error as exc:
            raise ConfigError(f"pattern does not compile: {exc}") from exc

        def check_pattern(value: Any, path: str, out: list) -> None:
            if isinstance(value, str) and search(value) is None:
                out.append(Violation(path, "pattern", f"{value!r} does not match /{pattern}/"))
        checks.append(check_pattern)
    if "minimum" in schema:
        minimum = schema["minimum"]
        if not _is_number(minimum):
            raise ConfigError("minimum must be a number")

        def check_minimum(value: Any, path: str, out: list) -> None:
            if _is_number(value) and value < minimum:
                out.append(Violation(path, "minimum", f"{value} < {minimum}"))
        checks.append(check_minimum)
    properties, names = schema.get("properties", {}), schema.get("required", [])
    if not isinstance(properties, dict):
        raise ConfigError("properties must be an object")
    if not isinstance(names, list) or not all(isinstance(key, str) for key in names):
        raise ConfigError("required must be a list of property names")
    if schema.get("additionalProperties", False) is not False:
        raise ConfigError("additionalProperties supports only false")
    required = tuple((key, f'missing required property "{key}"') for key in names)
    # (key, its path suffix, its check), in the schema's order
    members = tuple((key, f"/{key}", _compile(sub)) for key, sub in properties.items())
    closed = "additionalProperties" in schema
    if required or members or closed:
        def check_object(value: Any, path: str, out: list) -> None:
            if isinstance(value, dict):
                for key, message in required:
                    if key not in value:
                        out.append(Violation(path, "required", message))
                for key, suffix, member_check in members:
                    if key in value:
                        member_check(value[key], path + suffix, out)
                if closed:
                    for key in value:
                        if key not in properties:
                            out.append(Violation(f"{path}/{key}", "additionalProperties",
                                                 "property not allowed"))
        checks.append(check_object)
    if "items" in schema:
        check_item = _compile(schema["items"])

        def check_items(value: Any, path: str, out: list) -> None:
            if isinstance(value, list):
                for index, item in enumerate(value):
                    check_item(item, f"{path}/{index}", out)
        checks.append(check_items)

    def check(value: Any, path: str, out: list) -> None:
        if not isinstance(value, admitted) or (value.__class__ is bool and not bool_ok):
            out.append(Violation(path, "type", f"expected {type_name}, got {_describe(value)}"))
            return
        for keyword_check in checks:
            keyword_check(value, path, out)
    return check


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


def one_shot_encoder(encoder: json.JSONEncoder) -> Callable[[Any, int], Any]:
    """encoder's C encoder, with the same options, built once: (value, 0) ->
    its text in chunks. encoder.encode builds one on every call. Without
    the markers of encoder's cycle check, a cycle recurses until
    RecursionError. Without json's C accelerator, encoder.iterencode, which
    checks for cycles (ValueError)."""
    if c_make_encoder is None:
        return encoder.iterencode
    return c_make_encoder(None, encoder.default,
                          encode_basestring_ascii if encoder.ensure_ascii else encode_basestring,
                          encoder.indent, encoder.key_separator, encoder.item_separator,
                          encoder.sort_keys, encoder.skipkeys, encoder.allow_nan)


_CANONICAL_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"),
                                      ensure_ascii=False, allow_nan=False)
_CANONICAL_CHUNKS = one_shot_encoder(_CANONICAL_ENCODER)


def canonical_serialize(value: Any) -> str:
    """Canonical JSON text: keys sorted at every depth, no insignificant
    whitespace, UTF-8 verbatim, non-finite numbers and cycles rejected
    (ValueError)."""
    try:
        return "".join(_CANONICAL_CHUNKS(value, 0))
    except RecursionError:  # a cycle, or nesting too deep: the checked encoder tells which
        return _CANONICAL_ENCODER.encode(value)


def canonical_digest(value: Any, length: int = 12) -> str:
    import hashlib

    return hashlib.sha256(canonical_serialize(value).encode("utf-8")).hexdigest()[:length]

