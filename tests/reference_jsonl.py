"""Reference JSONL reader: one whole-text decode per stripped line.

records.iter_jsonl calls the JSON scanner directly and falls back to a
whole-text decode only for a line that is not one JSON value. This reference
has no such shortcut, so agreement between the two shows the shortcut
changes no object read and no error message. Both refuse NaN, Infinity and
-Infinity.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Iterator

from ctax.errors import ConfigError


def _refuse_constant(name: str) -> float:
    raise ValueError(f"{name} is not a number a record may hold")


def loads_iter_jsonl(path: str | Path, what: str,
                     build: Callable[[dict], Any]) -> Iterator[Any]:
    decode = json.JSONDecoder(parse_constant=_refuse_constant).decode
    with Path(path).open("rb") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                doc = decode(line.decode("utf-8"))
                if not isinstance(doc, dict):
                    raise ValueError("not a JSON object")
                item = build(doc)
            except (ValueError, KeyError, TypeError, AttributeError, RecursionError) as exc:
                raise ConfigError(f"{path}:{lineno}: malformed {what} line "
                                  f"({type(exc).__name__}: {exc})") from exc
            yield item
