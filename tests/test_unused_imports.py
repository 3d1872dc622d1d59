"""Every name a ctax module imports is used in it: a stdlib stand-in for a
linter's unused-import check, so an import left behind by a deletion fails
the suite."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ctax

_MODULES = sorted(p for p in Path(ctax.__file__).parent.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("path", _MODULES, ids=[p.name for p in _MODULES])
def test_module_uses_every_name_it_imports(path):
    assert _unused_imports(path.read_text(encoding="utf-8")) == []


def test_the_check_sees_an_unused_import():
    source = "import os\nimport json as j\nfrom typing import Any, Iterable\nx: Any = j.dumps(1)\n"
    assert _unused_imports(source) == ["line 1: os", "line 3: Iterable"]
