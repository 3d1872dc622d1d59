"""Every name a ctax module imports is used in it, and every private
module-level name a ctax module defines is read somewhere in ctax: stdlib
stand-ins for a linter's unused-import and dead-code checks, so an import or
a helper left behind by a deletion fails the suite."""

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


def _unread_private_names(sources: dict[str, str]) -> list[str]:
    """The private module-level names (a _name function, class or constant)
    of each module that no module's code reads outside the name's own
    definition: by name, as an attribute or in a from-import."""
    defined: list[tuple[str, str, int, int]] = []  # (module, name, its definition's lines)
    reads: set[tuple[str, str, int]] = set()  # (module, name, line)
    for module, source in sources.items():
        tree = ast.parse(source)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            defined += [(module, name, node.lineno, node.end_lineno) for name in names
                        if name.startswith("_") and not name.startswith("__")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add((module, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                reads.add((module, node.attr, node.lineno))
            elif isinstance(node, ast.ImportFrom):
                reads.update((module, alias.name, node.lineno) for alias in node.names)
    return [f"{module}: {name}" for module, name, first, last in defined
            if not any(read == name and not (where == module and first <= line <= last)
                       for where, read, line in reads)]


def test_every_private_name_is_read_somewhere():
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(ctax.__file__).parent.glob("*.py")}
    assert _unread_private_names(sources) == []


def test_the_check_sees_a_private_name_nothing_reads():
    sources = {
        "a.py": ("_USED, _UNUSED = 1, 2\n_ANNOTATED: int = _USED\n"
                 "def _recursive(n):\n    return _recursive(n - 1)\n"
                 "class _Imported:\n    pass\n"
                 "def _by_attribute():\n    pass\n"
                 "def _dead():\n    pass\n"
                 "def public():\n    return _ANNOTATED\n"),
        "b.py": "from . import a\nfrom .a import _Imported\na._by_attribute()\n",
    }
    assert _unread_private_names(sources) == ["a.py: _UNUSED", "a.py: _recursive", "a.py: _dead"]
