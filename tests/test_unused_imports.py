"""Every name a ctax module imports is used in it, and every module-level
name a ctax module defines is read somewhere: a private one in ctax, a
public one in ctax or by the benchmark's imports. Stdlib stand-ins for a
linter's unused-import and dead-code checks, so an import or a helper left
behind by a deletion, or kept only for tests, fails the suite."""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Collection, Iterable

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


def _unread_names(sources: dict[str, str], imported: Collection[str] = ()) -> list[str]:
    """The module-level names (a function, class or constant; dunder names
    aside) of each module that no module's code reads outside the name's own
    definition: by name, as an attribute or in a from-import. A public name
    in imported, the names code outside the modules imports from them,
    counts as read; a private one must be read by the modules themselves."""
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
                        if not name.startswith("__")
                        and (name.startswith("_") or name not in imported)]
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


def _imported_from_ctax(paths: Iterable[Path]) -> set[str]:
    """The names the files import from ctax or its modules (from-imports)."""
    return {alias.name for path in paths
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "ctax"
            for alias in node.names}


def test_every_module_level_name_is_read_somewhere():
    """Private names by ctax; public ones by ctax (its __init__ included) or
    by the benchmark's imports: a public name only tests read is a second
    entry point to a job the program does another way."""
    sources = {path.name: path.read_text(encoding="utf-8")
               for path in Path(ctax.__file__).parent.glob("*.py")}
    bench = Path(ctax.__file__).parents[2] / "perfbench"
    assert _unread_names(sources, _imported_from_ctax(bench.glob("*.py"))) == []


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
    assert _unread_names(sources, {"public"}) == ["a.py: _UNUSED", "a.py: _recursive",
                                                  "a.py: _dead"]


def test_the_check_sees_a_public_name_only_its_definition_reads():
    sources = {
        "a.py": ("USED, UNUSED = 1, 2\nANNOTATED: int = USED\n"
                 "def recursive(n):\n    return recursive(n - 1)\n"
                 "class Exported:\n    pass\n"
                 "def bench_only():\n    pass\n"
                 "def dead():\n    pass\n"
                 "__all__ = ['dead']\n"),
        "__init__.py": "from .a import Exported\n",
        "b.py": "from . import a\nprint(a.ANNOTATED)\n",
    }
    assert _unread_names(sources, {"bench_only"}) == ["a.py: UNUSED", "a.py: recursive",
                                                      "a.py: dead"]
