"""No module of the package imports a name it never uses.

A stand-in for a linter's unused-import rule (F401), run on the modules
under src/sexticsolid/ with ``ast``.  ``__init__.py`` is skipped: its
imports are the package's exports.  An import whose line carries
``# noqa: F401`` is a deliberate re-export and is allowed.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "sexticsolid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _used_names(tree) -> set:
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            ann = node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= _used_names(ast.parse(ann.value, mode="eval"))
        elif isinstance(node, ast.FunctionDef):
            ret = node.returns
            if isinstance(ret, ast.Constant) and isinstance(ret.value, str):
                used |= _used_names(ast.parse(ret.value, mode="eval"))
    return used


def unused_imports(source: str) -> list:
    """The names that ``source`` imports and never reads, in import order."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if "# noqa: F401" in lines[alias.lineno - 1]:
                    continue
                imported.append(alias.asname or alias.name.split(".")[0])
    used = _used_names(tree)
    return [name for name in imported if name not in used]


def test_checker_flags_unused_and_honours_noqa():
    src = ("from __future__ import annotations\n"
           "import os.path\n"
           "from x import (a, b,\n"
           "               c)  # noqa: F401\n"
           "from y import d as e\n"
           "def f(v: 'b') -> int:\n"
           "    return a\n")
    assert unused_imports(src) == ["os", "e"]


@pytest.mark.parametrize("module", MODULES, ids=lambda p: p.name)
def test_module_has_no_unused_imports(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []
