"""No module of the package imports a name it never uses, and no function,
class or method is defined that nothing calls.

A stand-in for a linter's unused-import rule (F401), run on the modules
under src/sexticsolid/ with ``ast``.  ``__init__.py`` is skipped: its
imports are the package's exports.  An import whose line carries
``# noqa: F401`` is a deliberate re-export and is allowed.

The dead-route guard walks the same trees: every top-level function or
class and every method of such a class must be named (read as a name or
an attribute) somewhere in src/ or perfbench/, or stand on
UNREFERENCED_ALLOWED with its reason.  Dunder methods are called by the
language and are exempt; an import or the package's ``__all__`` is not a
use, so a route that only the tests reach fails.  A method that shares its
name with a method of a builtin type (``encode``, ``add``) counts as named
only where its own module names it, since elsewhere ``"x".encode()`` would
pass for a call of it.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sexticsolid"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
REFERENCING = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "perfbench").rglob("*.py"))

#: Definitions that nothing in src/ or perfbench/ names, and why they stay.
UNREFERENCED_ALLOWED = {
    "in_radical": "perfbench's TRACED names it as a string until it is deleted",
}

#: Method names of the builtin types, which a call on a str, dict, list, ...
#: reads without naming any method of the package.
BUILTIN_METHODS = frozenset(name for t in (str, bytes, dict, list, set, tuple, int)
                            for name in dir(t) if not name.startswith("__"))


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


def definitions(source: str) -> list:
    """The top-level functions and classes of ``source`` and the methods of
    those classes, dunders left out, in source order."""
    names = []
    for node in ast.parse(source).body:
        body = node.body if isinstance(node, ast.ClassDef) else []
        for item in [node] + body:
            if (isinstance(item, (ast.FunctionDef, ast.ClassDef))
                    and not item.name.startswith("__")):
                names.append(item.name)
    return names


def referenced_names(source: str) -> set:
    """Every name ``source`` reads, as a bare name or as an attribute."""
    tree = ast.parse(source)
    return _used_names(tree) | {node.attr for node in ast.walk(tree)
                                if isinstance(node, ast.Attribute)}


def unreferenced(source: str, refs: set) -> list:
    """The definitions of ``source`` that ``refs`` does not name, in source
    order; a method named like a builtin type's method must be named by
    ``source`` itself."""
    own = referenced_names(source)
    shared = {item.name for node in ast.parse(source).body if isinstance(node, ast.ClassDef)
              for item in node.body if isinstance(item, ast.FunctionDef)} & BUILTIN_METHODS
    return [name for name in definitions(source)
            if name not in (own if name in shared else refs)]


def test_dead_route_checker_on_a_sample():
    src = ("import m\n"
           "class K:\n"
           "    def __init__(self):\n"
           "        self.used()\n"
           "        self.add()\n"
           "    def used(self):\n"
           "        return m.g\n"
           "    def idle(self):\n"
           "        def inner():\n"
           "            pass\n"
           "    def add(self): pass\n"
           "    def encode(self): pass\n"
           "def g(): return K\n"
           "def h(): pass\n")
    other = "def f(): return 'x'.encode()\n"
    refs = referenced_names(src) | referenced_names(other)
    assert definitions(src) == ["K", "used", "idle", "add", "encode", "g", "h"]
    assert unreferenced(src, refs) == ["idle", "encode", "h"]


def test_every_definition_is_referenced():
    refs = set()
    for path in REFERENCING:
        refs |= referenced_names(path.read_text(encoding="utf-8"))
    unused = [name for module in MODULES
              for name in unreferenced(module.read_text(encoding="utf-8"), refs)]
    assert [name for name in unused if name not in UNREFERENCED_ALLOWED] == []
    # an allowlist entry that gained a caller, or lost its definition, goes
    assert sorted(name for name in UNREFERENCED_ALLOWED if name in unused) \
        == sorted(UNREFERENCED_ALLOWED)
