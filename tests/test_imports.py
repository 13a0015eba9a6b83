"""Every module of the package, and every test module, reads every name it
imports, and every name a package module exports is read somewhere.

No linter runs on the tree, so this scans each module's syntax tree: a name
bound by an import statement and never read, nor listed in ``__all__``,
fails the module, and so does a name in a package module's ``__all__``
that no module of the package or the tests reads or imports."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "finext"


def exported(source: str) -> list[str]:
    """The names in the module's ``__all__``, in order."""
    for node in ast.parse(source).body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return list(ast.literal_eval(node.value))
    return []


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    bound: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)} | set(exported(source))
    return [f"line {line}: {name}" for name, line in sorted(bound.items(), key=lambda kv: kv[1]) if name not in read]


def dead_exports(exporters: dict[str, str], readers: list[str]) -> list[str]:
    """Each name in an exporter's ``__all__`` that no reader loads, reads as
    an attribute or imports; defining it or listing it is not a read."""
    read: set[str] = set()
    for source in readers:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read |= {alias.name for alias in node.names}
    return [
        f"{module}: {name}"
        for module, source in sorted(exporters.items())
        for name in exported(source)
        if name not in read
    ]


def test_the_scan_sees_an_unused_import():
    src = "from typing import Any, Sequence\nimport os.path\n\ndef f(x: Sequence) -> None:\n    pass\n"
    assert unused_imports(src) == ["line 1: Any", "line 2: os"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_imports(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


@pytest.mark.parametrize("module", sorted(p.name for p in TESTS.glob("*.py")))
def test_no_unused_imports_in_tests(module):
    assert unused_imports((TESTS / module).read_text()) == []


def test_the_scan_sees_a_dead_export():
    lib = (
        "__all__ = ['called', 'imported', 'dead', 'stored']\n\n"
        "def called():\n    pass\n\n"
        "def imported():\n    pass\n\n"
        "def dead():\n    pass\n\n"
        "stored = 1\n"
    )
    user = "import lib\nfrom lib import imported\n\nlib.called()\nlib.stored = imported\n"
    assert dead_exports({"lib.py": lib}, [lib, user]) == ["lib.py: dead", "lib.py: stored"]


def test_every_export_is_read():
    sources = {p.name: p.read_text() for p in PACKAGE.glob("*.py")}
    readers = [*sources.values(), *(p.read_text() for p in TESTS.glob("*.py"))]
    assert dead_exports(sources, readers) == []
