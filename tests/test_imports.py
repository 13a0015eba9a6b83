"""Every module of the package, and every test module, reads every name it
imports, every name a package module exports is read somewhere, and the
package runs on the standard library alone.

No linter runs on the tree, so this scans each module's syntax tree: a name
bound by an import statement and never read, nor listed in ``__all__``,
fails the module, and so does a name in a package module's ``__all__``
that no module of the package or the tests reads or imports, and a package
module that imports a module from outside the standard library and the
package.  ``pyproject.toml`` declares no runtime dependency."""

from __future__ import annotations

import ast
import re
import sys
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


def foreign_imports(source: str, package: str = "finext") -> list[str]:
    """Each module an import statement names whose top-level name is neither
    in the standard library nor `package`; relative imports are the
    package's own."""
    allowed = sys.stdlib_module_names | {package}
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [f"line {node.lineno}: {name}" for name in names if name.split(".")[0] not in allowed]
    return out


def test_the_scan_sees_a_foreign_import():
    src = (
        "from __future__ import annotations\n"
        "import os.path, numpy as np\n"
        "from . import fincat\n"
        "from finext.algebra import build_category\n"
        "from scipy.linalg import solve\n"
        "def f():\n    import json, yaml\n"
    )
    assert foreign_imports(src) == ["line 2: numpy", "line 5: scipy.linalg", "line 7: yaml"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_the_package_imports_only_the_standard_library(module):
    assert foreign_imports((PACKAGE / module).read_text()) == []


def test_pyproject_declares_no_runtime_dependency():
    project = (TESTS.parent / "pyproject.toml").read_text()
    assert re.search(r"^dependencies = \[\]$", project, re.M)


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
