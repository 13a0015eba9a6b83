"""Every per-category cache of the package goes through one helper.

``fincat.cached`` memoises a function in ``cat._cache``.  Besides it, only
``FinCategory._setup``, which makes the store, and two stores with a policy
of their own touch ``._cache``: the verdict store of ``morphism_status``,
which copies a pass across an iso orbit, and ``pullback``'s, which answers
a miss under two keys.  The scan reads each module's syntax tree."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finext"

ALLOWED = {
    "fincat.py": {"cached", "FinCategory._setup"},
    "extensivity.py": {"morphism_status"},
    "limits.py": {"pullback"},
}


def cache_users(source: str) -> set[str]:
    """The top-level functions and methods whose code reads an attribute
    ``_cache``; a nested function counts toward the one it sits in."""
    users = set()
    for node in ast.parse(source).body:
        owners = [node] if not isinstance(node, ast.ClassDef) else node.body
        for sub in owners:
            name = getattr(sub, "name", "<module>")
            if sub is not node:
                name = f"{node.name}.{name}"
            if any(isinstance(a, ast.Attribute) and a.attr == "_cache" for a in ast.walk(sub)):
                users.add(name)
    return users


def test_the_scan_sees_every_cache_use():
    src = (
        "def f(cat):\n    return cat._cache.get('x')\n\n"
        "def g(name):\n    def inner(cat):\n        return cat._cache[name]\n    return inner\n\n"
        "class C:\n    def m(self):\n        self._cache = {}\n\n    def n(self):\n        return 1\n\n"
        "STORE = object()._cache\n"
    )
    assert cache_users(src) == {"f", "g", "C.m", "<module>"}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_helper_and_the_named_stores_touch_the_cache(module):
    assert cache_users((PACKAGE / module).read_text()) == ALLOWED.get(module, set())
