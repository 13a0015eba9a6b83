"""Every per-category cache of the package goes through one helper.

``fincat.cached`` memoises a function in ``cat._cache``; it alone decides
where an answer is kept, under which key, and when it is stored.  Besides
it, only ``FinCategory._setup``, which makes the store, touches
``._cache``, and no module keeps a memo of its own through
``functools.cache`` or ``lru_cache``.  No two ``cached(name)`` uses in the
package share a store name, since each would answer the other's keys.
The scans read each module's syntax tree."""

from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "finext"

ALLOWED = {"fincat.py": {"cached", "FinCategory._setup"}}

MEMO_DECORATORS = {"cache", "lru_cache"}


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


def functools_memos(source: str) -> set[str]:
    """Every ``cache`` or ``lru_cache`` named as an attribute or imported
    by name from ``functools``, anywhere in the module."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Attribute) and node.attr in MEMO_DECORATORS:
            found.add(node.attr)
        elif isinstance(node, ast.ImportFrom) and node.module == "functools":
            found |= {alias.name for alias in node.names if alias.name in MEMO_DECORATORS}
    return found


def store_names(source: str) -> list[str]:
    """The store name of every call of ``cached`` or ``<module>.cached``
    in the module, decorators included; a name that is not a literal
    raises ``ValueError``."""
    return [
        ast.literal_eval(node.args[0])
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "cached"
    ]


def test_the_scan_sees_every_cache_use():
    src = (
        "def f(cat):\n    return cat._cache.get('x')\n\n"
        "def g(name):\n    def inner(cat):\n        return cat._cache[name]\n    return inner\n\n"
        "class C:\n    def m(self):\n        self._cache = {}\n\n    def n(self):\n        return 1\n\n"
        "STORE = object()._cache\n"
    )
    assert cache_users(src) == {"f", "g", "C.m", "<module>"}


def test_the_scan_sees_every_functools_memo():
    src = (
        "import functools\nfrom functools import lru_cache, wraps\n\n"
        "def f(cat):\n    @functools.cache\n    def inner(x):\n        return x\n    return inner\n\n"
        "@lru_cache(maxsize=None)\ndef g(x):\n    return x\n"
    )
    assert functools_memos(src) == {"cache", "lru_cache"}
    assert functools_memos("from functools import wraps\n\n@wraps(len)\ndef f(x):\n    return x\n") == set()


def test_the_scan_sees_every_store_name():
    src = (
        "@cached('a')\ndef f(cat):\n    return 1\n\n"
        "class C:\n    @fincat.cached('b')\n    def m(self):\n        return 2\n\n"
        "g = cached('a')(len)\n"
    )
    assert sorted(store_names(src)) == ["a", "a", "b"]
    with pytest.raises(ValueError):
        store_names("NAME = 'x'\n\n@cached(NAME)\ndef f(cat):\n    return 1\n")


def test_no_two_stores_share_a_name():
    names = Counter(name for p in PACKAGE.glob("*.py") for name in store_names(p.read_text()))
    assert len(names) > 30
    assert [name for name, uses in names.items() if uses > 1] == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_only_the_helper_and_the_named_stores_touch_the_cache(module):
    source = (PACKAGE / module).read_text()
    assert cache_users(source) == ALLOWED.get(module, set())
    assert functools_memos(source) == set()
