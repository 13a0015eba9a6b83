"""README against the code: the check-id lists name exactly the ids the
suites run, in their order, and every witness kind README names is a kind
the package can emit (a string constant somewhere in ``src/finext``)."""

from __future__ import annotations

import ast
import re
from pathlib import Path

from finext.propositions import PROPOSITION_IDS
from finext.relcalc import IDENTITY_IDS

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _section(title: str) -> str:
    """The README text from the heading ``title`` to the next heading of its level."""
    start = README.index(f"\n{title}\n")
    level = title.split(" ", 1)[0]
    end = README.find(f"\n{level} ", start + len(title) + 2)
    return README[start : end if end >= 0 else len(README)]


def _string_constants() -> set[str]:
    out: set[str] = set()
    for path in (ROOT / "src" / "finext").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                out.add(node.value)
    return out


def test_proposition_table_lists_the_suite_in_order():
    ids = re.findall(r"^\| `([a-z0-9-]+)` \|", _section("## Check ids"), re.M)
    assert ids == list(PROPOSITION_IDS)


def test_identity_list_names_the_identity_suite_in_order():
    section = _section("## Check ids")
    listing = section[section.index("**Identity suite**") : section.index("each checked")]
    assert re.findall(r"`([a-z-]+)`", listing.split(":", 1)[1]) == list(IDENTITY_IDS)


def test_every_witness_kind_named_is_emitted():
    section = _section("## Library use")
    paragraph = section[section.index("Every failing check carries a witness") :]
    kinds = re.findall(r"`([a-z-]+)`", paragraph.split("\n\n", 1)[0])
    kinds += re.findall(r"witness\[\"kind\"\]\s+# '([a-z-]+)'", section)
    assert len(kinds) >= 7
    emitted = _string_constants()
    assert [k for k in kinds if k not in emitted] == []
