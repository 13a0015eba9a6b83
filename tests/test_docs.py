"""README against the code: the check-id lists name exactly the ids the
suites run, in their order, every witness kind README names is a kind
the package can emit (a string constant somewhere in ``src/finext``), and
the flag table gives each subcommand exactly the flags its parser takes."""

from __future__ import annotations

import argparse
import ast
import re
from pathlib import Path

from finext.cli import build_parser
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


def test_flag_table_lists_each_subcommands_flags():
    listed: dict[str, set[str]] = {}
    for row in re.findall(r"^\| (`--.*)$", _section("### Flags"), re.M):
        flags, commands = row.split(" | ")[:2]
        for command in re.findall(r"`([a-z-]+)`", commands):
            listed.setdefault(command, set()).update(re.findall(r"`(--[a-z-]+)", flags))
    subs = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    parsed = {
        name: {opt for action in sub._actions for opt in action.option_strings if opt not in ("-h", "--help")}
        for name, sub in subs.choices.items()
    }
    # a subcommand without flags (validate) has no row to appear in
    assert listed == {name: flags for name, flags in parsed.items() if flags}
