"""The shared verdict store and a theorem read off it.

``extensivity.morphism_status`` keeps one (co)extensivity verdict per
morphism and mode, filled on first read, copying the pass of an iso orbit's
representative, which is decided first; so the number of decisions does not
depend on the read order either.  It is compared with the per-morphism loop
(``reference_extensivity.category_report``, every morphism decided by
``is_extensive_morphism``) in whatever order it is read: ascending,
descending, shuffled, and after ``category_report`` has filled the store.
The two modes are read in turn on each morphism, so each must keep its own
store.  The categories are the built-ins of ``verify-paper``, thin
categories of random preorders, inflated categories and the duals of all of
them.

Carboni, Lack and Walters: in an extensive category coproducts are disjoint,
so wherever the extensive report passes, ``coproduct_disjointness`` does
not fail.
"""

from __future__ import annotations

import copy
import random

import pytest
from hypothesis import given, settings

import reference_extensivity
from finext import extensivity as ext
from finext.algebra import build_category
from finext.cli import _BUILTINS, _build_builtin
from finext.fincat import dual_of, thin_category_from_poset
from finext.propositions import proposition_suite
from generators import inflate, preorders
from test_iso_orbits import base, inflations

MODES = ("extensive", "coextensive")
builtins = pytest.mark.parametrize("entry", _BUILTINS, ids=[entry[0] for entry in _BUILTINS])


def _read_orders(n: int) -> dict[str, list[int]]:
    shuffled = list(range(n))
    random.Random(n).shuffle(shuffled)
    return {"ascending": list(range(n)), "descending": list(range(n - 1, -1, -1)), "shuffled": shuffled}


def _assert_store_matches_loop(make) -> None:
    """``make()`` builds a fresh instance of one category; each read order
    starts from an empty store."""
    expected = {mode: reference_extensivity.category_report(make(), mode) for mode in MODES}

    def read_all(cat, order, label):
        for f in order:
            for mode in MODES:
                got = ext.morphism_status(cat, f, mode).as_dict()
                assert got == expected[mode]["morphisms"][cat.mid(f)], (label, mode, cat.mid(f))

    n = make().n_mor
    for label, order in _read_orders(n).items():
        cat = make()
        read_all(cat, order, label)
        if label == "shuffled":  # a report over a filled store is unchanged
            for mode in MODES:
                assert ext.category_report(cat, mode) == expected[mode], (label, mode)
    cat = make()
    for mode in MODES:
        ext.category_report(cat, mode)
    read_all(cat, range(n), "after category_report")


@builtins
def test_store_matches_the_loop_on_builtins(entry):
    _assert_store_matches_loop(lambda: _build_builtin(entry))
    _assert_store_matches_loop(lambda: dual_of(_build_builtin(entry)))


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_store_matches_the_loop_on_preorders(leq):
    _assert_store_matches_loop(lambda: thin_category_from_poset(leq))
    _assert_store_matches_loop(lambda: dual_of(thin_category_from_poset(leq)))


@settings(max_examples=12, deadline=None)
@given(inflations())
def test_store_matches_the_loop_on_inflations(case):
    name, x, pos = case
    _assert_store_matches_loop(lambda: inflate(base(name), x, pos))
    _assert_store_matches_loop(lambda: dual_of(inflate(base(name), x, pos)))


ORDER_CASES = {
    "set3": lambda: build_category("set", 3)[0],
    "mon3": lambda: build_category("mon", 3)[0],
    "pointed3-inflated": lambda: inflate(base("pointed3"), 1, 0),
}


def _counting_decisions(monkeypatch) -> list[str]:
    """The morphism ids ``is_extensive_morphism`` is called on, in order."""
    real, decided = ext.is_extensive_morphism, []

    def decide(cat, mid):
        decided.append(mid)
        return real(cat, mid)

    monkeypatch.setattr(ext, "is_extensive_morphism", decide)
    return decided


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", sorted(ORDER_CASES))
def test_the_number_of_decisions_does_not_depend_on_read_order(name, mode, monkeypatch):
    """A representative is decided before the members that copy its pass,
    so every order decides as often as ascending order."""
    make = ORDER_CASES[name]
    decided = _counting_decisions(monkeypatch)
    counts = {}
    for label, order in _read_orders(make().n_mor).items():
        cat = make()
        decided.clear()
        for f in order:
            ext.morphism_status(cat, f, mode)
        counts[label] = len(decided)
    assert len(set(counts.values())) == 1, counts


def test_a_member_read_alone_copies_its_representatives_pass(monkeypatch):
    """FinSet≤3 is extensive: reading one member of an orbit decides only
    the orbit's representative, and the member gets its details."""
    cat = build_category("set", 3)[0]
    reps = ext._orbit_reps(cat)
    f = next(f for f in range(cat.n_mor) if reps[f] != f)
    decided = _counting_decisions(monkeypatch)
    st = ext.morphism_status(cat, f)
    assert decided == [cat.mid(reps[f])]
    assert st.passed and st.details == ext.morphism_status(cat, reps[f]).details
    assert decided == [cat.mid(reps[f])]


@builtins
def test_propositions_read_a_filled_store_unchanged(entry):
    fresh = [(ident, st.as_dict()) for ident, st in proposition_suite(_build_builtin(entry))]
    filled = _build_builtin(entry)
    for f in _read_orders(filled.n_mor)["shuffled"]:
        for mode in MODES:
            ext.morphism_status(filled, f, mode)
    assert [(ident, st.as_dict()) for ident, st in proposition_suite(filled)] == fresh


def _mutate(entry: dict) -> int:
    """Edit a report entry's details and witness in place, at the top level
    and inside every nested list or dict; the number of nested edits."""
    nested = 0
    for part in ("details", "witness"):
        data = entry.get(part)
        if data is None:
            continue
        for value in data.values():
            if isinstance(value, list):
                value.append("edited")
                nested += 1
            elif isinstance(value, dict):
                value["edited"] = True
                nested += 1
        data["edited"] = True
    return nested


def test_editing_a_report_leaves_the_store_unchanged():
    """FinSet≤2: its coextensive failures carry witnesses with nested lists."""
    cat = build_category("set", 2)[0]
    nested = 0
    for mode in MODES:
        stored = [ext.morphism_status(cat, f, mode).as_dict() for f in range(cat.n_mor)]
        first, second = ext.category_report(cat, mode), ext.category_report(cat, mode)
        expected = copy.deepcopy(second)
        nested += sum(map(_mutate, first["morphisms"].values()))
        assert [ext.morphism_status(cat, f, mode).as_dict() for f in range(cat.n_mor)] == stored, mode
        assert second == expected, mode
        assert ext.category_report(cat, mode) == expected, mode
    assert nested > 0


# -- Carboni, Lack and Walters -----------------------------------------------------


def _extensive_implies_disjoint(cat) -> bool:
    """Whether the extensive report passes; asserts disjointness when it does."""
    if ext.category_report(cat, "extensive")["verdict"] != "pass":
        return False
    dis = ext.coproduct_disjointness(cat)
    assert dis.status != "fail", (cat.objects, dis.witness)
    return True


@settings(max_examples=150, deadline=None)
@given(preorders())
def test_extensive_preorders_have_disjoint_coproducts(leq):
    _extensive_implies_disjoint(thin_category_from_poset(leq))
    _extensive_implies_disjoint(dual_of(thin_category_from_poset(leq)))


CLW_BASES = (("set", 2), ("pointed", 3), ("mon", 2), ("set", 3), ("poset", 2), ("slat", 3))


def test_extensive_inflations_have_disjoint_coproducts():
    """Each object of each base copied to the first and to the last position,
    and the duals: 80 categories, some of them extensive."""
    extensive = 0
    for kind, n in CLW_BASES:
        orig = build_category(kind, n)[0]
        for x in range(len(orig.objects)):
            for pos in (0, len(orig.objects)):
                cat = inflate(orig, x, pos)
                extensive += _extensive_implies_disjoint(cat) + _extensive_implies_disjoint(dual_of(cat))
    assert extensive > 0
