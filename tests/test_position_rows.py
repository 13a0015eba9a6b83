"""Composition rows of hom-set positions, interned across the whole table.

A row entry is the position of its composite in the hom-set it lies in, and
``FinCategory.start`` plus the entry is the composite's global id, -1 where
the table has no entry.  The rows and columns are read back against the
seed's rows of ids (``reference_fincat.id_rows``), built straight from the
composition by string ids, on the eight built-ins of ``verify-paper``, their
duals, a preorder with isomorphic points and the fault-injected tables of
``test_fast_paths._mutants``.  On the same inputs, each distinct row value
is one tuple table-wide, across rows and gathered columns, on a category
and on its dual; ``to_json`` gives back every entry of a malformed table,
and ``validate`` reads it as the seed's did.
"""

from __future__ import annotations

import itertools

import pytest

import reference_fincat
from finext.algebra import build_category
from finext.cli import _BUILTINS
from finext.fincat import FinCategory, dual_of, thin_category_from_poset, validate
from test_fast_paths import _mutants

# 0 and 1 are isomorphic points below 2
PREORDER = [[True, True, True], [True, True, True], [False, False, True]]
CHAIN3 = [[True, True, True], [False, True, True], [False, False, True]]


def _function_composition(kind: str, n: int, empty: bool | None) -> tuple[FinCategory, dict]:
    """A built-in and its composition by ids, read off the function tables:
    g∘f is the morphism of hom(dom f, cod g) whose table is gt∘ft."""
    cat, uni = build_category(kind, n, empty)
    dom, cod = cat._dom_l, cat._cod_l
    by_table = {(dom[m], cod[m], uni.maps[cat.mid(m)]): cat.mid(m) for m in range(cat.n_mor)}
    comp = {}
    for f in range(cat.n_mor):
        ft = uni.maps[cat.mid(f)]
        for g in (g for c in range(len(cat.objects)) for g in cat.hom(cod[f], c)):
            gt = uni.maps[cat.mid(g)]
            comp[cat.mid(g), cat.mid(f)] = by_table[dom[f], cod[g], tuple(gt[x] for x in ft)]
    return cat, comp


def _swapped(comp: dict) -> dict:
    return {(f, g): gf for (g, f), gf in comp.items()}


def _preorder_composition(cat: FinCategory) -> dict:
    """(j<=k)∘(i<=j) = i<=k, by ids."""
    return {
        (g, f): f.split("<=")[0] + "<=" + g.split("<=")[1]
        for f in cat.mor_ids
        for g in cat.mor_ids
        if f.split("<=")[1] == g.split("<=")[0]
    }


def _builtin_cases():
    for label, kind, n, empty, is_dual in _BUILTINS:
        yield pytest.param(kind, n, empty, is_dual, id=label)


def _category(kind, n, empty, is_dual) -> tuple[FinCategory, dict]:
    cat, comp = _function_composition(kind, n, empty)
    return (dual_of(cat), _swapped(comp)) if is_dual else (cat, comp)


def _mutant_cases():
    """Each fault-injected table of set2, mon2 and the three-chain, with its
    composition by ids."""
    for make in (
        lambda: build_category("set", 2)[0],
        lambda: build_category("mon", 2)[0],
        lambda: thin_category_from_poset(CHAIN3),
    ):
        for label, data in _mutants(make()):
            comp = {(e["g"], e["f"]): e["gf"] for e in data["composition"]}
            yield label, FinCategory.from_json(data), comp


def _assert_rows_are_the_seed_table(cat: FinCategory, comp: dict) -> None:
    """Start plus entry, in rows, columns and ``compose``, equals the seed's
    id table, on ``cat`` and, with g and f swapped, on its dual."""
    d = dual_of(cat)
    for c, cc in ((cat, comp), (d, _swapped(comp))):
        rows = reference_fincat.id_rows(c, cc)
        assert [reference_fincat.row_ids(c, g) for g in range(c.n_mor)] == rows
        cols = reference_fincat.id_rows(dual_of(c), _swapped(cc))
        assert [reference_fincat.col_ids(c, f) for f in range(c.n_mor)] == cols
        ids = c.mor_index
        seed = {(ids[g], ids[f]): ids[gf] for (g, f), gf in cc.items()}
        for g, f in itertools.product(range(c.n_mor), repeat=2):
            assert c.compose(g, f) == seed.get((g, f)), (g, f)


def _assert_rows_are_interned(cat: FinCategory) -> None:
    """With every row and column gathered, on ``cat`` and on its dual, equal
    rows are one tuple, and so are equal tuples of a morphism's rows."""
    for c in (cat, dual_of(cat)):
        for m in range(c.n_mor):
            c.rows(m), c.cols(m)
        # the dual's rows are these columns, and its columns these rows
        assert dual_of(c)._rows is c._cols and dual_of(c)._cols is c._rows
        per_morphism = c._rows + c._cols
        rows = [r for rs in per_morphism for r in rs]
        assert len(set(map(id, rows))) == len(set(rows))
        assert len(set(map(id, per_morphism))) == len(set(per_morphism))
        assert dual_of(c)._interned is c._interned


@pytest.mark.parametrize("kind, n, empty, is_dual", list(_builtin_cases()))
def test_start_plus_entry_is_the_seed_table_on_the_builtins(kind, n, empty, is_dual):
    cat, comp = _category(kind, n, empty, is_dual)
    _assert_rows_are_the_seed_table(cat, comp)
    _assert_rows_are_interned(cat)


def test_start_plus_entry_is_the_seed_table_on_a_preorder_with_isomorphic_points():
    cat = thin_category_from_poset(PREORDER)
    _assert_rows_are_the_seed_table(cat, _preorder_composition(cat))
    _assert_rows_are_interned(cat)
    assert {r for g in range(cat.n_mor) for r in cat.rows(g)} == {(0,), ()}


def test_start_plus_entry_is_the_seed_table_on_fault_injected_tables():
    labels = set()
    for label, cat, comp in _mutant_cases():
        _assert_rows_are_the_seed_table(cat, comp)
        _assert_rows_are_interned(cat)
        labels.add(label)
    assert {"wrong", "mistyped", "missing", "extraneous"} <= labels


def test_to_json_gives_back_every_entry_of_a_malformed_table():
    """Missing entries stay missing, mistyped ones keep their ids, and the
    file written reads back to the same table, on the dual too (which lists
    its morphisms in its primal's order, so only the table is compared)."""
    for label, cat, comp in _mutant_cases():
        assert FinCategory.from_json(cat.to_json()).to_json() == cat.to_json(), label
        for c, cc in ((cat, comp), (dual_of(cat), _swapped(comp))):
            for data in (c.to_json(), FinCategory.from_json(c.to_json()).to_json()):
                assert {(e["g"], e["f"]): e["gf"] for e in data["composition"]} == cc, label


def test_a_composite_just_before_its_hom_set_is_not_read_as_missing():
    """An entry one below its hom-set's start is position -1; its id is that
    of the morphism before the hom-set, not the missing entry's -1.  Each
    such fault reads back, and ``validate`` reports it as the seed did."""
    base = build_category("mon", 2)[0]
    data = base.to_json()
    faults = 0
    for i, e in enumerate(data["composition"]):
        g, f = base.m(e["g"]), base.m(e["f"])
        lo = base.start(base._dom_l[f], base._cod_l[g])
        if lo == 0:
            continue
        table = [dict(x) for x in data["composition"]]
        table[i]["gf"] = base.mid(lo - 1)
        faulty = FinCategory.from_json({**data, "composition": table})
        assert faulty.compose(g, f) == lo - 1
        assert faulty.rows(g)[base._dom_l[f]][base._pos[f]] == -1
        for c in (faulty, dual_of(faulty)):
            found = validate(c)
            assert found == reference_fincat.validate(c)
            assert "comp-typing" in {v.kind for v in found}
            assert "comp-missing" not in {v.kind for v in found}
        faults += 1
    assert faults > 0


def test_mon3_holds_its_rows_in_few_tuples():
    """Mon≤3's 1,940 rows are 36 distinct tuples, and its 194 morphisms
    share 62 tuples of rows; with the columns gathered, 58 distinct rows."""
    cat = build_category("mon", 3)[0]
    rows = [r for g in range(cat.n_mor) for r in cat.rows(g)]
    assert (len(rows), len(set(map(id, rows))), len(set(map(id, cat._rows)))) == (1940, 36, 62)
    cols = [r for f in range(cat.n_mor) for r in cat.cols(f)]
    assert len(set(map(id, rows + cols))) == 58
