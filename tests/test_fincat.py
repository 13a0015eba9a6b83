"""Category data structure: coherence, duality, classification."""

import gc
import weakref

import pytest

from finext.algebra import build_category
from finext.extensivity import category_report
from finext.fincat import (
    CategoryDataError,
    FinCategory,
    classify_morphism,
    dual_of,
    is_iso,
    morphisms_of_class,
    validate,
    validate_category,
)


def test_builders_produce_coherent_categories(set3, golden, mon3):
    for cat, _uni in (set3, golden, mon3):
        assert validate(cat) == []


def test_identity_laws(set3):
    cat, _ = set3
    for i in range(cat.n_mor):
        d, c = cat._dom_l[i], cat._cod_l[i]
        assert cat.compose(i, cat.identity_of[d]) == i
        assert cat.compose(cat.identity_of[c], i) == i


def test_associativity_spot(set3):
    cat, _ = set3
    n = cat.n_mor
    for f in range(n):
        for g in range(n):
            if cat._dom_l[g] != cat._cod_l[f]:
                continue
            for h in range(n):
                if cat._dom_l[h] != cat._cod_l[g]:
                    continue
                assert cat.compose(h, cat.compose(g, f)) == cat.compose(
                    cat.compose(h, g), f
                )


def test_dual_is_involutive(set3):
    cat, _ = set3
    d = dual_of(cat)
    dd = dual_of(d)
    assert dd.objects == cat.objects
    assert dd.n_mor == cat.n_mor
    for g in range(cat.n_mor):
        for f in range(cat.n_mor):
            if cat._dom_l[g] == cat._cod_l[f]:
                assert dd.compose(g, f) == cat.compose(g, f)


def test_dual_swaps_hom_sets(set3):
    cat, _ = set3
    d = dual_of(cat)
    assert len(d.hom(1, 2)) == len(cat.hom(2, 1))
    assert d.metadata["kind"] == "dual-set"
    assert dual_of(d).metadata["kind"] == "set"


@pytest.mark.parametrize("mode", ["extensive", "coextensive"])
def test_a_category_and_its_dual_are_freed_by_refcounting(mode):
    """The dual holds its primal weakly, so no reference cycle keeps a
    finished category, its dual or their caches alive."""
    gc.disable()
    try:
        cat = build_category("set", 2)[0]
        category_report(cat, mode)
        d = dual_of(cat)
        assert dual_of(d) is cat
        refs = [weakref.ref(cat), weakref.ref(d)]
        del cat, d
        assert [r() for r in refs] == [None, None]
        # a dual outliving its primal reads the primal's table on, and
        # builds a new dual when asked
        d = dual_of(build_category("set", 2)[0])
        assert d._dual() is None
        primal = build_category("set", 2)[0]
        fresh = dual_of(primal)
        morphisms = range(d.n_mor)
        assert [d.rows(g) for g in morphisms] == [fresh.rows(g) for g in morphisms]
        assert [d.cols(f) for f in morphisms] == [fresh.cols(f) for f in morphisms]
        assert validate(d) == validate(fresh) == []
        again = dual_of(d)
        assert dual_of(again) is d
        assert again.to_json() == primal.to_json()
    finally:
        gc.enable()


def test_compose_is_none_on_pairs_that_do_not_compose():
    cat = build_category("set", 2)[0]
    for c in (cat, dual_of(cat)):
        pairs = [(g, f) for g in range(c.n_mor) for f in range(c.n_mor) if c._cod_l[f] != c._dom_l[g]]
        assert pairs and all(c.compose(g, f) is None for g, f in pairs)


def test_validate_reports_bad_composition():
    cat = FinCategory(
        objects=["a", "b"],
        morphisms=[("ia", "a", "a"), ("ib", "b", "b"), ("f", "a", "b")],
        identities={"a": "ia", "b": "ib"},
        composition={
            ("ia", "ia"): "ia",
            ("ib", "ib"): "ib",
            ("f", "ia"): "f",
            # ("ib", "f") is composable but missing; ("f", "ib") is not composable
            ("f", "ib"): "f",
        },
    )
    out = validate(cat)
    kinds = {v.kind for v in out}
    assert "comp-extraneous" in kinds or "comp-missing" in kinds
    assert len(out) >= 2


def test_json_round_trip(golden_thin):
    rebuilt = validate_category(golden_thin.to_json())
    assert isinstance(rebuilt, FinCategory)
    assert rebuilt.objects == golden_thin.objects
    assert rebuilt.mor_ids == golden_thin.mor_ids
    assert rebuilt.to_json()["composition"] == golden_thin.to_json()["composition"]


def test_classification_matches_function_tables(set3):
    cat, uni = set3
    for i in range(cat.n_mor):
        mid = cat.mid(i)
        table = uni.maps[mid]
        n_dom = uni.algebras[cat.objects[cat._dom_l[i]]].size
        n_cod = uni.algebras[cat.objects[cat._cod_l[i]]].size
        profile = classify_morphism(cat, mid)
        injective = len(set(table)) == n_dom
        surjective = set(table) == set(range(n_cod))
        assert profile.is_mono == injective
        assert profile.is_epi == surjective
        assert is_iso(cat, i) == (injective and surjective and n_dom == n_cod)


def test_morphisms_of_class_consistency(set3):
    cat, _ = set3
    monos = set(morphisms_of_class(cat, "mono"))
    isos = {cat.mid(i) for i in range(cat.n_mor) if is_iso(cat, i)}
    assert isos <= monos


def test_a_missing_identity_splits_nothing():
    # id_a and r∘f are both missing; f∘r = id_b, so f is a split epi with
    # section r, but no composite is id_a, so f is no split mono
    cat = FinCategory(
        ["a", "b"],
        [("f", "a", "b"), ("r", "b", "a"), ("ib", "b", "b")],
        {"b": "ib"},
        {("ib", "f"): "f", ("r", "ib"): "r", ("ib", "ib"): "ib", ("f", "r"): "ib"},
    )
    profile = classify_morphism(cat, "f")
    assert (profile.is_split_mono, profile.is_split_epi) == (False, True)
    assert profile.witnesses == {"section": "r"}
    assert morphisms_of_class(cat, "split-mono") == ["ib", "r"]
    assert morphisms_of_class(cat, "split-epi") == ["f", "ib"]


@pytest.mark.parametrize("mode", ["extensive", "coextensive"])
def test_a_warm_report_composes_nothing(set3, mode, monkeypatch):
    cat, _ = set3
    first = category_report(cat, mode)
    calls = []
    compose = FinCategory.compose
    monkeypatch.setattr(FinCategory, "compose", lambda self, g, f: calls.append((g, f)) or compose(self, g, f))
    assert category_report(cat, mode) == first
    assert calls == []


def test_thin_category_shape(golden_thin):
    cat = golden_thin
    assert cat.objects == ("0", "1")
    assert cat.n_mor == 3
    assert len(cat.hom(0, 1)) == 1
    assert len(cat.hom(1, 0)) == 0
    assert validate(cat) == []


def test_unknown_ids_raise(set3):
    cat, _ = set3
    with pytest.raises(CategoryDataError):
        cat.o("nope")
    with pytest.raises(CategoryDataError):
        cat.m("nope")
