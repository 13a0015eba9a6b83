"""Relation calculus via subobjects of binary products, checked three ways:
structurally (flags, dualities, suite verdicts), against the concrete
bitmask oracle that computes the same operations from membership tables,
and against the seed's suite in ``reference_relcalc``.  The comparison
covers every status, witness and detail on the built-in categories of
``verify-paper``, FinSet≤4, an inflated category (``generators.inflate``),
thin categories of random preorders (``generators.preorders``) and the
duals of these, also with faults injected into relation composition and
classification."""

from __future__ import annotations

import contextlib
import dataclasses
import itertools
from unittest import mock

import pytest
from hypothesis import given, settings

import reference_relcalc
from finext import limits, setrel
from finext import relcalc as rc
from finext.fincat import dual_of, thin_category_from_poset
from finext.relcalc import IDENTITY_IDS
from generators import inflate, preorders


def _sizes(cat, uni):
    return {i: uni.algebras[cat.objects[i]].size for i in range(len(cat.objects))}


def test_subobject_posets_of_small_sets(set3):
    cat, _ = set3
    expected = {"s0": (1, 1), "s1": (2, 3), "s2": (4, 9), "s3": (8, 27)}
    for oid, (n_classes, n_leq) in expected.items():
        classes, leq = rc.sub_poset(cat, oid)
        assert len(classes) == n_classes, oid
        assert sum(sum(1 for v in row if v) for row in leq) == n_leq, oid


def test_relations_need_an_ambient_product(set3):
    cat, _ = set3
    assert rc.relations_on(cat, cat.obj_index["s2"], cat.obj_index["s3"]) is None
    rels = rc.relations_on(cat, cat.obj_index["s2"], cat.obj_index["s1"])
    assert rels is not None and len(rels) == 4
    assert rc.delta(cat, cat.obj_index["s2"]) is None  # square would need 4 points


def test_diagonal_and_full_relation_flags(set3, lat4):
    cat, _ = set3
    x1 = cat.obj_index["s1"]
    d = rc.classify_relation(cat, rc.delta(cat, x1)).as_dict()
    assert d == {
        "reflexive": True,
        "symmetric": True,
        "transitive": True,
        "equivalence": True,
        "effective": True,
    }
    lcat, _ = lat4
    l2 = lcat.obj_index["L2"]
    dl = rc.classify_relation(lcat, rc.delta(lcat, l2))
    assert dl.reflexive and dl.symmetric and dl.transitive and dl.equivalence
    nl = rc.classify_relation(lcat, rc.nabla(lcat, l2))
    assert nl.reflexive and nl.symmetric
    assert nl.transitive is None  # composite overflows the ambient budget


def test_square_lattice_carries_twelve_relations(lat4):
    cat, _ = lat4
    l2 = cat.obj_index["L2"]
    rels = rc.relations_on(cat, l2, l2)
    assert rels is not None and len(rels) == 12
    assert all(rc.opposite(cat, rc.opposite(cat, r)) == r for r in rels)
    equivalences = [r for r in rels if rc.classify_relation(cat, r).equivalence]
    assert len(equivalences) == 1  # only the diagonal


def test_opposite_is_involutive_and_eq_of_iso_is_diagonal(set3):
    cat, _ = set3
    x1 = cat.obj_index["s1"]
    d = rc.delta(cat, x1)
    assert rc.opposite(cat, rc.opposite(cat, d)) == d
    ident = cat.hom(x1, x1)[0]
    assert rc.eq_of(cat, ident) == d


def test_direct_and_inverse_images_match_elementwise_sets(set3):
    cat, uni = set3
    size = _sizes(cat, uni)

    def subset_of(cls):
        return frozenset(uni.maps[cat.mid(cls.rep)])

    direct = inverse = 0
    for f in range(cat.n_mor):
        a, b = cat._dom_l[f], cat._cod_l[f]
        tf = uni.maps[cat.mid(f)]
        for cls in rc.sub_poset(cat, cat.oid(a))[0]:
            got = rc.direct_image(cat, f, cls)
            assert got is not None
            assert subset_of(got) == frozenset(tf[x] for x in subset_of(cls))
            direct += 1
        for cls in rc.sub_poset(cat, cat.oid(b))[0]:
            got = rc.inverse_image(cat, f, cls)
            assert got is not None
            want = frozenset(x for x in range(size[a]) if tf[x] in subset_of(cls))
            assert subset_of(got) == want
            inverse += 1
    assert direct == 360 and inverse == 389


def _mask(cat, uni, size, r):
    p1, p2 = limits.product(cat, r.src, r.tgt).legs
    t1 = uni.maps[cat.mid(cat.compose(p1, r.rep))]
    t2 = uni.maps[cat.mid(cat.compose(p2, r.rep))]
    return setrel.mask_of(zip(t1, t2), size[r.src], size[r.tgt])


def test_composition_agrees_with_bitmask_oracle(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    objs = range(len(cat.objects))
    rels = {}
    for x in objs:
        for y in objs:
            rr = rc.relations_on(cat, x, y)
            if rr is not None:
                rels[(x, y)] = rr
    agree = skipped = 0
    for (x, y), rxy in rels.items():
        for (y2, z), syz in rels.items():
            if y2 != y:
                continue
            for r in rxy:
                for s in syz:
                    out = rc.rel_compose(cat, r, s)
                    if out is None:
                        skipped += 1
                        continue
                    want = setrel.compose(
                        _mask(cat, uni, size, r), _mask(cat, uni, size, s),
                        size[x], size[y], size[z],
                    )
                    assert _mask(cat, uni, size, out) == want
                    agree += 1
    assert agree == 199 and skipped == 148


def test_identity_suite_on_small_sets(set3):
    cat, _ = set3
    results = rc.identity_suite(cat)
    assert [cid for cid, _ in results] == list(IDENTITY_IDS)
    by_id = dict(results)
    assert sum(1 for st in by_id.values() if st.failed) == 0
    passing = {cid: st for cid, st in by_id.items() if st.passed}
    assert len(passing) == 9
    na = by_id["lemma-reflexive-splits"]
    assert na.status == "inapplicable"
    assert na.witness == {
        "kind": "split-mono-not-coextensive",
        "morphism": "s0>s0#0000",
    }
    instances = [by_id[cid].details["instances"] for cid in IDENTITY_IDS[:-1]]
    assert instances == [5, 2, 6, 2, 25, 3, 3, 5, 2]
    oracle = [by_id[cid].details["oracle_instances"] for cid in IDENTITY_IDS[:-1]]
    assert oracle == [689, 70, 9440796, 70, 2624025, 3207, 6707, 1574925, 15]
    assert all(by_id[cid].details["oracle_failures"] == 0 for cid in IDENTITY_IDS[:-1])


def test_identity_suite_on_lattices(lat4):
    cat, _ = lat4
    by_id = dict(rc.identity_suite(cat))
    assert sum(1 for st in by_id.values() if st.failed) == 0
    na = by_id["lemma-reflexive-splits"]
    assert na.status == "inapplicable"
    assert na.witness == {
        "kind": "split-mono-not-coextensive",
        "morphism": "L1>L2#0000",
    }
    assert by_id["img-lax-functorial"].details["instances"] == 479
    assert by_id["prod-interchange"].details["instances"] == 239


def test_identity_suite_is_deterministic(set3):
    cat, _ = set3
    a = [(cid, st.as_dict()) for cid, st in rc.identity_suite(cat)]
    b = [(cid, st.as_dict()) for cid, st in rc.identity_suite(cat)]
    assert a == b


def test_regular_indicators_on_small_sets(set3):
    cat, _ = set3
    st = rc.regular_indicators(cat)
    assert st.passed
    assert st.details == {
        "morphisms": 60,
        "missing_factorisations": 0,
        "missing_examples": [],
        "stability_checked": 321,
        "regular_epis": 18,
    }


def test_exactness_report_on_small_sets(set3):
    cat, _ = set3
    st = rc.barr_exact_check(cat)
    assert st.passed
    d = st.details
    assert d["effective_equivalences"] == 2
    assert d["effectiveness_skipped"] == 0
    assert d["split_monos_coextensive"] is False
    assert d["category_coextensive"] is False
    assert d["biconditional_holds"] is True
    assert d["split_mono_counterexample"]["morphism"] == "s0>s0#0000"


def test_exactness_report_on_lattices(lat4):
    cat, _ = lat4
    st = rc.barr_exact_check(cat)
    assert st.passed
    d = st.details
    assert d["biconditional_holds"] is True
    assert d["split_monos_coextensive"] is False
    assert d["split_mono_counterexample"]["morphism"] == "L1>L2#0000"
    assert d["split_mono_counterexample"]["witness"]["kind"] == "bottom-row-not-product"


def test_product_lemmas_read_the_relation_through_the_cone(set4):
    """In FinSet≤4^op, s2 has six product cones.  Three of them differ from
    the chosen ones by the swap of s2, and along each of those, two of the
    four reflexive relations on s2 failed to decompose while the product of
    their images was read on the chosen product as if on s2 itself."""
    cat = dual_of(set4[0])
    assert len(limits.product_bases(cat, cat.o("s2"))) == 6
    by_id = dict(rc.identity_suite(cat))
    for cid, instances in (("lemma-eq-under-regepi", 23), ("lemma-reflexive-splits", 29)):
        assert by_id[cid].passed and by_id[cid].details == {"instances": instances, "skipped": 0}, cid


class _StoreLog(dict):
    """A store that logs the key of every answer put into it."""

    def __init__(self):
        super().__init__()
        self.stored = []

    def __setitem__(self, key, value):
        self.stored.append(key)
        super().__setitem__(key, value)


def test_the_regular_epi_lemma_classifies_each_relation_once(set4, monkeypatch):
    """On FinSet≤4^op the seed's loop classified 18 relations in 141 calls,
    once per product cone; the suite classifies each of them once, and
    no other: its classifications are read from the ``relation_flags``
    store, which starts empty."""
    cat = dual_of(set4[0])
    store = _StoreLog()
    monkeypatch.setitem(cat._cache, "relation_flags", store)
    rc.identity_suite(cat)
    ours = list(store.stored)
    real, calls = rc.classify_relation, []

    def classify_relation(c, r):
        calls.append(r)
        return real(c, r)

    monkeypatch.setattr(rc, "classify_relation", classify_relation)
    reference_relcalc.identity_suite(cat)
    assert len(calls) == 141 and len(set(calls)) == 18
    assert len(ours) == len(set(ours)) and set(ours) == set(calls)


def _faulty_compose(real):
    """``real`` with some composites missing and some replaced by the full
    relation, chosen asymmetrically in the two factors."""

    def rel_compose(cat, r, s):
        out = real(cat, r, s)
        k = None if out is None else (3 * r.rep + s.rep) % 7
        if k == 0:
            return None
        return rc.nabla(cat, out.src, out.tgt) if k == 1 else out

    return rel_compose


def _faulty_classify(real):
    """``real`` calling every third relation an equivalence."""

    def classify_relation(cat, r):
        flags = real(cat, r)
        return dataclasses.replace(flags, equivalence=True) if r.rep % 3 == 0 else flags

    return classify_relation


def _as_rows(results):
    return [(cid, st.status, st.witness, st.details) for cid, st in results]


def _assert_suite_equals_the_reference(cat) -> None:
    """Equal statuses, witnesses and details, without and with the faults,
    which both suites see through ``finext.relcalc``; and the constructors
    the reference keeps give the same relations.  The faulty run
    classifies into an empty ``relation_flags`` store, discarded after it,
    so the faulty composites reach every classification and no faulty
    flag outlives the run."""
    for faulty in (False, True):
        with contextlib.ExitStack() as stack:
            if faulty:
                stack.enter_context(mock.patch.dict(cat._cache, {"relation_flags": {}}))
                stack.enter_context(mock.patch.object(rc, "rel_compose", _faulty_compose(rc.rel_compose)))
                stack.enter_context(mock.patch.object(rc, "classify_relation", _faulty_classify(rc.classify_relation)))
            assert _as_rows(rc.identity_suite(cat)) == _as_rows(reference_relcalc.identity_suite(cat))
    objects = range(len(cat.objects))
    for x in objects:
        assert rc.delta(cat, x) == reference_relcalc.delta(cat, x), x
        for r in itertools.chain.from_iterable(filter(None, (rc.relations_on(cat, x, y) for y in objects))):
            assert rc.opposite(cat, r) == reference_relcalc.opposite(cat, r), r
    for f in range(cat.n_mor):
        assert rc.eq_of(cat, f) == reference_relcalc.eq_of(cat, f), f


# the verify-paper built-ins (finset3-op is the dual of set3) and FinSet≤4,
# each taken with its dual
CATEGORIES = ["set3", "pointed3", "golden", "slat3", "lat4", "cpos3", "mon3", "set4"]


@pytest.mark.parametrize("name", CATEGORIES)
def test_identity_suite_equals_the_reference(request, name):
    cat, _ = request.getfixturevalue(name)
    for c in (cat, dual_of(cat)):
        _assert_suite_equals_the_reference(c)


def test_identity_suite_equals_the_reference_on_an_inflation(dual_set3):
    # a copy of the terminal s1, whose product with s2 is s2 through an iso
    cat = inflate(dual_set3, dual_set3.o("s1"), 0)
    for c in (cat, dual_of(cat)):
        _assert_suite_equals_the_reference(c)


@settings(max_examples=30, deadline=None)
@given(preorders())
def test_identity_suite_equals_the_reference_on_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_suite_equals_the_reference(c)


@pytest.mark.parametrize("name", CATEGORIES)
def test_regular_indicators_equal_the_reference(request, name):
    """Counting an iso-leg cospan by transport, without its pullback, keeps
    every status, witness and count of the loop that pulls it back."""
    cat, _ = request.getfixturevalue(name)
    for c in (cat, dual_of(cat)):
        assert rc.regular_indicators(c).as_dict() == reference_relcalc.regular_indicators(c).as_dict()


@settings(max_examples=30, deadline=None)
@given(preorders())
def test_regular_indicators_equal_the_reference_on_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        assert rc.regular_indicators(c).as_dict() == reference_relcalc.regular_indicators(c).as_dict()


RELATION_STORES = ("rel_compose", "rel_product", "rel_image", "rel_preimage", "relation_flags")


def _ints_only(key) -> bool:
    return type(key) is int or isinstance(key, tuple) and all(map(_ints_only, key))


def _assert_relations_are_least_monos(cat) -> int:
    """After one identity suite, every relation that the constructors give
    and that the suite's operations stored is named by the least mono of
    its class, a mono into the chosen product of its ends, and every
    relation store is keyed by ints alone.  Returns how many were read."""
    rc.identity_suite(cat)
    objects = range(len(cat.objects))
    pairs = list(itertools.product(objects, repeat=2))
    rels = [r for x, y in pairs for r in rc.relations_on(cat, x, y) or ()]
    stores = [cat._cache.get(name, {}) for name in RELATION_STORES]
    made = [
        *rels,
        *(rc.delta(cat, x) for x in objects),
        *(rc.nabla(cat, x, y) for x, y in pairs),
        *(rc.opposite(cat, r) for r in rels),
        *(rc.eq_of(cat, f) for f in range(cat.n_mor)),
        *(r for store in stores[:-1] for r in store.values()),
    ]
    made = [r for r in made if r is not None]
    for r in made:
        assert r.rep == rc.class_of(cat, r.rep).rep, r
        assert cat._cod_l[r.rep] == limits.product(cat, r.src, r.tgt).apex, r
    assert [key for store in stores for key in store if not _ints_only(key)] == []
    return len(made)


@pytest.mark.parametrize("name", CATEGORIES)
def test_relations_are_least_monos_into_the_chosen_product(request, name):
    cat, _ = request.getfixturevalue(name)
    assert sum(_assert_relations_are_least_monos(c) for c in (cat, dual_of(cat))) > 0


@settings(max_examples=30, deadline=None)
@given(preorders())
def test_relations_are_least_monos_on_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_relations_are_least_monos(c)
