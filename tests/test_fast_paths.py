"""Fast paths checked against their reference implementations.

The references live in ``reference_limits``, ``reference_extensivity`` and
``reference_fincat``.  Each comparison runs on the small built-in
categories of ``verify-paper``, on one product category, on the duals of
these, and on thin categories of random posets drawn by Hypothesis.

The composition rows, columns (rows of the dual) and blocks, and every
kernel that reads them, are compared with the seed's numpy versions, the
cone counts with the seed's fibre-dict count, both also on tables with
single-entry faults, and ``validate`` with the seed's under single-entry
faults and past its violation cap, also on duals, inflated categories
(``generators.inflate``) and thin categories of random preorders
(``generators.preorders``).  The generating set that ``validate`` checks
associativity through is compared with a brute-force one: its closure with
the identities is every morphism.  The one coproduct certificate is
compared with the seed's binary and n-ary ones, and the answers read from
the cached bases (``coproduct``, ``is_coproduct_cocone``,
``is_product_cone``) with the seed's searches.  On every parallel pair,
``is_coequaliser``, ``coequaliser`` and ``equaliser`` are compared with the
seed's certificate and first-certified search, and ``_is_regular_epi``
with the set of morphisms that coequalise some pair.  The strict-refinement
grid search finds a grid wherever the pushout grid refines two product
cones, and refines every product cone with itself where a terminal object
exists, also on thin categories of random preorders with a top point.

The index-preserving ``dual`` is compared with the string-id reference
dual: the two categories agree once their ids are matched, and every
co-side answer equals the primal routine run on the reference dual.  The
cached split-epi index (``fincat._sections``) of each category and of its
dual equals the seed's split-mono scan of the other side.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_extensivity
import reference_fincat
import reference_limits
from finext import extensivity as ext
from finext import fincat
from finext import limits
from finext.algebra import build_category
from finext.extensivity import _dualized, _e2_first_failure
from finext.fincat import (
    _CLASSES,
    FinCategory,
    _extremal_epi_set,
    _generating_set,
    _iso_info,
    _mono_set,
    classify_morphism,
    dual,
    dual_of,
    morphisms_of_class,
    thin_category_from_poset,
    validate,
)
from generators import inflate, preorders

# (variety, max carrier, include_empty), as verify-paper builds them.  Its
# lat4 is left out: 1,261,216 commuting squares take about 25 s through
# the reference mediator search.
BUILTINS = (
    ("set", 3, None),
    ("pointed", 3, None),
    ("poset", 1, True),
    ("slat", 3, None),
    ("cpos", 3, None),
    ("mon", 3, None),
)


def _cospans(cat: FinCategory):
    n = len(cat.objects)
    for x in range(n):
        into = [m for a in range(n) for m in cat.hom(a, x)]
        yield from itertools.product(into, repeat=2)


def _commuting_squares(cat: FinCategory, f: int, u: int):
    for y in range(len(cat.objects)):
        fib_u = cat.postcompose_fibers(u, y)
        for w, p1s in cat.postcompose_fibers(f, y).items():
            for p1 in p1s:
                for p2 in fib_u.get(w, ()):
                    yield p1, p2


def _assert_square_table_matches_mediator(cat: FinCategory) -> int:
    checked = 0
    for f, u in _cospans(cat):
        for p1, p2 in _commuting_squares(cat, f, u):
            fast = limits.is_pullback_square(cat, f, u, p1, p2)
            assert fast == reference_limits.is_pullback_square(cat, f, u, p1, p2), (f, u, p1, p2)
            checked += fast
    return checked


def _assert_table_readers_match_reference(cat: FinCategory) -> None:
    """Blocks, rows and columns equal the numpy blocks read through
    ``compose`` (-1 where the table has no entry), and the cone counts of
    every cospan equal the fibre-dict count."""
    n = len(cat.objects)
    for a, b, c in itertools.product(range(n), repeat=3):
        assert cat.block(a, b, c) == tuple(map(tuple, reference_fincat.block(cat, a, b, c).tolist())), (a, b, c)
    for f in range(cat.n_mor):
        a, b = cat._dom_l[f], cat._cod_l[f]
        pos = cat.pos_in_hom(f)
        assert cat.hom(a, b)[pos] == f
        rows = [tuple(reference_fincat.block(cat, y, a, b)[pos].tolist()) for y in range(n)]
        cols = [tuple(reference_fincat.block(cat, a, b, z)[:, pos].tolist()) for z in range(n)]
        assert cat.rows(f) == rows and cat.cols(f) == cols, f
        assert [cat.rows(f)[y] for y in range(n)] == rows and [cat.cols(f)[z] for z in range(n)] == cols, f
    for f, u in _cospans(cat):
        assert limits._cone_counts(cat, f, u) == reference_limits.cone_counts(cat, f, u), (f, u)


def _assert_coproducts_match_reference(cat: FinCategory) -> None:
    """``coproduct``, the bases of arity 2 and 3, the coproduct inclusions,
    ``is_coproduct_cocone`` and ``is_product_cone`` equal the seed's
    searches and certificate: the membership tests on every pair of
    morphisms, codomains shared or not, and on every triple that widens a
    binary base by one morphism."""
    n = len(cat.objects)
    d = dual_of(cat)
    for a1, a2 in itertools.product(range(n), repeat=2):
        assert limits.coproduct(cat, a1, a2) == reference_limits.coproduct(cat, a1, a2), (a1, a2)
    inclusions = set()
    for x, arity in itertools.product(range(n), (2, 3)):
        expected = reference_extensivity.coproduct_bases_n(cat, x, arity)
        assert limits.coproduct_bases(cat, x, arity) == expected, (x, arity)
        if arity == 2:
            inclusions.update(m for base in expected for m in base)
    assert limits.coproduct_legs(cat) == inclusions
    assert morphisms_of_class(cat, "coproduct-inclusion") == sorted(cat.mid(m) for m in inclusions)
    for legs in itertools.product(range(cat.n_mor), repeat=2):
        assert limits.is_coproduct_cocone(cat, *legs) == reference_extensivity.cocone_universal_n(cat, legs), legs
        assert limits.is_product_cone(cat, *legs) == reference_extensivity.cocone_universal_n(d, legs), legs
    for base in {b for x in range(n) for b in limits.coproduct_bases(cat, x)}:
        for m in range(cat.n_mor):
            legs = (*base, m)
            assert limits.is_coproduct_cocone(cat, *legs) == reference_extensivity.cocone_universal_n(cat, legs), legs


def _parallel_pairs(cat: FinCategory):
    """Every parallel pair (u, v) with u <= v."""
    n = len(cat.objects)
    for y, a in itertools.product(range(n), repeat=2):
        yield from itertools.combinations_with_replacement(cat.hom(y, a), 2)


def _assert_coequalisers_match_reference(cat: FinCategory) -> None:
    """On every parallel pair (u, v): ``is_coequaliser`` for every f out of
    cod u equals the seed's certificate; ``coequaliser`` of (u, v) and of
    (v, u) equals the seed's first-certified search, and ``equaliser`` that
    search on the dual.  ``_is_regular_epi`` holds exactly for the f that
    coequalise some pair, with a witness pair the seed's certificate accepts."""
    n = len(cat.objects)
    d = dual_of(cat)
    regular = set()
    for u, v in _parallel_pairs(cat):
        out = [f for q in range(n) for f in cat.hom(cat._cod_l[u], q)]
        certified = {f for f in out if reference_limits.is_coequaliser(cat, u, v, f)}
        assert {f for f in out if limits.is_coequaliser(cat, u, v, f)} == certified, (u, v)
        regular |= certified
        expected = reference_limits.coequaliser(cat, u, v)
        assert limits.coequaliser(cat, u, v) == expected == limits.coequaliser(cat, v, u), (u, v)
        assert limits.equaliser(cat, u, v) == reference_limits.coequaliser(d, u, v), (u, v)
    for f in range(cat.n_mor):
        ok, pair = fincat._is_regular_epi(cat, f)
        assert ok == (f in regular), f
        assert ok == (pair is not None and reference_limits.is_coequaliser(cat, *pair, f)), f


def _assert_kernels_match_numpy(cat: FinCategory) -> None:
    n = len(cat.objects)
    _assert_table_readers_match_reference(cat)
    assert _mono_set(cat) == reference_fincat.mono_set(cat)
    assert _extremal_epi_set(cat) == reference_fincat.extremal_epi_set(cat)
    for a1, a2, x in itertools.product(range(n), repeat=3):
        for u in cat.hom(a1, x):
            for v in cat.hom(a2, x):
                fast = limits.is_coproduct_cocone(cat, u, v)
                assert fast == reference_limits.cocone_universal(cat, a1, a2, x, u, v), (u, v)
                if not fast:
                    continue
                for z in range(n):
                    for t1, t2 in itertools.product(cat.hom(a1, z), cat.hom(a2, z)):
                        assert limits.cotuple(cat, u, v, t1, t2) == reference_limits.cotuple(cat, u, v, t1, t2)
    for x in range(n):
        for doms in itertools.product(range(n), repeat=3):
            if any(cat._hom_counts_l[x][y] != math.prod(cat._hom_counts_l[a][y] for a in doms) for y in range(n)):
                continue
            for legs in itertools.product(*(cat.hom(a, x) for a in doms)):
                assert limits.is_coproduct_cocone(cat, *legs) == reference_extensivity.cocone_universal_n(cat, legs), legs
    _assert_coproducts_match_reference(cat)
    _assert_coequalisers_match_reference(cat)
    for f, u in _cospans(cat):
        a, b = cat._dom_l[f], cat._dom_l[u]
        counts = limits._cone_counts(cat, f, u)
        for p1, p2 in _commuting_squares(cat, f, u):
            p = cat._dom_l[p1]
            assert limits._cone_universal(cat, p1, p2, counts) == reference_limits.cone_universal(
                cat, a, b, p, p1, p2, counts
            ), (f, u, p1, p2)


def _assert_e2_scan_matches_walk(cat: FinCategory) -> None:
    monos = _mono_set(cat)
    isos = _iso_info(cat)[0]
    for f in range(cat.n_mor):

        def pullback_fault(leg, top, filler):
            return None if limits.is_pullback_square(cat, f, leg, top, filler) else "square-not-pullback"

        def class_fault(leg, top, filler):
            if not limits.is_pullback_square(cat, f, leg, top, filler):
                return "square-not-pullback"
            return None if top in isos and filler in isos else "square-legs-not-in-class"

        def scattered_fault(leg, top, filler):
            # fails a scattered subset of squares, so failures land on many
            # positions of the instance order
            return "synthetic" if (7 * leg + 3 * top + filler) % 5 == 0 else None

        faults = [(pullback_fault, None), (class_fault, monos), (scattered_fault, None), (scattered_fault, monos)]
        # one failing square at a time, for each of f's distinct squares
        squares = dict.fromkeys(
            sq
            for x1, x2, u, v, g1, g2 in reference_extensivity.e2_instances(cat, f)
            for sq in ((u, x1, g1), (v, x2, g2))
        )
        for target in squares:

            def single_fault(leg, top, filler, target=target):
                return "synthetic" if (leg, top, filler) == target else None

            faults.append((single_fault, None))
        for fault, allowed in faults:
            assert _e2_first_failure(cat, f, fault, allowed) == reference_extensivity.e2_first_failure(
                cat, f, fault, allowed
            ), (f, fault.__name__)


def _product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """The product category c × d, with ids joined by "|"."""

    def pair(xs, i, ys, j):
        return f"{xs[i]}|{ys[j]}"

    objects = [f"{x}|{y}" for x in c.objects for y in d.objects]
    morphisms = [
        (
            pair(c.mor_ids, i, d.mor_ids, j),
            pair(c.objects, c._dom_l[i], d.objects, d._dom_l[j]),
            pair(c.objects, c._cod_l[i], d.objects, d._cod_l[j]),
        )
        for i in range(c.n_mor)
        for j in range(d.n_mor)
    ]
    identities = {
        pair(c.objects, x, d.objects, y): pair(c.mor_ids, c.identity_of[x], d.mor_ids, d.identity_of[y])
        for x in range(len(c.objects))
        for y in range(len(d.objects))
    }
    composition = {
        (f"{e1['g']}|{e2['g']}", f"{e1['f']}|{e2['f']}"): f"{e1['gf']}|{e2['gf']}"
        for e1 in c.to_json()["composition"]
        for e2 in d.to_json()["composition"]
    }
    return FinCategory(objects, morphisms, identities, composition)


def _set2_op_squared() -> FinCategory:
    """(FinSet≤2)^op × (FinSet≤2)^op: coproduct legs that are not monic on
    both sides of one cocone, so condition-two fillers come in fibers of
    several morphisms on both sides, which no built-in category has.  The
    objects are listed in reverse, which orders the bases so that a single
    failing left square is met first below the first row of its instances."""
    d = dual_of(build_category("set", 2)[0])
    data = _product_category(d, d).to_json()
    return FinCategory.from_json({**data, "objects": data["objects"][::-1]})


@pytest.fixture(
    scope="module",
    params=[*BUILTINS, "set2-op-squared"],
    ids=lambda b: b if isinstance(b, str) else f"{b[0]}{b[1]}",
)
def small_category(request):
    if request.param == "set2-op-squared":
        return _set2_op_squared()
    kind, n, empty = request.param
    cat, _uni = build_category(kind, n, empty)
    return cat


def test_square_table_matches_mediator_search(small_category):
    assert _assert_square_table_matches_mediator(small_category) > 0
    _assert_square_table_matches_mediator(dual_of(small_category))


def test_universality_kernels_match_numpy(small_category):
    _assert_kernels_match_numpy(small_category)
    _assert_kernels_match_numpy(dual_of(small_category))


def test_condition_two_scan_matches_instance_walk(small_category):
    _assert_e2_scan_matches_walk(small_category)
    _assert_e2_scan_matches_walk(dual_of(small_category))


def test_square_table_is_consistent_under_threads():
    """Threads filling one category's row lists, fibre-size cache and square
    table concurrently (as a threaded library caller may) all read the
    sequential answers, and every cache ends holding them."""
    ref = build_category("set", 3)[0]
    morphisms = list(range(ref.n_mor))
    cospans = list(_cospans(ref))[::3]
    squares = [(f, u, p1, p2) for f, u in _cospans(ref) for p1, p2 in _commuting_squares(ref, f, u)][::5]
    expected_rows = {g: (ref.rows(g), ref.cols(g)) for g in morphisms}
    expected_counts = {fu: limits._cone_counts(ref, *fu) for fu in cospans}
    expected = {sq: limits.is_pullback_square(ref, *sq) for sq in squares}
    cat = build_category("set", 3)[0]
    mismatches: list = []

    def worker(shift: int) -> None:
        for g in morphisms[shift % ref.n_mor :] + morphisms[: shift % ref.n_mor]:
            if (cat.rows(g), cat.cols(g)) != expected_rows[g]:
                mismatches.append(g)
        for fu in cospans[shift % len(cospans) :] + cospans[: shift % len(cospans)]:
            if limits._cone_counts(cat, *fu) != expected_counts[fu]:
                mismatches.append(fu)
        for sq in squares[shift:] + squares[:shift]:
            if limits.is_pullback_square(cat, *sq) != expected[sq]:
                mismatches.append(sq)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * len(squares) // 4,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []
    assert cat._rows == ref._rows and dual_of(cat)._rows == dual_of(ref)._rows
    sizes = {u: [get.__self__ for get in gets] for u, gets in cat._cache["fibre_sizes"].items()}
    assert sizes == {u: [Counter(r) for r in ref.rows(u)] for u in sizes}
    assert {u for _f, u in cospans} <= set(sizes)


def test_table_readers_match_the_references_on_fault_injected_tables():
    """Single-entry faults leave a missing entry, which reads -1, or a wrong
    or mistyped composite, which rows and columns read as stored."""
    makes = (
        lambda: build_category("set", 2)[0],
        lambda: build_category("mon", 2)[0],
        lambda: thin_category_from_poset([[True, True, True], [False, True, True], [False, False, True]]),
    )
    for make in makes:
        for label, data in _mutants(make()):
            faulty = FinCategory.from_json(data)
            for c in (faulty, dual_of(faulty)):
                _assert_table_readers_match_reference(c)
                if label == "missing":
                    assert any(-1 in r for f in range(c.n_mor) for r in c.rows(f)), label
                    assert any(-1 in r for f in range(c.n_mor) for r in c.cols(f)), label


@st.composite
def posets(draw, max_points: int = 5):
    """A random poset on up to ``max_points`` points: the reflexive-transitive
    closure of a random set of edges i -> j with i < j."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    leq = [[i == j or (i < j and draw(st.booleans())) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return leq


@settings(max_examples=60, deadline=None)
@given(posets())
def test_fast_paths_on_random_posets(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_square_table_matches_mediator(c)
        _assert_kernels_match_numpy(c)
        _assert_e2_scan_matches_walk(c)


# -- the index-preserving dual against the string-id reference -----------------

# Each morphism class and its dual class; extremal epis have no dual class
# among the named ones.
_DUAL_CLASS = {
    "mono": "epi",
    "epi": "mono",
    "split-mono": "split-epi",
    "split-epi": "split-mono",
    "regular-mono": "regular-epi",
    "regular-epi": "regular-mono",
    "iso": "iso",
    "identity": "identity",
    "product-projection": "coproduct-inclusion",
    "coproduct-inclusion": "product-projection",
}
_DUAL_PROFILE = {
    "is_mono": "is_epi",
    "is_epi": "is_mono",
    "is_split_mono": "is_split_epi",
    "is_split_epi": "is_split_mono",
    "is_regular_mono": "is_regular_epi",
    "is_regular_epi": "is_regular_mono",
    "is_iso": "is_iso",
}
_DUAL_WITNESS = {
    "retraction": "section",
    "section": "retraction",
    "coequalised_pair": "equalised_pair",
    "equalised_pair": "coequalised_pair",
}


def _by_id(cat: FinCategory, w: limits.UniversalWitness | None):
    return None if w is None else (cat.oid(w.apex), [cat.mid(m) for m in w.legs])


def _composition_by_id(cat: FinCategory) -> dict:
    return {(e["g"], e["f"]): e["gf"] for e in cat.to_json()["composition"]}


def _assert_dual_matches_reference(cat: FinCategory, d: FinCategory) -> None:
    ref = reference_fincat.dual(cat)
    assert d.objects == ref.objects and d.metadata == ref.metadata
    assert d.mor_ids is cat.mor_ids and sorted(d.mor_ids) == sorted(ref.mor_ids)
    for i, mid in enumerate(d.mor_ids):
        j = ref.m(mid)
        assert (d._dom_l[i], d._cod_l[i]) == (ref._dom_l[j], ref._cod_l[j]), mid
    assert {x: d.mid(m) for x, m in d.identity_of.items()} == {x: ref.mid(m) for x, m in ref.identity_of.items()}
    assert d.identity_set == frozenset(d.identity_of.values())
    assert _composition_by_id(d) == _composition_by_id(ref)
    n = len(cat.objects)
    for a, b in itertools.product(range(n), repeat=2):
        ids = [d.mid(m) for m in d.hom(a, b)]
        assert ids == [ref.mid(m) for m in ref.hom(a, b)] == sorted(ids), (a, b)
    assert d._hom_counts_l == ref._hom_counts_l
    assert validate(d) == []


def _assert_dual_is_an_involution(cat: FinCategory) -> None:
    assert dual_of(dual_of(cat)) is cat
    dd = dual(dual(cat))
    for attr in (
        *("objects", "obj_index", "mor_ids", "mor_index", "n_mor", "_M", "_dom_l", "_cod_l", "_pos"),
        *("identity_of", "identity_set", "_extra", "_hom", "_hom_counts_l", "metadata"),
    ):
        assert getattr(dd, attr) == getattr(cat, attr), attr
    assert dd._rows is cat._rows
    morphisms = range(cat.n_mor)
    assert [dd.rows(g) for g in morphisms] == [cat.rows(g) for g in morphisms]
    assert [dd.cols(f) for f in morphisms] == [cat.cols(f) for f in morphisms]


def _assert_co_side_matches_reference(cat: FinCategory) -> None:
    """Each co-side answer on ``cat`` equals the primal answer on the
    reference dual, read back through ids, and the split epis of ``cat`` and
    of its dual, with their first sections, equal the seed's split-mono scan
    of the other side."""
    ref = reference_fincat.dual(cat)
    r = [ref.m(mid) for mid in cat.mor_ids]
    n = len(cat.objects)
    for a1, a2 in itertools.product(range(n), repeat=2):
        assert _by_id(cat, limits.product(cat, a1, a2)) == _by_id(ref, limits.coproduct(ref, a1, a2))
    for x in range(n):
        assert [[cat.mid(m) for m in b] for b in limits.product_bases(cat, x)] == [
            [ref.mid(m) for m in b] for b in limits.coproduct_bases(ref, x)
        ]
    for a in range(n):
        out = [m for b in range(n) for m in cat.hom(a, b)]
        for f, g in itertools.product(out, repeat=2):
            assert _by_id(cat, limits.pushout(cat, f, g)) == _by_id(ref, limits.pullback(ref, r[f], r[g])), (f, g)
            for p1, p2 in _commuting_squares(ref, r[f], r[g]):
                q1, q2 = cat.m(ref.mid(p1)), cat.m(ref.mid(p2))
                assert limits.is_pushout_square(cat, f, g, q1, q2) == limits.is_pullback_square(
                    ref, r[f], r[g], p1, p2
                ), (f, g, q1, q2)
        for b in range(n):
            for u, v in itertools.product(cat.hom(a, b), repeat=2):
                assert _by_id(cat, limits.equaliser(cat, u, v)) == _by_id(ref, limits.coequaliser(ref, r[u], r[v]))
    for mid in cat.mor_ids:
        assert ext.check_c1(cat, mid).as_dict() == _dualized(ext.check_e1(ref, mid)).as_dict(), mid
        assert ext.check_c2(cat, mid).as_dict() == _dualized(ext.check_e2(ref, mid)).as_dict(), mid
        profile, ref_profile = classify_morphism(cat, mid), classify_morphism(ref, mid)
        for key, ref_key in _DUAL_PROFILE.items():
            assert getattr(profile, key) == getattr(ref_profile, ref_key), (mid, key)
        assert profile.witnesses == {_DUAL_WITNESS[k]: v for k, v in ref_profile.witnesses.items()}, mid
    for c in (cat, dual_of(cat)):
        seed = [(f, reference_fincat.split_mono_witness(dual_of(c), f)) for f in range(c.n_mor)]
        assert list(fincat._sections(c).items()) == [(f, s) for f, s in seed if s is not None]
    for cls in _CLASSES:
        assert morphisms_of_class(dual_of(cat), cls) == morphisms_of_class(ref, cls), cls
        if cls in _DUAL_CLASS:
            assert morphisms_of_class(cat, cls) == morphisms_of_class(ref, _DUAL_CLASS[cls]), cls
    for oid in cat.objects:
        for cls in ("all", *_CLASSES):
            assert ext.is_M_coextensive(cat, oid, cls).as_dict() == _dualized(
                ext.is_M_extensive(ref, oid, cls)
            ).as_dict(), (oid, cls)


def test_dual_matches_string_id_reference(small_category):
    for c in (small_category, dual_of(small_category)):
        _assert_dual_matches_reference(c, dual(c))
        _assert_dual_is_an_involution(c)


def test_co_side_answers_match_the_reference_dual(small_category):
    for c in (small_category, dual_of(small_category)):
        _assert_co_side_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(posets())
def test_dual_and_co_side_on_random_posets(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_dual_matches_reference(c, dual(c))
        _assert_dual_is_an_involution(c)
        _assert_co_side_matches_reference(c)


def test_dual_builds_without_constructor_or_id_lookups(monkeypatch):
    cat = build_category("set", 2)[0]

    def refuse(*_args, **_kwargs):
        raise AssertionError("dual must reuse the primal's integer data")

    for name in ("__init__", "m", "o", "mid", "oid"):
        monkeypatch.setattr(FinCategory, name, refuse)
    d = dual(cat)
    monkeypatch.undo()
    _assert_dual_matches_reference(cat, d)


def _mutants(cat: FinCategory):
    """Single-entry faults of the composition table: a wrong composite of
    the right type, a composite of the wrong type, and a missing entry.
    Then, where two morphisms do not compose, an entry for them, alone and
    in place of a missing entry (which keeps the number of entries), and
    the whole table in reverse order with that entry and two mistyped
    composites, whose violations are reported in (g, f) order.  Last, the
    sound table with its first identity undeclared, which only the full
    associativity walk can clear."""
    data = cat.to_json()
    table = data["composition"]
    ids = [m["id"] for m in data["morphisms"]]
    typing = {m["id"]: (m["dom"], m["cod"]) for m in data["morphisms"]}
    for i, entry in enumerate(table):
        right_type = [m for m in ids if typing[m] == typing[entry["gf"]] and m != entry["gf"]]
        wrong_type = [m for m in ids if typing[m] != typing[entry["gf"]]]
        for label, gf in (("wrong", right_type[:1]), ("mistyped", wrong_type[:1])):
            for m in gf:
                faulty = [dict(e) for e in table]
                faulty[i]["gf"] = m
                yield label, {**data, "composition": faulty}
        yield "missing", {**data, "composition": table[:i] + table[i + 1 :]}
    # the swapped pair (f, g) of an entry (g, f) that does not compose
    i = next((i for i, e in enumerate(table) if typing[e["g"]][1] != typing[e["f"]][0]), None)
    if i is not None:
        extraneous = {"g": table[i]["f"], "f": table[i]["g"], "gf": table[i]["gf"]}
        yield "extraneous", {**data, "composition": table + [extraneous]}
        yield "extraneous-and-missing", {**data, "composition": table[:i] + table[i + 1 :] + [extraneous]}
        faulty = [dict(e) for e in table] + [extraneous]
        for e in (faulty[0], faulty[-2]):
            e["gf"] = next(m for m in ids if typing[m] != typing[e["gf"]])
        yield "shuffled", {**data, "composition": faulty[::-1]}
    identities = dict(data["identities"])
    if identities:
        del identities[next(iter(identities))]
        yield "identity-undeclared", {**data, "identities": identities}


def _scrambled(cat: FinCategory) -> FinCategory:
    """Every composite of two non-identities replaced by the next morphism
    of its hom-set: the identity laws still hold, and far more triples fail
    associativity than ``validate`` reports by default."""
    data = cat.to_json()
    identities = set(data["identities"].values())
    typing = {m["id"]: (m["dom"], m["cod"]) for m in data["morphisms"]}
    by_type: dict = {}
    for m in data["morphisms"]:
        by_type.setdefault(typing[m["id"]], []).append(m["id"])

    def shifted(mid):
        ids = by_type[typing[mid]]
        return ids[(ids.index(mid) + 1) % len(ids)]

    table = [
        e if {e["g"], e["f"]} & identities else {**e, "gf": shifted(e["gf"])} for e in data["composition"]
    ]
    return FinCategory.from_json({**data, "composition": table})


def _assert_validate_matches_reference_on_mutants(cat: FinCategory) -> set[str]:
    assert validate(cat) == reference_fincat.validate(cat) == []
    kinds = set()
    for label, data in _mutants(cat):
        faulty = FinCategory.from_json(data)
        found = validate(faulty)
        assert found == reference_fincat.validate(faulty), label
        assert validate(faulty, max_violations=2) == reference_fincat.validate(faulty, max_violations=2), label
        if label != "wrong":
            assert found, label
        if label == "identity-undeclared":
            assert [v.kind for v in found] == ["identity-missing"]
        kinds.update(v.kind for v in found)
    return kinds


ALL_KINDS = {"comp-missing", "comp-extraneous", "comp-typing", "identity-law", "identity-missing", "assoc"}
CHAIN3 = [[True, True, True], [False, True, True], [False, False, True]]


@pytest.mark.parametrize(
    "make, expected_kinds",
    [
        (lambda: build_category("set", 2)[0], ALL_KINDS),
        (lambda: build_category("poset", 1, True)[0], ALL_KINDS - {"assoc"}),
        (lambda: thin_category_from_poset(CHAIN3), ALL_KINDS),
        (lambda: build_category("mon", 2)[0], ALL_KINDS),
        (lambda: dual_of(build_category("set", 2)[0]), ALL_KINDS),
        (lambda: dual_of(thin_category_from_poset(CHAIN3)), ALL_KINDS),
        (lambda: inflate(build_category("poset", 1, True)[0], 1, 0), ALL_KINDS),
        (lambda: dual_of(inflate(build_category("pointed", 2)[0], 1, 0)), ALL_KINDS),
    ],
    ids=["set2", "golden-poset", "chain3", "mon2", "set2-op", "chain3-op", "golden-inflated", "pointed2-inflated-op"],
)
def test_validate_matches_reference_under_fault_injection(make, expected_kinds):
    assert _assert_validate_matches_reference_on_mutants(make()) == expected_kinds


@settings(max_examples=30, deadline=None)
@given(posets(max_points=4))
def test_validate_matches_reference_on_random_poset_mutants(leq):
    _assert_validate_matches_reference_on_mutants(thin_category_from_poset(leq))


@settings(max_examples=15, deadline=None)
@given(preorders(max_points=3))
def test_validate_matches_reference_on_random_preorder_mutants(leq):
    _assert_validate_matches_reference_on_mutants(thin_category_from_poset(leq))


@pytest.mark.parametrize("kind, n", [("pointed", 3), ("mon", 3)])
def test_validate_stops_at_the_violation_cap_like_the_reference(kind, n):
    faulty = _scrambled(build_category(kind, n)[0])
    assert len(reference_fincat.validate(faulty, max_violations=10**6)) > 50
    found = validate(faulty)
    assert len(found) == 50 and found == reference_fincat.validate(faulty)
    assert {v.kind for v in found} == {"assoc"}


# -- the strict-refinement grid search ----------------------------------------


def _assert_cones_refine_themselves(cat: FinCategory) -> None:
    """With a terminal object 1, a product cone (a1, a2) on X refines itself
    through the rows (id, !) on A1 = A1 x 1 and (!, id) on A2 = 1 x A2."""
    assert limits.terminal(cat) is not None
    for x in range(len(cat.objects)):
        for cone in limits.product_bases(cat, x):
            assert ext._grid_search(cat, cone, cone), [cat.mid(m) for m in cone]


def test_grid_search_refines_every_product_cone_with_itself(small_category):
    _assert_cones_refine_themselves(small_category)
    # slat3 and cpos3 have no initial structure, so their duals no terminal
    # object, and there a cone need not refine itself
    if limits.initial(small_category) is not None:
        _assert_cones_refine_themselves(dual_of(small_category))


@settings(max_examples=40, deadline=None)
@given(preorders(max_points=4))
def test_grid_search_refines_every_product_cone_with_itself_on_random_preorders(leq):
    top = [row + [True] for row in leq] + [[False] * len(leq) + [True]]
    _assert_cones_refine_themselves(thin_category_from_poset(top))


def test_grid_search_finds_every_pushout_grid(small_category):
    found = 0
    for c in (small_category, dual_of(small_category)):
        for x in range(len(c.objects)):
            cones = limits.product_bases(c, x)
            for ca, cb in itertools.product(cones, repeat=2):
                if ext._grid_for(c, ca, cb):
                    found += 1
                    assert ext._grid_search(c, ca, cb), (c.oid(x), ca, cb)
    assert found


# -- the generating set that validate checks associativity through ------------


def _assert_generating_set_matches_reference(cat: FinCategory) -> None:
    gens = _generating_set(cat)
    assert reference_fincat.closure(cat, gens) == set(range(cat.n_mor))
    assert gens == reference_fincat.generating_set(cat)


def test_generating_set_matches_brute_force(small_category):
    for c in (small_category, dual_of(small_category)):
        _assert_generating_set_matches_reference(c)


@pytest.mark.parametrize(
    "kind, n, x, pos", [("set", 2, 1, 0), ("mon", 2, 0, 2), ("pointed", 3, 2, 3), ("set", 3, 0, 4)]
)
def test_generating_set_matches_brute_force_on_inflations(kind, n, x, pos):
    cat = inflate(build_category(kind, n)[0], x, pos)
    for c in (cat, dual_of(cat)):
        _assert_generating_set_matches_reference(c)


@settings(max_examples=40, deadline=None)
@given(preorders())
def test_generating_set_matches_brute_force_on_random_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_generating_set_matches_reference(c)


def test_sound_tables_skip_the_full_associativity_walk(small_category, monkeypatch):
    """A table whose earlier scans find nothing and which is associative
    through its generating set is never walked triple by triple."""

    def refuse(*_args):
        raise AssertionError("the full associativity walk ran on a sound table")

    monkeypatch.setattr(fincat, "_associativity_walk", refuse)
    for c in (small_category, dual_of(small_category)):
        assert validate(c) == []
    # the patched walk is the one validate runs on a table with a finding
    undeclared = FinCategory.from_json({**small_category.to_json(), "identities": {}})
    with pytest.raises(AssertionError, match="walk ran"):
        validate(undeclared)
