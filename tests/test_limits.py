"""Universal-construction searches checked against elementary set combinatorics.

The generator's function tables give independent ground truth: product sizes
multiply, coproduct sizes add, pullback apexes count matching pairs, and
(co)equalisers count fixed points / generated classes.  Every construction is
also certified structurally (typing, commutation, mediator uniqueness is the
searcher's job; here we confirm the arithmetic it must reproduce).
"""

from __future__ import annotations

import itertools
from unittest import mock

import pytest
from hypothesis import example, given, settings

from finext import limits
from finext.fincat import dual_of, thin_category_from_poset
from generators import finite_limit_gaps, preorders


def _sizes(cat, uni):
    return {i: uni.algebras[cat.objects[i]].size for i in range(len(cat.objects))}


def test_initial_and_terminal_objects(set3, golden):
    cat, _ = set3
    assert cat.oid(limits.initial(cat)) == "s0"
    assert cat.oid(limits.terminal(cat)) == "s1"
    gcat, _ = golden
    assert gcat.oid(limits.initial(gcat)) == "P0"
    assert gcat.oid(limits.terminal(gcat)) == "P1"


def test_dual_swaps_initial_and_terminal(set3, dual_set3):
    cat, _ = set3
    assert dual_set3.oid(limits.initial(dual_set3)) == cat.oid(limits.terminal(cat))
    assert dual_set3.oid(limits.terminal(dual_set3)) == cat.oid(limits.initial(cat))


def test_product_sizes_multiply(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    n = len(cat.objects)
    budget = max(size.values())
    for a, b in itertools.product(range(n), repeat=2):
        w = limits.product(cat, a, b)
        expected = size[a] * size[b]
        if expected <= budget:
            assert w is not None, (cat.oid(a), cat.oid(b))
            assert size[w.apex] == expected
            assert [cat._cod_l[m] for m in w.legs] == [a, b]
            assert all(cat._dom_l[m] == w.apex for m in w.legs)
        else:
            assert w is None, (cat.oid(a), cat.oid(b))


def test_coproduct_sizes_add(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    n = len(cat.objects)
    budget = max(size.values())
    for a, b in itertools.product(range(n), repeat=2):
        w = limits.coproduct(cat, a, b)
        expected = size[a] + size[b]
        if expected <= budget:
            assert w is not None, (cat.oid(a), cat.oid(b))
            assert size[w.apex] == expected
            assert [cat._dom_l[m] for m in w.legs] == [a, b]
            assert all(cat._cod_l[m] == w.apex for m in w.legs)
        else:
            assert w is None, (cat.oid(a), cat.oid(b))


def test_pullback_apex_counts_matching_pairs(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    budget = max(size.values())
    n_mor = cat.n_mor
    checked = 0
    for f in range(n_mor):
        for u in range(n_mor):
            if cat._cod_l[f] != cat._cod_l[u]:
                continue
            tf = uni.maps[cat.mid(f)]
            tu = uni.maps[cat.mid(u)]
            fibre = sum(1 for x in tf for y in tu if x == y)
            w = limits.pullback(cat, f, u)
            if fibre <= budget:
                assert w is not None, (cat.mid(f), cat.mid(u))
                assert size[w.apex] == fibre
                p1, p2 = w.legs
                assert cat._dom_l[p1] == w.apex and cat._dom_l[p2] == w.apex
                assert cat._cod_l[p1] == cat._dom_l[f]
                assert cat._cod_l[p2] == cat._dom_l[u]
                assert cat.compose(f, p1) == cat.compose(u, p2)
            else:
                assert w is None, (cat.mid(f), cat.mid(u))
            checked += 1
    assert checked == 1842


def _classes_generated(n: int, pairs) -> int:
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        parent[find(x)] = find(y)
    return len({find(x) for x in range(n)})


def test_equaliser_and_coequaliser_sizes(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    n_mor = cat.n_mor
    checked = 0
    for u in range(n_mor):
        for v in range(u, n_mor):
            if cat._dom_l[u] != cat._dom_l[v] or cat._cod_l[u] != cat._cod_l[v]:
                continue
            tu = uni.maps[cat.mid(u)]
            tv = uni.maps[cat.mid(v)]
            eq = limits.equaliser(cat, u, v)
            assert eq is not None
            assert size[eq.apex] == sum(1 for a, b in zip(tu, tv) if a == b)
            assert cat.compose(u, eq.legs[0]) == cat.compose(v, eq.legs[0])
            co = limits.coequaliser(cat, u, v)
            assert co is not None
            n_cod = size[cat._cod_l[u]]
            assert size[co.apex] == _classes_generated(n_cod, zip(tu, tv))
            assert cat.compose(co.legs[0], u) == cat.compose(co.legs[0], v)
            checked += 1
    assert checked == 485


def test_image_factorisation_properties(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    for f in range(cat.n_mor):
        res = limits.image_factorisation(cat, f)
        assert res is not None, cat.mid(f)
        e, m = res
        assert cat._dom_l[e] == cat._dom_l[f]
        assert cat._cod_l[m] == cat._cod_l[f]
        assert cat._cod_l[e] == cat._dom_l[m]
        assert cat.compose(m, e) == f
        table = uni.maps[cat.mid(f)]
        assert size[cat._cod_l[e]] == len(set(table))
        te = uni.maps[cat.mid(e)]
        tm = uni.maps[cat.mid(m)]
        assert set(te) == set(range(size[cat._cod_l[e]]))  # onto the middle object
        assert len(set(tm)) == len(tm)  # injective tail
        assert tuple(tm[x] for x in te) == tuple(table)


def test_witnesses_are_cached(set3):
    cat, _ = set3
    a = cat.obj_index["s1"]
    b = cat.obj_index["s2"]
    assert limits.coproduct(cat, a, b) is limits.coproduct(cat, a, b)
    f = cat.hom(a, b)[0]
    assert limits.pullback(cat, f, f) is limits.pullback(cat, f, f)
    # product is derived through the dual category, so the wrapper is fresh
    # but the content must be reproducible
    assert limits.product(cat, a, b) == limits.product(cat, a, b)
    # the default arity and the explicit one share one entry
    x = cat.obj_index["s3"]
    assert limits.coproduct_bases(cat, x) is limits.coproduct_bases(cat, x, 2)
    # None is a stored answer: asked again, nothing is recomputed
    assert limits.coproduct(cat, b, b) is None  # FinSet≤3 has no 4-element set
    with mock.patch.object(limits, "coproduct_bases", side_effect=AssertionError("recomputed")):
        assert limits.coproduct(cat, b, b) is None
    # a category and its dual fill separate entries
    d = dual_of(cat)
    assert limits.initial(cat) != limits.initial(d) == limits.terminal(cat)


def test_pushout_in_two_point_chain(golden):
    cat, _ = golden
    i0 = cat.obj_index["P0"]
    i1 = cat.obj_index["P1"]
    arrow = cat.hom(i0, i1)[0]
    w = limits.pushout(cat, arrow, arrow)
    assert w is not None
    assert w.apex == i1
    ident = cat.identity_of[i1]
    assert w.legs == (ident, ident)
    assert limits.is_pushout_square(cat, arrow, arrow, ident, ident)


def test_not_found_is_distinct_from_error(set3):
    cat, _ = set3
    a = cat.obj_index["s2"]
    b = cat.obj_index["s3"]
    assert limits.product(cat, a, b) is None  # 6 points cannot fit
    assert limits.coproduct(cat, a, b) is None  # 5 points cannot fit


def test_kernel_pair_of_mono_is_diagonal(set3):
    cat, uni = set3
    size = _sizes(cat, uni)
    a = cat.obj_index["s2"]
    b = cat.obj_index["s3"]
    inj = next(
        m for m in cat.hom(a, b) if len(set(uni.maps[cat.mid(m)])) == 2
    )
    kp = limits.kernel_pair(cat, inj)
    assert kp is not None
    apex, k1, k2 = kp
    assert size[apex] == 2
    assert k1 == k2


def test_duality_of_product_and_coproduct(set3, dual_set3):
    cat, _ = set3
    a = cat.obj_index["s1"]
    b = cat.obj_index["s2"]
    w = limits.coproduct(cat, a, b)
    dw = limits.product(dual_set3, a, b)
    assert w is not None and dw is not None
    assert cat.oid(w.apex) == dual_set3.oid(dw.apex)


# The eight verify-paper built-ins by label: (fixture, dualised, missing
# binary products, missing pullbacks).  Each has a terminal object, and
# none but the golden poset is finitely complete.
FINITE_LIMIT_GAPS = {
    "finset3": ("set3", False, 4, 318),
    "finset3-op": ("set3", True, 6, 357),
    "pointed3": ("pointed3", False, 4, 71),
    "golden-poset": ("golden", False, 0, 0),
    "slat3": ("slat3", False, 9, 789),
    "lat4": ("lat4", False, 15, 6722),
    "cpos3": ("cpos3", False, 16, 2718),
    "mon3": ("mon3", False, 81, 1726),
}


@pytest.mark.parametrize("label", FINITE_LIMIT_GAPS)
def test_finite_limit_gaps_of_the_paper_builtins(label, request):
    name, dualised, products, pullbacks = FINITE_LIMIT_GAPS[label]
    cat, _ = request.getfixturevalue(name)
    gaps = finite_limit_gaps(dual_of(cat) if dualised else cat)
    assert gaps == {"terminal": True, "missing_products": products, "missing_pullbacks": pullbacks}


def test_finite_limit_gaps_of_a_two_point_antichain():
    cat = thin_category_from_poset([[True, False], [False, True]])
    assert finite_limit_gaps(cat) == {"terminal": False, "missing_products": 2, "missing_pullbacks": 0}


def _quotient_is_a_lattice(leq) -> bool:
    """Whether the quotient poset of the preorder ``leq`` is a lattice, read
    from the matrix: every pair of points has an upper bound below all of
    their upper bounds and a lower bound above all of their lower bounds.
    Equivalent points stand for one class, so this is the test on classes."""
    points = range(len(leq))
    for a, b in itertools.product(points, repeat=2):
        ups = [c for c in points if leq[a][c] and leq[b][c]]
        downs = [c for c in points if leq[c][a] and leq[c][b]]
        if not any(all(leq[u][c] for c in ups) for u in ups):
            return False
        if not any(all(leq[c][d] for c in downs) for d in downs):
            return False
    return True


T, F = True, False


@settings(max_examples=80, deadline=None)
@given(preorders())
@example([[T, F], [F, T]])  # an antichain: no join, no meet
@example([[T, T, T, T], [F, T, F, T], [F, F, T, T], [F, F, F, T]])  # the square lattice
@example([[T, T, F], [T, T, F], [T, T, T]])  # a lattice once its two top points are one class
@example([[T, F, T], [F, T, T], [F, F, T]])  # a top and no meet of the two lower points
def test_a_preorder_has_no_finite_limit_gap_exactly_when_its_quotient_is_a_lattice(leq):
    """A thin category is finitely complete exactly when its quotient poset
    has a top and binary meets, which for a finite poset is a lattice."""
    gaps = finite_limit_gaps(thin_category_from_poset(leq))
    complete = gaps == {"terminal": True, "missing_products": 0, "missing_pullbacks": 0}
    assert complete == _quotient_is_a_lattice(leq), gaps
