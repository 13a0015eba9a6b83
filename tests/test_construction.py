"""Integer-native construction checked against the string-keyed reference.

``algebra.category_from_algebras`` and ``fincat.thin_category_from_poset``
build a category from integer data; ``reference_algebra`` and
``reference_fincat`` keep the seed's builders, which go through string ids
and ``FinCategory``'s string constructor.  Both must give the same category
index for index.  A dual's columns are its primal's row table itself, and
its rows are gathered from them.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_algebra
import reference_fincat
from finext.algebra import (
    FinAlgebra,
    category_from_algebras,
    default_names,
    enumerate_homs,
    enumerate_structures,
)
from finext.fincat import CategoryDataError, FinCategory, dual, dual_of, thin_category_from_poset, validate
from generators import preorders
from oracles import direct_product
from test_fast_paths import _assert_dual_is_an_involution

# every built-in of verify-paper and the benchmark, at the largest size the
# string reference builds in a few seconds
BUILTINS = (
    ("set", 4, None),
    ("pointed", 3, None),
    ("poset", 3, True),
    ("cpos", 3, None),
    ("slat", 4, None),
    ("lat", 4, None),
    ("mon", 3, None),
)


def _assert_same_category(got: FinCategory, ref: FinCategory) -> None:
    """``got`` equals ``ref`` index for index, and holds each distinct row
    as one tuple."""
    assert got.objects == ref.objects and got.mor_ids == ref.mor_ids
    assert (got._dom_l, got._cod_l) == (ref._dom_l, ref._cod_l)
    assert got.identity_of == ref.identity_of and got.identity_set == ref.identity_set
    n = len(got.objects)
    for a, b in itertools.product(range(n), repeat=2):
        assert got.hom(a, b) == ref.hom(a, b), (a, b)
    assert got._pos == ref._pos and got._hom_counts_l == ref._hom_counts_l
    data = got.to_json()
    assert data == ref.to_json()
    for c, r in ((got, ref), (dual_of(got), dual_of(ref))):
        assert [c.rows(g) for g in range(c.n_mor)] == [r.rows(g) for g in range(r.n_mor)]
    assert validate(got) == []  # equal tables, equal verdicts
    rows = [r for g in range(got.n_mor) for r in got._rows[g]]
    assert len(set(map(id, rows))) == len(set(rows))
    for c in (got, dual_of(got)):
        assert dual_of(c)._cols is c._rows and dual(dual(c))._rows is c._rows
        _assert_dual_is_an_involution(c)
    # the dual serialises its entries in its own (g, f) order
    swapped = [{"g": e["f"], "f": e["g"], "gf": e["gf"]} for e in data["composition"]]
    swapped.sort(key=lambda e: (got.m(e["g"]), got.m(e["f"])))
    assert dual_of(got).to_json()["composition"] == swapped


def _assert_accessors_read_the_table(cat: FinCategory) -> None:
    """``compose``, ``block``, ``rows`` and ``cols`` read the entries
    ``to_json`` lists, on the category and, with g and f swapped, on its
    dual."""
    d = dual_of(cat)
    for e in cat.to_json()["composition"]:
        g, f = cat.m(e["g"]), cat.m(e["f"])
        assert cat.compose(g, f) == cat.m(e["gf"]) == d.compose(f, g), e
    n = len(cat.objects)
    for c in (cat, d):
        for a, b, x in itertools.product(range(n), repeat=3):
            assert c.block(a, b, x) == tuple(tuple(c.compose(g, f) for f in c.hom(a, b)) for g in c.hom(b, x))
        for f, y in itertools.product(range(c.n_mor), range(n)):
            assert reference_fincat.col_ids(c, f)[y] == tuple(c.compose(t, f) for t in c.hom(c._cod_l[f], y))
            assert reference_fincat.row_ids(c, f)[y] == tuple(c.compose(f, t) for t in c.hom(y, c._dom_l[f]))


@pytest.mark.parametrize("kind, n, empty", BUILTINS, ids=lambda v: str(v))
def test_int_build_equals_string_reference(kind, n, empty):
    algs = enumerate_structures(kind, n, empty)
    cat, uni = category_from_algebras(kind, algs, max_size=n)
    ref, ref_uni = reference_algebra.category_from_algebras(kind, algs, max_size=n)
    _assert_same_category(cat, ref)
    assert list(uni.maps.items()) == list(ref_uni.maps.items())
    assert uni.algebras == ref_uni.algebras and uni.kind == ref_uni.kind
    for e in cat.to_json()["composition"]:  # composition is composition of function tables
        gt, ft = uni.maps[e["g"]], uni.maps[e["f"]]
        assert uni.maps[e["gf"]] == tuple(gt[x] for x in ft), e


def test_int_build_keeps_file_order_and_names():
    """A category file may list its structures in any order under any names."""
    algs = enumerate_structures("mon", 3)[::-1]
    names = [f"M{i}" for i in range(len(algs))]
    cat, uni = category_from_algebras("mon", algs, names)
    ref, ref_uni = reference_algebra.category_from_algebras("mon", algs, names)
    _assert_same_category(cat, ref)
    assert list(uni.maps.items()) == list(ref_uni.maps.items())
    assert cat.objects == tuple(names) != tuple(default_names("mon", algs))


# Mon≤4 and Lat≤4, and FinSet≤3 and Pos≤2 with their empty structures
_POOLS = {"mon": (4, None), "lat": (4, None), "set": (3, True), "poset": (2, True)}


@functools.cache
def _pool(kind: str) -> tuple[list[FinAlgebra], list[FinAlgebra]]:
    """The kind's structures, and the factors drawn for products: those with
    at most five endomorphisms, so that every product's hom-sets stay small
    enough for the reference (the largest, a 16-element monoid, has 625
    endomorphisms)."""
    algs = enumerate_structures(kind, *_POOLS[kind])
    return algs, [x for x in algs if len(enumerate_homs(x, x)) <= 5]


@st.composite
def algebra_lists(draw) -> tuple[str, list[FinAlgebra], list[str]]:
    """A shuffled, renamed list of structures of one kind: a sublist of the
    kind's pool (repeats allowed), direct products of two factors (carriers
    up to 16), and, for sets and posets, the empty structure."""
    kind = draw(st.sampled_from(sorted(_POOLS)))
    algs, factors = _pool(kind)
    picked = draw(st.lists(st.sampled_from(algs), min_size=1, max_size=4))
    for x, y in draw(st.lists(st.tuples(st.sampled_from(factors), st.sampled_from(factors)), max_size=2)):
        picked.append(direct_product(x, y)[0])
    if kind in ("set", "poset"):
        picked.append(algs[0])
    picked = draw(st.permutations(picked))
    n = len(picked)
    names = draw(st.lists(st.text("abxyz019_", min_size=1, max_size=3), min_size=n, max_size=n, unique=True))
    return kind, picked, names


@settings(max_examples=40, deadline=None)
@given(algebra_lists())
def test_byte_table_kernel_equals_string_reference(data):
    """The composition rows filled by ``bytes.translate`` are the reference's
    entry-by-entry composites, on structures in any order under any names."""
    kind, algs, names = data
    cat, uni = category_from_algebras(kind, algs, names)
    ref, ref_uni = reference_algebra.category_from_algebras(kind, algs, names)
    _assert_same_category(cat, ref)
    assert list(uni.maps.items()) == list(ref_uni.maps.items())


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_thin_category_equals_string_reference(leq):
    cat = thin_category_from_poset(leq)
    _assert_same_category(cat, reference_fincat.thin_category_from_poset(leq))
    for e in cat.to_json()["composition"]:  # (y<=z)∘(x<=y) = x<=z
        assert e["gf"] == e["f"].split("<=")[0] + "<=" + e["g"].split("<=")[1], e


def test_thin_category_rejects_a_relation_that_is_not_transitive():
    leq = [[True, True, False], [False, True, True], [False, False, True]]
    for build in (thin_category_from_poset, reference_fincat.thin_category_from_poset):
        with pytest.raises(CategoryDataError):
            build(leq)


def test_duplicate_ids_are_rejected_on_every_path():
    # "a>b" to "c" and "a" to "b>c" both name their only morphism "a>b>c#0000"
    one = enumerate_structures("set", 1)[-1]
    for build in (category_from_algebras, reference_algebra.category_from_algebras):
        with pytest.raises(CategoryDataError, match="duplicate morphism id 'a>b>c#0000'"):
            build("set", [one] * 4, ["a>b", "c", "a", "b>c"])
    for build in (thin_category_from_poset, reference_fincat.thin_category_from_poset):
        with pytest.raises(CategoryDataError, match="duplicate object ids"):
            build([[True, False], [False, True]], ["x", "x"])


def test_hom_sets_must_be_runs_of_consecutive_indexes():
    # hom(x, x) = {0, 2} with hom(x, y) = {1} between them; rows read each
    # hom-set as one range of indexes
    with pytest.raises(CategoryDataError, match="hom\\('x', 'x'\\) is not a run of consecutive"):
        FinCategory._of_ints(["x", "y"], ["e", "f", "g"], [0, 0, 0], [0, 1, 0], {0: 0}, [], {})
    with pytest.raises(CategoryDataError, match="hom\\('y', 'x'\\)"):
        FinCategory._of_ints(["x", "y"], ["f", "e", "g"], [1, 0, 1], [0, 0, 0], {0: 1}, [], {})


def test_constructor_sorts_shuffled_input_into_runs():
    data = category_from_algebras("set", enumerate_structures("set", 2))[0].to_json()
    shuffled = data["morphisms"][::-1]
    for order in (shuffled, shuffled[1::2] + shuffled[::2]):
        cat = FinCategory.from_json({**data, "morphisms": order, "composition": data["composition"][::-1]})
        n = len(cat.objects)
        for a, b in itertools.product(range(n), repeat=2):
            lo, hi = cat._spans[b][a]
            assert cat.hom(a, b) == list(range(lo, hi)) and hi - lo == cat._hom_counts_l[a][b], (a, b)
        assert cat.to_json() == data
        _assert_accessors_read_the_table(cat)
