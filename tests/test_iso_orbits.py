"""Iso-orbit transport checked against the plain searches.

``limits.pullback`` reads a pullback along an iso leg off the inverse and
puts it into the search's canonical form; ``category_report`` decides one
morphism per iso orbit and copies its pass to the orbit.  Both are compared
with their references (``reference_limits.pullback``, the plain search on
every cospan, and ``reference_extensivity.category_report``, the
per-morphism loop) on categories in which an object has an isomorphic copy
(``generators.inflate``) and on thin categories of random preorders
(``generators.preorders``), since no built-in category has two distinct
isomorphic objects.  The canonical apex, the first object isomorphic to the
certified one, is exercised only there.  The coproduct answers read from the
cached bases are compared with the seed's searches on the same categories,
and so are the coequalisers, which must form one orbit {i∘q : i an iso
out of the apex of q} per parallel pair.

A cold cospan (f, u) with no iso leg is searched once per orbit under the
isomorphisms γ out of its codomain: every (γ∘f, γ∘u) must have the
pullback of (f, u), also where γ leaves its object (an inflation of
FinSet≤3 and a thin category with isomorphic points, and their duals), and
``regular_indicators`` on FinSet≤4 searches one cospan per orbit it meets.
The isomorphisms read from the split-epi index, also on inflations,
preorders, duals and fault-injected tables, the dual's read from its
primal, the orbits read through the per-object iso index
(``_pullback_squares``, ``_least_cone``, ``_orbit_reps``,
``relcalc.sub_classes``) and the coproduct bases read from the hom-count
index are compared with the seed's ``compose`` scans and search
(``reference_fincat.iso_info``, ``reference_limits.cone_orbit`` and
``least_cone``, ``reference_relcalc.sub_classes``,
``reference_extensivity.coproduct_bases_n``).  A search
certifies a cone with p1 mono by monicity, which counts of the row walks
in whole reports pin; the reference search keeps the plain certificate.
"""

from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_extensivity
import reference_fincat
import reference_limits
import reference_relcalc
from finext import extensivity as ext
from finext import limits
from finext import relcalc
from finext.algebra import build_category
from finext.fincat import FinCategory, _iso_info, _sections, dual, dual_of, thin_category_from_poset
from generators import inflate, lift_id, preorders
from test_fast_paths import (
    _assert_coequalisers_match_reference,
    _assert_coproducts_match_reference,
    _assert_e2_scan_matches_walk,
    _assert_kernels_match_numpy,
    _assert_square_table_matches_mediator,
    _assert_table_readers_match_reference,
    _cospans,
    _mutants,
    _parallel_pairs,
)

MODES = ("extensive", "coextensive")
BASES = {"set2": ("set", 2), "pointed3": ("pointed", 3), "mon2": ("mon", 2), "set3": ("set", 3)}


@functools.cache
def base(name: str) -> FinCategory:
    return build_category(*BASES[name])[0]


@st.composite
def inflations(draw):
    """(base name, object to copy, position of the copy)."""
    name = draw(st.sampled_from(sorted(BASES)))
    n = len(base(name).objects)
    return name, draw(st.integers(0, n - 1)), draw(st.integers(0, n))


def first_and_last(test):
    """Add Hypothesis examples that copy each object of each base to
    position 0 and to the last position."""
    for name in sorted(BASES):
        n = len(base(name).objects)
        for x in range(n):
            for pos in (0, n):
                test = example((name, x, pos))(test)
    return test


@first_and_last
@settings(max_examples=15, deadline=None)
@given(inflations())
def test_transported_pullbacks_equal_the_search(case):
    name, x, pos = case
    cat = inflate(base(name), x, pos)
    isos = _iso_info(cat)[0]
    moved = 0
    for c in (cat, dual_of(cat)):
        _assert_table_readers_match_reference(c)
        _assert_coproducts_match_reference(c)
        for f, u in _cospans(c):
            got = limits.pullback(c, f, u)
            assert got == reference_limits.pullback(c, f, u), (case, c is cat, f, u)
            if u in isos:
                moved += got.apex != c._dom_l[f]
    # at least the pullback of (id, id) on the later of x and its copy has
    # the earlier one as its apex
    assert moved > 0, case


@first_and_last
@settings(max_examples=10, deadline=None)
@given(inflations())
def test_coequalisers_are_one_iso_orbit(case):
    """Coequalisers are unique up to unique iso: the f that
    ``is_coequaliser`` accepts for (u, v) are exactly i∘q for q the
    coequaliser found and i an iso out of its apex.  The answers also equal
    the seed's certificate and search, here and on the dual."""
    name, x, pos = case
    cat = inflate(base(name), x, pos)
    moved = 0
    for c in (cat, dual_of(cat)):
        _assert_coequalisers_match_reference(c)
        isos_out = {}
        for i in _iso_info(c)[0]:
            isos_out.setdefault(c._dom_l[i], []).append(i)
        n = len(c.objects)
        for u, v in _parallel_pairs(c):
            w = limits.coequaliser(c, u, v)
            orbit = set() if w is None else {c.compose(i, w.legs[0]) for i in isos_out[w.apex]}
            out = [f for q in range(n) for f in c.hom(c._cod_l[u], q)]
            assert {f for f in out if limits.is_coequaliser(c, u, v, f)} == orbit, (case, c is cat, u, v)
            moved += any(c._cod_l[f] != w.apex for f in orbit)
    # x and its copy are isomorphic, so a coequaliser into either has
    # another one into the other
    assert moved > 0, case


def test_iso_legs_are_never_searched(monkeypatch):
    def refuse(cat, f, u):
        raise AssertionError(f"searched the iso-leg cospan {(f, u)}")

    monkeypatch.setattr(limits, "_pullback_search", refuse)
    for cat in (inflate(base("pointed3"), 2, 0), dual_of(inflate(base("set3"), 1, 4))):
        isos = _iso_info(cat)[0]
        legs = [(f, u) for f, u in _cospans(cat) if f in isos or u in isos]
        assert any(f in isos and u not in isos for f, u in legs)
        for f, u in legs:
            limits.pullback(cat, f, u)


@first_and_last
@settings(max_examples=10, deadline=None)
@given(inflations())
def test_reports_equal_the_per_morphism_loop(case):
    """Each report equals the seed's: the per-morphism loop over the plain
    pullback search, run on a second copy of the category."""
    name, x, pos = case
    fast = inflate(base(name), x, pos)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(limits, "pullback", reference_limits.pullback)
        plain = inflate(base(name), x, pos)
        expected = {mode: reference_extensivity.category_report(plain, mode) for mode in MODES}
    for mode in MODES:
        assert ext.category_report(fast, mode) == expected[mode], (case, mode)


@settings(max_examples=60, deadline=None)
@given(preorders())
def test_preorders_match_the_references(leq):
    """On a thin category of a preorder and on its dual: the fast paths, the
    transported pullbacks and both reports equal their references."""
    for make in (thin_category_from_poset, lambda p: dual_of(thin_category_from_poset(p))):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(limits, "pullback", reference_limits.pullback)
            plain = make(leq)
            expected = {mode: reference_extensivity.category_report(plain, mode) for mode in MODES}
        c = make(leq)
        for mode in MODES:
            assert ext.category_report(c, mode) == expected[mode], (leq, mode)
        _assert_square_table_matches_mediator(c)
        _assert_kernels_match_numpy(c)
        _assert_e2_scan_matches_walk(c)
        for f, u in _cospans(c):
            assert limits.pullback(c, f, u) == reference_limits.pullback(c, f, u), (leq, f, u)


@first_and_last
@settings(max_examples=10, deadline=None)
@given(inflations())
def test_inflation_keeps_statuses_and_copies_share_details(case):
    """Invariance under equivalence: every lift of a morphism has the
    original's status, and a lift through the copy has the same status and
    details as the lift it copies."""
    name, x, pos = case
    orig = base(name)
    cat = inflate(orig, x, pos)
    over = {o: (False, True) if o == orig.objects[x] else (False,) for o in orig.objects}
    for mode in MODES:
        before = ext.category_report(orig, mode)["morphisms"]
        after = ext.category_report(cat, mode)["morphisms"]
        for m, mid in enumerate(orig.mor_ids):
            for sa in over[orig.objects[orig._dom_l[m]]]:
                for sb in over[orig.objects[orig._cod_l[m]]]:
                    lift = after[lift_id(mid, sa, sb)]
                    assert lift["status"] == before[mid]["status"], (case, mode, mid, sa, sb)
                    assert lift.get("details") == after[mid].get("details"), (case, mode, mid, sa, sb)


def _brute_force_reps(cat: FinCategory) -> list[int]:
    """The least id of {α∘f∘β} over every pair of composable isos."""
    isos = _iso_info(cat)[0]
    reps = []
    for f in range(cat.n_mor):
        orbit = {
            cat.compose(a, cat.compose(f, b))
            for a in isos
            if cat._dom_l[a] == cat._cod_l[f]
            for b in isos
            if cat._cod_l[b] == cat._dom_l[f]
        }
        reps.append(min(orbit))
    return reps


@pytest.mark.parametrize(
    "make",
    [
        lambda: base("pointed3"),
        lambda: build_category("mon", 3)[0],
        lambda: inflate(base("set3"), 2, 0),
        lambda: dual_of(inflate(base("mon2"), 1, 3)),
    ],
    ids=["pointed3", "mon3", "set3-inflated", "mon2-inflated-dual"],
)
def test_orbit_index_matches_brute_force(make):
    cat = make()
    assert ext._orbit_reps(cat) == _brute_force_reps(cat)


def test_a_morphism_that_no_iso_reaches_is_its_own_representative():
    """Without id_a no isomorphism reaches f: a -> b or r: b -> a, so each
    is its own orbit and its verdict is never copied from another
    morphism's."""
    cat = FinCategory(
        ["a", "b"],
        [("f", "a", "b"), ("r", "b", "a"), ("ib", "b", "b")],
        {"b": "ib"},
        {("ib", "f"): "f", ("r", "ib"): "r", ("ib", "ib"): "ib", ("f", "r"): "ib"},
    )
    assert ext._orbit_reps(cat) == [cat.m("f"), cat.m("r"), cat.m("ib")]


@pytest.mark.parametrize(
    "kind, n, orbits, morphisms",
    [("set", 4, 38, 499), ("mon", 3, 175, 194), ("pointed", 3, 16, 23)],
)
def test_orbit_counts(set4, kind, n, orbits, morphisms):
    cat = set4[0] if (kind, n) == ("set", 4) else build_category(kind, n)[0]
    reps = ext._orbit_reps(cat)
    assert (len(set(reps)), len(reps)) == (orbits, morphisms)
    assert ext._orbit_reps(dual_of(cat)) == reps


@pytest.mark.parametrize("mode", MODES)
def test_each_report_entry_owns_its_details(mode):
    for cat in (base("set3"), inflate(base("pointed3"), 1, 0)):
        entries = ext.category_report(cat, mode)["morphisms"].values()
        details = [e["details"] for e in entries]
        assert len({id(d) for d in details}) == len(details)


# -- one search per iso orbit ----------------------------------------------------------

# the verify-paper built-ins: (variety, max carrier, include_empty)
PAPER_BUILTINS = {
    "finset3": ("set", 3, None),
    "pointed3": ("pointed", 3, None),
    "golden-poset": ("poset", 1, True),
    "slat3": ("slat", 3, None),
    "lat4": ("lat", 4, None),
    "cpos3": ("cpos", 3, None),
    "mon3": ("mon", 3, None),
}


def _isos_out(cat: FinCategory) -> dict[int, list[int]]:
    """The isomorphisms out of each object, from the seed's isomorphism scan."""
    out: dict[int, list[int]] = {x: [] for x in range(len(cat.objects))}
    for i in sorted(reference_fincat.iso_info(cat)[0]):
        out[cat._dom_l[i]].append(i)
    return out


def test_regular_indicators_search_once_per_automorphism_orbit(monkeypatch):
    """On FinSet≤4 the sweep meets 4,732 cold cospans with no iso leg; one
    search per orbit of them under the isomorphisms out of their codomain,
    here its automorphisms, leaves 992, each on the least pair of its
    orbit."""
    cat = build_category("set", 4)[0]
    real, searched = limits._pullback_search, []

    def search(c, f, u):
        searched.append((f, u))
        return real(c, f, u)

    monkeypatch.setattr(limits, "_pullback_search", search)
    relcalc.regular_indicators(cat)
    isos_out = _isos_out(cat)
    orbits = [{(cat.compose(g, f), cat.compose(g, u)) for g in isos_out[cat._cod_l[f]]} for f, u in searched]
    assert len(searched) == 992
    assert all(cospan == min(orbit) for cospan, orbit in zip(searched, orbits))
    assert len(set(map(frozenset, orbits))) == 992


@pytest.mark.parametrize(
    "kind, n, mode, walks, searches",
    [("mon", 3, "extensive", 0, 156), ("set", 3, "extensive", 0, 58), ("set", 3, "coextensive", 2, 23)],
)
def test_mono_legs_certify_pullbacks_without_the_row_walk(monkeypatch, kind, n, mode, walks, searches):
    """A search certifies a cone with p1 mono by monicity, and skips every
    p1 that is not mono when u is; only a candidate whose p1 and u are both
    not mono walks its rows.  Without the certificate the reports walk 318,
    98 and 67 cones; the searches are the same ones."""
    counts = {"walks": 0, "searches": 0}

    def counted(name, key):
        real = getattr(limits, name)

        def call(*args):
            counts[key] += 1
            return real(*args)

        monkeypatch.setattr(limits, name, call)

    counted("_cone_universal", "walks")
    counted("_pullback_search", "searches")
    ext.category_report(build_category(kind, n)[0], mode)
    assert counts == {"walks": walks, "searches": searches}


def _assert_pullbacks_are_iso_invariant(cat: FinCategory) -> None:
    """pullback(γ∘f, γ∘u) = pullback(f, u) = the plain search, for every
    cospan and every isomorphism γ out of its codomain, and every witness's
    pullback squares and least cone read through the iso index equal the
    ``compose``-built orbit and its least cone."""
    isos_out = _isos_out(cat)
    for f, u in _cospans(cat):
        expected = reference_limits.pullback(cat, f, u)
        for g in isos_out[cat._cod_l[f]]:
            assert limits.pullback(cat, cat.compose(g, f), cat.compose(g, u)) == expected, (f, u, g)
        assert limits.pullback(cat, f, u) == expected, (f, u)
        if expected is not None:
            apex, (w1, w2) = expected.apex, expected.legs
            assert limits._pullback_squares(cat, f, u) == frozenset(reference_limits.cone_orbit(cat, apex, w1, w2))
            assert limits._least_cone(cat, w1, w2) == reference_limits.least_cone(cat, apex, w1, w2)


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_pullbacks_are_invariant_under_automorphisms_of_finset3(side):
    cat = build_category("set", 3)[0]
    _assert_pullbacks_are_iso_invariant(cat if side == "primal" else dual_of(cat))


@settings(max_examples=20, deadline=None)
@given(preorders(max_points=4))
def test_pullbacks_are_invariant_under_automorphisms_of_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_pullbacks_are_iso_invariant(c)


# p0 ≅ p1 and p2 ≅ p3, with p0, p1 and p4 below p2 and p3: the cospan
# (p0 -> p2, p4 -> p2) has no pullback
ISO_POINTS = [[bool(v) for v in row] for row in [
    [1, 1, 1, 1, 0],
    [1, 1, 1, 1, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 1, 1, 0],
    [0, 0, 1, 1, 1],
]]


@pytest.mark.parametrize(
    "make",
    [lambda: inflate(base("set3"), 2, 0), lambda: thin_category_from_poset(ISO_POINTS)],
    ids=["set3-inflated", "iso-points"],
)
@pytest.mark.parametrize("side", ["primal", "dual"])
def test_orbits_that_leave_their_object_match_brute_force(monkeypatch, make, side):
    """Where an iso leaves its object, the least pair of a cospan's orbit
    can lie over another codomain: the pullbacks, ``_orbit_reps`` and the
    subobject classes still equal their brute-force references, and each
    orbit of cospans with no iso leg is searched once, on its least pair."""
    cat = make() if side == "primal" else dual_of(make())
    isos_out = _isos_out(cat)
    assert any(cat._cod_l[g] != x for x, gs in isos_out.items() for g in gs)
    real, searched = limits._pullback_search, []
    monkeypatch.setattr(limits, "_pullback_search", lambda c, f, u: searched.append((f, u)) or real(c, f, u))
    _assert_pullbacks_are_iso_invariant(cat)
    isos = reference_fincat.iso_info(cat)[0]
    orbits = {
        frozenset((cat.compose(g, f), cat.compose(g, u)) for g in isos_out[cat._cod_l[f]])
        for f, u in _cospans(cat)
        if f not in isos and u not in isos
    }
    assert sorted(searched) == sorted(min(o) for o in orbits)
    assert ext._orbit_reps(cat) == _brute_force_reps(cat)
    for x in range(len(cat.objects)):
        assert relcalc.sub_classes(cat, x) == reference_relcalc.sub_classes(cat, x), x


# -- isomorphisms and coproduct bases against the seed's scans -------------------------


def _assert_isos_and_bases_match_reference(cat: FinCategory) -> None:
    """The isomorphisms and inverses equal the ``compose`` scan, on the
    category and on its dual, which reads them from the category without
    gathering a row of its own; the coproduct bases of arity 2 and 3 equal
    the seed's search, on both sides."""
    d = dual_of(cat)
    expected = reference_fincat.iso_info(cat)
    assert _iso_info(d) == expected and _iso_info(d) is _iso_info(cat)
    assert all(r is None for r in d._rows)
    assert reference_fincat.iso_info(d) == expected
    for c in (cat, d):
        for x, arity in itertools.product(range(len(c.objects)), (2, 3)):
            assert limits.coproduct_bases(c, x, arity) == reference_extensivity.coproduct_bases_n(c, x, arity), (x, arity)


@pytest.mark.parametrize("label", sorted(PAPER_BUILTINS))
def test_isos_and_coproduct_bases_match_the_seed_on_the_builtins(label):
    _assert_isos_and_bases_match_reference(build_category(*PAPER_BUILTINS[label])[0])


@settings(max_examples=20, deadline=None)
@given(preorders(max_points=4))
def test_isos_and_coproduct_bases_match_the_seed_on_preorders(leq):
    _assert_isos_and_bases_match_reference(thin_category_from_poset(leq))


@pytest.mark.parametrize("case", [("set2", 1, 0), ("pointed3", 2, 3), ("mon2", 0, 1), ("set3", 3, 2)])
def test_isos_and_coproduct_bases_match_the_seed_on_inflations(case):
    name, x, pos = case
    _assert_isos_and_bases_match_reference(inflate(base(name), x, pos))


def test_isos_match_the_seed_on_fault_injected_tables():
    """Under single-entry faults an iso can have a section that is no
    inverse before the one that is: the isomorphisms and inverses still
    equal the ``compose`` scan, on each table, its cached dual and its
    plain dual."""
    makes = (
        lambda: build_category("set", 2)[0],
        lambda: build_category("mon", 2)[0],
        lambda: thin_category_from_poset([[True, True, True], [False, True, True], [False, False, True]]),
    )
    late_inverses = 0
    for make in makes:
        for label, data in _mutants(make()):
            faulty = FinCategory.from_json(data)
            for c in (faulty, dual_of(faulty), dual(faulty)):
                isos, inv = _iso_info(c)
                assert (isos, inv) == reference_fincat.iso_info(c), label
                late_inverses += any(_sections(c)[f] != g for f, g in inv.items())
    assert late_inverses > 0


def test_a_one_sided_inverse_is_no_inverse():
    """In FinSet≤3 the map r: 2 -> 1 has sections s with r∘s = id_1 while
    s∘r is not id_2: neither is an isomorphism, on either side."""
    cat = build_category("set", 3)[0]
    one, two = cat.o("s1"), cat.o("s2")
    (r,) = cat.hom(two, one)
    sections = [s for s in cat.hom(one, two) if cat.compose(r, s) == cat.identity_of[one]]
    assert len(sections) == 2 and all(cat.compose(s, r) != cat.identity_of[two] for s in sections)
    d = dual_of(cat)
    for c in (d, cat):
        isos, inv = _iso_info(c)
        assert r not in isos and not isos & set(sections)
        assert (isos, inv) == reference_fincat.iso_info(c)
