"""Finite-structure backend: enumeration, homs, congruences, file format."""

from __future__ import annotations

import itertools

import pytest

from finext import algebra
from finext.algebra import (
    FinAlgebra,
    build_category,
    category_from_algebras,
    dump_category,
    enumerate_hom_sets,
    enumerate_homs,
    enumerate_structures,
    load_category,
    validate_algebra,
)
from finext.fincat import CategoryDataError
import reference_algebra
from oracles import (
    all_congruences,
    center_of_monoid,
    congruence_generate,
    congruence_lattice,
    direct_product,
    kernel_partition,
    pushout_surjections,
    quotient,
)


def test_enumeration_counts_up_to_isomorphism():
    assert len(enumerate_structures("set", 3)) == 4  # sizes 0..3
    assert len(enumerate_structures("pointed", 3)) == 3
    assert len(enumerate_structures("poset", 1, include_empty=True)) == 2
    assert len(enumerate_structures("poset", 3)) == 8  # 1 + 2 + 5
    assert len(enumerate_structures("cpos", 3)) == 5  # 1 + 1 + 3
    assert len(enumerate_structures("slat", 4)) == 9
    assert len(enumerate_structures("lat", 4)) == 5  # chains + the square
    assert len(enumerate_structures("mon", 3)) == 10  # 1 + 2 + 7
    assert len(enumerate_structures("mon", 4)) == 45  # adds 35 of size 4


@pytest.mark.parametrize("kind", algebra.VARIETIES)
def test_enumeration_matches_the_per_variety_reference(kind):
    """One dedupe loop over every variety's labelings keeps the labelings,
    and the order, of the per-variety loops it replaced."""
    for include_empty, max_size in itertools.product((None, True, False), range(5)):
        fast = enumerate_structures(kind, max_size, include_empty)
        ref = reference_algebra.enumerate_structures(kind, max_size, include_empty)
        assert [a.encode() for a in fast] == [a.encode() for a in ref], (include_empty, max_size)


def test_every_enumerated_structure_satisfies_its_laws():
    for kind, bound in (("mon", 3), ("lat", 4), ("slat", 3), ("cpos", 3)):
        for alg in enumerate_structures(kind, bound):
            assert validate_algebra(alg) == [], (kind, alg.size)


def test_homs_contain_identity_and_compose(mon3):
    _, uni = mon3
    algs = list(uni.algebras.values())
    for a in algs:
        assert tuple(range(a.size)) in enumerate_homs(a, a)
    for a, b, c in itertools.product(algs, repeat=3):
        hab = enumerate_homs(a, b)
        hbc = enumerate_homs(b, c)
        hac = set(enumerate_homs(a, c))
        for f in hab:
            for g in hbc:
                assert tuple(g[f[x]] for x in range(a.size)) in hac


def test_validate_algebra_rejects_broken_tables():
    bad_mon = FinAlgebra("mon", 2, {"e": 0, "op": [[0, 1], [1, 1]]})
    msgs = validate_algebra(bad_mon)
    assert msgs == []  # this one is in fact a monoid (max under e=0)
    broken_identity = FinAlgebra("mon", 2, {"e": 1, "op": [[0, 1], [1, 1]]})
    assert any("unit law" in m for m in validate_algebra(broken_identity))
    not_idem = FinAlgebra("slat", 2, {"meet": [[0, 0], [0, 0]]})
    assert validate_algebra(not_idem) != []
    bad_order = FinAlgebra(
        "poset", 2, rels={"leq": [[True, True], [True, True]]}
    )
    assert any("antisym" in m for m in validate_algebra(bad_order))


def test_congruences_of_the_square_lattice(lat4):
    _, uni = lat4
    sq = uni.algebras["L4_0"]
    cons = all_congruences(sq)
    assert len(cons) == 4
    assert tuple(range(4)) in cons  # finest: everything separate
    assert tuple([0, 0, 0, 0]) in cons  # coarsest: everything collapsed
    for theta in cons:
        q, proj = quotient(sq, theta)
        assert kernel_partition(proj, sq.size) == theta
        assert validate_algebra(q) == []


def test_square_lattice_is_product_of_chains(lat4):
    _, uni = lat4
    two = uni.algebras["L2"]
    prod, pairs = direct_product(two, two)
    assert prod.size == 4
    assert len(pairs) == 4
    assert prod.canonical_key() == uni.algebras["L4_0"].canonical_key()


def test_congruence_lattice_axioms(lat4):
    _, uni = lat4
    lattice = congruence_lattice(uni.algebras["L4_0"])
    cons = lattice["elements"]
    k = len(cons)
    leq, meet, join = lattice["leq"], lattice["meet"], lattice["join"]
    bot = cons.index(tuple(range(4)))
    top = cons.index(tuple([0, 0, 0, 0]))
    for i in range(k):
        assert leq[i][i]
        assert leq[bot][i] and leq[i][top]
        for j in range(k):
            assert meet[i][j] == meet[j][i]
            assert join[i][j] == join[j][i]
            assert leq[meet[i][j]][i] and leq[meet[i][j]][j]
            assert leq[i][join[i][j]] and leq[j][join[i][j]]
            if leq[i][j]:
                assert meet[i][j] == i and join[i][j] == j


def test_congruence_generate_is_smallest(lat4):
    _, uni = lat4
    sq = uni.algebras["L4_0"]
    theta = congruence_generate(sq, [(0, 1)])
    assert theta in all_congruences(sq)
    assert theta != tuple(range(4))  # it does collapse 0 and 1
    assert theta[1] == theta[0]


def test_center_of_transformation_and_klein_monoids(mon4):
    _, uni = mon4
    t2 = uni.algebras["M4_6"]
    assert center_of_monoid(t2) == [0]
    klein = uni.algebras["M4_7"]
    assert center_of_monoid(klein) == [0, 1, 2, 3]
    table = klein.ops["op"]
    assert all(table[x][x] == 0 for x in range(4))  # involutive
    assert all(table[x][y] == table[y][x] for x in range(4) for y in range(4))


def test_pushout_of_surjections_identifies_both_kernels(lat4):
    _, uni = lat4
    sq = uni.algebras["L4_0"]
    cons = sorted(c for c in all_congruences(sq) if len(set(c)) == 2)
    f_theta, g_theta = cons[0], cons[1]
    qf, f = quotient(sq, f_theta)
    qg, g = quotient(sq, g_theta)
    apex, fb, gc = pushout_surjections(sq, f, b=qf, g=g, c=qg)
    assert validate_algebra(apex) == []
    for x in range(sq.size):
        assert fb[f[x]] == gc[g[x]]
    assert apex.size == 1  # the two middle collapses generate everything


def test_pushout_of_surjections_requires_surjectivity(lat4):
    _, uni = lat4
    two = uni.algebras["L2"]
    sq = uni.algebras["L4_0"]
    inj = next(iter(enumerate_homs(two, sq)))
    try:
        pushout_surjections(two, inj, sq, inj, sq)
    except ValueError:
        pass
    else:
        raise AssertionError("non-surjective input must be rejected")


def test_canonical_key_invariant_under_relabelling():
    for alg in enumerate_structures("mon", 3):
        e = alg.ops["e"]
        for perm in itertools.permutations(range(alg.size)):
            if perm[e] != e:
                continue
            assert alg.relabel(perm).canonical_key() == alg.canonical_key()
    for alg in enumerate_structures("poset", 3):
        for perm in itertools.permutations(range(alg.size)):
            assert alg.relabel(perm).canonical_key() == alg.canonical_key()


def test_dump_load_round_trip_all_kinds():
    for kind, bound, extra in (
        ("set", 3, {}),
        ("pointed", 3, {}),
        ("poset", 3, {}),
        ("cpos", 3, {}),
        ("slat", 3, {}),
        ("lat", 4, {}),
        ("mon", 3, {}),
    ):
        algs = enumerate_structures(kind, bound, **extra)
        doc = dump_category(kind, algs)
        parsed, errors = load_category(doc)
        assert errors == [], (kind, errors)
        assert parsed is not None
        got_kind, got_algs, got_names = parsed
        assert got_kind == kind
        assert [a.encode() for a in got_algs] == [a.encode() for a in algs]
        assert len(got_names) == len(algs)


def test_load_reports_structured_errors():
    parsed, errors = load_category({"algebras": "nope"})
    assert parsed is None and errors == ["algebras: expected a list"]

    doc = {
        "variety": "monoid",
        "algebras": [
            {"name": "A", "carrier": 2, "ops": {"e": 0, "op": [[0, 1], [1, 0]]}},
            {"name": "A", "carrier": 1, "ops": {"e": 0, "op": [[0]]}},
            {"name": "B", "carrier": -1},
            {"name": "C", "carrier": 2, "ops": {"e": 0, "op": [[0, 1], [1, 7]]}},
        ],
    }
    parsed, errors = load_category(doc)
    assert any("duplicate object name" in e for e in errors)
    assert any("carrier must be a nonnegative integer" in e for e in errors)
    assert any("ops.op must be an 2x2 table" in e for e in errors)

    parsed, errors = load_category({"variety": "ring", "algebras": []})
    assert parsed is None and "variety: unknown value 'ring'" in errors[0]

    parsed, errors = load_category(
        {"algebras": [{"name": "P", "carrier": 2}], "variety": "pointed"}
    )
    assert any("basepoint must be an element index" in e for e in errors)


def test_carriers_above_256_are_rejected_when_loaded_and_when_built():
    """Function tables are composed as bytes, so a carrier has at most 256
    elements."""
    parsed, errors = load_category({"variety": "set", "algebras": [{"name": "X", "carrier": 257}]})
    assert parsed is None and errors == ["algebras[0] (X): carrier above 256"]
    parsed, errors = load_category({"variety": "set", "algebras": [{"name": "X", "carrier": 256}]})
    assert errors == [] and parsed is not None and parsed[1][0].size == 256
    with pytest.raises(CategoryDataError, match="^X: carrier above 256$"):
        category_from_algebras("set", [FinAlgebra("set", 1), FinAlgebra("set", 257)], ["Y", "X"])


def test_enumerate_homs_stops_at_its_limit():
    four, three = FinAlgebra("set", 4), FinAlgebra("set", 3)
    every = enumerate_homs(four, three)
    assert len(every) == 81
    assert enumerate_homs(four, three, 10) == every[:10]
    assert enumerate_homs(four, three, 81) == enumerate_homs(four, three, 1000) == every


def test_the_enumeration_budget_is_exact(monkeypatch):
    """Set≤3 has 60 morphisms and 1,678 composable pairs: a budget of exactly
    that builds it, one less of either raises."""
    sets = enumerate_structures("set", 3)
    for morphisms, pairs, message in [
        (60, 1678, None),
        (59, 1678, "^more than 59 morphisms: above the enumeration budget$"),
        (60, 1677, "^1678 composable pairs: above the enumeration budget of 1677$"),
    ]:
        monkeypatch.setattr(algebra, "MAX_MORPHISMS", morphisms)
        monkeypatch.setattr(algebra, "MAX_COMPOSABLE_PAIRS", pairs)
        if message is None:
            assert category_from_algebras("set", sets)[0].n_mor == 60
        else:
            with pytest.raises(CategoryDataError, match=message):
                category_from_algebras("set", sets)


def test_the_hom_enumeration_is_the_category_before_its_table(monkeypatch):
    """``enumerate_hom_sets``, all that ``gen`` runs, numbers the objects
    and morphisms as the built category does, and keeps both budget checks."""
    sets = enumerate_structures("set", 3)
    homs = enumerate_hom_sets("set", sets)
    cat = category_from_algebras("set", sets)[0]
    assert (homs.names, homs.mor_ids) == (list(cat.objects), list(cat.mor_ids))
    assert (homs.dom, homs.cod, homs.identity_of) == (cat._dom_l, cat._cod_l, cat.identity_of)
    for morphisms, pairs, message in [
        (59, 1678, "^more than 59 morphisms: above the enumeration budget$"),
        (60, 1677, "^1678 composable pairs: above the enumeration budget of 1677$"),
    ]:
        monkeypatch.setattr(algebra, "MAX_MORPHISMS", morphisms)
        monkeypatch.setattr(algebra, "MAX_COMPOSABLE_PAIRS", pairs)
        with pytest.raises(CategoryDataError, match=message):
            enumerate_hom_sets("set", sets)


def test_the_enumeration_budget_admits_every_generated_file_and_no_six_element_set():
    # Poset≤4 with the empty poset is the largest output of ``finext gen``
    cat, _ = build_category("poset", 4, include_empty=True)
    assert cat.n_mor == 19727
    with pytest.raises(CategoryDataError, match="enumeration budget"):
        category_from_algebras("set", [FinAlgebra("set", 6)])
    with pytest.raises(CategoryDataError, match="composable pairs"):
        category_from_algebras("set", [FinAlgebra("set", 5), FinAlgebra("set", 5)], ["X", "Y"])


def test_load_infers_kind_without_variety_field():
    doc = {
        "algebras": [
            {"name": "X", "carrier": 2, "basepoint": 1},
            {"name": "Y", "carrier": 1, "basepoint": 0},
        ]
    }
    parsed, errors = load_category(doc)
    assert errors == []
    assert parsed is not None and parsed[0] == "pointed"

    doc = {"algebras": [{"name": "X", "carrier": 2, "order": [[0, 0], [1, 1], [0, 1]]}]}
    parsed, errors = load_category(doc)
    assert errors == []
    assert parsed is not None and parsed[0] == "poset"
