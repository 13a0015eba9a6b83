"""Acceptance battery: fourteen end-to-end checks, one printed line each.

Each test prints ``[acceptance NN] PASS/FAIL - summary`` (also echoed in the
terminal summary) so the battery's outcome is readable at a glance.  Expected
values were derived independently: set-theoretic counting for the function
categories, hand-checked order theory for the chains and lattices, and the
concrete bitmask oracle for the relation calculus.
"""

from __future__ import annotations

import itertools
import json
from contextlib import contextmanager

import conftest
from finext import extensivity as ext
from finext import limits
from finext import relcalc as rc
from finext import setrel
from finext.algebra import (
    all_congruences,
    center_of_monoid,
    enumerate_structures,
    pushout_surjections,
    quotient,
)
from finext.cli import main as cli_main
from finext.fincat import dual_of, morphisms_of_class, thin_category_from_poset
from finext.propositions import proposition_suite
from finext.relcalc import IDENTITY_IDS


@contextmanager
def criterion(num: int, summary: str):
    verdict = "FAIL"
    try:
        yield
        verdict = "PASS"
    finally:
        line = f"[acceptance {num:02d}] {verdict} - {summary}"
        conftest.ACCEPTANCE_LINES.append(line)
        print(line)


GOLDEN_SQUARE = {
    "kind": "square-not-pushout",
    "morphism": "P0>P0#0000",
    "top": ["P0>P0#0000", "P0>P0#0000"],
    "bottom": ["P0>P0#0000", "P0>P1#0000"],
    "verticals": ["P0>P0#0000", "P0>P1#0000"],
    "side": "right",
}


def test_criterion_01_finite_sets_are_extensive(set4):
    with criterion(1, "finite-set skeleton (carriers <= 4): all 499 morphisms extensive"):
        cat, _ = set4
        report = ext.category_report(cat, "extensive")
        assert report["verdict"] == "pass"
        assert len(report["morphisms"]) == 499
        assert all(st["status"] == "pass" for st in report["morphisms"].values())


def test_criterion_02_pointed_maps_extensive_iff_basepoint_fibre_trivial(pointed3):
    with criterion(2, "pointed sets (<= 3): extensive <=> basepoint fibre is the basepoint"):
        cat, uni = pointed3
        mismatches = []
        for i in range(cat.n_mor):
            mid = cat.mid(i)
            st = ext.is_extensive_morphism(cat, mid)
            dom = uni.algebras[cat.objects[cat._dom_l[i]]]
            cod = uni.algebras[cat.objects[cat._cod_l[i]]]
            table = uni.maps[mid]
            fibre = [x for x in range(dom.size) if table[x] == cod.ops["pt"]]
            if st.passed != (fibre == [dom.ops["pt"]]):
                mismatches.append(mid)
        assert cat.n_mor == 23
        assert mismatches == []


def test_criterion_03_two_point_chain_fails_with_the_exact_square(golden):
    with criterion(3, "two-point chain: identity of the bottom fails the dual square condition"):
        cat, _ = golden
        ident = cat.mid(cat.identity_of[cat.obj_index["P0"]])
        st = ext.check_c2(cat, ident)
        assert st.failed
        assert st.witness == GOLDEN_SQUARE
        thin = thin_category_from_poset([[True, True], [False, True]], ["0", "1"])
        st2 = ext.check_c2(thin, "0<=0")
        assert st2.failed
        assert st2.witness["kind"] == "square-not-pushout"


def test_criterion_04_lattice_surjections_are_coextensive(lat4):
    with criterion(4, "lattices (<= 4): all 20 surjective homs coextensive, none inapplicable"):
        cat, uni = lat4
        surjections = []
        for i in range(cat.n_mor):
            mid = cat.mid(i)
            cod = uni.algebras[cat.objects[cat._cod_l[i]]]
            if set(uni.maps[mid]) == set(range(cod.size)):
                surjections.append(mid)
        assert len(surjections) == 20
        inapplicable = []
        failures = []
        for mid in surjections:
            st = ext.is_coextensive_morphism(cat, mid)
            if st.status == "inapplicable":
                inapplicable.append(mid)
            elif st.failed:
                failures.append(mid)
        assert failures == []
        assert inapplicable == []  # itemized: every needed pushout existed


def test_criterion_05_lattice_split_monos_fail_coextensivity(lat4):
    with criterion(5, "lattices: 8 of 11 split monos into the square fail, with witnesses"):
        cat, _ = lat4
        split = morphisms_of_class(cat, "split-mono")
        into_square = sorted(
            m for m in split if cat.oid(cat._cod_l[cat.mor_index[m]]) == "L4_0"
        )
        assert len(into_square) == 11
        outcome = {}
        for mid in into_square:
            st = ext.is_coextensive_morphism(cat, mid)
            outcome.setdefault(st.status, []).append(mid)
            if st.failed:
                assert st.witness["kind"] == "bottom-row-not-product", mid
        assert outcome["fail"] == [
            "L1>L4_0#0000", "L1>L4_0#0001", "L1>L4_0#0002", "L1>L4_0#0003",
            "L2>L4_0#0001", "L2>L4_0#0002", "L2>L4_0#0005", "L2>L4_0#0007",
        ]
        # the diagonal embedding itself passes at this truncation scale; the
        # failing witnesses come from the point and edge embeddings
        assert outcome["pass"] == ["L2>L4_0#0003", "L4_0>L4_0#0005", "L4_0>L4_0#0007"]


def test_criterion_06_refinement_examples(cpos3, slat4, mon4):
    with criterion(6, "refinement: connected posets and semilattices pass; Klein four-group fails"):
        ccat, _ = cpos3
        scat, _ = slat4
        assert len(ccat.objects) == 5
        assert len(scat.objects) == 9
        for cat in (ccat, scat):
            for oid in cat.objects:
                assert ext.has_binary_srp(cat, oid).passed, oid
        mcat, muni = mon4
        klein = ext.has_binary_srp(mcat, "M4_7")
        assert klein.failed
        assert klein.witness["kind"] == "no-grid"
        assert klein.details == {"pairs": 116}
        t2 = muni.algebras["M4_6"]
        assert center_of_monoid(t2) == [0]
        projections = [
            m
            for m in morphisms_of_class(mcat, "product-projection")
            if mcat.oid(mcat._dom_l[mcat.mor_index[m]]) == "M4_6"
        ]
        assert projections == ["M4_6>M1#0000", "M4_6>M4_6#0003", "M4_6>M4_6#0004"]
        for mid in projections:
            assert ext.is_coextensive_morphism(mcat, mid).passed, mid


def test_criterion_07_extremal_epi_characterisation(
    set3, pointed3, golden, slat3, lat4, cpos3, mon3, dual_set3
):
    with criterion(7, "identity coextensive <=> projections extremal epi, all categories agree"):
        roster = {
            "finset3": set3[0],
            "pointed3": pointed3[0],
            "golden-poset": golden[0],
            "slat3": slat3[0],
            "lat4": lat4[0],
            "cpos3": cpos3[0],
            "mon3": mon3[0],
            "finset3-op": dual_set3,
        }
        for label, cat in roster.items():
            st = dict(proposition_suite(cat, selection=["prop-extremal-identity"]))[
                "prop-extremal-identity"
            ]
            assert st.passed, label
            assert st.details["vacuous"] == 0, label
        golden_details = dict(
            proposition_suite(roster["golden-poset"], selection=["prop-extremal-identity"])
        )["prop-extremal-identity"].details
        assert golden_details["kernel_pairs_complete"] is True
        assert golden_details["converse_checked"] == 2


def test_criterion_08_composites_of_extensive_morphisms(set4, pointed3):
    with criterion(8, "composites of extensive morphisms stay extensive (133799 + 47 pairs)"):
        st = dict(proposition_suite(set4[0], selection=["prop-composite"]))["prop-composite"]
        assert st.passed
        assert st.details == {"instances": 133799, "vacuous": 0}
        st2 = dict(proposition_suite(pointed3[0], selection=["prop-composite"]))["prop-composite"]
        assert st2.passed
        assert st2.details == {"instances": 47, "vacuous": 0}


def test_criterion_09_relation_identities_and_oracle_agreement(set3, set4):
    with criterion(9, "relation calculus: eight identities exhaustive; composition matches oracle"):
        cat, uni = set3
        by_id = dict(rc.identity_suite(cat))
        identity_ids = IDENTITY_IDS[:8]
        for cid in identity_ids:
            st = by_id[cid]
            assert st.passed, cid
            assert st.details["oracle_failures"] == 0, cid
        instances = [by_id[cid].details["instances"] for cid in identity_ids]
        assert instances == [5, 2, 6, 2, 25, 3, 3, 5]
        by_id4 = dict(rc.identity_suite(set4[0]))
        for cid in identity_ids:
            assert by_id4[cid].passed, cid
            assert by_id4[cid].details["oracle_failures"] == 0, cid
        size = {i: uni.algebras[cat.objects[i]].size for i in range(len(cat.objects))}

        def mask(r):
            p1, p2 = limits.product(cat, r.src, r.tgt).legs
            t1 = uni.maps[cat.mid(cat.compose(p1, r.rep))]
            t2 = uni.maps[cat.mid(cat.compose(p2, r.rep))]
            return setrel.mask_of(zip(t1, t2), size[r.src], size[r.tgt])

        rels = {}
        for x in range(len(cat.objects)):
            for y in range(len(cat.objects)):
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
                        assert mask(out) == setrel.compose(
                            mask(r), mask(s), size[x], size[y], size[z]
                        )
                        agree += 1
        assert agree == 199 and skipped == 148  # 100% agreement where computable


def test_criterion_10_kernel_pair_of_projection_formula(set3, set4):
    with criterion(10, "eq(projection) = diagonal x full relation, categorical and concrete"):
        def scan(cat, uni):
            size = {i: uni.algebras[cat.objects[i]].size for i in range(len(cat.objects))}
            checked = skipped = nontrivial = 0
            for a in range(len(cat.objects)):
                for b in range(len(cat.objects)):
                    w = limits.product(cat, a, b)
                    if w is None:
                        continue
                    got = rc.eq_of(cat, w.legs[0])
                    da, nb = rc.delta(cat, a), rc.nabla(cat, b)
                    want = (
                        rc.rel_product(cat, da, nb)
                        if (da is not None and nb is not None)
                        else None
                    )
                    if got is None or want is None:
                        skipped += 1  # the ambient square exceeds the budget
                        continue
                    assert got == want, (a, b)
                    checked += 1
                    if size[w.apex] > 1:
                        nontrivial += 1
            return checked, skipped, nontrivial

        assert scan(*set3) == (4, 8, 0)
        assert scan(*set4) == (8, 9, 2)  # 1x2 products make it non-vacuous
        oracle_assertions = 0
        for na in range(4):
            for nb in range(4):
                pairs_xy = list(itertools.product(range(na), range(nb)))
                n = len(pairs_xy)
                pi1 = tuple(x for x, _ in pairs_xy)
                pi2 = tuple(y for _, y in pairs_xy)
                assert setrel.eq_mask(pi1, n) == setrel.rel_product(
                    setrel.delta(na), setrel.nabla(nb, nb), na, nb
                )
                assert setrel.eq_mask(pi2, n) == setrel.rel_product(
                    setrel.nabla(na, na), setrel.delta(nb), na, nb
                )
                oracle_assertions += 2
        assert oracle_assertions == 32


def test_criterion_11_exactness_biconditional(set3, lat4, dual_set3):
    with criterion(11, "exactness biconditional: sides agree on sets, dual sets, lattices"):
        st = rc.barr_exact_check(set3[0])
        assert st.passed
        d = st.details
        assert d["regularity"]["status"] == "pass"
        assert d["effectiveness_skipped"] == 0 and d["effective_equivalences"] == 2
        assert d["split_monos_coextensive"] is False
        assert d["category_coextensive"] is False
        assert d["biconditional_holds"] is True
        assert d["split_mono_counterexample"]["witness"]["kind"] == "square-not-pushout"

        dual_st = rc.barr_exact_check(dual_set3)
        assert dual_st.passed
        dd = dual_st.details
        assert dd["split_monos_coextensive"] is True
        assert dd["category_coextensive"] is True
        assert dd["effective_equivalences"] == 3
        assert dd["biconditional_holds"] is True

        lat_st = rc.barr_exact_check(lat4[0])
        assert lat_st.passed
        ld = lat_st.details
        assert ld["split_monos_coextensive"] is False
        assert ld["category_coextensive"] is False
        assert ld["biconditional_holds"] is True
        assert ld["split_mono_counterexample"]["witness"]["kind"] == "bottom-row-not-product"


def test_criterion_12_duality_soundness(
    set3, pointed3, golden, slat3, lat4, cpos3, mon3, dual_set3
):
    with criterion(12, "duality: dual-run statuses identical for all 771 morphisms"):
        roster = [
            set3[0], pointed3[0], golden[0], slat3[0], lat4[0], cpos3[0], mon3[0], dual_set3,
        ]
        total = 0
        for cat in roster:
            dual = dual_of(cat)
            for i in range(cat.n_mor):
                mid = cat.mid(i)
                assert (
                    ext.is_coextensive_morphism(cat, mid).status
                    == ext.is_extensive_morphism(dual, mid).status
                ), mid
                total += 1
        assert total == 771


def _compose_maps(g, f):
    return tuple(g[f[x]] for x in range(len(f)))


def _inv_perm(p):
    out = [0] * len(p)
    for i, v in enumerate(p):
        out[v] = i
    return tuple(out)


def test_criterion_13_pushout_oracle_agreement(lat4, slat4):
    with criterion(13, "algebraic pushouts match categorical search on 443 congruence pairs"):
        expected_pairs = {"lat": 101, "slat": 342}
        for kind, (cat, uni) in (("lat", lat4), ("slat", slat4)):
            names = {uni.algebras[n].canonical_key(): n for n in uni.algebras}
            mid_of = {}
            for i in range(cat.n_mor):
                mid = cat.mid(i)
                key = (cat.oid(cat._dom_l[i]), cat.oid(cat._cod_l[i]), uni.maps[mid])
                mid_of[key] = mid

            def canonize(alg):
                name = names[alg.canonical_key()]
                rep = uni.algebras[name]
                for perm in itertools.permutations(range(alg.size)):
                    if alg.relabel(perm).encode() == rep.encode():
                        return name, perm
                raise AssertionError("no isomorphism onto the representative")

            pairs = 0
            for A in enumerate_structures(kind, 4):
                a_name, a_perm = canonize(A)
                a_inv = _inv_perm(a_perm)
                for t1, t2 in itertools.product(all_congruences(A), repeat=2):
                    q1, p1 = quotient(A, t1)
                    q2, p2 = quotient(A, t2)
                    apex, fb, gc = pushout_surjections(A, p1, q1, p2, q2)
                    n1, phi1 = canonize(q1)
                    n2, phi2 = canonize(q2)
                    n_apex, psi = canonize(apex)
                    m1 = mid_of[(a_name, n1, _compose_maps(phi1, _compose_maps(p1, a_inv)))]
                    m2 = mid_of[(a_name, n2, _compose_maps(phi2, _compose_maps(p2, a_inv)))]
                    w = limits.pushout(cat, cat.mor_index[m1], cat.mor_index[m2])
                    assert w is not None, (kind, a_name, t1, t2)
                    assert cat.oid(w.apex) == n_apex, (kind, a_name, t1, t2)
                    l1 = mid_of[(n1, n_apex, _compose_maps(psi, _compose_maps(fb, _inv_perm(phi1))))]
                    l2 = mid_of[(n2, n_apex, _compose_maps(psi, _compose_maps(gc, _inv_perm(phi2))))]
                    assert limits.is_pushout_square(
                        cat,
                        cat.mor_index[m1],
                        cat.mor_index[m2],
                        cat.mor_index[l1],
                        cat.mor_index[l2],
                    ), (kind, a_name, t1, t2)
                    pairs += 1
            assert pairs == expected_pairs[kind], kind


def test_criterion_14_full_run_determinism(tmp_path, capsys):
    with criterion(14, "two seeded full verification runs emit identical digest content"):
        reports = []
        for name in ("one.json", "two.json"):
            path = tmp_path / name
            code = cli_main(
                ["verify-paper", "--suite", "all", "--seed", "7", "--report", str(path)]
            )
            assert code == 0
            reports.append(json.load(open(path)))
        capsys.readouterr()

        def strip(v):
            if isinstance(v, dict):
                return {k: strip(x) for k, x in v.items() if k != "timing_ms"}
            if isinstance(v, list):
                return [strip(x) for x in v]
            return v

        a, b = (json.dumps(strip(doc), sort_keys=True) for doc in reports)
        assert a == b
        assert reports[0]["digest"] == reports[1]["digest"]
        assert reports[0]["summary"]["fail"] == 0
        assert reports[0]["summary"]["total"] == 183
