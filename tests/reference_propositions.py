"""The seed's proposition runners, kept for differential tests.

Each counting runner here is the seed's loop with its own ``_Tally``
bookkeeping (checked and vacuous counts, first witness), and the helpers
the rewrite folded away stay as they were: the found/break flags of
``_squares_exist_hypothesis``, ``_kernel_pairs_complete``,
``_all_base_legs_regular_epi``, ``_is_regular_mono``, the two biconditional
bodies and the split-mono loop of ``prop-commute-split-mono-coextensive``.
Runners the rewrite left alone are imported from ``finext.propositions``.

Verdicts go through ``finext.propositions.morphism_status``, looked up on
the module at every call, so a test that replaces it there changes both
suites alike (``thm-barr-exact`` reads ``finext.relcalc.morphism_status``
in both).
"""

from __future__ import annotations

import random

from finext import limits, propositions
from finext.extensivity import (
    CheckStatus,
    _all_parallel_pairs,
    _fail,
    _na,
    _ok,
    category_report,
    check_c1,
    check_c2,
    check_e1,
    check_e2,
    commutation_check,
    coproduct_disjointness,
    has_binary_srp,
    has_finite_srp,
)
from finext.fincat import (
    FinCategory,
    _epi_set,
    _extremal_epi_set,
    _is_regular_epi,
    _iso_info,
    _mono_set,
    dual_of,
)
from finext.propositions import (
    INNER_BOUND,
    PROPOSITION_IDS,
    SAMPLE_BOUND,
    SRP_ARITY,
    _all_identities,
    _composable_pairs,
    _product_decompositions,
    _sum_decompositions,
    cor_e1_shortcut,
    cor_inclusion_ext_equiv,
    cor_iso_identity,
    thm_barr_exact,
)
from reference_fincat import split_mono_witness


def morphism_status(cat: FinCategory, f: int, mode: str = "extensive") -> CheckStatus:
    return propositions.morphism_status(cat, f, mode)


class _Tally:
    def __init__(self):
        self.checked = 0
        self.vacuous = 0
        self.witness: dict | None = None

    def status(self, **extra) -> CheckStatus:
        details = {"instances": self.checked, "vacuous": self.vacuous, **extra}
        if self.witness is not None:
            return CheckStatus("fail", self.witness, details)
        if self.checked == 0:
            return CheckStatus("inapplicable", {"kind": "no-instances"}, details)
        return CheckStatus("pass", None, details)


# -- composition and factor statements ----------------------------------------------


def prop_composite(cat: FinCategory, **_) -> CheckStatus:
    """Composites of extensive morphisms are extensive."""
    t = _Tally()
    for f, g, gf in _composable_pairs(cat):
        if not (morphism_status(cat, f).passed and morphism_status(cat, g).passed):
            continue
        t.checked += 1
        st = morphism_status(cat, gf)
        if not st.passed and t.witness is None:
            t.witness = {
                "kind": "composite-not-extensive",
                "first": cat.mid(f),
                "second": cat.mid(g),
                "composite": cat.mid(gf),
                "inner": st.witness,
            }
    return t.status()


def _squares_exist_hypothesis(cat: FinCategory, g: int) -> bool:
    """For every coproduct presentation of dom g there are pullback squares
    over some coproduct presentation of cod g."""
    y, z = cat._dom_l[g], cat._cod_l[g]
    for y1, y2 in limits.coproduct_bases(cat, y):
        found = False
        for z1, z2 in limits.coproduct_bases(cat, z):
            t1 = cat.compose(g, y1)
            t2 = cat.compose(g, y2)
            for g1 in cat.postcompose_fibers(z1, cat._dom_l[y1]).get(t1, ()):
                if not limits.is_pullback_square(cat, g, z1, y1, g1):
                    continue
                for g2 in cat.postcompose_fibers(z2, cat._dom_l[y2]).get(t2, ()):
                    if limits.is_pullback_square(cat, g, z2, y2, g2):
                        found = True
                        break
                if found:
                    break
            if found:
                break
        if not found:
            return False
    return True


def lemma_left_factor(cat: FinCategory, **_) -> CheckStatus:
    """If g∘f is extensive and g sits over pullback squares for every
    coproduct presentation of its domain, then f is extensive."""
    t = _Tally()
    hyp_cache: dict[int, bool] = {}
    for f, g, gf in _composable_pairs(cat):
        if not morphism_status(cat, gf).passed:
            continue
        if morphism_status(cat, f).passed:
            t.checked += 1
            continue
        if g not in hyp_cache:
            hyp_cache[g] = _squares_exist_hypothesis(cat, g)
        if not hyp_cache[g]:
            t.vacuous += 1
            continue
        t.checked += 1
        if t.witness is None:
            t.witness = {
                "kind": "left-factor-not-extensive",
                "first": cat.mid(f),
                "second": cat.mid(g),
                "composite": cat.mid(gf),
                "inner": morphism_status(cat, f).witness,
            }
    return t.status()


# -- isomorphism and identity statements --------------------------------------------


def prop_iso_c1_e1(cat: FinCategory, **_) -> CheckStatus:
    """Every isomorphism satisfies both the pushout-row condition and the
    pullback-row condition."""
    t = _Tally()
    for h in sorted(_iso_info(cat)[0]):
        t.checked += 1
        for name, st in (("C1", check_c1(cat, cat.mid(h))), ("E1", check_e1(cat, cat.mid(h)))):
            if st.failed and t.witness is None:
                t.witness = {"kind": "iso-fails-" + name, "morphism": cat.mid(h), "inner": st.witness}
    return t.status()


def prop_iso_c2_product_iso(cat: FinCategory, **_) -> CheckStatus:
    """All isomorphisms satisfy the two-square pushout condition exactly when
    a product of morphisms can only be an isomorphism if both factors are."""
    isos = _iso_info(cat)[0]
    lhs_witness = None
    for h in sorted(isos):
        st = check_c2(cat, cat.mid(h))
        if st.failed:
            lhs_witness = {"morphism": cat.mid(h), "inner": st.witness}
            break
    lhs = lhs_witness is None
    rhs_witness = None
    instances = 0
    for h in sorted(isos):
        for f1, f2 in _product_decompositions(cat, h):
            instances += 1
            if (f1 in isos) != (f2 in isos) or f1 not in isos:
                if rhs_witness is None:
                    rhs_witness = {
                        "product": cat.mid(h),
                        "factors": [cat.mid(f1), cat.mid(f2)],
                    }
    rhs = rhs_witness is None
    details = {
        "identities_side": lhs,
        "product_side": rhs,
        "decompositions": instances,
        "identities_witness": lhs_witness,
        "product_witness": rhs_witness,
    }
    if instances == 0 and not lhs:
        return _na({"kind": "no-product-decompositions"}, **details)
    if lhs == rhs:
        return _ok(**details)
    return _fail({"kind": "biconditional-violated", **details})


def prop_c1_coext(cat: FinCategory, **_) -> CheckStatus:
    """A morphism with pushouts along product legs, whose codomain identity
    satisfies the two-square condition, is coextensive.  The weaker reading
    (plain extensivity of the same morphism) is reported but not asserted."""
    t = _Tally()
    literal_failures = 0
    for f in range(cat.n_mor):
        if not check_c1(cat, cat.mid(f)).passed:
            continue
        if not check_c2(cat, cat.mid(cat.identity_of[cat._cod_l[f]])).passed:
            continue
        t.checked += 1
        st = morphism_status(cat, f, "coextensive")
        if not st.passed and t.witness is None:
            t.witness = {"kind": "not-coextensive", "morphism": cat.mid(f), "inner": st.witness}
        if not morphism_status(cat, f).passed:
            literal_failures += 1
    return t.status(literal_extensive_failures=literal_failures)


# -- products, monos, extremal epis --------------------------------------------------


def lemma_product_lift_mono(cat: FinCategory, **_) -> CheckStatus:
    """Factoring both legs of a product cone through monomorphisms yields
    another product cone."""
    monos = _mono_set(cat)
    t = _Tally()
    for a in range(len(cat.objects)):
        for p1, p2 in limits.product_bases(cat, a):
            for m1 in monos:
                if cat._cod_l[m1] != cat._cod_l[p1]:
                    continue
                q1s = cat.postcompose_fibers(m1, a).get(p1, ())
                for q1 in q1s:
                    for m2 in monos:
                        if cat._cod_l[m2] != cat._cod_l[p2]:
                            continue
                        for q2 in cat.postcompose_fibers(m2, a).get(p2, ()):
                            t.checked += 1
                            if not limits.is_product_cone(cat, q1, q2) and t.witness is None:
                                t.witness = {
                                    "kind": "lifted-row-not-product",
                                    "object": cat.oid(a),
                                    "base": [cat.mid(p1), cat.mid(p2)],
                                    "monos": [cat.mid(m1), cat.mid(m2)],
                                    "lifted": [cat.mid(q1), cat.mid(q2)],
                                }
    return t.status()


def lemma_product_mono_reflect(cat: FinCategory, **_) -> CheckStatus:
    """When the projections involved are epi, a product of morphisms being
    mono forces both factors mono."""
    monos = _mono_set(cat)
    epis = _epi_set(cat)
    t = _Tally()
    for h in sorted(monos):
        p, q = cat._dom_l[h], cat._cod_l[h]
        for q1, q2 in limits.product_bases(cat, p):
            if q1 not in epis or q2 not in epis:
                continue
            for p1, p2 in limits.product_bases(cat, q):
                if p1 not in epis or p2 not in epis:
                    continue
                t1, t2 = cat.compose(p1, h), cat.compose(p2, h)
                for f1 in cat.precompose_fibers(q1, cat._cod_l[p1]).get(t1, ()):
                    for f2 in cat.precompose_fibers(q2, cat._cod_l[p2]).get(t2, ()):
                        t.checked += 1
                        if (f1 not in monos or f2 not in monos) and t.witness is None:
                            t.witness = {
                                "kind": "factor-not-mono",
                                "product": cat.mid(h),
                                "factors": [cat.mid(f1), cat.mid(f2)],
                            }
    return t.status()


def _kernel_pairs_complete(cat: FinCategory) -> tuple[bool, str | None]:
    for f in range(cat.n_mor):
        if limits.kernel_pair(cat, f) is None:
            return False, cat.mid(f)
    return True, None


def prop_extremal_identity(cat: FinCategory, **_) -> CheckStatus:
    """A coextensive identity forces every product projection of its object
    to be an extremal epimorphism; with all kernel pairs present the two are
    equivalent."""
    extremal = _extremal_epi_set(cat)
    kp_complete, kp_missing = _kernel_pairs_complete(cat)
    t = _Tally()
    converse_checked = 0
    for a in range(len(cat.objects)):
        bases = limits.product_bases(cat, a)
        if not bases:
            continue
        lhs = morphism_status(cat, cat.identity_of[a], "coextensive").passed
        rhs = all(p1 in extremal and p2 in extremal for p1, p2 in bases)
        t.checked += 1
        if lhs and not rhs and t.witness is None:
            bad = next(
                cat.mid(p)
                for base in bases
                for p in base
                if p not in extremal
            )
            t.witness = {
                "kind": "projection-not-extremal",
                "object": cat.oid(a),
                "projection": bad,
            }
        if kp_complete:
            converse_checked += 1
            if rhs and not lhs and t.witness is None:
                t.witness = {
                    "kind": "identity-not-coextensive",
                    "object": cat.oid(a),
                    "inner": morphism_status(cat, cat.identity_of[a], "coextensive").witness,
                }
    return t.status(
        kernel_pairs_complete=kp_complete,
        kernel_pair_missing=kp_missing,
        converse_checked=converse_checked,
    )


def prop_conservativity(cat: FinCategory, **_) -> CheckStatus:
    """Identities are extensive exactly when a sum of morphisms can only be
    an isomorphism if both summands are."""
    isos = _iso_info(cat)[0]
    lhs, lhs_wit = _all_identities(cat, "extensive")
    rhs_witness = None
    instances = 0
    for h in sorted(isos):
        for f1, f2 in _sum_decompositions(cat, h):
            instances += 1
            if (f1 not in isos or f2 not in isos) and rhs_witness is None:
                rhs_witness = {"sum": cat.mid(h), "summands": [cat.mid(f1), cat.mid(f2)]}
    rhs = rhs_witness is None
    details = {
        "identities_side": lhs,
        "sum_side": rhs,
        "decompositions": instances,
        "identities_witness": lhs_wit,
        "sum_witness": rhs_witness,
    }
    if instances == 0 and not lhs:
        return _na({"kind": "no-sum-decompositions"}, **details)
    if lhs == rhs:
        return _ok(**details)
    return _fail({"kind": "biconditional-violated", **details})


# -- coproduct inclusion statements ---------------------------------------------------


def _is_regular_mono(cat: FinCategory, m: int) -> bool:
    return _is_regular_epi(dual_of(cat), m)[0]


def prop_inclusion_regular_mono(cat: FinCategory, **_) -> CheckStatus:
    """If every coproduct inclusion satisfies the forced-squares condition,
    coproducts are disjoint and inclusions are regular monomorphisms."""
    incs = sorted(limits.coproduct_legs(cat))
    if not incs:
        return _na({"kind": "no-coproduct-inclusions"})
    for i in incs:
        st = check_e2(cat, cat.mid(i))
        if st.failed:
            return _na({"kind": "inclusion-fails-E2", "morphism": cat.mid(i), "inner": st.witness})
    dis = coproduct_disjointness(cat)
    if dis.failed:
        return _fail({"kind": "coproducts-not-disjoint", "inner": dis.witness}, inclusions=len(incs))
    for i in incs:
        if not _is_regular_mono(cat, i):
            return _fail({"kind": "inclusion-not-regular-mono", "morphism": cat.mid(i)}, inclusions=len(incs))
    return _ok(inclusions=len(incs), disjointness=dis.status)


def prop_e1_implies_extensive(cat: FinCategory, **_) -> CheckStatus:
    """With an initial object, disjoint coproducts, and all inclusions
    passing the one-row check, any morphism passing the one-row check is
    extensive."""
    if limits.initial(cat) is None:
        return _na({"kind": "no-initial"})
    dis = coproduct_disjointness(cat)
    if not dis.passed:
        return _na({"kind": "coproducts-not-disjoint", "inner": dis.witness})
    for i in sorted(limits.coproduct_legs(cat)):
        if not check_e1(cat, cat.mid(i)).passed:
            return _na({"kind": "inclusion-fails-E1", "morphism": cat.mid(i)})
    t = _Tally()
    for f in range(cat.n_mor):
        if not check_e1(cat, cat.mid(f)).passed:
            continue
        t.checked += 1
        st = morphism_status(cat, f)
        if not st.passed and t.witness is None:
            t.witness = {"kind": "one-row-but-not-extensive", "morphism": cat.mid(f), "inner": st.witness}
    return t.status()


def prop_pullback_stability(cat: FinCategory, **_) -> CheckStatus:
    """When all inclusions are extensive, pulling an extensive morphism back
    along an inclusion yields an extensive morphism."""
    incs = sorted(limits.coproduct_legs(cat))
    for i in incs:
        if not morphism_status(cat, i).passed:
            return _na({"kind": "inclusion-not-extensive", "morphism": cat.mid(i)})
    t = _Tally()
    for f in range(cat.n_mor):
        if not morphism_status(cat, f).passed:
            continue
        for i in incs:
            if cat._cod_l[i] != cat._cod_l[f]:
                continue
            t.checked += 1
            w = limits.pullback(cat, f, i)
            if w is None:
                if t.witness is None:
                    t.witness = {"kind": "pullback-missing", "morphism": cat.mid(f), "inclusion": cat.mid(i)}
                continue
            st = morphism_status(cat, w.legs[1])
            if not st.passed and t.witness is None:
                t.witness = {
                    "kind": "pulled-back-not-extensive",
                    "morphism": cat.mid(f),
                    "inclusion": cat.mid(i),
                    "pulled_back": cat.mid(w.legs[1]),
                    "inner": st.witness,
                }
    return t.status(inclusions=len(incs))


# -- coequaliser interaction ----------------------------------------------------------


def lemma_common_coequaliser(cat: FinCategory, *, seed: int = 0, **_) -> CheckStatus:
    """Over a coequaliser diagram mapped forward by an epimorphism, the right
    square is a pushout exactly when the image row is a coequaliser.  Sampled
    over (top diagram, epi) pairs; the inner fillers are enumerated up to a
    deterministic bound."""
    epis = sorted(_epi_set(cat))
    tops = []
    for u1, v1 in _all_parallel_pairs(cat):
        w = limits.coequaliser(cat, u1, v1)
        if w is not None:
            tops.append((u1, v1, w.legs[0]))
    combos = [
        (top, e) for top in tops for e in epis if cat._dom_l[e] == cat._dom_l[top[0]]
    ]
    rng = random.Random(seed)
    rng.shuffle(combos)
    t = _Tally()
    by_dom: dict[int, list[int]] = {}
    for m in range(cat.n_mor):
        by_dom.setdefault(cat._dom_l[m], []).append(m)
    sampled = 0
    for (u1, v1, q1), e in combos:
        if sampled >= SAMPLE_BOUND:
            break
        sampled += 1
        x1 = cat._cod_l[u1]
        c2 = cat._cod_l[e]
        inner = 0
        for f in by_dom.get(x1, ()):
            x2 = cat._cod_l[f]
            u2s = cat.precompose_fibers(e, x2).get(cat.compose(f, u1), ())
            v2s = cat.precompose_fibers(e, x2).get(cat.compose(f, v1), ())
            if not u2s or not v2s:
                continue
            u2, v2 = u2s[0], v2s[0]  # e is epi, so the fillers are unique
            for q2 in by_dom.get(x2, ()):
                gs = cat.precompose_fibers(q1, cat._cod_l[q2]).get(cat.compose(q2, f), ())
                if not gs:
                    continue
                g = gs[0]  # q1 is a coequaliser, hence epi: unique
                inner += 1
                if inner > INNER_BOUND:
                    break
                t.checked += 1
                push = limits.is_pushout_square(cat, q1, f, g, q2)
                coeq = limits.is_coequaliser(cat, u2, v2, q2)
                if push != coeq and t.witness is None:
                    t.witness = {
                        "kind": "pushout-coequaliser-disagree",
                        "top": [cat.mid(u1), cat.mid(v1), cat.mid(q1)],
                        "epi": cat.mid(e),
                        "bottom": [cat.mid(u2), cat.mid(v2), cat.mid(q2)],
                        "square": {"f": cat.mid(f), "g": cat.mid(g)},
                        "right_square_pushout": push,
                        "bottom_row_coequaliser": coeq,
                    }
            if inner > INNER_BOUND:
                break
    return t.status(sampled_pairs=sampled, seed=seed)


def _all_base_legs_regular_epi(cat: FinCategory) -> tuple[bool, str | None]:
    for a in range(len(cat.objects)):
        for p1, p2 in limits.product_bases(cat, a):
            for p in (p1, p2):
                if not _is_regular_epi(cat, p)[0]:
                    return False, cat.mid(p)
    return True, None


def lemma_codisjoint(cat: FinCategory, **_) -> CheckStatus:
    """When every product projection is a regular epimorphism, products are
    co-disjoint (coproducts in the opposite category are disjoint)."""
    ok, bad = _all_base_legs_regular_epi(cat)
    if not ok:
        return _na({"kind": "projection-not-regular-epi", "morphism": bad})
    dis = coproduct_disjointness(dual_of(cat))
    if dis.status == "inapplicable":
        return _na({"kind": "dual-disjointness-inapplicable", "inner": dis.witness})
    if dis.failed:
        return _fail({"kind": "products-not-codisjoint", "inner": dis.witness})
    return _ok(**dis.details)


# -- strict refinement ---------------------------------------------------------------


def prop_srp_binary_iff_coext_projections(cat: FinCategory, **_) -> CheckStatus:
    """With all projections regular epi: an object's projections are all
    coextensive exactly when it has the binary strict refinement property."""
    ok, bad = _all_base_legs_regular_epi(cat)
    if not ok:
        return _na({"kind": "projection-not-regular-epi", "morphism": bad})
    t = _Tally()
    for a in range(len(cat.objects)):
        bases = limits.product_bases(cat, a)
        if not bases:
            continue
        coext = all(morphism_status(cat, p, "coextensive").passed for base in bases for p in base)
        srp = has_binary_srp(cat, cat.oid(a))
        if srp.status == "inapplicable":
            t.vacuous += 1
            continue
        t.checked += 1
        if coext != srp.passed and t.witness is None:
            t.witness = {
                "kind": "srp-coextensive-disagree",
                "object": cat.oid(a),
                "projections_coextensive": coext,
                "binary_srp": srp.passed,
                "srp_witness": srp.witness,
            }
    return t.status()


def thm_finite_srp(cat: FinCategory, **_) -> CheckStatus:
    """An object with coextensive product projections has the strict
    refinement property at every arity up to the bound."""
    t = _Tally()
    for a in range(len(cat.objects)):
        bases = limits.product_bases(cat, a)
        if not bases:
            continue
        if not all(morphism_status(cat, p, "coextensive").passed for base in bases for p in base):
            t.vacuous += 1
            continue
        t.checked += 1
        st = has_finite_srp(cat, cat.oid(a), SRP_ARITY)
        if st.failed and t.witness is None:
            t.witness = {"kind": "srp-fails", "object": cat.oid(a), "inner": st.witness}
    return t.status(arity_bound=SRP_ARITY)


def prop_commute_split_mono_coextensive(cat: FinCategory, *, seed: int = 0, **_) -> CheckStatus:
    """Products commuting with coequalisers plus coextensive split monos
    (with regular-epi terminal morphisms and the needed pushouts) force the
    whole category coextensive."""
    term = limits.terminal(cat)
    if term is None:
        return _na({"kind": "no-terminal"})
    for x in range(len(cat.objects)):
        h = cat.hom(x, term)
        if len(h) != 1 or not _is_regular_epi(cat, h[0])[0]:
            return _na({"kind": "terminal-morphism-not-regular-epi", "object": cat.oid(x)})
    for m in range(cat.n_mor):
        if split_mono_witness(cat, m) is None:
            continue
        if not morphism_status(cat, m, "coextensive").passed:
            return _na({"kind": "split-mono-not-coextensive", "morphism": cat.mid(m)})
    for q in range(cat.n_mor):
        if not _is_regular_epi(cat, q)[0]:
            continue
        for p1, p2 in limits.product_bases(cat, cat._dom_l[q]):
            for p in (p1, p2):
                if limits.pushout(cat, q, p) is None:
                    return _na({
                        "kind": "missing-pushout-of-regular-epi",
                        "regular_epi": cat.mid(q),
                        "projection": cat.mid(p),
                    })
    comm = commutation_check(cat, "products-coequalisers", sample_bound=SAMPLE_BOUND, seed=seed)
    if not comm.passed:
        return _na({"kind": "products-do-not-commute-with-coequalisers", "inner": comm.witness})
    report = category_report(cat, "coextensive")
    if report["verdict"] == "pass":
        return _ok(commutation=comm.details, morphisms=cat.n_mor)
    mid, bad = next((m, e) for m, e in report["morphisms"].items() if e["status"] == "fail")
    return _fail({"kind": "category-not-coextensive", "morphism": mid, "inner": bad["witness"]})


_RUNNERS = {
    "prop-composite": prop_composite,
    "lemma-left-factor": lemma_left_factor,
    "prop-iso-c1-e1": prop_iso_c1_e1,
    "prop-iso-c2-product-iso": prop_iso_c2_product_iso,
    "prop-c1-coext": prop_c1_coext,
    "cor-e1-shortcut": cor_e1_shortcut,
    "cor-iso-identity": cor_iso_identity,
    "lemma-product-lift-mono": lemma_product_lift_mono,
    "lemma-product-mono-reflect": lemma_product_mono_reflect,
    "prop-extremal-identity": prop_extremal_identity,
    "prop-conservativity": prop_conservativity,
    "prop-inclusion-regular-mono": prop_inclusion_regular_mono,
    "prop-e1-implies-extensive": prop_e1_implies_extensive,
    "cor-inclusion-ext-equiv": cor_inclusion_ext_equiv,
    "prop-pullback-stability": prop_pullback_stability,
    "lemma-common-coequaliser": lemma_common_coequaliser,
    "lemma-codisjoint": lemma_codisjoint,
    "prop-srp-binary-iff-coext-projections": prop_srp_binary_iff_coext_projections,
    "thm-finite-srp": thm_finite_srp,
    "prop-commute-split-mono-coextensive": prop_commute_split_mono_coextensive,
    "thm-barr-exact": thm_barr_exact,
}


def proposition_suite(cat: FinCategory, *, seed: int = 0, max_relation_size: int = 9) -> list[tuple[str, CheckStatus]]:
    """Every statement of PROPOSITION_IDS, in order."""
    return [(ident, _RUNNERS[ident](cat, seed=seed, max_relation_size=max_relation_size)) for ident in PROPOSITION_IDS]
