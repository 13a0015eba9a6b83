"""Machine-checkable statements about extensive and coextensive morphisms.

Each runner quantifies one statement over every in-category instantiation and
returns a CheckStatus: pass when hypotheses imply the conclusion on every
instance, fail with a replayable witness when an instance violates it, and
inapplicable (with the failing hypothesis) when the category lacks the
structure the statement requires.  A fail is a defect to escalate, never an
expected outcome.

Most runners are one instance generator read by ``extensivity._tally``.
An instance yields None when it is vacuous (the statement's hypothesis
fails on it), True when it holds, or its witness, built only on failure;
a candidate outside the statement's scope yields nothing.  The status is
fail with the first witness, inapplicable (kind ``no-instances``) when no
instance was checked, and pass otherwise; its details count ``instances``
and ``vacuous``.
"""

from __future__ import annotations

import bisect
import itertools
import random

from .fincat import (
    FinCategory,
    cached,
    dual_of,
    _epi_set,
    _extremal_epi_set,
    _iso_info,
    _mono_set,
)
from . import limits, relcalc
from .extensivity import (
    CheckStatus,
    _ok,
    _fail,
    _na,
    _tally,
    check_e1,
    check_e2,
    check_c1,
    check_c2,
    morphism_status,
    category_report,
    coproduct_disjointness,
    commutation_check,
    has_binary_srp,
    has_finite_srp,
    _all_parallel_pairs,
)

__all__ = ["PROPOSITION_IDS", "EXTENSIVITY_IDS", "RELCALC_IDS", "proposition_suite"]

SAMPLE_BOUND = 25  # sampled instances of a sampling check
INNER_BOUND = 400  # inner fillers per sampled instance of the common-coequaliser lemma
SRP_ARITY = 3  # highest product arity of the strict-refinement theorem


def _all_identities(cat: FinCategory, mode: str) -> tuple[bool, dict | None]:
    """Whether every identity is extensive/coextensive; first failure witness."""
    for x, e in sorted(cat.identity_of.items()):
        st = morphism_status(cat, e, mode)
        if not st.passed:
            return False, {"morphism": cat.mid(e), "inner": st.witness}
    return True, None


@cached("out_of")
def _out_of(cat: FinCategory) -> list[list[int]]:
    """The morphisms out of each object, in index order, cached."""
    out: list[list[int]] = [[] for _ in cat.objects]
    for g, a in enumerate(cat._dom_l):
        out[a].append(g)
    return out


def _composable_pairs(cat: FinCategory):
    """Yield (f, g, g∘f) over all composable pairs."""
    out_of = _out_of(cat)
    for f in range(cat.n_mor):
        for g in out_of[cat._cod_l[f]]:
            yield f, g, cat.compose(g, f)


# -- composition and factor statements ----------------------------------------------


def prop_composite(cat: FinCategory, **_) -> CheckStatus:
    """Composites of extensive morphisms are extensive."""
    return _tally((
        morphism_status(cat, gf).passed or {
            "kind": "composite-not-extensive",
            "first": cat.mid(f),
            "second": cat.mid(g),
            "composite": cat.mid(gf),
            "inner": morphism_status(cat, gf).witness,
        }
        for f, g, gf in _composable_pairs(cat)
        if morphism_status(cat, f).passed and morphism_status(cat, g).passed
    ), "vacuous")


@cached("left_factor_hypothesis")
def _squares_exist_hypothesis(cat: FinCategory, g: int) -> bool:
    """For every coproduct presentation of dom g there are pullback squares
    over some coproduct presentation of cod g."""
    y, z = cat._dom_l[g], cat._cod_l[g]
    return all(
        any(
            limits.is_pullback_square(cat, g, z2, y2, g2)
            for z1, z2 in limits.coproduct_bases(cat, z)
            for g1 in cat.postcompose_fibers(z1, cat._dom_l[y1]).get(cat.compose(g, y1), ())
            if limits.is_pullback_square(cat, g, z1, y1, g1)
            for g2 in cat.postcompose_fibers(z2, cat._dom_l[y2]).get(cat.compose(g, y2), ())
        )
        for y1, y2 in limits.coproduct_bases(cat, y)
    )


def lemma_left_factor(cat: FinCategory, **_) -> CheckStatus:
    """If g∘f is extensive and g sits over pullback squares for every
    coproduct presentation of its domain, then f is extensive."""

    def instances():
        for f, g, gf in _composable_pairs(cat):
            if not morphism_status(cat, gf).passed:
                continue
            if morphism_status(cat, f).passed:
                yield True
                continue
            yield {
                "kind": "left-factor-not-extensive",
                "first": cat.mid(f),
                "second": cat.mid(g),
                "composite": cat.mid(gf),
                "inner": morphism_status(cat, f).witness,
            } if _squares_exist_hypothesis(cat, g) else None

    return _tally(instances(), "vacuous")


# -- isomorphism and identity statements --------------------------------------------


def prop_iso_c1_e1(cat: FinCategory, **_) -> CheckStatus:
    """Every isomorphism satisfies both the pushout-row condition and the
    pullback-row condition."""

    def instances():
        for h in sorted(_iso_info(cat)[0]):
            checks = (("C1", check_c1(cat, cat.mid(h))), ("E1", check_e1(cat, cat.mid(h))))
            yield next((
                {"kind": "iso-fails-" + name, "morphism": cat.mid(h), "inner": st.witness}
                for name, st in checks if st.failed
            ), True)

    return _tally(instances(), "vacuous")


def _product_decompositions(cat: FinCategory, h: int):
    """All (f1, f2) with f1 x f2 = h relative to certified product cones."""
    p, q = cat._dom_l[h], cat._cod_l[h]
    for q1, q2 in limits.product_bases(cat, p):
        for p1, p2 in limits.product_bases(cat, q):
            t1, t2 = cat.compose(p1, h), cat.compose(p2, h)
            c1 = cat.precompose_fibers(q1, cat._cod_l[p1]).get(t1, ())
            if not c1:
                continue
            c2 = cat.precompose_fibers(q2, cat._cod_l[p2]).get(t2, ())
            for f1 in c1:
                for f2 in c2:
                    yield f1, f2


def _iso_biconditional(cat: FinCategory, identities_witness: dict | None, decompositions,
                       side: str, parts: str) -> CheckStatus:
    """Identities pass (no ``identities_witness``) exactly when every
    decomposition of an isomorphism into two parts has both parts isos."""
    isos = _iso_info(cat)[0]
    instances = 0
    witness = None
    for h in sorted(isos):
        for f1, f2 in decompositions(cat, h):
            instances += 1
            if witness is None and not (f1 in isos and f2 in isos):
                witness = {side: cat.mid(h), parts: [cat.mid(f1), cat.mid(f2)]}
    lhs, rhs = identities_witness is None, witness is None
    details = {
        "identities_side": lhs,
        f"{side}_side": rhs,
        "decompositions": instances,
        "identities_witness": identities_witness,
        f"{side}_witness": witness,
    }
    if instances == 0 and not lhs:
        return _na({"kind": f"no-{side}-decompositions"}, **details)
    if lhs == rhs:
        return _ok(**details)
    return _fail({"kind": "biconditional-violated", **details})


def prop_iso_c2_product_iso(cat: FinCategory, **_) -> CheckStatus:
    """All isomorphisms satisfy the two-square pushout condition exactly when
    a product of morphisms can only be an isomorphism if both factors are."""
    statuses = ((h, check_c2(cat, cat.mid(h))) for h in sorted(_iso_info(cat)[0]))
    witness = next(({"morphism": cat.mid(h), "inner": st.witness} for h, st in statuses if st.failed), None)
    return _iso_biconditional(cat, witness, _product_decompositions, "product", "factors")


def prop_c1_coext(cat: FinCategory, **_) -> CheckStatus:
    """A morphism with pushouts along product legs, whose codomain identity
    satisfies the two-square condition, is coextensive.  The weaker reading
    (plain extensivity of the same morphism) is reported but not asserted."""
    literal: list[bool] = []

    def instances():
        for f in range(cat.n_mor):
            if check_c1(cat, cat.mid(f)).passed and check_c2(cat, cat.mid(cat.identity_of[cat._cod_l[f]])).passed:
                st = morphism_status(cat, f, "coextensive")
                literal.append(morphism_status(cat, f).passed)
                yield st.passed or {"kind": "not-coextensive", "morphism": cat.mid(f), "inner": st.witness}

    st = _tally(instances(), "vacuous")
    st.details["literal_extensive_failures"] = literal.count(False)
    return st


def cor_e1_shortcut(cat: FinCategory, **_) -> CheckStatus:
    """When identities are extensive (dually coextensive), the one-row check
    decides the full property, status for status."""
    details: dict = {}
    witness = None
    applied = 0
    for mode, one_row in (("extensive", check_e1), ("coextensive", check_c1)):
        gate, gate_wit = _all_identities(cat, mode)
        details[f"{mode}_gate"] = gate
        if not gate:
            details[f"{mode}_gate_witness"] = gate_wit
            continue
        applied += 1
        mismatches = 0
        for f in range(cat.n_mor):
            full, row = morphism_status(cat, f, mode).status, one_row(cat, cat.mid(f)).status
            if full != row:
                mismatches += 1
                if witness is None:
                    witness = {
                        "kind": "shortcut-disagrees",
                        "mode": mode,
                        "morphism": cat.mid(f),
                        "one_row": row,
                        "full": full,
                    }
        details[f"{mode}_mismatches"] = mismatches
    if witness is not None:
        return _fail(witness, **details)
    if applied == 0:
        return _na({"kind": "identities-not-extensive-either-mode"}, **details)
    return _ok(modes_applied=applied, **details)


def cor_iso_identity(cat: FinCategory, **_) -> CheckStatus:
    """All isomorphisms are extensive (dually coextensive) exactly when all
    identities are."""
    isos = sorted(_iso_info(cat)[0])
    for mode in ("extensive", "coextensive"):
        ids_ok, _w = _all_identities(cat, mode)
        isos_ok = True
        iso_wit = None
        for h in isos:
            if not morphism_status(cat, h, mode).passed:
                isos_ok = False
                iso_wit = cat.mid(h)
                break
        if ids_ok != isos_ok:
            return _fail({
                "kind": "iso-identity-disagree",
                "mode": mode,
                "identities": ids_ok,
                "isomorphisms": isos_ok,
                "iso_witness": iso_wit,
            })
    return _ok(isomorphisms=len(isos))


# -- products, monos, extremal epis --------------------------------------------------


def lemma_product_lift_mono(cat: FinCategory, **_) -> CheckStatus:
    """Factoring both legs of a product cone through monomorphisms yields
    another product cone."""
    monos = _mono_set(cat)
    return _tally((
        limits.is_product_cone(cat, q1, q2) or {
            "kind": "lifted-row-not-product",
            "object": cat.oid(a),
            "base": [cat.mid(p1), cat.mid(p2)],
            "monos": [cat.mid(m1), cat.mid(m2)],
            "lifted": [cat.mid(q1), cat.mid(q2)],
        }
        for a in range(len(cat.objects))
        for p1, p2 in limits.product_bases(cat, a)
        for m1 in monos if cat._cod_l[m1] == cat._cod_l[p1]
        for q1 in cat.postcompose_fibers(m1, a).get(p1, ())
        for m2 in monos if cat._cod_l[m2] == cat._cod_l[p2]
        for q2 in cat.postcompose_fibers(m2, a).get(p2, ())
    ), "vacuous")


def lemma_product_mono_reflect(cat: FinCategory, **_) -> CheckStatus:
    """When the projections involved are epi, a product of morphisms being
    mono forces both factors mono."""
    monos = _mono_set(cat)
    epis = _epi_set(cat)
    return _tally((
        (f1 in monos and f2 in monos) or {
            "kind": "factor-not-mono",
            "product": cat.mid(h),
            "factors": [cat.mid(f1), cat.mid(f2)],
        }
        for h in sorted(monos)
        for q1, q2 in limits.product_bases(cat, cat._dom_l[h]) if q1 in epis and q2 in epis
        for p1, p2 in limits.product_bases(cat, cat._cod_l[h]) if p1 in epis and p2 in epis
        for f1 in cat.precompose_fibers(q1, cat._cod_l[p1]).get(cat.compose(p1, h), ())
        for f2 in cat.precompose_fibers(q2, cat._cod_l[p2]).get(cat.compose(p2, h), ())
    ), "vacuous")


def prop_extremal_identity(cat: FinCategory, **_) -> CheckStatus:
    """A coextensive identity forces every product projection of its object
    to be an extremal epimorphism; with all kernel pairs present the two are
    equivalent."""
    extremal = _extremal_epi_set(cat)
    missing = next((f for f in range(cat.n_mor) if limits.kernel_pair(cat, f) is None), None)
    complete = missing is None

    def instances():
        for a in range(len(cat.objects)):
            bases = limits.product_bases(cat, a)
            if not bases:
                continue
            coext = morphism_status(cat, cat.identity_of[a], "coextensive")
            bad = next((p for base in bases for p in base if p not in extremal), None)
            if coext.passed and bad is not None:
                yield {"kind": "projection-not-extremal", "object": cat.oid(a), "projection": cat.mid(bad)}
            elif complete and bad is None and not coext.passed:
                yield {"kind": "identity-not-coextensive", "object": cat.oid(a), "inner": coext.witness}
            else:
                yield True

    st = _tally(instances(), "vacuous", kernel_pairs_complete=complete,
                kernel_pair_missing=None if complete else cat.mid(missing))
    st.details["converse_checked"] = st.details["instances"] if complete else 0
    return st


def _sum_decompositions(cat: FinCategory, h: int):
    """All (f1, f2) with f1 + f2 = h relative to certified coproduct bases."""
    x, y = cat._dom_l[h], cat._cod_l[h]
    for u1, u2 in limits.coproduct_bases(cat, x):
        for w1, w2 in limits.coproduct_bases(cat, y):
            t1, t2 = cat.compose(h, u1), cat.compose(h, u2)
            c1 = cat.postcompose_fibers(w1, cat._dom_l[u1]).get(t1, ())
            if not c1:
                continue
            c2 = cat.postcompose_fibers(w2, cat._dom_l[u2]).get(t2, ())
            for f1 in c1:
                for f2 in c2:
                    yield f1, f2


def prop_conservativity(cat: FinCategory, **_) -> CheckStatus:
    """Identities are extensive exactly when a sum of morphisms can only be
    an isomorphism if both summands are."""
    return _iso_biconditional(cat, _all_identities(cat, "extensive")[1], _sum_decompositions, "sum", "summands")


# -- coproduct inclusion statements ---------------------------------------------------


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
    regular_monos = limits._regular_epi_set(dual_of(cat))
    for i in incs:
        if i not in regular_monos:
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
    return _tally((
        morphism_status(cat, f).passed or {
            "kind": "one-row-but-not-extensive", "morphism": cat.mid(f), "inner": morphism_status(cat, f).witness,
        }
        for f in range(cat.n_mor) if check_e1(cat, cat.mid(f)).passed
    ), "vacuous")


def cor_inclusion_ext_equiv(cat: FinCategory, **_) -> CheckStatus:
    """With an initial object: all inclusions extensive ⟺ coproducts disjoint
    and all inclusions pass the one-row check."""
    if limits.initial(cat) is None:
        return _na({"kind": "no-initial"})
    incs = sorted(limits.coproduct_legs(cat))
    side1 = all(morphism_status(cat, i).passed for i in incs)
    dis = coproduct_disjointness(cat)
    side2 = dis.passed and all(check_e1(cat, cat.mid(i)).passed for i in incs)
    if side1 == side2:
        return _ok(extensive_side=side1, disjoint_e1_side=side2, inclusions=len(incs))
    return _fail({
        "kind": "equivalence-violated",
        "extensive_side": side1,
        "disjoint_e1_side": side2,
    }, inclusions=len(incs))


def prop_pullback_stability(cat: FinCategory, **_) -> CheckStatus:
    """When all inclusions are extensive, pulling an extensive morphism back
    along an inclusion yields an extensive morphism."""
    incs = sorted(limits.coproduct_legs(cat))
    for i in incs:
        if not morphism_status(cat, i).passed:
            return _na({"kind": "inclusion-not-extensive", "morphism": cat.mid(i)})

    def instances():
        for f in range(cat.n_mor):
            if not morphism_status(cat, f).passed:
                continue
            for i in incs:
                if cat._cod_l[i] != cat._cod_l[f]:
                    continue
                w = limits.pullback(cat, f, i)
                if w is None:
                    yield {"kind": "pullback-missing", "morphism": cat.mid(f), "inclusion": cat.mid(i)}
                    continue
                st = morphism_status(cat, w.legs[1])
                yield st.passed or {
                    "kind": "pulled-back-not-extensive",
                    "morphism": cat.mid(f),
                    "inclusion": cat.mid(i),
                    "pulled_back": cat.mid(w.legs[1]),
                    "inner": st.witness,
                }

    return _tally(instances(), "vacuous", inclusions=len(incs))


# -- coequaliser interaction ----------------------------------------------------------


def _sampled_positions(n: int, seed: int) -> list[int]:
    """The first ``SAMPLE_BOUND`` positions of 0..n-1 shuffled by
    ``random.Random(seed)``: shuffle's swaps do not depend on the values,
    so these are the positions a shuffled list of n items keeps first."""
    order = list(range(n))
    random.Random(seed).shuffle(order)
    return order[:SAMPLE_BOUND]


def _lemma_sample(cat: FinCategory, seed: int) -> list[tuple[tuple[int, int, int], int]]:
    """The sampled (top, e) pairs: the combinations of each top (u1, v1, q1),
    q1 the first coequaliser of a parallel pair, with each epi e out of
    dom u1 in index order, shuffled, first ``SAMPLE_BOUND``.  The list of
    combinations is not made: a position is mapped to its top by bisection
    on the running counts of epis, and to its epi by the remainder."""
    dom, epis = cat._dom_l, _epi_set(cat)
    epis_out = [[e for e in out if e in epis] for out in _out_of(cat)]
    tops = []
    for u1, v1 in _all_parallel_pairs(cat):
        w = limits.coequaliser(cat, u1, v1)
        if w is not None:
            tops.append((u1, v1, w.legs[0]))
    ends = list(itertools.accumulate(len(epis_out[dom[u1]]) for u1, _, _ in tops))
    sampled = []
    for p in _sampled_positions(ends[-1] if ends else 0, seed):
        t = bisect.bisect_right(ends, p)
        sampled.append((tops[t], epis_out[dom[tops[t][0]]][p - (ends[t - 1] if t else 0)]))
    return sampled


def _lemma_fillers(cat: FinCategory, u1: int, v1: int, q1: int, e: int):
    """(u2, v2, q2, f, g, push, coeq) for each f out of cod u1 whose
    composites with u1 and v1 factor through e, and each q2 with
    q2∘f = g∘q1; e is epi and q1 a coequaliser, so u2, v2 and g are unique.
    push is whether (g, q2) is a pushout of (q1, f), a member of the
    pullback squares of (q1, f) in the dual; coeq is whether q2 is a
    coequaliser of (u2, v2) (``limits.is_coequaliser``, whose composability
    tests hold here).  Both read facts fetched once per f, and q2∘f comes
    from cols(f), plus the start of its hom-set; a composite missing from
    the table gives no filler."""
    cod, pos, hc = cat._cod_l, cat._pos, cat._hom_counts_l
    dual, epis, out_of = dual_of(cat), _epi_set(cat), _out_of(cat)
    after_q1 = [cat.precompose_fibers(q1, z) for z in range(len(cat.objects))]
    for f in out_of[cod[u1]]:
        x2 = cod[f]
        through_e = cat.precompose_fibers(e, x2)
        u2s = through_e.get(cat.compose(f, u1), ())
        v2s = through_e.get(cat.compose(f, v1), ())
        if not u2s or not v2s:
            continue
        after_f, a, fillers = cat.cols(f), cat._dom_l[f], []
        for q2 in out_of[x2]:
            z, i = cod[q2], pos[q2]
            q2f = cat.start(a, z) + after_f[z][i]
            gs = after_q1[z].get(q2f, ()) if q2f >= 0 else ()
            if gs:
                fillers.append((q2, gs[0]))
        if not fillers:
            continue
        u2, v2 = u2s[0], v2s[0]
        squares = limits._pullback_squares(dual, q1, f) or ()
        forks = limits._fork_counts(cat, u2, v2)
        after_u2, after_v2 = cat.cols(u2), cat.cols(v2)
        for q2, g in fillers:
            z, i = cod[q2], pos[q2]
            coeq = after_u2[z][i] == after_v2[z][i] and hc[z] == forks and q2 in epis
            yield u2, v2, q2, f, g, (g, q2) in squares, coeq


def lemma_common_coequaliser(cat: FinCategory, *, seed: int = 0, **_) -> CheckStatus:
    """Over a coequaliser diagram mapped forward by an epimorphism, the right
    square is a pushout exactly when the image row is a coequaliser.  Sampled
    over (top diagram, epi) pairs (``_lemma_sample``); the inner fillers are
    enumerated up to a deterministic bound (``_lemma_fillers``)."""
    sampled = _lemma_sample(cat, seed)

    def instances():
        for (u1, v1, q1), e in sampled:
            for u2, v2, q2, f, g, push, coeq in itertools.islice(_lemma_fillers(cat, u1, v1, q1, e), INNER_BOUND):
                yield push == coeq or {
                    "kind": "pushout-coequaliser-disagree",
                    "top": [cat.mid(u1), cat.mid(v1), cat.mid(q1)],
                    "epi": cat.mid(e),
                    "bottom": [cat.mid(u2), cat.mid(v2), cat.mid(q2)],
                    "square": {"f": cat.mid(f), "g": cat.mid(g)},
                    "right_square_pushout": push,
                    "bottom_row_coequaliser": coeq,
                }

    return _tally(instances(), "vacuous", sampled_pairs=len(sampled), seed=seed)


def _irregular_projection(cat: FinCategory) -> int | None:
    """The first product projection that is not a regular epimorphism."""
    return next((
        p for a in range(len(cat.objects)) for base in limits.product_bases(cat, a) for p in base
        if p not in limits._regular_epi_set(cat)
    ), None)


def lemma_codisjoint(cat: FinCategory, **_) -> CheckStatus:
    """When every product projection is a regular epimorphism, products are
    co-disjoint (coproducts in the opposite category are disjoint)."""
    bad = _irregular_projection(cat)
    if bad is not None:
        return _na({"kind": "projection-not-regular-epi", "morphism": cat.mid(bad)})
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
    bad = _irregular_projection(cat)
    if bad is not None:
        return _na({"kind": "projection-not-regular-epi", "morphism": cat.mid(bad)})

    def instances():
        for a in range(len(cat.objects)):
            bases = limits.product_bases(cat, a)
            if bases:
                coext = all(morphism_status(cat, p, "coextensive").passed for base in bases for p in base)
                srp = has_binary_srp(cat, cat.oid(a))
                yield coext == srp.passed or {
                    "kind": "srp-coextensive-disagree",
                    "object": cat.oid(a),
                    "projections_coextensive": coext,
                    "binary_srp": srp.passed,
                    "srp_witness": srp.witness,
                }

    return _tally(instances(), "vacuous")


def thm_finite_srp(cat: FinCategory, **_) -> CheckStatus:
    """An object with coextensive product projections has the strict
    refinement property at every arity up to the bound."""

    def instances():
        for a in range(len(cat.objects)):
            bases = limits.product_bases(cat, a)
            if not bases:
                continue
            if not all(morphism_status(cat, p, "coextensive").passed for base in bases for p in base):
                yield None
                continue
            st = has_finite_srp(cat, cat.oid(a), SRP_ARITY)
            yield not st.failed or {"kind": "srp-fails", "object": cat.oid(a), "inner": st.witness}

    return _tally(instances(), "vacuous", arity_bound=SRP_ARITY)


def prop_commute_split_mono_coextensive(cat: FinCategory, *, seed: int = 0, **_) -> CheckStatus:
    """Products commuting with coequalisers plus coextensive split monos
    (with regular-epi terminal morphisms and the needed pushouts) force the
    whole category coextensive."""
    term = limits.terminal(cat)
    if term is None:
        return _na({"kind": "no-terminal"})
    regular = limits._regular_epi_set(cat)
    for x in range(len(cat.objects)):
        h = cat.hom(x, term)
        if len(h) != 1 or h[0] not in regular:
            return _na({"kind": "terminal-morphism-not-regular-epi", "object": cat.oid(x)})
    m = relcalc._split_mono_not_coextensive(cat)
    if m is not None:
        return _na({"kind": "split-mono-not-coextensive", "morphism": cat.mid(m)})
    for q in sorted(regular):
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


def thm_barr_exact(cat: FinCategory, *, max_relation_size: int = 9, **_) -> CheckStatus:
    """Exactness route: split monos coextensive ⟺ category coextensive."""
    return relcalc.barr_exact_check(cat, max_relation_size=max_relation_size)


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

PROPOSITION_IDS = tuple(_RUNNERS)
RELCALC_IDS = ("thm-barr-exact",)
EXTENSIVITY_IDS = tuple(i for i in PROPOSITION_IDS if i not in RELCALC_IDS)


def proposition_suite(cat: FinCategory, selection: list[str] | None = None, *,
                      seed: int = 0, max_relation_size: int = 9) -> list[tuple[str, CheckStatus]]:
    """Run the selected statement checkers (all of them by default)."""
    ids = list(PROPOSITION_IDS) if selection is None else list(selection)
    unknown = [i for i in ids if i not in _RUNNERS]
    if unknown:
        raise KeyError(f"unknown proposition ids: {', '.join(sorted(unknown))}")
    return [(ident, _RUNNERS[ident](cat, seed=seed, max_relation_size=max_relation_size)) for ident in ids]
