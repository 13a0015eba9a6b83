"""The seed's relation-calculus constructors and identity-suite loops, kept
for differential tests.

``_pairing`` is the seed's tupling into a product, a scan of the first
leg's fibre, and ``sub_classes`` its subobject classes, grouped by
pairwise mutual factoring.  ``delta``, ``opposite``, ``eq_of``,
``rel_product``, ``rel_image`` and ``rel_preimage`` build each relation on
their own, and ``identity_suite`` is the seed's ten hand-written loops with
their own skip and first-witness bookkeeping.  Both product lemmas read the
product relation of the images on the apex through the pairing of the cone
under test (``_on_apex``).  ``regular_indicators`` pulls every regular epi
back along every morphism into its codomain, iso legs included.
Relation composition and classification go through
``finext.relcalc.rel_compose`` and ``finext.relcalc.classify_relation``,
looked up on the module at every call, so a test that replaces either
there changes both suites alike.
"""

from __future__ import annotations

import itertools

from finext import limits, relcalc, setrel
from finext.extensivity import CheckStatus, _fail, _ok, morphism_status
from finext.fincat import FinCategory, _mono_set
from finext.relcalc import (
    IDENTITY_IDS,
    Relation,
    SubobjectClass,
    _ambient_ok,
    _endo_pools,
    _legs_of,
    _sizes,
    class_of,
    direct_image,
    inverse_image,
    nabla,
    oracle_max_size,
    relations_on,
    sub_leq,
)
from reference_fincat import is_regular_epi, split_mono_witness


def _pairing(cat: FinCategory, w: limits.UniversalWitness, t1: int, t2: int) -> int | None:
    """The unique h into the product apex with leg1∘h = t1 and leg2∘h = t2."""
    p1, p2 = w.legs
    src = cat._dom_l[t1]
    for h in cat.postcompose_fibers(p1, src).get(t1, ()):
        if cat.compose(p2, h) == t2:
            return h
    return None


def _factors(cat: FinCategory, a: int, b: int) -> bool:
    """Whether a = b∘j for some j, by a scan of hom(dom a, dom b)."""
    return any(cat.compose(b, j) == a for j in cat.hom(cat._dom_l[a], cat._dom_l[b]))


def sub_classes(cat: FinCategory, x: int) -> tuple[SubobjectClass, ...]:
    """All subobject classes of x, sorted by canonical representative."""
    monos = sorted(m for m in _mono_set(cat) if cat._cod_l[m] == x)
    assigned: dict[int, int] = {}
    classes: list[list[int]] = []
    for m in monos:
        if m in assigned:
            continue
        cls = [m]
        assigned[m] = len(classes)
        for m2 in monos:
            if m2 not in assigned and _factors(cat, m, m2) and _factors(cat, m2, m):
                assigned[m2] = len(classes)
                cls.append(m2)
        classes.append(cls)
    return tuple(
        SubobjectClass(x, frozenset(c), min(c)) for c in sorted(classes, key=min)
    )


def rel_compose(cat: FinCategory, r: Relation, s: Relation) -> Relation | None:
    return relcalc.rel_compose(cat, r, s)


def classify_relation(cat: FinCategory, r: Relation) -> relcalc.RelationFlags:
    return relcalc.classify_relation(cat, r)


def delta(cat: FinCategory, x: int) -> Relation | None:
    w = limits.product(cat, x, x)
    if w is None:
        return None
    e = cat.identity_of[x]
    h = _pairing(cat, w, e, e)
    if h is None:
        return None
    return Relation(x, x, class_of(cat, h).rep)


def opposite(cat: FinCategory, r: Relation) -> Relation | None:
    w = limits.product(cat, r.tgt, r.src)
    if w is None:
        return None
    r1, r2 = _legs_of(cat, r)
    h = _pairing(cat, w, r2, r1)
    if h is None:
        return None
    return Relation(r.tgt, r.src, class_of(cat, h).rep)


def rel_product(cat: FinCategory, r: Relation, s: Relation) -> Relation | None:
    """Product relation on the product object (r on X) x (s on Y)."""
    wxy = limits.product(cat, r.src, s.src)
    if wxy is None or r.src != r.tgt or s.src != s.tgt:
        if r.src != r.tgt or s.src != s.tgt:
            raise ValueError("rel_product needs endorelations")
        return None
    xy = wxy.apex
    amb = limits.product(cat, xy, xy)
    if amb is None:
        return None
    r0, s0 = cat._dom_l[r.rep], cat._dom_l[s.rep]
    w0 = limits.product(cat, r0, s0)
    if w0 is None:
        return None
    r1, r2 = _legs_of(cat, r)
    s1, s2 = _legs_of(cat, s)
    f1 = limits.product_of_morphisms(cat, r1, s1, tuple(w0.legs), tuple(wxy.legs))
    f2 = limits.product_of_morphisms(cat, r2, s2, tuple(w0.legs), tuple(wxy.legs))
    if f1 is None or f2 is None:
        return None
    h = _pairing(cat, amb, f1, f2)
    if h is None or h not in _mono_set(cat):
        return None
    return Relation(xy, xy, class_of(cat, h).rep)


def rel_image(cat: FinCategory, f: int, r: Relation) -> Relation | None:
    """Image of an endorelation on dom f under f (applied to both legs)."""
    x, y = cat._dom_l[f], cat._cod_l[f]
    wx, wy = limits.product(cat, x, x), limits.product(cat, y, y)
    if wx is None or wy is None:
        return None
    ff = limits.product_of_morphisms(cat, f, f, tuple(wx.legs), tuple(wy.legs))
    if ff is None:
        return None
    img = direct_image(cat, ff, class_of(cat, r.rep))
    if img is None:
        return None
    return Relation(y, y, img.rep)


def rel_preimage(cat: FinCategory, f: int, r: Relation) -> Relation | None:
    """Preimage of an endorelation on cod f under f."""
    x, y = cat._dom_l[f], cat._cod_l[f]
    wx, wy = limits.product(cat, x, x), limits.product(cat, y, y)
    if wx is None or wy is None:
        return None
    ff = limits.product_of_morphisms(cat, f, f, tuple(wx.legs), tuple(wy.legs))
    if ff is None:
        return None
    pre = inverse_image(cat, ff, class_of(cat, r.rep))
    if pre is None:
        return None
    return Relation(x, x, pre.rep)


def eq_of(cat: FinCategory, f: int) -> Relation | None:
    """Kernel relation of f (None when the kernel pair or ambient is missing)."""
    kp = limits.kernel_pair(cat, f)
    x = cat._dom_l[f]
    w = limits.product(cat, x, x)
    if kp is None or w is None:
        return None
    h = _pairing(cat, w, kp[1], kp[2])
    if h is None:
        return None
    return Relation(x, x, class_of(cat, h).rep)


class _Tally:
    def __init__(self):
        self.checked = 0
        self.skipped = 0
        self.witness: dict | None = None

    def ok(self):
        self.checked += 1

    def skip(self):
        self.skipped += 1

    def fail(self, witness: dict):
        self.checked += 1
        if self.witness is None:
            self.witness = witness

    def status(self, **extra) -> CheckStatus:
        details = {"instances": self.checked, "skipped": self.skipped, **extra}
        if self.witness is not None:
            return CheckStatus("fail", self.witness, details)
        if self.checked == 0:
            return CheckStatus("inapplicable", {"kind": "no-instances"}, details)
        return CheckStatus("pass", None, details)


def _on_apex(cat: FinCategory, p1: int, p2: int, pr: Relation | None) -> Relation | None:
    """The product relation pr, which lives on the chosen product of the
    cone's factors, read on the apex of the product cone (p1, p2)."""
    if pr is None:
        return None
    w = limits.product(cat, cat._cod_l[p1], cat._cod_l[p2])
    return rel_preimage(cat, _pairing(cat, w, p1, p2), pr)


def identity_suite(cat: FinCategory, max_relation_size: int = 9) -> list[tuple[str, CheckStatus]]:
    """Verify the relation-calculus identities over every in-category
    instance within the ambient cap; on the finite-set builder the concrete
    bitmask oracle runs the same identities exhaustively and its counts are
    merged into the result."""
    sizes = _sizes(cat)
    cap = max_relation_size
    n = len(cat.objects)
    endo = _endo_pools(cat, cap)
    endo_idx = dict(endo)
    out: dict[str, _Tally] = {i: _Tally() for i in IDENTITY_IDS}

    # delta-unit over all relation pools (cross pairs included)
    t = out["delta-unit"]
    for x in range(n):
        for y in range(n):
            if not _ambient_ok(sizes, cap, x, y):
                continue
            rels = relations_on(cat, x, y)
            if rels is None:
                continue
            dx, dy = delta(cat, x), delta(cat, y)
            for r in rels:
                if dx is None or dy is None:
                    t.skip()
                    continue
                left = rel_compose(cat, dx, r)
                right = rel_compose(cat, r, dy)
                if left is None or right is None:
                    t.skip()
                elif left.rep != r.rep or right.rep != r.rep:
                    t.fail({"kind": "identity-violated", "relation": r.as_dict(cat)})
                else:
                    t.ok()

    # nabla-absorb over reflexive endorelations
    t = out["nabla-absorb"]
    for x, rels in endo:
        d = delta(cat, x)
        nb = nabla(cat, x)
        for r in rels:
            if d is None or nb is None or not sub_leq(cat, d.rep, r.rep):
                if d is None or nb is None:
                    t.skip()
                continue
            left = rel_compose(cat, nb, r)
            right = rel_compose(cat, r, nb)
            if left is None or right is None:
                t.skip()
            elif left.rep != nb.rep or right.rep != nb.rep:
                t.fail({"kind": "identity-violated", "relation": r.as_dict(cat)})
            else:
                t.ok()

    # img-lax-functorial: f(R∘S) <= f(R)∘f(S)
    t = out["img-lax-functorial"]
    for f in range(cat.n_mor):
        x, y = cat._dom_l[f], cat._cod_l[f]
        if x not in endo_idx or y not in endo_idx:
            continue
        rels = endo_idx[x]
        for r in rels:
            for s in rels:
                comp = rel_compose(cat, r, s)
                ir, i_s = rel_image(cat, f, r), rel_image(cat, f, s)
                if comp is None or ir is None or i_s is None:
                    t.skip()
                    continue
                lhs = rel_image(cat, f, comp)
                rhs = rel_compose(cat, ir, i_s)
                if lhs is None or rhs is None:
                    t.skip()
                elif not sub_leq(cat, lhs.rep, rhs.rep):
                    t.fail({
                        "kind": "identity-violated",
                        "morphism": cat.mid(f),
                        "r": r.as_dict(cat),
                        "s": s.as_dict(cat),
                    })
                else:
                    t.ok()

    # transitive-idempotent: reflexive r transitive <-> r∘r == r
    t = out["transitive-idempotent"]
    for x, rels in endo:
        d = delta(cat, x)
        if d is None:
            continue
        for r in rels:
            if not sub_leq(cat, d.rep, r.rep):
                continue
            rr = rel_compose(cat, r, r)
            if rr is None:
                t.skip()
            elif sub_leq(cat, rr.rep, r.rep) != (rr.rep == r.rep):
                t.fail({"kind": "identity-violated", "relation": r.as_dict(cat)})
            else:
                t.ok()

    # prod-interchange, with the combined carrier capped as well
    t = out["prod-interchange"]
    for x, rx in endo:
        for y, ry in endo:
            if not _ambient_ok(sizes, cap, x, y, x, y):
                continue
            if limits.product(cat, x, y) is None:
                continue
            for r, rp in itertools.product(rx, repeat=2):
                for s, sp in itertools.product(ry, repeat=2):
                    cr, cs = rel_compose(cat, r, rp), rel_compose(cat, s, sp)
                    pr, pp = rel_product(cat, r, s), rel_product(cat, rp, sp)
                    if cr is None or cs is None or pr is None or pp is None:
                        t.skip()
                        continue
                    lhs = rel_product(cat, cr, cs)
                    rhs = rel_compose(cat, pr, pp)
                    if lhs is None or rhs is None:
                        t.skip()
                    elif lhs.rep != rhs.rep:
                        t.fail({
                            "kind": "identity-violated",
                            "r": r.as_dict(cat), "rp": rp.as_dict(cat),
                            "s": s.as_dict(cat), "sp": sp.as_dict(cat),
                        })
                    else:
                        t.ok()

    # the three regular-epi identities
    regepis = [
        f for f in range(cat.n_mor)
        if cat._dom_l[f] in endo_idx and cat._cod_l[f] in endo_idx
        and is_regular_epi(cat, f)[0]
    ]
    t = out["img-preimg"]
    for f in regepis:
        for r in endo_idx[cat._cod_l[f]]:
            pre = rel_preimage(cat, f, r)
            if pre is None:
                t.skip()
                continue
            img = rel_image(cat, f, pre)
            if img is None:
                t.skip()
            elif img.rep != r.rep:
                t.fail({"kind": "identity-violated", "morphism": cat.mid(f), "relation": r.as_dict(cat)})
            else:
                t.ok()

    t = out["preimg-img"]
    for f in regepis:
        e = eq_of(cat, f)
        for r in endo_idx[cat._dom_l[f]]:
            img = rel_image(cat, f, r)
            if img is None or e is None:
                t.skip()
                continue
            lhs = rel_preimage(cat, f, img)
            er = rel_compose(cat, e, r)
            rhs = None if er is None else rel_compose(cat, er, e)
            if lhs is None or rhs is None:
                t.skip()
            elif lhs.rep != rhs.rep:
                t.fail({"kind": "identity-violated", "morphism": cat.mid(f), "relation": r.as_dict(cat)})
            else:
                t.ok()

    t = out["img-of-preimg-comp"]
    for f in regepis:
        rels = endo_idx[cat._cod_l[f]]
        for r in rels:
            for s in rels:
                pr, ps = rel_preimage(cat, f, r), rel_preimage(cat, f, s)
                rs = rel_compose(cat, r, s)
                if pr is None or ps is None or rs is None:
                    t.skip()
                    continue
                comp = rel_compose(cat, pr, ps)
                lhs = None if comp is None else rel_image(cat, f, comp)
                if lhs is None:
                    t.skip()
                elif lhs.rep != rs.rep:
                    t.fail({
                        "kind": "identity-violated",
                        "morphism": cat.mid(f),
                        "r": r.as_dict(cat), "s": s.as_dict(cat),
                    })
                else:
                    t.ok()

    # lemma-eq-under-regepi: E equivalence, E = p1(E) x p2(E), projections
    # regular epi => images are equivalences
    t = out["lemma-eq-under-regepi"]
    for x, rels in endo:
        for p1, p2 in limits.product_bases(cat, x):
            if not (is_regular_epi(cat, p1)[0] and is_regular_epi(cat, p2)[0]):
                continue
            for r in rels:
                fl = classify_relation(cat, r)
                if fl.equivalence is not True:
                    continue
                i1, i2 = rel_image(cat, p1, r), rel_image(cat, p2, r)
                if i1 is None or i2 is None:
                    t.skip()
                    continue
                pr = _on_apex(cat, p1, p2, rel_product(cat, i1, i2))
                if pr is None:
                    t.skip()
                    continue
                if pr.rep != r.rep:
                    continue  # hypothesis of the lemma not satisfied
                f1, f2 = classify_relation(cat, i1), classify_relation(cat, i2)
                if f1.equivalence is None or f2.equivalence is None:
                    t.skip()
                elif f1.equivalence and f2.equivalence:
                    t.ok()
                else:
                    t.fail({
                        "kind": "image-not-equivalence",
                        "object": cat.oid(x),
                        "relation": r.as_dict(cat),
                    })

    # lemma-reflexive-splits: gated on split monos being coextensive
    t = out["lemma-reflexive-splits"]
    gate_witness = None
    for m in range(cat.n_mor):
        if split_mono_witness(cat, m) is None:
            continue
        st = morphism_status(cat, m, "coextensive")
        if st.failed:
            gate_witness = {"kind": "split-mono-not-coextensive", "morphism": cat.mid(m)}
            break
    if gate_witness is not None:
        out["lemma-reflexive-splits"] = _Tally()
        res_lemma = CheckStatus("inapplicable", gate_witness, {})
    else:
        for x, rels in endo:
            d = delta(cat, x)
            if d is None:
                continue
            for p1, p2 in limits.product_bases(cat, x):
                for r in rels:
                    if not sub_leq(cat, d.rep, r.rep):
                        continue
                    i1, i2 = rel_image(cat, p1, r), rel_image(cat, p2, r)
                    if i1 is None or i2 is None:
                        t.skip()
                        continue
                    pr = _on_apex(cat, p1, p2, rel_product(cat, i1, i2))
                    if pr is None:
                        t.skip()
                    elif pr.rep != r.rep:
                        t.fail({
                            "kind": "reflexive-not-decomposed",
                            "object": cat.oid(x),
                            "relation": r.as_dict(cat),
                        })
                    else:
                        t.ok()
        res_lemma = None

    results: list[tuple[str, CheckStatus]] = []
    size = oracle_max_size(cat)
    oracle = None if size is None else setrel.oracle_suite(cap=cap, max_size=size)
    for ident in IDENTITY_IDS:
        if ident == "lemma-reflexive-splits" and res_lemma is not None:
            results.append((ident, res_lemma))
            continue
        st = out[ident].status()
        if oracle is not None and ident in oracle:
            orc = oracle[ident]
            st.details["oracle_instances"] = int(orc["instances"])
            st.details["oracle_failures"] = int(orc["failures"])
            if orc["failures"] and not st.failed:
                st = CheckStatus(
                    "fail",
                    {"kind": "oracle-counterexample", **(orc["counterexample"] or {})},
                    st.details,
                )
            if st.status == "inapplicable" and not orc["failures"] and orc["instances"]:
                st = CheckStatus("pass", None, st.details)
        results.append((ident, st))
    return results


def regular_indicators(cat: FinCategory) -> CheckStatus:
    """Regularity evidence with every cospan (g, e) of a regular epi e
    pulled back and its leg tested, iso legs included."""
    missing_fact = []
    for f in range(cat.n_mor):
        if limits.image_factorisation(cat, f) is None:
            missing_fact.append(cat.mid(f))
    regepis = [f for f in range(cat.n_mor) if is_regular_epi(cat, f)[0]]
    checked = 0
    for e in regepis:
        x = cat._cod_l[e]
        for g in range(cat.n_mor):
            if cat._cod_l[g] != x:
                continue
            w = limits.pullback(cat, g, e)
            if w is None:
                continue
            checked += 1
            if not is_regular_epi(cat, w.legs[0])[0]:
                return _fail(
                    {
                        "kind": "regular-epi-not-stable",
                        "regular_epi": cat.mid(e),
                        "along": cat.mid(g),
                        "pulled_back": cat.mid(w.legs[0]),
                    },
                    stability_checked=checked,
                )
    return _ok(
        morphisms=cat.n_mor,
        missing_factorisations=len(missing_fact),
        missing_examples=missing_fact[:5],
        stability_checked=checked,
        regular_epis=len(regepis),
    )
