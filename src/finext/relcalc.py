"""Relation calculus inside a finite category.

Subobjects of an ambient object are isomorphism classes of monomorphisms:
two monos into x are one subobject exactly when m' = m∘i for an
isomorphism i, so each class is the orbit of its least mono under the
isomorphisms into its domain (`sub_classes`, through `fincat._precomposed`).
A relation from X to Y is a subobject of the chosen product X x Y (the
first certified product found, so all relations on a pair share one
ambient), held as three integers (src, tgt, least mono of its class): two
relations from X to Y are equal exactly when their least monos are, and
one is contained in another exactly when its least mono factors through
the other's (`sub_leq`).  Direct images use regular-epi/mono
factorisations, inverse images use pullbacks, and relation composition is
pullback-over-the-middle followed by image factorisation of the outer
pairing.  `rel_compose(r, s)` with r: X -> Y and s: Y -> Z is the
composite "first r, then s" from X to Z.  Every pairing into a product,
and every product of morphisms, is `limits.pairing`.  Composition,
product, image and preimage of relations and the classification flags are
each one stored fact per argument, kept by `fincat.cached`, so the
identity suite computes each of them once.

Every operation returns None when the structure it needs is missing from the
category; the suite runners count those as skipped instances and report
`inapplicable` when nothing at all could be checked.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator
from dataclasses import asdict, dataclass
from typing import NamedTuple

from .fincat import (
    FinCategory,
    cached,
    _iso_info,
    _mono_set,
    _precomposed,
    _sections,
    dual_of,
)
from . import limits
from .extensivity import CheckStatus, _ok, _fail, _na, _tally, morphism_status
from . import setrel

__all__ = [
    "SubobjectClass",
    "Relation",
    "RelationFlags",
    "sub_classes",
    "sub_poset",
    "sub_leq",
    "direct_image",
    "inverse_image",
    "rel_compose",
    "rel_product",
    "rel_image",
    "rel_preimage",
    "delta",
    "nabla",
    "opposite",
    "eq_of",
    "classify_relation",
    "relations_on",
    "identity_suite",
    "oracle_max_size",
    "IDENTITY_IDS",
    "regular_indicators",
    "barr_exact_check",
]


@dataclass(frozen=True)
class SubobjectClass:
    """All monomorphisms in one isomorphism class, with a canonical rep."""

    ambient: int
    monos: frozenset[int]
    rep: int


class Relation(NamedTuple):
    """A subobject of the chosen product src x tgt, named by the least mono
    of its class."""

    src: int
    tgt: int
    rep: int

    def as_dict(self, cat: FinCategory) -> dict:
        return {
            "src": cat.oid(self.src),
            "tgt": cat.oid(self.tgt),
            "ambient": cat.oid(cat._cod_l[self.rep]),
            "representative": cat.mid(self.rep),
        }


@dataclass(frozen=True)
class RelationFlags:
    reflexive: bool | None
    symmetric: bool | None
    transitive: bool | None
    equivalence: bool | None
    effective: bool | None

    def as_dict(self) -> dict:
        return asdict(self)


# -- subobjects -----------------------------------------------------------------


@cached("sub_classes")
def sub_classes(cat: FinCategory, x: int) -> tuple[SubobjectClass, ...]:
    """All subobject classes of x, sorted by canonical representative.

    Two monos into x are one subobject exactly when m' = m∘i for an
    isomorphism i, so the class of m is its orbit {m∘i : i an iso into
    dom m} (``_precomposed``).  The monos are walked in ascending order and
    each class is made at its least member, its representative."""
    monos = _mono_set(cat)
    claimed: set[int] = set()
    classes = []
    for m in sorted(m for y in range(len(cat.objects)) for m in cat.hom(y, x) if m in monos):
        if m not in claimed:
            orbit = frozenset(_precomposed(cat, m))
            claimed |= orbit
            classes.append(SubobjectClass(x, orbit, m))
    return tuple(classes)


def class_of(cat: FinCategory, m: int) -> SubobjectClass:
    """The subobject class of the mono m, among the classes of cod m."""
    return next(c for c in sub_classes(cat, cat._cod_l[m]) if m in c.monos)


def sub_leq(cat: FinCategory, a: int, b: int) -> bool:
    """The subobject of the mono a is ≤ that of the mono b: both have one
    codomain, and a factors through b."""
    return cat._cod_l[a] == cat._cod_l[b] and bool(cat.postcompose_fibers(b, cat._dom_l[a]).get(a))


def sub_poset(cat: FinCategory, oid: str) -> tuple[list[SubobjectClass], list[list[bool]]]:
    """Subobject classes of the object plus the full ≤ table."""
    cs = list(sub_classes(cat, cat.o(oid)))
    leq = [[sub_leq(cat, a.rep, b.rep) for b in cs] for a in cs]
    return cs, leq


def direct_image(cat: FinCategory, f: int, a: SubobjectClass) -> SubobjectClass | None:
    """Mono part of the (regular epi, mono) factorisation of f∘a."""
    t = cat.compose(f, a.rep)
    if t is None:
        return None
    fact = limits.image_factorisation(cat, t)
    if fact is None:
        return None
    return class_of(cat, fact[1])


def inverse_image(cat: FinCategory, f: int, b: SubobjectClass) -> SubobjectClass | None:
    """Pullback of the subobject's mono along f."""
    w = limits.pullback(cat, f, b.rep)
    if w is None:
        return None
    return class_of(cat, w.legs[0])


# -- relations ------------------------------------------------------------------


def _legs_of(cat: FinCategory, r: Relation) -> tuple[int, int]:
    p1, p2 = limits.product(cat, r.src, r.tgt).legs
    return cat.compose(p1, r.rep), cat.compose(p2, r.rep)


def _tabulated(cat: FinCategory, x: int, y: int, t1: int, t2: int) -> Relation | None:
    """The relation from x to y tabulated by (t1, t2): the class of their
    pairing into the chosen product x × y."""
    w = limits.product(cat, x, y)
    h = None if w is None else limits.pairing(cat, *w.legs, t1, t2)
    return None if h is None else Relation(x, y, class_of(cat, h).rep)


def _squared(cat: FinCategory, f: int) -> int | None:
    """f × f from the chosen square of dom f to the chosen square of cod f."""
    x, y = cat._dom_l[f], cat._cod_l[f]
    wx, wy = limits.product(cat, x, x), limits.product(cat, y, y)
    if wx is None or wy is None:
        return None
    return limits.product_of_morphisms(cat, f, f, tuple(wx.legs), tuple(wy.legs))


def relations_on(cat: FinCategory, x: int, y: int) -> tuple[Relation, ...] | None:
    """Every relation from x to y (None when the ambient product is missing)."""
    w = limits.product(cat, x, y)
    if w is None:
        return None
    return tuple(Relation(x, y, c.rep) for c in sub_classes(cat, w.apex))


def delta(cat: FinCategory, x: int) -> Relation | None:
    e = cat.identity_of[x]
    return _tabulated(cat, x, x, e, e)


def nabla(cat: FinCategory, x: int, y: int | None = None) -> Relation | None:
    y = x if y is None else y
    w = limits.product(cat, x, y)
    if w is None:
        return None
    return Relation(x, y, class_of(cat, cat.identity_of[w.apex]).rep)


def opposite(cat: FinCategory, r: Relation) -> Relation | None:
    r1, r2 = _legs_of(cat, r)
    return _tabulated(cat, r.tgt, r.src, r2, r1)


@cached("rel_compose")
def rel_compose(cat: FinCategory, r: Relation, s: Relation) -> Relation | None:
    """Composite relation (first r: X -> Y, then s: Y -> Z), cached."""
    if r.tgt != s.src:
        raise ValueError("relations not composable")
    w = limits.product(cat, r.src, s.tgt)
    if w is None:
        return None
    r1, r2 = _legs_of(cat, r)
    s1, s2 = _legs_of(cat, s)
    pb = limits.pullback(cat, r2, s1)
    if pb is None:
        return None
    h = limits.pairing(cat, *w.legs, cat.compose(r1, pb.legs[0]), cat.compose(s2, pb.legs[1]))
    fact = None if h is None else limits.image_factorisation(cat, h)
    return None if fact is None else Relation(r.src, s.tgt, class_of(cat, fact[1]).rep)


@cached("rel_product")
def rel_product(cat: FinCategory, r: Relation, s: Relation) -> Relation | None:
    """Product relation on the product object (r on X) x (s on Y), cached."""
    if r.src != r.tgt or s.src != s.tgt:
        raise ValueError("rel_product needs endorelations")
    wxy = limits.product(cat, r.src, s.src)
    if wxy is None:
        return None
    xy = wxy.apex
    amb = limits.product(cat, xy, xy)
    w0 = limits.product(cat, cat._dom_l[r.rep], cat._dom_l[s.rep])
    if amb is None or w0 is None:
        return None
    r1, r2 = _legs_of(cat, r)
    s1, s2 = _legs_of(cat, s)
    f1 = limits.product_of_morphisms(cat, r1, s1, tuple(w0.legs), tuple(wxy.legs))
    f2 = limits.product_of_morphisms(cat, r2, s2, tuple(w0.legs), tuple(wxy.legs))
    if f1 is None or f2 is None:
        return None
    h = limits.pairing(cat, *amb.legs, f1, f2)
    if h is None or h not in _mono_set(cat):
        return None
    return Relation(xy, xy, class_of(cat, h).rep)


@cached("rel_image")
def rel_image(cat: FinCategory, f: int, r: Relation) -> Relation | None:
    """Image of an endorelation on dom f under f (applied to both legs), cached."""
    ff = _squared(cat, f)
    img = None if ff is None else direct_image(cat, ff, class_of(cat, r.rep))
    y = cat._cod_l[f]
    return None if img is None else Relation(y, y, img.rep)


@cached("rel_preimage")
def rel_preimage(cat: FinCategory, f: int, r: Relation) -> Relation | None:
    """Preimage of an endorelation on cod f under f, cached."""
    ff = _squared(cat, f)
    pre = None if ff is None else inverse_image(cat, ff, class_of(cat, r.rep))
    x = cat._dom_l[f]
    return None if pre is None else Relation(x, x, pre.rep)


def eq_of(cat: FinCategory, f: int) -> Relation | None:
    """Kernel relation of f (None when the kernel pair or ambient is missing)."""
    kp = limits.kernel_pair(cat, f)
    x = cat._dom_l[f]
    return None if kp is None else _tabulated(cat, x, x, kp[1], kp[2])


@cached("relation_flags")
def classify_relation(cat: FinCategory, r: Relation) -> RelationFlags:
    """The flags of an endorelation, cached per relation."""
    if r.src != r.tgt:
        raise ValueError("classification applies to endorelations")
    x = r.src
    d = delta(cat, x)
    reflexive = None if d is None else sub_leq(cat, d.rep, r.rep)
    op = opposite(cat, r)
    symmetric = None if op is None else sub_leq(cat, op.rep, r.rep)
    rr = rel_compose(cat, r, r)
    transitive = None if rr is None else sub_leq(cat, rr.rep, r.rep)
    parts = (reflexive, symmetric, transitive)
    if any(p is False for p in parts):
        equivalence: bool | None = False
    elif any(p is None for p in parts):
        equivalence = None
    else:
        equivalence = True
    effective: bool | None = False
    complete = True
    for f in range(cat.n_mor):
        if cat._dom_l[f] != x:
            continue
        e = eq_of(cat, f)
        if e is None:
            complete = False
            continue
        if e.rep == r.rep:
            effective = True
            break
    if effective is False and not complete:
        effective = None
    return RelationFlags(reflexive, symmetric, transitive, equivalence, effective)


# -- the identity suite ----------------------------------------------------------


IDENTITY_IDS = (
    "delta-unit",
    "nabla-absorb",
    "img-lax-functorial",
    "transitive-idempotent",
    "prod-interchange",
    "img-preimg",
    "preimg-img",
    "img-of-preimg-comp",
    "lemma-eq-under-regepi",
    "lemma-reflexive-splits",
)


def _sizes(cat: FinCategory) -> dict[int, int] | None:
    meta = cat.metadata or {}
    sizes = meta.get("sizes")
    if not isinstance(sizes, dict):
        return None
    try:
        return {cat.o(k): int(v) for k, v in sizes.items()}
    except Exception:
        return None


def _ambient_ok(sizes: dict[int, int] | None, cap: int, *objs: int) -> bool:
    if sizes is None:
        return True
    prod = 1
    for x in objs:
        prod *= sizes.get(x, 1)
    return prod <= cap


def _endo_pools(cat: FinCategory, cap: int) -> list[tuple[int, tuple[Relation, ...]]]:
    sizes = _sizes(cat)
    pools = []
    for x in range(len(cat.objects)):
        if not _ambient_ok(sizes, cap, x, x):
            continue
        rels = relations_on(cat, x, x)
        if rels is not None:
            pools.append((x, rels))
    return pools


def oracle_max_size(cat: FinCategory) -> int | None:
    """The largest carrier the set-relation oracle enumerates for ``cat``,
    or None when ``identity_suite`` runs no oracle on it."""
    meta = cat.metadata or {}
    return int(meta.get("max_size", 3)) if meta.get("kind") == "set" else None


def _split_mono_not_coextensive(cat: FinCategory) -> int | None:
    """The first split mono whose coextensive check fails, if any."""
    return next((m for m in _sections(dual_of(cat)) if morphism_status(cat, m, "coextensive").failed), None)


def _decomposed(cat: FinCategory, p1: int, p2: int, r: Relation) -> tuple[Relation, Relation, bool] | None:
    """The images i1, i2 of an endorelation r on the apex of the product cone
    (p1, p2), and whether r is i1 × i2 read on the apex through the pairing
    of (p1, p2) into the chosen product; None when a piece is missing."""
    i1, i2 = rel_image(cat, p1, r), rel_image(cat, p2, r)
    pr = None if i1 is None or i2 is None else rel_product(cat, i1, i2)
    if pr is None:
        return None
    phi = limits.pairing(cat, *limits.product(cat, i1.src, i2.src).legs, p1, p2)
    back = rel_preimage(cat, phi, pr)
    return None if back is None else (i1, i2, back.rep == r.rep)


def _instances(cat: FinCategory, cap: int) -> Iterator[tuple[str, Iterator[bool | dict | None]]]:
    """Each identity of IDENTITY_IDS with its instances, in order.  An
    instance yields None when it is skipped, True when it holds and its
    witness when it fails; one whose hypothesis fails yields nothing."""
    sizes = _sizes(cat)
    n = len(cat.objects)
    endo = _endo_pools(cat, cap)
    endo_idx = dict(endo)
    regular = limits._regular_epi_set(cat)
    regepis = [f for f in sorted(regular) if cat._dom_l[f] in endo_idx and cat._cod_l[f] in endo_idx]

    def violated(f: int | None = None, **rels: Relation) -> dict:
        out = {"kind": "identity-violated"} if f is None else {"kind": "identity-violated", "morphism": cat.mid(f)}
        out.update((k, r.as_dict(cat)) for k, r in rels.items())
        return out

    def delta_unit():
        for x, y in itertools.product(range(n), repeat=2):
            rels = relations_on(cat, x, y) if _ambient_ok(sizes, cap, x, y) else None
            if rels is None:
                continue
            dx, dy = delta(cat, x), delta(cat, y)
            for r in rels:
                if dx is None or dy is None:
                    yield None
                    continue
                left, right = rel_compose(cat, dx, r), rel_compose(cat, r, dy)
                if left is None or right is None:
                    yield None
                else:
                    yield left.rep == r.rep == right.rep or violated(relation=r)

    def nabla_absorb():
        for x, rels in endo:
            d, nb = delta(cat, x), nabla(cat, x)
            for r in rels:
                if d is None or nb is None:
                    yield None
                elif sub_leq(cat, d.rep, r.rep):
                    left, right = rel_compose(cat, nb, r), rel_compose(cat, r, nb)
                    if left is None or right is None:
                        yield None
                    else:
                        yield left.rep == nb.rep == right.rep or violated(relation=r)

    def img_lax_functorial():  # f(R∘S) <= f(R)∘f(S)
        for f in range(cat.n_mor):
            rels = endo_idx.get(cat._dom_l[f])
            if rels is None or cat._cod_l[f] not in endo_idx:
                continue
            for r, s in itertools.product(rels, repeat=2):
                comp = rel_compose(cat, r, s)
                ir, i_s = rel_image(cat, f, r), rel_image(cat, f, s)
                if comp is None or ir is None or i_s is None:
                    yield None
                    continue
                lhs, rhs = rel_image(cat, f, comp), rel_compose(cat, ir, i_s)
                if lhs is None or rhs is None:
                    yield None
                else:
                    yield sub_leq(cat, lhs.rep, rhs.rep) or violated(f, r=r, s=s)

    def transitive_idempotent():  # reflexive r: transitive <-> r∘r == r
        for x, rels in endo:
            d = delta(cat, x)
            if d is None:
                continue
            for r in rels:
                if sub_leq(cat, d.rep, r.rep):
                    rr = rel_compose(cat, r, r)
                    yield None if rr is None else (
                        sub_leq(cat, rr.rep, r.rep) == (rr.rep == r.rep) or violated(relation=r)
                    )

    def prod_interchange():  # the combined carrier is capped as well
        for (x, rx), (y, ry) in itertools.product(endo, repeat=2):
            if not _ambient_ok(sizes, cap, x, y, x, y) or limits.product(cat, x, y) is None:
                continue
            for (r, rp), (s, sp) in itertools.product(itertools.product(rx, repeat=2), itertools.product(ry, repeat=2)):
                cr, cs = rel_compose(cat, r, rp), rel_compose(cat, s, sp)
                pr, pp = rel_product(cat, r, s), rel_product(cat, rp, sp)
                if cr is None or cs is None or pr is None or pp is None:
                    yield None
                    continue
                lhs, rhs = rel_product(cat, cr, cs), rel_compose(cat, pr, pp)
                if lhs is None or rhs is None:
                    yield None
                else:
                    yield lhs.rep == rhs.rep or violated(r=r, rp=rp, s=s, sp=sp)

    def img_preimg():
        for f in regepis:
            for r in endo_idx[cat._cod_l[f]]:
                pre = rel_preimage(cat, f, r)
                img = None if pre is None else rel_image(cat, f, pre)
                yield None if img is None else (img.rep == r.rep or violated(f, relation=r))

    def preimg_img():
        for f in regepis:
            e = eq_of(cat, f)
            for r in endo_idx[cat._dom_l[f]]:
                img = rel_image(cat, f, r)
                if img is None or e is None:
                    yield None
                    continue
                lhs, er = rel_preimage(cat, f, img), rel_compose(cat, e, r)
                rhs = None if er is None else rel_compose(cat, er, e)
                if lhs is None or rhs is None:
                    yield None
                else:
                    yield lhs.rep == rhs.rep or violated(f, relation=r)

    def img_of_preimg_comp():
        for f in regepis:
            for r, s in itertools.product(endo_idx[cat._cod_l[f]], repeat=2):
                pr, ps, rs = rel_preimage(cat, f, r), rel_preimage(cat, f, s), rel_compose(cat, r, s)
                comp = None if pr is None or ps is None or rs is None else rel_compose(cat, pr, ps)
                lhs = None if comp is None else rel_image(cat, f, comp)
                yield None if lhs is None else (lhs.rep == rs.rep or violated(f, r=r, s=s))

    def lemma_eq_under_regepi():
        # E an equivalence with E = p1(E) x p2(E) and regular-epi projections
        # => both images are equivalences
        for x, rels in endo:
            for p1, p2 in limits.product_bases(cat, x):
                if not (p1 in regular and p2 in regular):
                    continue
                for r in rels:
                    if classify_relation(cat, r).equivalence is not True:
                        continue
                    dec = _decomposed(cat, p1, p2, r)
                    if dec is None:
                        yield None
                    elif dec[2]:  # the hypothesis E = p1(E) x p2(E)
                        e1, e2 = (classify_relation(cat, i).equivalence for i in dec[:2])
                        if e1 is None or e2 is None:
                            yield None
                        else:
                            yield (e1 and e2) or {
                                "kind": "image-not-equivalence", "object": cat.oid(x), "relation": r.as_dict(cat),
                            }

    def lemma_reflexive_splits():
        for x, rels in endo:
            d = delta(cat, x)
            if d is None:
                continue
            for (p1, p2), r in itertools.product(limits.product_bases(cat, x), rels):
                if sub_leq(cat, d.rep, r.rep):
                    dec = _decomposed(cat, p1, p2, r)
                    yield None if dec is None else (dec[2] or {
                        "kind": "reflexive-not-decomposed", "object": cat.oid(x), "relation": r.as_dict(cat),
                    })

    return zip(IDENTITY_IDS, (
        delta_unit(), nabla_absorb(), img_lax_functorial(), transitive_idempotent(), prod_interchange(),
        img_preimg(), preimg_img(), img_of_preimg_comp(), lemma_eq_under_regepi(), lemma_reflexive_splits(),
    ))


def identity_suite(cat: FinCategory, max_relation_size: int = 9) -> list[tuple[str, CheckStatus]]:
    """Verify the relation-calculus identities over every in-category
    instance within the ambient cap; on the finite-set builder the concrete
    bitmask oracle runs the same identities exhaustively and its counts are
    merged into the result.  ``lemma-reflexive-splits`` is gated on split
    monos being coextensive."""
    cap = max_relation_size
    gate = _split_mono_not_coextensive(cat)
    results = []
    for ident, instances in _instances(cat, cap):
        if ident == "lemma-reflexive-splits" and gate is not None:
            st = CheckStatus("inapplicable", {"kind": "split-mono-not-coextensive", "morphism": cat.mid(gate)}, {})
        else:
            st = _tally(instances, "skipped")
        results.append((ident, st))
    size = oracle_max_size(cat)
    oracle = {} if size is None else setrel.oracle_suite(cap=cap, max_size=size)
    for ident, st in results:
        orc = oracle.get(ident)
        if orc is None:
            continue
        st.details["oracle_instances"] = orc["instances"]
        st.details["oracle_failures"] = orc["failures"]
        if orc["failures"] and not st.failed:
            st.status, st.witness = "fail", {"kind": "oracle-counterexample", **(orc["counterexample"] or {})}
        elif st.status == "inapplicable" and not orc["failures"] and orc["instances"]:
            st.status, st.witness = "pass", None
    return results


# -- regularity and Barr-exactness --------------------------------------------------


def regular_indicators(cat: FinCategory) -> CheckStatus:
    """Evidence for/against regularity on in-category instances: every
    morphism should have a (regular epi, mono) factorisation, and pullbacks
    of regular epis that exist must be regular epis.  A cospan (g, e) with
    an iso leg holds by transport: its pullback exists, and the pulled-back
    leg is e or an iso, composed with isos.  Missing structure is recorded,
    only genuine violations fail."""
    missing_fact = []
    for f in range(cat.n_mor):
        if limits.image_factorisation(cat, f) is None:
            missing_fact.append(cat.mid(f))
    regular = limits._regular_epi_set(cat)
    isos = _iso_info(cat)[0]
    checked = 0
    for e in sorted(regular):
        x = cat._cod_l[e]
        for g in range(cat.n_mor):
            if cat._cod_l[g] != x:
                continue
            if g in isos or e in isos:
                checked += 1
                continue
            w = limits.pullback(cat, g, e)
            if w is None:
                continue
            checked += 1
            if w.legs[0] not in regular:
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
        regular_epis=len(regular),
    )


def barr_exact_check(cat: FinCategory, max_relation_size: int = 9) -> CheckStatus:
    """Check the exactness route to coextensivity: when the regularity and
    effectiveness evidence is clean, split monos being coextensive must be
    equivalent to the whole category being coextensive."""
    reg = regular_indicators(cat)
    eff_checked = eff_skipped = 0
    eff_witness = None
    for x, r in ((x, r) for x, rels in _endo_pools(cat, max_relation_size) for r in rels):
        fl = classify_relation(cat, r)
        if fl.equivalence is not True:
            continue
        if fl.effective is None:
            eff_skipped += 1
        elif fl.effective:
            eff_checked += 1
        else:
            eff_witness = {"kind": "equivalence-not-effective", "object": cat.oid(x), "relation": r.as_dict(cat)}
            break

    def failure(m: int | None) -> dict | None:
        return None if m is None else {"morphism": cat.mid(m), "witness": morphism_status(cat, m, "coextensive").witness}

    split_fail = failure(_split_mono_not_coextensive(cat))
    coext_fail = failure(next((m for m in range(cat.n_mor) if morphism_status(cat, m, "coextensive").failed), None))
    details = {
        "regularity": reg.as_dict(),
        "effective_equivalences": eff_checked,
        "effectiveness_skipped": eff_skipped,
        "split_monos_coextensive": split_fail is None,
        "split_mono_counterexample": split_fail,
        "category_coextensive": coext_fail is None,
        "coextensive_counterexample": coext_fail,
        "biconditional_holds": (split_fail is None) == (coext_fail is None),
    }
    if reg.failed:
        return _na({"kind": "not-regular", "inner": reg.witness}, **details)
    if eff_witness is not None:
        return _na(eff_witness, **details)
    if details["biconditional_holds"]:
        return _ok(**details)
    return _fail({"kind": "biconditional-violated"}, **details)
