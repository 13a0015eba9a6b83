"""Relation calculus inside a finite category.

Subobjects of an ambient object are isomorphism classes of monomorphisms; a
relation from X to Y is a subobject of the chosen product X x Y (the first
certified product found, so all relations on a pair share one ambient).
Direct images use regular-epi/mono factorisations, inverse images use
pullbacks, and relation composition is pullback-over-the-middle followed by
image factorisation of the outer pairing.  `rel_compose(r, s)` with
r: X -> Y and s: Y -> Z is the composite "first r, then s" from X to Z.

Every operation returns None when the structure it needs is missing from the
category; the suite runners count those as skipped instances and report
`inapplicable` when nothing at all could be checked.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fincat import (
    FinCategory,
    _mono_set,
    _is_regular_epi,
    _split_mono_witness,
)
from . import limits
from .extensivity import CheckStatus, _ok, _fail, _na, morphism_status
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

    def as_dict(self, cat: FinCategory) -> dict:
        return {
            "ambient": cat.oid(self.ambient),
            "representative": cat.mid(self.rep),
            "monos": sorted(cat.mid(m) for m in self.monos),
        }


@dataclass(frozen=True)
class Relation:
    """A subobject of the chosen product src x tgt."""

    src: int
    tgt: int
    prod: limits.UniversalWitness
    cls: SubobjectClass

    def as_dict(self, cat: FinCategory) -> dict:
        return {
            "src": cat.oid(self.src),
            "tgt": cat.oid(self.tgt),
            "ambient": cat.oid(self.prod.apex),
            "representative": cat.mid(self.cls.rep),
        }


@dataclass(frozen=True)
class RelationFlags:
    reflexive: bool | None
    symmetric: bool | None
    transitive: bool | None
    equivalence: bool | None
    effective: bool | None

    def as_dict(self) -> dict:
        return {
            "reflexive": self.reflexive,
            "symmetric": self.symmetric,
            "transitive": self.transitive,
            "equivalence": self.equivalence,
            "effective": self.effective,
        }


# -- subobjects -----------------------------------------------------------------


def _monos_into(cat: FinCategory, x: int) -> list[int]:
    cache = cat._cache.setdefault("monos_into", {})
    if x not in cache:
        ms = _mono_set(cat)
        cache[x] = sorted(m for m in ms if cat._cod_l[m] == x)
    return cache[x]


def _factors(cat: FinCategory, a: int, b: int) -> bool:
    """Whether a = b∘j for some j (a, b monos into the same ambient)."""
    fib = cat.postcompose_fibers(b, cat._dom_l[a])
    return bool(fib.get(a))


def sub_classes(cat: FinCategory, x: int) -> tuple[SubobjectClass, ...]:
    """All subobject classes of x, sorted by canonical representative."""
    cache = cat._cache.setdefault("sub_classes", {})
    if x in cache:
        return cache[x]
    monos = _monos_into(cat, x)
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
    out = tuple(
        SubobjectClass(x, frozenset(c), min(c)) for c in sorted(classes, key=min)
    )
    cache[x] = out
    lookup = cat._cache.setdefault("sub_lookup", {})
    for c in out:
        for m in c.monos:
            lookup[m] = c
    return out


def class_of(cat: FinCategory, m: int) -> SubobjectClass:
    lookup = cat._cache.setdefault("sub_lookup", {})
    if m not in lookup:
        sub_classes(cat, cat._cod_l[m])
    return lookup[m]


def sub_leq(cat: FinCategory, a: SubobjectClass, b: SubobjectClass) -> bool:
    return a.ambient == b.ambient and _factors(cat, a.rep, b.rep)


def sub_poset(cat: FinCategory, oid: str) -> tuple[list[SubobjectClass], list[list[bool]]]:
    """Subobject classes of the object plus the full ≤ table."""
    cs = list(sub_classes(cat, cat.o(oid)))
    leq = [[sub_leq(cat, a, b) for b in cs] for a in cs]
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


def _pairing(cat: FinCategory, w: limits.UniversalWitness, t1: int, t2: int) -> int | None:
    """The unique h into the product apex with leg1∘h = t1 and leg2∘h = t2."""
    p1, p2 = w.legs
    src = cat._dom_l[t1]
    for h in cat.postcompose_fibers(p1, src).get(t1, ()):
        if cat.compose(p2, h) == t2:
            return h
    return None


def _legs_of(cat: FinCategory, r: Relation) -> tuple[int, int]:
    m = r.cls.rep
    return cat.compose(r.prod.legs[0], m), cat.compose(r.prod.legs[1], m)


def relations_on(cat: FinCategory, x: int, y: int) -> tuple[Relation, ...] | None:
    """Every relation from x to y (None when the ambient product is missing)."""
    w = limits.product(cat, x, y)
    if w is None:
        return None
    return tuple(Relation(x, y, w, c) for c in sub_classes(cat, w.apex))


def delta(cat: FinCategory, x: int) -> Relation | None:
    w = limits.product(cat, x, x)
    if w is None:
        return None
    e = cat.identity_of[x]
    h = _pairing(cat, w, e, e)
    if h is None:
        return None
    return Relation(x, x, w, class_of(cat, h))


def nabla(cat: FinCategory, x: int, y: int | None = None) -> Relation | None:
    y = x if y is None else y
    w = limits.product(cat, x, y)
    if w is None:
        return None
    return Relation(x, y, w, class_of(cat, cat.identity_of[w.apex]))


def opposite(cat: FinCategory, r: Relation) -> Relation | None:
    w = limits.product(cat, r.tgt, r.src)
    if w is None:
        return None
    r1, r2 = _legs_of(cat, r)
    h = _pairing(cat, w, r2, r1)
    if h is None:
        return None
    return Relation(r.tgt, r.src, w, class_of(cat, h))


def rel_compose(cat: FinCategory, r: Relation, s: Relation) -> Relation | None:
    """Composite relation (first r: X -> Y, then s: Y -> Z)."""
    if r.tgt != s.src:
        raise ValueError("relations not composable")
    w = limits.product(cat, r.src, s.tgt)
    if w is None:
        return None
    key = ("rel_compose", r.cls.rep, s.cls.rep, r.src, r.tgt, s.tgt)
    cache = cat._cache.setdefault("relcalc", {})
    if key in cache:
        return cache[key]
    r1, r2 = _legs_of(cat, r)
    s1, s2 = _legs_of(cat, s)
    res = None
    pb = limits.pullback(cat, r2, s1)
    if pb is not None:
        t1 = cat.compose(r1, pb.legs[0])
        t2 = cat.compose(s2, pb.legs[1])
        h = _pairing(cat, w, t1, t2)
        if h is not None:
            fact = limits.image_factorisation(cat, h)
            if fact is not None:
                res = Relation(r.src, s.tgt, w, class_of(cat, fact[1]))
    cache[key] = res
    return res


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
    r0, s0 = cat._dom_l[r.cls.rep], cat._dom_l[s.cls.rep]
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
    return Relation(xy, xy, amb, class_of(cat, h))


def rel_image(cat: FinCategory, f: int, r: Relation) -> Relation | None:
    """Image of an endorelation on dom f under f (applied to both legs)."""
    x, y = cat._dom_l[f], cat._cod_l[f]
    wx, wy = limits.product(cat, x, x), limits.product(cat, y, y)
    if wx is None or wy is None:
        return None
    ff = limits.product_of_morphisms(cat, f, f, tuple(wx.legs), tuple(wy.legs))
    if ff is None:
        return None
    img = direct_image(cat, ff, r.cls)
    if img is None:
        return None
    return Relation(y, y, wy, img)


def rel_preimage(cat: FinCategory, f: int, r: Relation) -> Relation | None:
    """Preimage of an endorelation on cod f under f."""
    x, y = cat._dom_l[f], cat._cod_l[f]
    wx, wy = limits.product(cat, x, x), limits.product(cat, y, y)
    if wx is None or wy is None:
        return None
    ff = limits.product_of_morphisms(cat, f, f, tuple(wx.legs), tuple(wy.legs))
    if ff is None:
        return None
    pre = inverse_image(cat, ff, r.cls)
    if pre is None:
        return None
    return Relation(x, x, wx, pre)


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
    return Relation(x, x, w, class_of(cat, h))


def classify_relation(cat: FinCategory, r: Relation) -> RelationFlags:
    if r.src != r.tgt:
        raise ValueError("classification applies to endorelations")
    x = r.src
    d = delta(cat, x)
    reflexive = None if d is None else sub_leq(cat, d.cls, r.cls)
    op = opposite(cat, r)
    symmetric = None if op is None else sub_leq(cat, op.cls, r.cls)
    rr = rel_compose(cat, r, r)
    transitive = None if rr is None else sub_leq(cat, rr.cls, r.cls)
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
        if e.cls == r.cls:
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
                elif left.cls != r.cls or right.cls != r.cls:
                    t.fail({"kind": "identity-violated", "relation": r.as_dict(cat)})
                else:
                    t.ok()

    # nabla-absorb over reflexive endorelations
    t = out["nabla-absorb"]
    for x, rels in endo:
        d = delta(cat, x)
        nb = nabla(cat, x)
        for r in rels:
            if d is None or nb is None or not sub_leq(cat, d.cls, r.cls):
                if d is None or nb is None:
                    t.skip()
                continue
            left = rel_compose(cat, nb, r)
            right = rel_compose(cat, r, nb)
            if left is None or right is None:
                t.skip()
            elif left.cls != nb.cls or right.cls != nb.cls:
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
                elif not sub_leq(cat, lhs.cls, rhs.cls):
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
            if not sub_leq(cat, d.cls, r.cls):
                continue
            rr = rel_compose(cat, r, r)
            if rr is None:
                t.skip()
            elif sub_leq(cat, rr.cls, r.cls) != (rr.cls == r.cls):
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
                    elif lhs.cls != rhs.cls:
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
        and _is_regular_epi(cat, f)[0]
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
            elif img.cls != r.cls:
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
            elif lhs.cls != rhs.cls:
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
                elif lhs.cls != rs.cls:
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
            if not (_is_regular_epi(cat, p1)[0] and _is_regular_epi(cat, p2)[0]):
                continue
            for r in rels:
                fl = classify_relation(cat, r)
                if fl.equivalence is not True:
                    continue
                i1, i2 = rel_image(cat, p1, r), rel_image(cat, p2, r)
                if i1 is None or i2 is None:
                    t.skip()
                    continue
                try:
                    pr = rel_product(cat, i1, i2)
                except ValueError:
                    pr = None
                if pr is None or pr.src != x:
                    t.skip()
                    continue
                if pr.cls != r.cls:
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
        if _split_mono_witness(cat, m) is None:
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
                    if not sub_leq(cat, d.cls, r.cls):
                        continue
                    i1, i2 = rel_image(cat, p1, r), rel_image(cat, p2, r)
                    if i1 is None or i2 is None:
                        t.skip()
                        continue
                    try:
                        pr = rel_product(cat, i1, i2)
                    except ValueError:
                        pr = None
                    if pr is None or pr.src != x:
                        t.skip()
                    elif pr.cls != r.cls:
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


# -- regularity and Barr-exactness --------------------------------------------------


def regular_indicators(cat: FinCategory) -> CheckStatus:
    """Evidence for/against regularity on in-category instances: every
    morphism should have a (regular epi, mono) factorisation, and pullbacks
    of regular epis that exist must be regular epis.  Missing structure is
    recorded, only genuine violations fail."""
    missing_fact = []
    for f in range(cat.n_mor):
        if limits.image_factorisation(cat, f) is None:
            missing_fact.append(cat.mid(f))
    regepis = [f for f in range(cat.n_mor) if _is_regular_epi(cat, f)[0]]
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
            if not _is_regular_epi(cat, w.legs[0])[0]:
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


def barr_exact_check(cat: FinCategory, max_relation_size: int = 9) -> CheckStatus:
    """Check the exactness route to coextensivity: when the regularity and
    effectiveness evidence is clean, split monos being coextensive must be
    equivalent to the whole category being coextensive."""
    reg = regular_indicators(cat)
    eff_checked = 0
    eff_skipped = 0
    eff_witness = None
    for x, rels in _endo_pools(cat, max_relation_size):
        for r in rels:
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
        if eff_witness:
            break

    split_fail = None
    for m in range(cat.n_mor):
        if _split_mono_witness(cat, m) is None:
            continue
        st = morphism_status(cat, m, "coextensive")
        if st.failed:
            split_fail = {"morphism": cat.mid(m), "witness": st.witness}
            break
    coext_fail = None
    for m in range(cat.n_mor):
        st = morphism_status(cat, m, "coextensive")
        if st.failed:
            coext_fail = {"morphism": cat.mid(m), "witness": st.witness}
            break

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
