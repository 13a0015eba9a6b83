"""Decision procedures for decomposition-respecting morphisms.

A morphism f: A -> X is *extensive* when it interacts correctly with every
binary coproduct decomposition of X:

- condition one: f admits pullbacks along both legs of every certified
  coproduct cocone into X, and the two pulled-back legs into A form a
  certified coproduct cocone themselves (a missing pullback is a failure —
  the condition demands existence);
- condition two: in every commuting two-square diagram whose bottom row is
  a certified coproduct cocone into X and whose top row is a certified
  coproduct cocone into A, both squares are pullbacks.

*Coextensive* is the same property in the opposite category (products and
pushouts); every co-side check here runs the primal check in the dual
category, which shares this category's indexes, and renames the witness
kinds to the co-side vocabulary.

All quantifications are exhaustive over the finite category.  Results are
three-valued (`pass` / `fail` / `inapplicable`) with serializable witnesses.

`morphism_status` holds the one verdict per morphism and mode, decided on
first read and copied across iso orbits; `category_report`, the proposition
suite and the relation calculus read it instead of deciding again.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

from .fincat import (
    FinCategory,
    cached,
    dual_of,
    morphisms_of_class,
    _iso_info,
    _sections,
)
from . import limits

__all__ = [
    "CheckStatus",
    "check_e1",
    "check_e2",
    "check_c1",
    "check_c2",
    "is_extensive_morphism",
    "is_coextensive_morphism",
    "morphism_status",
    "category_report",
    "all_binary_coproducts_exist",
    "coproduct_disjointness",
    "complement_uniqueness",
    "is_boolean_category",
    "has_binary_srp",
    "has_finite_srp",
    "is_M_extensive",
    "is_M_coextensive",
    "commutation_check",
]


@dataclass
class CheckStatus:
    """Outcome of one check: pass / fail / inapplicable + witness data.

    fail and inapplicable always carry a witness dict (with a "kind" key);
    pass may carry statistics in details."""

    status: str
    witness: dict | None = None
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"

    def as_dict(self) -> dict:
        """The status as report data, copied at every depth: a stored
        verdict is shared by every report that reads it, and editing a
        report must leave it unchanged."""
        out: dict[str, Any] = {"status": self.status}
        if self.witness is not None:
            out["witness"] = _copied(self.witness)
        if self.details:
            out["details"] = _copied(self.details)
        return out


def _copied(value: Any) -> Any:
    """``value`` with every dict, list and tuple in it rebuilt: a deep copy
    of report data, without ``copy.deepcopy``'s memo, which costs twice as
    much on a Mon≤4 report."""
    if isinstance(value, dict):
        return {k: _copied(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return type(value)(map(_copied, value))
    return value


def _ok(**details) -> CheckStatus:
    return CheckStatus("pass", None, details)


def _fail(witness: dict, **details) -> CheckStatus:
    return CheckStatus("fail", witness, details)


def _na(witness: dict, **details) -> CheckStatus:
    return CheckStatus("inapplicable", witness, details)


def _tally(instances: Iterable[bool | dict | None], skip: str, **extra) -> CheckStatus:
    """A check quantified over instances, each None when skipped (counted
    under ``skip``), True when it holds, or its witness: fail with the first
    witness, inapplicable when no instance was checked, else pass."""
    checked = skipped = 0
    witness = None
    for outcome in instances:
        if outcome is None:
            skipped += 1
            continue
        checked += 1
        if outcome is not True and witness is None:
            witness = outcome
    details = {"instances": checked, skip: skipped, **extra}
    if witness is not None:
        return _fail(witness, **details)
    if checked == 0:
        return _na({"kind": "no-instances"}, **details)
    return _ok(**details)


# Witness-kind translation between the primal vocabulary and the dual one.
_DUAL_KIND = {
    "missing-pullback": "missing-pushout",
    "top-row-not-coproduct": "bottom-row-not-product",
    "square-not-pullback": "square-not-pushout",
    "no-initial": "no-terminal",
    "pullback-legs-not-in-class": "pushout-legs-not-in-class",
    "square-legs-not-in-class": "square-legs-not-in-class",
}


def _dualized(st: CheckStatus) -> CheckStatus:
    if st.witness and st.witness.get("kind") in _DUAL_KIND:
        w = dict(st.witness)
        w["kind"] = _DUAL_KIND[w["kind"]]
        # In the co-side diagram the domain-side product row is the top row,
        # which the primal run on the dual category labels "bottom".
        if "top" in w and "bottom" in w:
            w["top"], w["bottom"] = w["bottom"], w["top"]
        for key in ("span", "span_apexes"):
            if key in w:
                w[f"co{key}"] = w.pop(key)
        return CheckStatus(st.status, w, st.details)
    return st


# -- condition one ------------------------------------------------------------


def check_e1(cat: FinCategory, mid: str) -> CheckStatus:
    """Pullbacks along every certified coproduct cocone into cod f exist and
    the pulled-back span is itself a certified coproduct cocone."""
    f = cat.m(mid)
    x = cat._cod_l[f]
    bases = limits.coproduct_bases(cat, x)
    for u, v in bases:
        spans = []
        for leg in (u, v):
            w = limits.pullback(cat, f, leg)
            if w is None:
                return _fail(
                    {
                        "kind": "missing-pullback",
                        "morphism": mid,
                        "base": [cat.mid(u), cat.mid(v)],
                        "along": cat.mid(leg),
                    },
                    bases=len(bases),
                )
            spans.append(w)
        q1, q2 = spans[0].legs[0], spans[1].legs[0]
        if not limits.is_coproduct_cocone(cat, q1, q2):
            return _fail(
                {
                    "kind": "top-row-not-coproduct",
                    "morphism": mid,
                    "base": [cat.mid(u), cat.mid(v)],
                    "span": [cat.mid(q1), cat.mid(q2)],
                    "span_apexes": [cat.oid(spans[0].apex), cat.oid(spans[1].apex)],
                },
                bases=len(bases),
            )
    return _ok(bases=len(bases))


# -- condition two ------------------------------------------------------------


@cached("e2_side_index")
def _e2_side_index(cat: FinCategory, x: int):
    """Per-codomain index for the two-square quantification: maps
    (top-part object, composite leg into x) -> {bottom-base idx: fillers},
    bottom bases ascending and fillers in hom-set order.

    Independent of the middle morphism, so shared by every f into x."""
    bottoms = limits.coproduct_bases(cat, x)
    n = len(cat.objects)
    side1: dict[tuple[int, int], dict[int, list[int]]] = {}
    side2: dict[tuple[int, int], dict[int, list[int]]] = {}
    for bi, (u, v) in enumerate(bottoms):
        for t in range(n):
            for w, gs in cat.postcompose_fibers(u, t).items():
                side1.setdefault((t, w), {})[bi] = gs
            for w, gs in cat.postcompose_fibers(v, t).items():
                side2.setdefault((t, w), {})[bi] = gs
    return (bottoms, side1, side2)


def _e2_first_failure(
    cat: FinCategory,
    f: int,
    square_fault: Callable[[int, int, int], str | None],
    allowed: frozenset[int] | None = None,
) -> tuple[int, tuple | None]:
    """Scan f's two-square instances (top base, bottom base, filler pair)
    in their fixed order: top bases in order, then bottom bases in order,
    then g1, then g2, each in hom-set order.  Fillers outside ``allowed``
    are skipped when it is given.

    ``square_fault(leg, top, filler)`` judges one square: None when it
    holds, else the failure kind.  An instance fails on its left square
    (u, x1, g1) first, then its right square (v, x2, g2).  The fillers of a
    square, and so its side's first failure, depend only on its two legs,
    so that failure is found once per leg pair, shared by every top and
    bottom base with those legs, and instances are counted arithmetically
    instead of walked.

    Returns (instances scanned, None) when every square holds, else
    (instances up to and including the first failing one,
    ((x1, x2, u, v, g1, g2), side, kind))."""
    a, x = cat._dom_l[f], cat._cod_l[f]
    tops = limits.coproduct_bases(cat, a)
    bottoms, side1, side2 = _e2_side_index(cat, x)
    first_bad: dict[tuple[int, int], tuple[int, str] | None] = {}

    def fillers_of(index: dict, top: int) -> dict[int, list[int]]:
        groups = index.get((cat._dom_l[top], cat.compose(f, top)), {})
        if allowed is not None:
            groups = {bi: kept for bi, gs in groups.items() if (kept := [g for g in gs if g in allowed])}
        return groups

    def failure_in(leg: int, top: int, gs: list[int]) -> tuple[int, str] | None:
        """Position in gs of the first failing square on (leg, top), with its kind."""
        key = (leg, top)
        if key not in first_bad:
            first_bad[key] = next(
                ((j, k) for j, g in enumerate(gs) if (k := square_fault(leg, top, g)) is not None), None
            )
        return first_bad[key]

    count = 0
    for x1, x2 in tops:
        lefts = fillers_of(side1, x1)
        if not lefts:
            continue
        rights = fillers_of(side2, x2)
        for bi, g1s in lefts.items():
            g2s = rights.get(bi)
            if not g2s:
                continue
            u, v = bottoms[bi]
            left = failure_in(u, x1, g1s)
            if left is not None and left[0] == 0:
                return count + 1, ((x1, x2, u, v, g1s[0], g2s[0]), "left", left[1])
            right = failure_in(v, x2, g2s)
            if right is not None:
                j, kind = right
                return count + j + 1, ((x1, x2, u, v, g1s[0], g2s[j]), "right", kind)
            if left is not None:
                i, kind = left
                return count + i * len(g2s) + 1, ((x1, x2, u, v, g1s[i], g2s[0]), "left", kind)
            count += len(g1s) * len(g2s)
    return count, None


def check_e2(cat: FinCategory, mid: str) -> CheckStatus:
    """Whenever top and bottom rows are certified coproduct cocones and the
    verticals commute, both squares must be pullbacks."""
    f = cat.m(mid)

    def fault(leg: int, top: int, filler: int) -> str | None:
        return None if limits.is_pullback_square(cat, f, leg, top, filler) else "square-not-pullback"

    count, failure = _e2_first_failure(cat, f, fault)
    if failure is not None:
        (x1, x2, u, v, g1, g2), side, kind = failure
        return _fail(
            {
                "kind": kind,
                "morphism": mid,
                "top": [cat.mid(x1), cat.mid(x2)],
                "bottom": [cat.mid(u), cat.mid(v)],
                "verticals": [cat.mid(g1), cat.mid(g2)],
                "side": side,
            },
            instances=count,
        )
    return _ok(instances=count)


# -- dual side ------------------------------------------------------------------


def check_c1(cat: FinCategory, mid: str) -> CheckStatus:
    """Pushouts along every certified product cone out of dom f exist and the
    pushed-out cospan is a certified product cone (condition one, dualized)."""
    return _dualized(check_e1(dual_of(cat), mid))


def check_c2(cat: FinCategory, mid: str) -> CheckStatus:
    """Product rows force pushout squares (condition two, dualized)."""
    return _dualized(check_e2(dual_of(cat), mid))


def is_extensive_morphism(cat: FinCategory, mid: str) -> CheckStatus:
    e1 = check_e1(cat, mid)
    if e1.failed:
        return CheckStatus("fail", e1.witness, {"failed_condition": "one", **e1.details})
    e2 = check_e2(cat, mid)
    if e2.failed:
        return CheckStatus("fail", e2.witness, {"failed_condition": "two", **e2.details})
    return _ok(**{**e1.details, **e2.details})


def is_coextensive_morphism(cat: FinCategory, mid: str) -> CheckStatus:
    st = is_extensive_morphism(dual_of(cat), mid)
    return _dualized(st)


# -- category-level aggregates ----------------------------------------------------


def all_binary_coproducts_exist(cat: FinCategory) -> bool:
    n = len(cat.objects)
    return all(
        limits.coproduct(cat, a, b) is not None for a in range(n) for b in range(n)
    )


@cached("orbit_reps")
def _orbit_reps(cat: FinCategory) -> list[int]:
    """Each morphism's orbit representative: the first morphism, in id
    order, of its orbit {α∘f∘β : α, β isomorphisms}.  Cached per category."""
    into, inv = limits._isos_into(cat), _iso_info(cat)[1]
    reps = [-1] * cat.n_mor
    for f in range(cat.n_mor):
        if reps[f] < 0:  # a new orbit; inv[a] ranges over the isos out of cod f
            for b in into[cat._dom_l[f]]:
                fb = cat.compose(f, b)
                for a in into[cat._cod_l[f]]:
                    reps[cat.compose(inv[a], fb)] = f
    return reps


def morphism_status(cat: FinCategory, f: int, mode: str = "extensive") -> CheckStatus:
    """Whether morphism index f is extensive (or coextensive), read from
    the category's verdict store; every caller shares the stored statuses,
    so none may mutate one.

    The coextensive verdict is the dual's extensive one, renamed to the
    co-side vocabulary, so each mode has its own store.  f passes iff
    α∘f∘β does, for isos α and β, with the same details: a miss whose
    orbit representative has a stored pass copies it.  Any other miss is
    decided by ``is_extensive_morphism``, so a failure witness names f's
    own first failure."""
    if mode not in ("extensive", "coextensive"):
        raise ValueError("mode must be extensive or coextensive")
    if mode == "coextensive":
        return _dualized(morphism_status(dual_of(cat), f))
    # not ``cached``: a miss may copy the stored pass of its orbit's
    # representative instead of deciding f
    store = cat._cache.setdefault("verdicts", {})
    st = store.get(f)
    if st is None:
        rep = store.get(_orbit_reps(cat)[f])
        st = _ok(**rep.details) if rep is not None and rep.passed else is_extensive_morphism(cat, cat.mid(f))
        store[f] = st
    return st


def category_report(cat: FinCategory, mode: str = "extensive") -> dict:
    """Per-morphism statuses plus the category verdict, and the reduced
    verdict quantified over split epis and coproduct inclusions only (the
    two verdicts must agree when all binary coproducts exist).

    Each status is ``morphism_status``, read in index order, so a pass of
    an orbit's first morphism is copied to the orbit, and a report reads
    what earlier checks on the category have already decided."""
    if mode not in ("extensive", "coextensive"):
        raise ValueError("mode must be extensive or coextensive")
    work = cat if mode == "extensive" else dual_of(cat)
    per = {work.mid(i): morphism_status(cat, i, mode) for i in range(cat.n_mor)}
    reduced_scope = sorted(work.mid(m) for m in limits.coproduct_legs(work) | _sections(work).keys())
    verdict = all(st.passed for st in per.values())
    reduced = all(per[m].passed for m in reduced_scope)
    has_cops = all_binary_coproducts_exist(work)
    return {
        "mode": mode,
        "morphisms": {m: per[m].as_dict() for m in sorted(per)},
        "verdict": "pass" if verdict else "fail",
        "reduced_scope": reduced_scope,
        "reduced_verdict": "pass" if reduced else "fail",
        "binary_coproducts_exist": has_cops,
        "verdicts_agree": (verdict == reduced) if has_cops else None,
    }


# -- disjointness / complements / boolean ------------------------------------------


def coproduct_disjointness(cat: FinCategory) -> CheckStatus:
    """Coproduct legs are monic (self-intersection square) and intersect in
    the initial object, for every certified coproduct cocone."""
    z = limits.initial(cat)
    if z is None:
        return _na({"kind": "no-initial"})
    checked = 0
    for x in range(len(cat.objects)):
        for u, v in limits.coproduct_bases(cat, x):
            checked += 1
            for leg in (u, v):
                d = cat._dom_l[leg]
                e = cat.identity_of[d]
                if not limits.is_pullback_square(cat, leg, leg, e, e):
                    return _fail(
                        {
                            "kind": "leg-not-mono-square",
                            "base": [cat.mid(u), cat.mid(v)],
                            "leg": cat.mid(leg),
                        },
                        bases=checked,
                    )
            p1 = cat.hom(z, cat._dom_l[u])[0]
            p2 = cat.hom(z, cat._dom_l[v])[0]
            if not limits.is_pullback_square(cat, u, v, p1, p2):
                return _fail(
                    {
                        "kind": "intersection-not-initial",
                        "base": [cat.mid(u), cat.mid(v)],
                    },
                    bases=checked,
                )
    return _ok(bases=checked)


def complement_uniqueness(cat: FinCategory) -> CheckStatus:
    """Any two cocones sharing their first leg have isomorphic second legs:
    an iso s with v' ∘ s = v.  Gated on initial object + disjointness."""
    z = limits.initial(cat)
    if z is None:
        return _na({"kind": "no-initial"})
    dis = coproduct_disjointness(cat)
    if not dis.passed:
        return _na({"kind": "disjointness-not-established", "disjointness": dis.as_dict()})
    isos = _iso_info(cat)[0]
    pairs = 0
    for x in range(len(cat.objects)):
        by_first: dict[int, list[int]] = {}
        for u, v in limits.coproduct_bases(cat, x):
            by_first.setdefault(u, []).append(v)
        for u, vs in by_first.items():
            for v, v2 in itertools.combinations(vs, 2):
                pairs += 1
                b, b2 = cat._dom_l[v], cat._dom_l[v2]
                found = None
                for s in cat.hom(b, b2):
                    if s in isos and cat.compose(v2, s) == v:
                        found = s
                        break
                if found is None:
                    return _fail(
                        {
                            "kind": "no-complement-iso",
                            "shared_leg": cat.mid(u),
                            "complements": [cat.mid(v), cat.mid(v2)],
                        },
                        pairs=pairs,
                    )
    return _ok(pairs=pairs)


def is_boolean_category(cat: FinCategory) -> CheckStatus:
    """Three clauses: pullbacks along coproduct legs exist and legs are
    pullback-stable as a class; every leg passes condition one; a cocone with
    two equal legs forces an initial apex."""
    z = limits.initial(cat)
    if z is None or not all_binary_coproducts_exist(cat):
        return _na({"kind": "missing-finite-coproducts"})
    inclusions = limits.coproduct_legs(cat)
    n = len(cat.objects)
    pullbacks = 0
    for u in sorted(inclusions):
        x = cat._cod_l[u]
        for a in range(n):
            for g in cat.hom(a, x):
                w = limits.pullback(cat, g, u)
                if w is None:
                    return _fail(
                        {"kind": "missing-pullback", "leg": cat.mid(u), "along": cat.mid(g)},
                        pullbacks=pullbacks,
                    )
                pullbacks += 1
                if w.legs[0] not in inclusions:
                    return _fail(
                        {
                            "kind": "legs-not-pullback-stable",
                            "leg": cat.mid(u),
                            "along": cat.mid(g),
                            "pulled_back": cat.mid(w.legs[0]),
                        },
                        pullbacks=pullbacks,
                    )
        st = check_e1(cat, cat.mid(u))
        if not st.passed:
            return _fail(
                {"kind": "leg-fails-condition-one", "leg": cat.mid(u), "inner": st.witness},
                pullbacks=pullbacks,
            )
    for x in range(n):
        for u, v in limits.coproduct_bases(cat, x):
            if u == v:
                part = cat._dom_l[u]
                if any(cat._hom_counts_l[part][y] != 1 for y in range(n)):
                    return _fail(
                        {"kind": "equal-legs-part-not-initial", "leg": cat.mid(u), "part": cat.oid(part)},
                        pullbacks=pullbacks,
                    )
    return _ok(inclusions=len(inclusions), pullbacks=pullbacks)


# -- strict refinement --------------------------------------------------------------


def _grid_for(cat: FinCategory, cone_a: Sequence[int], cone_b: Sequence[int]) -> bool:
    """Whether the canonical pushout grid refines two product cones on the
    same apex: corners are pushouts of leg pairs, and its margins are
    certified product cones.  A corner is the pullback of (ai, bj) in the
    dual, whose legs are the pushout's, as the dual shares these indexes."""
    la, lb = len(cone_a), len(cone_b)
    dual = dual_of(cat)
    corner: dict[tuple[int, int], limits.UniversalWitness] = {}
    for i, ai in enumerate(cone_a):
        for j, bj in enumerate(cone_b):
            w = limits.pullback(dual, ai, bj)
            if w is None:
                return False
            corner[(i, j)] = w
    return all(
        limits.is_product_cone(cat, *(corner[(i, j)].legs[0] for j in range(lb))) for i in range(la)
    ) and all(limits.is_product_cone(cat, *(corner[(i, j)].legs[1] for i in range(la))) for j in range(lb))


def _grid_search(cat: FinCategory, cone_a: Sequence[int], cone_b: Sequence[int]) -> bool:
    """Exhaustive grid search: whether some choice of a product cone on each
    A_i (fixing the corner row), with the B_j legs recovered by fiber lookup,
    makes every B_j margin a certified product cone.  Complete: any valid
    grid's rows are product cones on the A_i."""
    la, lb = len(cone_a), len(cone_b)
    row_choices = [limits.product_bases(cat, cat._cod_l[m], lb) for m in cone_a]

    def rec(i: int, rows: list[tuple[int, ...]]) -> bool:
        if i == la:
            comps = [[cat.compose(rows[i2][j], cone_a[i2]) for j in range(lb)] for i2 in range(la)]
            # Columns are independent once the rows are fixed: each j needs
            # some certified product-cone column.
            for j in range(lb):
                opts: list[list[int]] = [[]]
                for i2 in range(la):
                    cands = cat.precompose_fibers(cone_b[j], cat._cod_l[rows[i2][j]]).get(comps[i2][j], ())
                    opts = [o + [b] for o in opts for b in cands]
                    if not opts:
                        break
                if not any(limits.is_product_cone(cat, *o) for o in opts):
                    return False
            return True
        return any(rec(i + 1, rows + [row]) for row in row_choices[i])

    return rec(0, [])


def has_binary_srp(cat: FinCategory, oid: str) -> CheckStatus:
    """Every pair of binary product cones on the object refines into a grid
    whose margins are certified binary product cones."""
    return has_finite_srp(cat, oid, 2)


def has_finite_srp(cat: FinCategory, oid: str, k: int) -> CheckStatus:
    """Strict refinement over all pairs of product cones of arities 2..k."""
    if k < 2:
        raise ValueError("max arity must be >= 2")
    x = cat.o(oid)
    pairs = 0
    for m in range(2, k + 1):
        cones_m = limits.product_bases(cat, x, m)
        for n_ar in range(2, k + 1):
            cones_n = cones_m if n_ar == m else limits.product_bases(cat, x, n_ar)
            for ca in cones_m:
                for cb in cones_n:
                    pairs += 1
                    if not (_grid_for(cat, ca, cb) or _grid_search(cat, ca, cb)):
                        return _fail(
                            {
                                "kind": "no-grid",
                                "object": oid,
                                "decomposition_a": [cat.mid(m2) for m2 in ca],
                                "decomposition_b": [cat.mid(m2) for m2 in cb],
                            },
                            pairs=pairs,
                        )
    return _ok(pairs=pairs)


# -- class-relative extensivity -------------------------------------------------------


def _class_set(cat: FinCategory, class_name: str) -> frozenset[int]:
    if class_name == "all":
        return frozenset(range(cat.n_mor))
    return frozenset(cat.m(m) for m in morphisms_of_class(cat, class_name))


def is_M_extensive(cat: FinCategory, oid: str, class_name: str) -> CheckStatus:
    """Class-relative extensivity of one object: every class morphism into it
    admits class pullbacks along every coproduct leg, and in class-vertical
    diagrams over a coproduct bottom row, the top row is a coproduct exactly
    when both squares are class pullbacks.

    The backward direction reduces to the span condition because every
    pullback square over the same cospan differs from the canonical one by an
    isomorphism of apexes, and the named classes are closed under composition
    with isomorphisms."""
    a = cat.o(oid)
    mcls = _class_set(cat, class_name)
    bases = limits.coproduct_bases(cat, a)
    checked = 0
    for f in sorted(mcls):
        if cat._cod_l[f] != a:
            continue
        mid = cat.mid(f)
        for u, v in bases:
            spans = []
            for leg in (u, v):
                w = limits.pullback(cat, f, leg)
                if w is None:
                    return _fail(
                        {"kind": "missing-pullback", "morphism": mid, "along": cat.mid(leg), "class": class_name}
                    )
                if w.legs[0] not in mcls or w.legs[1] not in mcls:
                    return _fail(
                        {
                            "kind": "pullback-legs-not-in-class",
                            "morphism": mid,
                            "along": cat.mid(leg),
                            "legs": [cat.mid(w.legs[0]), cat.mid(w.legs[1])],
                            "class": class_name,
                        }
                    )
                spans.append(w)
            checked += 1
            if not limits.is_coproduct_cocone(cat, spans[0].legs[0], spans[1].legs[0]):
                return _fail(
                    {
                        "kind": "top-row-not-coproduct",
                        "morphism": mid,
                        "base": [cat.mid(u), cat.mid(v)],
                        "span": [cat.mid(spans[0].legs[0]), cat.mid(spans[1].legs[0])],
                        "class": class_name,
                    },
                    checked=checked,
                )
        # forward direction: class-vertical coproduct tops force class pullbacks
        def fault(leg: int, top: int, filler: int) -> str | None:
            if not limits.is_pullback_square(cat, f, leg, top, filler):
                return "square-not-pullback"
            if top not in mcls or filler not in mcls:
                return "square-legs-not-in-class"
            return None

        count, failure = _e2_first_failure(cat, f, fault, mcls)
        checked += count
        if failure is not None:
            (x1, x2, u, v, g1, g2), side, kind = failure
            witness = {
                "kind": kind,
                "morphism": mid,
                "top": [cat.mid(x1), cat.mid(x2)],
                "bottom": [cat.mid(u), cat.mid(v)],
            }
            if kind == "square-not-pullback":
                witness["verticals"] = [cat.mid(g1), cat.mid(g2)]
            witness["side"] = side
            witness["class"] = class_name
            return _fail(witness, checked=checked)
    return _ok(checked=checked)


def is_M_coextensive(cat: FinCategory, oid: str, class_name: str) -> CheckStatus:
    return _dualized(is_M_extensive(dual_of(cat), oid, class_name))


# -- commutation of (co)products with (co)equalisers -------------------------------------


def _all_parallel_pairs(cat: FinCategory) -> list[tuple[int, int]]:
    out = []
    n = len(cat.objects)
    for a in range(n):
        for b in range(n):
            h = cat.hom(a, b)
            for u in h:
                for v in h:
                    out.append((u, v))
    return out


def commutation_check(cat: FinCategory, which: str, sample_bound: int = 50, seed: int = 0) -> CheckStatus:
    """Products applied to two coequaliser diagrams give a coequaliser
    diagram (or dually coproducts applied to equalisers give an equaliser),
    over a seeded sample of diagram pairs."""
    import random

    if which not in ("products-coequalisers", "coproducts-equalisers"):
        raise ValueError("which must be products-coequalisers or coproducts-equalisers")
    work = cat if which == "products-coequalisers" else dual_of(cat)
    pairs = _all_parallel_pairs(work)
    rng = random.Random(seed)

    def _squarable(x: int) -> bool:
        return limits.product(work, x, x) is not None

    # Forks whose objects admit self-products can actually be paired (for
    # size-capped categories a² ≤ N and b² ≤ N imply ab ≤ N), so sample those
    # first; the rest only waste the pairing budget.
    preferred, rest = [], []
    for i, (u, _v) in enumerate(pairs):
        good = _squarable(work._dom_l[u]) and _squarable(work._cod_l[u])
        (preferred if good else rest).append(i)
    rng.shuffle(preferred)
    rng.shuffle(rest)
    diagrams = []
    for idx in preferred + rest:
        u, v = pairs[idx]
        w = limits.coequaliser(work, u, v)
        if w is not None:
            diagrams.append((u, v, w.legs[0]))
        if len(diagrams) >= 8 * sample_bound:
            break
    if len(diagrams) < 2:
        return _na({"kind": "no-coequaliser-diagrams"})
    tested = 0
    inapplicable = 0
    combos = ((d1, d2) for d1 in diagrams for d2 in diagrams)
    for (u1, v1, q1), (u2, v2, q2) in combos:
        if tested >= sample_bound:
            break
        pd = limits.product(work, work._dom_l[u1], work._dom_l[u2])
        pm = limits.product(work, work._cod_l[u1], work._cod_l[u2])
        pc = limits.product(work, work._cod_l[q1], work._cod_l[q2])
        if pd is None or pm is None or pc is None:
            inapplicable += 1
            continue
        pu = limits.product_of_morphisms(work, u1, u2, tuple(pd.legs), tuple(pm.legs))
        pv = limits.product_of_morphisms(work, v1, v2, tuple(pd.legs), tuple(pm.legs))
        pq = limits.product_of_morphisms(work, q1, q2, tuple(pm.legs), tuple(pc.legs))
        if pu is None or pv is None or pq is None:
            inapplicable += 1
            continue
        tested += 1
        if not limits.is_coequaliser(work, pu, pv, pq):
            return _fail(
                {
                    "kind": "product-fork-not-coequaliser" if which == "products-coequalisers" else "coproduct-fork-not-equaliser",
                    "first": [work.mid(u1), work.mid(v1), work.mid(q1)],
                    "second": [work.mid(u2), work.mid(v2), work.mid(q2)],
                },
                tested=tested,
                inapplicable=inapplicable,
            )
    if tested == 0:
        return _na({"kind": "no-applicable-pairs"}, inapplicable=inapplicable)
    return _ok(tested=tested, inapplicable=inapplicable)
