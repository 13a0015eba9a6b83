"""References for ``finext.extensivity``, kept for differential tests only.

The condition-two reference enumerates every (top base, bottom base,
filler pair) instance and judges both squares of each instance, left then
right, as the original ``check_e2`` loop did; given ``allowed``, it skips
the instances with a filler outside it, as the class-relative
``oracles.is_M_extensive`` needs.
``cocone_universal_n`` is the original n-ary coproduct certificate over
numpy block columns, and ``coproduct_bases_n`` the original n-ary search
for every cocone it certifies on one apex.  ``category_report`` is the
original per-morphism loop, which decides every morphism on its own.
``coproduct_disjointness`` certifies each leg's self-intersection square
(leg, leg; id, id) as a pullback, as the original did.  ``has_finite_srp``
is the original per-pair loop, which decides a grid for every ordered pair
of product cones.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from finext import extensivity as ext
from finext import limits
from finext.fincat import FinCategory, dual_of
from reference_fincat import block, split_mono_witness


def e2_instances(cat: FinCategory, f: int):
    """All (top base, bottom base, filler pair) instances for f's diagram:
    top bases, then bottom bases, then g1, then g2, each in order."""
    a, x = cat._dom_l[f], cat._cod_l[f]
    for x1, x2 in limits.coproduct_bases(cat, a):
        w1, w2 = cat.compose(f, x1), cat.compose(f, x2)
        for u, v in limits.coproduct_bases(cat, x):
            g1s = cat.postcompose_fibers(u, cat._dom_l[x1]).get(w1, ())
            g2s = cat.postcompose_fibers(v, cat._dom_l[x2]).get(w2, ())
            for g1 in g1s:
                for g2 in g2s:
                    yield (x1, x2, u, v, g1, g2)


def e2_first_failure(cat: FinCategory, f: int, square_fault, allowed=None):
    """Same contract as ``extensivity._e2_first_failure``, by walking every
    instance and judging both of its squares."""
    count = 0
    for inst in e2_instances(cat, f):
        x1, x2, u, v, g1, g2 = inst
        if allowed is not None and (g1 not in allowed or g2 not in allowed):
            continue
        count += 1
        for side, (leg, top, filler) in (("left", (u, x1, g1)), ("right", (v, x2, g2))):
            kind = square_fault(leg, top, filler)
            if kind is not None:
                return count, (inst, side, kind)
    return count, None


def cocone_universal_n(cat: FinCategory, legs: Sequence[int]) -> bool:
    """Bijectivity of h |-> (h∘leg_i)_i from hom(X,Y) onto prod_i hom(A_i,Y)
    for every Y."""
    x = cat._cod_l[legs[0]]
    if any(cat._cod_l[m] != x for m in legs):
        return False
    doms = [cat._dom_l[m] for m in legs]
    n = len(cat.objects)
    hc = cat._hom_counts_l
    for y in range(n):
        prod = 1
        for a in doms:
            prod *= hc[a][y]
        if hc[x][y] != prod:
            return False
    M = cat._M
    for y in range(n):
        k = hc[x][y]
        if k <= 1:
            continue
        code = None
        for m, a in zip(legs, doms):
            r = block(cat, a, x, y)[:, cat.pos_in_hom(m)].astype(np.int64)
            code = r if code is None else code * M + r
        if np.unique(code).size != k:
            return False
    return True


def coproduct_bases_n(cat: FinCategory, x: int, arity: int) -> tuple[tuple[int, ...], ...]:
    """Every certified coproduct cocone of ``arity`` legs with apex x: parts
    in ``itertools.product`` order, then legs in hom-set order.  Not cached,
    and searched at arity 2 as at any other."""
    n = len(cat.objects)
    hc = cat._hom_counts_l
    out: list[tuple[int, ...]] = []
    for doms in itertools.product(range(n), repeat=arity):
        ok = True
        for y in range(n):
            prod = 1
            for a in doms:
                prod *= hc[a][y]
            if hc[x][y] != prod:
                ok = False
                break
        if not ok:
            continue
        for legs in itertools.product(*(cat.hom(a, x) for a in doms)):
            if cocone_universal_n(cat, legs):
                out.append(legs)
    return tuple(out)


def category_report(cat: FinCategory, mode: str = "extensive") -> dict:
    """The per-morphism loop: ``is_extensive_morphism`` on every morphism,
    with no sharing between isomorphic morphisms."""
    if mode not in ("extensive", "coextensive"):
        raise ValueError("mode must be extensive or coextensive")
    work = cat if mode == "extensive" else dual_of(cat)
    per = {}
    for i in range(work.n_mor):
        mid = work.mid(i)
        st = ext.is_extensive_morphism(work, mid)
        per[mid] = st if mode == "extensive" else ext._dualized(st)
    reduced_scope = sorted(
        work.mid(m)
        for m in set(limits.coproduct_legs(work))
        | {f for f in range(work.n_mor) if split_mono_witness(dual_of(work), f) is not None}
    )
    verdict = all(st.passed for st in per.values())
    reduced = all(per[m].passed for m in reduced_scope)
    has_cops = ext.all_binary_coproducts_exist(work)
    return {
        "mode": mode,
        "morphisms": {m: per[m].as_dict() for m in sorted(per)},
        "verdict": "pass" if verdict else "fail",
        "reduced_scope": reduced_scope,
        "reduced_verdict": "pass" if reduced else "fail",
        "binary_coproducts_exist": has_cops,
        "verdicts_agree": (verdict == reduced) if has_cops else None,
    }


def coproduct_disjointness(cat: FinCategory) -> ext.CheckStatus:
    """Coproduct legs are monic (self-intersection square) and intersect in
    the initial object, for every certified coproduct cocone."""
    z = limits.initial(cat)
    if z is None:
        return ext._na({"kind": "no-initial"})
    checked = 0
    for x in range(len(cat.objects)):
        for u, v in limits.coproduct_bases(cat, x):
            checked += 1
            for leg in (u, v):
                e = cat.identity_of[cat._dom_l[leg]]
                if not limits.is_pullback_square(cat, leg, leg, e, e):
                    return ext._fail(
                        {"kind": "leg-not-mono-square", "base": [cat.mid(u), cat.mid(v)], "leg": cat.mid(leg)},
                        bases=checked,
                    )
            p1 = cat.hom(z, cat._dom_l[u])[0]
            p2 = cat.hom(z, cat._dom_l[v])[0]
            if not limits.is_pullback_square(cat, u, v, p1, p2):
                return ext._fail({"kind": "intersection-not-initial", "base": [cat.mid(u), cat.mid(v)]}, bases=checked)
    return ext._ok(bases=checked)


def has_finite_srp(cat: FinCategory, oid: str, k: int) -> ext.CheckStatus:
    """Strict refinement over all pairs of product cones of arities 2..k,
    with a grid decided for each pair."""
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
                    if not (ext._grid_for(cat, ca, cb) or ext._grid_search(cat, ca, cb)):
                        return ext._fail(
                            {
                                "kind": "no-grid",
                                "object": oid,
                                "decomposition_a": [cat.mid(m2) for m2 in ca],
                                "decomposition_b": [cat.mid(m2) for m2 in cb],
                            },
                            pairs=pairs,
                        )
    return ext._ok(pairs=pairs)
