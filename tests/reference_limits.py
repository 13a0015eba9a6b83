"""Reference implementations of the (co)limit fast paths in ``finext.limits``.

These are the original formulations, kept for differential tests only:

- ``is_pullback_square``: search the mediator from the square into the
  certified pullback and test that it is an isomorphism;
- ``cocone_universal`` / ``cone_universal``: injectivity of the leg-pair
  map by ``np.unique`` over pair codes ``r1 * M + r2``;
- ``coproduct``: the binary search over apexes and legs, certifying each
  candidate with ``cocone_universal``, not read from cached bases;
- ``cotuple`` and ``is_coequaliser``: masks and ``np.unique`` over block
  columns;
- ``coequaliser``: the first-certified search, apexes in object order, then
  legs in hom-set order, certifying each candidate with ``is_coequaliser``,
  with no apex filtered by fork counts;
- ``cone_counts``: the commuting cones of a cospan counted from the two
  legs' fibre dicts (``postcompose_fibers``), not from fibre sizes cached
  per leg;
- ``pullback``: the plain search on every cospan, without reading the
  pullback along an iso leg off its inverse and without transport along
  the isomorphisms out of the codomain, over ``cone_counts``;
- ``cone_orbit`` and ``least_cone``: the orbit {(w1∘i, w2∘i) : i an iso
  into the apex} built as a list through ``compose``, over the isos of
  ``reference_fincat.iso_info``, and its least cone taken by sorting on
  (apex, position of p1, position of p2).

The mediator search and the kernels read the original numpy composition
blocks (``reference_fincat.block``).
"""

from __future__ import annotations

import numpy as np

from finext import limits
from finext.fincat import FinCategory, _iso_info
from reference_fincat import block, iso_info


def mediator_to_cone(cat: FinCategory, w1: int, w2: int, c1: int, c2: int) -> int | None:
    """h from dom(c1) to dom(w1)'s source with w1∘h = c1, w2∘h = c2, first hit."""
    p = cat._dom_l[w1]  # apex of the certified cone
    y = cat._dom_l[c1]
    r1 = block(cat, y, p, cat._cod_l[w1])[cat.pos_in_hom(w1)]
    r2 = block(cat, y, p, cat._cod_l[w2])[cat.pos_in_hom(w2)]
    hits = np.nonzero((r1 == c1) & (r2 == c2))[0]
    if hits.size == 0:
        return None
    return cat.hom(y, p)[int(hits[0])]


def is_pullback_square(cat: FinCategory, f: int, u: int, p1: int, p2: int) -> bool:
    """The mediator into the certified pullback must exist and be an iso."""
    if cat.compose(f, p1) != cat.compose(u, p2):
        return False
    w = limits.pullback(cat, f, u)
    if w is None:
        return False
    h = mediator_to_cone(cat, w.legs[0], w.legs[1], p1, p2)
    return h is not None and h in _iso_info(cat)[0]


def cocone_universal(cat: FinCategory, a1: int, a2: int, x: int, u: int, v: int) -> bool:
    """Bijectivity of h |-> (h∘u, h∘v) for all targets Y."""
    n = len(cat.objects)
    hc = cat._hom_counts_l
    for y in range(n):
        if hc[x][y] != hc[a1][y] * hc[a2][y]:
            return False
    M = cat._M
    pu, pv = cat.pos_in_hom(u), cat.pos_in_hom(v)
    for y in range(n):
        k = hc[x][y]
        if k <= 1:
            continue
        r1 = block(cat, a1, x, y)[:, pu].astype(np.int64)
        r2 = block(cat, a2, x, y)[:, pv].astype(np.int64)
        if np.unique(r1 * M + r2).size != k:
            return False
    return True


def coproduct(cat: FinCategory, a1: int, a2: int) -> limits.UniversalWitness | None:
    """The first certified coproduct of (a1, a2): apexes whose hom counts
    are the products of the parts' in object order, then legs (u, v) in
    hom-set order.  Not cached."""
    hc, n = cat._hom_counts_l, len(cat.objects)
    apexes = (x for x in range(n) if all(hc[x][y] == hc[a1][y] * hc[a2][y] for y in range(n)))
    return next(
        (
            limits.UniversalWitness(x, (u, v))
            for x in apexes
            for u in cat.hom(a1, x)
            for v in cat.hom(a2, x)
            if cocone_universal(cat, a1, a2, x, u, v)
        ),
        None,
    )


def cone_universal(cat: FinCategory, a: int, b: int, p: int, p1: int, p2: int, counts: list[int]) -> bool:
    """Injectivity of h |-> (p1∘h, p2∘h) on hom(Y,P) for all Y, with the
    cardinalities matching ``counts``."""
    n = len(cat.objects)
    M = cat._M
    q1, q2 = cat.pos_in_hom(p1), cat.pos_in_hom(p2)
    for y in range(n):
        k = cat._hom_counts_l[y][p]
        if k != counts[y]:
            return False
        if k <= 1:
            continue
        r1 = block(cat, y, p, a)[q1].astype(np.int64)
        r2 = block(cat, y, p, b)[q2].astype(np.int64)
        if np.unique(r1 * M + r2).size != k:
            return False
    return True


def cotuple(cat: FinCategory, u: int, v: int, t1: int, t2: int) -> int | None:
    """The first h with h∘u = t1 and h∘v = t2, if any."""
    x = cat._cod_l[u]
    z = cat._cod_l[t1]
    if cat._cod_l[t2] != z:
        return None
    a1, a2 = cat._dom_l[u], cat._dom_l[v]
    r1 = block(cat, a1, x, z)[:, cat.pos_in_hom(u)]
    r2 = block(cat, a2, x, z)[:, cat.pos_in_hom(v)]
    hits = np.nonzero((r1 == t1) & (r2 == t2))[0]
    if hits.size == 0:
        return None
    return cat.hom(x, z)[int(hits[0])]


def is_coequaliser(cat: FinCategory, u: int, v: int, f: int) -> bool:
    """Whether f coequalises the parallel pair (u, v) universally."""
    if cat._dom_l[u] != cat._dom_l[v] or cat._cod_l[u] != cat._cod_l[v]:
        return False
    a = cat._cod_l[u]
    if cat._dom_l[f] != a:
        return False
    if cat.compose(f, u) != cat.compose(f, v):
        return False
    q = cat._cod_l[f]
    y = cat._dom_l[u]
    pu, pv = cat.pos_in_hom(u), cat.pos_in_hom(v)
    pf = cat.pos_in_hom(f)
    for z in range(len(cat.objects)):
        blk = block(cat, y, a, z)
        fork = int(np.count_nonzero(blk[:, pu] == blk[:, pv]))
        k = cat._hom_counts_l[q][z]
        if k != fork:
            return False
        if k <= 1:
            continue
        col = block(cat, a, q, z)[:, pf]
        if np.unique(col).size != k:
            return False
    return True


def coequaliser(cat: FinCategory, u: int, v: int) -> limits.UniversalWitness | None:
    """The first f out of cod u, apexes in object order and then legs in
    hom-set order, that ``is_coequaliser`` certifies for (u, v).  Not cached."""
    a = cat._cod_l[u]
    return next(
        (
            limits.UniversalWitness(q, (f,))
            for q in range(len(cat.objects))
            for f in cat.hom(a, q)
            if is_coequaliser(cat, u, v, f)
        ),
        None,
    )


def cone_counts(cat: FinCategory, f: int, u: int) -> list[int]:
    """|{(s, t) : f∘s = u∘t}| indexed by the cone source Y."""
    n = len(cat.objects)
    out = [0] * n
    for y in range(n):
        fib_f = cat.postcompose_fibers(f, y)
        fib_u = cat.postcompose_fibers(u, y)
        if len(fib_u) < len(fib_f):
            fib_f, fib_u = fib_u, fib_f
        out[y] = sum(len(ss) * len(fib_u[w]) for w, ss in fib_f.items() if w in fib_u)
    return out


def pullback(cat: FinCategory, f: int, u: int) -> limits.UniversalWitness | None:
    """The plain pullback search on every cospan, iso legs included: the
    first apex in object order, then the first legs in (p1, p2) hom-set
    order, whose cone is certified universal.  Cached under its own key."""
    cache = cat._cache.setdefault("reference_pullback", {})
    key = (f, u)
    if key in cache:
        return cache[key]
    a = cat._dom_l[f]
    counts = cone_counts(cat, f, u)
    n = len(cat.objects)
    res = None
    for p in range(n):
        if any(cat._hom_counts_l[y][p] != counts[y] for y in range(n)):
            continue
        found = None
        for p1 in cat.hom(p, a):
            w = cat.compose(f, p1)
            for p2 in cat.postcompose_fibers(u, p).get(w, ()):
                if limits._cone_universal(cat, p1, p2, counts):
                    found = limits.UniversalWitness(p, (p1, p2))
                    break
            if found:
                break
        if found:
            res = found
            break
    cache[key] = res
    return res


def cone_orbit(cat: FinCategory, apex: int, w1: int, w2: int) -> list[tuple[int, int]]:
    """The cones (w1∘i, w2∘i) for i an isomorphism into ``apex``, in index
    order of i."""
    isos = sorted(i for i in iso_info(cat)[0] if cat._cod_l[i] == apex)
    return [(cat.compose(w1, i), cat.compose(w2, i)) for i in isos]


def least_cone(cat: FinCategory, apex: int, w1: int, w2: int) -> limits.UniversalWitness:
    """The cone of ``cone_orbit`` whose apex comes first in object order,
    then whose legs have the least (position of p1, position of p2)."""
    dom, pos = cat._dom_l, cat._pos
    p1, p2 = min(cone_orbit(cat, apex, w1, w2), key=lambda c: (dom[c[0]], pos[c[0]], pos[c[1]]))
    return limits.UniversalWitness(dom[p1], (p1, p2))
