"""Generated categories for the tests: categories with distinct isomorphic
objects, which no built-in category has.

``preorders()`` is a Hypothesis strategy for random preorders, whose thin
categories (``fincat.thin_category_from_poset``) have one object per point
and isomorphic objects on every cycle.

``inflate(cat, x, pos)`` is the category equivalent to ``cat`` in which
object x gets an isomorphic copy x' (its id with a trailing "'") at object
position ``pos``.  Every morphism a -> b lifts to each a' -> b' with a'
over a and b' over b, and composites and identities are the lifts of the
originals, so x and x' are isomorphic through the lifts of x's identity.

``product(C, D)`` is the product category C × D: objects and morphisms
are pairs, and (g, g')∘(f, f') = (g∘f, g'∘f') is read from the two
composition tables.  Its limits and colimits are componentwise, so each
verdict on it is fixed by the verdicts on C and D.

``finite_limit_gaps(cat)`` lists where ``cat`` falls short of finite
completeness: whether it has a terminal object, and how many binary
products and pullbacks are missing, read from ``finext.limits``.
"""

from __future__ import annotations

import itertools

from hypothesis import strategies as st

from finext import limits
from finext.fincat import FinCategory


def lift_id(mid: str, src_is_copy: bool, tgt_is_copy: bool) -> str:
    """The id of a lift of morphism ``mid``.  Ends at the copy are named in
    a prefix, so every hom-set of the lift keeps the original's order."""
    tag = "s" * src_is_copy + "t" * tgt_is_copy
    return f"{tag}'{mid}" if tag else mid


def inflate(cat: FinCategory, x: int, pos: int) -> FinCategory:
    """``cat`` with an isomorphic copy of object x at object position ``pos``
    (0 <= pos <= number of objects).  Builder metadata is dropped: the
    result is no longer one of the builder's categories."""
    if not 0 <= pos <= len(cat.objects):
        raise ValueError(f"position {pos} outside 0..{len(cat.objects)}")
    copy = cat.objects[x] + "'"
    objects = list(cat.objects)
    objects.insert(pos, copy)
    over = {o: [(o, False)] for o in cat.objects}
    over[cat.objects[x]].append((copy, True))

    dom = [cat.objects[d] for d in cat._dom_l]
    cod = [cat.objects[c] for c in cat._cod_l]
    morphisms = [
        (lift_id(cat.mid(m), ca, cb), a2, b2)
        for m in range(cat.n_mor)
        for a2, ca in over[dom[m]]
        for b2, cb in over[cod[m]]
    ]
    identities = {
        o2: lift_id(cat.mid(cat.identity_of[cat.obj_index[o]]), c, c) for o in cat.objects for o2, c in over[o]
    }
    composition = {}
    for e in cat.to_json()["composition"]:
        g, f = cat.m(e["g"]), cat.m(e["f"])
        for a2, ca in over[dom[f]]:
            for b2, cb in over[cod[f]]:
                for c2, cc in over[cod[g]]:
                    composition[(lift_id(e["g"], cb, cc), lift_id(e["f"], ca, cb))] = lift_id(e["gf"], ca, cc)
    return FinCategory(objects, morphisms, identities, composition)


def product(c: FinCategory, d: FinCategory) -> FinCategory:
    """C × D, with object (x, y) named ``(x,y)`` and morphism (f, g) named
    ``(f,g)``.  Builder metadata is dropped."""
    jc, jd = c.to_json(), d.to_json()

    def pair(a: str, b: str) -> str:
        return f"({a},{b})"

    return FinCategory(
        [pair(x, y) for x in jc["objects"] for y in jd["objects"]],
        [
            (pair(f["id"], g["id"]), pair(f["dom"], g["dom"]), pair(f["cod"], g["cod"]))
            for f in jc["morphisms"]
            for g in jd["morphisms"]
        ],
        {pair(x, y): pair(i, j) for x, i in jc["identities"].items() for y, j in jd["identities"].items()},
        {
            (pair(e["g"], e2["g"]), pair(e["f"], e2["f"])): pair(e["gf"], e2["gf"])
            for e in jc["composition"]
            for e2 in jd["composition"]
        },
    )


@st.composite
def preorders(draw, max_points: int = 5):
    """A random preorder on up to ``max_points`` points, as a boolean matrix:
    the reflexive-transitive closure of random edges i -> j in either
    direction, so points on a cycle are distinct but isomorphic."""
    n = draw(st.integers(min_value=1, max_value=max_points))
    point = st.integers(min_value=0, max_value=n - 1)
    edges = draw(st.lists(st.tuples(point, point), max_size=2 * n))
    leq = [[i == j or (i, j) in edges for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return leq


def finite_limit_gaps(cat: FinCategory) -> dict:
    """Whether ``cat`` has a terminal object, and the number of missing
    binary products over ordered object pairs and of missing pullbacks over
    ordered cospans (f, u), f = u included.  A category is finitely complete
    exactly when all three show no gap."""
    n = len(cat.objects)
    into = [[m for a in range(n) for m in cat.hom(a, x)] for x in range(n)]
    return {
        "terminal": limits.terminal(cat) is not None,
        "missing_products": sum(limits.product(cat, a, b) is None for a in range(n) for b in range(n)),
        "missing_pullbacks": sum(limits.pullback(cat, f, u) is None for ms in into for f in ms for u in ms),
    }
