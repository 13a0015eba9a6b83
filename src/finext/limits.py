"""(Co)limits in an explicit finite category, by exhaustive universal-property
search.

A candidate diagram is *certified* by checking the defining bijection
directly: a cocone of legs u_i: A_i -> X is a coproduct iff for every
object Y the map h |-> (h∘u_i)_i from hom(X,Y) to the product of the
hom(A_i,Y) is a bijection.  At every arity this is decided by cardinality
comparison plus an injectivity scan.  The cardinalities are compared once
per arity, by an index that groups the tuples of objects by the pointwise
product of their hom-count rows and is read at X's row (``_parts_index``).
The scan (``_cocone_injective``) reads the composites of each leg as one
tuple of rows, one per object (``FinCategory.cols``), and counts distinct
leg tuples in a Python set.  A row holds positions in one hom-set, so two
composites into it are equal exactly when their entries are, and every
count below compares entries as they are; only a composite handed out as
a morphism adds its hom-set's start (``FinCategory.start``).  The
certified cocones with apex X are searched once per (apex, arity)
(``coproduct_bases``).  Whether given legs
form a coproduct, the first coproduct of two objects and the set of
coproduct inclusions are lookups in these bases, not certified again.

The commuting cones of a cospan (f, u) are counted from sizes, not
enumerated: for each s into dom f, the size of u's fibre over f∘s, read
from a ``Counter`` of u's row cached per leg.  Limits are the colimits of
the opposite category, found by the same code; ``fincat.dual`` keeps this
category's indexes, so a witness found there is read here as it is.

The forks of a parallel pair (u, v) are counted once per pair, as the
number of t out of cod u with t∘u = t∘v into each object, and cached
(``_fork_counts``).  A coequalising f is universal exactly when the hom
counts of its codomain equal these fork counts and f is epi: epi makes
t |-> t∘f injective for every target, and equal counts make it onto.  So
``is_coequaliser`` is three lookups, and the coequaliser search skips every
apex whose hom counts differ from the fork counts.  The regular epis are
one cached set (``_regular_epi_set``): an epi f is in it when some pair
u <= v that f's row at y puts in one group, f∘u = f∘v, has the hom counts
of cod f as its fork counts.  Each caller tests membership in that set.

There is one tupling, ``pairing``: the first h with p1∘h = t1 and
p2∘h = t2, read from p1's fibre over t1.  ``product_of_morphisms`` pairs
the composites f_i∘p_i into the codomain's cone, and ``cotuple`` is
``pairing`` in the dual.

Search order is fixed everywhere — apexes in object order, legs in hom-set
order — so the first certified witness is deterministic and cacheable.
Orbits under isomorphisms are read through one per-object index
(``fincat._precomposed``: m∘i for the isos i into dom m;
``fincat._postcomposed_pairs``: (j∘f, j∘u) for the isos j out of the
codomain of a cospan).  A pullback
along an isomorphism is not searched: it is read off the inverse,
(id, u⁻¹∘f) for an iso u, and moved to the least cone of its orbit under
the isos into its apex, the cone the search would have certified first.
Any other cospan (f, u) is searched once per orbit under the isos j out of
its codomain: (j∘f, j∘u) has the same commuting cones, since j is mono, so
the search certifies the same first cone; only the least pair is searched.
Each search's answer is kept on the category by ``fincat.cached``, except
the one-scan ``initial`` and ``terminal`` and the ``coequaliser`` and
``image_factorisation`` searches, whose answers are seldom asked twice.
All functions speak internal integer indexes; callers translate to string
ids at the reporting boundary.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from itertools import repeat
from math import prod
from operator import eq

from .fincat import FinCategory, cached, dual_of, _epi_set, _iso_info, _mono_set
from .fincat import _postcomposed_pairs, _precomposed

__all__ = [
    "UniversalWitness",
    "initial",
    "terminal",
    "is_coproduct_cocone",
    "coproduct",
    "coproduct_bases",
    "coproduct_legs",
    "cotuple",
    "product",
    "product_bases",
    "is_product_cone",
    "pairing",
    "product_of_morphisms",
    "pullback",
    "is_pullback_square",
    "kernel_pair",
    "pushout",
    "is_pushout_square",
    "is_coequaliser",
    "coequaliser",
    "equaliser",
    "image_factorisation",
]


@dataclass(frozen=True)
class UniversalWitness:
    """A certified universal diagram: its apex and legs, in internal indexes."""

    apex: int
    legs: tuple[int, ...]


# -- initial / terminal --------------------------------------------------------


def initial(cat: FinCategory) -> int | None:
    """First object with exactly one morphism to every object, if any."""
    hc, n = cat._hom_counts_l, len(cat.objects)
    return next((x for x in range(n) if all(hc[x][y] == 1 for y in range(n))), None)


def terminal(cat: FinCategory) -> int | None:
    hc, n = cat._hom_counts_l, len(cat.objects)
    return next((x for x in range(n) if all(hc[y][x] == 1 for y in range(n))), None)


# -- coproducts -----------------------------------------------------------------


def _cocone_injective(cat: FinCategory, legs: tuple[int, ...]) -> bool:
    """The injectivity half of the certificate: h |-> (h∘leg)_leg is
    injective on hom(X, Y) for every Y, where the legs run A_i -> X."""
    # the column of a leg at Y lists h∘leg for each h in hom(X, Y)
    return all(len(cs[0]) < 2 or len(set(zip(*cs))) == len(cs[0]) for cs in zip(*map(cat.cols, legs)))


@cached("coproduct_parts")
def _parts_index(cat: FinCategory, arity: int) -> dict[tuple[int, ...], list[tuple[int, ...]]]:
    """The ``arity``-tuples of objects grouped by the pointwise product of
    their hom-count rows, in ``itertools.product`` order; only products that
    are some object's row are kept.  The parts that fit apex x are the entry
    at x's row: the cardinality half of the certificate.  Cached per arity."""
    hc = cat._hom_counts_l
    index: dict[tuple[int, ...], list[tuple[int, ...]]] = {tuple(r): [] for r in hc}
    for parts in itertools.product(range(len(cat.objects)), repeat=arity):
        fits = index.get(tuple(map(prod, zip(*(hc[a] for a in parts)))))
        if fits is not None:
            fits.append(parts)
    return index


@cached("coproduct_bases")
def coproduct_bases(cat: FinCategory, x: int, arity: int = 2) -> tuple[tuple[int, ...], ...]:
    """Every certified coproduct cocone of ``arity`` legs with apex x: parts
    in ``itertools.product`` order, then legs in hom-set order.  The parts
    whose hom counts fit x are read from ``_parts_index``, so their legs
    need only the injectivity scan.  Cached per (apex, arity); this is the
    quantification set for the decomposition-respecting checks, and every
    other coproduct question is a lookup in it."""
    return tuple(
        legs
        for parts in _parts_index(cat, arity)[tuple(cat._hom_counts_l[x])]
        for legs in itertools.product(*(cat.hom(a, x) for a in parts))
        if _cocone_injective(cat, legs)
    )


def is_coproduct_cocone(cat: FinCategory, *legs: int) -> bool:
    """Whether the legs (A_i -> X) exhibit X as the coproduct of the A_i:
    membership in the certified bases of X."""
    return legs in coproduct_bases(cat, cat._cod_l[legs[0]], len(legs))


@cached("coproduct")
def coproduct(cat: FinCategory, a1: int, a2: int) -> UniversalWitness | None:
    """First certified coproduct of (a1, a2): apexes in object order, then
    the first base on those parts.  Cached."""
    dom = cat._dom_l
    return next(
        (
            UniversalWitness(x, (u, v))
            for x in range(len(cat.objects))
            for u, v in coproduct_bases(cat, x)
            if dom[u] == a1 and dom[v] == a2
        ),
        None,
    )


def coproduct_legs(cat: FinCategory) -> frozenset[int]:
    """The legs of every certified binary coproduct cocone: the coproduct
    inclusions, read from the stored ``coproduct_bases``."""
    return frozenset(m for x in range(len(cat.objects)) for base in coproduct_bases(cat, x) for m in base)


def cotuple(cat: FinCategory, u: int, v: int, t1: int, t2: int) -> int | None:
    """The first h in hom-set order with h∘u = t1 and h∘v = t2, if any:
    ``pairing`` in the dual.  Unique when (u, v) is a coproduct cocone."""
    return pairing(dual_of(cat), u, v, t1, t2)


# -- products (through the dual) ---------------------------------------------------


def product(cat: FinCategory, a1: int, a2: int) -> UniversalWitness | None:
    return coproduct(dual_of(cat), a1, a2)


def product_bases(cat: FinCategory, x: int, arity: int = 2) -> tuple[tuple[int, ...], ...]:
    """Every certified product cone of ``arity`` legs with apex x."""
    return coproduct_bases(dual_of(cat), x, arity)


def is_product_cone(cat: FinCategory, *legs: int) -> bool:
    """Whether the legs (X -> A_i) exhibit X as the product of the A_i."""
    return is_coproduct_cocone(dual_of(cat), *legs)


def pairing(cat: FinCategory, p1: int, p2: int, t1: int, t2: int) -> int | None:
    """The first h in hom-set order with p1∘h = t1 and p2∘h = t2, if any:
    read from p1's fibre over t1 in hom(dom t1, dom p1), the store of
    ``postcompose_fibers``.  Unique when (p1, p2) is a product cone; every
    product and coproduct mediator is this one."""
    fibre = cat.postcompose_fibers(p1, cat._dom_l[t1]).get(t1, ())
    return next((h for h in fibre if cat.compose(p2, h) == t2), None)


def product_of_morphisms(
    cat: FinCategory,
    f1: int,
    f2: int,
    dom_base: tuple[int, int],
    cod_base: tuple[int, int],
) -> int | None:
    """f1 × f2 relative to chosen product cones on domain and codomain: the
    h with q1∘h = f1∘p1 and q2∘h = f2∘p2."""
    p1, p2 = dom_base
    t1, t2 = cat.compose(f1, p1), cat.compose(f2, p2)
    return None if t1 is None or t2 is None else pairing(cat, *cod_base, t1, t2)


# -- pullbacks ------------------------------------------------------------------


@cached("fibre_sizes")
def _fibre_sizes(cat: FinCategory, u: int) -> list:
    """The size of each fibre of t |-> u∘t, one lookup per source object,
    cached per morphism u: the leg that ``check_e1``'s cospans share."""
    return [Counter(r).get for r in cat.rows(u)]


def _cone_counts(cat: FinCategory, f: int, u: int) -> list[int]:
    """|{(s, t) : f∘s = u∘t}| indexed by the cone source Y: the sum over s in
    hom(Y, dom f) of the size of u's fibre over f∘s."""
    zeros = repeat(0)
    return [sum(map(size, r, zeros)) for size, r in zip(_fibre_sizes(cat, u), cat.rows(f))]


def _cone_universal(cat: FinCategory, p1: int, p2: int, counts: list[int]) -> bool:
    """Injectivity of h |-> (p1∘h, p2∘h) on hom(Y,P) for all Y, with
    |hom(Y,P)| matching ``counts``: bijectivity onto the commuting cones."""
    # the row of p1 from Y lists p1∘h for each h in hom(Y, P)
    return all(
        len(r) == k and (k < 2 or len(set(zip(r, s))) == k) for k, r, s in zip(counts, cat.rows(p1), cat.rows(p2))
    )


def _least_cone(cat: FinCategory, w1: int, w2: int) -> UniversalWitness:
    """The least of the cones (w1∘i, w2∘i), i an isomorphism into the apex
    of (w1, w2): least apex first, then least legs; inside the hom-sets
    out of one apex, index order is hom-set order."""
    c1 = _precomposed(cat, w1)
    y, p1, p2 = min(zip(map(cat._dom_l.__getitem__, c1), c1, _precomposed(cat, w2)))
    return UniversalWitness(y, (p1, p2))


def _pullback_search(cat: FinCategory, f: int, u: int) -> UniversalWitness | None:
    """The first certified pullback cone: apexes in object order, then legs
    in (p1, p2) hom-set order.

    At an apex whose hom counts are the cone counts, a commuting cone with
    p1 mono is universal without the row walk: h |-> p1∘h is already
    injective.  A pullback of a mono is mono, so when u is mono every p1
    that is not mono is skipped."""
    counts = _cone_counts(cat, f, u)
    into = dual_of(cat)._hom_counts_l  # into[p][y] = |hom(y, p)|
    monos = _mono_set(cat)
    u_mono = u in monos
    for p in range(len(cat.objects)):
        if into[p] != counts:
            continue
        for p1 in cat.hom(p, cat._dom_l[f]):
            p1_mono = p1 in monos
            if u_mono and not p1_mono:
                continue
            for p2 in cat.postcompose_fibers(u, p).get(cat.compose(f, p1), ()):
                if p1_mono or _cone_universal(cat, p1, p2, counts):
                    return UniversalWitness(p, (p1, p2))
    return None


@cached("pullback")
def pullback(cat: FinCategory, f: int, u: int) -> UniversalWitness | None:
    """First certified pullback of the cospan (f: A -> X <- B : u), cached.

    Legs come back as (p1: P -> A, p2: P -> B) with f∘p1 = u∘p2.  Along an
    iso leg the pullback is (id, u⁻¹∘f), or (f⁻¹∘u, id) for an iso f, put
    into the search's canonical form: the least cone of its orbit
    (``_least_cone``).  Any other cospan is searched once per orbit under
    the isomorphisms j out of X: (j∘f, j∘u) has the commuting cones of
    (f, u), since j is mono, so the same cone counts, p1 order and fibres
    of j∘u, and the search certifies the same first cone.  Only the least
    of (f, u) and the pairs (j∘f, j∘u), read for both legs at once by
    ``fincat._postcomposed_pairs``, is searched; any other pair reads the
    least one's answer, so it is cached under both cospans."""
    if cat._cod_l[f] != cat._cod_l[u]:
        raise ValueError("pullback needs a cospan (shared codomain)")
    isos, inv = _iso_info(cat)
    if u in isos:
        return _least_cone(cat, cat.identity_of[cat._dom_l[f]], cat.compose(inv[u], f))
    if f in isos:
        return _least_cone(cat, cat.compose(inv[f], u), cat.identity_of[cat._dom_l[u]])
    least = min([(f, u), *_postcomposed_pairs(cat, f, u)])
    return _pullback_search(cat, f, u) if least == (f, u) else pullback(cat, *least)


@cached("pullback_squares")
def _pullback_squares(cat: FinCategory, f: int, u: int) -> frozenset[tuple[int, int]] | None:
    """Every pullback square over the cospan (f, u) as its side pair
    (p1, p2): (w1∘i, w2∘i) for the certified cone (w1, w2) and each
    isomorphism i into its apex, read by ``fincat._precomposed``; None when
    the cospan has no pullback.  Cached per cospan."""
    w = pullback(cat, f, u)
    if w is None:
        return None
    w1, w2 = w.legs
    return frozenset(zip(_precomposed(cat, w1), _precomposed(cat, w2)))


def is_pullback_square(cat: FinCategory, f: int, u: int, p1: int, p2: int) -> bool:
    """Whether the commuting square with sides p1 (to dom f), p2 (to dom u)
    and cospan (f, u) is a pullback.

    A square is a pullback exactly when its mediator into the certified
    pullback (w1, w2) is an isomorphism, so the pullback squares over a
    cospan form one orbit: the pairs (w1∘i, w2∘i) for i an isomorphism into
    the certified apex.  The orbit is computed once per cospan and this
    check is a membership test in it."""
    if cat.compose(f, p1) != cat.compose(u, p2):
        return False
    squares = _pullback_squares(cat, f, u)
    # no pullback exists at all, so this square is not one
    return squares is not None and (p1, p2) in squares


def kernel_pair(cat: FinCategory, f: int) -> tuple[int, int, int] | None:
    """Pullback of f along itself: (apex, k1, k2), or None if missing."""
    w = pullback(cat, f, f)
    if w is None:
        return None
    return (w.apex, w.legs[0], w.legs[1])


# -- pushouts (through the dual) ----------------------------------------------------


def pushout(cat: FinCategory, f: int, g: int) -> UniversalWitness | None:
    """First certified pushout of the span (f: A -> B1, g: A -> B2).

    Legs come back as (q1: B1 -> Q, q2: B2 -> Q) with q1∘f = q2∘g."""
    return pullback(dual_of(cat), f, g)


def is_pushout_square(cat: FinCategory, f: int, g: int, q1: int, q2: int) -> bool:
    """Whether (q1: B1 -> Q, q2: B2 -> Q) is a pushout of the span (f, g)."""
    return is_pullback_square(dual_of(cat), f, g, q1, q2)


# -- (co)equalisers ------------------------------------------------------------------


@cached("fork_counts")
def _fork_counts(cat: FinCategory, u: int, v: int) -> list[int]:
    """|{t ∈ hom(cod u, z) : t∘u = t∘v}| indexed by z: the forks of the
    parallel pair (u, v), cached per pair."""
    return [sum(map(eq, cu, cv)) for cu, cv in zip(cat.cols(u), cat.cols(v))]


def is_coequaliser(cat: FinCategory, u: int, v: int, f: int) -> bool:
    """Whether f coequalises the parallel pair (u, v) universally: f∘u = f∘v,
    |hom(cod f, z)| is the number of forks into z for every z, and f is epi."""
    dom, cod = cat._dom_l, cat._cod_l
    return (
        dom[u] == dom[v]
        and cod[u] == cod[v] == dom[f]
        and cat.compose(f, u) == cat.compose(f, v)
        and cat._hom_counts_l[cod[f]] == _fork_counts(cat, u, v)
        and f in _epi_set(cat)
    )


def coequaliser(cat: FinCategory, u: int, v: int) -> UniversalWitness | None:
    """First coequaliser of (u, v): apexes in object order, skipping
    those whose hom counts are not the fork counts, then the first epi in
    hom-set order that coequalises the pair.  None for a non-parallel pair."""
    a = cat._cod_l[u]
    parallel = cat._dom_l[u] == cat._dom_l[v] and cat._cod_l[v] == a
    counts = _fork_counts(cat, u, v) if parallel else None  # None matches no apex
    epis = _epi_set(cat)
    return next(
        (
            UniversalWitness(q, (f,))
            for q, row in enumerate(cat._hom_counts_l)
            if row == counts
            for f in cat.hom(a, q)
            if f in epis and cat.compose(f, u) == cat.compose(f, v)
        ),
        None,
    )


def equaliser(cat: FinCategory, u: int, v: int) -> UniversalWitness | None:
    return coequaliser(dual_of(cat), u, v)


def _coequalises_a_pair(cat: FinCategory, f: int) -> bool:
    """Whether the epi f coequalises some parallel pair universally.  Such
    a pair (u, v), u <= v, lies in one hom(y, dom f) and in one group of it
    under f's row at y, since f∘u = f∘v; it is universal when its fork
    counts are the hom counts of cod f, as ``is_coequaliser`` decides."""
    counts = cat._hom_counts_l[cat._cod_l[f]]
    a = cat._dom_l[f]
    for y, r in enumerate(cat.rows(f)):
        groups: dict[int, list[int]] = {}
        for u, e in zip(cat.hom(y, a), r):
            groups.setdefault(e, []).append(u)
        for us in groups.values():
            if any(_fork_counts(cat, u, v) == counts for u, v in itertools.combinations_with_replacement(us, 2)):
                return True
    return False


@cached("regular_epis")
def _regular_epi_set(cat: FinCategory) -> frozenset[int]:
    """The regular epis: the epis that coequalise some parallel pair
    (``_coequalises_a_pair``).  The regular monos are
    ``_regular_epi_set(dual_of(cat))``.  Cached."""
    return frozenset(f for f in _epi_set(cat) if _coequalises_a_pair(cat, f))


# -- image factorisation ---------------------------------------------------------------


def image_factorisation(cat: FinCategory, f: int) -> tuple[int, int] | None:
    """A (regular epi, mono) factorisation f = m∘e, first in
    (intermediate, e, m) order; None when the category has none for f.
    Such factorisations are unique up to unique isomorphism when they exist."""
    monos, regular = _mono_set(cat), _regular_epi_set(cat)
    a, b = cat._dom_l[f], cat._cod_l[f]
    return next(
        (
            (e, m)
            for i in range(len(cat.objects))
            for e in cat.hom(a, i)
            if e in regular
            for m in cat.precompose_fibers(e, b).get(f, ())
            if m in monos
        ),
        None,
    )
