"""Test-side oracles: finext routines that no command runs, kept for the
tests that read them.

- Congruences of finite algebras (``test_algebra.py``,
  ``test_acceptance.py``, ``test_construction.py``): ``direct_product``,
  ``congruence_generate``, ``all_congruences``, ``congruence_lattice``,
  ``kernel_partition``, ``quotient``, ``pushout_surjections`` and
  ``center_of_monoid``.  Acceptance criterion 13 compares the categorical
  pushouts of lattices and semilattices with ``pushout_surjections``.
- Morphism classes (``test_fincat.py``, ``test_fast_paths.py``,
  ``test_extensivity.py``, ``test_acceptance.py``): ``classify_morphism``
  and ``morphisms_of_class`` over the ``CLASSES``, read from the cached
  indexes of ``finext.fincat`` and ``finext.limits``; the coequalised and
  equalised pairs of a profile come from ``reference_fincat.is_regular_epi``.
- Category-level checks (``test_extensivity.py``, ``test_fast_paths.py``):
  ``complement_uniqueness``, ``is_boolean_category`` and the class-relative
  ``is_M_extensive`` / ``is_M_coextensive``.  ``is_M_extensive`` judges its
  two-square instances through ``reference_extensivity.e2_first_failure``,
  which walks every instance and skips fillers outside the class;
  ``dualized`` is ``extensivity._dualized`` with the two class-relative
  witness kinds added.
- Set-relation masks (``test_setrel.py``, ``test_relcalc.py``,
  ``test_acceptance.py``): ``compose``, ``opposite``, ``image``,
  ``preimage`` and ``rel_product`` read a mask as a grid of one element
  of ``finext.setrel``'s bit-plane kernels, whose plane k is bit k of the
  mask; ``nabla`` and ``mask_of`` build masks, and ``delta`` and
  ``eq_mask`` are the package's own, so this module offers every mask
  kernel that ``reference_setrel`` does.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence

import reference_extensivity
import reference_fincat
from finext import extensivity as ext
from finext import limits, setrel
from finext.algebra import FinAlgebra
from finext.fincat import (
    CategoryDataError,
    FinCategory,
    _epi_set,
    _extremal_epi_set,
    _iso_info,
    _mono_set,
    _sections,
    dual_of,
)

# -- congruences -----------------------------------------------------------------


def direct_product(a: FinAlgebra, b: FinAlgebra) -> tuple[FinAlgebra, list[tuple[int, int]]]:
    """Componentwise product structure; returns it plus the pair decoding
    (element i of the product is ``pairs[i]``, ordered lexicographically)."""
    if a.kind != b.kind:
        raise ValueError("product of different kinds")
    pairs = [(x, y) for x in range(a.size) for y in range(b.size)]
    idx = {p: i for i, p in enumerate(pairs)}
    sig = a.signature
    ops: dict[str, Any] = {}
    for c in sig.constants:
        ops[c] = idx[(a.ops[c], b.ops[c])]
    for o in sig.binary:
        ta, tb = a.ops[o], b.ops[o]
        ops[o] = tuple(
            tuple(idx[(ta[x1][x2], tb[y1][y2])] for x2, y2 in pairs) for x1, y1 in pairs
        )
    rels: dict[str, Any] = {}
    for r in sig.relations:
        ra, rb = a.rels[r], b.rels[r]
        rels[r] = tuple(
            tuple(ra[x1][x2] and rb[y1][y2] for x2, y2 in pairs) for x1, y1 in pairs
        )
    return FinAlgebra(a.kind, len(pairs), ops, rels), pairs


def _uf_find(parent: list[int], x: int) -> int:
    while parent[x] != x:
        parent[x] = parent[parent[x]]
        x = parent[x]
    return x


def _canon_partition(parent: list[int]) -> tuple[int, ...]:
    n = len(parent)
    return tuple(min(j for j in range(n) if _uf_find(parent, j) == _uf_find(parent, i)) for i in range(n))


def congruence_generate(alg: FinAlgebra, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Smallest congruence containing ``pairs``: union-find closed under all
    operations (order relations play no part; congruences are for the
    operational kinds)."""
    n = alg.size
    parent = list(range(n))

    def union(x: int, y: int) -> bool:
        rx, ry = _uf_find(parent, x), _uf_find(parent, y)
        if rx == ry:
            return False
        parent[max(rx, ry)] = min(rx, ry)
        return True

    for x, y in pairs:
        union(x, y)
    changed = True
    bin_tables = [alg.ops[o] for o in alg.signature.binary]
    while changed:
        changed = False
        for t in bin_tables:
            for x in range(n):
                for y in range(n):
                    if _uf_find(parent, x) != _uf_find(parent, y):
                        continue
                    for z in range(n):
                        if union(t[x][z], t[y][z]):
                            changed = True
                        if union(t[z][x], t[z][y]):
                            changed = True
    return _canon_partition(parent)


def _partitions(n: int) -> Iterable[tuple[int, ...]]:
    """All partitions of 0..n-1 in restricted-growth form, mapped to
    min-representative form."""
    if n == 0:
        yield ()
        return
    rg = [0] * n

    def rec(k: int, mx: int):
        if k == n:
            first = {}
            rep = []
            for i, b in enumerate(rg):
                first.setdefault(b, i)
                rep.append(first[b])
            yield tuple(rep)
            return
        for b in range(mx + 2):
            rg[k] = b
            yield from rec(k + 1, max(mx, b))

    yield from rec(1, 0)


def _is_congruence(alg: FinAlgebra, rep: tuple[int, ...]) -> bool:
    for o in alg.signature.binary:
        t = alg.ops[o]
        n = alg.size
        for x in range(n):
            for y in range(x + 1, n):
                if rep[x] != rep[y]:
                    continue
                for z in range(n):
                    if rep[t[x][z]] != rep[t[y][z]] or rep[t[z][x]] != rep[t[z][y]]:
                        return False
    return True


def all_congruences(alg: FinAlgebra) -> list[tuple[int, ...]]:
    """Every congruence of the structure, as min-representative tuples,
    sorted; found by filtering all partitions of the carrier."""
    return sorted(rep for rep in _partitions(alg.size) if _is_congruence(alg, rep))


def _refines(fine: tuple[int, ...], coarse: tuple[int, ...]) -> bool:
    pairs = {}
    for i in range(len(fine)):
        if pairs.setdefault(fine[i], coarse[i]) != coarse[i]:
            return False
    return True


def congruence_lattice(alg: FinAlgebra) -> dict:
    """The congruence lattice: elements, refinement order, meet and join
    tables (meet = common refinement, join = generated congruence)."""
    cons = all_congruences(alg)
    k = len(cons)
    pos = {c: i for i, c in enumerate(cons)}
    n = alg.size
    leq = [[_refines(cons[i], cons[j]) for j in range(k)] for i in range(k)]
    meet = [[0] * k for _ in range(k)]
    join = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(k):
            common = [0] * n
            seen: dict[tuple[int, int], int] = {}
            for x in range(n):
                key = (cons[i][x], cons[j][x])
                seen.setdefault(key, x)
                common[x] = seen[key]
            meet[i][j] = pos[tuple(common)]
            gen = congruence_generate(
                alg, [(x, cons[i][x]) for x in range(n)] + [(x, cons[j][x]) for x in range(n)]
            )
            join[i][j] = pos[gen]
    return {"elements": cons, "leq": leq, "meet": meet, "join": join}


def kernel_partition(table: Sequence[int], size_dom: int) -> tuple[int, ...]:
    """Kernel of a map as a min-representative partition of its domain."""
    first: dict[int, int] = {}
    return tuple(first.setdefault(table[i], i) for i in range(size_dom))


def quotient(alg: FinAlgebra, rep: tuple[int, ...]) -> tuple[FinAlgebra, tuple[int, ...]]:
    """Quotient structure by a congruence, plus the projection table.

    Blocks are numbered by first occurrence, so the projection is the
    identity-on-representatives map."""
    n = alg.size
    block_of: dict[int, int] = {}
    proj = []
    for i in range(n):
        proj.append(block_of.setdefault(rep[i], len(block_of)))
    m = len(block_of)
    reps = [0] * m
    for i in range(n):
        reps[proj[i]] = rep[i]
    sig = alg.signature
    ops: dict[str, Any] = {}
    for c in sig.constants:
        ops[c] = proj[alg.ops[c]]
    for o in sig.binary:
        t = alg.ops[o]
        ops[o] = tuple(tuple(proj[t[reps[i]][reps[j]]] for j in range(m)) for i in range(m))
    if sig.relations:
        raise ValueError("quotients are defined for operational kinds only")
    return FinAlgebra(alg.kind, m, ops, {}), tuple(proj)


def pushout_surjections(
    a: FinAlgebra,
    f: Sequence[int],
    b: FinAlgebra,
    g: Sequence[int],
    c: FinAlgebra,
) -> tuple[FinAlgebra, tuple[int, ...], tuple[int, ...]]:
    """Pushout of two surjective homs f: a ->> b and g: a ->> c.

    Computed as the quotient of ``a`` by the join of the two kernels; returns
    (apex, map b -> apex, map c -> apex)."""
    if sorted(set(f)) != list(range(b.size)) or sorted(set(g)) != list(range(c.size)):
        raise ValueError("pushout_surjections requires surjective maps")
    kf = kernel_partition(f, a.size)
    kg = kernel_partition(g, a.size)
    theta = congruence_generate(a, [(x, kf[x]) for x in range(a.size)] + [(x, kg[x]) for x in range(a.size)])
    apex, proj = quotient(a, theta)
    # b -> apex: pick any preimage under f
    fb = [0] * b.size
    for x in range(a.size):
        fb[f[x]] = proj[x]
    gc = [0] * c.size
    for x in range(a.size):
        gc[g[x]] = proj[x]
    return apex, tuple(fb), tuple(gc)


def center_of_monoid(alg: FinAlgebra) -> list[int]:
    """Elements commuting with every element."""
    if alg.kind != "mon":
        raise ValueError("center is defined for monoids")
    t = alg.ops["op"]
    n = alg.size
    return [x for x in range(n) if all(t[x][y] == t[y][x] for y in range(n))]


# -- morphism classes --------------------------------------------------------------


@dataclass
class MorphismProfile:
    """Structural classification of one morphism, with witnesses."""

    morphism: str
    is_mono: bool
    is_epi: bool
    is_split_mono: bool
    is_split_epi: bool
    is_regular_mono: bool
    is_regular_epi: bool
    is_extremal_epi: bool
    is_iso: bool
    witnesses: dict = field(default_factory=dict)


def classify_morphism(cat: FinCategory, mid: str) -> MorphismProfile:
    """Full structural profile by exhaustive cancellation / section / fork scans."""
    f = cat.m(mid)
    d = dual_of(cat)
    wit: dict[str, Any] = {}
    retraction = _sections(d).get(f)
    section = _sections(cat).get(f)
    if retraction is not None:
        wit["retraction"] = cat.mid(retraction)
    if section is not None:
        wit["section"] = cat.mid(section)
    pair = reference_fincat.is_regular_epi(cat, f)[1]
    if pair is not None:
        wit["coequalised_pair"] = [cat.mid(pair[0]), cat.mid(pair[1])]
    dpair = reference_fincat.is_regular_epi(d, f)[1]
    if dpair is not None:
        wit["equalised_pair"] = [cat.mid(dpair[0]), cat.mid(dpair[1])]
    return MorphismProfile(
        morphism=mid,
        is_mono=f in _mono_set(cat),
        is_epi=f in _epi_set(cat),
        is_split_mono=retraction is not None,
        is_split_epi=section is not None,
        is_regular_mono=f in limits._regular_epi_set(d),
        is_regular_epi=f in limits._regular_epi_set(cat),
        is_extremal_epi=f in _extremal_epi_set(cat),
        is_iso=f in _iso_info(cat)[0],
        witnesses=wit,
    )


CLASSES = (
    "mono",
    "epi",
    "split-mono",
    "split-epi",
    "regular-mono",
    "regular-epi",
    "extremal-epi",
    "iso",
    "identity",
    "product-projection",
    "coproduct-inclusion",
)


def morphisms_of_class(cat: FinCategory, cls: str) -> list[str]:
    """All morphisms of one structural class, in deterministic id order."""
    if cls not in CLASSES:
        raise CategoryDataError(f"unknown morphism class {cls!r} (expected one of {CLASSES})")
    d = dual_of(cat)
    if cls == "mono":
        sel = _mono_set(cat)
    elif cls == "epi":
        sel = _epi_set(cat)
    elif cls == "split-mono":
        sel = _sections(d).keys()
    elif cls == "split-epi":
        sel = _sections(cat).keys()
    elif cls == "regular-epi":
        sel = limits._regular_epi_set(cat)
    elif cls == "regular-mono":
        sel = limits._regular_epi_set(d)
    elif cls == "extremal-epi":
        sel = _extremal_epi_set(cat)
    elif cls == "iso":
        sel = _iso_info(cat)[0]
    elif cls == "identity":
        sel = cat.identity_set
    else:  # coproduct-inclusion, or product-projection as inclusions of the dual
        sel = limits.coproduct_legs(cat if cls == "coproduct-inclusion" else d)
    return sorted((cat.mid(f) for f in sel))


# -- complements, Boolean categories, class-relative extensivity ---------------------


def complement_uniqueness(cat: FinCategory) -> ext.CheckStatus:
    """Any two cocones sharing their first leg have isomorphic second legs:
    an iso s with v' ∘ s = v.  Gated on initial object + disjointness."""
    z = limits.initial(cat)
    if z is None:
        return ext._na({"kind": "no-initial"})
    dis = ext.coproduct_disjointness(cat)
    if not dis.passed:
        return ext._na({"kind": "disjointness-not-established", "disjointness": dis.as_dict()})
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
                if not any(s in isos and cat.compose(v2, s) == v for s in cat.hom(b, b2)):
                    return ext._fail(
                        {
                            "kind": "no-complement-iso",
                            "shared_leg": cat.mid(u),
                            "complements": [cat.mid(v), cat.mid(v2)],
                        },
                        pairs=pairs,
                    )
    return ext._ok(pairs=pairs)


def is_boolean_category(cat: FinCategory) -> ext.CheckStatus:
    """Three clauses: pullbacks along coproduct legs exist and legs are
    pullback-stable as a class; every leg passes condition one; a cocone with
    two equal legs forces an initial apex."""
    z = limits.initial(cat)
    if z is None or not ext.all_binary_coproducts_exist(cat):
        return ext._na({"kind": "missing-finite-coproducts"})
    inclusions = limits.coproduct_legs(cat)
    n = len(cat.objects)
    pullbacks = 0
    for u in sorted(inclusions):
        x = cat._cod_l[u]
        for a in range(n):
            for g in cat.hom(a, x):
                w = limits.pullback(cat, g, u)
                if w is None:
                    return ext._fail(
                        {"kind": "missing-pullback", "leg": cat.mid(u), "along": cat.mid(g)},
                        pullbacks=pullbacks,
                    )
                pullbacks += 1
                if w.legs[0] not in inclusions:
                    return ext._fail(
                        {
                            "kind": "legs-not-pullback-stable",
                            "leg": cat.mid(u),
                            "along": cat.mid(g),
                            "pulled_back": cat.mid(w.legs[0]),
                        },
                        pullbacks=pullbacks,
                    )
        st = ext.check_e1(cat, cat.mid(u))
        if not st.passed:
            return ext._fail(
                {"kind": "leg-fails-condition-one", "leg": cat.mid(u), "inner": st.witness},
                pullbacks=pullbacks,
            )
    for x in range(n):
        for u, v in limits.coproduct_bases(cat, x):
            if u == v:
                part = cat._dom_l[u]
                if any(cat._hom_counts_l[part][y] != 1 for y in range(n)):
                    return ext._fail(
                        {"kind": "equal-legs-part-not-initial", "leg": cat.mid(u), "part": cat.oid(part)},
                        pullbacks=pullbacks,
                    )
    return ext._ok(inclusions=len(inclusions), pullbacks=pullbacks)


def _class_set(cat: FinCategory, class_name: str) -> frozenset[int]:
    if class_name == "all":
        return frozenset(range(cat.n_mor))
    return frozenset(cat.m(m) for m in morphisms_of_class(cat, class_name))


def is_M_extensive(cat: FinCategory, oid: str, class_name: str) -> ext.CheckStatus:
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
                    return ext._fail(
                        {"kind": "missing-pullback", "morphism": mid, "along": cat.mid(leg), "class": class_name}
                    )
                if w.legs[0] not in mcls or w.legs[1] not in mcls:
                    return ext._fail(
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
                return ext._fail(
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

        count, failure = reference_extensivity.e2_first_failure(cat, f, fault, mcls)
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
            return ext._fail(witness, checked=checked)
    return ext._ok(checked=checked)


_DUAL_CLASS_KIND = {
    "pullback-legs-not-in-class": "pushout-legs-not-in-class",
    "square-legs-not-in-class": "square-legs-not-in-class",
}


def dualized(st: ext.CheckStatus) -> ext.CheckStatus:
    """``extensivity._dualized``, which also renames the class-relative
    kinds and swaps their top and bottom rows."""
    kind = st.witness.get("kind") if st.witness else None
    if kind not in _DUAL_CLASS_KIND:
        return ext._dualized(st)
    w = dict(st.witness, kind=_DUAL_CLASS_KIND[kind])
    if "top" in w and "bottom" in w:
        w["top"], w["bottom"] = w["bottom"], w["top"]
    return ext.CheckStatus(st.status, w, st.details)


def is_M_coextensive(cat: FinCategory, oid: str, class_name: str) -> ext.CheckStatus:
    return dualized(is_M_extensive(dual_of(cat), oid, class_name))


# -- set-relation masks ------------------------------------------------------------


def mask_of(pairs: Iterable[tuple[int, int]], nx: int, ny: int) -> int:
    m = 0
    for i, j in pairs:
        m |= 1 << (i * ny + j)
    return m


def nabla(nx: int, ny: int) -> int:
    return (1 << (nx * ny)) - 1


delta, eq_mask = setrel.delta, setrel.eq_mask  # the masks the oracle suite itself builds


def _mask(planes: list[int]) -> int:
    return sum((p & 1) << k for k, p in enumerate(planes))


def compose(r: int, s: int, nx: int, ny: int, nz: int) -> int:
    return _mask(setrel.compose_planes(setrel._planes(r, nx * ny), setrel._planes(s, ny * nz), nx, ny, nz))


def opposite(r: int, nx: int, ny: int) -> int:
    return _mask(setrel.opposite_planes(setrel._planes(r, nx * ny), nx, ny))


def image(f: tuple[int, ...], r: int, nx: int, ny: int) -> int:
    return _mask(setrel.image_planes(f, setrel._planes(r, nx * nx), nx, ny))


def preimage(f: tuple[int, ...], r: int, nx: int, ny: int) -> int:
    return _mask(setrel.preimage_planes(f, setrel._planes(r, ny * ny), nx, ny))


def rel_product(r: int, s: int, nx: int, ny: int) -> int:
    return _mask(setrel.product_planes(setrel._planes(r, nx * nx), setrel._planes(s, ny * ny), nx, ny))
