"""The original ``finext.fincat`` composition blocks, ``validate``, mono and
extremal-epi sets and ``dual``, kept for differential tests.

``block`` is the original numpy composition block; the library's blocks
are tuples of row tuples.  ``mono_set`` and ``extremal_epi_set`` read
those numpy blocks.  ``validate`` compares those numpy blocks
vectorized per object quadruple and maps composites to their positions in
the target hom-set with ``np.vectorize`` over a dict lookup; the library
compares rows of ids and walks a row element by element only when it
differs or holds a masked entry.

``dual`` rebuilds the opposite category through string ids, so its
morphisms are re-sorted by (dom, cod, id) of the dual and its indexes
differ from the primal's; the library's dual keeps the primal's indexes
and holds the primal's row table as its columns.  The references read the
table through ``compose`` and ``to_json`` only.

``validate`` counts only the stored entries of composable pairs against
the number of composable pairs, so an extraneous entry cannot hide a
missing one.

``thin_category_from_poset`` builds through string ids and the string
constructor; the library's builds from integer data.

``iso_info`` is the original isomorphism scan: for each f: a -> b, the
first g in hom(b, a) with g∘f = id_a and f∘g = id_b, both through
``compose``; the library reads f∘g from rows(f) and g∘f from rows(g), and
a dual reads its primal's answer.

``split_mono_witness`` is the original split-mono scan: for f: a -> b, the
first r in hom(b, a) with r∘f = id_a through ``compose``.  It compares
with ``identity_of.get(a)``, so where id_a and r∘f are both missing it
takes r for a retraction; the library reads each split epi's first section
from rows(f)[cod f] once per category (``fincat._sections``), and finds
none where the identity is missing.

``id_rows`` is the seed's row table, the layout the library's rows had
before they held hom-set positions: rows[g][y] holds the global id of g∘t
for each t in hom(y, dom g), -1 where the table has no entry, built
straight from a composition given by string ids.  ``row_ids`` and
``col_ids`` read the library's rows and columns back into that layout
through ``FinCategory.start``.

``is_regular_epi`` is the original regular-epi decision, with a witness
pair: an epi f is a regular epi exactly when it coequalises its kernel
pair, when that exists; otherwise the first pair u <= v of one hom-set
with f∘u = f∘v, through ``compose``, that ``limits.is_coequaliser``
accepts.  The library reads the candidate pairs from f's own rows
(``limits._regular_epi_set``) and keeps no witness.

``closure`` and ``generating_set`` are brute-force versions of the
generating set that the library's ``validate`` checks associativity
through: the closure composes every composable pair of the set until
nothing new appears, and the generating set recomputes it from scratch
after each member it adds.
"""

from __future__ import annotations

import weakref
from typing import Mapping, Sequence

import numpy as np

from finext import limits
from finext.fincat import FinCategory, Violation, _epi_set, _iso_info


_BLOCKS: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def block(cat: FinCategory, a: int, b: int, c: int) -> np.ndarray:
    """Composition block: array[gi, fi] = index of g∘f over hom(b,c) x hom(a,b),
    -1 where the table has no entry.  Cached per category, as it was."""
    blocks = _BLOCKS.setdefault(cat, {})
    blk = blocks.get((a, b, c))
    if blk is None:
        fs = cat.hom(a, b)
        gs = cat.hom(b, c)
        compose = cat.compose
        blk = np.fromiter(
            (-1 if (gf := compose(g, f)) is None else gf for g in gs for f in fs),
            dtype=np.int32,
            count=len(fs) * len(gs),
        ).reshape(len(gs), len(fs))
        blocks[(a, b, c)] = blk
    return blk


def _composition_table(cat: FinCategory) -> dict[int, int]:
    """The stored composition as {g * M + f: g∘f}, read through ``to_json``,
    so entries for pairs that are not composable are kept."""
    m, M = cat.mor_index, cat._M
    return {m[e["g"]] * M + m[e["f"]]: m[e["gf"]] for e in cat.to_json()["composition"]}


def validate(cat: FinCategory, max_violations: int = 50) -> list[Violation]:
    """Re-assert every category axiom by direct scan; return all violations found."""
    out: list[Violation] = []
    n = len(cat.objects)
    M = cat._M
    comp = _composition_table(cat)
    dom = cat._dom_l
    cod = cat._cod_l

    # identities present and well-typed
    for x in range(n):
        i = cat.identity_of.get(x)
        if i is None:
            out.append(Violation("identity-missing", {"object": cat.objects[x]}))
        elif dom[i] != x or cod[i] != x:
            out.append(Violation("identity-typing", {"object": cat.objects[x], "id": cat.mor_ids[i]}))

    # composition totality / typing / no extraneous entries
    for key, v in comp.items():
        g, f = key // M, key % M
        if cod[f] != dom[g]:
            out.append(Violation("comp-extraneous", {"g": cat.mor_ids[g], "f": cat.mor_ids[f]}))
        elif dom[v] != dom[f] or cod[v] != cod[g]:
            out.append(
                Violation("comp-typing", {"g": cat.mor_ids[g], "f": cat.mor_ids[f], "gf": cat.mor_ids[v]})
            )
    n_composable = 0
    for a in range(n):
        for b in range(n):
            hab = cat._hom_counts_l[a][b]
            if not hab:
                continue
            for c in range(n):
                n_composable += hab * cat._hom_counts_l[b][c]
    if n_composable != sum(cod[key % M] == dom[key // M] for key in comp):
        for a in range(n):
            for b in range(n):
                for f in cat.hom(a, b):
                    for c in range(n):
                        for g in cat.hom(b, c):
                            if g * M + f not in comp:
                                out.append(
                                    Violation("comp-missing", {"g": cat.mor_ids[g], "f": cat.mor_ids[f]})
                                )
                                if len(out) >= max_violations:
                                    return out

    # identity laws
    for i in range(M):
        e_dom = cat.identity_of.get(dom[i])
        e_cod = cat.identity_of.get(cod[i])
        if e_dom is not None and comp.get(i * M + e_dom) != i:
            out.append(Violation("identity-law", {"f": cat.mor_ids[i], "side": "right"}))
        if e_cod is not None and comp.get(e_cod * M + i) != i:
            out.append(Violation("identity-law", {"f": cat.mor_ids[i], "side": "left"}))
        if len(out) >= max_violations:
            return out

    # associativity: h∘(g∘f) == (h∘g)∘f, vectorized per object quadruple
    for a in range(n):
        for b in range(n):
            if not cat._hom_counts_l[a][b]:
                continue
            for c in range(n):
                if not cat._hom_counts_l[b][c]:
                    continue
                gf = block(cat, a, b, c)  # [g, f] -> g∘f in hom(a,c)
                for d in range(n):
                    if not cat._hom_counts_l[c][d]:
                        continue
                    hg = block(cat, b, c, d)  # [h, g] -> h∘g in hom(b,d)
                    # left: h∘(g∘f): positions of g∘f inside hom(a,c).
                    # Missing or mistyped composites resolve to -1 and the
                    # affected triples are masked out below; they are already
                    # reported by the composition-table scans above.
                    hom_ac = cat.hom(a, c)
                    pos_ac = {m: p for p, m in enumerate(hom_ac)}
                    gf_pos = (
                        np.vectorize(lambda m: pos_ac.get(int(m), -1), otypes=[np.int32])(gf)
                        if gf.size
                        else gf
                    )
                    h_acd = block(cat, a, c, d)  # [h, x] for x in hom(a,c)
                    # right: (h∘g)∘f
                    hom_bd = cat.hom(b, d)
                    pos_bd = {m: p for p, m in enumerate(hom_bd)}
                    hg_pos = (
                        np.vectorize(lambda m: pos_bd.get(int(m), -1), otypes=[np.int32])(hg)
                        if hg.size
                        else hg
                    )
                    x_abd = block(cat, a, b, d)  # [y, f] for y in hom(b,d)
                    if gf.size == 0 or hg.size == 0:
                        continue
                    lhs = h_acd[:, np.clip(gf_pos, 0, None).reshape(-1)].reshape(
                        h_acd.shape[0], *gf.shape
                    )
                    rhs = x_abd[np.clip(hg_pos, 0, None).reshape(-1), :].reshape(
                        *hg.shape, x_abd.shape[1]
                    )
                    # lhs[h, g, f] vs rhs[h, g, f], restricted to triples whose
                    # intermediate composites are all present and well typed
                    defined = (gf_pos >= 0)[None, :, :] & (hg_pos >= 0)[:, :, None]
                    mismatch = (lhs != rhs) & defined & (lhs >= 0) & (rhs >= 0)
                    if mismatch.any():
                        bad = np.argwhere(mismatch)
                        for h_i, g_i, f_i in bad[: max(1, max_violations - len(out))]:
                            out.append(
                                Violation(
                                    "assoc",
                                    {
                                        "h": cat.mor_ids[cat.hom(c, d)[h_i]],
                                        "g": cat.mor_ids[cat.hom(b, c)[g_i]],
                                        "f": cat.mor_ids[cat.hom(a, b)[f_i]],
                                    },
                                )
                            )
                        if len(out) >= max_violations:
                            return out
    return out


def iso_info(cat: FinCategory) -> tuple[frozenset[int], dict[int, int]]:
    """The isomorphisms and their inverses, by two ``compose`` calls per
    candidate inverse.  Not cached."""
    inv: dict[int, int] = {}
    for f in range(cat.n_mor):
        a, b = cat._dom_l[f], cat._cod_l[f]
        ia, ib = cat.identity_of.get(a), cat.identity_of.get(b)
        for g in cat.hom(b, a):
            if cat.compose(g, f) == ia and cat.compose(f, g) == ib:
                inv[f] = g
                break
    return frozenset(inv), inv


def split_mono_witness(cat: FinCategory, f: int) -> int | None:
    a, b = cat._dom_l[f], cat._cod_l[f]
    ia = cat.identity_of.get(a)
    for r in cat.hom(b, a):
        if cat.compose(r, f) == ia:
            return r
    return None


_REGULAR: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def is_regular_epi(cat: FinCategory, f: int) -> tuple[bool, tuple[int, int] | None]:
    """Whether f is the coequaliser of some parallel pair, with a witness
    pair: the kernel pair first, if it exists (then f is regular epi iff it
    coequalises it); otherwise every parallel pair.  Cached per category
    and morphism, as it was."""
    memo = _REGULAR.setdefault(cat, {})
    if f not in memo:
        memo[f] = _regular_epi_witness(cat, f)
    return memo[f]


def _regular_epi_witness(cat: FinCategory, f: int) -> tuple[bool, tuple[int, int] | None]:
    if f not in _epi_set(cat):
        # a coequaliser is always epi, so no pair can work
        return (False, None)
    kp = limits.kernel_pair(cat, f)
    if kp is not None:
        u, v = kp[1], kp[2]
        return (True, (u, v)) if limits.is_coequaliser(cat, u, v, f) else (False, None)
    a = cat._dom_l[f]
    for y in range(len(cat.objects)):
        hy = cat.hom(y, a)
        for u in hy:
            fu = cat.compose(f, u)
            for v in hy:
                if v < u or cat.compose(f, v) != fu:
                    continue
                if limits.is_coequaliser(cat, u, v, f):
                    return (True, (u, v))
    return (False, None)


def mono_set(cat: FinCategory) -> frozenset[int]:
    monos: set[int] = set()
    n = len(cat.objects)
    for a in range(n):
        for b in range(n):
            fs = cat.hom(a, b)
            if not fs:
                continue
            ok = np.ones(len(fs), dtype=bool)
            for y in range(n):
                k = cat._hom_counts_l[y][a]
                if k <= 1:
                    continue
                blk = block(cat, y, a, b)  # [f, u] -> f∘u
                for i in np.nonzero(ok)[0]:
                    row = blk[i]
                    if len(np.unique(row)) != k:
                        ok[i] = False
            monos.update(fs[i] for i in np.nonzero(ok)[0])
    return frozenset(monos)


def extremal_epi_set(cat: FinCategory) -> frozenset[int]:
    """Every morphism that is no composite through a non-iso mono."""
    isos = _iso_info(cat)[0]
    excluded: set[int] = set()
    for m in mono_set(cat):
        if m in isos:
            continue
        y = cat._dom_l[m]
        for a in range(len(cat.objects)):
            if not cat._hom_counts_l[a][y]:
                continue
            row = block(cat, a, y, cat._cod_l[m])[cat.pos_in_hom(m)]
            excluded.update(row.tolist())
    return frozenset(set(range(cat.n_mor)) - excluded)


def dual(cat: FinCategory) -> FinCategory:
    """The opposite category.  Same object and morphism ids; dom/cod and
    composition order swapped.  dual(dual(c)) equals c up to id identity."""
    M = cat._M
    comp = {(e["f"], e["g"]): e["gf"] for e in cat.to_json()["composition"]}
    meta = dict(cat.metadata)
    kind = meta.get("kind")
    if isinstance(kind, str):
        meta["kind"] = kind[5:] if kind.startswith("dual-") else f"dual-{kind}"
    return FinCategory(
        objects=cat.objects,
        morphisms=[(cat.mor_ids[i], cat.objects[cat._cod_l[i]], cat.objects[cat._dom_l[i]]) for i in range(M)],
        identities={cat.objects[x]: cat.mor_ids[m] for x, m in cat.identity_of.items()},
        composition=comp,
        metadata=meta,
    )


def thin_category_from_poset(leq: Sequence[Sequence[bool]], names: Sequence[str] | None = None) -> FinCategory:
    """The thin category of a finite poset: one morphism x->y iff x <= y."""
    n = len(leq)
    names = list(names) if names is not None else [f"p{i}" for i in range(n)]
    morphisms = []
    identities = {}
    for i in range(n):
        for j in range(n):
            if leq[i][j]:
                mid = f"{names[i]}<={names[j]}"
                morphisms.append((mid, names[i], names[j]))
                if i == j:
                    identities[names[i]] = mid
    comp = {}
    for i in range(n):
        for j in range(n):
            if not leq[i][j]:
                continue
            for k in range(n):
                if leq[j][k]:
                    comp[(f"{names[j]}<={names[k]}", f"{names[i]}<={names[j]}")] = f"{names[i]}<={names[k]}"
    return FinCategory(names, morphisms, identities, comp, metadata={"kind": "poset-as-category"})


def closure(cat: FinCategory, gens: Sequence[int]) -> set[int]:
    """The closure of ``gens`` and the identities under the table's
    composition: compose every composable pair until nothing new appears."""
    dom, cod = cat._dom_l, cat._cod_l
    got = set(gens) | cat.identity_set
    while True:
        new = {cat.compose(g, f) for g in got for f in got if dom[g] == cod[f]} - got
        if not new:
            return got
        got |= new


def generating_set(cat: FinCategory) -> list[int]:
    """In index order, every morphism outside the closure of the members
    before it and the identities."""
    gens: list[int] = []
    closed = closure(cat, gens)
    for m in range(cat.n_mor):
        if m not in closed:
            gens.append(m)
            closed = closure(cat, gens)
    return gens


def id_rows(cat: FinCategory, composition: Mapping[tuple[str, str], str]) -> list[list[tuple[int, ...]]]:
    """The seed's rows of ``cat`` for a table given by string ids,
    ``composition[g, f] = g∘f``: for each g and source object y, the id of
    g∘t for each t in hom(y, dom g), -1 where there is no entry."""
    idx = cat.mor_index
    comp = {(idx[g], idx[f]): idx[gf] for (g, f), gf in composition.items()}
    n = len(cat.objects)
    return [
        [tuple([comp.get((g, t), -1) for t in cat.hom(y, cat._dom_l[g])]) for y in range(n)]
        for g in range(cat.n_mor)
    ]


def row_ids(cat: FinCategory, g: int) -> list[tuple[int, ...]]:
    """``cat.rows(g)`` read as ids: start(y, cod g) plus each entry."""
    c = cat._cod_l[g]
    return [tuple([cat.start(y, c) + p for p in r]) for y, r in enumerate(cat.rows(g))]


def col_ids(cat: FinCategory, f: int) -> list[tuple[int, ...]]:
    """``cat.cols(f)`` read as ids: start(dom f, z) plus each entry."""
    a = cat._dom_l[f]
    return [tuple([cat.start(a, z) + p for p in r]) for z, r in enumerate(cat.cols(f))]
