"""The original ``finext.algebra.category_from_algebras`` and
``enumerate_structures``, kept for differential tests.

``category_from_algebras`` builds the composition as a dict keyed by pairs
of string ids and hands it to ``FinCategory``'s string constructor, which
sorts the morphisms by (dom, cod, id) and re-keys every entry to integers.
The library builds the same category from integer data directly.

``enumerate_structures`` keeps the first labeling of each canonical form
once per variety, and ``_enumerate_monoids`` once more inside its
backtracking; the library runs one such loop over every variety's
labelings.
"""

from __future__ import annotations

from typing import Sequence

from finext.algebra import (
    SIGNATURES,
    FinAlgebra,
    Universe,
    _enumerate_posets_raw,
    _join_table,
    _meet_table,
    _poset_components,
    default_names,
    enumerate_homs,
)
from finext.fincat import FinCategory


def category_from_algebras(
    kind: str,
    algs: Sequence[FinAlgebra],
    names: Sequence[str] | None = None,
    max_size: int | None = None,
) -> tuple[FinCategory, Universe]:
    """The full category on an explicit list of structures, with every hom
    between them.  Morphism ids: ``dom>cod#K`` with K the position of the
    function table in lexicographic order."""
    if names is None:
        names = default_names(kind, algs)
    if max_size is None:
        max_size = max((a.size for a in algs), default=0)
    uni = Universe(kind)
    for name, alg in zip(names, algs):
        uni.algebras[name] = alg

    morphisms: list[tuple[str, str, str]] = []
    identities: dict[str, str] = {}
    table_index: dict[tuple[str, str, tuple[int, ...]], str] = {}
    homs: dict[tuple[str, str], list[tuple[str, tuple[int, ...]]]] = {}
    for da, na in zip(algs, names):
        for db, nb in zip(algs, names):
            hs = enumerate_homs(da, db)
            entry = []
            for k, tbl in enumerate(hs):
                mid = f"{na}>{nb}#{k:04d}"
                morphisms.append((mid, na, nb))
                table_index[(na, nb, tbl)] = mid
                uni.maps[mid] = tbl
                entry.append((mid, tbl))
                if na == nb and tbl == tuple(range(da.size)):
                    identities[na] = mid
            homs[(na, nb)] = entry

    composition: dict[tuple[str, str], str] = {}
    for (na, nb), fs in homs.items():
        for (nb2, nc), gs in homs.items():
            if nb2 != nb:
                continue
            for gid, gt in gs:
                for fid, ft in fs:
                    comp = tuple(gt[x] for x in ft)
                    composition[(gid, fid)] = table_index[(na, nc, comp)]

    cat = FinCategory(
        objects=list(names),
        morphisms=morphisms,
        identities=identities,
        composition=composition,
        metadata={"kind": kind, "max_size": max_size, "sizes": {n: uni.algebras[n].size for n in names}},
    )
    return cat, uni


def _enumerate_monoids(n: int) -> list[FinAlgebra]:
    """All monoids on 0..n-1 with unit 0, up to isomorphism, by backtracking."""
    if n == 0:
        return []
    t = [[-1] * n for _ in range(n)]
    for i in range(n):
        t[0][i] = i
        t[i][0] = i
    cells = [(i, j) for i in range(1, n) for j in range(1, n)]
    found: dict[tuple, FinAlgebra] = {}

    def determined_assoc_ok() -> bool:
        for x in range(n):
            for y in range(n):
                xy = t[x][y]
                if xy < 0:
                    continue
                for z in range(n):
                    yz = t[y][z]
                    if yz < 0:
                        continue
                    a, b = t[xy][z], t[x][yz]
                    if a >= 0 and b >= 0 and a != b:
                        return False
        return True

    def rec(k: int):
        if k == len(cells):
            alg = FinAlgebra("mon", n, {"e": 0, "op": [row[:] for row in t]})
            found.setdefault(alg.canonical_key(), alg)
            return
        i, j = cells[k]
        for v in range(n):
            t[i][j] = v
            if determined_assoc_ok():
                rec(k + 1)
        t[i][j] = -1

    rec(0)
    return [found[k] for k in sorted(found)]


def enumerate_structures(kind: str, max_size: int, include_empty: bool | None = None) -> list[FinAlgebra]:
    """All structures of the kind with carrier size up to ``max_size``, one per
    isomorphism class, in deterministic (size, canonical-form) order.

    The empty structure is included only for plain sets (and on request for
    posets); the ordered and algebraic kinds here are kept nonempty so every
    object has points to compare.
    """
    if kind not in SIGNATURES:
        raise ValueError(f"unknown structure kind {kind!r}")
    if include_empty is None:
        include_empty = kind == "set"
    out: list[FinAlgebra] = []
    lo = 0 if include_empty else 1
    for n in range(lo, max_size + 1):
        if kind == "set":
            out.append(FinAlgebra("set", n))
        elif kind == "pointed":
            if n >= 1:
                out.append(FinAlgebra("pointed", n, {"pt": 0}))
        elif kind in ("poset", "cpos"):
            seen: dict[tuple, FinAlgebra] = {}
            for leq in _enumerate_posets_raw(n):
                if kind == "cpos" and (n == 0 or _poset_components(leq, n) != 1):
                    continue
                alg = FinAlgebra(kind, n, {}, {"leq": leq})
                seen.setdefault(alg.canonical_key(), alg)
            out.extend(seen[k] for k in sorted(seen))
        elif kind == "slat":
            seen = {}
            for leq in _enumerate_posets_raw(n):
                meet = _meet_table(leq, n)
                if meet is None:
                    continue
                alg = FinAlgebra("slat", n, {"meet": meet})
                seen.setdefault(alg.canonical_key(), alg)
            out.extend(seen[k] for k in sorted(seen))
        elif kind == "lat":
            seen = {}
            for leq in _enumerate_posets_raw(n):
                meet = _meet_table(leq, n)
                if meet is None:
                    continue
                join = _join_table(leq, n)
                if join is None:
                    continue
                alg = FinAlgebra("lat", n, {"meet": meet, "join": join})
                seen.setdefault(alg.canonical_key(), alg)
            out.extend(seen[k] for k in sorted(seen))
        elif kind == "mon":
            out.extend(_enumerate_monoids(n))
    return out
