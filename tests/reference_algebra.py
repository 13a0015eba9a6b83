"""The original ``finext.algebra.category_from_algebras``, kept for
differential tests.

It builds the composition as a dict keyed by pairs of string ids and hands
it to ``FinCategory``'s string constructor, which sorts the morphisms by
(dom, cod, id) and re-keys every entry to integers.  The library builds the
same category from integer data directly.
"""

from __future__ import annotations

from typing import Sequence

from finext.algebra import FinAlgebra, Universe, default_names, enumerate_homs
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
