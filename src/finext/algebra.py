"""Finite algebras and the category builders on top of them.

Supported structure kinds (each a variety or quasivariety of finite
structures, possibly with an order relation instead of operations):

- ``set``        plain finite sets (the empty set included)
- ``pointed``    pointed sets, maps preserve the point
- ``poset``      finite posets, maps are monotone
- ``cpos``       connected finite posets (full subcategory of ``poset``)
- ``slat``       meet-semilattices: one binary idempotent commutative
                 associative operation; maps preserve it
- ``lat``        lattices: meet and join with absorption; maps preserve both
- ``mon``        monoids: associative binary operation with unit; maps
                 preserve both

Structures are carried on ``0..n-1``.  Binary operations are tuples of
tuples, constants are ints, the order relation is a boolean matrix.
Enumeration is exhaustive up to isomorphism (canonical form = minimum
encoding over carrier permutations, with constants pinned).  Hom-sets are
enumerated by backtracking in lexicographic order of the function table, so
every id assigned downstream is deterministic.

``category_from_algebras`` composes function tables as byte strings: with
ft and gt as ``bytes``, gt∘ft is ``ft.translate(gt padded to 256 bytes)``,
so each row of the composition table is filled by ``map`` in C and read back
to hom-set positions through one bytes -> position dict per hom-set; each
distinct row is built once, and one tuple table-wide holds it.  This bounds
every carrier by 256 elements; ``load_category`` reports a larger one as an
error.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Mapping, NamedTuple, Sequence

from .fincat import CategoryDataError, FinCategory

__all__ = [
    "Signature",
    "FinAlgebra",
    "Universe",
    "VARIETIES",
    "validate_algebra",
    "enumerate_structures",
    "enumerate_homs",
    "build_category",
    "enumerate_hom_sets",
    "category_from_algebras",
    "dump_category",
    "load_category",
]


@dataclass(frozen=True)
class Signature:
    """Operation/relation symbols for one structure kind."""

    kind: str
    constants: tuple[str, ...] = ()
    binary: tuple[str, ...] = ()
    relations: tuple[str, ...] = ()


SIGNATURES: dict[str, Signature] = {
    "set": Signature("set"),
    "pointed": Signature("pointed", constants=("pt",)),
    "poset": Signature("poset", relations=("leq",)),
    "cpos": Signature("cpos", relations=("leq",)),
    "slat": Signature("slat", binary=("meet",)),
    "lat": Signature("lat", binary=("meet", "join")),
    "mon": Signature("mon", constants=("e",), binary=("op",)),
}

VARIETIES = tuple(sorted(SIGNATURES))

_PREFIX = {"set": "s", "pointed": "p", "poset": "P", "cpos": "c", "slat": "S", "lat": "L", "mon": "M"}


class FinAlgebra:
    """One finite structure: carrier 0..size-1 plus interpreted symbols."""

    def __init__(
        self,
        kind: str,
        size: int,
        ops: Mapping[str, Any] | None = None,
        rels: Mapping[str, Sequence[Sequence[bool]]] | None = None,
    ):
        if kind not in SIGNATURES:
            raise ValueError(f"unknown structure kind {kind!r} (expected one of {VARIETIES})")
        self.kind = kind
        self.signature = SIGNATURES[kind]
        self.size = size
        self.ops: dict[str, Any] = {}
        for name in self.signature.constants:
            self.ops[name] = int(ops[name])  # type: ignore[index]
        for name in self.signature.binary:
            self.ops[name] = tuple(tuple(row) for row in ops[name])  # type: ignore[index]
        self.rels: dict[str, tuple[tuple[bool, ...], ...]] = {}
        for name in self.signature.relations:
            self.rels[name] = tuple(tuple(bool(v) for v in row) for row in rels[name])  # type: ignore[index]

    def encode(self) -> tuple:
        """Flat, order-sensitive encoding; equal iff structures are equal."""
        parts: list[Any] = [self.size]
        for name in self.signature.constants:
            parts.append(self.ops[name])
        for name in self.signature.binary:
            for row in self.ops[name]:
                parts.extend(row)
        for name in self.signature.relations:
            for row in self.rels[name]:
                parts.extend(int(v) for v in row)
        return tuple(parts)

    def relabel(self, perm: Sequence[int]) -> "FinAlgebra":
        """The isomorphic copy along ``perm`` (element i becomes perm[i])."""
        n = self.size
        inv = [0] * n
        for i, p in enumerate(perm):
            inv[p] = i
        ops: dict[str, Any] = {}
        for name in self.signature.constants:
            ops[name] = perm[self.ops[name]]
        for name in self.signature.binary:
            t = self.ops[name]
            ops[name] = tuple(tuple(perm[t[inv[i]][inv[j]]] for j in range(n)) for i in range(n))
        rels: dict[str, Any] = {}
        for name in self.signature.relations:
            r = self.rels[name]
            rels[name] = tuple(tuple(r[inv[i]][inv[j]] for j in range(n)) for i in range(n))
        return FinAlgebra(self.kind, n, ops, rels)

    def canonical_key(self) -> tuple:
        """Minimum encoding over all permissible relabelings (constants pinned)."""
        n = self.size
        pinned = sorted({self.ops[c] for c in self.signature.constants})
        best: tuple | None = None
        for perm in itertools.permutations(range(n)):
            if any(perm[c] != c for c in pinned):
                continue
            key = self.relabel(perm).encode()
            if best is None or key < best:
                best = key
        return best if best is not None else self.encode()

    def __repr__(self):
        return f"FinAlgebra({self.kind}, n={self.size})"


# -- laws -------------------------------------------------------------------


def _check_aci(t: Sequence[Sequence[int]], n: int, name: str) -> list[str]:
    bad = []
    for x in range(n):
        if t[x][x] != x:
            bad.append(f"{name} not idempotent at {x}")
        for y in range(n):
            if t[x][y] != t[y][x]:
                bad.append(f"{name} not commutative at ({x},{y})")
            for z in range(n):
                if t[t[x][y]][z] != t[x][t[y][z]]:
                    bad.append(f"{name} not associative at ({x},{y},{z})")
    return bad


def _poset_components(leq: Sequence[Sequence[bool]], n: int) -> int:
    seen = [False] * n
    comps = 0
    for s in range(n):
        if seen[s]:
            continue
        comps += 1
        stack = [s]
        seen[s] = True
        while stack:
            x = stack.pop()
            for y in range(n):
                if not seen[y] and (leq[x][y] or leq[y][x]):
                    seen[y] = True
                    stack.append(y)
    return comps


def validate_algebra(alg: FinAlgebra) -> list[str]:
    """All violated laws of the structure's kind, as human-readable strings."""
    n = alg.size
    out: list[str] = []
    for name, v in alg.ops.items():
        if isinstance(v, int):
            if not (0 <= v < n):
                out.append(f"constant {name} out of range")
        elif len(v) != n or any(len(r) != n or any(not (0 <= x < n) for x in r) for r in v):
            out.append(f"binary {name} malformed")
    if out:
        return out
    k = alg.kind
    if k in ("poset", "cpos"):
        leq = alg.rels["leq"]
        for x in range(n):
            if not leq[x][x]:
                out.append(f"leq not reflexive at {x}")
            for y in range(n):
                if x != y and leq[x][y] and leq[y][x]:
                    out.append(f"leq not antisymmetric at ({x},{y})")
                for z in range(n):
                    if leq[x][y] and leq[y][z] and not leq[x][z]:
                        out.append(f"leq not transitive at ({x},{y},{z})")
        if k == "cpos":
            if n == 0 or _poset_components(leq, n) != 1:
                out.append("order not connected")
    elif k == "slat":
        if n == 0:
            out.append("empty carrier not allowed for slat")
        out += _check_aci(alg.ops["meet"], n, "meet")
    elif k == "lat":
        if n == 0:
            out.append("empty carrier not allowed for lat")
        m, j = alg.ops["meet"], alg.ops["join"]
        out += _check_aci(m, n, "meet") + _check_aci(j, n, "join")
        for x in range(n):
            for y in range(n):
                if m[x][j[x][y]] != x:
                    out.append(f"absorption meet/join fails at ({x},{y})")
                if j[x][m[x][y]] != x:
                    out.append(f"absorption join/meet fails at ({x},{y})")
    elif k == "mon":
        t, e = alg.ops["op"], alg.ops["e"]
        for x in range(n):
            if t[e][x] != x or t[x][e] != x:
                out.append(f"unit law fails at {x}")
            for y in range(n):
                for z in range(n):
                    if t[t[x][y]][z] != t[x][t[y][z]]:
                        out.append(f"op not associative at ({x},{y},{z})")
    elif k == "pointed":
        if n == 0:
            out.append("empty carrier not allowed for pointed")
    return out


# -- enumeration up to isomorphism -------------------------------------------


def _enumerate_posets_raw(n: int) -> list[tuple[tuple[bool, ...], ...]]:
    """All labeled partial orders on 0..n-1 as boolean matrices."""
    if n == 0:
        return [()]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for bits in itertools.product((False, True), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), b in zip(pairs, bits):
            if b:
                leq[i][j] = True
        ok = True
        for i, j in pairs:
            if leq[i][j] and leq[j][i]:
                ok = False
                break
        if ok:
            for x in range(n):
                for y in range(n):
                    if leq[x][y]:
                        for z in range(n):
                            if leq[y][z] and not leq[x][z]:
                                ok = False
        if ok:
            out.append(tuple(tuple(r) for r in leq))
    return out


def _meet_table(leq: Sequence[Sequence[bool]], n: int) -> tuple | None:
    """Greatest-lower-bound table, or None if some pair has no meet."""
    t = [[0] * n for _ in range(n)]
    for x in range(n):
        for y in range(n):
            lower = [z for z in range(n) if leq[z][x] and leq[z][y]]
            best = [z for z in lower if all(leq[w][z] for w in lower)]
            if len(best) != 1:
                return None
            t[x][y] = best[0]
    return tuple(tuple(r) for r in t)


def _join_table(leq: Sequence[Sequence[bool]], n: int) -> tuple | None:
    """Least-upper-bound table: the meet table of the converse order."""
    return _meet_table([[leq[y][x] for y in range(n)] for x in range(n)], n)


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


# -- homomorphisms ------------------------------------------------------------


def enumerate_homs(a: FinAlgebra, b: FinAlgebra, limit: int | None = None) -> list[tuple[int, ...]]:
    """All structure-preserving maps a -> b, in lexicographic table order;
    only the first ``limit`` of them when a limit is given."""
    n, m = a.size, b.size
    if n == 0:
        return [()]
    if m == 0:
        return []
    sig = a.signature
    f = [-1] * n
    # point constraints
    forced: dict[int, int] = {}
    for cname in sig.constants:
        ca, cb = a.ops[cname], b.ops[cname]
        if forced.get(ca, cb) != cb:
            return []
        forced[ca] = cb
    bin_ops = [(a.ops[o], b.ops[o]) for o in sig.binary]
    rel_ps = [(a.rels[r], b.rels[r]) for r in sig.relations]
    out: list[tuple[int, ...]] = []

    def ok_after(k: int) -> bool:
        v = f[k]
        for ta, tb in bin_ops:
            for x in range(k + 1):
                fx = f[x]
                for y in range(k + 1):
                    if x != k and y != k and ta[x][y] != k:
                        continue
                    z = ta[x][y]
                    if z <= k and f[z] != tb[fx][f[y]]:
                        return False
        for ra, rb in rel_ps:
            for x in range(k + 1):
                if ra[x][k] and not rb[f[x]][v]:
                    return False
                if ra[k][x] and not rb[v][f[x]]:
                    return False
        return True

    def rec(k: int) -> bool:
        """Extend f from position k; False once ``limit`` maps are found."""
        if k == n:
            out.append(tuple(f))
            return len(out) != limit
        choices = (forced[k],) if k in forced else range(m)
        for v in choices:
            f[k] = v
            if ok_after(k) and not rec(k + 1):
                return False
        f[k] = -1
        return True

    rec(0)
    return out


# -- category builders ----------------------------------------------------------

# The enumeration budget of ``category_from_algebras``: every ``finext gen``
# output (carriers up to 4) fits, the largest being Poset≤4 with the empty
# poset at 19,727 morphisms and 15,212,056 composable pairs, built in about
# 190 MB.  A single 6-element set (46,656 maps, 2.2e9 pairs) does not.
MAX_MORPHISMS = 2**15
MAX_COMPOSABLE_PAIRS = 2**24


@dataclass
class Universe:
    """Concrete side of a built category: the structure behind each object
    and the function table behind each morphism."""

    kind: str
    algebras: dict[str, FinAlgebra] = field(default_factory=dict)
    maps: dict[str, tuple[int, ...]] = field(default_factory=dict)


def default_names(kind: str, algs: Sequence[FinAlgebra]) -> list[str]:
    """Object ids: prefix + size, disambiguated by enumeration index when
    several structures share a size."""
    prefix = _PREFIX[kind]
    by_size: dict[int, list[int]] = {}
    for i, alg in enumerate(algs):
        by_size.setdefault(alg.size, []).append(i)
    names = []
    for i, alg in enumerate(algs):
        group = by_size[alg.size]
        suffix = "" if len(group) == 1 else f"_{group.index(i)}"
        names.append(f"{prefix}{alg.size}{suffix}")
    return names


def build_category(
    kind: str, max_size: int, include_empty: bool | None = None
) -> tuple[FinCategory, Universe]:
    """The full category of all structures of the kind up to ``max_size``
    (one object per isomorphism class) with every hom between them.

    Object ids: prefix + size, disambiguated by canonical index when several
    classes share a size.  Morphism ids: ``dom>cod#K`` with K the position of
    the function table in lexicographic order.  Composition is function
    composition, re-encoded through the table index.
    """
    algs = enumerate_structures(kind, max_size, include_empty)
    return category_from_algebras(kind, algs, max_size=max_size)


class HomSets(NamedTuple):
    """The objects and morphisms of a category of structures, before its
    composition table is filled: morphism i runs dom[i] -> cod[i], and
    homs[a, b] maps each function table of hom(a, b), as ``bytes``, to its
    morphism's index."""

    uni: Universe
    names: list[str]
    mor_ids: list[str]
    dom: list[int]
    cod: list[int]
    identity_of: dict[int, int]
    homs: dict[tuple[int, int], dict[bytes, int]]
    max_size: int


def enumerate_hom_sets(
    kind: str,
    algs: Sequence[FinAlgebra],
    names: Sequence[str] | None = None,
    max_size: int | None = None,
) -> HomSets:
    """Every hom between the structures of an explicit list, numbered
    hom-set by hom-set in (dom, cod) order, and by the position K of the
    function table in lexicographic order inside each; morphism ids are
    ``dom>cod#K``.  A carrier above 256 elements raises
    ``CategoryDataError``, and so does a category past the enumeration
    budget: the hom-sets are enumerated only up to ``MAX_MORPHISMS``
    morphisms in all, and only when the table would hold at most
    ``MAX_COMPOSABLE_PAIRS`` composable pairs."""
    if names is None:
        names = default_names(kind, algs)
    if max_size is None:
        max_size = max((a.size for a in algs), default=0)
    uni = Universe(kind)
    for name, alg in zip(names, algs):
        if alg.size > 256:
            raise CategoryDataError(f"{name}: carrier above 256")
        uni.algebras[name] = alg

    n = len(algs)
    mor_ids: list[str] = []
    dom: list[int] = []
    cod: list[int] = []
    identity_of: dict[int, int] = {}
    homs: dict[tuple[int, int], dict[bytes, int]] = {}  # hom(a, b): table bytes -> id
    for a, (da, na) in enumerate(zip(algs, names)):
        for b, (db, nb) in enumerate(zip(algs, names)):
            tables = enumerate_homs(da, db, MAX_MORPHISMS + 1 - len(mor_ids))
            if len(mor_ids) + len(tables) > MAX_MORPHISMS:
                raise CategoryDataError(f"more than {MAX_MORPHISMS} morphisms: above the enumeration budget")
            homs[a, b] = {bytes(tbl): len(mor_ids) + k for k, tbl in enumerate(tables)}
            for k, tbl in enumerate(tables):
                mor_ids.append(f"{na}>{nb}#{k:04d}")
                uni.maps[mor_ids[-1]] = tbl
            dom += [a] * len(tables)
            cod += [b] * len(tables)
        identity_of[a] = homs[a, a][bytes(range(da.size))]
    # the composable pairs (g, f) through b are |out of b| x |into b|
    out_of, into = Counter(dom), Counter(cod)
    pairs = sum(out_of[b] * into[b] for b in range(n))
    if pairs > MAX_COMPOSABLE_PAIRS:
        raise CategoryDataError(f"{pairs} composable pairs: above the enumeration budget of {MAX_COMPOSABLE_PAIRS}")
    return HomSets(uni, list(names), mor_ids, dom, cod, identity_of, homs, max_size)


def category_from_algebras(
    kind: str,
    algs: Sequence[FinAlgebra],
    names: Sequence[str] | None = None,
    max_size: int | None = None,
) -> tuple[FinCategory, Universe]:
    """The full category on an explicit list of structures, with every hom
    between them (``enumerate_hom_sets``, which raises past the enumeration
    budget).

    Morphisms are numbered in (dom, cod) order and by K inside each
    hom-set, which is the (dom, cod, id) order ``FinCategory`` sorts string
    input into (while K has four digits).  So the position of g∘f in hom(a,
    c), the entry its row holds, is the position K of the table gt∘ft in
    that hom-set.

    Each function table is held as ``bytes`` here (``uni.maps`` keeps the
    tuples), so gt∘ft is ``ft.translate(gt)`` with gt padded to 256 bytes,
    and a row of the composition table is one ``map`` over hom(a, dom g)
    run in C, read back to positions through hom(a, c)'s bytes -> position
    dict.  Equal rows, and equal tuples of a morphism's rows, are one tuple
    table-wide, interned through the store the category keeps.  Hence a
    carrier may have at most 256 elements."""
    uni, names, mor_ids, dom, cod, identity_of, homs, max_size = enumerate_hom_sets(kind, algs, names, max_size)
    n = len(names)

    # rows[g][a]: the position of gt∘ft in hom(a, c) for each ft in hom(a,
    # dom g), c = cod g.  Every byte of ft is below |dom g| = len(gt), so
    # gt's padding to a translation table is never read.  The tables of
    # hom(a, b), joined, translate through gt in one call to the tables of
    # every gt∘ft in hom-set order: given (a, c) that key fixes the row, so
    # each distinct row is built once, through one dict per (a, c) dropped
    # before the next, and interned.  A carrier of size 0 has the one empty
    # table into each object, so there the key b"" never stands for an
    # empty hom-set.
    interned: dict[tuple, tuple] = {}
    keep = interned.setdefault
    rows = [[()] * n for _ in mor_ids]
    fts = {ab: list(h) for ab, h in homs.items()}
    joined = {ab: b"".join(h) for ab, h in fts.items()}
    gs = {bc: [(gt.ljust(256, b"\0"), rows[g]) for gt, g in h.items()] for bc, h in homs.items()}
    translate, repeat = bytes.translate, itertools.repeat
    for a in range(n):
        for c in range(n):
            ac, seen = {t: k for k, t in enumerate(homs[a, c])}.__getitem__, {}
            for b in range(n):
                ab, key_of = fts[a, b], joined[a, b].translate
                for gtab, row in gs[b, c]:
                    key = key_of(gtab)
                    r = seen.get(key)
                    if r is None:
                        r = tuple(map(ac, map(translate, ab, repeat(gtab))))
                        r = seen[key] = keep(r, r)
                    row[a] = r
    del gs  # each list of rows becomes its interned tuple in place
    for g, rs in enumerate(map(tuple, rows)):
        rows[g] = keep(rs, rs)

    meta = {"kind": kind, "max_size": max_size, "sizes": {x: uni.algebras[x].size for x in names}}
    return FinCategory._of_ints(names, mor_ids, dom, cod, identity_of, rows, meta, interned=interned), uni


# -- category files -----------------------------------------------------------
#
# {"signature": [{"name", "arity"}...],
#  "algebras": [{"name", "carrier": n, "ops": {name: nested table},
#                "order": [[i, j]...]?, "basepoint": e?}...]}
#
# A pointed structure's point travels as "basepoint", an order relation as
# "order" (the list of related pairs, reflexive pairs included); everything
# else is an operation table under "ops" with the arity the signature
# declares (0 -> int, 2 -> nested list).


def _signature_json(sig: Signature) -> list[dict]:
    out = [{"name": c, "arity": 0} for c in sig.constants if (sig.kind, c) != ("pointed", "pt")]
    out += [{"name": b, "arity": 2} for b in sig.binary]
    return out


def dump_category(
    kind: str,
    algs: Sequence[FinAlgebra],
    names: Sequence[str] | None = None,
    **extra: Any,
) -> dict:
    """The category-file dict for an explicit list of structures."""
    if names is None:
        names = default_names(kind, algs)
    sig = SIGNATURES[kind]
    entries = []
    for name, alg in zip(names, algs):
        entry: dict[str, Any] = {"name": name, "carrier": alg.size}
        ops: dict[str, Any] = {}
        for c in sig.constants:
            if (kind, c) == ("pointed", "pt"):
                entry["basepoint"] = alg.ops[c]
            else:
                ops[c] = alg.ops[c]
        for b in sig.binary:
            ops[b] = [list(row) for row in alg.ops[b]]
        if ops:
            entry["ops"] = ops
        for r in sig.relations:
            rel = alg.rels[r]
            entry["order"] = [
                [i, j] for i in range(alg.size) for j in range(alg.size) if rel[i][j]
            ]
        entries.append(entry)
    return {
        "format": "finext-category",
        "variety": kind,
        "signature": _signature_json(sig),
        "algebras": entries,
        **extra,
    }


def _infer_kind(data: Mapping[str, Any]) -> str | None:
    names = {e["name"] for e in data.get("signature", [])}
    algs = data.get("algebras", [])
    if names == {"meet"}:
        return "slat"
    if names == {"meet", "join"}:
        return "lat"
    if names == {"e", "op"}:
        return "mon"
    if names:
        return None
    if any(isinstance(a, Mapping) and "basepoint" in a for a in algs):
        return "pointed"
    if any(isinstance(a, Mapping) and "order" in a for a in algs):
        return "poset"
    return "set"


_VARIETY_ALIASES = {
    "set": "set", "pointed": "pointed", "poset": "poset", "cpos": "cpos",
    "semilattice": "slat", "slat": "slat", "lattice": "lat", "lat": "lat",
    "monoid": "mon", "mon": "mon",
}


def load_category(data: Mapping[str, Any]) -> tuple[tuple[str, list[FinAlgebra], list[str]] | None, list[str]]:
    """Parse and validate a category-file dict.

    Returns ``((kind, algebras, names), errors)``; the first component is
    None when errors make the file unusable."""
    errors: list[str] = []
    if not isinstance(data, Mapping):
        return None, ["top level: expected an object"]
    raw_algs = data.get("algebras")
    if not isinstance(raw_algs, list):
        return None, ["algebras: expected a list"]
    signature = data.get("signature", [])
    if not isinstance(signature, list) or not all(
        isinstance(e, Mapping) and isinstance(e.get("name"), str) and type(e.get("arity")) is int
        for e in signature
    ):
        return None, ["signature: expected a list of {name: string, arity: integer} objects"]
    variety = data.get("variety")
    if "variety" in data and not isinstance(variety, str):
        return None, ["variety: expected a string"]
    if variety is not None and variety not in _VARIETY_ALIASES:
        return None, [f"variety: unknown value {variety!r}"]
    kind = _VARIETY_ALIASES[variety] if variety is not None else _infer_kind(data)
    if kind is None:
        return None, ["signature: does not match any supported structure kind"]
    sig = SIGNATURES[kind]
    declared = {(e["name"], e["arity"]) for e in signature}
    expected = {(e["name"], e["arity"]) for e in _signature_json(sig)}
    if "signature" in data and declared != expected:
        errors.append(
            f"signature: expected {sorted(expected)} for variety {kind!r}, got {sorted(declared)}"
        )

    algs: list[FinAlgebra] = []
    names: list[str] = []
    seen: set[str] = set()
    for idx, entry in enumerate(raw_algs):
        where = f"algebras[{idx}]"
        if not isinstance(entry, Mapping):
            errors.append(f"{where}: expected an object")
            continue
        name = entry.get("name", f"A{idx}")
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: name must be a nonempty string")
            continue
        where = f"{where} ({name})"
        if name in seen:
            errors.append(f"{where}: duplicate object name")
            continue
        n = entry.get("carrier")
        if not isinstance(n, int) or isinstance(n, bool) or n < 0:
            errors.append(f"{where}: carrier must be a nonnegative integer")
            continue
        if n > 256:  # function tables are bytes
            errors.append(f"{where}: carrier above 256")
            continue
        ops: dict[str, Any] = {}
        rels: dict[str, Any] = {}
        bad = False
        raw_ops = entry.get("ops", {})
        if not isinstance(raw_ops, Mapping):
            errors.append(f"{where}: ops must be an object")
            continue
        known = set(sig.constants) | set(sig.binary)
        for op_name in raw_ops:
            if op_name not in known or (kind, op_name) == ("pointed", "pt"):
                errors.append(f"{where}: unknown operation {op_name!r}")
                bad = True
        for c in sig.constants:
            if (kind, c) == ("pointed", "pt"):
                v = entry.get("basepoint")
                missing = "basepoint"
            else:
                v = raw_ops.get(c)
                missing = f"ops.{c}"
            if not isinstance(v, int) or isinstance(v, bool) or not (0 <= v < n):
                errors.append(f"{where}: {missing} must be an element index")
                bad = True
            else:
                ops[c] = v
        for b in sig.binary:
            t = raw_ops.get(b)
            ok = (
                isinstance(t, list)
                and len(t) == n
                and all(
                    isinstance(row, list)
                    and len(row) == n
                    and all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n for x in row)
                    for row in t
                )
            )
            if not ok:
                errors.append(f"{where}: ops.{b} must be an {n}x{n} table of element indices")
                bad = True
            else:
                ops[b] = tuple(tuple(row) for row in t)
        for r in sig.relations:
            pairs = entry.get("order", [[i, i] for i in range(n)])
            ok = isinstance(pairs, list) and all(
                isinstance(p, list)
                and len(p) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) and 0 <= x < n for x in p)
                for p in pairs
            )
            if not ok:
                errors.append(f"{where}: order must be a list of [i, j] element pairs")
                bad = True
            else:
                mat = [[False] * n for _ in range(n)]
                for i, j in pairs:
                    mat[i][j] = True
                rels[r] = tuple(tuple(row) for row in mat)
        if bad:
            continue
        alg = FinAlgebra(kind, n, ops, rels)
        for msg in validate_algebra(alg):
            errors.append(f"{where}: {msg}")
            bad = True
        if not bad:
            algs.append(alg)
            names.append(name)
            seen.add(name)
    if errors:
        return None, errors
    return (kind, algs, names), []
