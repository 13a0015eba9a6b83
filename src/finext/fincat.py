"""Explicit finite categories.

A category is a finite list of objects, a finite list of morphisms with
declared domain/codomain, a chosen identity per object, and a total
composition table over composable pairs.  Everything downstream (limits,
extensivity checks, the relation calculus) is decided by exhaustive scans
over this data, so the table itself is re-checkable: ``validate`` re-asserts
every axiom and reports each violation instead of repairing anything.
Associativity (h∘g)∘f = h∘(g∘f) is checked only for g in a generating set S
of the table (Light's test); on FinSet≤4, S holds 51 of the 499 morphisms.
When an earlier axiom is violated or the law fails through S, one plain
walk over every composable triple reports the failures, so the violations
reported never depend on S.

Morphism and object ids are strings at the boundary; internally both are
dense integer indexes, every hom-set is a run of consecutive indexes, and
every category, its dual included, is set up from integer data by one
core.  The composition table is stored as rows: ``rows(g)`` holds g∘t for
each t into dom g, one tuple per source object, -1 where there is no
entry.  A primal and its dual share their tables: each one's columns are
the other's rows.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field
from functools import wraps
from itertools import chain
from typing import Any, Callable, Mapping, Sequence

__all__ = [
    "FinCategory",
    "MorphismProfile",
    "Violation",
    "CategoryDataError",
    "validate_category",
    "dual",
    "classify_morphism",
    "morphisms_of_class",
    "thin_category_from_poset",
]


class CategoryDataError(ValueError):
    """Raised for structurally malformed input (unknown ids, duplicates)."""


@dataclass(frozen=True)
class Violation:
    """One violated category axiom, with the offending ids."""

    kind: str  # identity-missing | identity-typing | identity-law | comp-missing | comp-extraneous | comp-typing | assoc
    details: dict


def cached(name: str) -> Callable[[Callable], Callable]:
    """Memoise ``fn(cat, *args)`` in ``cat._cache[name]``, keyed by the one
    argument, or by the argument tuple when there are none or several.
    Omitted defaults are filled in first, so ``fn(cat, x)`` and
    ``fn(cat, x, default)`` share one entry.  None is an answer like any
    other, and an answer is stored only once ``fn`` has returned it."""

    def decorate(fn: Callable) -> Callable:
        nargs = fn.__code__.co_argcount - 1
        defaults = fn.__defaults__ or ()

        @wraps(fn)
        def memo(cat: FinCategory, *args: Any) -> Any:
            if len(args) < nargs:
                args += defaults[len(args) - nargs :]
            key = args[0] if len(args) == 1 else args
            try:
                return cat._cache[name][key]
            except KeyError:
                pass
            res = fn(cat, *args)
            cat._cache.setdefault(name, {})[key] = res
            return res

        return memo

    return decorate


class FinCategory:
    """An explicit finite category.

    Parameters use string ids.  ``composition`` maps composable pairs
    (g after f) to their composite; it must be total over composable pairs
    and defined for nothing else, but that is *checked* by ``validate``,
    not assumed here.  Construction only requires ids to resolve.
    """

    def __init__(
        self,
        objects: Sequence[str],
        morphisms: Sequence[tuple[str, str, str]],  # (id, dom, cod)
        identities: Mapping[str, str],
        composition: Mapping[tuple[str, str], str],
        metadata: Mapping[str, Any] | None = None,
    ):
        obj_index = {x: i for i, x in enumerate(objects)}
        for mid, d, c in morphisms:
            if d not in obj_index or c not in obj_index:
                raise CategoryDataError(f"morphism {mid!r} has unknown dom/cod")

        # Deterministic internal order of a constructed category: by
        # (dom, cod, id).  ``dual`` keeps its primal's order instead.
        ordered = sorted(morphisms, key=lambda m: (obj_index[m[1]], obj_index[m[2]], m[0]))
        mor_ids = [m[0] for m in ordered]
        mor_index = {m: i for i, m in enumerate(mor_ids)}

        identity_of: dict[int, int] = {}
        for x, mid in identities.items():
            if x not in obj_index:
                raise CategoryDataError(f"identity declared for unknown object {x!r}")
            if mid not in mor_index:
                raise CategoryDataError(f"identity {mid!r} of {x!r} is not a declared morphism")
            identity_of[obj_index[x]] = mor_index[mid]

        comp: dict[tuple[int, int], int] = {}
        for (g, f), gf in composition.items():
            if g not in mor_index or f not in mor_index or gf not in mor_index:
                raise CategoryDataError(f"composition entry ({g!r},{f!r})->{gf!r} uses unknown ids")
            comp[mor_index[g], mor_index[f]] = mor_index[gf]

        dom, cod = [obj_index[m[1]] for m in ordered], [obj_index[m[2]] for m in ordered]
        self._setup(objects, mor_ids, dom, cod, identity_of, [None] * len(mor_ids), dict(metadata or {}), extra=comp)
        # composable entries move into the rows; pairs that do not compose stay
        for g, x in enumerate(dom):
            self._rows[g] = [tuple([comp.pop((g, t), -1) for t in range(*span)]) for span in self._spans[x]]

    @classmethod
    def _of_ints(cls, *args: Any, **kwargs: Any) -> "FinCategory":
        """A category from integer data, through ``_setup``."""
        cat = cls.__new__(cls)
        cat._setup(*args, **kwargs)
        return cat

    def _setup(
        self, objects: Sequence[str], mor_ids: Sequence[str], dom: list[int], cod: list[int], identity_of: dict[int, int],
        rows: list, metadata: dict[str, Any], cols: list | None = None, extra: dict[tuple[int, int], int] | None = None,
    ) -> None:
        """The integer core every category goes through: morphism i runs
        dom[i] -> cod[i], ``rows[g]`` is ``rows(g)`` and ``cols[f]`` is
        ``cols(f)``, or None to be gathered from the other, complete table.
        ``extra`` holds the entries (g, f) -> g∘f of pairs that do not
        compose.  ``validate`` checks the table; that every hom-set is a run
        of consecutive indexes, which the rows are laid out by, is checked
        here."""
        self.objects: tuple[str, ...] = tuple(objects)
        self.obj_index: dict[str, int] = {x: i for i, x in enumerate(self.objects)}
        if len(self.obj_index) != len(self.objects):
            raise CategoryDataError("duplicate object ids")
        self.mor_ids: tuple[str, ...] = tuple(mor_ids)
        self.mor_index: dict[str, int] = {m: i for i, m in enumerate(self.mor_ids)}
        if len(self.mor_index) != len(self.mor_ids):
            dup = next(m for i, m in enumerate(self.mor_ids) if self.mor_index[m] != i)
            raise CategoryDataError(f"duplicate morphism id {dup!r}")
        M = self.n_mor = self._M = len(self.mor_ids)
        self._dom_l, self._cod_l = dom, cod
        self.identity_of = identity_of
        self.identity_set = frozenset(identity_of.values())
        self._rows: list[list[tuple[int, ...]] | None] = rows
        self._cols: list[list[tuple[int, ...]] | None] = [None] * M if cols is None else cols
        self._extra = {} if extra is None else extra
        self.metadata = metadata

        # hom-sets as ascending int lists, each morphism's position in its
        # hom-set, and _hom_counts_l[a][b] = |hom(a, b)|
        n = len(self.objects)
        hom: dict[int, list[int]] = {}
        pos = [0] * M
        for i in range(M):
            ms = hom.setdefault(dom[i] * n + cod[i], [])
            pos[i] = len(ms)
            ms.append(i)
        for key, ms in hom.items():
            if ms[-1] - ms[0] != len(ms) - 1:
                a, b = divmod(key, n)
                raise CategoryDataError(
                    f"hom({self.objects[a]!r}, {self.objects[b]!r}) is not a run of consecutive morphism indexes"
                )
        self._hom = hom
        self._pos = pos
        self._hom_counts_l = [[len(hom.get(a * n + b, ())) for b in range(n)] for a in range(n)]
        # _spans[x][y] = (lo, hi): hom(y, x) is the indexes lo..hi-1
        self._spans = [
            [(ms[0], ms[-1] + 1) if (ms := hom.get(y * n + x)) else (0, 0) for y in range(n)] for x in range(n)
        ]

        self._cache: dict[str, Any] = {}
        # set by ``dual_of``: the dual on the category that built it, a weak
        # reference back on the dual, so refcounting frees the pair
        self._dual: FinCategory | weakref.ref | None = None

    # -- basic accessors (int side) -------------------------------------

    def hom(self, a: int, b: int) -> list[int]:
        return self._hom.get(a * len(self.objects) + b, [])

    def compose(self, g: int, f: int) -> int | None:
        """g∘f (f first), or None if not in the table.  Read off cols(f) while g's row is not stored."""
        if self._cod_l[f] != self._dom_l[g]:
            return self._extra.get((g, f))
        r = self._rows[g]
        gf = r[self._dom_l[f]][self._pos[f]] if r else self._cols[f][self._cod_l[g]][self._pos[g]]
        return None if gf < 0 else gf

    def rows(self, g: int) -> list[tuple[int, ...]]:
        """g∘t for each t in hom(y, dom g), one tuple per source object y, in
        hom-set order, -1 where the table has no entry."""
        return self._rows[g] or self._gather(g, self._spans[self._dom_l[g]], self._cod_l[g], self._cols, self._rows)

    def cols(self, f: int) -> list[tuple[int, ...]]:
        """t∘f for each t in hom(cod f, z), one tuple per target object z, in
        hom-set order: the rows of f in the dual."""
        b = self._cod_l[f]
        return self._cols[f] or self._gather(f, [s[b] for s in self._spans], self._dom_l[f], self._rows, self._cols)

    def _gather(self, m: int, spans: list, x: int, other: list, table: list) -> list[tuple[int, ...]]:
        """m's row or column read off the other, complete table: other[t][x]
        at m's position for each t in each span, published in one assignment."""
        p = self._pos[m]
        got = table[m] = [tuple([other[t][x][p] for t in range(*span)]) for span in spans]
        return got

    def block(self, a: int, b: int, c: int) -> tuple[tuple[int, ...], ...]:
        """Composition block over hom(b,c) x hom(a,b): the row from a of each
        g in hom(b,c), holding the global id of g∘f for each f in hom(a,b),
        or -1 where the table has no entry."""
        return tuple([self.rows(g)[a] for g in self.hom(b, c)])

    def pos_in_hom(self, m: int) -> int:
        """Position of m in its hom-set list."""
        return self._pos[m]

    @cached("post_fibers")
    def postcompose_fibers(self, g: int, src: int) -> dict[int, list[int]]:
        """For g: B->C, the fibers of hom(src,B) -> hom(src,C), t |-> g∘t."""
        fib: dict[int, list[int]] = {}
        for t, gt in zip(self.hom(src, self._dom_l[g]), self.rows(g)[src]):
            fib.setdefault(gt, []).append(t)
        return fib

    @cached("pre_fibers")
    def precompose_fibers(self, f: int, dst: int) -> dict[int, list[int]]:
        """For f: A->B, the fibers of hom(B,dst) -> hom(A,dst), t |-> t∘f."""
        fib: dict[int, list[int]] = {}
        for t, tf in zip(self.hom(self._cod_l[f], dst), self.cols(f)[dst]):
            fib.setdefault(tf, []).append(t)
        return fib

    # -- string-id conveniences ------------------------------------------

    def m(self, mid: str) -> int:
        try:
            return self.mor_index[mid]
        except KeyError:
            raise CategoryDataError(f"unknown morphism {mid!r}") from None

    def o(self, oid: str) -> int:
        try:
            return self.obj_index[oid]
        except KeyError:
            raise CategoryDataError(f"unknown object {oid!r}") from None

    def mid(self, i: int) -> str:
        return self.mor_ids[i]

    def oid(self, i: int) -> str:
        return self.objects[i]

    def __repr__(self):
        return f"FinCategory({len(self.objects)} objects, {self.n_mor} morphisms)"

    # -- serialization ----------------------------------------------------

    def to_json(self) -> dict:
        """The category by ids; composition entries in (g, f) index order."""
        entries = [(g, f, v) for (g, f), v in self._extra.items()]
        for g, x in enumerate(self._dom_l):
            for (lo, hi), r in zip(self._spans[x], self.rows(g)):
                entries += [(g, f, v) for f, v in zip(range(lo, hi), r) if v >= 0]
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"id": self.mor_ids[i], "dom": self.objects[self._dom_l[i]], "cod": self.objects[self._cod_l[i]]}
                for i in range(self.n_mor)
            ],
            "identities": {self.objects[x]: self.mor_ids[m] for x, m in sorted(self.identity_of.items())},
            "composition": [
                {"g": self.mor_ids[g], "f": self.mor_ids[f], "gf": self.mor_ids[v]}
                for g, f, v in sorted(entries)
            ],
            "metadata": self.metadata,
        }

    @staticmethod
    def from_json(data: Mapping[str, Any]) -> "FinCategory":
        return FinCategory(
            objects=data["objects"],
            morphisms=[(m["id"], m["dom"], m["cod"]) for m in data["morphisms"]],
            identities=dict(data["identities"]),
            composition={(e["g"], e["f"]): e["gf"] for e in data["composition"]},
            metadata=data.get("metadata"),
        )


# -- validation -----------------------------------------------------------


def _generating_set(cat: FinCategory) -> list[int]:
    """A generating set S of a total, well-typed table, in index order: a
    morphism joins S when it is not yet in the closure of S and the
    identities under the table's composition.  The closure grows
    incrementally: each element that enters it is composed once with every
    member of S on each side, never rebuilt.  Every element enters as an
    identity, a member of S, or a composite of a member of S with an
    earlier element, which is what Light's test needs."""
    dom, cod, pos, rows = cat._dom_l, cat._cod_l, cat._pos, cat.rows
    n = len(cat.objects)
    seen = bytearray(cat._M)
    for e in cat.identity_set:
        seen[e] = 1
    gens: list[int] = []
    out_of: list[list[int]] = [[] for _ in range(n)]  # members of S by domain
    into: list[list[int]] = [[] for _ in range(n)]  # members of S by codomain
    for m in range(cat._M):
        if seen[m]:
            continue
        gens.append(m)
        out_of[dom[m]].append(m)
        into[cod[m]].append(m)
        seen[m] = 1
        todo = [m]
        while todo:
            y = todo.pop()
            a, p, y_rows = dom[y], pos[y], rows(y)
            # x∘y for x out of cod y, then y∘x for x into dom y
            for z in chain([rows(x)[a][p] for x in out_of[cod[y]]], [y_rows[dom[x]][pos[x]] for x in into[a]]):
                if not seen[z]:
                    seen[z] = 1
                    todo.append(z)
    return gens


def _associative_through(cat: FinCategory, gens: Sequence[int]) -> bool:
    """Whether (h∘g)∘f = h∘(g∘f) for every g in ``gens`` and every
    composable h and f, on a total, well-typed table.  Per (g, h) and source
    object a, the row h∘(g∘-) is rows(h)[a] read at the positions of
    rows(g)[a], compared at once with rows(h∘g)[a]."""
    dom, cod, pos, rows = cat._dom_l, cat._cod_l, cat._pos, cat.rows
    get = pos.__getitem__
    for g in gens:
        b, p = dom[g], pos[g]
        g_pos = [(a, list(map(get, r))) for a, r in enumerate(rows(g)) if r]
        for d in range(len(cat.objects)):
            for h in cat.hom(cod[g], d):
                h_rows = rows(h)
                hg_rows = rows(h_rows[b][p])
                for a, ps in g_pos:
                    if tuple(map(h_rows[a].__getitem__, ps)) != hg_rows[a]:
                        return False
    return True


def _associativity_walk(cat: FinCategory, out: list[Violation], max_violations: int) -> list[Violation]:
    """``out`` plus each triple with h∘(g∘f) != (h∘g)∘f, in (a, b, c, d, h,
    g, f) order for f: a -> b, g: b -> c, h: c -> d, up to ``max_violations``
    in all.  A missing or mistyped g∘f or h∘g, or a missing outer composite,
    masks the triples it enters: the composition-table scans report it."""
    n, ids = len(cat.objects), cat.mor_ids
    dom, cod, pos, rows = cat._dom_l, cat._cod_l, cat._pos, cat.rows
    for a in range(n):
        for b in range(n):
            fs = cat.hom(a, b)
            if not fs:
                continue
            for c in range(n):
                gs = cat.hom(b, c)
                for d in range(n):
                    for h in cat.hom(c, d):
                        h_rows = rows(h)
                        for g in gs:
                            hg = h_rows[b][pos[g]]
                            if hg < 0 or dom[hg] != b or cod[hg] != d:
                                continue
                            for f, gf, hg_f in zip(fs, rows(g)[a], rows(hg)[a]):
                                if gf < 0 or dom[gf] != a or cod[gf] != c:
                                    continue
                                h_gf = h_rows[a][pos[gf]]
                                if h_gf != hg_f and h_gf >= 0 and hg_f >= 0:
                                    out.append(Violation("assoc", {"h": ids[h], "g": ids[g], "f": ids[f]}))
                                    if len(out) >= max_violations:
                                        return out
    return out


def validate(cat: FinCategory, max_violations: int = 50) -> list[Violation]:
    """Re-assert every category axiom by direct scan; return all violations
    found, at most ``max_violations``.

    Associativity is checked through a generating set S of the table
    (``_generating_set``) when the identity, totality, typing and
    identity-law scans found nothing: (h∘g)∘f = h∘(g∘f) for g in S only.
    That is Light's associativity test (Clifford and Preston, *The
    Algebraic Theory of Semigroups* I, §1.2): the morphisms g through which
    the law holds contain the identities and are closed under composition,
    so they are all morphisms once they contain S.  On any earlier finding,
    or when the law fails through some g in S, every composable triple is
    walked (``_associativity_walk``), so the violations and their order do
    not depend on S.

    Extraneous and mistyped entries are reported in (g, f) index order, then
    missing ones in (dom f, cod f, f, cod g, g) order."""
    out: list[Violation] = []
    n = len(cat.objects)
    M = cat._M
    dom = cat._dom_l
    cod = cat._cod_l

    # identities present and well-typed
    for x in range(n):
        i = cat.identity_of.get(x)
        if i is None:
            out.append(Violation("identity-missing", {"object": cat.objects[x]}))
        elif dom[i] != x or cod[i] != x:
            out.append(Violation("identity-typing", {"object": cat.objects[x], "id": cat.mor_ids[i]}))

    # composition: an entry for a pair that does not compose is extraneous,
    # and a row entry outside hom(a, cod g) is mistyped, or missing if -1
    bad: list[tuple[int, int, int | None]] = [(g, f, None) for g, f in cat._extra]
    spans = cat._spans
    for g in range(M):
        for (lo, hi), (f_lo, _), r in zip(spans[cod[g]], spans[dom[g]], cat.rows(g)):
            if r and (min(r) < lo or max(r) >= hi):
                bad += [(g, f, v) for f, v in enumerate(r, f_lo) if not lo <= v < hi]
    for g, f, v in sorted(bad, key=lambda e: e[:2]):
        ids = {"g": cat.mor_ids[g], "f": cat.mor_ids[f]}
        if v is None:
            out.append(Violation("comp-extraneous", ids))
        elif v >= 0:
            out.append(Violation("comp-typing", {**ids, "gf": cat.mor_ids[v]}))
    for _, _, f, _, g in sorted((dom[f], cod[f], f, cod[g], g) for g, f, v in bad if v == -1):
        out.append(Violation("comp-missing", {"g": cat.mor_ids[g], "f": cat.mor_ids[f]}))
        if len(out) >= max_violations:
            return out

    # identity laws
    for i in range(M):
        e_dom = cat.identity_of.get(dom[i])
        e_cod = cat.identity_of.get(cod[i])
        if e_dom is not None and cat.compose(i, e_dom) != i:
            out.append(Violation("identity-law", {"f": cat.mor_ids[i], "side": "right"}))
        if e_cod is not None and cat.compose(e_cod, i) != i:
            out.append(Violation("identity-law", {"f": cat.mor_ids[i], "side": "left"}))
        if len(out) >= max_violations:
            return out

    # associativity through a generating set, on a table found sound so far
    if not out and _associative_through(cat, _generating_set(cat)):
        return out
    return _associativity_walk(cat, out, max_violations)


def validate_category(data: Mapping[str, Any] | FinCategory) -> FinCategory | list[Violation]:
    """Build and fully check a category; the validated category or the violation list."""
    cat = data if isinstance(data, FinCategory) else FinCategory.from_json(data)
    violations = validate(cat)
    return cat if not violations else violations


# -- duality ---------------------------------------------------------------


def dual(cat: FinCategory) -> FinCategory:
    """The opposite category, on the primal's own indexes and table.

    dom and cod are swapped, and so are the rows and columns, which the
    dual holds instead of ``cat``: dual(dual(c)) holds c's very row table.
    hom_op(a, b) is hom(b, a) in the same order, so an index names the same
    thing on both sides.  Each hom-set ascends by id, but the global index
    order is the primal's, not the (dom, cod, id) order of a constructed
    category."""
    meta = dict(cat.metadata)
    kind = meta.get("kind")
    if isinstance(kind, str):
        # builder-specific facts (concrete oracles, carrier sizes as hom
        # bounds) do not transfer to the opposite category
        meta["kind"] = kind[5:] if kind.startswith("dual-") else f"dual-{kind}"
    extra = {(f, g): gf for (g, f), gf in cat._extra.items()}
    return FinCategory._of_ints(
        cat.objects, cat.mor_ids, cat._cod_l, cat._dom_l, cat.identity_of, cat._cols, meta, cat._rows, extra
    )


def dual_of(cat: FinCategory) -> FinCategory:
    """Cached dual; shared by every coextensivity check on this instance.

    ``cat`` holds its dual, and the dual holds ``cat`` back through a weak
    reference (an involution, so the pair is shared both ways), so no
    reference cycle keeps a finished category alive."""
    d = cat._dual
    if isinstance(d, weakref.ref):
        d = d()
    if d is None:
        d = dual(cat)
        d._dual = weakref.ref(cat)
        cat._dual = d
    return d


# -- morphism classification ----------------------------------------------


@cached("iso")
def _iso_info(cat: FinCategory) -> tuple[frozenset[int], dict[int, int]]:
    """The isomorphisms and their inverses, cached.  The inverse of f: a -> b
    is the g in hom(b, a) with f∘g = id_b, read from rows(f)[b], and
    g∘f = id_a, read from rows(g)[a] at f's position.  A dual made by
    ``dual_of`` reads its primal's: f is an iso of C^op exactly when it is
    one of C, with the same inverse."""
    primal = cat._dual() if isinstance(cat._dual, weakref.ref) else None
    if primal is not None:
        return _iso_info(primal)
    dom, cod, pos, rows, ident = cat._dom_l, cat._cod_l, cat._pos, cat.rows, cat.identity_of
    inv: dict[int, int] = {}
    for f in range(cat.n_mor):
        a, b = dom[f], cod[f]
        ia, ib, p = ident.get(a), ident.get(b), pos[f]
        for g, fg in zip(cat.hom(b, a), rows(f)[b]):
            if fg == ib and rows(g)[a][p] == ia:
                inv[f] = g
                break
    return (frozenset(inv), inv)


def is_iso(cat: FinCategory, f: int) -> bool:
    return f in _iso_info(cat)[0]


@cached("monos")
def _mono_set(cat: FinCategory) -> frozenset[int]:
    # f is mono iff u |-> f∘u is injective on hom(y, dom f) for every y
    return frozenset(f for f in range(cat.n_mor) if all(len(set(r)) == len(r) for r in cat.rows(f)))


@cached("epis")
def _epi_set(cat: FinCategory) -> frozenset[int]:
    return _mono_set(dual_of(cat))


@cached("sections")
def _sections(cat: FinCategory) -> dict[int, int]:
    """Each split epi f: a -> b with its first section s in hom(b, a), the
    first id_b in rows(f)[b], in index order.  The split monos with their
    first retractions are ``_sections(dual_of(cat))``."""
    out: dict[int, int] = {}
    for f in range(cat.n_mor):
        a, b = cat._dom_l[f], cat._cod_l[f]
        r, ib = cat.rows(f)[b], cat.identity_of.get(b)
        if ib in r:  # a missing id_b (None) is in no row
            out[f] = cat.hom(b, a)[r.index(ib)]
    return out


@cached("extremal_epis")
def _extremal_epi_set(cat: FinCategory) -> frozenset[int]:
    """f is extremal epi iff every factorization f = m∘i with m mono has m iso.

    Computed in one sweep: every composite through a non-iso mono is excluded.
    """
    isos = _iso_info(cat)[0]
    excluded: set[int] = set()
    for m in _mono_set(cat):
        if m in isos:
            continue
        excluded.update(chain.from_iterable(cat.rows(m)))
    return frozenset(set(range(cat.n_mor)) - excluded)


@cached("regular_epi")
def _is_regular_epi(cat: FinCategory, f: int) -> tuple[bool, tuple[int, int] | None]:
    """Whether f is the coequaliser of some parallel pair, with a witness pair.

    Tries the kernel pair first (if it exists, f is regular epi iff it
    coequalises its own kernel pair); otherwise enumerates parallel pairs.
    """
    from . import limits  # local import: limits builds on this module

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

    def as_dict(self) -> dict:
        d = {k: v for k, v in self.__dict__.items() if k != "witnesses"}
        d["witnesses"] = self.witnesses
        return d


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
    reg_epi, pair = _is_regular_epi(cat, f)
    if pair is not None:
        wit["coequalised_pair"] = [cat.mid(pair[0]), cat.mid(pair[1])]
    reg_mono, dpair = _is_regular_epi(d, f)
    if dpair is not None:
        wit["equalised_pair"] = [cat.mid(dpair[0]), cat.mid(dpair[1])]
    return MorphismProfile(
        morphism=mid,
        is_mono=f in _mono_set(cat),
        is_epi=f in _epi_set(cat),
        is_split_mono=retraction is not None,
        is_split_epi=section is not None,
        is_regular_mono=reg_mono,
        is_regular_epi=reg_epi,
        is_extremal_epi=f in _extremal_epi_set(cat),
        is_iso=f in _iso_info(cat)[0],
        witnesses=wit,
    )


_CLASSES = (
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
    if cls not in _CLASSES:
        raise CategoryDataError(f"unknown morphism class {cls!r} (expected one of {_CLASSES})")
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
        sel = {f for f in range(cat.n_mor) if _is_regular_epi(cat, f)[0]}
    elif cls == "regular-mono":
        sel = {f for f in range(cat.n_mor) if _is_regular_epi(d, f)[0]}
    elif cls == "extremal-epi":
        sel = _extremal_epi_set(cat)
    elif cls == "iso":
        sel = _iso_info(cat)[0]
    elif cls == "identity":
        sel = cat.identity_set
    else:  # coproduct-inclusion, or product-projection as inclusions of the dual
        from . import limits

        sel = limits.coproduct_legs(cat if cls == "coproduct-inclusion" else d)
    return sorted((cat.mid(f) for f in sel))


# -- small constructors -----------------------------------------------------


def thin_category_from_poset(leq: Sequence[Sequence[bool]], names: Sequence[str] | None = None) -> FinCategory:
    """The thin category of a finite preorder: one morphism x->y iff x <= y.

    Any preorder is accepted, not only a poset: points with x <= y <= x
    become distinct isomorphic objects.  A relation that is not transitive
    raises CategoryDataError; one that is not reflexive lacks identities,
    which ``validate`` reports."""
    n = len(leq)
    names = list(names) if names is not None else [f"p{i}" for i in range(n)]
    arrows = [(i, j) for i in range(n) for j in range(n) if leq[i][j]]  # in (dom, cod) order
    index = {a: k for k, a in enumerate(arrows)}
    try:
        # the row of j<=k from i holds i<=k when i <= j
        rows = [[(index[i, k],) if leq[i][j] else () for i in range(n)] for j, k in arrows]
    except KeyError:
        raise CategoryDataError("the order relation is not transitive") from None
    mor_ids = [f"{names[i]}<={names[j]}" for i, j in arrows]
    identity_of = {i: index[i, i] for i in range(n) if leq[i][i]}
    dom, cod = [i for i, _ in arrows], [j for _, j in arrows]
    return FinCategory._of_ints(names, mor_ids, dom, cod, identity_of, rows, {"kind": "poset-as-category"})
