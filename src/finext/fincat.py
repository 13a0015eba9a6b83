"""Explicit finite categories.

A category is a finite list of objects, a finite list of morphisms with
declared domain/codomain, a chosen identity per object, and a total
composition table over composable pairs.  Everything downstream (limits,
extensivity checks, the relation calculus) is decided by exhaustive scans
over this data, so the table itself is re-checkable: ``validate`` re-asserts
every axiom and reports each violation instead of repairing anything.

Morphism and object ids are strings at the boundary; internally both are
dense integer indexes so the hot scans stay cheap.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

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
        if len(set(objects)) != len(objects):
            raise CategoryDataError("duplicate object ids")
        self.objects: tuple[str, ...] = tuple(objects)
        self.obj_index: dict[str, int] = {x: i for i, x in enumerate(self.objects)}

        seen = set()
        for mid, d, c in morphisms:
            if mid in seen:
                raise CategoryDataError(f"duplicate morphism id {mid!r}")
            seen.add(mid)
            if d not in self.obj_index or c not in self.obj_index:
                raise CategoryDataError(f"morphism {mid!r} has unknown dom/cod")

        # Deterministic internal order of a constructed category: by
        # (dom, cod, id).  ``dual`` keeps its primal's order instead.
        ordered = sorted(morphisms, key=lambda m: (self.obj_index[m[1]], self.obj_index[m[2]], m[0]))
        self.mor_ids: tuple[str, ...] = tuple(m[0] for m in ordered)
        self.mor_index: dict[str, int] = {m: i for i, m in enumerate(self.mor_ids)}
        self.n_mor = len(self.mor_ids)
        self.dom = np.fromiter((self.obj_index[m[1]] for m in ordered), dtype=np.int32, count=self.n_mor)
        self.cod = np.fromiter((self.obj_index[m[2]] for m in ordered), dtype=np.int32, count=self.n_mor)
        self._dom_l = self.dom.tolist()
        self._cod_l = self.cod.tolist()

        self.identity_of: dict[int, int] = {}
        for x, mid in identities.items():
            if x not in self.obj_index:
                raise CategoryDataError(f"identity declared for unknown object {x!r}")
            if mid not in self.mor_index:
                raise CategoryDataError(f"identity {mid!r} of {x!r} is not a declared morphism")
            self.identity_of[self.obj_index[x]] = self.mor_index[mid]
        self.identity_set = frozenset(self.identity_of.values())

        M = self.n_mor
        self._M = M
        comp: dict[int, int] = {}
        for (g, f), gf in composition.items():
            if g not in self.mor_index or f not in self.mor_index or gf not in self.mor_index:
                raise CategoryDataError(f"composition entry ({g!r},{f!r})->{gf!r} uses unknown ids")
            comp[self.mor_index[g] * M + self.mor_index[f]] = self.mor_index[gf]
        self._comp = comp

        self.metadata: dict[str, Any] = dict(metadata or {})

        # hom-sets as sorted int lists; hom_counts[a, b] = |hom(a, b)|
        n = len(self.objects)
        hom: dict[int, list[int]] = {}
        for i in range(M):
            key = self._dom_l[i] * n + self._cod_l[i]
            hom.setdefault(key, []).append(i)
        self._hom = hom
        self.hom_counts = np.zeros((n, n), dtype=np.int64)
        for key, ms in hom.items():
            self.hom_counts[key // n, key % n] = len(ms)
        self._hom_counts_l = self.hom_counts.tolist()

        self._cache: dict[str, Any] = {}
        self._blocks: dict[tuple[int, int, int], np.ndarray] = {}

    # -- basic accessors (int side) -------------------------------------

    def hom(self, a: int, b: int) -> list[int]:
        return self._hom.get(a * len(self.objects) + b, [])

    def compose(self, g: int, f: int) -> int | None:
        """g∘f (f first), or None if the pair is not in the table."""
        return self._comp.get(g * self._M + f)

    def block(self, a: int, b: int, c: int) -> np.ndarray:
        """Composition block: array[gi, fi] = index of g∘f over hom(b,c) x hom(a,b)."""
        key = (a, b, c)
        blk = self._blocks.get(key)
        if blk is None:
            fs = self.hom(a, b)
            gs = self.hom(b, c)
            M = self._M
            comp = self._comp
            blk = np.fromiter(
                (comp.get(g * M + f, -1) for g in gs for f in fs),
                dtype=np.int32,
                count=len(fs) * len(gs),
            ).reshape(len(gs), len(fs))
            self._blocks[key] = blk
        return blk

    def pos_in_hom(self, m: int) -> int:
        cache = self._cache.setdefault("pos_in_hom", {})
        p = cache.get(m)
        if p is None:
            p = self.hom(self._dom_l[m], self._cod_l[m]).index(m)
            cache[m] = p
        return p

    def postcompose_fibers(self, g: int, src: int) -> dict[int, list[int]]:
        """For g: B->C, the fibers of hom(src,B) -> hom(src,C), t |-> g∘t."""
        cache = self._cache.setdefault("post_fibers", {})
        key = (g, src)
        fib = cache.get(key)
        if fib is None:
            fib = {}
            row = self.block(src, self._dom_l[g], self._cod_l[g])[self.pos_in_hom(g)]
            ts = self.hom(src, self._dom_l[g])
            for t, gt in zip(ts, row.tolist()):
                fib.setdefault(gt, []).append(t)
            cache[key] = fib
        return fib

    def precompose_fibers(self, f: int, dst: int) -> dict[int, list[int]]:
        """For f: A->B, the fibers of hom(B,dst) -> hom(A,dst), t |-> t∘f."""
        cache = self._cache.setdefault("pre_fibers", {})
        key = (f, dst)
        fib = cache.get(key)
        if fib is None:
            fib = {}
            col = self.block(self._dom_l[f], self._cod_l[f], dst)[:, self.pos_in_hom(f)]
            ts = self.hom(self._cod_l[f], dst)
            for t, tf in zip(ts, col.tolist()):
                fib.setdefault(tf, []).append(t)
            cache[key] = fib
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
        return {
            "objects": list(self.objects),
            "morphisms": [
                {"id": self.mor_ids[i], "dom": self.objects[self._dom_l[i]], "cod": self.objects[self._cod_l[i]]}
                for i in range(self.n_mor)
            ],
            "identities": {self.objects[x]: self.mor_ids[m] for x, m in sorted(self.identity_of.items())},
            "composition": [
                {"g": self.mor_ids[k // self._M], "f": self.mor_ids[k % self._M], "gf": self.mor_ids[v]}
                for k, v in sorted(self._comp.items())
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


def _positions_in(hom: list[int], ms: np.ndarray) -> np.ndarray:
    """Position of each morphism of ``ms`` in the ascending hom-set list
    ``hom``, or -1 where it is not a member."""
    if not hom:
        return np.full(ms.shape, -1, dtype=np.int32)
    hom_arr = np.asarray(hom, dtype=ms.dtype)
    pos = np.searchsorted(hom_arr, ms)
    hit = hom_arr[np.minimum(pos, len(hom) - 1)] == ms
    return np.where(hit, pos, -1).astype(np.int32)


def validate(cat: FinCategory, max_violations: int = 50) -> list[Violation]:
    """Re-assert every category axiom by direct scan; return all violations found."""
    out: list[Violation] = []
    n = len(cat.objects)
    M = cat._M
    comp = cat._comp
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
    if n_composable != len(comp):
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
                gf = cat.block(a, b, c)  # [g, f] -> g∘f in hom(a,c)
                for d in range(n):
                    if not cat._hom_counts_l[c][d]:
                        continue
                    hg = cat.block(b, c, d)  # [h, g] -> h∘g in hom(b,d)
                    # left: h∘(g∘f): positions of g∘f inside hom(a,c).
                    # Missing or mistyped composites resolve to -1 and the
                    # affected triples are masked out below; they are already
                    # reported by the composition-table scans above.
                    gf_pos = _positions_in(cat.hom(a, c), gf)
                    h_acd = cat.block(a, c, d)  # [h, x] for x in hom(a,c)
                    # right: (h∘g)∘f
                    hg_pos = _positions_in(cat.hom(b, d), hg)
                    x_abd = cat.block(a, b, d)  # [y, f] for y in hom(b,d)
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


def validate_category(data: Mapping[str, Any] | FinCategory) -> FinCategory | list[Violation]:
    """Build and fully check a category; the validated category or the violation list."""
    cat = data if isinstance(data, FinCategory) else FinCategory.from_json(data)
    violations = validate(cat)
    return cat if not violations else violations


# -- duality ---------------------------------------------------------------


def dual(cat: FinCategory) -> FinCategory:
    """The opposite category, on the primal's own indexes.

    The dual shares ``objects``, ``mor_ids``, ``mor_index``, the identities
    and every hom-set list with ``cat``: dom and cod are swapped, each
    composition key g∘f becomes f∘g, and hom_op(a, b) is the list of
    hom(b, a).  So an object or morphism index names the same thing on both
    sides, and dual(dual(c)) equals c index for index.  The only order
    invariant is that each hom-set list ascends by id; the global index
    order is the primal's, not the (dom, cod, id) order of a constructed
    category."""
    M = cat._M
    n = len(cat.objects)
    meta = dict(cat.metadata)
    kind = meta.get("kind")
    if isinstance(kind, str):
        # builder-specific facts (concrete oracles, carrier sizes as hom
        # bounds) do not transfer to the opposite category
        meta["kind"] = kind[5:] if kind.startswith("dual-") else f"dual-{kind}"
    d = FinCategory.__new__(FinCategory)
    d.objects, d.obj_index = cat.objects, cat.obj_index
    d.mor_ids, d.mor_index, d.n_mor, d._M = cat.mor_ids, cat.mor_index, cat.n_mor, M
    d.dom, d.cod, d._dom_l, d._cod_l = cat.cod, cat.dom, cat._cod_l, cat._dom_l
    d.identity_of, d.identity_set = cat.identity_of, cat.identity_set
    d._comp = {(k % M) * M + k // M: v for k, v in cat._comp.items()}
    d.metadata = meta
    d._hom = {(k % n) * n + k // n: ms for k, ms in cat._hom.items()}
    d.hom_counts = cat.hom_counts.T.copy()
    d._hom_counts_l = d.hom_counts.tolist()
    d._cache = {}
    d._blocks = {}
    return d


def dual_of(cat: FinCategory) -> FinCategory:
    """Cached dual; shared by every coextensivity check on this instance."""
    d = cat._cache.get("dual")
    if d is None:
        d = dual(cat)
        d._cache["dual"] = cat  # an involution, so share the pair
        cat._cache["dual"] = d
    return d


# -- morphism classification ----------------------------------------------


def _iso_info(cat: FinCategory) -> tuple[frozenset[int], dict[int, int]]:
    info = cat._cache.get("iso")
    if info is None:
        isos: set[int] = set()
        inv: dict[int, int] = {}
        for f in range(cat.n_mor):
            a, b = cat._dom_l[f], cat._cod_l[f]
            ia, ib = cat.identity_of.get(a), cat.identity_of.get(b)
            for g in cat.hom(b, a):
                if cat.compose(g, f) == ia and cat.compose(f, g) == ib:
                    isos.add(f)
                    inv[f] = g
                    break
        info = (frozenset(isos), inv)
        cat._cache["iso"] = info
    return info


def is_iso(cat: FinCategory, f: int) -> bool:
    return f in _iso_info(cat)[0]


def _mono_set(cat: FinCategory) -> frozenset[int]:
    s = cat._cache.get("monos")
    if s is None:
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
                    blk = cat.block(y, a, b)  # [f, u] -> f∘u
                    for i in np.nonzero(ok)[0]:
                        row = blk[i]
                        if len(np.unique(row)) != k:
                            ok[i] = False
                monos.update(fs[i] for i in np.nonzero(ok)[0])
        s = frozenset(monos)
        cat._cache["monos"] = s
    return s


def _epi_set(cat: FinCategory) -> frozenset[int]:
    s = cat._cache.get("epis")
    if s is None:
        s = _mono_set(dual_of(cat))
        cat._cache["epis"] = s
    return s


def _split_mono_witness(cat: FinCategory, f: int) -> int | None:
    a, b = cat._dom_l[f], cat._cod_l[f]
    ia = cat.identity_of.get(a)
    for r in cat.hom(b, a):
        if cat.compose(r, f) == ia:
            return r
    return None


def _extremal_epi_set(cat: FinCategory) -> frozenset[int]:
    """f is extremal epi iff every factorization f = m∘i with m mono has m iso.

    Computed in one sweep: every composite through a non-iso mono is excluded.
    """
    s = cat._cache.get("extremal_epis")
    if s is None:
        isos = _iso_info(cat)[0]
        excluded: set[int] = set()
        for m in _mono_set(cat):
            if m in isos:
                continue
            y = cat._dom_l[m]
            for a in range(len(cat.objects)):
                if not cat._hom_counts_l[a][y]:
                    continue
                row = cat.block(a, y, cat._cod_l[m])[cat.pos_in_hom(m)]
                excluded.update(row.tolist())
        s = frozenset(set(range(cat.n_mor)) - excluded)
        cat._cache["extremal_epis"] = s
    return s


def _is_regular_epi(cat: FinCategory, f: int) -> tuple[bool, tuple[int, int] | None]:
    """Whether f is the coequaliser of some parallel pair, with a witness pair.

    Tries the kernel pair first (if it exists, f is regular epi iff it
    coequalises its own kernel pair); otherwise enumerates parallel pairs.
    """
    cache = cat._cache.setdefault("regular_epi", {})
    if f in cache:
        return cache[f]
    from . import limits  # local import: limits builds on this module

    res: tuple[bool, tuple[int, int] | None] = (False, None)
    if f not in _epi_set(cat):
        # a coequaliser is always epi, so no pair can work
        cache[f] = res
        return res
    kp = limits.kernel_pair(cat, f)
    if kp is not None:
        u, v = kp[1], kp[2]
        if limits.is_coequaliser(cat, u, v, f):
            res = (True, (u, v))
        cache[f] = res
        return res
    a = cat._dom_l[f]
    M = cat._M
    for y in range(len(cat.objects)):
        hy = cat.hom(y, a)
        for u in hy:
            fu = cat._comp[f * M + u]
            for v in hy:
                if v < u:
                    continue
                if cat._comp[f * M + v] != fu:
                    continue
                if limits.is_coequaliser(cat, u, v, f):
                    res = (True, (u, v))
                    cache[f] = res
                    return res
    cache[f] = res
    return res


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
    section = _split_mono_witness(cat, f)
    retraction = _split_mono_witness(d, f)  # split epi in cat
    if section is not None:
        wit["retraction"] = cat.mid(section)
    if retraction is not None:
        wit["section"] = cat.mid(retraction)
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
        is_split_mono=section is not None,
        is_split_epi=retraction is not None,
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
        sel = {f for f in range(cat.n_mor) if _split_mono_witness(cat, f) is not None}
    elif cls == "split-epi":
        sel = {f for f in range(cat.n_mor) if _split_mono_witness(d, f) is not None}
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

        work = cat if cls == "coproduct-inclusion" else d
        sel = set()
        for x in range(len(cat.objects)):
            for u, v in limits.coproduct_bases(work, x):
                sel.add(u)
                sel.add(v)
    return sorted((cat.mid(f) for f in sel))


# -- small constructors -----------------------------------------------------


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
