"""The original ``finext.setrel`` kernels, tables and oracle, kept for
differential tests.

The kernels ``compose``, ``opposite``, ``image``, ``preimage`` and
``rel_product`` take Python ints only and test one bit at a time.  The
oracle encodes every relation a second time, as a boolean matrix
(``all_relations``), and reads every composite from a full einsum table
(``compose_table``) re-encoded into masks (``encode``); ``prod-interchange``
builds the product relations with an einsum ``kron`` (``kron_table``) and
a full table on the
product carrier.  The library runs one kernel family on bit planes and
checks each identity on one grid of the relations it reads.

Running ``oracle_suite(9, 4)`` here takes about 18 s and 2.4 GB, and
``oracle_suite(16, 3)`` cannot allocate its (4, 4, 4) table.
"""

from __future__ import annotations

import itertools

import numpy as np


def compose(r: int, s: int, nx: int, ny: int, nz: int) -> int:
    """(i,k) related iff some j has (i,j) in r and (j,k) in s."""
    rows_s = [(s >> (j * nz)) & ((1 << nz) - 1) for j in range(ny)]
    out = 0
    for i in range(nx):
        row_r = (r >> (i * ny)) & ((1 << ny) - 1)
        acc = 0
        for j in range(ny):
            if row_r >> j & 1:
                acc |= rows_s[j]
        out |= acc << (i * nz)
    return out


def opposite(r: int, nx: int, ny: int) -> int:
    out = 0
    for i in range(nx):
        for j in range(ny):
            if r >> (i * ny + j) & 1:
                out |= 1 << (j * nx + i)
    return out


def delta(n: int) -> int:
    return sum(1 << (i * n + i) for i in range(n))


def nabla(nx: int, ny: int) -> int:
    return (1 << (nx * ny)) - 1


def image(f: tuple[int, ...], r: int, nx: int, ny: int) -> int:
    """Image of a relation on X under f: X -> Y applied to both coordinates."""
    out = 0
    for i in range(nx):
        for j in range(nx):
            if r >> (i * nx + j) & 1:
                out |= 1 << (f[i] * ny + f[j])
    return out


def preimage(f: tuple[int, ...], r: int, nx: int, ny: int) -> int:
    """Preimage of a relation on Y under f: X -> Y."""
    out = 0
    for i in range(nx):
        for j in range(nx):
            if r >> (f[i] * ny + f[j]) & 1:
                out |= 1 << (i * nx + j)
    return out


def eq_mask(f: tuple[int, ...], nx: int) -> int:
    """Kernel relation of f as a relation on X."""
    out = 0
    for i in range(nx):
        for j in range(nx):
            if f[i] == f[j]:
                out |= 1 << (i * nx + j)
    return out


def rel_product(r: int, s: int, nx: int, ny: int) -> int:
    """Product of r on X and s on Y as a relation on X x Y, where the pair
    (i, a) is element i*ny + a of the product carrier."""
    n = nx * ny
    out = 0
    for i in range(nx):
        for j in range(nx):
            if not (r >> (i * nx + j) & 1):
                continue
            for a in range(ny):
                for b in range(ny):
                    if s >> (a * ny + b) & 1:
                        out |= 1 << ((i * ny + a) * n + (j * ny + b))
    return out


def is_reflexive(r: int, n: int) -> bool:
    return (r & delta(n)) == delta(n)


def is_symmetric(r: int, n: int) -> bool:
    return opposite(r, n, n) == r


def is_transitive(r: int, n: int) -> bool:
    c = compose(r, r, n, n, n)
    return (c | r) == r


# -- vectorized tables for the exhaustive suite ------------------------------------


def all_relations(nx: int, ny: int) -> np.ndarray:
    """Boolean matrices of every relation mask, shape (2^(nx*ny), nx, ny)."""
    count = 1 << (nx * ny)
    bits = (np.arange(count, dtype=np.uint32)[:, None] >> np.arange(nx * ny)) & 1
    return bits.astype(bool).reshape(count, nx, ny)


def encode(mats: np.ndarray) -> np.ndarray:
    """Inverse of all_relations: matrices -> mask indexes."""
    k, nx, ny = mats.shape
    weights = (1 << np.arange(nx * ny, dtype=np.int64)).reshape(nx, ny)
    return (mats.astype(np.int64) * weights).sum(axis=(1, 2))


def compose_table(nx: int, ny: int, nz: int) -> np.ndarray:
    """comp[r, s] = mask index of the composite, full table."""
    R = all_relations(nx, ny)
    S = all_relations(ny, nz)
    prod = np.einsum("aij,bjk->abik", R.astype(np.uint8), S.astype(np.uint8)) > 0
    nr, ns = R.shape[0], S.shape[0]
    return encode(prod.reshape(nr * ns, nx, nz)).reshape(nr, ns)


def image_table(f: tuple[int, ...], nx: int, ny: int) -> np.ndarray:
    """img[r] = mask index of the image relation on Y under f, for r on X."""
    R = all_relations(nx, nx)
    out = np.zeros((R.shape[0], ny, ny), dtype=bool)
    fi = np.asarray(f, dtype=np.intp)
    for i in range(nx):
        for j in range(nx):
            out[:, fi[i], fi[j]] |= R[:, i, j]
    return encode(out)


def preimage_table(f: tuple[int, ...], nx: int, ny: int) -> np.ndarray:
    """pre[r] = mask index of the preimage relation on X, for r on Y."""
    R = all_relations(ny, ny)
    fi = np.asarray(f, dtype=np.intp)
    out = R[:, fi[:, None], fi[None, :]]
    return encode(out)


def kron_table(nx: int, ny: int) -> np.ndarray:
    """kron[r, s] = mask index of the product of r on X and s on Y, in
    rel_product's bit layout."""
    n = nx * ny
    Rm = all_relations(nx, nx).astype(np.uint8)
    Sm = all_relations(ny, ny).astype(np.uint8)
    return encode(
        np.einsum("aij,bkl->abikjl", Rm, Sm).reshape(
            Rm.shape[0] * Sm.shape[0], n, n
        ).astype(bool)
    ).reshape(Rm.shape[0], Sm.shape[0])


def _subset(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return (a & ~b) == 0


def _functions(nx: int, ny: int):
    return itertools.product(range(ny), repeat=nx)


def _surjections(nx: int, ny: int):
    for f in _functions(nx, ny):
        if len(set(f)) == ny:
            yield f


ORACLE_IDENTITY_IDS = (
    "delta-unit",
    "nabla-absorb",
    "img-lax-functorial",
    "transitive-idempotent",
    "prod-interchange",
    "img-preimg",
    "preimg-img",
    "img-of-preimg-comp",
)


def _shapes(cap: int, max_size: int = 3):
    for nx in range(max_size + 1):
        for ny in range(max_size + 1):
            if nx * ny <= cap:
                yield nx, ny


def lemma_eq_under_regepi(n1: int, n2: int) -> tuple[int, dict | None, int]:
    """(instances, first counterexample, failures) of the lemma on X1 x X2,
    one equivalence relation at a time."""
    n = n1 * n2
    p1 = tuple(i // n2 for i in range(n))
    p2 = tuple(i % n2 for i in range(n))
    inst = fails = 0
    ex = None
    for e in range(1 << (n * n)):
        if not (is_reflexive(e, n) and is_symmetric(e, n) and is_transitive(e, n)):
            continue
        e1 = image(p1, e, n, n1)
        e2 = image(p2, e, n, n2)
        if rel_product(e1, e2, n1, n2) != e:
            continue
        inst += 1
        for ei, ni in ((e1, n1), (e2, n2)):
            if not (is_reflexive(ei, ni) and is_symmetric(ei, ni) and is_transitive(ei, ni)):
                fails += 1
                if ex is None:
                    ex = {"n1": n1, "n2": n2, "e": e}
    return inst, ex, fails


def oracle_suite(cap: int = 9, max_size: int = 3) -> dict[str, dict]:
    """Exhaustively verify the eight relation-calculus identities plus the
    image-of-equivalence lemma over every carrier pair with ambient <= cap.

    Returns {identity id: {"instances": n, "failures": k, "counterexample": ...}}.
    """
    res = {i: {"instances": 0, "failures": 0, "counterexample": None} for i in ORACLE_IDENTITY_IDS}
    res["lemma-eq-under-regepi"] = {"instances": 0, "failures": 0, "counterexample": None}

    def record(key, ok_count, fail_exemplar=None, fails=0):
        res[key]["instances"] += int(ok_count)
        if fails:
            res[key]["failures"] += int(fails)
            if res[key]["counterexample"] is None:
                res[key]["counterexample"] = fail_exemplar

    comp_cache: dict[tuple[int, int, int], np.ndarray] = {}

    def comp_t(nx, ny, nz):
        k = (nx, ny, nz)
        if k not in comp_cache:
            comp_cache[k] = compose_table(nx, ny, nz)
        return comp_cache[k]

    # delta-unit: compose(delta_X, r) == r == compose(r, delta_Y)
    for nx, ny in _shapes(cap, max_size):
        nr = 1 << (nx * ny)
        rs = np.arange(nr)
        left = comp_t(nx, nx, ny)[delta(nx), rs]
        right = comp_t(nx, ny, ny)[rs, delta(ny)]
        bad = (left != rs) | (right != rs)
        record("delta-unit", nr - bad.sum(), {"nx": nx, "ny": ny, "r": int(rs[bad][0]) if bad.any() else None}, bad.sum())

    # nabla-absorb: for reflexive r on X: r∘nabla == nabla == nabla∘r
    for nx in range(max_size + 1):
        if nx * nx > cap:
            continue
        nr = 1 << (nx * nx)
        rs = np.arange(nr)
        d, nb = delta(nx), nabla(nx, nx)
        refl = (rs & d) == d
        t = comp_t(nx, nx, nx)
        bad = refl & ((t[rs, nb] != nb) | (t[nb, rs] != nb))
        record("nabla-absorb", refl.sum() - bad.sum(), {"nx": nx, "r": int(rs[bad][0]) if bad.any() else None}, bad.sum())

    # img-lax-functorial: f(r∘s) <= f(r)∘f(s), r and s on X, any f: X -> Y
    for nx in range(max_size + 1):
        if nx * nx > cap:
            continue
        for ny in range(max_size + 1):
            if ny * ny > cap:
                continue
            tx = comp_t(nx, nx, nx)
            ty = comp_t(ny, ny, ny)
            nr = 1 << (nx * nx)
            rs = np.arange(nr)
            for f in _functions(nx, ny):
                img = image_table(f, nx, ny)
                lhs = img[tx[rs[:, None], rs[None, :]]]
                rhs = ty[img[rs][:, None], img[rs][None, :]]
                ok = _subset(lhs, rhs)
                fails = (~ok).sum()
                ex = None
                if fails:
                    i, j = np.argwhere(~ok)[0]
                    ex = {"nx": nx, "ny": ny, "f": list(f), "r": int(rs[i]), "s": int(rs[j])}
                record("img-lax-functorial", ok.sum(), ex, fails)

    # transitive-idempotent: reflexive r: transitive <-> r == r∘r
    for nx in range(max_size + 1):
        if nx * nx > cap:
            continue
        nr = 1 << (nx * nx)
        rs = np.arange(nr)
        d = delta(nx)
        refl = (rs & d) == d
        t = comp_t(nx, nx, nx)
        rr = t[rs, rs]
        trans = (rr & ~rs) == 0
        idem = rr == rs
        bad = refl & (trans != idem)
        record("transitive-idempotent", refl.sum() - bad.sum(), {"nx": nx, "r": int(rs[bad][0]) if bad.any() else None}, bad.sum())

    # prod-interchange: (r∘r') x (s∘s') == (r x s)∘(r' x s'), endorelations.
    # All relations in the instance (the product included) respect the cap,
    # so the combined carrier nx*ny is capped too.
    for nx in range(max_size + 1):
        for ny in range(max_size + 1):
            n = nx * ny
            if nx * nx > cap or ny * ny > cap or n * n > cap:
                continue
            tx = comp_t(nx, nx, nx)
            ty = comp_t(ny, ny, ny)
            tn = comp_t(n, n, n)
            kron = kron_table(nx, ny)
            nrx, nry = kron.shape
            r_idx = np.arange(nrx)
            s_idx = np.arange(nry)
            lhs = kron[tx[r_idx[:, None, None, None], r_idx[None, :, None, None]],
                       ty[s_idx[None, None, :, None], s_idx[None, None, None, :]]]
            rhs = tn[kron[r_idx[:, None, None, None], s_idx[None, None, :, None]],
                     kron[r_idx[None, :, None, None], s_idx[None, None, None, :]]]
            ok = lhs == rhs
            fails = int((~ok).sum())
            ex = None
            if fails:
                r, rp, s, sp = (int(v) for v in np.argwhere(~ok)[0])
                ex = {"nx": nx, "ny": ny, "r": r, "rp": rp, "s": s, "sp": sp}
            record("prod-interchange", int(ok.sum()), ex, fails)

    # img-preimg: surjective f: X -> Y, r on Y: f(f^{-1}(r)) == r
    # preimg-img: surjective f, r on X: f^{-1}(f(r)) == eq(f)∘r∘eq(f)
    # img-of-preimg-comp: surjective f, r,s on Y: f(f^{-1}(r)∘f^{-1}(s)) == r∘s
    for nx in range(max_size + 1):
        if nx * nx > cap:
            continue
        for ny in range(max_size + 1):
            if ny * ny > cap:
                continue
            tx = comp_t(nx, nx, nx)
            ty = comp_t(ny, ny, ny)
            nrx = 1 << (nx * nx)
            nry = 1 << (ny * ny)
            rx = np.arange(nrx)
            ry = np.arange(nry)
            for f in _surjections(nx, ny):
                img = image_table(f, nx, ny)
                pre = preimage_table(f, nx, ny)
                bad = img[pre[ry]] != ry
                record("img-preimg", nry - bad.sum(), {"nx": nx, "ny": ny, "f": list(f), "r": int(ry[bad][0]) if bad.any() else None}, bad.sum())

                e = eq_mask(f, nx)
                lhs = pre[img[rx]]
                rhs = tx[tx[e, rx], e]
                bad = lhs != rhs
                record("preimg-img", nrx - bad.sum(), {"nx": nx, "ny": ny, "f": list(f), "r": int(rx[bad][0]) if bad.any() else None}, bad.sum())

                lhs = img[tx[pre[ry][:, None], pre[ry][None, :]]]
                rhs = ty[ry[:, None], ry[None, :]]
                ok = lhs == rhs
                fails = (~ok).sum()
                ex = None
                if fails:
                    i, j = np.argwhere(~ok)[0]
                    ex = {"nx": nx, "ny": ny, "f": list(f), "r": int(ry[i]), "s": int(ry[j])}
                record("img-of-preimg-comp", ok.sum(), ex, fails)

    # lemma-eq-under-regepi: X = X1 x X2, E equivalence with E = p1(E) x p2(E)
    # implies both images are equivalences.
    for n1 in range(1, max_size + 1):
        for n2 in range(1, max_size + 1):
            n = n1 * n2
            if n * n > cap:
                continue
            record("lemma-eq-under-regepi", *lemma_eq_under_regepi(n1, n2))

    return res
