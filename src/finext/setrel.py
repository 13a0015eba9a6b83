"""Concrete set-relation oracle.

Relations between finite sets X = {0..nx-1} and Y = {0..ny-1} are encoded as
bitmasks: pair (i, j) is bit i*ny + j.  Everything here is computed directly
from the masks — no category machinery — so it serves as an independent
oracle for the categorical relation calculus.

The kernels (`compose`, `opposite`, `image`, `preimage`, `rel_product`) use
only shifts, ands, ors and the negation of one bit, so each takes Python ints
or int64 numpy arrays of masks, which broadcast like arithmetic operands.
Composition is `compose(r, s)` with r: X -> Y and s: Y -> Z giving "first r,
then s" from X to Z.

The identity suite enumerates every relation on every ambient X x Y with
nx*ny <= cap and every function between the carriers involved, and checks the
relation-calculus laws exhaustively by calling the kernels on
`np.arange(1 << bits)`.  Each identity composes only the pairs it reads.
`img-lax-functorial` and `img-of-preimg-comp` read every pair of
endorelations on one carrier (n*n <= cap, so n <= 3 at the default cap), so
those composites form one full table per carrier, built once per call and
shared by the identities on endorelations.  `delta-unit` composes delta with
every relation directly, and `prod-interchange` composes only the product
relations it compares, so no table is built on a carrier of 4 or on a
product carrier.  `oracle_masks` is the size of the largest array a call
builds, which the CLI holds to `ORACLE_MASK_LIMIT` before starting one.
"""

from __future__ import annotations

import itertools
from typing import Iterable

import numpy as np

__all__ = [
    "compose",
    "opposite",
    "delta",
    "nabla",
    "image",
    "preimage",
    "eq_mask",
    "rel_product",
    "is_reflexive",
    "is_symmetric",
    "is_transitive",
    "mask_of",
    "oracle_suite",
    "oracle_masks",
    "ORACLE_MASK_LIMIT",
    "ORACLE_IDENTITY_IDS",
]

ORACLE_MASK_LIMIT = 1 << 24  # masks in one oracle array: 128 MB of int64


def mask_of(pairs: Iterable[tuple[int, int]], nx: int, ny: int) -> int:
    m = 0
    for i, j in pairs:
        m |= 1 << (i * ny + j)
    return m


# The kernels start from `x & 0`, zero in the shape of their arguments, so a
# kernel on empty carriers still returns one mask per input.  `compose` and
# `rel_product` spread each argument over the result's bits on its own shape
# and meet the two with one and, so arguments broadcast cheaply.


def compose(r, s, nx: int, ny: int, nz: int):
    """(i,k) related iff some j has (i,j) in r and (j,k) in s: the union over
    j of (the rows i with (i,j) in r) meeting (row j of s in every row)."""
    row = (1 << nz) - 1
    out = r & s & 0
    for j in range(ny):
        s_j = s >> (j * nz) & row
        rows, tiled = r & 0, s & 0
        for i in range(nx):
            rows |= (-(r >> (i * ny + j) & 1) & row) << (i * nz)
            tiled |= s_j << (i * nz)
        out |= rows & tiled
    return out


def opposite(r, nx: int, ny: int):
    out = r & 0
    for i in range(nx):
        for j in range(ny):
            out |= (r >> (i * ny + j) & 1) << (j * nx + i)
    return out


def delta(n: int) -> int:
    return sum(1 << (i * n + i) for i in range(n))


def nabla(nx: int, ny: int) -> int:
    return (1 << (nx * ny)) - 1


def image(f: tuple[int, ...], r, nx: int, ny: int):
    """Image of a relation on X under f: X -> Y applied to both coordinates."""
    out = r & 0
    for i in range(nx):
        for j in range(nx):
            out |= (r >> (i * nx + j) & 1) << (f[i] * ny + f[j])
    return out


def preimage(f: tuple[int, ...], r, nx: int, ny: int):
    """Preimage of a relation on Y under f: X -> Y."""
    out = r & 0
    for i in range(nx):
        for j in range(nx):
            out |= (r >> (f[i] * ny + f[j]) & 1) << (i * nx + j)
    return out


def eq_mask(f: tuple[int, ...], nx: int) -> int:
    """Kernel relation of f as a relation on X."""
    out = 0
    for i in range(nx):
        for j in range(nx):
            if f[i] == f[j]:
                out |= 1 << (i * nx + j)
    return out


def rel_product(r, s, nx: int, ny: int):
    """Product of r on X and s on Y as a relation on X x Y, where the pair
    (i, a) is element i*ny + a of the product carrier."""
    n = nx * ny
    row = (1 << ny) - 1
    # pairs (i, j) of r and (a, b) of s meet at bit (i*ny + a)*n + j*ny + b:
    # the block of (i, j) starts at bit i*ny*n + j*ny and holds (a, b) at a*n + b
    block, spread = 0, s & 0
    for a in range(ny):
        block |= row << (a * n)
        spread |= (s >> (a * ny) & row) << (a * n)
    rows, tiled = r & 0, s & 0
    for i in range(nx):
        for j in range(nx):
            at = i * ny * n + j * ny
            rows |= (-(r >> (i * nx + j) & 1) & block) << at
            tiled |= spread << at
    return rows & tiled


def is_reflexive(r, n: int):
    return (r & delta(n)) == delta(n)


def is_symmetric(r, n: int):
    return opposite(r, n, n) == r


def is_transitive(r, n: int):
    return (compose(r, r, n, n, n) | r) == r


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


def oracle_masks(cap: int = 9, max_size: int = 3) -> int:
    """The number of masks in the largest array `oracle_suite(cap, max_size)`
    builds: a four-axis prod-interchange grid (with one empty carrier, a
    composite table) or the relations on the lemma's product carrier.  The
    relations of one shape, at most 2**cap, never exceed the largest grid."""
    ns = [n for n in range(max_size + 1) if n * n <= cap]
    grids = [1 << 2 * (nx * nx + ny * ny) for nx in ns for ny in ns if (nx * ny) ** 2 <= cap]
    ps = [n1 * n2 for n1 in range(1, max_size + 1) for n2 in range(1, max_size + 1)]
    return max(grids + [1 << (n * n) for n in ps if n * n <= cap])


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

    tables: dict[int, np.ndarray] = {}

    def table(n):
        """table(n)[r, s] = compose(r, s) for all endorelations r, s on n points."""
        if n not in tables:
            rs = np.arange(1 << (n * n))
            tables[n] = compose(rs[:, None], rs[None, :], n, n, n)
        return tables[n]

    # delta-unit: compose(delta_X, r) == r == compose(r, delta_Y)
    for nx, ny in _shapes(cap, max_size):
        nr = 1 << (nx * ny)
        rs = np.arange(nr)
        left = compose(delta(nx), rs, nx, nx, ny)
        right = compose(rs, delta(ny), nx, ny, ny)
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
        t = table(nx)
        bad = refl & ((t[rs, nb] != nb) | (t[nb, rs] != nb))
        record("nabla-absorb", refl.sum() - bad.sum(), {"nx": nx, "r": int(rs[bad][0]) if bad.any() else None}, bad.sum())

    # img-lax-functorial: f(r∘s) <= f(r)∘f(s), r and s on X, any f: X -> Y
    for nx in range(max_size + 1):
        if nx * nx > cap:
            continue
        for ny in range(max_size + 1):
            if ny * ny > cap:
                continue
            tx = table(nx)
            ty = table(ny)
            rs = np.arange(1 << (nx * nx))
            for f in _functions(nx, ny):
                img = image(f, rs, nx, ny)
                lhs = img[tx]
                rhs = ty[img[:, None], img[None, :]]
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
        rr = table(nx)[rs, rs]
        trans = (rr & ~rs) == 0
        idem = rr == rs
        bad = refl & (trans != idem)
        record("transitive-idempotent", refl.sum() - bad.sum(), {"nx": nx, "r": int(rs[bad][0]) if bad.any() else None}, bad.sum())

    # prod-interchange: (r∘r') x (s∘s') == (r x s)∘(r' x s'), endorelations.
    # All relations in the instance (the product included) respect the cap,
    # so the combined carrier nx*ny is capped too.  Axes: r, r', s, s'.
    for nx in range(max_size + 1):
        for ny in range(max_size + 1):
            n = nx * ny
            if nx * nx > cap or ny * ny > cap or n * n > cap:
                continue
            r = np.arange(1 << (nx * nx)).reshape(-1, 1, 1, 1)
            s = np.arange(1 << (ny * ny)).reshape(1, 1, -1, 1)
            rp, sp = r.reshape(1, -1, 1, 1), s.reshape(1, 1, 1, -1)
            lhs = rel_product(table(nx)[r, rp], table(ny)[s, sp], nx, ny)
            rhs = compose(rel_product(r, s, nx, ny), rel_product(rp, sp, nx, ny), n, n, n)
            ok = lhs == rhs
            fails = int((~ok).sum())
            ex = None
            if fails:
                i, ip, j, jp = (int(v) for v in np.argwhere(~ok)[0])
                ex = {"nx": nx, "ny": ny, "r": i, "rp": ip, "s": j, "sp": jp}
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
            tx = table(nx)
            ty = table(ny)
            nrx = 1 << (nx * nx)
            nry = 1 << (ny * ny)
            rx = np.arange(nrx)
            ry = np.arange(nry)
            for f in _surjections(nx, ny):
                img = image(f, rx, nx, ny)
                pre = preimage(f, ry, nx, ny)
                bad = img[pre] != ry
                record("img-preimg", nry - bad.sum(), {"nx": nx, "ny": ny, "f": list(f), "r": int(ry[bad][0]) if bad.any() else None}, bad.sum())

                e = eq_mask(f, nx)
                lhs = pre[img]
                rhs = tx[tx[e, rx], e]
                bad = lhs != rhs
                record("preimg-img", nrx - bad.sum(), {"nx": nx, "ny": ny, "f": list(f), "r": int(rx[bad][0]) if bad.any() else None}, bad.sum())

                lhs = img[tx[pre[:, None], pre[None, :]]]
                ok = lhs == ty
                fails = (~ok).sum()
                ex = None
                if fails:
                    i, j = np.argwhere(~ok)[0]
                    ex = {"nx": nx, "ny": ny, "f": list(f), "r": int(ry[i]), "s": int(ry[j])}
                record("img-of-preimg-comp", ok.sum(), ex, fails)

    # lemma-eq-under-regepi: X = X1 x X2, E equivalence with E = p1(E) x p2(E)
    # implies both images are equivalences.
    def is_equivalence(r, n):
        return is_reflexive(r, n) & is_symmetric(r, n) & is_transitive(r, n)

    for n1 in range(1, max_size + 1):
        for n2 in range(1, max_size + 1):
            n = n1 * n2
            if n * n > cap:
                continue
            p1 = tuple(i // n2 for i in range(n))
            p2 = tuple(i % n2 for i in range(n))
            es = np.arange(1 << (n * n))
            e1 = image(p1, es, n, n1)
            e2 = image(p2, es, n, n2)
            inst = is_equivalence(es, n) & (rel_product(e1, e2, n1, n2) == es)
            bad1 = inst & ~is_equivalence(e1, n1)
            bad2 = inst & ~is_equivalence(e2, n2)
            fails = bad1.sum() + bad2.sum()
            ex = None
            if fails:
                ex = {"n1": n1, "n2": n2, "e": int(es[bad1 | bad2][0])}
            record("lemma-eq-under-regepi", inst.sum(), ex, fails)

    return res
