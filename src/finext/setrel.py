"""Concrete set-relation oracle.

Relations between finite sets X = {0..nx-1} and Y = {0..ny-1} are encoded as
bitmasks: pair (i, j) is bit i*ny + j.  Everything here is computed directly
from the masks — no category machinery — so it serves as an independent
oracle for the categorical relation calculus.

The kernels run on bit planes: a grid of relations on X x Y is nx*ny Python
ints, and bit t of plane i*ny + j is set when grid element t relates i to j.
Composition is the or over j of `r[i,j] & s[j,k]`; image, preimage, opposite
and the relation product move or meet whole planes.  The mask kernels
(`compose`, `opposite`, `image`, `preimage`, `rel_product`) read a mask as a
grid of one element, whose plane k is bit k of the mask.  Bits a plane sets
beyond its grid carry no meaning, so counts are read within the grid.

The identity suite enumerates every relation on every ambient X x Y with
nx*ny <= cap and every function between the carriers involved, and checks
the relation-calculus laws exhaustively.  Each identity runs on a grid of
every combination of the relations it reads (`_grid`), element t row-major
over the grid's axes, so an identity's failures are one plane: their number
is its `int.bit_count` and the first counterexample, in row-major order, is
its lowest set bit.  `oracle_masks` is the number of
elements in the largest grid a call builds, which the CLI holds to
`ORACLE_MASK_LIMIT` before starting one.
"""

from __future__ import annotations

import itertools
from functools import reduce
from operator import or_, xor
from typing import Iterable

__all__ = [
    "compose_planes", "opposite_planes", "image_planes", "preimage_planes", "product_planes",
    "compose", "opposite", "image", "preimage", "rel_product",
    "delta", "nabla", "eq_mask", "mask_of",
    "oracle_suite", "oracle_masks", "ORACLE_MASK_LIMIT", "ORACLE_IDENTITY_IDS",
]

ORACLE_MASK_LIMIT = 1 << 24  # elements in one oracle grid: 2 MB per plane


def mask_of(pairs: Iterable[tuple[int, int]], nx: int, ny: int) -> int:
    m = 0
    for i, j in pairs:
        m |= 1 << (i * ny + j)
    return m


# -- kernels on bit planes ---------------------------------------------------------


def compose_planes(r: list[int], s: list[int], nx: int, ny: int, nz: int) -> list[int]:
    """(i,k) related iff some j has (i,j) in r and (j,k) in s: "first r, then
    s" from X to Z, for r: X -> Y and s: Y -> Z."""
    return [reduce(or_, (r[i * ny + j] & s[j * nz + k] for j in range(ny)), 0) for i in range(nx) for k in range(nz)]


def opposite_planes(r: list[int], nx: int, ny: int) -> list[int]:
    return [r[i * ny + j] for j in range(ny) for i in range(nx)]


def image_planes(f: tuple[int, ...], r: list[int], nx: int, ny: int) -> list[int]:
    """Image of a relation on X under f: X -> Y applied to both coordinates."""
    out = [0] * (ny * ny)
    for i in range(nx):
        for j in range(nx):
            out[f[i] * ny + f[j]] |= r[i * nx + j]
    return out


def preimage_planes(f: tuple[int, ...], r: list[int], nx: int, ny: int) -> list[int]:
    """Preimage of a relation on Y under f: X -> Y."""
    return [r[f[i] * ny + f[j]] for i in range(nx) for j in range(nx)]


def product_planes(r: list[int], s: list[int], nx: int, ny: int) -> list[int]:
    """Product of r on X and s on Y as a relation on X x Y, where the pair
    (i, a) is element i*ny + a of the product carrier."""
    return [r[i * nx + j] & s[a * ny + b] for i in range(nx) for a in range(ny) for j in range(nx) for b in range(ny)]


# -- the same kernels on masks -----------------------------------------------------


def _planes(r: int, bits: int) -> list[int]:
    return [r >> k & 1 for k in range(bits)]


def _mask(planes: list[int]) -> int:
    return sum((p & 1) << k for k, p in enumerate(planes))


def compose(r: int, s: int, nx: int, ny: int, nz: int) -> int:
    return _mask(compose_planes(_planes(r, nx * ny), _planes(s, ny * nz), nx, ny, nz))


def opposite(r: int, nx: int, ny: int) -> int:
    return _mask(opposite_planes(_planes(r, nx * ny), nx, ny))


def image(f: tuple[int, ...], r: int, nx: int, ny: int) -> int:
    return _mask(image_planes(f, _planes(r, nx * nx), nx, ny))


def preimage(f: tuple[int, ...], r: int, nx: int, ny: int) -> int:
    return _mask(preimage_planes(f, _planes(r, ny * ny), nx, ny))


def rel_product(r: int, s: int, nx: int, ny: int) -> int:
    return _mask(product_planes(_planes(r, nx * nx), _planes(s, ny * ny), nx, ny))


def delta(n: int) -> int:
    return sum(1 << (i * n + i) for i in range(n))


def nabla(nx: int, ny: int) -> int:
    return (1 << (nx * ny)) - 1


def eq_mask(f: tuple[int, ...], nx: int) -> int:
    """Kernel relation of f as a relation on X."""
    out = 0
    for i in range(nx):
        for j in range(nx):
            if f[i] == f[j]:
                out |= 1 << (i * nx + j)
    return out


# -- the identity suite ------------------------------------------------------------


def _grid(*widths: int) -> tuple[int, list[list[int]]]:
    """Every combination of one relation of `widths[a]` bits on each axis a,
    as a grid of 2**sum(widths) elements, row-major over the axes: its full
    plane and the planes of each axis's relation.  Each plane is built by
    doubling a run of ones with shifts, since a big-int division is
    quadratic."""
    size = sum(widths)
    bits = []
    for b in range(size):
        run = 1 << b
        plane, period = ((1 << run) - 1) << run, run << 1
        while period < 1 << size:
            plane |= plane << period
            period <<= 1
        bits.append(plane)
    axes, low = [], size
    for w in widths:
        low -= w
        axes.append(bits[low : low + w])
    return (1 << (1 << size)) - 1, axes


def _const(r: int, bits: int, full: int) -> list[int]:
    """The planes of relation r at every element of the grid `full`."""
    return [full * p for p in _planes(r, bits)]


def _differ(a: list[int], b: list[int]) -> int:
    """The elements where relations a and b differ."""
    return reduce(or_, map(xor, a, b), 0)


def _exceeds(a: list[int], b: list[int]) -> int:
    """The elements where relation a is not contained in b."""
    return reduce(or_, (p & ~q for p, q in zip(a, b)), 0)


def _reflexive(r: list[int], n: int, full: int) -> int:
    for i in range(n):
        full &= r[i * n + i]
    return full


def _equivalences(r: list[int], n: int, full: int) -> int:
    nonsym, nontrans = _differ(opposite_planes(r, n, n), r), _exceeds(compose_planes(r, r, n, n, n), r)
    return _reflexive(r, n, full) & ~(nonsym | nontrans)


def _tally(within: int, bad: int) -> tuple[int, int, int]:
    """(passes, failures, failing elements) among the elements in `within`."""
    bad &= within
    fails = bad.bit_count()
    return within.bit_count() - fails, fails, bad


def _functions(nx: int, ny: int):
    return itertools.product(range(ny), repeat=nx)


ORACLE_IDENTITY_IDS = (
    "delta-unit", "nabla-absorb", "img-lax-functorial", "transitive-idempotent",
    "prod-interchange", "img-preimg", "preimg-img", "img-of-preimg-comp",
)


def _carriers(cap: int, max_size: int) -> list[int]:
    """The carriers whose endorelations respect the cap."""
    return [n for n in range(max_size + 1) if n * n <= cap]


def oracle_masks(cap: int = 9, max_size: int = 3) -> int:
    """The number of elements in the largest grid `oracle_suite(cap,
    max_size)` builds: a four-axis prod-interchange grid (with one empty
    carrier, the grid of a composite table) or the relations on the lemma's
    product carrier.  The relations of one shape, at most 2**cap, never
    exceed the largest grid."""
    ns = _carriers(cap, max_size)
    grids = [1 << 2 * (nx * nx + ny * ny) for nx in ns for ny in ns if (nx * ny) ** 2 <= cap]
    ps = [n1 * n2 for n1 in range(1, max_size + 1) for n2 in range(1, max_size + 1)]
    return max(grids + [1 << (n * n) for n in ps if n * n <= cap])


def _element(t: int, axes: dict[str, int]) -> dict[str, int]:
    """Grid element t split into the coordinates of `axes` (name: bits,
    outermost first)."""
    out, low = {}, sum(axes.values())
    for name, w in axes.items():
        low -= w
        out[name] = t >> low & ((1 << w) - 1)
    return out


def oracle_suite(cap: int = 9, max_size: int = 3) -> dict[str, dict]:
    """Exhaustively verify the eight relation-calculus identities plus the
    image-of-equivalence lemma over every carrier pair with ambient <= cap.

    Returns {identity id: {"instances": n, "failures": k, "counterexample": ...}}.
    """
    res = {i: {"instances": 0, "failures": 0, "counterexample": None} for i in ORACLE_IDENTITY_IDS}
    res["lemma-eq-under-regepi"] = {"instances": 0, "failures": 0, "counterexample": None}

    def record(key, passes, fails, bad, fixed, **axes):
        """Count passes and failures; the lowest failing element of plane
        `bad`, split over `axes`, completes the first counterexample."""
        entry = res[key]
        entry["instances"] += passes
        if fails:
            entry["failures"] += fails
            if entry["counterexample"] is None:
                entry["counterexample"] = {**fixed, **_element((bad & -bad).bit_length() - 1, axes)}

    carriers = _carriers(cap, max_size)

    # delta-unit: compose(delta_X, r) == r == compose(r, delta_Y)
    for nx, ny in itertools.product(range(max_size + 1), repeat=2):
        if nx * ny > cap:
            continue
        full, (r,) = _grid(nx * ny)
        left = compose_planes(_const(delta(nx), nx * nx, full), r, nx, nx, ny)
        right = compose_planes(r, _const(delta(ny), ny * ny, full), nx, ny, ny)
        record("delta-unit", *_tally(full, _differ(left, r) | _differ(right, r)), {"nx": nx, "ny": ny}, r=nx * ny)

    # nabla-absorb: for reflexive r on X: r∘nabla == nabla == nabla∘r
    for nx in carriers:
        full, (r,) = _grid(nx * nx)
        nb = [full] * (nx * nx)
        bad = _differ(compose_planes(r, nb, nx, nx, nx), nb) | _differ(compose_planes(nb, r, nx, nx, nx), nb)
        record("nabla-absorb", *_tally(_reflexive(r, nx, full), bad), {"nx": nx}, r=nx * nx)

    # img-lax-functorial: f(r∘s) <= f(r)∘f(s), r and s on X, any f: X -> Y
    for nx in carriers:
        full, (r, s) = _grid(nx * nx, nx * nx)
        rs = compose_planes(r, s, nx, nx, nx)
        for ny in carriers:
            for f in _functions(nx, ny):
                rhs = compose_planes(image_planes(f, r, nx, ny), image_planes(f, s, nx, ny), ny, ny, ny)
                bad = _exceeds(image_planes(f, rs, nx, ny), rhs)
                record("img-lax-functorial", *_tally(full, bad), {"nx": nx, "ny": ny, "f": list(f)}, r=nx * nx, s=nx * nx)

    # transitive-idempotent: reflexive r: transitive <-> r == r∘r
    for nx in carriers:
        full, (r,) = _grid(nx * nx)
        rr = compose_planes(r, r, nx, nx, nx)
        bad = _exceeds(rr, r) ^ _differ(rr, r)
        record("transitive-idempotent", *_tally(_reflexive(r, nx, full), bad), {"nx": nx}, r=nx * nx)

    # prod-interchange: (r∘r') x (s∘s') == (r x s)∘(r' x s'), endorelations.
    # All relations in the instance (the product included) respect the cap,
    # so the combined carrier nx*ny is capped too.  Axes: r, r', s, s'.
    for nx in carriers:
        for ny in carriers:
            n = nx * ny
            if n * n > cap:
                continue
            full, (r, rp, s, sp) = _grid(nx * nx, nx * nx, ny * ny, ny * ny)
            lhs = product_planes(compose_planes(r, rp, nx, nx, nx), compose_planes(s, sp, ny, ny, ny), nx, ny)
            rhs = compose_planes(product_planes(r, s, nx, ny), product_planes(rp, sp, nx, ny), n, n, n)
            axes = {"r": nx * nx, "rp": nx * nx, "s": ny * ny, "sp": ny * ny}
            record("prod-interchange", *_tally(full, _differ(lhs, rhs)), {"nx": nx, "ny": ny}, **axes)

    # img-preimg: surjective f: X -> Y, r on Y: f(f^{-1}(r)) == r
    # preimg-img: surjective f, r on X: f^{-1}(f(r)) == eq(f)∘r∘eq(f)
    # img-of-preimg-comp: surjective f, r,s on Y: f(f^{-1}(r)∘f^{-1}(s)) == r∘s
    for nx in carriers:
        for ny in carriers:
            fs = [f for f in _functions(nx, ny) if len(set(f)) == ny]
            if not fs:
                continue
            (gx, (x,)), (gy, (y,)), (g2, (r, s)) = _grid(nx * nx), _grid(ny * ny), _grid(ny * ny, ny * ny)
            rs = compose_planes(r, s, ny, ny, ny)
            for f in fs:
                fixed = {"nx": nx, "ny": ny, "f": list(f)}
                bad = _differ(image_planes(f, preimage_planes(f, y, nx, ny), nx, ny), y)
                record("img-preimg", *_tally(gy, bad), fixed, r=ny * ny)

                e = _const(eq_mask(f, nx), nx * nx, gx)
                rhs = compose_planes(compose_planes(e, x, nx, nx, nx), e, nx, nx, nx)
                bad = _differ(preimage_planes(f, image_planes(f, x, nx, ny), nx, ny), rhs)
                record("preimg-img", *_tally(gx, bad), fixed, r=nx * nx)

                pre = compose_planes(preimage_planes(f, r, nx, ny), preimage_planes(f, s, nx, ny), nx, nx, nx)
                record("img-of-preimg-comp", *_tally(g2, _differ(image_planes(f, pre, nx, ny), rs)), fixed, r=ny * ny, s=ny * ny)

    # lemma-eq-under-regepi: X = X1 x X2, E equivalence with E = p1(E) x p2(E)
    # implies both images are equivalences.
    for n1 in range(1, max_size + 1):
        for n2 in range(1, max_size + 1):
            n = n1 * n2
            if n * n > cap:
                continue
            full, (e,) = _grid(n * n)
            e1 = image_planes(tuple(i // n2 for i in range(n)), e, n, n1)
            e2 = image_planes(tuple(i % n2 for i in range(n)), e, n, n2)
            inst = _equivalences(e, n, full) & ~_differ(product_planes(e1, e2, n1, n2), e)
            bad1, bad2 = inst & ~_equivalences(e1, n1, full), inst & ~_equivalences(e2, n2, full)
            fails = bad1.bit_count() + bad2.bit_count()
            record("lemma-eq-under-regepi", inst.bit_count(), fails, bad1 | bad2, {"n1": n1, "n2": n2}, e=n * n)

    return res
