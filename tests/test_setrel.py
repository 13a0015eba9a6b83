"""The set-relation oracle against the original one (``reference_setrel``).

The library's kernels run on bit planes; the mask kernels of ``oracles``
read a mask as a grid of one element of them.  The plane kernels, fed every
pair of relations of a shape at once, are compared entry by entry with the
original einsum tables, the mask kernels with the original kernels, and the
whole oracle with the original oracle.  Injected composition faults, fixed
and drawn, must surface as identity failures whose counterexample really
fails, and ``identity_suite`` must turn an oracle failure into a failed
check.
"""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
import reference_setrel as ref
from finext import relcalc, setrel

SIZES = range(4)  # every carrier of at most 3 points


def _masks(bits: int) -> np.ndarray:
    return np.arange(1 << bits)


def _planes(masks: np.ndarray, bits: int) -> list[int]:
    """The bit planes of an array of masks: bit t of plane k is bit k of the
    array's element t in row-major order."""
    return [int.from_bytes(np.packbits(masks.ravel() >> k & 1 == 1, bitorder="little").tobytes(), "little")
            for k in range(bits)]


def _unplane(planes: list[int], shape: tuple[int, ...]) -> np.ndarray:
    """The array of masks whose bit planes are `planes`."""
    size = int(np.prod(shape))
    out = np.zeros(size, dtype=np.int64)
    for k, p in enumerate(planes):
        bits = np.unpackbits(np.frombuffer(p.to_bytes((size + 7) // 8, "little"), np.uint8), bitorder="little")
        out |= bits[:size].astype(np.int64) << k
    return out.reshape(shape)


@pytest.mark.parametrize("widths", [(), (0,), (3,), (2, 0, 3), (1, 1, 2, 2), (9, 9)])
def test_grid_axes_hold_every_combination_row_major(widths):
    full, axes = setrel._grid(*widths)
    grid = np.indices([1 << w for w in widths])
    assert full == (1 << (1 << sum(widths))) - 1
    assert axes == [_planes(coords, w) for coords, w in zip(grid, widths)]


@pytest.mark.parametrize("widths", [(), (3,), (9, 9), (1, 1, 9, 9), (4, 4, 4, 4), (16, 1), (0, 17)])
def test_slices_walk_the_grid_in_order(widths):
    # the slices' planes, each shifted to its offset, make up the grid's
    full, axes = setrel._grid(*widths)
    step = 1 << min(sum(widths), setrel._SLICE_BITS)
    whole, parts, offsets = 0, [[0] * w for w in widths], []
    for offset, part, planes in setrel._slices(*widths):
        assert part == (1 << step) - 1
        offsets.append(offset)
        whole |= part << offset
        for acc, axis in zip(parts, planes):
            for k, p in enumerate(axis):
                acc[k] |= p << offset
    assert offsets == list(range(0, 1 << sum(widths), step))
    assert whole == full and parts == axes


@pytest.mark.parametrize("nx,ny,nz", list(itertools.product(SIZES, repeat=3)))
def test_compose_matches_the_einsum_table_on_every_pair(nx, ny, nz):
    rs, ss = np.meshgrid(_masks(nx * ny), _masks(ny * nz), indexing="ij")
    table = setrel.compose_planes(_planes(rs, nx * ny), _planes(ss, ny * nz), nx, ny, nz)
    assert np.array_equal(_unplane(table, rs.shape), ref.compose_table(nx, ny, nz))
    if rs.size * ss.size <= 1 << 12:  # the int path, pair by pair where that is cheap
        for r, s in itertools.product(range(rs.size), range(ss.size)):
            assert oracles.compose(r, s, nx, ny, nz) == ref.compose(r, s, nx, ny, nz)


@pytest.mark.parametrize("nx,ny", list(itertools.product(SIZES, repeat=2)))
def test_image_and_preimage_match_their_tables_on_every_mask(nx, ny):
    rx, ry = _masks(nx * nx), _masks(ny * ny)
    px, py = _planes(rx, nx * nx), _planes(ry, ny * ny)
    for f in itertools.product(range(ny), repeat=nx):
        img = _unplane(setrel.image_planes(f, px, nx, ny), rx.shape)
        pre = _unplane(setrel.preimage_planes(f, py, nx, ny), ry.shape)
        assert np.array_equal(img, ref.image_table(f, nx, ny)), f
        assert np.array_equal(pre, ref.preimage_table(f, nx, ny)), f
        assert [oracles.image(f, r, nx, ny) for r in range(rx.size)] == img.tolist()
        assert [oracles.preimage(f, r, nx, ny) for r in range(ry.size)] == pre.tolist()
        assert [ref.image(f, r, nx, ny) for r in range(rx.size)] == img.tolist()
        assert [ref.preimage(f, r, nx, ny) for r in range(ry.size)] == pre.tolist()


@pytest.mark.parametrize("nx,ny", list(itertools.product(SIZES, repeat=2)))
def test_rel_product_and_opposite_match_on_every_mask(nx, ny):
    rx, ry = _masks(nx * nx), _masks(ny * ny)
    if (nx * ny) ** 2 < 63:  # the product relation fits an int64 mask
        r, s = np.meshgrid(rx, ry, indexing="ij")
        kron = setrel.product_planes(_planes(r, nx * nx), _planes(s, ny * ny), nx, ny)
        assert np.array_equal(_unplane(kron, r.shape), ref.kron_table(nx, ny))
    if rx.size * ry.size <= 1 << 12:
        for r, s in itertools.product(range(rx.size), range(ry.size)):
            assert oracles.rel_product(r, s, nx, ny) == ref.rel_product(r, s, nx, ny)
    rs = _masks(nx * ny)
    opp = _unplane(setrel.opposite_planes(_planes(rs, nx * ny), nx, ny), rs.shape)
    assert opp.tolist() == [ref.opposite(r, nx, ny) for r in range(rs.size)]
    assert opp.tolist() == [oracles.opposite(r, nx, ny) for r in range(rs.size)]


@st.composite
def _shape_and_masks(draw):
    nx, ny, nz = (draw(st.integers(0, 4)) for _ in range(3))
    mask = lambda bits: draw(st.integers(0, (1 << bits) - 1))  # noqa: E731
    return nx, ny, nz, mask(nx * ny), mask(ny * nz), mask(nx * nx), mask(ny * ny)


@settings(max_examples=300, deadline=None)
@given(_shape_and_masks(), st.data())
def test_kernels_match_the_originals_on_drawn_masks(drawn, data):
    nx, ny, nz, r, s, ex, ey = drawn
    f = tuple(data.draw(st.lists(st.integers(0, ny - 1), min_size=nx, max_size=nx))) if ny else ()
    want = ref.compose(r, s, nx, ny, nz)
    assert oracles.compose(r, s, nx, ny, nz) == want
    assert oracles.rel_product(ex, ey, nx, ny) == ref.rel_product(ex, ey, nx, ny)
    assert oracles.opposite(r, nx, ny) == ref.opposite(r, nx, ny)
    if len(f) == nx:  # a function X -> Y exists
        assert oracles.image(f, ex, nx, ny) == ref.image(f, ex, nx, ny)
        assert oracles.preimage(f, ey, nx, ny) == ref.preimage(f, ey, nx, ny)


@pytest.mark.parametrize("cap,max_size", [(9, 3), (6, 3), (4, 2), (1, 1), (0, 0)])
def test_oracle_matches_the_original_oracle(cap, max_size):
    got = setrel.oracle_suite(cap, max_size)
    assert repr(got) == repr(ref.oracle_suite(cap, max_size))  # values and their types


def _instances(res):
    return [v["instances"] for v in res.values()]


def test_oracle_on_carriers_of_four_is_pinned():
    # the original oracle takes about 18 s and 2.4 GB here, so only its counts are kept
    res = setrel.oracle_suite(9, 4)
    assert _instances(res) == [1235, 70, 9440796, 70, 2624025, 3207, 6707, 1574925, 15]
    assert all(v["failures"] == 0 and v["counterexample"] is None for v in res.values())


def test_oracle_at_cap_16_is_pinned():
    # the original oracle cannot allocate the (4, 4, 4) table prod-interchange built here
    res = setrel.oracle_suite(16, 3)
    assert _instances(res) == [689, 70, 9440796, 70, 2689561, 3207, 6707, 1574925, 19]
    assert all(v["failures"] == 0 and v["counterexample"] is None for v in res.values())


@pytest.mark.parametrize("cap,max_size", [(9, 3), (16, 3), (9, 4), (6, 3), (4, 2), (3, 3), (1, 1), (0, 0)])
def test_oracle_masks_is_the_largest_array_the_oracle_builds(monkeypatch, cap, max_size):
    # every plane the oracle reads belongs to a grid `_slices` walks, and
    # `_grid` builds no slice of more than 2**_SLICE_BITS elements
    walked, built = [], []

    def slices(*widths, real=setrel._slices):
        walked.append(1 << sum(widths))
        return real(*widths)

    def grid(*widths, real=setrel._grid):
        built.append(1 << sum(widths))
        return real(*widths)

    monkeypatch.setattr(setrel, "_slices", slices)
    monkeypatch.setattr(setrel, "_grid", grid)
    setrel.oracle_suite(cap, max_size)
    assert setrel.oracle_masks(cap, max_size) == max(walked)
    assert setrel.oracle_masks(cap, max_size) <= setrel.ORACLE_MASK_LIMIT
    assert max(built) <= 1 << 16 == 1 << setrel._SLICE_BITS


@pytest.mark.parametrize("cap,max_size,bits", [(16, 4, 34), (36, 3, 36)])
def test_oracle_masks_above_the_limit(cap, max_size, bits):
    # (16, 4): the prod-interchange grid of 1- and 4-point carriers, 2**34
    # masks (table(4) has 2**32); (36, 3): the lemma on a 6-point carrier
    assert setrel.oracle_masks(cap, max_size) == 1 << bits
    assert setrel.oracle_masks(cap, max_size) > setrel.ORACLE_MASK_LIMIT


# -- fault injection ---------------------------------------------------------------


def _faulty(compose_planes, shape, r0, s0, flip):
    """compose_planes with the composite of (r0, s0) on carriers `shape` xor
    `flip`.  The grid elements holding that pair are the "hit" plane: the and
    of plane k or its complement, by bit k of r0 and of s0.  When both masks
    are 0 it sets bits beyond the grid too, which the oracle does not read."""

    def faulty(r, s, nx, ny, nz):
        out = compose_planes(r, s, nx, ny, nz)
        if (nx, ny, nz) != shape:
            return out
        hit = -1
        for planes, mask in ((r, r0), (s, s0)):
            for k, p in enumerate(planes):
                hit &= p if mask >> k & 1 else ~p
        return [p ^ hit if flip >> k & 1 else p for k, p in enumerate(out)]

    return faulty


def _faulty_mask(compose, shape, r0, s0, flip):
    """The original mask kernel `compose` under the same fault."""

    def faulty(r, s, nx, ny, nz):
        out = compose(r, s, nx, ny, nz)
        return out ^ flip if (nx, ny, nz, r, s) == (*shape, r0, s0) else out

    return faulty


def _faulty_table(compose_table, shape, r0, s0, flip):
    def table(nx, ny, nz):
        out = compose_table(nx, ny, nz)
        if (nx, ny, nz) == shape:
            out[r0, s0] ^= flip
        return out

    return table


def _violated(ident, ex, S):
    """Evaluate one counterexample of the oracle again with the mask kernels
    of module `S`: ``oracles``, over the plane kernels of ``setrel`` (under a
    fault, if one is injected), or the original kernels in
    ``reference_setrel``."""
    compose = S.compose
    if ident == "lemma-eq-under-regepi":
        n1, n2, e = ex["n1"], ex["n2"], ex["e"]
        n = n1 * n2
        parts = [(S.image(tuple(i // n2 for i in range(n)), e, n, n1), n1),
                 (S.image(tuple(i % n2 for i in range(n)), e, n, n2), n2)]

        def equivalence(x, k):
            d = S.delta(k)
            return (x & d) == d and S.opposite(x, k, k) == x and (compose(x, x, k, k, k) | x) == x

        return not all(equivalence(x, k) for x, k in parts)
    nx, ny, r = ex["nx"], ex.get("ny"), ex["r"]
    f = tuple(ex.get("f", ()))
    if ident == "delta-unit":
        return (compose(S.delta(nx), r, nx, nx, ny) != r
                or compose(r, S.delta(ny), nx, ny, ny) != r)
    if ident == "nabla-absorb":
        nb = S.nabla(nx, nx)
        return compose(r, nb, nx, nx, nx) != nb or compose(nb, r, nx, nx, nx) != nb
    if ident == "transitive-idempotent":
        rr = compose(r, r, nx, nx, nx)
        return (rr & ~r == 0) != (rr == r)
    if ident == "img-lax-functorial":
        lhs = S.image(f, compose(r, ex["s"], nx, nx, nx), nx, ny)
        rhs = compose(S.image(f, r, nx, ny), S.image(f, ex["s"], nx, ny), ny, ny, ny)
        return lhs & ~rhs != 0
    if ident == "prod-interchange":
        rp, s, sp, n = ex["rp"], ex["s"], ex["sp"], nx * ny
        lhs = S.rel_product(compose(r, rp, nx, nx, nx), compose(s, sp, ny, ny, ny), nx, ny)
        return lhs != compose(S.rel_product(r, s, nx, ny), S.rel_product(rp, sp, nx, ny), n, n, n)
    if ident == "img-preimg":
        return S.image(f, S.preimage(f, r, nx, ny), nx, ny) != r
    if ident == "preimg-img":
        e = S.eq_mask(f, nx)
        rhs = compose(compose(e, r, nx, nx, nx), e, nx, nx, nx)
        return S.preimage(f, S.image(f, r, nx, ny), nx, ny) != rhs
    assert ident == "img-of-preimg-comp"
    pr, ps = S.preimage(f, r, nx, ny), S.preimage(f, ex["s"], nx, ny)
    return S.image(f, compose(pr, ps, nx, nx, nx), nx, ny) != compose(r, ex["s"], ny, ny, ny)


DELTA2, NABLA2 = setrel.delta(2), oracles.nabla(2, 2)
FAULTS = [
    # (carriers, r, s, flipped bits, cap, identities that must fail)
    ((2, 2, 2), DELTA2, NABLA2, 0b10, 9,
     {"delta-unit", "nabla-absorb", "img-lax-functorial", "preimg-img", "img-of-preimg-comp"}),
    # the mirror image: delta-unit reads it on its right side only
    ((2, 2, 2), NABLA2, DELTA2, 0b10, 9,
     {"delta-unit", "nabla-absorb", "img-lax-functorial", "preimg-img", "img-of-preimg-comp"}),
    ((2, 2, 2), NABLA2, NABLA2, 0b10, 9,
     {"nabla-absorb", "img-lax-functorial", "transitive-idempotent", "preimg-img",
      "img-of-preimg-comp"}),
    # the one-point relation composed with itself: every identity that composes
    ((1, 1, 1), 1, 1, 0b1, 9,
     set(setrel.ORACLE_IDENTITY_IDS) - {"img-preimg"}),
    # at cap 16 prod-interchange and the lemma reach carriers of 2 x 2
    ((2, 2, 2), DELTA2, DELTA2, 0b10, 16,
     {"delta-unit", "img-lax-functorial", "prod-interchange", "preimg-img",
      "img-of-preimg-comp", "lemma-eq-under-regepi"}),
    # a composite on the product carrier only, (delta x nabla)∘(nabla x delta):
    # read by prod-interchange alone
    ((4, 4, 4), oracles.rel_product(DELTA2, NABLA2, 2, 2), oracles.rel_product(NABLA2, DELTA2, 2, 2),
     0b10, 16, {"prod-interchange"}),
]


def _inject(monkeypatch, shape, r0, s0, flip):
    """Inject one composition fault into the plane kernel, which the mask
    kernels read as well."""
    monkeypatch.setattr(setrel, "compose_planes", _faulty(setrel.compose_planes, shape, r0, s0, flip))


def _inject_original(monkeypatch, shape, r0, s0, flip):
    """The same fault in the original oracle's kernel and tables."""
    monkeypatch.setattr(ref, "compose", _faulty_mask(ref.compose, shape, r0, s0, flip))
    monkeypatch.setattr(ref, "compose_table", _faulty_table(ref.compose_table, shape, r0, s0, flip))


def _check_counterexamples(res):
    """Each counterexample fails under the fault and holds without it."""
    for ident, v in res.items():
        if v["failures"]:
            assert _violated(ident, v["counterexample"], oracles), (ident, v)
            assert not _violated(ident, v["counterexample"], ref), (ident, v)


@pytest.mark.parametrize("shape,r0,s0,flip,cap,failing", FAULTS)
def test_oracle_reports_an_injected_composition_fault(monkeypatch, shape, r0, s0, flip, cap, failing):
    _inject(monkeypatch, shape, r0, s0, flip)
    res = setrel.oracle_suite(cap, 3)
    assert {k for k, v in res.items() if v["failures"]} == failing
    _check_counterexamples(res)
    # the original oracle, fed the same fault, agrees on every count; at cap 16
    # it cannot run prod-interchange, so only its lemma loop is compared there
    _inject_original(monkeypatch, shape, r0, s0, flip)
    if cap == 9:
        assert repr(res) == repr(ref.oracle_suite(cap, 3))
    else:
        tally = {"instances": 0, "failures": 0, "counterexample": None}
        for n1, n2 in itertools.product(range(1, 4), repeat=2):
            if (n1 * n2) ** 2 <= cap:
                inst, ex, fails = ref.lemma_eq_under_regepi(n1, n2)
                tally["instances"] += inst
                tally["failures"] += fails
                tally["counterexample"] = tally["counterexample"] or ex
        assert res["lemma-eq-under-regepi"] == tally


NABLA3 = oracles.nabla(3, 3)
PAST_THE_FIRST_SLICE = [
    # (carriers, r, s, flipped bits, identity, its first counterexample, the
    # bits of its grid's axes): on carriers 1 and 3, prod-interchange first
    # fails at r = 0, r' = 1, where only its right side composes (0, nabla);
    # img-lax-functorial first fails at r = nabla, s = 0 on 3 points, f
    # constant.  Both grids have 2**20 and 2**18 elements at cap 9.
    ((3, 3, 3), 0, NABLA3, 0b1, "prod-interchange",
     {"nx": 1, "ny": 3, "r": 0, "rp": 1, "s": 0, "sp": NABLA3}, {"r": 1, "rp": 1, "s": 9, "sp": 9}),
    ((3, 3, 3), NABLA3, 0, 0b1, "img-lax-functorial",
     {"nx": 3, "ny": 1, "f": [0, 0, 0], "r": NABLA3, "s": 0}, {"r": 9, "s": 9}),
]


@pytest.mark.parametrize("shape,r0,s0,flip,ident,first,axes", PAST_THE_FIRST_SLICE,
                         ids=[fault[4] for fault in PAST_THE_FIRST_SLICE])
def test_a_fault_past_the_first_slice_keeps_the_first_counterexample(monkeypatch, shape, r0, s0, flip,
                                                                    ident, first, axes):
    _inject(monkeypatch, shape, r0, s0, flip)
    res = setrel.oracle_suite(9, 3)
    assert res[ident]["counterexample"] == first
    t = 0
    for name, bits in axes.items():
        t = t << bits | first[name]
    assert t >= 1 << setrel._SLICE_BITS  # the first failure lies past the first slice
    _check_counterexamples(res)
    _inject_original(monkeypatch, shape, r0, s0, flip)
    assert repr(res) == repr(ref.oracle_suite(9, 3))


@st.composite
def _faults(draw):
    """A composite the oracle reads and the bits it flips, at least one: a
    pair of endorelations, or delta before or after any relation, which is
    how delta-unit reaches shapes such as (2, 2, 3).  Carriers have 1 to 3
    points, since a composite on an empty carrier has no bit to flip."""
    a, b = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    some = lambda n, m: draw(st.integers(0, (1 << n * m) - 1))  # noqa: E731
    kind = draw(st.sampled_from(["endo", "delta-first", "delta-last"]))
    if kind == "endo":
        shape, r0, s0 = (a, a, a), some(a, a), some(a, a)
    elif kind == "delta-first":
        shape, r0, s0 = (a, a, b), setrel.delta(a), some(a, b)
    else:
        shape, r0, s0 = (a, b, b), some(a, b), setrel.delta(b)
    return shape, r0, s0, draw(st.integers(1, (1 << a * shape[2]) - 1))


@settings(max_examples=20, deadline=None)
@given(_faults())
def test_oracle_agrees_with_the_original_under_a_drawn_fault(fault):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _inject(monkeypatch, *fault)
        res = setrel.oracle_suite(9, 3)
        _check_counterexamples(res)
        _inject_original(monkeypatch, *fault)
        assert repr(res) == repr(ref.oracle_suite(9, 3))


def test_identity_suite_fails_a_check_on_an_oracle_counterexample(monkeypatch, set3):
    cat, _ = set3
    shape, r0, s0, flip, cap, failing = FAULTS[0]
    _inject(monkeypatch, shape, r0, s0, flip)
    by_id = dict(relcalc.identity_suite(cat))
    for ident in setrel.ORACLE_IDENTITY_IDS + ("lemma-eq-under-regepi",):
        st_ = by_id[ident]
        if ident in failing:
            assert st_.status == "fail", ident
            assert st_.witness["kind"] == "oracle-counterexample", ident
            assert st_.details["oracle_failures"] > 0, ident
        else:
            assert not st_.failed and st_.details["oracle_failures"] == 0, ident
    ex = by_id["delta-unit"].witness
    assert {k: ex[k] for k in ("nx", "ny", "r")} == {"nx": 2, "ny": 2, "r": NABLA2}
