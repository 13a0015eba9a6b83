"""Fast paths checked against their reference implementations.

The references live in ``reference_limits``, ``reference_extensivity`` and
``reference_fincat``.  Each comparison runs on the small built-in
categories of ``verify-paper``, on one product category, on the duals of
these, and on thin categories of random posets drawn by Hypothesis.
"""

from __future__ import annotations

import itertools
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_extensivity
import reference_fincat
import reference_limits
from finext import limits
from finext.algebra import build_category
from finext.extensivity import _e2_first_failure
from finext.fincat import FinCategory, _iso_info, _mono_set, dual_of, thin_category_from_poset, validate

# (variety, max carrier, include_empty), as verify-paper builds them.  Its
# lat4 is left out: 1,261,216 commuting squares take about 25 s through
# the reference mediator search.
BUILTINS = (
    ("set", 3, None),
    ("pointed", 3, None),
    ("poset", 1, True),
    ("slat", 3, None),
    ("cpos", 3, None),
    ("mon", 3, None),
)


def _cospans(cat: FinCategory):
    n = len(cat.objects)
    for x in range(n):
        into = [m for a in range(n) for m in cat.hom(a, x)]
        yield from itertools.product(into, repeat=2)


def _commuting_squares(cat: FinCategory, f: int, u: int):
    for y in range(len(cat.objects)):
        fib_u = cat.postcompose_fibers(u, y)
        for w, p1s in cat.postcompose_fibers(f, y).items():
            for p1 in p1s:
                for p2 in fib_u.get(w, ()):
                    yield p1, p2


def _assert_square_table_matches_mediator(cat: FinCategory) -> int:
    checked = 0
    for f, u in _cospans(cat):
        for p1, p2 in _commuting_squares(cat, f, u):
            fast = limits.is_pullback_square(cat, f, u, p1, p2)
            assert fast == reference_limits.is_pullback_square(cat, f, u, p1, p2), (f, u, p1, p2)
            checked += fast
    return checked


def _assert_kernels_match_numpy(cat: FinCategory) -> None:
    n = len(cat.objects)
    for a1, a2, x in itertools.product(range(n), repeat=3):
        for u in cat.hom(a1, x):
            for v in cat.hom(a2, x):
                assert limits._cocone_universal(cat, a1, a2, x, u, v) == reference_limits.cocone_universal(
                    cat, a1, a2, x, u, v
                ), (u, v)
    for f, u in _cospans(cat):
        a, b = cat._dom_l[f], cat._dom_l[u]
        counts = limits._cone_counts(cat, f, u)
        for p1, p2 in _commuting_squares(cat, f, u):
            p = cat._dom_l[p1]
            assert limits._cone_universal(cat, a, b, p, p1, p2, counts) == reference_limits.cone_universal(
                cat, a, b, p, p1, p2, counts
            ), (f, u, p1, p2)


def _assert_e2_scan_matches_walk(cat: FinCategory) -> None:
    monos = _mono_set(cat)
    isos = _iso_info(cat)[0]
    for f in range(cat.n_mor):

        def pullback_fault(leg, top, filler):
            return None if limits.is_pullback_square(cat, f, leg, top, filler) else "square-not-pullback"

        def class_fault(leg, top, filler):
            if not limits.is_pullback_square(cat, f, leg, top, filler):
                return "square-not-pullback"
            return None if top in isos and filler in isos else "square-legs-not-in-class"

        def scattered_fault(leg, top, filler):
            # fails a scattered subset of squares, so failures land on many
            # positions of the instance order
            return "synthetic" if (7 * leg + 3 * top + filler) % 5 == 0 else None

        faults = [(pullback_fault, None), (class_fault, monos), (scattered_fault, None), (scattered_fault, monos)]
        # one failing square at a time, for each of f's distinct squares
        squares = dict.fromkeys(
            sq
            for x1, x2, u, v, g1, g2 in reference_extensivity.e2_instances(cat, f)
            for sq in ((u, x1, g1), (v, x2, g2))
        )
        for target in squares:

            def single_fault(leg, top, filler, target=target):
                return "synthetic" if (leg, top, filler) == target else None

            faults.append((single_fault, None))
        for fault, allowed in faults:
            assert _e2_first_failure(cat, f, fault, allowed) == reference_extensivity.e2_first_failure(
                cat, f, fault, allowed
            ), (f, fault.__name__)


def _product_category(c: FinCategory, d: FinCategory) -> FinCategory:
    """The product category c × d, with ids joined by "|"."""

    def pair(xs, i, ys, j):
        return f"{xs[i]}|{ys[j]}"

    objects = [f"{x}|{y}" for x in c.objects for y in d.objects]
    morphisms = [
        (
            pair(c.mor_ids, i, d.mor_ids, j),
            pair(c.objects, c._dom_l[i], d.objects, d._dom_l[j]),
            pair(c.objects, c._cod_l[i], d.objects, d._cod_l[j]),
        )
        for i in range(c.n_mor)
        for j in range(d.n_mor)
    ]
    identities = {
        pair(c.objects, x, d.objects, y): pair(c.mor_ids, c.identity_of[x], d.mor_ids, d.identity_of[y])
        for x in range(len(c.objects))
        for y in range(len(d.objects))
    }
    composition = {
        (
            pair(c.mor_ids, k1 // c._M, d.mor_ids, k2 // d._M),
            pair(c.mor_ids, k1 % c._M, d.mor_ids, k2 % d._M),
        ): pair(c.mor_ids, v1, d.mor_ids, v2)
        for k1, v1 in c._comp.items()
        for k2, v2 in d._comp.items()
    }
    return FinCategory(objects, morphisms, identities, composition)


def _set2_op_squared() -> FinCategory:
    """(FinSet≤2)^op × (FinSet≤2)^op: coproduct legs that are not monic on
    both sides of one cocone, so condition-two fillers come in fibers of
    several morphisms on both sides, which no built-in category has.  The
    objects are listed in reverse, which orders the bases so that a single
    failing left square is met first below the first row of its instances."""
    d = dual_of(build_category("set", 2)[0])
    data = _product_category(d, d).to_json()
    return FinCategory.from_json({**data, "objects": data["objects"][::-1]})


@pytest.fixture(
    scope="module",
    params=[*BUILTINS, "set2-op-squared"],
    ids=lambda b: b if isinstance(b, str) else f"{b[0]}{b[1]}",
)
def small_category(request):
    if request.param == "set2-op-squared":
        return _set2_op_squared()
    kind, n, empty = request.param
    cat, _uni = build_category(kind, n, empty)
    return cat


def test_square_table_matches_mediator_search(small_category):
    assert _assert_square_table_matches_mediator(small_category) > 0
    _assert_square_table_matches_mediator(dual_of(small_category))


def test_universality_kernels_match_numpy(small_category):
    _assert_kernels_match_numpy(small_category)
    _assert_kernels_match_numpy(dual_of(small_category))


def test_condition_two_scan_matches_instance_walk(small_category):
    _assert_e2_scan_matches_walk(small_category)
    _assert_e2_scan_matches_walk(dual_of(small_category))


def test_square_table_is_consistent_under_threads():
    """Threads filling one category's square table concurrently (as
    ``--jobs`` threads do) all read the sequential answers."""
    ref = build_category("set", 3)[0]
    squares = [(f, u, p1, p2) for f, u in _cospans(ref) for p1, p2 in _commuting_squares(ref, f, u)][::5]
    expected = {sq: limits.is_pullback_square(ref, *sq) for sq in squares}
    cat = build_category("set", 3)[0]
    mismatches: list = []

    def worker(shift: int) -> None:
        for sq in squares[shift:] + squares[:shift]:
            if limits.is_pullback_square(cat, *sq) != expected[sq]:
                mismatches.append(sq)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k * len(squares) // 4,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert mismatches == []


@st.composite
def posets(draw):
    """A random poset on up to five points: the reflexive-transitive closure
    of a random set of edges i -> j with i < j."""
    n = draw(st.integers(min_value=1, max_value=5))
    leq = [[i == j or (i < j and draw(st.booleans())) for j in range(n)] for i in range(n)]
    for k, i, j in itertools.product(range(n), repeat=3):
        if leq[i][k] and leq[k][j]:
            leq[i][j] = True
    return leq


@settings(max_examples=60, deadline=None)
@given(posets())
def test_fast_paths_on_random_posets(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_square_table_matches_mediator(c)
        _assert_kernels_match_numpy(c)
        _assert_e2_scan_matches_walk(c)


def _mutants(cat: FinCategory):
    """Single-entry faults of the composition table: a wrong composite of
    the right type, a composite of the wrong type, and a missing entry."""
    data = cat.to_json()
    table = data["composition"]
    ids = [m["id"] for m in data["morphisms"]]
    typing = {m["id"]: (m["dom"], m["cod"]) for m in data["morphisms"]}
    for i, entry in enumerate(table):
        right_type = [m for m in ids if typing[m] == typing[entry["gf"]] and m != entry["gf"]]
        wrong_type = [m for m in ids if typing[m] != typing[entry["gf"]]]
        for label, gf in (("wrong", right_type[:1]), ("mistyped", wrong_type[:1])):
            for m in gf:
                faulty = [dict(e) for e in table]
                faulty[i]["gf"] = m
                yield label, {**data, "composition": faulty}
        yield "missing", {**data, "composition": table[:i] + table[i + 1 :]}


@pytest.mark.parametrize(
    "make, expected_kinds",
    [
        (lambda: build_category("set", 2)[0], {"comp-missing", "comp-typing", "identity-law", "assoc"}),
        (lambda: build_category("poset", 1, True)[0], {"comp-missing", "comp-typing", "identity-law"}),
        (
            lambda: thin_category_from_poset([[True, True, True], [False, True, True], [False, False, True]]),
            {"comp-missing", "comp-typing", "identity-law", "assoc"},
        ),
    ],
    ids=["set2", "golden-poset", "chain3"],
)
def test_validate_matches_reference_under_fault_injection(make, expected_kinds):
    cat = make()
    assert validate(cat) == reference_fincat.validate(cat) == []
    kinds = set()
    for label, data in _mutants(cat):
        faulty = FinCategory.from_json(data)
        found = validate(faulty)
        assert found == reference_fincat.validate(faulty), label
        if label != "wrong":
            assert found, label
        kinds.update(v.kind for v in found)
    assert kinds == expected_kinds
