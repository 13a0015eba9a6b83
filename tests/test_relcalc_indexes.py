"""The relation calculus reads the engine's indexes; each read is checked
against the seed's scan it replaced.

``limits.pairing`` is compared with the seed's fibre scan
(``reference_relcalc._pairing``) on every product cone and kernel pair,
and ``limits.cotuple`` with the block scan (``reference_limits.cotuple``)
on every coproduct cocone.  The ``None`` cases are included: t1 and t2 out
of different objects, and a t1 that does not factor, which the kernel
pair of a morphism that is not mono has.  ``relcalc.sub_classes``, which
reads each class as the orbit of its least mono under the isomorphisms
into its domain, is compared with the seed's pairwise mutual factoring
(``reference_relcalc.sub_classes``), and the disjointness check, which
reads leg monicity from the mono index, with the seed's self-intersection
squares (``reference_extensivity.coproduct_disjointness``).  All three run
on the ``verify-paper`` built-ins, their duals, thin categories of random
preorders and the thin 4-clique, whose four objects are all isomorphic.
Last, the relation operations are stored facts: each is computed once per
distinct argument, and a second suite run makes no product of morphisms.
"""

from __future__ import annotations

import itertools
from collections import Counter

import pytest
from hypothesis import given, settings

import reference_extensivity
import reference_limits
import reference_relcalc
from finext import extensivity as ext
from finext import limits
from finext import relcalc as rc
from finext.algebra import build_category
from finext.fincat import FinCategory, dual_of, thin_category_from_poset
from generators import preorders

BUILTINS = ["set3", "pointed3", "golden", "slat3", "lat4", "cpos3", "mon3"]


def _into(cat: FinCategory, a: int) -> list[int]:
    return [t for y in range(len(cat.objects)) for t in cat.hom(y, a)]


def _out_of(cat: FinCategory, a: int) -> list[int]:
    return [t for z in range(len(cat.objects)) for t in cat.hom(a, z)]


def _spans(cat: FinCategory) -> dict[tuple[int, int], None]:
    """Every product cone, then the kernel pair of every morphism that has
    one, each once."""
    cones = (base for x in range(len(cat.objects)) for base in limits.product_bases(cat, x))
    kernels = (kp[1:] for f in range(cat.n_mor) if (kp := limits.kernel_pair(cat, f)) is not None)
    return dict.fromkeys(itertools.chain(cones, kernels))


def _assert_tuplings_match_reference(cat: FinCategory) -> Counter:
    """``pairing`` on every span of ``_spans`` and ``cotuple`` on every
    coproduct cocone (u, v), for every t1 and t2 that meet the legs' far
    ends, equal the seed's scans.  Returns how often each outcome of
    ``pairing`` came up: a mediator, t1 and t2 out of different objects, or
    no mediator."""
    seen: Counter = Counter()
    dom, cod = cat._dom_l, cat._cod_l
    for p1, p2 in _spans(cat):
        w = limits.UniversalWitness(dom[p1], (p1, p2))
        for t1 in _into(cat, cod[p1]):
            for t2 in _into(cat, cod[p2]):
                got = limits.pairing(cat, p1, p2, t1, t2)
                assert got == reference_relcalc._pairing(cat, w, t1, t2), (p1, p2, t1, t2)
                seen["mediator" if got is not None else "split" if dom[t1] != dom[t2] else "none"] += 1
    for x in range(len(cat.objects)):
        for u, v in limits.coproduct_bases(cat, x):
            for t1 in _out_of(cat, dom[u]):
                for t2 in _out_of(cat, dom[v]):
                    got = limits.cotuple(cat, u, v, t1, t2)
                    assert got == reference_limits.cotuple(cat, u, v, t1, t2), (u, v, t1, t2)
    return seen


def _assert_classes_and_disjointness_match_reference(cat: FinCategory) -> None:
    for x in range(len(cat.objects)):
        assert rc.sub_classes(cat, x) == reference_relcalc.sub_classes(cat, x), x
    assert ext.coproduct_disjointness(cat) == reference_extensivity.coproduct_disjointness(cat)


@pytest.mark.parametrize("name", BUILTINS)
def test_tuplings_equal_the_seed_scans_on_the_builtins(request, name):
    cat, _ = request.getfixturevalue(name)
    seen = Counter()
    for c in (cat, dual_of(cat)):
        seen += _assert_tuplings_match_reference(c)
    assert seen["mediator"] and seen["split"], seen
    # in a thin category every morphism is mono, so every kernel pair is
    # (id, id) and every t1 and t2 out of one object are equal
    assert seen["none"] or name == "golden", seen


@pytest.mark.parametrize("name", BUILTINS)
def test_subobject_classes_and_disjointness_equal_the_seed_on_the_builtins(request, name):
    cat, _ = request.getfixturevalue(name)
    for c in (cat, dual_of(cat)):
        _assert_classes_and_disjointness_match_reference(c)


def test_the_disjointness_witness_names_a_leg_that_is_not_mono(set3):
    """The coproducts of FinSet≤3^op are the products of FinSet, and the
    projection s0 = s1 × s0 -> s1 is not epi, so it is a leg that is not
    mono in the dual.  With the empty set s0 moved to the last object, the
    bases on apex s0 come last, and the first one with parts (s1, s0) fails
    on that leg before any intersection fails."""
    data = set3[0].to_json()
    data["objects"] = data["objects"][1:] + data["objects"][:1]
    cat = dual_of(FinCategory.from_json(data))
    st = ext.coproduct_disjointness(cat)
    assert st.witness == {"kind": "leg-not-mono-square", "base": ["s0>s1#0000", "s0>s0#0000"], "leg": "s0>s1#0000"}
    assert st == reference_extensivity.coproduct_disjointness(cat)


@settings(max_examples=30, deadline=None)
@given(preorders())
def test_tuplings_classes_and_disjointness_equal_the_seed_on_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_tuplings_match_reference(c)
        _assert_classes_and_disjointness_match_reference(c)


def test_the_thin_four_clique_has_one_subobject_per_object():
    """Every object of the 4-clique is isomorphic to every other, so the
    four morphisms into an object are one subobject, represented by the
    least of them."""
    cat = thin_category_from_poset([[True] * 4] * 4)
    for c in (cat, dual_of(cat)):
        seen = _assert_tuplings_match_reference(c)
        assert seen["mediator"] and seen["split"] and not seen["none"], seen
        _assert_classes_and_disjointness_match_reference(c)
        for x in range(4):
            (cls,) = rc.sub_classes(c, x)
            into = _into(c, x)
            assert cls.monos == frozenset(into) and cls.rep == min(into)


# -- each relation operation is one stored fact ----------------------------------------


def _count_arguments(monkeypatch, names: tuple[str, ...]) -> dict[str, list]:
    """Replace each named function on ``relcalc`` by one that logs its
    arguments; the suite looks them up there at every call."""
    log: dict[str, list] = {name: [] for name in names}
    for name in names:
        real = getattr(rc, name)

        def logged(cat, *args, real=real, calls=log[name]):
            calls.append(args)
            return real(cat, *args)

        monkeypatch.setattr(rc, name, logged)
    return log


def test_each_relation_operation_is_computed_once_per_argument(set4, monkeypatch):
    """On FinSet≤4 the suite asks for 105 relation products, 89 images and
    37 preimages, 7,591, 4,386 and 1,136 times; each store, emptied first,
    ends with one entry per distinct argument."""
    cat = set4[0]
    names = ("rel_product", "rel_image", "rel_preimage")
    for name in names:
        monkeypatch.setitem(cat._cache, name, {})
    log = _count_arguments(monkeypatch, names)
    rc.identity_suite(cat)
    sizes = {name: (len(log[name]), len(set(log[name])), len(cat._cache[name])) for name in names}
    assert sizes == {
        "rel_product": (7591, 105, 105),
        "rel_image": (4386, 89, 89),
        "rel_preimage": (1136, 37, 37),
    }


def test_a_second_suite_run_makes_no_product_of_morphisms(monkeypatch):
    """After one identity suite on FinSet≤3, a second run reads every
    relation product, image and preimage from its store, so it calls
    ``limits.product_of_morphisms`` not once."""
    cat = build_category("set", 3)[0]
    first = rc.identity_suite(cat)
    real, calls = limits.product_of_morphisms, []

    def product_of_morphisms(c, *args):
        calls.append(args)
        return real(c, *args)

    monkeypatch.setattr(limits, "product_of_morphisms", product_of_morphisms)
    assert rc.identity_suite(cat) == first
    assert calls == []
