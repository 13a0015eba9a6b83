"""The named-statement suite: stable ids, frozen verdicts on the reference
categories, and honest inapplicability where a hypothesis cannot be staged.
The suite is also compared with the seed's runners in
``reference_propositions``: every status, witness and detail, on the
built-in categories of ``verify-paper``, an inflated category
(``generators.inflate``), thin categories of random preorders
(``generators.preorders``) and the duals of these, also with a fault
injected into the verdicts both suites read."""

from __future__ import annotations

import contextlib
import itertools
import random
from unittest import mock

import pytest
from hypothesis import given, settings

import reference_propositions
from finext import limits, propositions, relcalc
from finext.algebra import build_category
from finext.extensivity import CheckStatus
from finext.fincat import FinCategory, dual_of, thin_category_from_poset, validate
from finext.propositions import (
    PROPOSITION_IDS,
    EXTENSIVITY_IDS,
    RELCALC_IDS,
    proposition_suite,
)
from generators import finite_limit_gaps, inflate, preorders

SET3_EXPECTED = {
    "prop-composite": "pass",
    "lemma-left-factor": "pass",
    "prop-iso-c1-e1": "pass",
    "prop-iso-c2-product-iso": "pass",
    "prop-c1-coext": "pass",
    "cor-e1-shortcut": "pass",
    "cor-iso-identity": "pass",
    "lemma-product-lift-mono": "pass",
    "lemma-product-mono-reflect": "pass",
    "prop-extremal-identity": "pass",
    "prop-conservativity": "pass",
    "prop-inclusion-regular-mono": "pass",
    "prop-e1-implies-extensive": "pass",
    "cor-inclusion-ext-equiv": "pass",
    "prop-pullback-stability": "pass",
    "lemma-common-coequaliser": "pass",
    "lemma-codisjoint": "inapplicable",
    "prop-srp-binary-iff-coext-projections": "inapplicable",
    "thm-finite-srp": "pass",
    "prop-commute-split-mono-coextensive": "inapplicable",
    "thm-barr-exact": "pass",
}

POINTED3_EXPECTED = dict(
    SET3_EXPECTED,
    **{
        "lemma-codisjoint": "pass",
        "prop-srp-binary-iff-coext-projections": "pass",
    },
)

GOLDEN_EXPECTED = dict(
    SET3_EXPECTED,
    **{
        "cor-e1-shortcut": "inapplicable",
        "prop-inclusion-regular-mono": "inapplicable",
        "prop-e1-implies-extensive": "inapplicable",
        "prop-pullback-stability": "inapplicable",
    },
)

DUAL_SET3_EXPECTED = dict(
    SET3_EXPECTED,
    **{
        "prop-inclusion-regular-mono": "inapplicable",
        "prop-e1-implies-extensive": "inapplicable",
        "prop-pullback-stability": "inapplicable",
        "lemma-codisjoint": "pass",
        "prop-srp-binary-iff-coext-projections": "pass",
        "prop-commute-split-mono-coextensive": "pass",
    },
)


def test_id_roster_is_stable():
    assert len(PROPOSITION_IDS) == 21
    assert len(EXTENSIVITY_IDS) == 20
    assert RELCALC_IDS == ("thm-barr-exact",)
    assert tuple(EXTENSIVITY_IDS) + tuple(RELCALC_IDS) == tuple(PROPOSITION_IDS)
    assert len(set(PROPOSITION_IDS)) == 21


def _statuses(cat):
    return {cid: st.status for cid, st in proposition_suite(cat)}


def test_suite_on_small_sets(set3):
    cat, _ = set3
    assert _statuses(cat) == SET3_EXPECTED


def test_suite_on_pointed_sets(pointed3):
    cat, _ = pointed3
    assert _statuses(cat) == POINTED3_EXPECTED


def test_suite_on_the_two_point_chain(golden):
    cat, _ = golden
    assert _statuses(cat) == GOLDEN_EXPECTED


def test_suite_on_the_dual_of_small_sets(dual_set3):
    assert _statuses(dual_set3) == DUAL_SET3_EXPECTED


def test_no_fail_anywhere_on_reference_categories(set3, pointed3, golden, dual_set3):
    for cat in (set3[0], pointed3[0], golden[0], dual_set3):
        assert all(st.status != "fail" for _, st in proposition_suite(cat))


def test_commutation_statement_runs_nonvacuously_on_the_dual(dual_set3):
    res = dict(proposition_suite(dual_set3, selection=["prop-commute-split-mono-coextensive"]))
    st = res["prop-commute-split-mono-coextensive"]
    assert st.passed
    assert st.details["commutation"] == {"tested": 25, "inapplicable": 0}


def test_a_failing_coextensive_report_names_the_failing_morphism(dual_set3, monkeypatch):
    """Fault injection: with one morphism of FinSet≤3^op made to fail the
    coextensive report, the statement fails and names that morphism and
    its witness."""
    mid = sorted(dual_set3.mor_ids)[len(dual_set3.mor_ids) // 2]
    injected = {"kind": "injected-fault", "morphism": mid}
    real_report = propositions.category_report

    def report_with_one_failure(cat, mode="extensive"):
        rep = real_report(cat, mode)
        rep["morphisms"][mid] = {"status": "fail", "witness": injected}
        rep["verdict"] = "fail"
        return rep

    monkeypatch.setattr(propositions, "category_report", report_with_one_failure)
    res = dict(proposition_suite(dual_set3, selection=["prop-commute-split-mono-coextensive"]))
    st = res["prop-commute-split-mono-coextensive"]
    assert st.status == "fail"
    assert st.witness == {"kind": "category-not-coextensive", "morphism": mid, "inner": injected}


def test_selection_limits_and_orders_the_run(set3):
    cat, _ = set3
    res = proposition_suite(cat, selection=["thm-finite-srp", "prop-composite"])
    assert [cid for cid, _ in res] == ["thm-finite-srp", "prop-composite"]
    st = res[0][1]
    assert st.details == {"instances": 3, "vacuous": 1, "arity_bound": 3}


def test_unknown_selection_raises(set3):
    cat, _ = set3
    with pytest.raises(KeyError):
        proposition_suite(cat, selection=["nope"])


def test_suite_is_deterministic(set3):
    cat, _ = set3
    a = [(cid, st.as_dict()) for cid, st in proposition_suite(cat, seed=3)]
    b = [(cid, st.as_dict()) for cid, st in proposition_suite(cat, seed=3)]
    assert a == b


def _flipped(real):
    """``real`` with the verdict of every fourth morphism flipped, the same
    on every call."""

    def morphism_status(cat, f, mode="extensive"):
        st = real(cat, f, mode)
        if f % 4:
            return st
        return CheckStatus("pass") if st.failed else CheckStatus("fail", {"kind": "injected-fault"})

    return morphism_status


@contextlib.contextmanager
def _flipped_verdicts():
    """The fault wherever the suites read ``morphism_status``: in
    ``finext.propositions``, which the reference reads too, and in
    ``finext.relcalc``, which the split-mono gate and ``thm-barr-exact``
    of both suites read."""
    with contextlib.ExitStack() as stack:
        for module in (propositions, relcalc):
            stack.enter_context(mock.patch.object(module, "morphism_status", _flipped(module.morphism_status)))
        yield


@contextlib.contextmanager
def _one_srp_search_per_object():
    """``has_finite_srp``, which both suites call and neither changes, run
    once per (category, object, arity) while the context is open: it is
    the costliest step of both suites, and the fault does not reach it."""
    memo = {}
    real = propositions.has_finite_srp

    def has_finite_srp(cat, oid, k):
        key = (id(cat), oid, k)
        if key not in memo:
            memo[key] = real(cat, oid, k)
        return memo[key]

    with contextlib.ExitStack() as stack:
        for module in (propositions, reference_propositions):
            stack.enter_context(mock.patch.object(module, "has_finite_srp", has_finite_srp))
        yield


def _as_rows(results):
    return [(cid, st.status, st.witness, st.details) for cid, st in results]


def _assert_suite_equals_the_reference(cat) -> None:
    """Equal statuses, witnesses and details, without and with the fault, at
    seeds 0 and 5."""
    with _one_srp_search_per_object():
        for faulty in (False, True):
            for seed in (0, 5):
                with _flipped_verdicts() if faulty else contextlib.nullcontext():
                    got = _as_rows(proposition_suite(cat, seed=seed))
                    assert got == _as_rows(reference_propositions.proposition_suite(cat, seed=seed)), (faulty, seed)


# the verify-paper built-ins; finset3-op is the dual of set3
@pytest.mark.parametrize("name", ["set3", "pointed3", "golden", "slat3", "lat4", "cpos3", "mon3"])
def test_suite_equals_the_reference(request, name):
    cat, _ = request.getfixturevalue(name)
    for c in (cat, dual_of(cat)):
        _assert_suite_equals_the_reference(c)


def test_suite_equals_the_reference_on_an_inflation(dual_set3):
    # a copy of the terminal s1, whose product with s2 is s2 through an iso
    cat = inflate(dual_set3, dual_set3.o("s1"), 0)
    for c in (cat, dual_of(cat)):
        _assert_suite_equals_the_reference(c)


# at five points Hypothesis soon draws the five-element clique, where one
# example takes about 1.6 s: each object carries 125 ternary product cones,
# and the strict-refinement check counts every pair of them
@settings(max_examples=30, deadline=None)
@given(preorders(max_points=4))
def test_suite_equals_the_reference_on_preorders(leq):
    cat = thin_category_from_poset(leq)
    for c in (cat, dual_of(cat)):
        _assert_suite_equals_the_reference(c)


# -- the common-coequaliser lemma's sample and predicates -----------------------


@pytest.mark.parametrize("n", [0, 1, 2, 25, 26, 37602])
def test_sampled_positions_are_the_shuffled_prefix(n):
    for seed in range(16):
        order = list(range(n))
        random.Random(seed).shuffle(order)
        assert propositions._sampled_positions(n, seed) == order[:propositions.SAMPLE_BOUND], seed


@pytest.mark.parametrize("name", ["set3", "pointed3", "golden", "slat3", "lat4", "cpos3", "mon3"])
def test_lemma_sample_and_predicates_equal_the_seeds(request, name):
    """The sampled (top, epi) pairs are the first of the seed's shuffled
    combination list, and on every filler of every sampled pair (seeds
    0-15) the lemma's push and coeq are ``is_pushout_square`` and
    ``is_coequaliser``."""
    cat, _ = request.getfixturevalue(name)
    for c in (cat, dual_of(cat)):
        pairs, combos = set(), reference_propositions.lemma_combinations(c)
        for seed in range(16):
            shuffled = list(combos)
            random.Random(seed).shuffle(shuffled)
            sampled = propositions._lemma_sample(c, seed)
            assert sampled == shuffled[:propositions.SAMPLE_BOUND]
            pairs.update(sampled)
        for (u1, v1, q1), e in sorted(pairs):
            fillers = propositions._lemma_fillers(c, u1, v1, q1, e)
            for u2, v2, q2, f, g, push, coeq in itertools.islice(fillers, propositions.INNER_BOUND):
                assert push == limits.is_pushout_square(c, q1, f, g, q2), (u1, v1, e, f, q2)
                assert coeq == limits.is_coequaliser(c, u2, v2, q2), (u1, v1, e, f, q2)


def _outcome(runner, cat, seed):
    try:
        return runner(cat, seed=seed).as_dict()
    except Exception as exc:  # a table with a hole may break a search both share
        return type(exc).__name__


def test_lemma_equals_the_reference_with_a_missing_composite():
    """With one composite taken out of the table, ``compose`` answers None
    and the table -1; either way the missing composite selects no filler,
    so the lemma's report equals the reference's."""
    for variety in ("set", "pointed"):
        doc = build_category(variety, 3)[0].to_json()
        entries = doc["composition"]
        for gone in random.Random(1).sample(range(len(entries)), 8):
            cat = FinCategory(
                doc["objects"],
                [(m["id"], m["dom"], m["cod"]) for m in doc["morphisms"]],
                dict(doc["identities"]),
                {(e["g"], e["f"]): e["gf"] for i, e in enumerate(entries) if i != gone},
            )
            for c in (cat, dual_of(cat)):
                for seed in range(2):
                    got = _outcome(propositions.lemma_common_coequaliser, c, seed)
                    assert got == _outcome(reference_propositions.lemma_common_coequaliser, c, seed), (gone, seed)


# -- the smallest premise gaps ---------------------------------------------------------


def _walking_parallel_pair() -> FinCategory:
    """u, v: A -> B and the two identities."""
    return FinCategory(
        ["A", "B"],
        [("1A", "A", "A"), ("1B", "B", "B"), ("u", "A", "B"), ("v", "A", "B")],
        {"A": "1A", "B": "1B"},
        {("1A", "1A"): "1A", ("1B", "1B"): "1B", ("u", "1A"): "u", ("v", "1A"): "v", ("1B", "u"): "u", ("1B", "v"): "v"},
    )


def _non_split_idempotent() -> FinCategory:
    """i: 0 -> X and an idempotent e on X that does not split, e∘i = i."""
    return FinCategory(
        ["0", "X"],
        [("10", "0", "0"), ("1X", "X", "X"), ("i", "0", "X"), ("e", "X", "X")],
        {"0": "10", "X": "1X"},
        {
            ("10", "10"): "10", ("1X", "1X"): "1X", ("i", "10"): "i", ("1X", "i"): "i",
            ("e", "i"): "i", ("e", "e"): "e", ("1X", "e"): "e", ("e", "1X"): "e",
        },
    )


def _gaps(terminal: bool, products: int, pullbacks: int) -> dict:
    return {"terminal": terminal, "missing_products": products, "missing_pullbacks": pullbacks}


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_barr_exact_fails_on_the_walking_parallel_pair(side):
    """The smallest category where ``thm-barr-exact`` fails, 4 morphisms: a
    sound table that is not finitely complete, so the Barr-exact premise
    the check does not test is false, on both sides."""
    cat = _walking_parallel_pair()
    c = cat if side == "primal" else dual_of(cat)
    assert validate(c) == []
    assert finite_limit_gaps(c) == _gaps(False, 3, 2)
    ((_, st),) = proposition_suite(c, ["thm-barr-exact"])
    assert st.failed and st.witness["kind"] == "biconditional-violated"


@pytest.mark.parametrize("side", ["primal", "dual"])
def test_inclusion_regular_mono_fails_on_a_non_split_idempotent(side):
    """The smallest category where ``prop-inclusion-regular-mono`` fails, 4
    morphisms: i: 0 -> X is the coproduct inclusion of X = 0 + X and
    equalises no pair universally: it forks (e, 1X), but so does e, which
    does not factor through 0.  The table is sound and not finitely
    complete; the dual does not fail."""
    cat = _non_split_idempotent()
    c = cat if side == "primal" else dual_of(cat)
    assert validate(c) == []
    assert finite_limit_gaps(c) == (_gaps(False, 1, 1) if side == "primal" else _gaps(True, 1, 2))
    ((_, st),) = proposition_suite(c, ["prop-inclusion-regular-mono"])
    if side == "primal":
        assert st.failed and st.witness == {"kind": "inclusion-not-regular-mono", "morphism": "i"}
    else:
        assert not st.failed
