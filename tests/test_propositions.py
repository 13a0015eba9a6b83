"""The named-statement suite: stable ids, frozen verdicts on the reference
categories, and honest inapplicability where a hypothesis cannot be staged."""

from __future__ import annotations

import pytest

from finext import propositions
from finext.propositions import (
    PROPOSITION_IDS,
    EXTENSIVITY_IDS,
    RELCALC_IDS,
    proposition_suite,
)

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
