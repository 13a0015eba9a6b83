"""Products of categories against the law from theory.

In C × D, limits and colimits are componentwise, and a coproduct cocone
into (X, Y) is a pair of cocones, one into X and one into Y.  So (f, g)
is extensive in C × D exactly when f and g both are, or when C has no
binary coproduct cocone into cod f, or D has none into cod g: then the
conditions quantify over nothing.  Dually, (f, g) is coextensive exactly
when f and g both are, or when C has no binary product cone out of dom f,
or D has none out of dom g.  Every product of two factors from a fixed
list of categories with at most four morphisms is checked."""

from __future__ import annotations

import itertools

import pytest

from finext import extensivity, limits
from finext.algebra import build_category
from finext.fincat import FinCategory, thin_category_from_poset, validate

from generators import product


def _monoid(elements: list[str], mul: dict[tuple[str, str], str]) -> FinCategory:
    """The one-object category of a monoid whose first element is its unit."""
    arrows = [(e, "*", "*") for e in elements]
    return FinCategory(["*"], arrows, {"*": elements[0]}, {(g, f): mul[g, f] for g in elements for f in elements})


def _parallel_pair() -> FinCategory:
    arrows = [("1a", "a", "a"), ("1b", "b", "b"), ("u", "a", "b"), ("v", "a", "b")]
    composition = {("1a", "1a"): "1a", ("1b", "1b"): "1b"}
    for m in "uv":
        composition[m, "1a"] = composition["1b", m] = m
    return FinCategory(["a", "b"], arrows, {"a": "1a", "b": "1b"}, composition)


T, F = True, False
FACTORS = {
    "one": _monoid(["e"], {("e", "e"): "e"}),
    "discrete2": thin_category_from_poset([[T, F], [F, T]]),
    "chain2": thin_category_from_poset([[T, T], [F, T]]),
    "iso2": thin_category_from_poset([[T, T], [T, T]]),
    "parallel": _parallel_pair(),
    "finset1": build_category("set", 1)[0],
    "z2": _monoid(["e", "s"], {("e", "e"): "e", ("e", "s"): "s", ("s", "e"): "s", ("s", "s"): "e"}),
    "max01": _monoid(["0", "1"], {("0", "0"): "0", ("0", "1"): "1", ("1", "0"): "1", ("1", "1"): "1"}),
}
PAIRS = list(itertools.product(FACTORS, repeat=2))


def test_the_factors_are_categories_with_at_most_four_morphisms():
    for name, c in FACTORS.items():
        assert validate(c) == [] and c.n_mor <= 4, name


def _verdicts(c: FinCategory, mode: str) -> list[bool]:
    return [extensivity.morphism_status(c, f, mode).passed for f in range(c.n_mor)]


def _vacuous(c: FinCategory, mode: str) -> list[bool]:
    """Per morphism: the category has no binary coproduct cocone into its
    codomain (extensive), or no binary product cone out of its domain
    (coextensive)."""
    if mode == "extensive":
        return [limits.coproduct_bases(c, c._cod_l[f]) == () for f in range(c.n_mor)]
    return [limits.product_bases(c, c._dom_l[f]) == () for f in range(c.n_mor)]


@pytest.mark.parametrize("left, right", PAIRS, ids=lambda v: str(v))
def test_a_product_is_a_category(left, right):
    assert validate(product(FACTORS[left], FACTORS[right])) == []


@pytest.mark.parametrize("left, right", PAIRS, ids=lambda v: str(v))
def test_product_verdicts_follow_the_componentwise_law(left, right):
    c, d = FACTORS[left], FACTORS[right]
    p = product(c, d)
    for mode in ("extensive", "coextensive"):
        vc, vd, nc, nd = _verdicts(c, mode), _verdicts(d, mode), _vacuous(c, mode), _vacuous(d, mode)
        for f, g in itertools.product(range(c.n_mor), range(d.n_mor)):
            expected = vc[f] and vd[g] or nc[f] or nd[g]
            got = extensivity.morphism_status(p, p.m(f"({c.mid(f)},{d.mid(g)})"), mode).passed
            assert got == expected, (mode, c.mid(f), d.mid(g))
