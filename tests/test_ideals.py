"""Ideal arithmetic: quotient, saturation, intersection, elimination,
contraction, dimension."""

import time
from functools import reduce
from operator import le, mul
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealdec.domains import QQ, PrimeField
from idealdec.groebner import buchberger
from idealdec.ideals import (
    Ideal,
    IdealError,
    chained_saturation,
    contract,
    contract_with_trail,
    dimension,
    eliminate,
    ideal_sum,
    intersect,
    quotient,
    saturate,
    saturation_coefficients,
    sort_saturation_coefficients,
)
from idealdec.indepsets import maximal_independent_sets
from idealdec.orders import lex_order
from idealdec.rings import PolyRing, adjoin, inject, project


def _ideal(ring, *texts):
    return Ideal.parse(ring, texts)


def test_membership_and_equality(rxy):
    I = _ideal(rxy, "x^2 - y", "y^2")
    assert I.contains(rxy.parse("x^2*y^2 - y^3"))
    assert not I.contains(rxy.parse("x"))
    J = _ideal(rxy, "y^2", "x^2 - y")
    assert I.equals(J)
    assert I.contains_ideal(J) and J.contains_ideal(I)


def test_zero_and_unit_ideals(rxy):
    Z = Ideal(rxy, [])
    assert Z.is_zero() and not Z.is_trivial()
    U = _ideal(rxy, "x", "x + 1")
    assert U.is_trivial()
    assert dimension(Z) == 2
    assert dimension(U) == -1


def test_quotient(rxy):
    I = _ideal(rxy, "x*y")
    assert quotient(I, rxy.parse("x")).equals(_ideal(rxy, "y"))
    # quotient by a unit or by a member
    assert quotient(I, rxy.parse("2")).equals(I)
    assert quotient(I, rxy.parse("x*y")).is_trivial()
    with pytest.raises(IdealError):
        quotient(I, rxy.zero)


def test_saturate_reports_exponent(rxy):
    I = _ideal(rxy, "x^2*y")
    got = saturate(I, rxy.parse("x"))
    assert got.ideal.equals(_ideal(rxy, "y"))
    assert got.exponent == 2
    # stability: I : h^m == I : h^(m+1)
    again = quotient(got.ideal, rxy.parse("x"))
    assert again.equals(got.ideal)


def _quotient_chain(I, h):
    """I : h^infinity by repeated I : h until stable, with the step count."""
    current, steps = I, 0
    while True:
        nxt = quotient(current, h)
        if nxt.equals(current):
            return current, steps
        current, steps = nxt, steps + 1


def test_saturate_matches_quotient_chain(rxy):
    I = _ideal(rxy, "x^2*y", "x*y^3 - x^2")
    h = rxy.parse("x")
    got = saturate(I, h)
    reference, steps = _quotient_chain(I, h)
    assert got.ideal.equals(reference)
    assert got.exponent == steps == 3


def test_saturate_heavy_tailed_case(rxyz):
    # a saturation that took about 8 s when computed as a chain of quotients
    I = _ideal(
        rxyz,
        "-x^2*y^2*z + 2*x*y*z^2 - 2*z^2",
        "-x^2*y*z^2 + 2*x*y^2*z - 2*y^2",
    )
    h = rxyz.parse("-2*x^2*y^2*z - 2*x^2*z + 2*x*y")
    t0 = time.perf_counter()
    got = saturate(I, h)
    elapsed = time.perf_counter() - t0
    assert got.exponent == 3
    # the reduced degrevlex basis of I : h^infinity, checked against sympy
    expected = [
        "x^4*y*z - 4*x^2*y*z + 4*x*y + 4*x*z - 4",
        "y^4*z^2 - 1/2*y^5 - 1/2*y^4*z - 1/2*y^3*z^2 - y^2*z^4"
        " + 1/2*y^2*z^3 + 1/2*y*z^4 + 1/2*z^5",
        "x*y*z^3 - x*z^4 + y^3 - 2*y^2*z^2 + 2*y*z^3 - z^3",
        "x^2*y^2 - 2*x*y*z + 2*z",
        "x*y^3 - x*z^3 - 2*y^2*z + 2*y*z^2",
        "x^2*z^2 - 2*x*y*z + 2*y",
    ]
    assert set(got.ideal.canonical_generators()) == {rxyz.parse(t) for t in expected}
    assert elapsed < 5.0, f"saturation took {elapsed:.1f}s"


def test_saturation_by_constant_is_identity(rxy):
    I = _ideal(rxy, "x^2*y")
    got = saturate(I, rxy.parse("5"))
    assert got.ideal.equals(I)
    assert got.exponent == 0


def test_intersection(rxy):
    A = _ideal(rxy, "x")
    B = _ideal(rxy, "y")
    assert intersect(A, B).equals(_ideal(rxy, "x*y"))
    # intersection of primary components of <x^2, x*y>
    Q1 = _ideal(rxy, "x")
    Q2 = _ideal(rxy, "x^2", "y")
    assert intersect(Q1, Q2).equals(_ideal(rxy, "x^2", "x*y"))


def test_eliminate(rxyz):
    I = _ideal(rxyz, "y - x^2", "z - x^3")
    J = eliminate(I, [0])
    assert J.contains(rxyz.parse("y^3 - z^2"))
    assert all(g.degree_in(0) == 0 for g in J.generators)
    nothing = eliminate(I, [])
    assert nothing.equals(I)


def test_ideal_sum(rxy):
    I = _ideal(rxy, "x*y")
    J = ideal_sum(I, [rxy.parse("x - 1")])
    assert J.contains(rxy.parse("y"))
    assert dimension(J) == 0


def test_dimension(rxyz):
    assert dimension(_ideal(rxyz, "x*y", "x*z")) == 2
    assert dimension(_ideal(rxyz, "x*y*z")) == 2
    assert dimension(_ideal(rxyz, "y - x^2", "z - x^3")) == 1
    assert dimension(_ideal(rxyz, "x^2 - 1", "y^3 - 1", "z")) == 0


def test_sort_saturation_coefficients_cheapest_first(rxy):
    # each coefficient comes back as its canonical associate, whatever the
    # scaling of the basis it came from
    cs = [
        rxy.parse("x^3 + x + y + 1"),
        rxy.parse("-2*y"),
        rxy.parse("-1/3*x^2 - 1/3*y^2"),
        rxy.parse("y"),
    ]
    got = sort_saturation_coefficients(cs)
    assert [str(c) for c in got] == ["y", "x^2 + y^2", "x^3 + x + y + 1"]


def test_chained_saturation_collapses_duplicates(rxy):
    I = _ideal(rxy, "x^2*y^2")
    cs = [rxy.parse("x"), rxy.parse("x"), rxy.parse("y")]
    result, trail = chained_saturation(I, cs)
    assert result.is_trivial()
    assert len(trail) >= 1


def test_contract_recovers_component(rxy):
    # <x*y> localized at {y} contracts to <x>
    I = _ideal(rxy, "x*y")
    got = contract(I, [1])
    assert got.equals(_ideal(rxy, "x"))
    other = contract(I, [0])
    assert other.equals(_ideal(rxy, "y"))


def test_contract_with_trail_records_saturations(rxy):
    I = _ideal(rxy, "x*y")
    got, trail = contract_with_trail(I, [1])
    assert got.equals(_ideal(rxy, "x"))
    assert [(str(c), m) for c, m in trail] == [("y", 1)]


def test_contract_of_the_zero_ideal_is_zero(rxy):
    # the localized basis of the zero ideal is empty and has no packing
    Z = Ideal(rxy, [])
    assert saturation_coefficients(Z, [1]) == []
    assert contract(Z, [1]).is_zero()


def test_contract_rejects_dependent_sets(rxy):
    I = _ideal(rxy, "x^2 - 1", "y^2 - 1")
    with pytest.raises(IdealError):
        contract(I, [0])


def test_contract_at_the_empty_set_is_the_ideal(rxy):
    I = _ideal(rxy, "x^2 - 1", "y^2 - 1")
    got, trail = contract_with_trail(I, [])
    assert got.equals(I) and trail == []


def test_canonical_generators_are_stable(rxy):
    I = _ideal(rxy, "y^2 - 1", "x^2 - y")
    J = _ideal(rxy, "x^2 - y", "y^2 - 1")
    assert I.canonical_generators() == J.canonical_generators()


def test_normal_form_respects_requested_order(rxy):
    I = _ideal(rxy, "x^2 - y")
    lex_nf = I.normal_form(rxy.parse("x^2"), lex_order())
    assert lex_nf == rxy.parse("y")


_RXYZ = PolyRing(("x", "y", "z"), QQ)
_MONOMIALS = [(a, b, c) for a in range(4) for b in range(4 - a)
              for c in range(4 - a - b)]
_gens = st.lists(
    st.dictionaries(st.sampled_from(_MONOMIALS), st.sampled_from([-2, -1, 1, 2]),
                    min_size=2, max_size=3),
    min_size=2, max_size=3,
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(gens=_gens, data=st.data())
def test_contract_is_saturation_by_the_coefficient_product(gens, data):
    # chaining the saturations, in either order, is one saturation by the
    # product of the coefficients; and the contraction does not depend on
    # the block order of the localized basis: the lex one gives it too
    I = Ideal(_RXYZ, [_RXYZ.poly(t) for t in gens])
    sets = maximal_independent_sets(I.groebner())
    if not sets:  # the unit ideal
        assert I.is_trivial()
        return
    u = data.draw(st.sampled_from(sets))
    cs = saturation_coefficients(I, u)
    whole = saturate(I, reduce(mul, cs, _RXYZ.one)).ideal
    assert contract(I, u).equals(whole)
    assert chained_saturation(I, cs[::-1])[0].equals(whole)
    lex = buchberger(I.generators, lex_order(), u).leading_coefficients()
    assert chained_saturation(I, lex)[0].equals(whole)


# -- saturation and intersection without a tag variable -----------------------
#
# The references below eliminate a tag variable themselves, through
# eliminate; quotient is no reference, as it intersects.


def _rabinowitsch(I, h):
    """I : h^infinity by eliminating w from I + <w*h - 1>, and the least m
    with h^m (I : h^infinity) inside I, by membership."""
    big, w = adjoin(I.ring, "w")
    tag = big.var(big.names[w])
    E = eliminate(Ideal(big, [inject(g, big) for g in I.generators]
                        + [tag * inject(h, big) - big.one]), [w])
    S = Ideal(I.ring, [project(g, I.ring) for g in E.generators])
    m = 0
    while not all(I.contains(h ** m * g) for g in S.generators):
        m += 1
    return S, m


def _tag_intersection(I, J):
    """I meet J by eliminating t from t*I + (1-t)*J."""
    big, t = adjoin(I.ring, "t")
    tag = big.var(big.names[t])
    E = eliminate(Ideal(big, [tag * inject(g, big) for g in I.generators]
                        + [(big.one - tag) * inject(g, big) for g in J.generators]), [t])
    return Ideal(I.ring, [project(g, I.ring) for g in E.generators])


def _without_tag(op, *args):
    """op(*args), failing if it adjoins a tag variable."""
    with mock.patch("idealdec.ideals._eliminate_tag",
                    side_effect=AssertionError("a tag variable was adjoined")):
        return op(*args)


_TAG_FREE_RINGS = [PolyRing(("x", "y", "z"), QQ),
                   PolyRing(("x", "y", "z"), PrimeField(32003))]
_COEFFS = st.sampled_from([-3, -1, 1, 2, 7])


@st.composite
def _homogeneous_terms(draw, monomial):
    degree = draw(st.integers(1, 3))
    size = 1 if monomial else draw(st.integers(1, 3))
    return draw(st.dictionaries(
        st.sampled_from([e for e in _MONOMIALS if sum(e) == degree]), _COEFFS,
        min_size=size, max_size=size))


@st.composite
def _term(draw):
    """A single term over 1-3 variables, its coefficient not 1."""
    variables = draw(st.sets(st.integers(0, 2), min_size=1, max_size=3))
    exps = tuple(draw(st.integers(1, 2)) if i in variables else 0 for i in range(3))
    return {exps: draw(st.sampled_from([-3, 2, 7]))}


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(ring=st.sampled_from(_TAG_FREE_RINGS), monomial=st.booleans(), data=st.data())
def test_homogeneous_saturation_by_a_term_matches_rabinowitsch(ring, monomial, data):
    gens = data.draw(st.lists(_homogeneous_terms(monomial), min_size=1, max_size=3))
    I = Ideal(ring, [ring.poly(t) for t in gens])
    h = ring.poly(data.draw(_term()))
    got = _without_tag(saturate, I, h)
    S, m = _rabinowitsch(I, h)
    assert got.ideal.equals(S)
    assert got.exponent == m


def _assert_minimal_monomials(J):
    exps = [tuple(g.terms) for g in J.generators]
    assert all(len(e) == 1 for e in exps)
    exps = [e for (e,) in exps]
    assert len(set(exps)) == len(exps)
    assert not any(a != b and all(map(le, a, b)) for a in exps for b in exps)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(ring=st.sampled_from(_TAG_FREE_RINGS),
       a=st.lists(st.sampled_from(_MONOMIALS), min_size=1, max_size=4),
       b=st.lists(st.sampled_from(_MONOMIALS), min_size=1, max_size=4),
       coeff=_COEFFS)
def test_monomial_intersection_matches_elimination(ring, a, b, coeff):
    I = Ideal(ring, [ring.monomial(e, coeff) for e in a])
    J = Ideal(ring, [ring.monomial(e) for e in b])
    got = _without_tag(intersect, I, J)
    assert got.equals(_tag_intersection(I, J))
    _assert_minimal_monomials(got)


def test_monomial_intersection_with_the_unit_ideal_and_redundant_generators(rxyz):
    I = _ideal(rxyz, "x^2", "x^2*y", "x^2", "y*z", "2*y*z^2")
    U = _ideal(rxyz, "x*y", "1", "z")
    got = _without_tag(intersect, I, U)
    assert got.equals(_tag_intersection(I, U))
    assert got.equals(_ideal(rxyz, "x^2", "y*z"))
    _assert_minimal_monomials(got)
    got = _without_tag(intersect, I, _ideal(rxyz, "y", "x*y"))
    assert got.equals(_ideal(rxyz, "x^2*y", "y*z"))
    _assert_minimal_monomials(got)


def test_inhomogeneous_saturation_by_a_variable_eliminates(rxyz):
    # dividing a basis with y last by y-contents would miss x*z^3 + 1/2*x*y
    I = _ideal(rxyz, "x^2*z^2 + x*y^2", "x^2*z - 2*x*y*z^2")
    h = rxyz.parse("y")
    got = saturate(I, h)
    S, m = _rabinowitsch(I, h)
    assert got.ideal.equals(S)
    assert got.exponent == m == 2
    assert got.ideal.contains(rxyz.parse("x*z^3 + 1/2*x*y"))
