"""Hilbert-Poincare numerators, and the bases they drive.

The numerator of a monomial ideal must give, through N(t) / (1 - t)^n,
the number of standard monomials in each degree, counted here by brute
force, for random monomial ideals with any exponents; on larger ones, in
up to six variables, which reach the pivot step, it must equal the sum by
inclusion and exclusion over the sets of generators.  Adding a monomial by
N(L + <m>) = N(L) - t^deg(m) N(L : m) must give the numerator of the
larger ideal.

A basis computed with the ideal's Hilbert numerator must equal the one
computed without it, entry for entry, under lex, block and localized
orders: for random homogeneous ideals over Q and GF(7), for the binomial
edge ideals of the paths P3-P6, and for every basis a GTZ run on P3-P5
computes with a numerator.  ``Ideal.groebner`` passes a numerator only
for homogeneous generators whose degrevlex basis is cached.
"""

from itertools import combinations, product
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import idealdec.groebner as groebner
from idealdec import hilbert
from idealdec.domains import QQ, PrimeField
from idealdec.groebner import GroebnerError, _packing, buchberger
from idealdec.ideals import Ideal
from idealdec.indepsets import maximal_independent_sets
from idealdec.orders import DEGREVLEX, LEX, block_order, degrevlex_order, lex_order
from idealdec.rings import PolyRing

from test_decompose import _path_edge_ideal

_settings = settings(max_examples=80, deadline=None, derandomize=True, database=None)


def _standard_counts(gens, nvars, top):
    """The number of monomials of each degree up to ``top`` that no
    generator divides."""
    counts = [0] * (top + 1)
    for e in product(range(top + 1), repeat=nvars):
        if sum(e) <= top and not any(all(map(int.__le__, g, e)) for g in gens):
            counts[sum(e)] += 1
    return counts


def _series(numerator, nvars, top):
    """The coefficients up to ``top`` of numerator / (1 - t)^nvars."""
    return [sum(c * comb(nvars - 1 + d - k, nvars - 1)
                for k, c in enumerate(numerator) if k <= d)
            for d in range(top + 1)]


@st.composite
def _monomial_ideals(draw):
    nvars = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, 5)] * nvars).filter(lambda e: sum(e) <= 5)
    return nvars, draw(st.lists(exps, max_size=6))


@_settings
@given(ideal=_monomial_ideals())
def test_numerator_counts_the_standard_monomials(ideal):
    nvars, gens = ideal
    assert _series(hilbert.numerator(gens), nvars, 8) == _standard_counts(gens, nvars, 8)


@_settings
@given(nvars=st.integers(1, 6), data=st.data())
def test_numerator_is_the_inclusion_exclusion_sum(nvars, data):
    gens = data.draw(st.lists(st.tuples(*[st.integers(0, 3)] * nvars), max_size=10))
    # the sum over the sets S of generators of (-1)^|S| t^deg(lcm(S))
    coeffs = [0] * (3 * nvars + 1)
    for k in range(len(gens) + 1):
        for subset in combinations(gens, k):
            coeffs[sum(map(max, zip(*subset)))] += (-1) ** k
    while coeffs and not coeffs[-1]:
        coeffs.pop()
    assert hilbert.numerator(gens) == tuple(coeffs)


def test_numerator_of_small_ideals():
    assert hilbert.numerator([]) == (1,)
    assert hilbert.numerator([(0, 0)]) == ()
    assert hilbert.numerator([(1, 2), (0, 0)]) == ()
    # (1 - t^2)(1 - t^3), and x^3 * y is redundant
    assert hilbert.numerator([(2, 0), (0, 3), (3, 1)]) == (1, 0, -1, -1, 0, 1)
    # <x*y, x*z>: 1 - 2 t^2 + t^3
    assert hilbert.numerator([(1, 1, 0), (1, 0, 1)]) == (1, 0, -2, 1)


@_settings
@given(ideal=_monomial_ideals(), data=st.data())
def test_numerator_with_a_monomial_added(ideal, data):
    nvars, gens = ideal
    m = data.draw(st.tuples(*[st.integers(0, 4)] * nvars))
    packing = _packing(degrevlex_order(), nvars, 8)

    def packed(e):
        return packing.pack(e) & packing.exps

    grown = hilbert.numerator_with(hilbert.numerator(gens), list(map(packed, gens)),
                                   packed(m), packing.width, packing.guards)
    assert grown == hilbert.numerator(gens + [m])


# -- Hilbert-driven bases --------------------------------------------------------


def _unpacked_entries(G):
    """The entries of the reduced basis G, with unpacked monomials."""
    G.elements
    unpack = G._packing.unpack
    return [(unpack(lead), a, sorted((unpack(e), c) for e, c in tail))
            for lead, a, tail in G._entries]


def _assert_same_basis(with_series, without):
    assert _unpacked_entries(with_series) == _unpacked_entries(without)
    assert with_series.elements == without.elements
    assert with_series.leading_coefficients() == without.leading_coefficients()


def _assert_driven_bases_agree(gens, order, loc=None):
    numerator = buchberger(gens, degrevlex_order()).hilbert_numerator()
    _assert_same_basis(buchberger(gens, order, loc, numerator),
                       buchberger(gens, order, loc))


@st.composite
def _homogeneous_ideals(draw):
    nvars = draw(st.integers(2, 4))
    ring = PolyRing(tuple("xyzw"[:nvars]), draw(st.sampled_from([QQ, PrimeField(7)])))
    gens = []
    for _ in range(draw(st.integers(1, 3))):
        degree = draw(st.integers(1, 3))
        monomials = [e for e in product(range(degree + 1), repeat=nvars)
                     if sum(e) == degree]
        terms = draw(st.dictionaries(st.sampled_from(monomials),
                                     st.integers(-3, 3).filter(bool),
                                     min_size=1, max_size=4))
        gens.append(ring.poly(terms))
    return ring, gens


@st.composite
def _orders_and_localizations(draw, nvars):
    """lex, a two-block order, or a plain order localized at a nonempty
    proper subset of the variables."""
    kind = draw(st.sampled_from(["lex", "block", "localized"]))
    if kind == "lex":
        return lex_order(), None
    cut = draw(st.integers(1, nvars - 1))
    perm = draw(st.permutations(range(nvars)))
    if kind == "block":
        return block_order([(tuple(perm[:cut]), draw(st.sampled_from([LEX, DEGREVLEX]))),
                            (tuple(perm[cut:]), draw(st.sampled_from([LEX, DEGREVLEX])))]), None
    return draw(st.sampled_from([lex_order(), degrevlex_order()])), perm[:cut]


@_settings
@given(ideal=_homogeneous_ideals(), data=st.data())
def test_driven_bases_of_random_homogeneous_ideals(ideal, data):
    ring, gens = ideal
    order, loc = data.draw(_orders_and_localizations(ring.nvars))
    _assert_driven_bases_agree(gens, order, loc)


@pytest.mark.parametrize("n", [3, 4, 5, 6], ids=lambda n: f"P{n}")
def test_driven_bases_of_path_ideals(n):
    I = _path_edge_ideal(n)
    xs, ys = tuple(range(n)), tuple(range(n, 2 * n))
    _assert_driven_bases_agree(I.generators, lex_order())
    _assert_driven_bases_agree(I.generators, block_order([(ys, DEGREVLEX), (xs, LEX)]))
    for u in maximal_independent_sets(I.groebner(), limit=3):
        _assert_driven_bases_agree(I.generators, degrevlex_order(), u)
        _assert_driven_bases_agree(I.generators, lex_order(), u)


@pytest.mark.parametrize("n", [3, 4, 5], ids=lambda n: f"P{n}")
def test_every_driven_basis_of_a_gtz_run_equals_the_undriven_one(monkeypatch, n):
    # GTZ's remainders J + <h^m> have leading monomials that are not
    # squarefree
    from idealdec.decompose import gtz_decompose

    real = groebner.buchberger
    driven = []

    def checked(gens, order=None, localized_vars=None, hilbert_numerator=None):
        got = real(gens, order, localized_vars, hilbert_numerator)
        if hilbert_numerator is not None:
            driven.append(order)
            _assert_same_basis(got, real(gens, order, localized_vars))
        return got

    monkeypatch.setattr(groebner, "buchberger", checked)
    assert gtz_decompose(_path_edge_ideal(n)).complete
    assert driven


def test_ideal_passes_a_series_only_for_homogeneous_generators(monkeypatch):
    real = groebner.buchberger
    passed = []

    def recorded(gens, order=None, localized_vars=None, hilbert_numerator=None):
        passed.append(hilbert_numerator)
        return real(gens, order, localized_vars, hilbert_numerator)

    monkeypatch.setattr(groebner, "buchberger", recorded)
    ring = PolyRing(("x", "y", "z"), QQ)
    # no degrevlex basis cached: none is computed for its series
    homogeneous = Ideal.parse(ring, ["x^2 - y*z", "x*y - z^2"])
    homogeneous.groebner(lex_order())
    assert passed == [None]
    assert list(homogeneous._gb_cache) == [(lex_order(), None)]
    homogeneous.groebner()
    homogeneous.groebner(lex_order(), [2])
    assert passed[1:] == [None, homogeneous.groebner().hilbert_numerator()]
    # x^2 - y is not homogeneous
    passed.clear()
    inhomogeneous = Ideal.parse(ring, ["x^2 - y", "x*y - z^2"])
    inhomogeneous.groebner()
    inhomogeneous.groebner(lex_order())
    inhomogeneous.groebner(degrevlex_order(), [2])
    assert passed == [None, None, None]


def test_a_localized_basis_has_no_hilbert_series():
    I = _path_edge_ideal(3)
    with pytest.raises(GroebnerError, match="no Hilbert series"):
        I.groebner(localized_vars=[0]).hilbert_numerator()
