"""Primary decomposition, maximality certification, primality verdicts."""

import random
import time
import warnings
from collections import Counter
from dataclasses import replace
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealdec import decompose
from idealdec.cli import EXIT_OK, main
from idealdec.decompose import (
    MAXIMAL,
    DecompositionError,
    NOT_MAXIMAL,
    NOT_PRIME,
    PRIME,
    UNKNOWN,
    PrimaryComponent,
    apply_automorphism,
    coefficient_orbits,
    gtz_decompose,
    is_maximal_zero_dim,
    minimal_polynomial,
    primality_check,
    stabilizes,
    zero_dim_decompose,
)
from idealdec.domains import QQ, PrimeField
from idealdec.groebner import NotZeroDimensional, buchberger
from idealdec.ideals import (
    Ideal,
    IdealError,
    ideal_sum,
    intersect,
    quotient,
    saturate,
    saturation_exponent,
)
from idealdec.rings import PolyRing
from idealdec.symmetry import SymmetryAction

from test_acceptance import DECOMPOSITION_CORPUS


def _ideal(ring, *texts):
    return Ideal.parse(ring, texts)


def _reassemble(ring, result):
    total = None
    for comp in result.components:
        total = comp.primary if total is None else intersect(total, comp.primary)
    return total


# -- minimal polynomials ----------------------------------------------------


def test_minimal_polynomial_univariate(rxy):
    I = _ideal(rxy, "x^2 - 2", "y^2 - 3")
    assert str(minimal_polynomial(I, 0)) == "x^2 - 2"
    assert str(minimal_polynomial(I, 1)) == "y^2 - 3"


def test_minimal_polynomial_over_function_field(rxy):
    # <x^2 - y> over K(y): minimal polynomial of x is x^2 - y
    I = _ideal(rxy, "x^2 - y")
    m = minimal_polynomial(I, 0, u=(1,))
    assert str(m) in ("x^2 - y", "y - x^2")


def test_minimal_polynomial_requires_zero_dimensionality(rxy):
    I = _ideal(rxy, "x*y")
    with pytest.raises(NotZeroDimensional):
        minimal_polynomial(I, 0)


# -- zero-dimensional decomposition ----------------------------------------


def test_zero_dim_split_of_quadric():
    from idealdec.domains import QQ
    from idealdec.rings import PolyRing

    ring = PolyRing(("x",), QQ)
    comps = zero_dim_decompose(_ideal(ring, "x^2 - 1"))
    primaries = sorted(str(c.primary.canonical_generators()[0]) for c in comps)
    assert primaries == ["x + 1", "x - 1"]
    assert all(c.certified for c in comps)


def test_zero_dim_embedded_multiplicity(rxy):
    # <x^2, y>: primary with radical <x, y>
    comps = zero_dim_decompose(_ideal(rxy, "x^2", "y"))
    assert len(comps) == 1
    comp = comps[0]
    assert comp.primary.equals(_ideal(rxy, "x^2", "y"))
    assert comp.prime.equals(_ideal(rxy, "x", "y"))
    assert comp.certified


def test_zero_dim_radical_of_a_repeated_part_over_the_base_field(rxyz):
    # x's minimal polynomial over Q(y) is (x^2 - y)^2: one nonlinear part of
    # multiplicity 2, whose base p = x^2 - y the leaf's radical adjoins
    I = _ideal(rxyz, "x^4 - 2*x^2*y + y^2", "z")
    comps = zero_dim_decompose(I, u=(1,))
    assert len(comps) == 1
    comp = comps[0]
    assert comp.certified
    assert comp.primary.equals(I)
    assert comp.prime.equals(_ideal(rxyz, "x^2 - y", "z"))


def test_zero_dim_galois_conjugates_need_linear_forms(rxy):
    # x^2-2, y^2-2 splits along x-y and x+y only after a linear form mixes
    # the variables; each branch is a degree-2 field
    comps = zero_dim_decompose(_ideal(rxy, "x^2 - 2", "y^2 - 2"))
    assert len(comps) == 2
    assert all(c.certified for c in comps)
    total = None
    for c in comps:
        total = c.primary if total is None else intersect(total, c.primary)
    assert total.equals(_ideal(rxy, "x^2 - 2", "y^2 - 2"))
    seen = {str(g) for c in comps for g in c.prime.canonical_generators()}
    assert "x - y" in seen and "x + y" in seen


def test_zero_dim_stops_at_a_primitive_element(rxyz):
    # y's minimal polynomial is irreducible of degree dim_Q = 4, so the
    # quotient is a field and no linear form can split it; trying all of
    # them anyway took 7.5 s
    import time

    I = _ideal(rxyz, "-2*y^2*z^2 + 3*x*y^2*z^2",
               "3*x^2*y*z^2 - 2*x^2*y^2*z + 2", "z^2 + x")
    start = time.perf_counter()
    result = gtz_decompose(I)
    elapsed = time.perf_counter() - start
    assert result.complete
    [comp] = result.components
    assert comp.certificate == "primitive-element:y;rational-irreducible"
    assert comp.primary.equals(I) and comp.prime.equals(I)
    assert elapsed < 2.0


def test_zero_dim_certifies_the_radical_before_trying_forms(rxyz):
    # every variable's minimal polynomial is a cube, x's is (x^4 + 2)^3, so
    # none is a primitive element of I; x is one of the radical's, so I is
    # primary and no linear form can split it, while each form tried costs
    # an elimination (minutes in all on this ideal)
    import time

    I = _ideal(rxyz, "-8*x^6 + 24*x^4*z - 24*x^2*z^2 + 8*z^3",
               "-3*x^2*y + x^2*z - 1", "2*x^2*y - y*z + 1")
    start = time.perf_counter()
    result = gtz_decompose(I)
    elapsed = time.perf_counter() - start
    assert result.complete
    [comp] = result.components
    assert comp.certificate == "primitive-element:x;rational-irreducible"
    assert comp.primary.equals(I)
    assert comp.prime.equals(_ideal(rxyz, "y - 1/2*z", "z^2 + 2", "x^2 - z"))
    assert elapsed < 5.0


def test_primary_ideal_tries_no_linear_form(rxy, monkeypatch):
    # <x^2, y^2> is primary to <x, y>, certified by the radical's variables
    # (called directly: gtz_decompose reads this monomial ideal from its
    # polarization and never reaches the zero-dimensional walk)
    calls = []
    of_form = decompose.minimal_polynomial_of_form

    def counted(*args, **kwargs):
        calls.append(args)
        return of_form(*args, **kwargs)

    monkeypatch.setattr(decompose, "minimal_polynomial_of_form", counted)
    [comp] = zero_dim_decompose(_ideal(rxy, "x^2", "y^2"))
    assert comp.certified and comp.prime.equals(_ideal(rxy, "x", "y"))
    assert calls == []


@pytest.mark.parametrize("u", [(), (0,)])
def test_zero_dim_decompose_refuses_the_zero_ideal(rxy, u):
    # the zero ideal is not zero-dimensional; [] would decompose the unit ideal
    with pytest.raises(NotZeroDimensional):
        zero_dim_decompose(Ideal(rxy, []), u=u)


@pytest.mark.parametrize("names, gens, calls", [
    (("x", "y"), ("x^2 + 1", "y - x"), 1),
    (("x", "y", "z"), ("-2*y^2*z^2 + 3*x*y^2*z^2",
                       "3*x^2*y*z^2 - 2*x^2*y^2*z + 2", "z^2 + x"), 2),
    (("x", "y"), ("x^2 - 2", "y^2 - 3"), 3),
    (("x", "y"), ("x^2 - 2", "y^2 - 2"), 5),
], ids=["primitive-x", "primitive-y", "primitive-form", "form-split"])
def test_zero_dim_walks_each_variable_once(names, gens, calls, monkeypatch):
    # a leaf certifies maximality from the variables and the fixed first
    # linear form that the split walk already eliminated: no minimal
    # polynomial, of a variable or of a form's tag, is computed twice
    ring = PolyRing(names, QQ)
    seen = Counter()
    inner = decompose.minimal_polynomial

    def counted(I, v, u=()):
        seen[tuple(map(str, I.generators)), v, I.ring.nvars] += 1
        return inner(I, v, u)

    monkeypatch.setattr(decompose, "minimal_polynomial", counted)
    comps = zero_dim_decompose(_ideal(ring, *gens))
    assert all(c.certified for c in comps)
    assert sum(seen.values()) == calls
    assert all(n == 1 for n in seen.values())


_lower_term = st.tuples(st.tuples(*[st.integers(0, 1)] * 3),
                        st.sampled_from([-3, -2, -1, 1, 2, 3, 5]))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(nvars=st.integers(2, 3),
       rows=st.lists(st.tuples(st.integers(2, 3),
                               st.lists(_lower_term, min_size=1, max_size=3)),
                     min_size=3, max_size=3))
def test_zero_dim_leaf_certificates_are_the_maximality_certificates(nvars, rows):
    # each leaf's certificate is the one is_maximal_zero_dim gives its prime
    # with the split's form budget.  x_v^d plus terms of lower total degree:
    # each variable has a pure power as its degrevlex leading term, so the
    # ideal is zero-dimensional (d is 2 in three variables, to keep the
    # dimension small)
    ring = PolyRing(("x", "y", "z")[:nvars], QQ)
    gens = []
    for v, (d, lower) in enumerate(rows[:nvars]):
        d = min(d, 5 - nvars)
        g = ring.var(ring.names[v]) ** d
        for e, c in lower:
            if sum(e[:nvars]) < d:
                g = g + ring.monomial(e[:nvars], c)
        gens.append(g)
    for c in zero_dim_decompose(Ideal(ring, gens)):
        if c.certified:
            maximality = is_maximal_zero_dim(c.prime, (), 0, decompose._SPLIT_FORMS)
            assert maximality.certificate == c.certificate


def test_is_maximal_zero_dim_verdicts(rxy):
    good = _ideal(rxy, "x^2 + 1", "y - x")
    res = is_maximal_zero_dim(good)
    assert res.status == MAXIMAL
    assert res.certificate

    bad = _ideal(rxy, "x^2 - 1", "y")
    res = is_maximal_zero_dim(bad)
    assert res.status == NOT_MAXIMAL
    assert res.witness is not None
    # the witness is a zero divisor refutation: w not in I, I : w != I
    assert not bad.contains(res.witness)
    assert not quotient(bad, res.witness).equals(bad)


# -- full GTZ ----------------------------------------------------------------


def test_gtz_on_monomial_ideal(rxyz):
    I = _ideal(rxyz, "x*y", "x*z")
    result = gtz_decompose(I)
    assert result.complete
    assert len(result.components) == 2
    primaries = sorted(
        tuple(str(g) for g in c.primary.canonical_generators())
        for c in result.components
    )
    assert primaries == [("x",), ("z", "y")] or primaries == [("x",), ("y", "z")]
    assert _reassemble(rxyz, result).equals(I)


def test_gtz_embedded_component(rxy):
    I = _ideal(rxy, "x^2", "x*y")
    result = gtz_decompose(I)
    assert result.complete
    assert len(result.components) == 2
    assert _reassemble(rxy, result).equals(I)
    primes = sorted(
        tuple(str(g) for g in c.prime.canonical_generators())
        for c in result.components
    )
    assert ("x",) in primes
    assert any(set(p) == {"x", "y"} for p in primes)


def test_gtz_principal_products(rxy):
    I = _ideal(rxy, "x*y")
    result = gtz_decompose(I)
    assert result.complete
    assert sorted(
        str(c.primary.canonical_generators()[0]) for c in result.components
    ) == ["x", "y"]


def test_gtz_zero_and_unit(rxy):
    # <0> is prime, so it is its own single component; the empty
    # intersection is the unit ideal
    zero = Ideal(rxy, [])
    res = gtz_decompose(zero)
    assert res.complete and len(res.components) == 1
    (comp,) = res.components
    assert comp.certified and comp.certificate == "zero-ideal"
    assert comp.primary.is_zero() and comp.prime.is_zero()
    parsed = gtz_decompose(_ideal(rxy, "0", "0*x"))
    assert [c.certificate for c in parsed.components] == ["zero-ideal"]

    unit = _ideal(rxy, "x", "x + 1")
    res = gtz_decompose(unit)
    assert res.complete and len(res.components) == 0


def test_gtz_provenance_records_u_and_saturations(rxyz):
    # <x*y, x*z> with x moved to x + 1: not monomial, so GTZ runs
    I = _ideal(rxyz, "x*y + y", "x*z + z")
    result = gtz_decompose(I)
    for comp in result.components:
        assert comp.provenance.u_names or comp.provenance.depth == 0
    assert any(comp.provenance.saturations for comp in result.components)


def test_gtz_deterministic(rxyz):
    I1 = _ideal(rxyz, "x*y", "x*z")
    I2 = _ideal(rxyz, "x*y", "x*z")
    r1 = gtz_decompose(I1, seed=7)
    r2 = gtz_decompose(I2, seed=7)
    a = [
        tuple(str(g) for g in c.primary.canonical_generators())
        for c in r1.components
    ]
    b = [
        tuple(str(g) for g in c.primary.canonical_generators())
        for c in r2.components
    ]
    assert a == b


# -- binomial edge ideals of paths -------------------------------------------
#
# The binomial edge ideal J_G = <x_i*y_j - x_j*y_i : ij an edge> is radical,
# and its minimal primes are the P_S = <x_i, y_i : i in S> + the 2-minors of
# each connected component of G - S, for S empty or a set of cut points: every
# i in S joins components of G - S (Herzog, Hibi, Hreinsdottir, Kahle, Rauh
# 2010).  For the path P_n there are Fibonacci many.


def _path_ring(n):
    names = tuple(f"x{i}" for i in range(1, n + 1)) + tuple(
        f"y{i}" for i in range(1, n + 1)
    )
    return PolyRing(names, QQ)


def _path_edge_ideal(n):
    return _ideal(_path_ring(n),
                  *(f"x{i}*y{i + 1} - x{i + 1}*y{i}" for i in range(1, n)))


def _path_pieces(n, S):
    """The vertex sets of the connected components of P_n - S."""
    pieces, run = [], []
    for v in range(1, n + 1):
        if v in S:
            if run:
                pieces.append(run)
            run = []
        else:
            run.append(v)
    return pieces + [run] if run else pieces


def _path_minimal_primes(n):
    ring = _path_ring(n)
    primes = []
    for size in range(n + 1):
        for S in map(set, combinations(range(1, n + 1), size)):
            count = len(_path_pieces(n, S))
            if any(len(_path_pieces(n, S - {i})) >= count for i in S):
                continue
            gens = [f"{a}{i}" for i in sorted(S) for a in "xy"]
            for piece in _path_pieces(n, S):
                gens += [f"x{i}*y{j} - x{j}*y{i}" for i, j in combinations(piece, 2)]
            primes.append(_ideal(ring, *gens))
    return primes


def _canonical_set(ideals):
    return {tuple(str(g) for g in J.canonical_generators()) for J in ideals}


@pytest.mark.parametrize("n, count", [
    (3, 2),
    (4, 3),
    (5, 5),
    pytest.param(6, 8, marks=pytest.mark.slow),
])
def test_gtz_binomial_edge_ideal_of_a_path(n, count):
    # from P4 on, the remainders run past the depth limit unless the loop
    # stops once the components found meet to I
    I = _path_edge_ideal(n)
    expected = _path_minimal_primes(n)
    assert len(expected) == count
    result = gtz_decompose(I)
    assert result.complete
    assert len(result.components) == count
    assert _canonical_set(c.prime for c in result.components) == _canonical_set(expected)
    assert _reassemble(I.ring, result).equals(I)


def test_cli_decomposes_the_path_on_four_vertices(capsys, tmp_path):
    path = tmp_path / "p4.gens"
    path.write_text("ring Q[x1,x2,x3,x4,y1,y2,y3,y4]\n"
                    "x1*y2 - x2*y1\nx2*y3 - x3*y2\nx3*y4 - x4*y3\n")
    code = main(["decompose", str(path)])
    out = capsys.readouterr().out.splitlines()
    assert code == EXIT_OK
    assert "components 3" in out and "complete yes" in out


# -- monomial ideals -----------------------------------------------------------


def test_a_monomial_basis_takes_the_monomial_route(rxy):
    # the generators are not monomials, but the reduced basis is
    result = gtz_decompose(_ideal(rxy, "x + y", "x - y"))
    assert result.complete
    (comp,) = result.components
    assert comp.certified and comp.certificate == "monomial"
    assert comp.provenance == decompose.Provenance()
    assert comp.prime.equals(_ideal(rxy, "x", "y"))
    assert comp.primary.equals(comp.prime)


def _monomial_radical(Q):
    ring = Q.ring
    return Ideal(ring, [ring.monomial(tuple(min(a, 1) for a in e))
                        for g in Q.generators for e in g.terms])


def _is_monomial_primary(Q):
    """A monomial ideal is primary exactly when every variable of its
    minimal generators has a pure power among them."""
    exps = [next(iter(g.terms)) for g in Q.canonical_generators()]
    used = {i for e in exps for i, a in enumerate(e) if a}
    pure = {i for e in exps for i, a in enumerate(e) if a == sum(e)}
    return used == pure


_exponents4 = st.tuples(*[st.integers(0, 3)] * 4).filter(any)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(exps=st.lists(_exponents4, min_size=1, max_size=4))
def test_monomial_route_is_an_irredundant_primary_decomposition(exps):
    ring = PolyRing(("x", "y", "z", "w"), QQ)
    I = Ideal(ring, [ring.monomial(e) for e in exps])
    result = gtz_decompose(I)
    comps = result.components
    assert result.complete and all(c.certificate == "monomial" for c in comps)
    assert _reassemble(ring, result).equals(I)
    for c in comps:
        assert _is_monomial_primary(c.primary)
        assert _monomial_radical(c.primary).equals(c.prime)
    # irredundant: each component is needed, and no two share a prime
    for i in range(len(comps)):
        rest = [c.primary for j, c in enumerate(comps) if j != i]
        if rest:
            meet = rest[0]
            for Q in rest[1:]:
                meet = intersect(meet, Q)
            assert not meet.equals(I)
    assert len(_canonical_set(c.prime for c in comps)) == len(comps)
    # the associated primes of the GTZ loop
    loop = decompose._dedupe(decompose._gtz(I, 0, None))
    loop = decompose._prune_redundant(I, loop)
    assert _canonical_set(c.prime for c in comps) == _canonical_set(c.prime for c in loop)


# -- pruning to an irredundant intersection ------------------------------------


def _restart_prune(I, components):
    """The leave-one-out scan that restarts after every drop: the reference
    for decompose._prune_redundant, which must keep the same components in
    the same order."""
    comps = list(components)
    keep = []
    for i, c in enumerate(comps):
        contained = False
        for j, d in enumerate(comps):
            if i == j:
                continue
            if c.primary.contains_ideal(d.primary) and not d.primary.contains_ideal(
                c.primary
            ):
                contained = True
                break
        if not contained:
            keep.append(c)
    comps = keep
    changed = True
    while changed and len(comps) > 1:
        changed = False
        for i in range(len(comps)):
            rest = [c for j, c in enumerate(comps) if j != i]
            meet = rest[0].primary
            for c in rest[1:]:
                meet = intersect(meet, c.primary)
            if meet.equals(I):
                comps = rest
                changed = True
                break
    return comps


def _restricted_primary(I, S, k):
    """I with the variables outside S set to 1, plus the k-th powers of the
    variables in S: a component primary to <x_S> that contains I (None when
    the restriction is the unit ideal).  Only for monomial ideals."""
    ring = I.ring
    gens = []
    for g in I.generators:
        ((exps, _),) = g.terms.items()
        e = tuple(a if i in S else 0 for i, a in enumerate(exps))
        if not any(e):
            return None
        gens.append(ring.monomial(e))
    powers = [ring.var(ring.names[i]) ** k for i in S]
    prime = Ideal(ring, [ring.var(ring.names[i]) for i in S])
    return PrimaryComponent(Ideal(ring, gens + powers), prime, True)


def _copy(c):
    return replace(c, primary=Ideal(c.primary.ring, c.primary.generators))


def _with_redundant_components(I, seed, extra):
    """The components the GTZ loop finds for I, a fresh copy of each, and the
    ``extra`` components, in an order drawn from ``seed``."""
    found = decompose._dedupe(decompose._gtz(I, 0, None))
    comps = found + [_copy(c) for c in found] + list(extra)
    random.Random(seed).shuffle(comps)
    return comps


def _assert_same_prune(I, comps):
    got = decompose._prune_redundant(I, comps)
    want = _restart_prune(I, comps)
    assert [id(c) for c in got] == [id(c) for c in want]
    return got


def _maximal_ideal_extras(I):
    ring = I.ring
    m = Ideal(ring, [ring.var(v) for v in ring.names])
    if not m.contains_ideal(I):
        return []
    return [PrimaryComponent(ideal_sum(I, [g ** 3 for g in m.generators]), m, True)]


def _cycle_edge_ideal(n):
    ring = PolyRing(tuple(f"x{i}" for i in range(1, n + 1)), QQ)
    return _ideal(ring, *(f"x{i}*x{i % n + 1}" for i in range(1, n + 1)))


@pytest.mark.parametrize("k", range(len(DECOMPOSITION_CORPUS)))
def test_prune_matches_the_restart_scan_on_the_corpus(k):
    names, gens, _ = DECOMPOSITION_CORPUS[k]
    I = _ideal(PolyRing(names, QQ), *gens)
    comps = _with_redundant_components(I, k, _maximal_ideal_extras(I))
    got = _assert_same_prune(I, comps)
    assert len(got) < len(comps)


@pytest.mark.parametrize("I", [
    _cycle_edge_ideal(5),
    _cycle_edge_ideal(6),
    _path_edge_ideal(3),
    _path_edge_ideal(4),
], ids=["C5", "C6", "P3", "P4"])
def test_prune_matches_the_restart_scan_on_edge_ideals(I):
    comps = _with_redundant_components(I, 1, _maximal_ideal_extras(I))
    got = _assert_same_prune(I, comps)
    assert len(got) < len(comps)


_monomial = st.tuples(*[st.integers(0, 2)] * 3)


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(
    var=st.integers(0, 2),
    power=st.integers(2, 3),
    inner=st.lists(_monomial, min_size=1, max_size=3),
    extras=st.lists(st.tuples(st.sets(st.integers(0, 2), min_size=1),
                              st.integers(1, 3)), max_size=3),
    seed=st.integers(0, 2 ** 16),
    uncertified=st.integers(0, 8),
)
def test_prune_matches_the_restart_scan_on_embedded_monomial_ideals(
    var, power, inner, extras, seed, uncertified
):
    # I = x_var * J + <x_var^power>, shaped like <x^2, x*y> = <x> /\ <x^2, y>
    ring = PolyRing(("x", "y", "z"), QQ)
    x = ring.var(ring.names[var])
    I = Ideal(ring, [x * ring.monomial(e) for e in inner] + [x ** power])
    extra = [_restricted_primary(I, S, k) for S, k in extras]
    comps = _with_redundant_components(I, seed, [c for c in extra if c])
    got = _assert_same_prune(I, comps)
    meet = got[0].primary
    for c in got[1:]:
        meet = intersect(meet, c.primary)
    assert meet.equals(I)
    # one uncertified component sends every component to the full test
    if uncertified < len(comps):
        comps[uncertified] = replace(comps[uncertified], certified=False)
        _assert_same_prune(I, comps)


def test_prune_tests_every_component_when_one_is_uncertified(rxy):
    # <x^2, x*y> = <x> /\ <x^2, y> = <x> /\ <x^2, y - x>, and no two of
    # these three components contain each other
    I = _ideal(rxy, "x^2", "x*y")
    a = PrimaryComponent(_ideal(rxy, "x"), _ideal(rxy, "x"), True)
    b = PrimaryComponent(_ideal(rxy, "x^2", "y"), _ideal(rxy, "x", "y"), True)
    c = PrimaryComponent(_ideal(rxy, "x^2", "y - x"), _ideal(rxy, "x", "y"), True)
    assert [id(d) for d in _assert_same_prune(I, [a, b, c])] == [id(a), id(c)]
    # b uncertified with a "prime" that contains no other prime: skipping
    # its test would keep b and drop c
    b = replace(b, certified=False, prime=_ideal(rxy, "x^2", "y"))
    assert [id(d) for d in _assert_same_prune(I, [a, b, c])] == [id(a), id(c)]


# -- the saturation exponent of a GTZ level ------------------------------------


def _checking_level_exponent(monkeypatch):
    """Make every level of _gtz check the exponent it reads from the meet of
    its contracted components against saturate(J, h); returns the list of
    exponents checked, one per level."""
    checked = []

    def checking(J, h, level):
        m = saturation_exponent(J, h, level)
        sat = saturate(J, h)
        assert m == sat.exponent
        assert level.equals(sat.ideal)
        checked.append(m)
        return m

    monkeypatch.setattr(decompose, "saturation_exponent", checking)
    return checked


@pytest.mark.parametrize("k", range(len(DECOMPOSITION_CORPUS)))
def test_level_exponent_matches_saturate_on_the_corpus(k, monkeypatch):
    _checking_level_exponent(monkeypatch)
    names, gens, _ = DECOMPOSITION_CORPUS[k]
    I = _ideal(PolyRing(names, QQ), *gens)
    assert _reassemble(I.ring, gtz_decompose(I)).equals(I)


@pytest.mark.parametrize("I", [
    _cycle_edge_ideal(5),
    _cycle_edge_ideal(6),
    _path_edge_ideal(3),
    _path_edge_ideal(4),
    _path_edge_ideal(5),
], ids=["C5", "C6", "P3", "P4", "P5"])
def test_level_exponent_matches_saturate_on_edge_ideals(I, monkeypatch):
    # the GTZ loop itself: gtz_decompose reads the monomial C5 and C6 from
    # their polarization
    checked = _checking_level_exponent(monkeypatch)
    comps = decompose._gtz(I, 0, None)
    assert all(c.certified for c in comps)
    assert checked
    meet = comps[0].primary
    for c in comps[1:]:
        meet = intersect(meet, c.primary)
    assert meet.equals(I)


_small_term = st.tuples(st.tuples(*[st.integers(0, 2)] * 3),
                        st.sampled_from([-2, -1, 1, 2, 3]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(gens=st.lists(st.lists(_small_term, min_size=1, max_size=3),
                     min_size=1, max_size=2))
def test_level_exponent_matches_saturate_on_small_ideals(gens):
    ring = PolyRing(("x", "y", "z"), QQ)
    polys = [sum((ring.monomial(e, c) for e, c in terms), ring.zero)
             for terms in gens]
    I = Ideal(ring, polys)
    with pytest.MonkeyPatch.context() as monkeypatch:
        _checking_level_exponent(monkeypatch)
        result = gtz_decompose(I)
    if result.components:
        assert _reassemble(ring, result).equals(I)


def test_gtz_reads_the_exponent_without_saturating_the_remainder():
    # saturating this remainder by h = y^6*(2*y^2 - 1)^3 took over 30 s; the
    # components found meet to J : h^inf, which gives the exponent at once
    ring = PolyRing(("x", "y", "z"), QQ)
    I = _ideal(ring, "-x^2*y*z^2 - 3*x^2*y*z + 2*y",
               "-x^6*z^3 + 6*x^5*y*z^2 - 12*x^4*y^2*z + 8*x^3*y^3")
    start = time.perf_counter()
    result = gtz_decompose(I)
    assert time.perf_counter() - start < 5
    assert result.complete
    assert result.components and all(c.certified for c in result.components)
    assert _reassemble(ring, result).equals(I)


# -- primality ----------------------------------------------------------------


def test_primality_twisted_cubic(rxyz):
    I = _ideal(rxyz, "y - x^2", "z - x^3")
    verdict = primality_check(I)
    assert verdict.status == PRIME
    assert verdict.u_names == ("z",)


def test_primality_hypersurfaces(rxy):
    assert primality_check(_ideal(rxy, "x^2 + 1")).status == PRIME
    assert primality_check(_ideal(rxy, "y^2 - x^3")).status == PRIME
    assert primality_check(_ideal(rxy, "x^2 - y^2")).status == NOT_PRIME
    assert primality_check(_ideal(rxy, "x^2")).status == NOT_PRIME


def test_primality_of_quadric_cone(rxyzw):
    I = _ideal(rxyzw, "x*y - z*w")
    assert primality_check(I).status == PRIME


def test_primality_witnesses_reverify(rxyz):
    for texts in [("x*y",), ("x^2",), ("x*y", "x*z"), ("x^2 - y^2",),
                  ("x^2 - 1", "y")]:
        I = _ideal(rxyz, *texts)
        verdict = primality_check(I)
        assert verdict.status == NOT_PRIME, texts
        w = verdict.witness
        assert w is not None
        assert not I.contains(w)
        assert not quotient(I, w).equals(I)


def test_primality_zero_and_unit(rxy):
    assert primality_check(Ideal(rxy, [])).status == PRIME
    assert primality_check(_ideal(rxy, "1")).status == NOT_PRIME


def test_primality_details_schema(rxyz, rxyzw):
    verdict = primality_check(_ideal(rxyzw, "x*y - z*w"))
    assert any(d.startswith("u=") for d in verdict.details)
    assert any(d.startswith("localized-maximality=") for d in verdict.details)
    assert "c=x orbit_size=1 stable=yes" in verdict.details
    # the twisted cubic's localized leading coefficients are constants
    verdict = primality_check(_ideal(rxyz, "y - x^2", "z - x^3"))
    assert verdict.status == PRIME
    assert not any(d.startswith("c=") for d in verdict.details)


def test_primality_refuses_a_dependent_u(rxy):
    # both ideals are prime, but x alone is algebraic over Q modulo them
    for text in ("x - 1", "x^2 + 1"):
        with pytest.raises(IdealError, match="not an independent set"):
            primality_check(_ideal(rxy, text), u=[0])
    assert primality_check(_ideal(rxy, "x - 1"), u=[1]).status == PRIME


@pytest.mark.parametrize("budget", [0, -1])
def test_budget_below_one_is_refused(rxy, budget):
    # refused before any shortcut: the monomial, zero-dimensional, unit and
    # zero ideals are refused too, not decomposed
    for I in (_ideal(rxy, "x*y"), _ideal(rxy, "x^2 - 1", "y"), _ideal(rxy, "1"),
              Ideal(rxy, []), _ideal(rxy, "x - 1", "x + 1")):
        for entry in (gtz_decompose, primality_check):
            with pytest.raises(ValueError, match="budget must be a positive integer"):
                entry(I, budget=budget)


# -- symmetry interaction -----------------------------------------------------


def test_apply_automorphism_and_stabilizes(rxyzw):
    I = _ideal(rxyzw, "x*z - 1", "y*w - 1")
    sigma = SymmetryAction.from_cycles(rxyzw, "(x y)(z w)")
    assert stabilizes(sigma, I)
    assert apply_automorphism(sigma, I).equals(I)
    rho = SymmetryAction.from_cycles(rxyzw, "(x y)")
    assert not stabilizes(rho, I)


def _stabilizes_by_bases(sigma, I):
    """The definition by bases: sigma(I) and I have one reduced basis."""
    return apply_automorphism(sigma, I).groebner().elements == I.groebner().elements


def test_stabilizes_agrees_with_basis_equality(rxyzw):
    from idealdec.hyperedge import HyperedgeSpec, build_hyperedge_ideal

    spec = HyperedgeSpec(name="minors-3x5", rows=3, cols=5, letters=("x", "y", "z"),
                         hyperedges=(tuple(range(1, 6)),))
    minors = build_hyperedge_ideal(spec)
    # the adjacent column transpositions stabilize the minors; a swap of
    # two entries of different rows and columns does not
    cases = [(minors, "".join(f"({a}{c} {a}{c + 1})" for a in "xyz"), True)
             for c in range(1, 5)]
    cases.append((minors, "(x1 y2)", False))
    I = _ideal(rxyzw, "x*z - 1", "y*w - 1")
    cases += [(I, "(x y)(z w)", True), (I, "(x y)", False)]
    for J, cycles, expected in cases:
        sigma = SymmetryAction.from_cycles(J.ring, cycles)
        assert stabilizes(sigma, J) == _stabilizes_by_bases(sigma, J) == expected, cycles


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(gens=st.lists(st.lists(_small_term, min_size=1, max_size=3),
                     min_size=1, max_size=2),
       image=st.permutations(range(3)), closed=st.booleans())
def test_stabilizes_agrees_with_basis_equality_on_small_ideals(gens, image, closed):
    ring = PolyRing(("x", "y", "z"), QQ)
    sigma = SymmetryAction(tuple(image))
    polys = [sum((ring.monomial(e, c) for e, c in terms), ring.zero)
             for terms in gens]
    if closed:
        # with the images of its generators under sigma, sigma^2, ..., the
        # ideal is stabilized; every permutation of three has order dividing 6
        for _ in range(5):
            polys += [sigma(f) for f in polys[-len(gens):]]
    I = Ideal(ring, polys)
    assert stabilizes(sigma, I) == _stabilizes_by_bases(sigma, I)
    if closed:
        assert stabilizes(sigma, I)


def test_coefficient_orbits_collapse_under_symmetry(rxyzw):
    I = _ideal(rxyzw, "x*z - 1", "y*w - 1")
    sigma = SymmetryAction.from_cycles(rxyzw, "(x y)(z w)")
    cs = [rxyzw.parse("z"), rxyzw.parse("w")]
    orbits = coefficient_orbits(cs, [sigma], I)
    assert sorted(len(o) for o in orbits) == [2]


def test_coefficient_orbits_skip_non_stabilizing_actions(rxyzw):
    I = _ideal(rxyzw, "x*z - 1", "y*w - 1")
    rho = SymmetryAction.from_cycles(rxyzw, "(x y)", label="rot")
    cs = [rxyzw.parse("z"), rxyzw.parse("w")]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        orbits = coefficient_orbits(cs, [rho], I)
    assert sorted(len(o) for o in orbits) == [1, 1]
    assert any("rot" in str(w.message) for w in caught)


def test_primality_with_symmetry_and_supplied_u(rxyzw):
    I = _ideal(rxyzw, "x*z - 1", "y*w - 1")
    sigma = SymmetryAction.from_cycles(rxyzw, "(x y)(z w)")
    # u = {x, y} is sigma-stable and independent of full cardinality
    pruned = primality_check(I, symmetries=[sigma], u=(0, 1))
    plain = primality_check(I, u=(0, 1))
    assert pruned.status == plain.status == PRIME
    assert any("orbit_size=2" in d for d in pruned.details)
    with pytest.raises(IdealError):
        primality_check(I, u=(0,))


def test_saturation_commutes_with_automorphism(rxyzw):
    # sigma(P : c^inf) == sigma(P) : sigma(c)^inf
    P = _ideal(rxyzw, "x^2*y - z", "x*w")
    sigma = SymmetryAction.from_cycles(rxyzw, "(x z)(y w)")
    c = rxyzw.parse("x")
    lhs = apply_automorphism(sigma, saturate(P, c).ideal)
    rhs = saturate(apply_automorphism(sigma, P), sigma(c)).ideal
    assert lhs.equals(rhs)


# -- prime fields: decomposition and primality are over Q only ----------------


def _gf_ideal(p, names, *texts):
    return _ideal(PolyRing(tuple(names), PrimeField(p)), *texts)


def test_primality_refuses_gf7_square_discriminant():
    # 2 = 3^2 in GF(7), so <x^2 - 2*y^2> = <(x - 3y)(x + 3y)> is not prime;
    # the quadratic-discriminant certificate used to call it PRIME
    with pytest.raises(DecompositionError, match="over Q only, not over GF\\(7\\)"):
        primality_check(_gf_ideal(7, "xy", "x^2 - 2*y^2"))


def test_decompose_refuses_gf7_quadratic():
    # used to raise AttributeError in the rational factorizer
    I = _gf_ideal(7, "x", "x^2 - 2")
    for entry in (gtz_decompose, zero_dim_decompose, is_maximal_zero_dim):
        with pytest.raises(DecompositionError, match="over Q only"):
            entry(I)


def test_decompose_refuses_gf7_inseparable():
    # x^7 - y has zero derivative in x; used to raise IndexError
    with pytest.raises(DecompositionError, match="over Q only"):
        gtz_decompose(_gf_ideal(7, "xy", "x^7 - y"))


def test_decompose_refuses_gf5_hyperbola():
    # used to raise IdealError("zero linear form")
    with pytest.raises(DecompositionError, match="over Q only, not over GF\\(5\\)"):
        gtz_decompose(_gf_ideal(5, "xy", "x^2 - y^2 - 1"))


def test_groebner_bases_over_prime_fields_still_work():
    I = _gf_ideal(7, "xy", "x^2 - 2*y^2", "x*y - 1")
    G = buchberger(I.generators)
    assert G.contains(I.generators[0] * I.generators[1])
    assert not G.is_trivial()
