"""Primary decomposition, maximality certification, primality verdicts."""

import warnings

import pytest

from idealdec.decompose import (
    MAXIMAL,
    DecompositionError,
    NOT_MAXIMAL,
    NOT_PRIME,
    PRIME,
    UNKNOWN,
    apply_automorphism,
    coefficient_orbits,
    gtz_decompose,
    is_maximal_zero_dim,
    minimal_polynomial,
    primality_check,
    stabilizes,
    zero_dim_decompose,
)
from idealdec.domains import PrimeField
from idealdec.groebner import NotZeroDimensional, buchberger
from idealdec.ideals import Ideal, IdealError, intersect, quotient, saturate
from idealdec.rings import PolyRing
from idealdec.symmetry import SymmetryAction


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
    I = _ideal(rxyz, "x*y", "x*z")
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


def test_primality_details_schema(rxyz):
    verdict = primality_check(_ideal(rxyz, "y - x^2", "z - x^3"))
    assert any(d.startswith("u=") for d in verdict.details)
    assert any(d.startswith("localized-maximality=") for d in verdict.details)
    assert any(d.startswith("c=") for d in verdict.details)


# -- symmetry interaction -----------------------------------------------------


def test_apply_automorphism_and_stabilizes(rxyzw):
    I = _ideal(rxyzw, "x*z - 1", "y*w - 1")
    sigma = SymmetryAction.from_cycles(rxyzw, "(x y)(z w)")
    assert stabilizes(sigma, I)
    assert apply_automorphism(sigma, I).equals(I)
    rho = SymmetryAction.from_cycles(rxyzw, "(x y)")
    assert not stabilizes(rho, I)


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
