"""Buchberger: reduced bases, normal forms, localized bases, sympy oracle,
input checks and exact S-polynomial counts."""

import pytest

from idealdec.groebner import (
    GroebnerError,
    NotZeroDimensional,
    buchberger,
    is_groebner_basis,
    spolynomial,
)
from idealdec.domains import QQ, PrimeField
from idealdec.orders import DEGREVLEX, OrderError, block_order, degrevlex_order, lex_order
from idealdec.rings import PolyRing, RingError

from test_decompose import _path_edge_ideal


def _gb(ring, texts, order=None, localized=None):
    return buchberger([ring.parse(t) for t in texts], order,
                      localized_vars=localized)


def test_spolynomial_cancels_leading_terms(rxy):
    order = lex_order()
    f = rxy.parse("x^2 - y")
    g = rxy.parse("x*y - 1")
    s = spolynomial(f, g, order)
    assert s == rxy.parse("x - y^2")


def test_spolynomial_defaults_to_degrevlex(rxyz):
    f, g = rxyz.parse("x^2 - y"), rxyz.parse("x*y - z")
    assert spolynomial(f, g) == spolynomial(f, g, degrevlex_order())
    assert spolynomial(f, g) == rxyz.parse("x*z - y^2")


@pytest.mark.parametrize("ring", [
    PolyRing(("x", "y"), QQ),
    PolyRing(("x", "y", "z"), PrimeField(7)),
], ids=["fewer-variables", "other-field"])
def test_spolynomial_and_check_reject_mixed_rings(rxyz, ring):
    f, g = ring.parse("x^2 - y"), rxyz.parse("x*y - z")
    with pytest.raises(RingError):
        spolynomial(f, g, lex_order())
    with pytest.raises(RingError):
        is_groebner_basis([f, g], lex_order())


def test_spolynomial_and_check_reject_an_order_short_of_the_ring(rxyz):
    f, g = rxyz.parse("x^2 - y"), rxyz.parse("x*y - z")
    short = block_order([((0,), DEGREVLEX)])
    with pytest.raises(OrderError):
        spolynomial(f, g, short)
    with pytest.raises(OrderError):
        is_groebner_basis([f, g], short)


def test_spolynomial_of_zero_is_an_error(rxy):
    f = rxy.parse("x^2 - y")
    for args in [(f, rxy.zero), (rxy.zero, f)]:
        with pytest.raises(GroebnerError):
            spolynomial(*args, lex_order())


def test_groebner_check_defaults_to_degrevlex(rxyz):
    texts = ["x^2 - y", "x*y - z"]
    assert is_groebner_basis(_gb(rxyz, texts).elements)
    assert not is_groebner_basis([rxyz.parse(t) for t in texts])


def test_reduced_basis_of_linear_system(rxy):
    G = _gb(rxy, ["x + y", "x - y"], lex_order())
    assert [str(g) for g in G.elements] == ["y", "x"]


def test_classic_lex_elimination(rxyz):
    # twisted cubic: lex GB eliminates down to the z - x^3 relations
    G = _gb(rxyz, ["y - x^2", "z - x^3"], lex_order())
    assert is_groebner_basis(G.elements, lex_order())
    assert G.contains(rxyz.parse("y^3 - z^2"))
    assert not G.contains(rxyz.parse("y^3 - z^2 + 1"))


def test_normal_form_is_zero_exactly_on_members(rxy):
    G = _gb(rxy, ["x^2 + y^2 - 1", "x*y - 1"])
    member = rxy.parse("x^2 + y^2 - 1") * rxy.parse("y^3") - rxy.parse(
        "x*y - 1"
    ) * rxy.parse("x + y")
    assert G.normal_form(member).is_zero()
    nf = G.normal_form(rxy.parse("x^3"))
    assert not nf.is_zero()
    # normal form is idempotent
    assert G.normal_form(nf) == nf


def test_trivial_ideal_detected(rxy):
    G = _gb(rxy, ["x", "x + 1"])
    assert G.is_trivial()
    assert _gb(rxy, ["x + 1"]).is_trivial() is False
    with pytest.raises(GroebnerError):
        buchberger([])


def test_mixed_rings_rejected(rxy, rxyz):
    with pytest.raises(RingError):
        buchberger([rxy.parse("x"), rxyz.parse("z")])


def test_vector_space_dimension(rxy):
    G = _gb(rxy, ["x^2 - 1", "y^3 - y"])
    assert G.vector_space_dimension() == 6
    with pytest.raises(NotZeroDimensional):
        _gb(rxy, ["x*y"]).vector_space_dimension()


def test_localized_basis_and_dimension(rxy):
    # <x*y> localized at u = {y}: minimal basis {x*y}, K(y)-dimension 1
    G = _gb(rxy, ["x*y"], localized=[1])
    assert G.vector_space_dimension() == 1
    lcs = G.leading_coefficients()
    assert [str(c) for c in lcs] == ["y"]


def test_localized_basis_sees_unit_parameters(rxyz):
    # q = (y+1)x - 1 is a unit times x - 1/(y+1) over K(y); adding x gives 1
    G = _gb(rxyz, ["y*x + x - 1", "x"], localized=[1])
    assert G.is_trivial()


def test_localized_basis_has_no_normal_forms(rxy):
    G = _gb(rxy, ["x*y"], localized=[1])
    with pytest.raises(GroebnerError):
        G.normal_form(rxy.parse("x"))
    with pytest.raises(GroebnerError):
        G.contains(rxy.parse("x*y"))


def test_leading_monomials_and_exps(rxy):
    G = _gb(rxy, ["x^2 - y", "y^2 - 1"], lex_order())
    assert sorted(G.lead_exps()) == [(0, 2), (2, 0)]


def test_elements_sorted_by_ascending_leading_monomial(rxyz):
    G = _gb(rxyz, ["z - x^3", "y - x^2"], lex_order())
    keys = [lex_order().key(g.leading_data(lex_order())[1]) for g in G.elements]
    assert keys == sorted(keys)


def test_against_sympy_oracle(rxyz):
    sympy = pytest.importorskip("sympy")
    from fractions import Fraction

    from idealdec.polygcd import normalize_assoc
    from idealdec.rings import Polynomial

    x, y, z = sympy.symbols("x y z")

    def from_sympy(expr):
        poly = sympy.Poly(expr, x, y, z)
        terms = {
            tuple(int(e) for e in exps): Fraction(c.p, c.q)
            for exps, c in poly.terms()
        }
        return Polynomial(rxyz, terms)

    cases = [
        (["x^2 + y^2 + z^2 - 1", "x*y - z", "x - z^2"],
         [x**2 + y**2 + z**2 - 1, x*y - z, x - z**2]),
        (["x*y - z^2", "y^2 - x*z"],
         [x*y - z**2, y**2 - x*z]),
        (["x + y + z", "x*y + y*z + x*z", "x*y*z - 1"],
         [x + y + z, x*y + y*z + x*z, x*y*z - 1]),
    ]
    for ours_texts, theirs_polys in cases:
        for order_name, our_order in [("lex", lex_order()),
                                      ("grevlex", degrevlex_order())]:
            G = _gb(rxyz, ours_texts, our_order)
            ref = sympy.groebner(theirs_polys, x, y, z, order=order_name)
            ours = {normalize_assoc(g) for g in G.elements}
            theirs = {normalize_assoc(from_sympy(e)) for e in ref.exprs}
            assert ours == theirs, (order_name, ours_texts)


# -- pair pruning ------------------------------------------------------------

KATSURA5 = [
    "u0 + 2*u1 + 2*u2 + 2*u3 + 2*u4 + 2*u5 - 1",
    "u0^2 - u0 + 2*u1^2 + 2*u2^2 + 2*u3^2 + 2*u4^2 + 2*u5^2",
    "2*u0*u1 + 2*u1*u2 - u1 + 2*u2*u3 + 2*u3*u4 + 2*u4*u5",
    "2*u0*u2 + u1^2 + 2*u1*u3 + 2*u2*u4 - u2 + 2*u3*u5",
    "2*u0*u3 + 2*u1*u2 + 2*u1*u4 + 2*u2*u5 - u3",
    "2*u0*u4 + 2*u1*u3 + 2*u1*u5 + u2^2 - u4",
]


def _count_spolynomials(monkeypatch, compute):
    """compute() and the number of S-polynomials it formed."""
    import idealdec.groebner as groebner

    real = groebner.spolynomial
    calls = []

    def counted(*args, **kwargs):
        calls.append(None)
        return real(*args, **kwargs)

    monkeypatch.setattr(groebner, "spolynomial", counted)
    return compute(), len(calls)


def test_maximal_minors_3x9_spolynomial_count(monkeypatch):
    # a universal Groebner basis: every surviving S-pair reduces to zero
    from idealdec.hyperedge import HyperedgeSpec, build_hyperedge_ideal

    spec = HyperedgeSpec(name="minors-3x9", rows=3, cols=9,
                         letters=("x", "y", "z"),
                         hyperedges=(tuple(range(1, 10)),))
    gens = build_hyperedge_ideal(spec).generators
    assert len(gens) == 84
    G, count = _count_spolynomials(monkeypatch, lambda: buchberger(gens, degrevlex_order()))
    assert len(G) == 84
    assert count == 378


def _katsura5_spolynomial_count(monkeypatch, field):
    ring = PolyRing(tuple(f"u{i}" for i in range(6)), field)
    gens = [ring.parse(t) for t in KATSURA5]
    G, count = _count_spolynomials(monkeypatch, lambda: buchberger(gens, degrevlex_order()))
    assert len(G) == 22
    return count


def test_katsura5_spolynomial_count(monkeypatch):
    assert _katsura5_spolynomial_count(monkeypatch, QQ) == 66


def test_katsura5_spolynomial_count_over_gf32003(monkeypatch):
    assert _katsura5_spolynomial_count(monkeypatch, PrimeField(32003)) == 66


def test_localized_path_basis_spolynomial_count(monkeypatch):
    I = _path_edge_ideal(6)
    u = [I.ring.names.index(v) for v in ("x1", "x3", "x5", "y1", "y3")]
    G, count = _count_spolynomials(
        monkeypatch, lambda: buchberger(I.generators, degrevlex_order(), u))
    assert len(G) == 6
    assert count == 20


@pytest.mark.parametrize("n, expected", [(4, 868), (5, 10658)], ids=["P4", "P5"])
def test_path_decomposition_spolynomial_count(monkeypatch, n, expected):
    # every basis of a whole GTZ run: the pair decisions of all its orders
    from idealdec.decompose import gtz_decompose

    I = _path_edge_ideal(n)
    result, count = _count_spolynomials(monkeypatch, lambda: gtz_decompose(I))
    assert result.complete
    assert count == expected


def test_katsura5_basis_equals_the_sympy_reference():
    # bench/katsura5_grevlex.gens is sympy's reduced degrevlex basis, monic
    from pathlib import Path

    from idealdec.files import read_generators

    path = Path(__file__).resolve().parents[1] / "bench" / "katsura5_grevlex.gens"
    ring, reference = read_generators(str(path))
    G = buchberger([ring.parse(t) for t in KATSURA5], degrevlex_order())
    assert sorted(map(str, G.elements)) == sorted(map(str, reference))
