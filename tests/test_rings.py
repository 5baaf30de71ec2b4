"""Sparse polynomials: parsing, formatting, arithmetic, ring plumbing."""

from fractions import Fraction

import pytest

from idealdec.domains import (
    MILLER_RABIN_BOUND,
    DomainError,
    ModInt,
    PrimeField,
    QQ,
    is_prime,
)
from idealdec.orders import degrevlex_order, lex_order
from idealdec.rings import (
    ParseError,
    PolyRing,
    RingError,
    adjoin,
    format_poly,
    format_ring_header,
    inject,
    parse_ring_header,
    project,
)


# psi_12 = 399165290221 * 798330580441 passes every base up to 37, and
# psi_13 every base up to 41
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_rejects_strong_pseudoprimes():
    assert PSI_12 == 399165290221 * 798330580441
    assert not is_prime(PSI_12)
    assert PSI_13 == MILLER_RABIN_BOUND
    with pytest.raises(DomainError, match="cannot decide"):
        is_prime(PSI_13)
    # past the bound a witness still proves compositeness, but a number
    # passing every witness is not called prime
    assert not is_prime((2**61 - 1) * (2**89 - 1))
    with pytest.raises(DomainError, match="cannot decide"):
        is_prime(2**89 - 1)
    assert is_prime(2**61 - 1) and is_prime(32003) and not is_prime(32001)


def test_prime_field_refuses_undecidable_moduli():
    with pytest.raises(DomainError, match="not prime"):
        PrimeField(PSI_12)
    with pytest.raises(DomainError, match="cannot decide"):
        PrimeField(PSI_13)


def test_parse_format_round_trip(rxyz):
    for text in [
        "x^2*y - 3*x + 1/2",
        "x*y*z",
        "-x + y - z",
        "2*x^3 - x*y^2 + 7",
        "5",
        "-3/2",
        "0",
    ]:
        f = rxyz.parse(text)
        assert format_poly(f) == text
        assert rxyz.parse(format_poly(f)) == f


def test_parse_accepts_whitespace_and_plus_signs(rxyz):
    assert rxyz.parse("x+y") == rxyz.parse("x + y")
    assert rxyz.parse("+x") == rxyz.parse("x")


def test_parse_rejects_malformed_input(rxyz):
    for bad in ["x^", "q", "x**2", "1.5*x", "", "x^-1", "x - -y", "()"]:
        with pytest.raises(ParseError):
            rxyz.parse(bad)


def test_parse_drops_zero_coefficients(rxyz):
    assert rxyz.parse("0").is_zero()
    assert rxyz.parse("0*x").is_zero()
    assert rxyz.parse("0*x + 0").is_zero()
    f = rxyz.parse("3*x^2 + 0*y")
    assert f == rxyz.parse("3*x^2") and f.num_terms() == 1
    assert rxyz.parse("0*x + y - y") == rxyz.zero


def test_parse_drops_terms_that_vanish_mod_p():
    ring = PolyRing(("x", "y"), PrimeField(7))
    f = ring.parse("8 + 48")
    assert f.is_zero() and format_poly(f) == "0"
    assert ring.parse(format_poly(f)) == f
    assert ring.parse("7*x + y").terms == ring.parse("y").terms


def test_poly_validates_exponents_and_drops_zeros(rxy):
    assert rxy.poly({(1, 0): 2, (0, 0): 0}).terms == {(1, 0): Fraction(2)}
    assert rxy.poly({}).is_zero()
    for bad in ({(1,): 1}, {(-1, 0): 1}, {(Fraction(1, 2), 0): 1}, {(1, "a"): 1}):
        with pytest.raises(RingError):
            rxy.poly(bad)


def test_display_order_is_lex_descending(rxyz):
    f = rxyz.parse("y + x + z^4")
    assert format_poly(f) == "x + y + z^4"


def test_arithmetic_identities(rxy):
    x, y = rxy.gens()
    assert (x + y) ** 2 == x**2 + 2 * x * y + y**2
    assert (x + y) * (x - y) == x**2 - y**2
    assert (x - x).is_zero()
    assert (x**0).is_one()
    f = 3 * x * y - y
    assert -(-f) == f
    assert f - f == rxy.zero
    assert f * rxy.zero == rxy.zero


def test_rational_coefficient_arithmetic(rxy):
    f = rxy.parse("1/2*x + 1/3")
    g = rxy.parse("1/2*x - 1/3")
    assert f * g == rxy.parse("1/4*x^2 - 1/9")
    assert f * Fraction(2) == rxy.parse("x + 2/3")


def test_leading_data_depends_on_order(rxyz):
    f = rxyz.parse("x*y^2 + x^2*z")
    lc_lex, le_lex = f.leading_data(lex_order())
    lc_drl, le_drl = f.leading_data(degrevlex_order())
    assert (lc_lex, le_lex) == (Fraction(1), (2, 0, 1))
    assert (lc_drl, le_drl) == (Fraction(1), (1, 2, 0))


def test_substitute_and_specialize(rxy):
    x, y = rxy.gens()
    f = x**2 + y
    assert f.substitute(0, y + 1) == (y + 1) ** 2 + y
    assert f.specialize({0: Fraction(2)}) == y + 4
    assert f.specialize({0: Fraction(0), 1: Fraction(1)}) == rxy.one


def test_substitute_leaves_other_variables_alone(rxyz):
    f = rxyz.parse("x*z + y")
    assert f.substitute(2, rxyz.one) == rxyz.parse("x + y")


def test_permute_vars_moves_variable_i_to_image_i(rxy):
    f = rxy.parse("x^2*y")
    swapped = f.permute_vars((1, 0))
    assert swapped == rxy.parse("x*y^2")
    assert swapped.permute_vars((1, 0)) == f


def test_derivative(rxy):
    f = rxy.parse("x^3*y + 2*x + 5")
    assert f.derivative(0) == rxy.parse("3*x^2*y + 2")
    assert f.derivative(1) == rxy.parse("x^3")
    assert rxy.one.derivative(0).is_zero()


def test_as_univariate_and_coefficient_of(rxy):
    f = rxy.parse("x^2*y - x^2 + y^3")
    by_deg = f.as_univariate(0)
    assert set(by_deg) == {0, 2}
    assert by_deg[2] == rxy.parse("y - 1")
    assert f.coefficient_of(0, 2) == rxy.parse("y - 1")
    assert f.coefficient_of(0, 1).is_zero()


def test_degree_queries(rxyz):
    f = rxyz.parse("x^2*y - z^5")
    assert f.total_degree() == 5
    assert f.degree_in(0) == 2
    assert f.degree_in(2) == 5
    assert f.num_terms() == 2
    assert rxyz.zero.total_degree() == -1


def test_ring_equality_and_var_lookup():
    a = PolyRing(("x", "y"), QQ)
    b = PolyRing(("x", "y"), QQ)
    c = PolyRing(("x", "z"), QQ)
    assert a == b and a != c
    assert a.index("y") == 1
    with pytest.raises(RingError):
        a.index("w")
    with pytest.raises(RingError):
        a.var("w")


def test_mixed_ring_arithmetic_rejected():
    a = PolyRing(("x", "y"), QQ)
    b = PolyRing(("x", "z"), QQ)
    with pytest.raises(RingError):
        a.var("x") + b.var("x")


def test_adjoin_inject_project(rxy):
    big, tag = adjoin(rxy, "t")
    assert big.names == ("x", "y", "t") and tag == 2
    assert big.domain == rxy.domain
    f = rxy.parse("x*y - 2")
    lifted = inject(f, big)
    assert lifted.ring == big
    assert format_poly(lifted) == "x*y - 2"
    assert lifted.degree_in(tag) == 0
    assert project(lifted, rxy) == f
    g = big.parse("t*x - y")
    assert project(g.substitute(tag, inject(f, big)), rxy) == rxy.parse("x^2*y - 2*x - y")


def test_adjoin_picks_a_fresh_name():
    ring = PolyRing(("x", "t", "t0"), QQ)
    assert adjoin(ring, "w")[0].names == ("x", "t", "t0", "w")
    big, tag = adjoin(ring, "t")
    assert big.names == ("x", "t", "t0", "t1") and tag == 3
    bigger, _ = adjoin(big, "t")
    assert bigger.names[-1] == "t2"


def test_project_rejects_polynomials_using_dropped_vars(rxy):
    big, _ = adjoin(rxy, "t")
    with pytest.raises(RingError, match="helper"):
        project(big.var("t"), rxy)
    with pytest.raises(RingError, match="helper"):
        project(big.parse("x + t^2*y"), rxy)


def test_ring_header_round_trip():
    ring = parse_ring_header("ring Q[x,y,z]")
    assert ring.names == ("x", "y", "z")
    assert ring.domain == QQ
    assert format_ring_header(ring) == "ring Q[x,y,z]"

    wide = parse_ring_header("ring Q[x1..x12,y1..y12,z1..z12]")
    assert wide.nvars == 36
    assert wide.names[0] == "x1" and wide.names[23] == "y12"
    assert format_ring_header(wide) == "ring Q[x1..x12,y1..y12,z1..z12]"

    modp = parse_ring_header("ring GF(7)[a,b]")
    assert modp.domain == PrimeField(7)
    assert format_ring_header(modp) == "ring GF(7)[a,b]"


def test_ring_header_rejects_malformed_lines():
    for bad in [
        "ring Q[x",
        "ring F[x]",
        "ring Q[]",
        "ring Q[x,x]",
        "Q[x,y]",
        "ring GF(4)[x]",
    ]:
        with pytest.raises(ParseError):
            parse_ring_header(bad)


def test_prime_field_arithmetic():
    ring = parse_ring_header("ring GF(7)[x]")
    f = ring.parse("x^2 + 6")
    g = ring.parse("x^2 - 1")
    assert f == g
    assert (ring.parse("x + 3") + ring.parse("x + 4")) == ring.parse("2*x")


def test_mod_int_zero_to_a_negative_power_is_a_division_by_zero():
    assert ModInt(3, 7) ** -1 == ModInt(5, 7)
    assert ModInt(0, 7) ** 0 == ModInt(1, 7)
    with pytest.raises(ZeroDivisionError):
        ModInt(0, 7) ** -1
    with pytest.raises(ZeroDivisionError):
        Fraction(0) ** -1
