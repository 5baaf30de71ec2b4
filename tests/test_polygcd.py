"""Exact division, primitive parts, multivariate gcd/lcm, squarefree splitting."""

import signal
from fractions import Fraction

import pytest

from idealdec.decompose import minimal_polynomial
from idealdec.ideals import Ideal
from idealdec.polygcd import (
    ExactDivisionError,
    exact_divide,
    normalize_assoc,
    poly_gcd,
    poly_gcd_many,
    poly_lcm,
    poly_lcm_many,
    primitive_in,
    rational_content,
    squarefree_decomposition_in,
)


def test_exact_divide(rxy):
    x, y = rxy.gens()
    assert exact_divide(x**2 - y**2, x - y) == x + y
    assert exact_divide(x**3 * y, x) == x**2 * y
    with pytest.raises(ExactDivisionError):
        exact_divide(x**2 + y, x)
    with pytest.raises(ZeroDivisionError):
        exact_divide(x, rxy.zero)


def test_rational_content(rxy):
    f = rxy.parse("1/2*x + 3/2*y")
    assert rational_content(f) == Fraction(1, 2)
    assert rational_content(rxy.parse("2*x + 4")) == 2


def test_normalize_assoc_is_primitive_with_positive_lead(rxy):
    x, y = rxy.gens()
    assert normalize_assoc(-2 * x) == x
    assert normalize_assoc(rxy.parse("1/2*x + 1/2*y")) == x + y
    assert normalize_assoc(rxy.parse("-3*x*y + 6*y")) == rxy.parse("x*y - 2*y")
    assert normalize_assoc(rxy.zero).is_zero()
    assert normalize_assoc(normalize_assoc(x - y)) == x - y


def test_content_and_primitive_wrt(rxy):
    x, y = rxy.gens()
    f = (y**2 + y) * x**2 + (y**3 + y**2) * x  # content y*(y+1)
    assert primitive_in(f, 0) == x**2 + x * y
    assert exact_divide(f, primitive_in(f, 0)) == y**2 + y
    # the canonical associate: rational content and sign are removed too
    assert primitive_in(f * Fraction(-1, 3), 0) == x**2 + x * y
    assert primitive_in(rxy.parse("-2/3*y"), 0) == y


def test_poly_gcd_univariate(rxy):
    x, _ = rxy.gens()
    f = (x - 1) * (x + 2) ** 2
    g = (x + 2) * (x + 3)
    assert poly_gcd(f, g) == x + 2
    assert poly_gcd(f, rxy.zero) == normalize_assoc(f)
    assert poly_gcd(f, rxy.one).is_one()


def test_poly_gcd_multivariate(rxy):
    x, y = rxy.gens()
    assert poly_gcd(x**2 - y**2, (x - y) ** 2) == x - y
    assert poly_gcd(x**2 - y**2, x**2 + y**2).is_one()
    f = (x + y) * (x**2 + y)
    g = (x + y) * (x - 3)
    assert poly_gcd(f, g) == x + y
    # gcd is symmetric and associate-canonical
    assert poly_gcd(g, f) == x + y
    assert poly_gcd(-2 * f, 4 * g) == x + y


def test_poly_gcd_many_and_lcm(rxy):
    x, y = rxy.gens()
    fams = [x**2 - y**2, x**2 + 2 * x * y + y**2, (x + y) * (x + 3)]
    assert poly_gcd_many(fams) == x + y
    # a family of one is brought to its canonical associate too
    assert poly_gcd_many([-2 * x - 2 * y]) == x + y
    assert poly_lcm_many([x * Fraction(1, 2)]) == x
    assert poly_lcm(x * y, x**2) == x**2 * y
    assert poly_lcm_many([x, y, x * y]) == x * y
    assert poly_lcm(x, rxy.zero).is_zero()


def test_squarefree_decomposition_in(rxy):
    x, y = rxy.gens()
    f = (x - y) ** 3 * (x + 1) ** 2 * (x**2 + y)
    parts = squarefree_decomposition_in(f, 0)
    assert sorted(m for _, m in parts) == [1, 2, 3]
    by_mult = {m: h for h, m in parts}
    assert by_mult[3] == x - y
    assert by_mult[2] == x + 1
    assert by_mult[1] == x**2 + y
    with pytest.raises(ValueError):
        squarefree_decomposition_in(rxy.parse("y"), 0)


class _Expired(Exception):
    pass


def _expire(signum, frame):
    raise _Expired()


@pytest.mark.skipif(not hasattr(signal, "setitimer"), reason="needs SIGALRM")
def test_squarefree_of_degree_27_minimal_polynomial_is_fast(rxyz):
    # a PRS that keeps the rational content of its remainders grows their
    # coefficients without bound here; the primitive PRS takes milliseconds
    I = Ideal(rxyz, [rxyz.parse(t) for t in (
        "x^3 - z^2 - 3*y", "y^3 + x - 3", "z^3 + 3*x + 3")])
    old = signal.signal(signal.SIGALRM, _expire)
    signal.setitimer(signal.ITIMER_REAL, 10.0)
    try:
        parts = squarefree_decomposition_in(minimal_polynomial(I, 0), 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old)
    assert [(h.degree_in(0), m) for h, m in parts] == [(27, 1)]
