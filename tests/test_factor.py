"""Bounded univariate factorization and minimal-polynomial splitting."""

from fractions import Fraction

import pytest

from idealdec.domains import QQ, PrimeField
from idealdec.factorize import (
    FactorizationIncomplete,
    factor_rational_univariate,
    is_irreducible_over_q,
    split_minimal_polynomial,
)
from idealdec.rings import PolyRing


def _coeffs(*cs):
    return [Fraction(c) for c in cs]


def test_factor_quadratics():
    # x^2 - 1 = (x - 1)(x + 1)
    got = factor_rational_univariate(_coeffs(-1, 0, 1))
    assert sorted((tuple(f), m) for f, m in got) == [
        ((-1, 1), 1), ((1, 1), 1)
    ]
    # 6x^2 + x - 1 = (2x + 1)(3x - 1)
    got = factor_rational_univariate(_coeffs(-1, 1, 6))
    assert sorted((tuple(f), m) for f, m in got) == [
        ((-1, 3), 1), ((1, 2), 1)
    ]


def test_factor_with_multiplicities():
    # (x - 2)^2 (x + 3) = x^3 - x^2 - 8x + 12
    got = factor_rational_univariate(_coeffs(12, -8, -1, 1))
    assert sorted((tuple(f), m) for f, m in got) == [
        ((-2, 1), 2), ((3, 1), 1)
    ]


def test_factor_keeps_irreducibles_whole():
    # (x^2 + 1)(x - 5)
    got = factor_rational_univariate(_coeffs(-5, 1, -5, 1))
    assert sorted((tuple(f), m) for f, m in got) == [
        ((-5, 1), 1), ((1, 0, 1), 1)
    ]


def test_factor_rejects_zero():
    with pytest.raises(ValueError):
        factor_rational_univariate(_coeffs(0))


def test_rational_root_search_is_bounded():
    # listing the divisors of 10^16 + 61 by trial division took 13 s; the
    # search now gives up and the modular path settles the cubic
    sympy = pytest.importorskip("sympy")
    import time

    c = 10000000000000061
    start = time.perf_counter()
    got = factor_rational_univariate(_coeffs(c, 0, 0, 1))
    assert time.perf_counter() - start < 1.0
    x = sympy.Symbol("x")
    _, theirs = sympy.factor_list(x**3 + c, x)
    assert [(sympy.Poly(f, x).all_coeffs()[::-1], m) for f, m in theirs] == [
        (list(f), m) for f, m in got
    ]


def test_factorizer_refuses_primes_past_the_miller_rabin_bound():
    # (x^2 + c)(x^2 + c + 1) has no rational roots, so it needs a prime
    # above twice its coefficient bound, which is past the range where
    # is_prime is exact
    c = 10**24
    f = [c * (c + 1), 0, 2 * c + 1, 0, 1]
    with pytest.raises(FactorizationIncomplete, match="no usable prime"):
        factor_rational_univariate(_coeffs(*f))
    ring = PolyRing(("x",), QQ)
    out = split_minimal_polynomial(ring.poly({(i,): a for i, a in enumerate(f)}),
                                   0, base=())
    assert not out.complete
    assert [p.irreducible for p in out.parts] == [None]
    assert "no usable prime" in out.obligation


def test_is_irreducible_over_q():
    assert is_irreducible_over_q(_coeffs(-2, 0, 1))        # x^2 - 2
    assert is_irreducible_over_q(_coeffs(1, 1, 1, 1, 1))   # 5th cyclotomic
    assert is_irreducible_over_q(_coeffs(7, 0, 3))         # 3x^2 + 7
    assert not is_irreducible_over_q(_coeffs(-1, 0, 1))    # x^2 - 1
    assert not is_irreducible_over_q(_coeffs(0, 1, 1))     # x(x + 1)
    assert not is_irreducible_over_q(_coeffs(1, 2, 1))     # (x + 1)^2


def test_split_rational_minimal_polynomial():
    ring = PolyRing(("x",), QQ)
    m = ring.parse("x^2 - 1")
    out = split_minimal_polynomial(m, 0, base=())
    assert out.complete
    polys = sorted(str(p.poly) for p in out.parts)
    assert polys == ["x + 1", "x - 1"]
    assert all(p.irreducible for p in out.parts)
    assert all(p.multiplicity == 1 for p in out.parts)


def test_split_reports_multiplicity():
    ring = PolyRing(("x",), QQ)
    m = ring.parse("x^3 + 2*x^2 + x")  # x (x + 1)^2
    out = split_minimal_polynomial(m, 0, base=())
    got = sorted((str(p.poly), p.multiplicity) for p in out.parts)
    assert got == [("x", 1), ("x + 1", 2)]


def test_split_certifies_quadratic_by_discriminant():
    ring = PolyRing(("t", "x"), QQ)
    m = ring.parse("x^2 - t")  # the discriminant 4t is not a square
    out = split_minimal_polynomial(m, 1, base=(0,))
    assert out.complete
    assert len(out.parts) == 1
    part = out.parts[0]
    assert part.irreducible
    assert part.certificate == "quadratic-discriminant"


def test_split_refuses_prime_fields():
    # over GF(7), x^2 - 2*y^2 = (x - 3y)(x + 3y) used to be certified
    # irreducible by its discriminant, and x^2 - 2 raised AttributeError
    ring = PolyRing(("x", "y"), PrimeField(7))
    for text in ("x^2 - 2*y^2", "x^2 - 2", "x^7 - y"):
        with pytest.raises(ValueError, match="over Q only, not over GF\\(7\\)"):
            split_minimal_polynomial(ring.parse(text), 0, base=(1,))


def test_split_certifies_eisenstein_over_function_field():
    ring = PolyRing(("t", "x"), QQ)
    m = ring.parse("x^3 - t")  # Eisenstein at t in Q(t)[x]
    out = split_minimal_polynomial(m, 1, base=(0,))
    assert out.complete
    assert len(out.parts) == 1
    part = out.parts[0]
    assert part.irreducible
    assert part.certificate == "eisenstein:t"


def test_split_splits_over_function_field():
    ring = PolyRing(("t", "x"), QQ)
    m = ring.parse("x^2 - t^2")  # (x - t)(x + t)
    out = split_minimal_polynomial(m, 1, base=(0,))
    polys = sorted(str(p.poly) for p in out.parts)
    assert polys == ["t + x", "t - x"]


def test_split_certifies_by_specialization():
    ring = PolyRing(("t", "x"), QQ)
    # one squarefree part; irreducibility is certified by specializing t
    m = ring.parse("x^4 + t*x^2 + t^3 + 1")
    out = split_minimal_polynomial(m, 1, base=(0,))
    assert len(out.parts) == 1
    assert out.complete
    assert out.parts[0].certificate == "specialization:t=1"
