"""Multivariate gcd, content and related exact arithmetic over K[x].

The gcd uses the classical primitive-remainder-sequence recursion (Brown,
JACM 1971): pick the highest variable present, split both inputs into
content times primitive part with respect to it, run a pseudo-remainder
loop on the primitive parts, and recurse on the contents.  Each remainder
is replaced by its primitive part before the next step, and over Q that
part is also free of rational content, so the coefficients stay integers
of bounded size.  This is not asymptotically clever, but it is exact,
deterministic, and fast enough for the coefficient sizes this package
works with.

Normalisation convention ("canonical associate", ``normalize_assoc``):
over Q an integer-primitive polynomial whose leading coefficient under lex
(the display order) is positive; over GF(p) one with leading coefficient 1.
What the gcd layer computes gets it in one place, ``primitive_in``: every
gcd, primitive part and squarefree part is built from its output, and a
product of canonical associates is canonical (Gauss's lemma, and lex
leaders multiply).  Elsewhere only an input passed through as the result
is normalised: a gcd with zero, a family of one, an lcm.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd as int_gcd
from math import isqrt, lcm as int_lcm
from typing import Iterable, List, Optional, Tuple

from .domains import Rationals
from .rings import Polynomial


class ExactDivisionError(ArithmeticError):
    """Raised when an exact polynomial division leaves a remainder."""


def _lex_lead(f: Polynomial) -> Tuple[object, Tuple[int, ...]]:
    """(coefficient, exponents) of f's leading term under lex, the display
    order: exponent tuples compare lexicographically."""
    e = max(f.terms)
    return f.terms[e], e


def exact_divide(f: Polynomial, g: Polynomial) -> Polynomial:
    """Return q with f == q*g, or raise ExactDivisionError."""
    if g.is_zero():
        raise ZeroDivisionError("division by the zero polynomial")
    ring = f.ring
    if g.is_constant():
        inv = ring.domain.one / g.constant_value()
        return f * inv
    cg, eg = _lex_lead(g)
    q = {}
    r = f
    while not r.is_zero():
        cr, er = _lex_lead(r)
        diff = tuple(a - b for a, b in zip(er, eg))
        if any(d < 0 for d in diff):
            raise ExactDivisionError("not an exact divisor")
        t = cr / cg
        q[diff] = t
        r = r - g.multiply_monomial(diff, t)
    return Polynomial(ring, q)


def rational_content(f: Polynomial) -> Fraction:
    """Positive rational c with f/c integer-primitive (f over Q, nonzero)."""
    num = 0
    den = 1
    for c in f.terms.values():
        num = int_gcd(num, c.numerator)
        den = int_lcm(den, c.denominator)
    return Fraction(num, den)


def normalize_assoc(f: Polynomial) -> Polynomial:
    """The canonical associate of f (see module docstring)."""
    if f.is_zero():
        return f
    if isinstance(f.ring.domain, Rationals):
        g = f * (1 / rational_content(f))
        lc, _ = _lex_lead(g)
        return -g if lc < 0 else g
    lc, _ = _lex_lead(f)
    return f * (f.ring.domain.one / lc)


def _content_in_main(f: Polynomial, v: int) -> Polynomial:
    return poly_gcd_many(f.as_univariate(v).values())


def primitive_in(f: Polynomial, v: int) -> Polynomial:
    """The canonical associate of f divided by the gcd of its coefficients
    as a polynomial in x_v (of f itself when f is free of x_v)."""
    if f.is_zero() or f.degree_in(v) < 1:
        return normalize_assoc(f)
    return normalize_assoc(exact_divide(f, _content_in_main(f, v)))


def pseudo_rem(a: Polynomial, b: Polynomial, v: int) -> Polynomial:
    """Pseudo-remainder of a by b with respect to x_v (deg_v b >= 1)."""
    db = b.degree_in(v)
    lcb = b.coefficient_of(v, db)
    xv = a.ring.var(a.ring.names[v])
    r = a
    while not r.is_zero():
        dr = r.degree_in(v)
        if dr < db:
            break
        lcr = r.coefficient_of(v, dr)
        r = r * lcb - b * (lcr * xv ** (dr - db))
    return r


def poly_gcd(f: Polynomial, g: Polynomial) -> Polynomial:
    """Gcd of two polynomials, returned as the canonical associate."""
    if f.is_zero():
        return normalize_assoc(g)
    if g.is_zero():
        return normalize_assoc(f)
    if f.is_constant() or g.is_constant():
        return f.ring.one
    common = f.support() | g.support()
    v = max(common)
    if f.degree_in(v) == 0:
        return poly_gcd(f, _content_in_main(g, v))
    if g.degree_in(v) == 0:
        return poly_gcd(_content_in_main(f, v), g)
    cont_f = _content_in_main(f, v)
    cont_g = _content_in_main(g, v)
    a = exact_divide(f, cont_f)
    b = exact_divide(g, cont_g)
    if a.degree_in(v) < b.degree_in(v):
        a, b = b, a
    while True:
        r = pseudo_rem(a, b, v)
        if r.is_zero():
            pp = primitive_in(b, v)
            break
        if r.degree_in(v) == 0:
            pp = f.ring.one
            break
        a, b = b, primitive_in(r, v)
    return poly_gcd(cont_f, cont_g) * pp


def poly_gcd_many(polys: Iterable[Polynomial]) -> Polynomial:
    acc = None
    for p in polys:
        acc = normalize_assoc(p) if acc is None else poly_gcd(acc, p)
        if acc.is_one():
            return acc
    if acc is None:
        raise ValueError("gcd of an empty family")
    return acc


def poly_lcm(f: Polynomial, g: Polynomial) -> Polynomial:
    if f.is_zero() or g.is_zero():
        return f.ring.zero
    return normalize_assoc(exact_divide(f * g, poly_gcd(f, g)))


def poly_lcm_many(polys: Iterable[Polynomial]) -> Polynomial:
    acc = None
    for p in polys:
        acc = normalize_assoc(p) if acc is None else poly_lcm(acc, p)
    if acc is None:
        raise ValueError("lcm of an empty family")
    return acc


def _fraction_sqrt(c: Fraction) -> Optional[Fraction]:
    if c < 0:
        return None
    rn = isqrt(c.numerator)
    rd = isqrt(c.denominator)
    if rn * rn != c.numerator or rd * rd != c.denominator:
        return None
    return Fraction(rn, rd)


def poly_sqrt(f: Polynomial) -> Optional[Polynomial]:
    """Exact square root of f over Q, or None if f is not a square.

    Completes the root term by term from the display-lex leading term; the
    strictly decreasing leading monomial of the residual guarantees
    termination (lex is a well-order).
    """
    if not isinstance(f.ring.domain, Rationals):
        return None
    if f.is_zero():
        return f
    c, e = _lex_lead(f)
    if any(x % 2 for x in e):
        return None
    rc = _fraction_sqrt(c)
    if rc is None:
        return None
    half = tuple(x // 2 for x in e)
    s = f.ring.monomial(half, rc)
    r = f - s * s
    two_rc = rc * 2
    while not r.is_zero():
        cr, er = _lex_lead(r)
        diff = tuple(a - b for a, b in zip(er, half))
        if any(d < 0 for d in diff):
            return None
        t = f.ring.monomial(diff, cr / two_rc)
        r = r - t * (s * 2) - t * t
        s = s + t
    return s if _lex_lead(s)[0] > 0 else -s


def squarefree_decomposition_in(
    f: Polynomial, v: int
) -> List[Tuple[Polynomial, int]]:
    """Squarefree decomposition of f as a polynomial in x_v over the fraction
    field of the remaining variables (characteristic 0).

    Returns [(h_1, m_1), ...] with each h_i squarefree in x_v, pairwise
    coprime, primitive in x_v and a canonical associate, and f associate to
    prod h_i^{m_i} up to a factor free of x_v.  Gcds in K(rest)[x_v] are
    taken as primitive parts of polynomial gcds (Gauss's lemma).
    """
    if f.degree_in(v) < 1:
        raise ValueError("polynomial is constant in the chosen variable")
    f = primitive_in(f, v)
    df = f.derivative(v)
    g = primitive_in(poly_gcd(f, df), v)
    if g.degree_in(v) == 0:
        return [(f, 1)]
    out: List[Tuple[Polynomial, int]] = []
    c = exact_divide(f, g)  # product of the distinct x_v-factors
    k = 1
    while c.degree_in(v) > 0:
        d = primitive_in(poly_gcd(c, g), v)
        h = exact_divide(c, d)
        h = primitive_in(h, v)
        if h.degree_in(v) > 0:
            out.append((h, k))
        if d.degree_in(v) == 0:
            break
        g = exact_divide(g, d)
        c = d
        k += 1
    return out
