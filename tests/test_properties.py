"""Property tests of gcd, factorization and parsing, with sympy as oracle.

* ``poly_gcd`` of a*c and b*c in Q[x,y] and Q[x,y,z] is the canonical
  associate of ``sympy.gcd``, and ``primitive_in`` of a*c in each variable
  is a canonical associate;
* ``f + g``, ``f - g``, ``f * g``, ``specialize`` and ``permute_vars`` (an
  image that merges two variables included) over Q and GF(32003) agree
  with sympy, and sums that cancel (``f - f``, ``f * g - g * f``, a
  specialization at a root) store no zero coefficient;
* ``factor_rational_univariate`` of a product of small factors of total
  degree at most 8 gives the factors and multiplicities of
  ``sympy.factor_list``;
* ``split_minimal_polynomial`` of a product of known factors in Q[y][x],
  repeated and rational ones included, gives canonical, squarefree,
  pairwise coprime parts p_i with prod p_i^{m_i} / m free of x;
* ``minor`` of a 1x1 to 4x4 matrix of polynomials in Q[x,y,z], its columns
  in any order, equals ``sympy.Matrix.det``;
* ``ring.parse(str(f)) == f`` over Q and GF(7), the zero polynomial
  included;
* random text fed to the parser raises nothing but ``ParseError`` or
  ``DomainError``, and the command line turns a rejected line into exit
  code 1 with an ``idealdec: error:`` message;
* ``minimal_hitting_sets`` of up to 8 supports over at most 8 variables
  yields every inclusion-minimal hitting set that a search over all
  subsets finds, each exactly once.
"""

import contextlib
import io
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealdec.cli import EXIT_ERROR, EXIT_OK, main
from idealdec.domains import QQ, DomainError, ModInt, PrimeField
from idealdec.factorize import factor_rational_univariate, split_minimal_polynomial
from idealdec.hyperedge import minor
from idealdec.indepsets import minimal_hitting_sets
from idealdec.polygcd import normalize_assoc, poly_gcd, primitive_in
from idealdec.rings import ParseError, PolyRing

sympy = pytest.importorskip("sympy")

_settings = settings(max_examples=60, deadline=None, derandomize=True,
                     database=None)
NAMES = ("x", "y", "z")
SYMBOLS = sympy.symbols(NAMES)


def _terms(nvars, max_degree, max_terms, coeffs):
    monomials = list(_exponents(nvars, max_degree))
    return st.dictionaries(st.sampled_from(monomials), coeffs,
                           min_size=1, max_size=max_terms)


def _exponents(nvars, max_degree):
    if nvars == 0:
        yield ()
        return
    for a in range(max_degree + 1):
        for rest in _exponents(nvars - 1, max_degree - a):
            yield (a,) + rest


def _to_sympy(ring, f):
    syms = SYMBOLS[: ring.nvars]
    expr = sympy.Integer(0)
    for exps, c in f.terms.items():
        if isinstance(c, ModInt):
            term = sympy.Integer(c.value)
        else:
            term = sympy.Rational(c.numerator, c.denominator)
        for s, e in zip(syms, exps):
            term *= s**e
        expr += term
    return expr


def _from_sympy(ring, expr):
    if expr == 0:
        return ring.zero
    poly = sympy.Poly(expr, *SYMBOLS[: ring.nvars])
    return ring.poly({
        tuple(int(e) for e in exps): Fraction(int(c.p), int(c.q))
        for exps, c in poly.terms()
    })


# -- gcd ----------------------------------------------------------------------

_small_ints = st.integers(-3, 3).filter(bool)


@st.composite
def _gcd_case(draw):
    nvars = draw(st.sampled_from([2, 3]))
    polys = [draw(_terms(nvars, 2, 3, _small_ints)) for _ in range(3)]
    return nvars, polys


@_settings
@given(case=_gcd_case())
@example(case=(2, [{(1, 0): 1}, {(0, 1): 1}, {(1, 1): 2, (0, 0): -1}]))
def test_poly_gcd_matches_sympy(case):
    nvars, (a, b, c) = case
    ring = PolyRing(NAMES[:nvars], QQ)
    a, b, c = (ring.poly(t) for t in (a, b, c))
    f, g = a * c, b * c
    theirs = sympy.gcd(_to_sympy(ring, f), _to_sympy(ring, g))
    # poly_gcd returns the canonical associate itself
    assert poly_gcd(f, g) == normalize_assoc(_from_sympy(ring, theirs))
    for v in range(nvars):
        pp = primitive_in(f, v)
        assert normalize_assoc(pp) == pp


# -- term sums ----------------------------------------------------------------

_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=4)

_GF = PrimeField(32003)
# over GF(32003) the coefficients 32000..32006 cancel small ones
_field_ints = st.integers(-3, 3) | st.integers(32000, 32006)
_RQ = PolyRing(NAMES, QQ)
_RGF = PolyRing(NAMES, _GF)


@st.composite
def _sum_case(draw):
    """Two polynomials in x, y, z over Q or GF(32003), a variable and a
    value to specialize it at, and an image of the variables, perhaps
    non-injective."""
    ring = PolyRing(NAMES, draw(st.sampled_from([QQ, _GF])))
    coeffs = _rationals if ring.domain is QQ else _field_ints
    f, g = (ring.poly(draw(_terms(3, 3, 5, coeffs))) for _ in "fg")
    v = draw(st.integers(0, 2))
    image = tuple(draw(st.lists(st.integers(0, 2), min_size=3, max_size=3)))
    return ring, f, g, v, draw(coeffs), image


def _agrees(ring, h, expr):
    """h stores no zero coefficient and equals the sympy expression."""
    assert all(h.terms.values())
    options = {"modulus": ring.domain.p} if ring.domain is _GF else {"domain": "QQ"}
    assert (sympy.Poly(_to_sympy(ring, h), *SYMBOLS, **options)
            == sympy.Poly(expr, *SYMBOLS, **options))


@_settings
@given(case=_sum_case())
@example(case=(_RQ, _RQ.parse("x - y"), _RQ.parse("x + y"),
               0, Fraction(1), (0, 0, 2)))  # x - y with y -> x is 0
@example(case=(_RGF, _RGF.parse("x*y - 1"), _RGF.parse("32002"),
               1, 32004, (1, 1, 2)))  # 32004 is 1 and 32002 is -1
def test_term_sums_match_sympy(case):
    ring, f, g, v, a, image = case
    F, G = _to_sympy(ring, f), _to_sympy(ring, g)
    _agrees(ring, f + g, F + G)
    _agrees(ring, f - g, F - G)
    _agrees(ring, f * g, sympy.expand(F * G))
    _agrees(ring, f.specialize({v: a}), F.subs(SYMBOLS[v], sympy.Rational(a.numerator, a.denominator)))
    images = dict(zip(SYMBOLS, (SYMBOLS[i] for i in image)))
    _agrees(ring, f.permute_vars(image), F.subs(images, simultaneous=True))
    # sums that cancel: the antisymmetric part of f in x and y vanishes when
    # y is sent to x, and x_v - a vanishes at x_v = a
    at_root = ((ring.gens()[v] - a) * f).specialize({v: a})
    merged = (f - f.permute_vars((1, 0, 2))).permute_vars((0, 0, 2))
    for h in (f - f, f * g - g * f, f + g - f - g, at_root, merged):
        _agrees(ring, h, 0)


# -- minors -------------------------------------------------------------------

_RXYZ = PolyRing(NAMES, QQ)
_coeffs = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 2))
# the ring's own variables and one carry the domain's one as coefficient
_entry = st.one_of(
    st.sampled_from([*_RXYZ.gens(), _RXYZ.one, _RXYZ.zero]),
    _terms(3, 2, 3, _coeffs).map(_RXYZ.poly),
)


@st.composite
def _square(draw):
    """An n x n matrix of polynomials, 1 <= n <= 4, and an order of its
    columns."""
    n = draw(st.integers(1, 4))
    matrix = [[draw(_entry) for _ in range(n)] for _ in range(n)]
    return matrix, draw(st.permutations(range(1, n + 1)))


@_settings
@given(case=_square())
@example(case=([[_RXYZ.gens()[0], _RXYZ.gens()[1]],
                [_RXYZ.gens()[0], _RXYZ.gens()[1]]], [1, 2]))  # cancels to 0
def test_minor_matches_sympy_det(case):
    matrix, cols = case
    n = len(matrix)
    ours = minor(matrix, range(1, n + 1), cols)
    theirs = sympy.Matrix(
        [[_to_sympy(_RXYZ, matrix[i][j - 1]) for j in cols] for i in range(n)]
    ).det(method="berkowitz")
    assert ours == _from_sympy(_RXYZ, sympy.expand(theirs))


# -- univariate factorization -------------------------------------------------

_factor = st.lists(st.integers(-4, 4), min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0
)


@st.composite
def _product(draw):
    """Dense ascending Fraction coefficients of a product of small factors,
    with multiplicities, of total degree 1..8."""
    factors = draw(st.lists(st.tuples(_factor, st.integers(1, 3)),
                            min_size=1, max_size=4))
    product = [Fraction(draw(st.integers(1, 3)), draw(st.integers(1, 3)))]
    for cs, mult in factors:
        for _ in range(mult):
            if len(product) + len(cs) - 2 > 8:
                break
            out = [Fraction(0)] * (len(product) + len(cs) - 1)
            for i, p in enumerate(product):
                for j, q in enumerate(cs):
                    out[i + j] += p * q
            product = out
    if len(product) == 1:
        product = [Fraction(1), Fraction(1)]
    return product


def _primitive_positive(coeffs):
    """Integer coefficients with content 1 and a positive leading one."""
    from math import gcd

    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    ints = [int(c * den) for c in coeffs]
    content = 0
    for c in ints:
        content = gcd(content, c)
    ints = [c // content for c in ints]
    return tuple(ints) if ints[-1] > 0 else tuple(-c for c in ints)


@_settings
@given(coeffs=_product())
@example(coeffs=[Fraction(c) for c in (12, -8, -1, 1)])  # (x - 2)^2 (x + 3)
@example(coeffs=[Fraction(c) for c in (4, 0, 0, 0, 1)])  # x^4 + 4, Sophie Germain
def test_factor_rational_univariate_matches_sympy(coeffs):
    x = sympy.Symbol("x")
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(coeffs))
    _, factors = sympy.factor_list(expr, x)
    theirs = sorted(
        (_primitive_positive([Fraction(int(c.p), int(c.q))
                              for c in reversed(sympy.Poly(f, x).all_coeffs())]), m)
        for f, m in factors
    )
    ours = sorted((tuple(f), m) for f, m in factor_rational_univariate(coeffs))
    assert ours == theirs


# -- splitting over Q(y) -----------------------------------------------------

_small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)
_RXY = PolyRing(NAMES[:2], QQ)


@st.composite
def _known_factors(draw):
    """m = c(y) * prod f_i^{k_i} in Q[x,y] with each f_i of degree 1 or 2 in
    x; an f_i is free of y when ``rational`` is drawn, and x-degree of m is
    at most 8."""
    ring = _RXY
    m = ring.one
    if draw(st.booleans()):
        m = m * ring.parse("2*y^2 + 3")
    degree = 0
    for _ in range(draw(st.integers(1, 3))):
        deg = draw(st.integers(1, 2))
        mult = draw(st.integers(1, 3))
        if degree + deg * mult > 8:
            break
        rational = draw(st.booleans())
        terms = {}
        for d in range(deg + 1):
            terms[(d, 0)] = draw(_small_fractions)
            if not rational:
                terms[(d, 1)] = Fraction(draw(st.integers(-2, 2)))
        if not terms[(deg, 0)] and not terms.get((deg, 1)):
            terms[(deg, 0)] = Fraction(1)
        m = m * ring.poly(terms) ** mult
        degree += deg * mult
    return ring, m


@_settings
@given(case=_known_factors())
@example(case=(_RXY, _RXY.parse("x^2 - y") ** 2 * _RXY.parse("2*x - 1") ** 3
               * _RXY.parse("x^2 - 2")))
def test_split_minimal_polynomial_parts_recompose(case):
    ring, m = case
    x = SYMBOLS[0]
    out = split_minimal_polynomial(m, 0, base=(1,))
    assert all(normalize_assoc(p.poly) == p.poly for p in out.parts)
    parts = [_to_sympy(ring, p.poly) for p in out.parts]
    for p in parts:
        assert sympy.degree(p, x) >= 1
        assert sympy.degree(sympy.gcd(p, sympy.diff(p, x)), x) == 0
    for p, q in combinations(parts, 2):
        assert sympy.degree(sympy.gcd(p, q), x) == 0
    product = sympy.Mul(*(p**part.multiplicity
                          for p, part in zip(parts, out.parts)))
    num, den = sympy.fraction(sympy.cancel(product / _to_sympy(ring, m)))
    assert sympy.degree(num, x) == 0 and sympy.degree(den, x) == 0


# -- parsing ------------------------------------------------------------------


@st.composite
def _poly(draw):
    modulus = draw(st.sampled_from([None, 7]))
    ring = PolyRing(NAMES, QQ if modulus is None else PrimeField(modulus))
    terms = draw(st.dictionaries(st.sampled_from(list(_exponents(3, 3))),
                                 _rationals if modulus is None else st.integers(-20, 20),
                                 max_size=5))
    return ring, ring.poly(terms)


@_settings
@given(case=_poly())
@example(case=(PolyRing(NAMES, QQ), PolyRing(NAMES, QQ).zero))
@example(case=(PolyRing(NAMES, PrimeField(7)), PolyRing(NAMES, PrimeField(7)).zero))
def test_parse_inverts_str(case):
    ring, f = case
    assert ring.parse(str(f)) == f


_junk = st.text(alphabet="xyzw0123456789+-*/^() .,_", max_size=24)


@_settings
@given(text=_junk, modulus=st.sampled_from([None, 7]))
@example(text="1/0", modulus=None)
@example(text="x/7", modulus=7)
@example(text="1/7", modulus=7)
def test_junk_text_is_rejected_cleanly(text, modulus, tmp_path_factory):
    domain = QQ if modulus is None else PrimeField(modulus)
    ring = PolyRing(NAMES, domain)
    try:
        ring.parse(text)
    except (ParseError, DomainError):
        rejected = True
    else:
        rejected = False
    if not text.strip():
        return  # a blank line is skipped in a generator file
    header = "ring Q[x,y,z]" if modulus is None else f"ring GF({modulus})[x,y,z]"
    path = tmp_path_factory.mktemp("junk") / "junk.gens"
    path.write_text(f"{header}\n{text}\n")
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["groebner", str(path), "--out", str(path.with_suffix(".out"))])
    if rejected:
        assert code == EXIT_ERROR
        assert err.getvalue().startswith("idealdec: error: line 2: ")
        assert "Traceback" not in err.getvalue()
    else:
        assert (code, err.getvalue()) == (EXIT_OK, "")


# -- minimal hitting sets -------------------------------------------------------


def _brute_minimal_hitting_sets(supports, nvars):
    hitting = [
        frozenset(c)
        for k in range(nvars + 1)
        for c in combinations(range(nvars), k)
        if all(s & frozenset(c) for s in supports)
    ]
    return {h for h in hitting if not any(g < h for g in hitting)}


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 8).flatmap(lambda n: st.tuples(
    st.just(n),
    st.lists(st.frozensets(st.integers(0, n - 1), min_size=1), max_size=8),
)))
def test_minimal_hitting_sets_match_brute_force(case):
    nvars, supports = case
    got = list(minimal_hitting_sets(supports))
    assert len(got) == len(set(got))  # each set once
    assert set(got) == _brute_minimal_hitting_sets(supports, nvars)
