"""Property tests of the Groebner core against sympy.

Random ideals of 2-3 polynomials in Q[x,y,z] and GF(7)[x,y,z]: the reduced
basis under lex and degrevlex must equal sympy's made monic, and normal
forms must equal the remainder of ``sympy.reduced``.  In the explicit
normal-form examples a term cancels during reduction and is created again
before it is popped, which is the path of the reducer's lazy deletion.

Under random two-block orders, and for localized bases, the check is
internal: ``is_groebner_basis`` reduces every S-polynomial with no pair
pruned, and a localized basis must be drawn from the reduced basis under
its block order, with leading coefficients read from its packed entries
that equal those projected from its elements.

Tall coefficients load the fraction-free reducer: over Q numerators and
denominators above 2^64, so every basis and input has denominators to
clear and reduction scales the work by large factors; over GF(32003)
residues of full range, which grow unreduced until they are popped.

The packed monomials of the kernel agree with their tuple definitions:
on up to 80 variables, under lex, degrevlex and three-block orders, with
degrees up to the field limit, packing round-trips, and divisibility, lcm,
coprimality, degree, product and comparison are those of the exponent
tuples; an lcm past the limit raises.  In a 72-variable ring whose
generators use variables above bit 63 the basis is still a Groebner basis
(unpruned check), reduces its inputs to zero, and equals the one computed
in three variables.  A lex basis whose degree outgrows the first field
width equals sympy's, and the run at the widened width forms exactly the
S-polynomials of a run that started wide.

Against random bases sorted by leading monomial, the reducer's bounded
scan returns the remainder and scale of a full scan in basis order, the
reference kept here.

Over Q and GF(32003), the packed saturation exponent equals the loop it
replaced, normal forms multiplied by h as polynomials, kept here, and
``contains_ideal`` agrees with normal forms.  Elements read one at a time,
in any order, are those of the reduced basis, and reading one leaves the
other entries as Buchberger left them.
"""

from fractions import Fraction
from math import gcd
from operator import add, itemgetter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealdec.domains import QQ, PrimeField
import idealdec.groebner as groebner
from idealdec.groebner import (
    _divides,
    _Overflow,
    _packing,
    buchberger,
    is_groebner_basis,
)
from idealdec.ideals import Ideal, eliminate, saturate, saturation_exponent
from idealdec.orders import block_order, degrevlex_order, lex_order
from idealdec.rings import PolyRing

sympy = pytest.importorskip("sympy")

X, Y, Z = sympy.symbols("x y z")
ORDERS = {"lex": lex_order(), "grevlex": degrevlex_order()}
FIELDS = {None: QQ, 7: PrimeField(7), 32003: PrimeField(32003)}

_coeffs = st.integers(-3, 3).filter(bool)


def _terms(max_degree, max_terms, coeffs=_coeffs):
    monomials = [(a, b, c) for a in range(max_degree + 1)
                 for b in range(max_degree + 1 - a)
                 for c in range(max_degree + 1 - a - b)]
    return st.dictionaries(st.sampled_from(monomials), coeffs,
                           min_size=1, max_size=max_terms)


_gens = st.lists(_terms(2, 4), min_size=2, max_size=3)
_target = _terms(4, 5)
_order = st.sampled_from(sorted(ORDERS))
_modulus = st.sampled_from([None, 7])
_settings = settings(max_examples=80, deadline=None, derandomize=True,
                     database=None)

# lex, Q: y^3*z^2 cancels and comes back twice while -x^2*z - x*y - x
# reduces against the basis of <x*y - 3*x - y^2, -3*x^2 - z>
_Q_RECREATE = (
    [{(1, 1, 0): 1, (1, 0, 0): -3, (0, 2, 0): -1},
     {(2, 0, 0): -3, (0, 0, 1): -1}],
    {(2, 0, 1): -1, (1, 1, 0): -1, (1, 0, 0): -1},
)
# lex, GF(7): z cancels and comes back while x^2*y + 6*y*z + 2*z reduces
# against the basis of <2*x*y + 2*x + 4*y + z, 3*x^2 + 6*x*z + 2*y^2 + y>
_GF7_RECREATE = (
    [{(1, 1, 0): 2, (1, 0, 0): 2, (0, 1, 0): 4, (0, 0, 1): 1},
     {(2, 0, 0): 3, (1, 0, 1): 6, (0, 2, 0): 2, (0, 1, 0): 1}],
    {(2, 1, 0): 1, (0, 1, 1): 6, (0, 0, 1): 2},
)


def _ring(modulus):
    return PolyRing(("x", "y", "z"), FIELDS[modulus])


def _to_sympy(terms):
    return sum((sympy.Rational(c) * X**a * Y**b * Z**e
                for (a, b, e), c in terms.items()), sympy.S.Zero)


def _from_sympy(ring, expr):
    """sympy prints GF(p) coefficients in symmetric form; coerce maps them
    back into [0, p)."""
    if expr == 0:
        return ring.zero
    return ring.poly({
        tuple(int(e) for e in exps): Fraction(int(c.p), int(c.q))
        for exps, c in sympy.Poly(expr, X, Y, Z).terms()
    })


def _monic(f, order):
    lc, _ = f.leading_data(order)
    return f * (f.ring.domain.one / lc)


def _sympy_options(order_name, modulus):
    options = {"order": order_name}
    if modulus is not None:
        options["modulus"] = modulus
    return options


@_settings
@given(gens=_gens, order_name=_order, modulus=_modulus)
@example(gens=_Q_RECREATE[0], order_name="lex", modulus=None)
@example(gens=_GF7_RECREATE[0], order_name="lex", modulus=7)
def test_reduced_basis_matches_sympy(gens, order_name, modulus):
    ring = _ring(modulus)
    order = ORDERS[order_name]
    G = buchberger([ring.poly(t) for t in gens], order)
    ref = sympy.groebner([_to_sympy(t) for t in gens], X, Y, Z,
                         **_sympy_options(order_name, modulus))
    theirs = [_monic(_from_sympy(ring, e), order) for e in ref.exprs]
    assert sorted(map(str, G.elements)) == sorted(map(str, theirs))


@_settings
@given(gens=_gens, target=_target, order_name=_order, modulus=_modulus)
@example(gens=_Q_RECREATE[0], target=_Q_RECREATE[1], order_name="lex",
         modulus=None)
@example(gens=_GF7_RECREATE[0], target=_GF7_RECREATE[1], order_name="lex",
         modulus=7)
def test_normal_form_matches_sympy_remainder(gens, target, order_name, modulus):
    ring = _ring(modulus)
    order = ORDERS[order_name]
    G = buchberger([ring.poly(t) for t in gens], order)
    options = _sympy_options(order_name, modulus)
    ref = sympy.groebner([_to_sympy(t) for t in gens], X, Y, Z, **options)
    _, remainder = sympy.reduced(_to_sympy(target), list(ref.exprs), X, Y, Z,
                                 **options)
    assert G.normal_form(ring.poly(target)) == _from_sympy(ring, remainder)


# a two-block order: a nonempty proper subset of the variables in front,
# each block lex or degrevlex
_blocks = st.tuples(
    st.permutations(range(3)), st.integers(1, 2),
    st.sampled_from(["lex", "degrevlex"]), st.sampled_from(["lex", "degrevlex"]),
)


def _two_blocks(blocks):
    perm, cut, front_kind, back_kind = blocks
    return block_order([(tuple(sorted(perm[:cut])), front_kind),
                        (tuple(sorted(perm[cut:])), back_kind)])


@_settings
@given(gens=_gens, blocks=_blocks, modulus=_modulus)
def test_block_order_basis_passes_unpruned_check(gens, blocks, modulus):
    ring = _ring(modulus)
    order = _two_blocks(blocks)
    G = buchberger([ring.poly(t) for t in gens], order)
    assert is_groebner_basis(G.elements, order)


@_settings
@given(gens=_gens, order_name=_order, modulus=_modulus,
       u=st.sets(st.integers(0, 2), min_size=1, max_size=2))
def test_localized_basis_is_drawn_from_the_block_basis(gens, order_name,
                                                       modulus, u):
    ring = _ring(modulus)
    polys = [ring.poly(t) for t in gens]
    L = buchberger(polys, ORDERS[order_name], localized_vars=u)
    full = buchberger(polys, L.computation_order)
    assert is_groebner_basis(full.elements, L.computation_order)
    assert set(L.elements) <= set(full.elements)
    # the packed leading coefficients are the elements' terms whose rest
    # exponents equal the leading monomial's, projected onto u
    rest = [i for i in range(3) if i not in u]

    def coefficient(g, lead):
        return ring.poly({tuple(e[i] if i in u else 0 for i in range(3)): c
                          for e, c in g.terms.items()
                          if all(e[i] == lead[i] for i in rest)})

    assert L.leading_coefficients() == tuple(map(coefficient, L.elements, L.lead_exps()))


# numerators in (2^64, 2^80], denominators products of the primes 2^89 - 1
# and 2^107 - 1: every fraction is in lowest terms as drawn
_MERSENNE = (2**89 - 1, 2**107 - 1)
_tall_rationals = st.builds(
    lambda n, negative, d: Fraction(-n if negative else n, d),
    st.integers(2**64 + 1, 2**80), st.booleans(),
    st.sampled_from([*_MERSENNE, _MERSENNE[0] * _MERSENNE[1]]),
)


def _tall_case(modulus):
    coeffs = _tall_rationals if modulus is None else st.integers(1, modulus - 1)
    return st.tuples(st.just(modulus),
                     st.lists(_terms(2, 4, coeffs), min_size=2, max_size=3),
                     _terms(3, 5, coeffs))


def _sympy_expr(f):
    """A polynomial of the ring as a sympy expression."""
    return _to_sympy({e: getattr(c, "value", c) for e, c in f.terms.items()})


@_settings
@given(case=st.sampled_from([None, 32003]).flatmap(_tall_case),
       order_name=_order)
def test_tall_coefficients_match_sympy(case, order_name):
    modulus, gens, target = case
    ring = _ring(modulus)
    order = ORDERS[order_name]
    G = buchberger([ring.poly(t) for t in gens], order)
    options = _sympy_options(order_name, modulus)
    ref = sympy.groebner([_sympy_expr(ring.poly(t)) for t in gens], X, Y, Z,
                         **options)
    theirs = [_monic(_from_sympy(ring, e), order) for e in ref.exprs]
    assert sorted(map(str, G.elements)) == sorted(map(str, theirs))

    f = ring.poly(target)
    nf = G.normal_form(f)
    _, remainder = sympy.reduced(_sympy_expr(f), list(ref.exprs), X, Y, Z,
                                 **options)
    assert nf == _from_sympy(ring, remainder)
    assert ref.contains(_sympy_expr(f - nf))


# packed monomials: up to 80 variables, at most 12 of them in a monomial,
# degree below the field limit 2^(W-1)
@st.composite
def _packed_case(draw):
    n = draw(st.integers(1, 80))
    width = draw(st.sampled_from([8, 16, 32, 64]))
    limit = 1 << (width - 1)
    kind = draw(st.sampled_from(["lex", "degrevlex", "blocks"]))
    if kind == "lex":
        order = lex_order()
    elif kind == "degrevlex":
        order = degrevlex_order()
    else:
        perm = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=2))) \
            if n > 1 else []
        bounds = [0, *cuts, n]
        order = block_order(
            (tuple(perm[lo:hi]), draw(st.sampled_from(["lex", "degrevlex"])))
            for lo, hi in zip(bounds, bounds[1:]))

    def monomial():
        # the exponents are the gaps between sorted cuts below the limit
        support = draw(st.lists(st.integers(0, n - 1), max_size=12, unique=True))
        cuts = sorted(draw(st.lists(st.integers(0, limit - 1),
                                    min_size=len(support), max_size=len(support))))
        e = [0] * n
        for i, lo, hi in zip(support, [0, *cuts], cuts):
            e[i] = hi - lo
        return tuple(e)

    return order, n, width, monomial(), monomial(), monomial()


@_settings
@given(case=_packed_case())
def test_packed_monomials_match_tuple_definitions(case):
    order, n, width, a, b, d = case
    packing = _packing(order, n, width)
    pack, guards, limit = packing.pack, packing.guards, 1 << (width - 1)
    ca, cb, cd = pack(a), pack(b), pack(d)
    assert packing.unpack(ca) == a
    assert ca & packing.field == sum(a)
    assert (ca < cb) == (order.key(a) < order.key(b))
    assert (ca == cb) == (a == b)
    assert (not (cb - ca) & guards) == _divides(a, b)
    product = tuple(map(add, a, d))
    if sum(product) < limit:
        assert ca + cd == pack(product)
        assert not (ca + cd - ca) & guards
    common = tuple(map(max, a, b))
    if sum(common) < limit:
        m = packing.lcm(ca, cb)
        assert packing.from_m(m) == pack(common)
        # coprime exactly when the lcm's degree is the sum of the degrees
        assert (m & packing.field == sum(a) + sum(b)) == (not any(map(min, a, b)))
    else:
        with pytest.raises(_Overflow):
            packing.lcm(ca, cb)


def _full_scan_reduce(work, basis, packing, p):
    """What ``_reduce`` computes, by its definition: the greatest term
    first, the first divisor in basis order with every entry scanned, the
    work scaled by a / gcd(a, c) for a reducer with leading coefficient a."""
    guards = packing.guards
    remainder, scale = {}, 1
    while work:
        e = max(work)
        c = work.pop(e)
        if p:
            c %= p
        if not c:
            continue
        for lead, a, tail in basis:
            if (e - lead) & guards:
                continue
            g = gcd(a, c)
            m, c = a // g, c // g
            scale *= m
            work = {t: v * m for t, v in work.items()}
            remainder = {t: v * m for t, v in remainder.items()}
            for t, v in tail:
                t += e - lead
                work[t] = work.get(t, 0) - c * v
            break
        else:
            remainder[e] = c
    return remainder, scale


@_settings
@given(basis=st.lists(_terms(2, 4), min_size=1, max_size=4), target=_terms(4, 6),
       order=st.one_of(_order.map(ORDERS.get), _blocks.map(_two_blocks)),
       modulus=st.sampled_from([None, 7, 32003]))
def test_bounded_reduce_matches_a_full_scan(basis, target, order, modulus):
    # any nonzero polynomials, by ascending leading monomial, duplicates and
    # leading monomials that divide one another included; 16-bit fields
    # hold every degree a lex reduction reaches from these
    ring = _ring(modulus)
    packing = _packing(order, 3, 16)
    entries = sorted((groebner._poly_entry(ring.poly(t), packing) for t in basis),
                     key=itemgetter(0))
    leads = [entry[0] for entry in entries]
    work, _ = groebner._packed_terms(ring.poly(target), packing)
    expected = _full_scan_reduce(dict(work), entries, packing, modulus)
    assert groebner._reduce(dict(work), entries, packing, modulus, leads) == expected
    assert groebner._reduce(dict(work), entries, packing, modulus) == expected


# three of 72 variables, one of index below 64 and two above, in increasing
# order, so a basis in them equals the one in Q[x,y,z] or GF(7)[x,y,z]
_WIDE = 72
_wide_vars = st.tuples(
    st.integers(0, 63), st.integers(64, _WIDE - 1), st.integers(64, _WIDE - 1),
).filter(lambda v: v[1] != v[2]).map(sorted)


@_settings
@given(gens=_gens, positions=_wide_vars, order_name=_order, modulus=_modulus)
def test_wide_ring_bases_use_variables_above_63(gens, positions, order_name,
                                                modulus):
    wide = PolyRing(tuple(f"v{i}" for i in range(_WIDE)), FIELDS[modulus])

    def embed(terms):
        out = {}
        for exps, c in terms.items():
            e = [0] * _WIDE
            for i, x in zip(positions, exps):
                e[i] = x
            out[tuple(e)] = c
        return out

    order = ORDERS[order_name]
    polys = [wide.poly(embed(t)) for t in gens]
    G = buchberger(polys, order)
    assert is_groebner_basis(G.elements, order)
    assert all(G.normal_form(f).is_zero() for f in polys)
    small = buchberger([_ring(modulus).poly(t) for t in gens], order)
    assert sorted(map(str, G.elements)) == sorted(
        str(wide.poly(embed({e: getattr(c, "value", c)
                             for e, c in g.terms.items()})))
        for g in small.elements)


# x^60*y - 1 and y^20 - x: the lex basis holds y^1201 - 1, whose degree
# outgrows the 8-bit fields chosen for the inputs' degree 61
_XY = sympy.symbols("x y")


def _widening_run(monkeypatch, ring, wide):
    """The lex basis of the two generators and the widths of the
    S-polynomials formed, starting at 64 bits when ``wide``."""
    if wide:
        monkeypatch.setattr(groebner, "_width", lambda monomials: 64)
    real = groebner.spolynomial
    widths = []

    def counted(f, g, packing=None, m=None):
        widths.append(packing.width)
        return real(f, g, packing, m)

    monkeypatch.setattr(groebner, "spolynomial", counted)
    G = buchberger([ring.parse("x^60*y - 1"), ring.parse("y^20 - x")], lex_order())
    monkeypatch.undo()
    return G, widths


@pytest.mark.parametrize("modulus", [None, 32003])
def test_width_restart_matches_sympy_and_a_wide_run(monkeypatch, modulus):
    ring = PolyRing(("x", "y"), FIELDS[modulus])
    G, widths = _widening_run(monkeypatch, ring, wide=False)
    wide, wide_widths = _widening_run(monkeypatch, ring, wide=True)
    assert widths[0] < 12 <= widths[-1]  # 1201 needs 11 bits and a guard
    assert widths.count(widths[-1]) == len(wide_widths)
    assert G.elements == wide.elements
    x, y = _XY
    options = {"modulus": modulus} if modulus else {}
    ref = sympy.groebner([x**60 * y - 1, y**20 - x], x, y, order="lex",
                         **options)
    assert sorted(map(str, G.elements)) == sorted(
        str(ring.parse(str(e.as_expr()).replace("**", "^"))) for e in ref.exprs)
    assert "y^1201" in str(G.elements[0]) + str(G.elements[-1])


# monomial generators: the reduced basis is the minimal generators, made
# monic, under every order and over every field, and no S-polynomial is
# formed.  Each case holds a duplicate of its first monomial and a multiple
# of it, with coefficients other than 1.
_MONOMIALS = [(a, b, c) for a in range(4) for b in range(4 - a)
              for c in range(4 - a - b)]
_monomial_case = st.tuples(
    st.lists(st.tuples(st.sampled_from(_MONOMIALS), st.integers(-5, 5).filter(bool)),
             min_size=1, max_size=5),
    st.integers(-5, 5).filter(bool),
    st.tuples(*[st.integers(0, 1)] * 3),
)
_monomial_order = st.one_of(
    st.sampled_from(sorted(ORDERS)).map(lambda name: (name, None)),
    st.sets(st.integers(0, 2), min_size=1, max_size=2).map(
        lambda u: ("grevlex", frozenset(u))),
    _blocks.map(lambda b: (b, None)),
)


def _minimal_monomials(exps):
    exps = set(exps)
    return {e for e in exps
            if not any(d != e and _divides(d, e) for d in exps)}


@_settings
@given(case=_monomial_case, how=_monomial_order,
       modulus=st.sampled_from([None, 32003]))
def test_monomial_generators_give_the_minimal_generators(case, how, modulus):
    terms, c, bump = case
    first, _ = terms[0]
    multiple = tuple(map(add, first, bump))
    terms = terms + [(first, c), (multiple, c + 7)]
    ring = _ring(modulus)
    polys = [ring.poly({e: k}) for e, k in terms]
    spec, loc = how
    order = _two_blocks(spec) if isinstance(spec, tuple) else ORDERS[spec]

    def no_spolynomial(*args):
        raise AssertionError("an S-polynomial of monomials was formed")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(groebner, "spolynomial", no_spolynomial)
        G = buchberger(polys, order, localized_vars=loc)
    minimal = {str(ring.monomial(e)) for e in _minimal_monomials(e for e, _ in terms)}
    got = [str(g) for g in G.elements]
    if loc is None:
        assert sorted(got) == sorted(minimal)
        assert is_groebner_basis(G.elements, order)
        if isinstance(spec, str):
            ref = sympy.groebner([_to_sympy({e: k}) for e, k in terms], X, Y, Z,
                                 **_sympy_options(spec, modulus))
            theirs = [_monic(_from_sympy(ring, e), order) for e in ref.exprs]
            assert sorted(got) == sorted(map(str, theirs))
        return
    # localized: drawn from the minimal generators, with restricted leading
    # monomials that divide one another nowhere and divide every other one
    assert set(got) <= minimal
    rest = [i for i in range(3) if i not in loc]

    def restricted(e):
        return tuple(e[i] for i in rest)

    kept = [restricted(e) for e in G.lead_exps()]
    assert not any(_divides(a, b) for i, a in enumerate(kept)
                   for j, b in enumerate(kept) if i != j)
    assert all(any(_divides(k, restricted(e)) for k in kept) for e, _ in terms)


@_settings
@given(gens=_gens, elim=st.sets(st.integers(0, 2), min_size=1, max_size=2),
       modulus=_modulus)
def test_eliminate_picks_by_leading_monomial_what_support_picks(gens, elim,
                                                                modulus):
    """In an elimination order, an element whose leading monomial is free of
    the eliminated variables is free of them: eliminate's pick by leading
    monomial equals the pick by support."""
    ring = _ring(modulus)
    I = Ideal(ring, [ring.poly(t) for t in gens])
    rest = tuple(i for i in range(3) if i not in elim)
    order = block_order([(tuple(sorted(elim)), "degrevlex")]
                        + ([(rest, "degrevlex")] if rest else []))
    G = buchberger(I.generators, order)
    by_support = [g for g in G.elements if not g.support() & elim]
    assert list(eliminate(I, elim).generators) == by_support


# -- packed membership and lazy interreduction ----------------------------------


def _reference_exponent(G, h, polys):
    """The least m with h^m f in the ideal for every f of ``polys``, by
    normal forms multiplied by h as polynomials: the loop the packed
    exponent replaced."""
    remainders = list(polys)
    m = 0
    while True:
        remainders = [r for r in map(G.normal_form, remainders) if not r.is_zero()]
        if not remainders:
            return m
        remainders = [h * r for r in remainders]
        m += 1


_gf = st.sampled_from([None, 32003])


@_settings
@given(gens=_gens, h=_terms(2, 3), multipliers=st.lists(_terms(1, 2), max_size=3),
       stray=st.one_of(st.none(), _terms(2, 3)), modulus=_gf)
def test_packed_exponent_and_containment_match_normal_forms(gens, h, multipliers,
                                                            stray, modulus):
    ring = _ring(modulus)
    I = Ideal(ring, [ring.poly(t) for t in gens])
    h = ring.poly(h)
    G = I.groebner()
    S = saturate(I, h).ideal
    assert saturation_exponent(I, h, S) == _reference_exponent(G, h, S.generators)
    # multiples of I's generators, and maybe one polynomial outside I
    polys = [ring.poly(t) * g for t, g in zip(multipliers, I.generators)]
    if stray is not None:
        polys.append(ring.poly(stray))
    J = Ideal(ring, polys)
    assert I.contains_ideal(J) == all(G.normal_form(g).is_zero() for g in J.generators)


# lex, Q: reading the third element tail-reduces its entry
_TAIL_REDUCED = [{(2, 0, 0): -1, (0, 0, 1): -3},
                 {(1, 0, 1): -2, (2, 0, 0): -3, (1, 0, 0): 1, (1, 1, 0): -3}]


@_settings
@given(gens=_gens, order_name=_order, modulus=_gf, data=st.data())
@example(gens=_TAIL_REDUCED, order_name="lex", modulus=None, data=None)
def test_elements_read_in_any_order_are_the_reduced_basis(gens, order_name, modulus,
                                                          data):
    ring = _ring(modulus)
    polys = [ring.poly(t) for t in gens]
    order = ORDERS[order_name]
    fresh = buchberger(polys, order).elements
    G = buchberger(polys, order)
    n = len(G)
    if data is None:  # the explicit example
        first, rest = 2, [1, 0, 3]
    else:
        first = data.draw(st.integers(0, n - 1))
        rest = data.draw(st.permutations([k for k in range(n) if k != first]))
    left = list(G._entries)
    assert G.element(first) == fresh[first]
    # the other entries are still as Buchberger left them
    assert [e for k, e in enumerate(G._entries) if k != first] == [
        e for k, e in enumerate(left) if k != first]
    assert {k: G.element(k) for k in rest} == {k: fresh[k] for k in rest}
    assert G.elements == fresh
