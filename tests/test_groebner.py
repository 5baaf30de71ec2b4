"""Buchberger: reduced bases, normal forms, localized bases, sympy oracle,
input checks, exact S-polynomial counts, and the packed monomials' field
widths: reading fields back, masking, widening, and refusing degrees past
64-bit fields."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from idealdec import cli
from idealdec.groebner import (
    GroebnerError,
    NotZeroDimensional,
    _packing,
    buchberger,
    is_groebner_basis,
    spolynomial,
)
from idealdec.domains import QQ, PrimeField
from idealdec.orders import (
    DEGREVLEX,
    LEX,
    OrderError,
    block_order,
    degrevlex_order,
    lex_order,
)
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


@pytest.mark.parametrize("n, expected", [(4, 494), (5, 5249)], ids=["P4", "P5"])
def test_path_decomposition_spolynomial_count(monkeypatch, n, expected):
    # every basis of a whole GTZ run: the pair decisions of all its orders
    from idealdec.decompose import gtz_decompose

    I = _path_edge_ideal(n)
    result, count = _count_spolynomials(monkeypatch, lambda: gtz_decompose(I))
    assert result.complete
    assert count == expected


def test_ranking_bases_of_the_3x5_minors_form_no_spolynomial(monkeypatch):
    # the maximal minors are a universal Groebner basis, so their leading
    # monomials under each localized order already have the ideal's
    # Hilbert series, read from the cached degrevlex basis
    from idealdec.hyperedge import HyperedgeSpec, build_hyperedge_ideal
    from idealdec.indepsets import rank_independent_sets

    spec = HyperedgeSpec(name="minors-3x5", rows=3, cols=5, letters=("x", "y", "z"),
                         hyperedges=(tuple(range(1, 6)),))
    I = build_hyperedge_ideal(spec)
    I.groebner()
    ranking, count = _count_spolynomials(monkeypatch, lambda: rank_independent_sets(I))
    assert len(ranking.reports) == 10
    assert count == 0


def test_katsura5_basis_equals_the_sympy_reference():
    # bench/katsura5_grevlex.gens is sympy's reduced degrevlex basis, monic
    from pathlib import Path

    from idealdec.files import read_generators

    path = Path(__file__).resolve().parents[1] / "bench" / "katsura5_grevlex.gens"
    ring, reference, _ = read_generators(str(path))
    G = buchberger([ring.parse(t) for t in KATSURA5], degrevlex_order())
    assert sorted(map(str, G.elements)) == sorted(map(str, reference))


# -- field widths --------------------------------------------------------------


@st.composite
def _packed_exponents(draw):
    """An order on 1-40 variables (lex, degrevlex, or blocks of both kinds),
    a field width, exponents of degree below the width's limit 2^(W-1), and
    a set of variables to keep."""
    n = draw(st.integers(1, 40))
    width = draw(st.sampled_from([8, 16, 32, 64]))
    kind = draw(st.sampled_from(["lex", "degrevlex", "blocks"]))
    if kind == "lex":
        order = lex_order()
    elif kind == "degrevlex":
        order = degrevlex_order()
    else:
        perm = draw(st.permutations(range(n)))
        cuts = sorted(draw(st.sets(st.integers(1, n - 1), max_size=3))) if n > 1 else []
        bounds = [0, *cuts, n]
        order = block_order(
            (tuple(perm[lo:hi]), draw(st.sampled_from([LEX, DEGREVLEX])))
            for lo, hi in zip(bounds, bounds[1:]))
    # the exponents are the gaps between sorted cuts below the limit, so the
    # degree reaches up to the limit less one
    cuts = sorted(draw(st.lists(st.integers(0, (1 << (width - 1)) - 1),
                                min_size=n, max_size=n)))
    exps = draw(st.permutations([hi - lo for lo, hi in zip([0, *cuts], cuts)]))
    keep = draw(st.sets(st.integers(0, n - 1)))
    return order, n, width, tuple(exps), keep


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_packed_exponents())
def test_unpack_reads_back_pack_and_masking_zeroes_the_rest(case):
    order, n, width, exps, keep = case
    packing = _packing(order, n, width)
    packed = packing.pack(exps)
    assert packing.unpack(packed) == exps
    zeroed = tuple(e if i in keep else 0 for i, e in enumerate(exps))
    assert packing.restrict(packed, packing.mask(keep)) == packing.pack(zeroed)
    assert packing.unpack(packing.restrict(packed, packing.mask(keep))) == zeroed


def _basis_and_widths(monkeypatch, names, texts, order):
    """The basis of ``texts`` in Q[names] and the field widths the
    computation ran at."""
    import idealdec.groebner as groebner

    real, widths = groebner._packing, []

    def recorded(order, nvars, width):
        widths.append(width)
        return real(order, nvars, width)

    monkeypatch.setattr(groebner, "_packing", recorded)
    ring = PolyRing(names, QQ)
    G = buchberger([ring.parse(t) for t in texts], order)
    return [str(g) for g in G.elements], widths


# Each lex basis holds a degree past the limit of the fields chosen for its
# inputs, so the run restarts at twice the width.  The bases are golden:
# those computed before the first width was rounded up to whole bytes.
@pytest.mark.parametrize("names, texts, widths, basis", [
    (("x", "y", "z"), ["x - y^63", "x^4 - z"], [8, 16],
     ["y^252 - z", "x - y^63"]),
    (("x", "y", "z"), ["x - y^16383", "x^4 - z"], [16, 32],
     ["y^65532 - z", "x - y^16383"]),
    (("x", "y", "z"), ["x - y^1073741823", "x^4 - z"], [32, 64],
     ["y^4294967292 - z", "x - y^1073741823"]),
    (("x", "y"), ["x^100*y - 1", "y^400 - x"], [16, 32],
     ["y^40001 - 1", "x - y^400"]),
], ids=["8-16", "16-32", "32-64", "x^100*y-1"])
def test_widening_restarts_at_twice_the_width_and_keeps_the_basis(
        monkeypatch, names, texts, widths, basis):
    ours, seen = _basis_and_widths(monkeypatch, names, texts, lex_order())
    assert sorted(set(seen)) == widths
    assert ours == basis


def test_a_tail_that_overflows_when_read_packs_the_basis_wider(monkeypatch):
    # the leading monomials x and z are coprime, so Buchberger forms no pair
    # and runs at 8 bits; reading z - x^3 reduces its tail to y^189, past
    # the 8-bit limit of 127, and the entries are packed again at 16 bits
    ours, seen = _basis_and_widths(monkeypatch, ("z", "x", "y"),
                                   ["x - y^63", "z - x^3"], lex_order())
    assert sorted(set(seen)) == [8, 16]
    assert ours == ["x - y^63", "z - y^189"]


@pytest.mark.parametrize("order, basis", [
    (lex_order(), ["y^403 - 1", "x^100 - y^402"]),
    (degrevlex_order(), ["x^100*y - 1", "-x^300 + y^400", "x^400 - y^399"]),
], ids=["lex", "degrevlex"])
def test_high_degree_inputs_keep_their_bases(monkeypatch, order, basis):
    # degree 40000 takes 32-bit fields from the start
    ours, seen = _basis_and_widths(
        monkeypatch, ("x", "y"), ["x^100*y - 1", "x^40000 - y^3"], order)
    assert set(seen) == {32}
    assert ours == basis


# x^(2^62) - y: the input's degree needs fields past 64 bits; x - y^(2^61)
# and x^4 - z: the basis element y^(2^63) - z overflows the 64-bit fields
_TOO_WIDE = [
    ("x,y,z", [f"x^{2 ** 62} - y"]),
    ("x,y,z", [f"x - y^{2 ** 61}", "x^4 - z"]),
]


@pytest.mark.parametrize("names, texts", _TOO_WIDE, ids=["input", "widened"])
def test_degrees_past_64_bit_fields_are_refused(names, texts):
    for field in (QQ, PrimeField(32003)):
        ring = PolyRing(tuple(names.split(",")), field)
        polys = [ring.parse(t) for t in texts]
        with pytest.raises(GroebnerError, match="64-bit"):
            buchberger(polys, lex_order())


def test_normal_forms_past_64_bit_fields_are_refused():
    ring = PolyRing(("x", "y"), QQ)
    G = buchberger([ring.parse(f"x - y^{2 ** 61}")], lex_order())
    assert G.normal_form(ring.parse("x^3")) == ring.parse(f"y^{3 * 2 ** 61}")
    with pytest.raises(GroebnerError, match="64-bit"):
        G.normal_form(ring.parse("x^4"))


@pytest.mark.parametrize("names, texts", _TOO_WIDE, ids=["input", "widened"])
def test_cli_refuses_degrees_past_64_bit_fields_with_exit_1(capsys, tmp_path,
                                                            names, texts):
    path = tmp_path / "wide.gens"
    path.write_text(f"ring Q[{names}]\n" + "\n".join(texts) + "\n")
    code = cli.main(["groebner", str(path), "--order", "lex"])
    captured = capsys.readouterr()
    assert code == cli.EXIT_ERROR
    assert captured.err.startswith("idealdec: error:") and "64-bit" in captured.err
    assert "Traceback" not in captured.err
