"""Independent sets: hitting-set enumeration, scoring, ranking."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from idealdec import decompose, indepsets
from idealdec.hyperedge import HyperedgeSpec, build_hyperedge_ideal
from idealdec.ideals import Ideal, dimension
from idealdec.indepsets import (
    IndepSetReport,
    _splits_off_a_variable,
    best_independent_set,
    is_independent,
    maximal_independent_sets,
    minimal_hitting_sets,
    minimal_supports,
    rank_independent_sets,
    score_independent_set,
)
from idealdec.rings import PolyRing


def _ideal(ring, *texts):
    return Ideal.parse(ring, texts)


def test_minimal_supports_prunes_supersets():
    got = minimal_supports([(1, 1, 0), (1, 1, 1), (0, 0, 2)])
    assert sorted(sorted(s) for s in got) == [[0, 1], [2]]


def test_hitting_sets():
    supports = [frozenset({0, 1}), frozenset({2})]
    hitters = sorted(sorted(h) for h in minimal_hitting_sets(supports))
    assert hitters == [[0, 2], [1, 2]]
    assert min(map(len, hitters)) == 2


def test_maximal_independent_sets_of_3x9_minors():
    # the initial complex of the maximal minors is pure: C(9, 2) facets
    spec = HyperedgeSpec(name="minors-3x9", rows=3, cols=9,
                         letters=("x", "y", "z"),
                         hyperedges=(tuple(range(1, 10)),))
    sets = maximal_independent_sets(build_hyperedge_ideal(spec).groebner())
    assert len(sets) == 36
    assert {len(u) for u in sets} == {20}


def test_maximal_independent_sets_of_monomial_ideal(rxyz):
    I = _ideal(rxyz, "x*y", "x*z")
    G = I.groebner()
    sets = maximal_independent_sets(G)
    as_names = [
        ",".join(rxyz.names[i] for i in sorted(u)) for u in sets
    ]
    # largest first, ties by index order
    assert as_names == ["y,z", "x"]
    assert all(is_independent(u, G) for u in sets)
    assert not is_independent([0, 1], G)


def test_independent_set_cardinality_matches_dimension(rxyz):
    I = _ideal(rxyz, "x*y", "x*z")
    sets = maximal_independent_sets(I.groebner())
    assert max(len(u) for u in sets) == dimension(I)


def test_limit_caps_enumeration(rxyz):
    I = _ideal(rxyz, "x*y*z")
    sets = maximal_independent_sets(I.groebner(), limit=2)
    assert len(sets) == 2


def test_trivial_ideal_has_no_independent_sets(rxy):
    I = _ideal(rxy, "x", "x + 1")
    assert maximal_independent_sets(I.groebner()) == []


def test_score_report_line(rxy):
    I = _ideal(rxy, "x*y")
    report = score_independent_set(I, [1])
    assert report.line() == "u=y d_u=1 lcdeg=1 lcterms=1"
    assert report.u_names == ("y",)
    assert report.per_element == ((1, 1),)


def test_rank_sorts_cheapest_first(rxyz):
    I = _ideal(rxyz, "x^2*y - z")  # dim 2
    ranking = rank_independent_sets(I)
    assert len(ranking.reports) >= 2
    keys = [r.sort_key() for r in ranking.reports]
    assert keys == sorted(keys)
    assert ranking.best() == ranking.reports[0]


def _dominates(a: IndepSetReport, b: IndepSetReport) -> bool:
    """Component-wise dominance on (d, lc_degree, lc_terms)."""
    av = (a.d, a.lc_degree, a.lc_terms)
    bv = (b.d, b.lc_degree, b.lc_terms)
    return all(x <= y for x, y in zip(av, bv)) and av != bv


def test_ranking_refines_dominance(rxyz):
    I = _ideal(rxyz, "x*y", "x*z")
    ranking = rank_independent_sets(I)
    for a in ranking.reports:
        for b in ranking.reports:
            if _dominates(a, b):
                assert a.sort_key() < b.sort_key()


def test_rank_respects_budget(rxyz, monkeypatch):
    I = _ideal(rxyz, "x*y*z")
    scored = []
    real = indepsets.score_independent_set

    def counted(I, u):
        scored.append(tuple(u))
        return real(I, u)

    monkeypatch.setattr(indepsets, "score_independent_set", counted)
    full = best_independent_set(I)
    assert len(scored) == 3
    scored.clear()
    capped = best_independent_set(I, budget=1)
    assert scored == [capped]
    assert full == (0, 1)  # the sets tie; the names break it


def test_report_lines_are_deterministic(rxyz):
    I1 = _ideal(rxyz, "x*y", "x*z")
    I2 = _ideal(rxyz, "x*y", "x*z")
    assert rank_independent_sets(I1).lines() == rank_independent_sets(I2).lines()


def _counting_scores(monkeypatch):
    scored = []
    real = indepsets.score_independent_set

    def counted(I, u):
        scored.append(tuple(u))
        return real(I, u)

    monkeypatch.setattr(indepsets, "score_independent_set", counted)
    return scored


def _full_ranking_best(I, dim):
    candidates = [tuple(sorted(u)) for u in maximal_independent_sets(I.groebner())
                  if len(u) == dim]
    return rank_independent_sets(I, candidates).best().u


_RXYZ = PolyRing(("x", "y", "z"))
_MONOMIALS = ["1", "x", "y", "z", "x^2", "x*y", "x*z", "y^2", "y*z", "z^2",
              "x^3", "x^2*y", "x*y*z", "y^3", "y^2*z", "z^3"]
_polys = st.lists(
    st.tuples(st.integers(-3, 3).filter(bool), st.sampled_from(_MONOMIALS)),
    min_size=1, max_size=3,
).map(lambda terms: sum((c * _RXYZ.parse(m) for c, m in terms), _RXYZ.zero))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(gens=st.lists(_polys, min_size=1, max_size=3))
@example(gens=[_RXYZ.parse("x^2"), _RXYZ.parse("x*y")])
# u = x,z scores (3, 0, 1) and u = y,z (2, 1, 1)
@example(gens=[_RXYZ.parse("x^2*y + y^3")])
@example(gens=[_RXYZ.parse("x*y - x*z")])
@example(gens=[_RXYZ.parse("x^2 - 1"), _RXYZ.parse("y"), _RXYZ.parse("z")])
def test_best_independent_set_equals_the_full_ranking(gens):
    I = Ideal(_RXYZ, gens)
    if I.groebner().is_trivial():
        return
    dim = dimension(I)
    if dim == 0:
        assert best_independent_set(I) == ()
    else:
        assert best_independent_set(I) == _full_ranking_best(I, dim)


def test_a_candidate_with_constant_coefficients_does_not_stop_the_scan(monkeypatch):
    # lcdeg 0 lies below the floor's 1, but d = 3 puts the key above it
    I = Ideal.parse(_RXYZ, ["x^2*y + y^3"])
    assert _splits_off_a_variable(I.groebner())
    scored = _counting_scores(monkeypatch)
    assert best_independent_set(I) == (1, 2)
    assert scored == [(0, 2), (1, 2)]
    assert [score_independent_set(I, u).line() for u in scored] == [
        "u=x,z d_u=3 lcdeg=0 lcterms=1", "u=y,z d_u=2 lcdeg=1 lcterms=1",
    ]


def test_the_floor_certificate(rxyz, rxyzw, monkeypatch):
    # x*(y - z) is a variable times a polynomial: not prime, floor (1, 1, 1),
    # which the first candidate by name, u = x,z, reaches
    I = _ideal(rxyz, "x*y - x*z")
    assert _splits_off_a_variable(I.groebner())
    scored = _counting_scores(monkeypatch)
    assert best_independent_set(I) == (0, 2)
    assert scored == [(0, 2)]
    assert _full_ranking_best(I, 2) == (0, 2)
    # the prime x*y - z*w gives no certificate: floor (1, 0, 1), never reached
    P = _ideal(rxyzw, "x*y - z*w")
    assert not _splits_off_a_variable(P.groebner())
    scored.clear()
    best = best_independent_set(P)
    assert scored == [(0, 2, 3), (1, 2, 3)]  # every candidate
    assert best == _full_ranking_best(P, 3)
    # a variable in the basis is no certificate: <x, y*z - w> is prime
    assert not _splits_off_a_variable(_ideal(rxyzw, "x", "y*z - w").groebner())


def test_a_tie_at_the_floor_goes_to_the_first_set_by_name(monkeypatch):
    # in Q[y,x] the index order and the name order disagree
    ring = PolyRing(("y", "x"))
    I = _ideal(ring, "x*y")
    scored = _counting_scores(monkeypatch)
    assert best_independent_set(I) == (1,)  # u = x
    assert scored == [(1,)]
    assert _full_ranking_best(I, 1) == (1,)


def test_gtz_on_the_six_cycle_scores_nine_sets(monkeypatch):
    ring = PolyRing(tuple(f"x{i}" for i in range(1, 7)))
    I = Ideal.parse(ring, [f"x{i}*x{i % 6 + 1}" for i in range(1, 7)])
    scored = _counting_scores(monkeypatch)
    # the GTZ loop itself: gtz_decompose reads a monomial ideal from its
    # polarization and ranks nothing
    decompose._gtz(I, 0, None)
    assert len(scored) == 9  # the full ranking scored 31
