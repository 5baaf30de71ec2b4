"""Acceptance gate: one test per shipping criterion.

Run ``pytest -v tests/test_acceptance.py`` for a pass/fail line per
criterion.  Criterion 3 is in the slow suite (still on by default);
criterion 10 is a stretch check excluded by default, opt in with
``pytest -m stretch``.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from idealdec.decompose import (
    NOT_PRIME,
    PRIME,
    apply_automorphism,
    gtz_decompose,
    primality_check,
    stabilizes,
)
from idealdec.domains import QQ
from idealdec.files import read_generators
from idealdec.groebner import buchberger
from idealdec.hyperedge import (
    all_maximal_minors_ideal,
    build_hyperedge_ideal,
    maps_generators_to_signed_generators,
    paper_3x12,
    symmetry_generators,
)
from idealdec.ideals import Ideal, dimension, intersect, quotient, saturate
from idealdec.indepsets import maximal_independent_sets, rank_independent_sets
from idealdec.orders import degrevlex_order
from idealdec.polygcd import normalize_assoc
from idealdec.rings import PolyRing
from idealdec.symmetry import SymmetryAction, generate_group
from idealdec.verify import partition_rule_monomials, verify_structure

from conftest import build_synthetic_p2_like

DATA = Path(__file__).parent / "data"

# hand-verified minimal decompositions: (variables, generators, associated
# primes).  Associated primes are unique, unlike embedded primaries, so the
# oracle compares those and the reassembled intersection.
DECOMPOSITION_CORPUS = [
    (("x",), ("x^2 - 1",), [("x - 1",), ("x + 1",)]),
    (("x",), ("x^3",), [("x",)]),
    (("x", "y"), ("x*y",), [("x",), ("y",)]),
    (("x", "y"), ("x^2", "x*y"), [("x",), ("x", "y")]),
    (("x", "y"), ("x^2*y^3",), [("x",), ("y",)]),
    (("x", "y"), ("x^2", "y^2"), [("x", "y")]),
    (("x", "y"), ("x^2 - y^2",), [("x - y",), ("x + y",)]),
    (
        ("x", "y"),
        ("x^2 - 2", "y^2 - 2"),
        [("x - y", "y^2 - 2"), ("x + y", "y^2 - 2")],
    ),
    (("x", "y"), ("x^2 - x", "x*y"), [("x",), ("x - 1", "y")]),
    (("x", "y"), ("x^2", "x*y", "y^2"), [("x", "y")]),
    (("x", "y", "z"), ("x*y", "x*z"), [("x",), ("y", "z")]),
    (
        ("x", "y", "z"),
        ("x*y", "y*z", "z*x"),
        [("x", "y"), ("y", "z"), ("x", "z")],
    ),
    (("x", "y", "z"), ("y - x^2", "z - x^3"), [("y - x^2", "z - x^3")]),
    (("x", "y", "z", "w"), ("x*y - z*w",), [("x*y - z*w",)]),
]

KNOWN_PRIMES = [
    (("x", "y", "z"), ("y - x^2", "z - x^3")),
    (("x", "y", "z", "w"), ("x*y - z*w",)),
    (("x", "y"), ("y^2 - x^3",)),
    (("x", "y"), ("x^2 + 1",)),
    (("x", "y"), ("x^2 + y^2 + 1",)),
    (("x", "y"), ("x", "y")),
]

KNOWN_NON_PRIMES = [
    (("x", "y"), ("x*y",)),
    (("x", "y"), ("x^2",)),
    (("x", "y", "z"), ("x*y", "x*z")),
    (("x", "y"), ("x^2 - y^2",)),
    (("x", "y"), ("x^2 - 1", "y")),
]

SATURATION_CORPUS = [
    (("x", "y"), ("x^2*y",), "x"),
    (("x", "y"), ("x^2*y",), "y"),
    (("x", "y", "z"), ("x*y", "x*z"), "x"),
    (("x", "y"), ("x^2", "x*y"), "x"),
    (("x", "y"), ("x^2 - y^2",), "x - y"),
    (("x", "y"), ("x^3*y^2",), "x*y"),
    (("x", "y", "z"), ("x*y", "y*z", "z*x"), "z"),
    (("x",), ("x^2 - 1",), "x - 1"),
    (("x", "y", "z"), ("y - x^2", "z - x^3"), "z"),
    (("x", "y", "z", "w"), ("x*y - z*w",), "w"),
]


def _parse(names, gens):
    return Ideal.parse(PolyRing(names, QQ), gens)


def test_criterion_01_builtin_construction(capsys):
    from idealdec.cli import EXIT_OK, main

    golden = (DATA / "paper_3x12.gens").read_text()
    t0 = time.perf_counter()
    code = main(["build", "paper-3x12"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out == golden  # token-for-token against the frozen listing
    ring, gens, _ = read_generators(DATA / "paper_3x12.gens")
    assert len(gens) == 16
    for g in gens:
        assert g.num_terms() == 6
        assert all(sum(e) == 3 for e in g.terms)
        assert set(g.terms.values()) == {Fraction(1), Fraction(-1)}
    assert elapsed < 1.0, f"build took {elapsed:.3f}s"


def test_criterion_02_symmetry_group():
    t0 = time.perf_counter()
    spec = paper_3x12()
    ring = spec.ring()
    gens = build_hyperedge_ideal(spec).generators
    actions = symmetry_generators(spec)
    for action in actions:
        assert maps_generators_to_signed_generators(action, gens), action.label
    group = generate_group(actions)
    assert len(group) == 864
    cycles = "".join(
        f"({letter}{i} {letter}{i + 3})"
        for letter in ("x", "y", "z")
        for i in (1, 2, 3)
    )
    sigma = SymmetryAction.from_cycles(ring, cycles, label="(1 4)(2 5)(3 6)")
    assert maps_generators_to_signed_generators(sigma, gens)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"symmetry checks took {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_03_p1_facts():
    t0 = time.perf_counter()
    P1 = all_maximal_minors_ideal()
    assert len(P1.generators) == 220
    order = degrevlex_order()
    # completing Buchberger verifies the basis: it returns the input minors
    # unchanged exactly when they are already the reduced basis
    gb = buchberger(P1.generators, order)
    assert len(gb.elements) == 220
    normalized_minors = {normalize_assoc(g) for g in P1.generators}
    assert {normalize_assoc(g) for g in gb.elements} == normalized_minors
    I = build_hyperedge_ideal(paper_3x12())
    for g in I.generators:
        assert gb.normal_form(g).is_zero()
    assert dimension(P1) == 26
    elapsed = time.perf_counter() - t0
    assert elapsed < 3600.0, f"P1 facts took {elapsed:.1f}s"


@pytest.mark.slow
def test_criterion_03_p1_is_prime():
    # P1 is prime (Hochster-Eagon): the localization at the first ranked
    # independent set is a field, and every leading coefficient is stable
    verdict = primality_check(all_maximal_minors_ideal(), budget=1)
    assert verdict.status == PRIME
    assert "certificate=dimension-1" in verdict.details
    stability = [d for d in verdict.details if d.startswith("c=")]
    assert stability and all(d.endswith("stable=yes") for d in stability)


def test_criterion_04_structure_verification():
    t0 = time.perf_counter()
    gens = build_synthetic_p2_like()
    report = verify_structure(gens)
    assert report.complete and report.ok
    by_label = {c.label: c for c in report.checks}
    for label in (
        "count-44",
        "prefix-16-equals-ideal",
        "tail-homogeneous-degree-12",
        "coefficients-in-1-2",
        "one-letter-per-index",
        "constant-partition-per-generator",
        "partition-bijection-28",
        "rule-monomials-066",
        "g19-252-terms",
        "g19-maps-into-066-support",
    ):
        assert by_label[label].ok, label
    entries = {e.index: e for e in report.entries}
    assert entries[17].num_terms == 216
    assert len(partition_rule_monomials((0, 6, 6))) == 216
    assert entries[19].num_terms == 252
    published = DATA / "p2_published.gens"
    if published.exists():
        ring, pub, _ = read_generators(published)
        pub_report = verify_structure(pub)
        assert pub_report.ok, [c.line() for c in pub_report.checks if not c.ok]
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"structure verification took {elapsed:.1f}s"


def test_criterion_05_decomposition_oracle_suite():
    t0 = time.perf_counter()
    assert len(DECOMPOSITION_CORPUS) >= 12
    for names, gens, primes in DECOMPOSITION_CORPUS:
        ring = PolyRing(names, QQ)
        I = Ideal.parse(ring, gens)
        result = gtz_decompose(I)
        assert result.complete, gens
        assert all(c.certified for c in result.components), gens
        oracle = [Ideal.parse(ring, p) for p in primes]
        got = [c.prime for c in result.components]
        assert len(got) == len(oracle), gens
        used = set()
        for P in got:
            hit = next(
                (
                    k
                    for k, O in enumerate(oracle)
                    if k not in used and P.equals(O)
                ),
                None,
            )
            assert hit is not None, (gens, str(P))
            used.add(hit)
        total = None
        for comp in result.components:
            total = (
                comp.primary
                if total is None
                else intersect(total, comp.primary)
            )
        assert total.equals(I), gens
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"oracle suite took {elapsed:.1f}s"


def test_criterion_06_algorithm_one_soundness():
    t0 = time.perf_counter()
    assert len(KNOWN_PRIMES) >= 5 and len(KNOWN_NON_PRIMES) >= 5
    false_primes = []
    for names, gens in KNOWN_PRIMES:
        verdict = primality_check(_parse(names, gens))
        assert verdict.status == PRIME, (gens, verdict.status)
    for names, gens in KNOWN_NON_PRIMES:
        I = _parse(names, gens)
        verdict = primality_check(I)
        if verdict.status == PRIME:
            false_primes.append(gens)
            continue
        assert verdict.status == NOT_PRIME, (gens, verdict.status)
        w = verdict.witness
        assert w is not None, gens
        # a witness must be a genuine zero divisor outside the ideal
        assert not I.contains(w), gens
        assert not quotient(I, w).equals(I), gens
    assert not false_primes
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"primality corpus took {elapsed:.1f}s"


def test_criterion_07_saturation_commutes_with_symmetry():
    t0 = time.perf_counter()
    ring = PolyRing(("x", "y", "z"), QQ)
    names = ring.names
    rng = random.Random(2024)

    def random_poly():
        terms = {}
        for _ in range(rng.randint(2, 3)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            if sum(exps) == 0:
                exps = (1, 0, 0)
            terms[exps] = terms.get(exps, 0) + rng.choice((-2, -1, 1, 2))
        poly = ring.poly({e: c for e, c in terms.items() if c})
        return poly if not poly.is_zero() else ring.parse("x")

    triples = pruned_pairs = 0
    for trial in range(100):
        a, b = rng.sample(range(3), 2)
        sigma = SymmetryAction.from_cycles(ring, f"({names[a]} {names[b]})")
        f = random_poly()
        P = Ideal(ring, [f, sigma(f)])
        assert stabilizes(sigma, P)
        c = random_poly()
        if c.is_constant():
            c = c * ring.parse("x")
        lhs = apply_automorphism(sigma, saturate(P, c).ideal)
        rhs = saturate(apply_automorphism(sigma, P), sigma(c)).ideal
        assert lhs.equals(rhs), (trial, str(f), str(c))
        triples += 1
        if trial % 10 == 0:
            pruned = primality_check(P, symmetries=[sigma], seed=trial)
            plain = primality_check(P, seed=trial)
            assert pruned.status == plain.status, (trial, str(f))
            pruned_pairs += 1
    assert triples >= 100 and pruned_pairs >= 10
    elapsed = time.perf_counter() - t0
    assert elapsed < 120.0, f"symmetry identity suite took {elapsed:.1f}s"


def test_criterion_08_ranking_dominance_and_determinism():
    def dominated(p, q):
        return all(x <= y for x, y in zip(p, q)) and p != q

    rng = random.Random(77)
    pairs = 0
    for trial in range(250):
        nvars = 5 if trial % 2 else 6
        ring = PolyRing(tuple("abcdef"[:nvars]), QQ)
        gens = []
        for _ in range(rng.randint(2, 5)):
            chosen = rng.sample(range(nvars), rng.randint(2, 3))
            exps = [0] * nvars
            for v in chosen:
                exps[v] = 1
            gens.append(ring.monomial(tuple(exps)))
        ranking = rank_independent_sets(Ideal(ring, gens))
        triples = [(r.d, r.lc_degree, r.lc_terms) for r in ranking.reports]
        for i in range(len(triples)):
            for j in range(i + 1, len(triples)):
                pairs += 1
                # a later entry never dominates an earlier one
                assert not dominated(triples[j], triples[i]), (trial, i, j)
        again = rank_independent_sets(Ideal(ring, list(gens)))
        assert again.lines() == ranking.lines()
    assert pairs >= 1000, f"only {pairs} comparable pairs"


def test_criterion_08_cli_enumeration_reproducible(capsys, tmp_path):
    from idealdec.cli import main

    path = tmp_path / "m.gens"
    path.write_text("ring Q[a,b,c,d]\na*b\nb*c\nc*d\n")
    main(["indepsets", str(path), "--score"])
    first = capsys.readouterr().out
    main(["indepsets", str(path), "--score"])
    second = capsys.readouterr().out
    assert first == second


def test_criterion_09_saturation_strategy_agreement():
    t0 = time.perf_counter()
    for names, gens, h_text in SATURATION_CORPUS:
        ring = PolyRing(names, QQ)
        I = Ideal.parse(ring, gens)
        h = ring.parse(h_text)
        got = saturate(I, h)
        # reference: repeated I : h until stable, counting the steps
        reference, steps = I, 0
        while True:
            nxt = quotient(reference, h)
            if nxt.equals(reference):
                break
            reference, steps = nxt, steps + 1
        assert got.ideal.equals(reference), (gens, h_text)
        m = got.exponent
        assert m == steps, (gens, h_text, m, steps)
        lhs = quotient(I, h**m) if m else I
        rhs = quotient(I, h ** (m + 1))
        assert lhs.equals(rhs), (gens, h_text, m)
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0, f"strategy agreement took {elapsed:.1f}s"


@pytest.mark.stretch
def test_criterion_10_stretch_degrevlex_basis_of_hyperedge_ideal():
    I = build_hyperedge_ideal(paper_3x12())
    gb = I.groebner()
    assert gb.elements  # the computation completes
    sets = maximal_independent_sets(gb)
    u1 = frozenset(range(24)) | {24, 25}  # x1..x12, y1..y12, z1, z2
    assert u1 in sets
    assert max(len(u) for u in sets) == 26
