"""Determinantal hyperedge ideals and the 44-generator structure verifier."""

from fractions import Fraction

import pytest

from idealdec.hyperedge import (
    HyperedgeError,
    HyperedgeSpec,
    all_maximal_minors_ideal,
    build_hyperedge_ideal,
    maps_generators_to_signed_generators,
    minor,
    paper_3x12,
    paper_ring,
    symmetry_generators,
)
from idealdec.rings import Polynomial
from idealdec.symmetry import SymmetryAction, generate_group
from idealdec.verify import (
    GeneratorCheck,
    admissible_partitions,
    partition_rule_monomials,
    verify_structure,
)

from conftest import build_synthetic_p2_like

G1 = "x1*y4*z7 - x1*y7*z4 - x4*y1*z7 + x4*y7*z1 + x7*y1*z4 - x7*y4*z1"
G16 = (
    "x10*y11*z12 - x10*y12*z11 - x11*y10*z12 + x11*y12*z10"
    " + x12*y10*z11 - x12*y11*z10"
)


def _is_homogeneous(g, degree):
    return all(sum(exps) == degree for exps in g.terms)


# -- the 3x12 hyperedge ideal -------------------------------------------------


def test_paper_3x12_generator_count_and_anchors():
    I = build_hyperedge_ideal(paper_3x12())
    gens = I.generators
    assert len(gens) == 16
    assert str(gens[0]) == G1
    assert str(gens[15]) == G16


def test_paper_3x12_generators_are_homogeneous_sextuples():
    I = build_hyperedge_ideal(paper_3x12())
    for g in I.generators:
        assert g.num_terms() == 6
        assert _is_homogeneous(g, 3)
        assert all(c in (Fraction(1), Fraction(-1)) for c in g.terms.values())


def test_paper_3x12_generators_distinct():
    I = build_hyperedge_ideal(paper_3x12())
    assert len({str(g) for g in I.generators}) == 16


def test_all_maximal_minors_count():
    P1 = all_maximal_minors_ideal()
    assert len(P1.generators) == 220  # C(12, 3)


def test_minor_leibniz_and_sign():
    ring = paper_ring()
    spec = paper_3x12()
    M = spec.matrix(ring)
    m = minor(M, (1, 2, 3), (1, 4, 7))
    assert str(m) == G1
    # swapping two columns flips the sign
    assert minor(M, (1, 2, 3), (4, 1, 7)) == -m
    with pytest.raises(HyperedgeError):
        minor(M, (1, 2), (1, 2, 3))
    with pytest.raises(HyperedgeError):
        minor(M, (), ())


def test_oversized_hyperedge_expands_to_subsets():
    spec = HyperedgeSpec(
        name="tiny", rows=2, cols=4, letters=("a", "b"),
        hyperedges=((1, 2, 3),),
    )
    I = build_hyperedge_ideal(spec)
    assert len(I.generators) == 3  # C(3, 2) column pairs


@pytest.mark.parametrize("cols, letters, hyperedge, message", [
    (3, ("x", "x"), (1, 2), "duplicate variable name 'x1'"),
    (11, ("x", "x1"), (1, 2), "duplicate variable name 'x11'"),
    (3, ("x", "y"), (1, 1), "repeats a column"),
], ids=["letters-x-x", "letters-x-x1-cols-11", "hyperedge-1-1"])
def test_spec_refuses_repeated_entries(cols, letters, hyperedge, message):
    with pytest.raises(HyperedgeError, match=message):
        HyperedgeSpec(name="bad", rows=2, cols=cols, letters=letters,
                      hyperedges=(hyperedge,))


def test_minors_are_deduplicated_up_to_sign():
    spec = HyperedgeSpec(
        name="signs", rows=2, cols=3, letters=("x", "y"),
        hyperedges=((1, 2), (2, 1), (1, 2, 3)),
    )
    gens = build_hyperedge_ideal(spec).generators
    assert [str(g) for g in gens] == [
        "x1*y2 - x2*y1", "x1*y3 - x3*y1", "x2*y3 - x3*y2"]


# -- symmetries ---------------------------------------------------------------


def test_symmetry_generators_stabilize_signed():
    spec = paper_3x12()
    gens = build_hyperedge_ideal(spec).generators
    actions = symmetry_generators(spec)
    assert len(actions) == 7
    labels = [a.label for a in actions]
    assert labels[0] == "rows:(x y)"
    assert "Cblocks:(C1 C2)" in labels
    for a in actions:
        assert maps_generators_to_signed_generators(a, gens), a.label


def test_symmetry_group_order():
    grp = generate_group(symmetry_generators(paper_3x12()))
    assert len(grp) == 864


def test_column_triple_swap_stabilizes():
    spec = paper_3x12()
    ring = spec.ring()
    gens = build_hyperedge_ideal(spec).generators
    # columns (1 4)(2 5)(3 6): swap the first two R-blocks
    cycles = "".join(
        f"({x}{i} {x}{i + 3})" for x in ("x", "y", "z") for i in (1, 2, 3)
    )
    sigma = SymmetryAction.from_cycles(ring, cycles, label="(1 4)(2 5)(3 6)")
    assert maps_generators_to_signed_generators(sigma, gens)


# -- partitions and rule monomials --------------------------------------------


def test_admissible_partitions():
    parts = admissible_partitions()
    assert len(parts) == 28
    assert parts[0] == (0, 6, 6)
    assert parts == sorted(parts)
    assert all(a + b + c == 12 and max(a, b, c) <= 6 for a, b, c in parts)
    assert (1, 5, 6) in parts and (6, 6, 0) in parts


def test_partition_rule_monomials_066():
    ring = paper_ring()
    mons = partition_rule_monomials((0, 6, 6), ring)
    assert len(mons) == 216
    cols = frozenset(range(12))
    y_sets = set()
    for exps in mons:
        assert sum(exps) == 12
        assert all(e == 0 for e in exps[:12])  # no x factors
        y_cols = frozenset(j for j in range(12) if exps[12 + j] == 1)
        z_cols = frozenset(j for j in range(12) if exps[24 + j] == 1)
        assert len(y_cols) == 6 and z_cols == cols - y_cols
        y_sets.add(y_cols)
    # closed under swapping the two letters' column sets
    assert all(cols - s in y_sets for s in y_sets)


def test_partition_rule_monomials_rejects_other_partitions():
    with pytest.raises(HyperedgeError):
        partition_rule_monomials((1, 5, 6))


# -- structure verifier --------------------------------------------------------


def test_verify_structure_passes_on_conforming_data():
    gens = build_synthetic_p2_like()
    report = verify_structure(gens)
    assert report.ok and report.complete
    assert all(c.ok for c in report.checks)
    labels = [c.label for c in report.checks]
    assert labels == [
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
    ]
    assert report.lines()[-1] == "summary pass"


def test_verify_structure_entry_table():
    gens = build_synthetic_p2_like()
    report = verify_structure(gens)
    assert len(report.entries) == 28  # one per tail generator
    by_index = {e.index: e for e in report.entries}
    assert sorted(by_index) == list(range(17, 45))
    assert by_index[17].partition == (0, 6, 6)
    assert by_index[17].num_terms == 216
    assert by_index[19].partition == (1, 5, 6)
    assert by_index[19].num_terms == 252
    assert all(e.coefficients_ok and e.index_coverage for e in report.entries)
    assert dict(report.partition_map)[(0, 6, 6)] == 17
    assert len(report.partition_map) == 28


def test_verify_structure_flags_bad_coefficient():
    gens = build_synthetic_p2_like()
    ring = gens[0].ring
    bad = list(gens)
    g = bad[20]
    terms = dict(g.terms)
    exps = next(iter(terms))
    terms[exps] = Fraction(3)
    bad[20] = Polynomial(ring, terms)
    report = verify_structure(bad)
    assert not report.ok
    failed = {c.label for c in report.checks if not c.ok}
    assert failed == {"coefficients-in-1-2"}


def test_verify_structure_names_missing_partition():
    gens = build_synthetic_p2_like()
    bad = list(gens)
    # duplicate one tail generator over another: some partition vanishes
    bad[43] = bad[42]
    report = verify_structure(bad)
    assert not report.ok
    by_label = {c.label: c for c in report.checks}
    assert not by_label["partition-bijection-28"].ok
    assert "(" in by_label["partition-bijection-28"].detail


def test_verify_structure_flags_truncation():
    gens = build_synthetic_p2_like()
    report = verify_structure(gens[:40])
    assert not report.ok
    by_label = {c.label: c for c in report.checks}
    assert not by_label["count-44"].ok
    assert not report.complete


def test_verify_structure_flags_perturbed_prefix():
    gens = build_synthetic_p2_like()
    ring = gens[0].ring
    bad = list(gens)
    bad[3] = bad[3] + ring.parse("x1*y2*z3")
    report = verify_structure(bad)
    assert not report.ok
    assert any(
        c.label == "prefix-16-equals-ideal" and not c.ok for c in report.checks
    )


def test_generator_check_line_format():
    assert GeneratorCheck("count-44", True).line() == "pass count-44"
    assert (
        GeneratorCheck("count-44", False, "got 40").line()
        == "FAIL count-44 (got 40)"
    )
