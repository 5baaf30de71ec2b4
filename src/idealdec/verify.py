"""The structure verifier for 44-generator data sets shaped like the second
prime component of the 3x12 hyperedge ideal: the letter-partition rule for
its degree-12 generators and the checks of ``verify_structure``.

Only ``idealdec verify`` and callers of these names run this module; the
constructors in ``hyperedge`` do not need it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .hyperedge import (
    GRID,
    HyperedgeError,
    HyperedgeSpec,
    build_hyperedge_ideal,
    paper_3x12,
    paper_ring,
)
from .rings import Polynomial, PolyRing


# ---------------------------------------------------------------------------
# the partition rule


def admissible_partitions() -> List[Tuple[int, int, int]]:
    """All (a, b, c) with a + b + c = 12 and every entry at most 6 (there
    are 28 of them)."""
    out = []
    for a in range(7):
        for b in range(7):
            c = 12 - a - b
            if 0 <= c <= 6:
                out.append((a, b, c))
    return out


def _rule_chosen_sets() -> List[FrozenSet[int]]:
    """The 6-index selections of the grid rule: two columns contribute two
    indices each (distinct row pairs), the other two one index each in
    distinct rows."""
    cols = [tuple(col) for col in zip(*GRID)]  # R-blocks as grid columns
    chosen = set()
    for ai, bi in permutations(range(4), 2):
        rest = [k for k in range(4) if k not in (ai, bi)]
        for rows_a in combinations(range(3), 2):
            for rows_b in combinations(range(3), 2):
                if set(rows_b) == set(rows_a):
                    continue
                for ci, di in (rest, rest[::-1]):
                    for rc in range(3):
                        for rd in range(3):
                            if rd == rc:
                                continue
                            picks = frozenset(
                                {cols[ai][r] for r in rows_a}
                                | {cols[bi][r] for r in rows_b}
                                | {cols[ci][rc], cols[di][rd]}
                            )
                            chosen.add(picks)
    return sorted(chosen, key=sorted)


def partition_rule_monomials(
    partition: Tuple[int, int, int], ring: Optional[PolyRing] = None
) -> FrozenSet[Tuple[int, ...]]:
    """The monomial set (as exponent tuples) for a generator with the given
    letter partition, per the grid selection rule.

    Only the partition (0, 6, 6) and its letter permutations are covered;
    for anything else the rule is unspecified and an error is raised.
    """
    if tuple(sorted(partition)) != (0, 6, 6):
        raise HyperedgeError(
            f"no combinatorial rule is specified for partition {partition}"
        )
    ring = ring or paper_ring()
    letters = [b for b, count in enumerate(partition) if count == 6]
    out = set()
    for picks in _rule_chosen_sets():
        for chosen_letter, rest_letter in (letters, letters[::-1]):
            exps = [0] * ring.nvars
            for j in range(1, 13):
                block = chosen_letter if j in picks else rest_letter
                exps[block * 12 + (j - 1)] = 1
            out.add(tuple(exps))
    return frozenset(out)


# ---------------------------------------------------------------------------
# structure verification


@dataclass(frozen=True)
class GeneratorCheck:
    label: str
    ok: bool
    detail: str = ""

    def line(self) -> str:
        status = "pass" if self.ok else "FAIL"
        return f"{status} {self.label}" + (f" ({self.detail})" if self.detail else "")


@dataclass(frozen=True)
class GeneratorEntry:
    """Per-generator summary: 1-based position, letter partition (None when
    not constant across monomials), term count, and the local flags."""

    index: int
    partition: Optional[Tuple[int, int, int]]
    num_terms: int
    coefficients_ok: bool
    index_coverage: bool


@dataclass(frozen=True)
class GeneratorStructureReport:
    checks: Tuple[GeneratorCheck, ...]
    entries: Tuple[GeneratorEntry, ...]
    partition_map: Tuple[Tuple[Tuple[int, int, int], int], ...]
    complete: bool
    ok: bool

    def lines(self) -> List[str]:
        out = [c.line() for c in self.checks]
        out.append(f"summary {'pass' if self.ok else 'FAIL'}")
        return out


_ALLOWED_COEFFS = {1, -1, 2, -2}


def _letter_partition(exps: Tuple[int, ...], cols: int) -> Tuple[int, ...]:
    counts = []
    for b in range(len(exps) // cols):
        counts.append(sum(exps[b * cols + j] for j in range(cols)))
    return tuple(counts)


def _coeffs_ok(g: Polynomial) -> bool:
    for c in g.terms.values():
        if c.denominator != 1 or int(c) not in _ALLOWED_COEFFS:
            return False
    return True


def _index_coverage(exps: Tuple[int, ...], cols: int, blocks: int) -> bool:
    return all(
        sum(exps[b * cols + j] for b in range(blocks)) == 1 for j in range(cols)
    )


def verify_structure(
    polys: Sequence[Polynomial], spec: Optional[HyperedgeSpec] = None
) -> GeneratorStructureReport:
    """Check a 44-generator data set against the documented structure of
    the second prime component of the 3x12 ideal.

    Checks: 44 polynomials; the first 16 equal the ideal's generators; the
    other 28 are homogeneous of degree 12 with coefficients in {1, -1, 2,
    -2}, one letter per column index per monomial, a constant letter
    partition each, and partitions in bijection with the 28 admissible
    triples; the (0,6,6) generator's support is exactly the grid rule's 216
    monomials; the (1,5,6) generator has 252 terms and maps into the
    (0,6,6) support under x_i -> y_i with cancellation.  Every check is
    reported, pass or fail; nothing aborts early.
    """
    spec = spec or paper_3x12()
    ring = spec.ring()
    cols, blocks = spec.cols, spec.rows
    checks: List[GeneratorCheck] = []
    entries: List[GeneratorEntry] = []

    checks.append(
        GeneratorCheck("count-44", len(polys) == 44, f"got {len(polys)}")
    )
    expected = build_hyperedge_ideal(spec).generators
    head = tuple(polys[:16])
    checks.append(
        GeneratorCheck(
            "prefix-16-equals-ideal",
            head == expected,
            "" if head == expected else "first sixteen differ from the minors",
        )
    )

    tail = list(polys[16:])
    homogeneous = True
    coeffs_all = all(_coeffs_ok(g) for g in polys)
    coverage_all = True
    partition_of: Dict[Tuple[int, int, int], int] = {}
    constant_parts = True
    for pos, g in enumerate(tail, start=17):
        parts = {_letter_partition(e, cols) for e in g.terms}
        degs = {sum(e) for e in g.terms}
        cover = all(_index_coverage(e, cols, blocks) for e in g.terms)
        part = parts.pop() if len(parts) == 1 else None
        entries.append(
            GeneratorEntry(pos, part, g.num_terms(), _coeffs_ok(g), cover)
        )
        if degs != {12}:
            homogeneous = False
        if not cover:
            coverage_all = False
        if part is None:
            constant_parts = False
        elif part not in partition_of:
            partition_of[part] = pos
    checks.append(GeneratorCheck("tail-homogeneous-degree-12", homogeneous))
    checks.append(GeneratorCheck("coefficients-in-1-2", coeffs_all))
    checks.append(GeneratorCheck("one-letter-per-index", coverage_all))
    checks.append(GeneratorCheck("constant-partition-per-generator", constant_parts))

    admissible = set(admissible_partitions())
    missing = sorted(admissible - set(partition_of))
    extra = sorted(set(partition_of) - admissible)
    bijection = (
        len(tail) == 28 and not missing and not extra and len(partition_of) == 28
    )
    detail = ""
    if missing:
        detail = "missing " + ", ".join(str(p) for p in missing)
    if extra:
        detail += ("; " if detail else "") + "inadmissible " + ", ".join(
            str(p) for p in extra
        )
    checks.append(GeneratorCheck("partition-bijection-28", bijection, detail))

    rule = partition_rule_monomials((0, 6, 6), ring)
    g17 = None
    if (0, 6, 6) in partition_of:
        g17 = polys[partition_of[(0, 6, 6)] - 1]
        support = set(g17.terms)
        ok = support == set(rule) and len(support) == 216
        checks.append(
            GeneratorCheck(
                "rule-monomials-066",
                ok,
                f"{len(support)} monomials" if not ok else "216 monomials",
            )
        )
    else:
        checks.append(
            GeneratorCheck("rule-monomials-066", False, "no (0,6,6) generator")
        )

    if (1, 5, 6) in partition_of:
        g19 = polys[partition_of[(1, 5, 6)] - 1]
        checks.append(
            GeneratorCheck(
                "g19-252-terms",
                g19.num_terms() == 252,
                f"got {g19.num_terms()}",
            )
        )
        # x_j -> y_j, the other variables fixed; colliding terms add up
        image = g19.permute_vars(
            [j + cols if j < cols else j for j in range(g19.ring.nvars)]
        )
        mapped_ok = (
            not image.is_zero()
            and set(image.terms) <= set(rule)
            and image.num_terms() < g19.num_terms()
        )
        checks.append(
            GeneratorCheck(
                "g19-maps-into-066-support",
                mapped_ok,
                f"image has {image.num_terms()} terms",
            )
        )
    else:
        checks.append(GeneratorCheck("g19-252-terms", False, "no (1,5,6) generator"))
        checks.append(
            GeneratorCheck("g19-maps-into-066-support", False, "no (1,5,6) generator")
        )

    partition_map = tuple(sorted(partition_of.items()))
    ok = all(c.ok for c in checks)
    return GeneratorStructureReport(
        tuple(checks), tuple(entries), partition_map, bijection, ok
    )

