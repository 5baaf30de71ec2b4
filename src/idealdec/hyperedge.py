"""Determinantal hyperedge ideals over a symbolic letter-by-index matrix.

The flagship instance is the 3x12 case: a matrix whose rows are the x-, y-
and z-variables indexed 1..12, the ideal generated by the 3x3 minors on the
hyperedges R1..R4 (rows of the index grid) and all 3-subsets of C1..C3 (its
columns), the full 220-minor ideal, the S3 x S4 x S3 symmetry subgroup, and
a structural verifier for 44-generator data sets shaped like the second
prime component of that ideal.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations, permutations
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from .domains import QQ
from .ideals import Ideal
from .rings import Polynomial, PolyRing
from .symmetry import SymmetryAction


class HyperedgeError(ValueError):
    pass


ROW_BLOCKS: Tuple[Tuple[int, ...], ...] = ((1, 2, 3), (4, 5, 6), (7, 8, 9), (10, 11, 12))
COL_BLOCKS: Tuple[Tuple[int, ...], ...] = ((1, 4, 7, 10), (2, 5, 8, 11), (3, 6, 9, 12))
#: the index grid whose rows are C1, C2, C3 and whose columns are R1..R4
GRID: Tuple[Tuple[int, ...], ...] = COL_BLOCKS


@dataclass(frozen=True)
class HyperedgeSpec:
    """A determinantal hyperedge ideal description.

    ``letters`` name the rows (one variable family per row), columns are
    indexed 1..cols, and each hyperedge is a column set: exactly ``rows``
    columns mean that single maximal minor, more mean all rows-subsets of
    the set, in subset-lex order."""

    name: str
    rows: int
    cols: int
    letters: Tuple[str, ...]
    hyperedges: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.letters) != self.rows:
            raise HyperedgeError("one letter per row is required")
        for B in self.hyperedges:
            if len(B) < self.rows:
                raise HyperedgeError(f"hyperedge {B} smaller than the row count")
            if not all(1 <= j <= self.cols for j in B):
                raise HyperedgeError(f"hyperedge {B} out of column range")

    def ring(self) -> PolyRing:
        names = [
            f"{letter}{j}" for letter in self.letters for j in range(1, self.cols + 1)
        ]
        return PolyRing(tuple(names), QQ)

    def matrix(self, ring: Optional[PolyRing] = None) -> List[List[Polynomial]]:
        ring = ring or self.ring()
        return [
            [ring.var(f"{letter}{j}") for j in range(1, self.cols + 1)]
            for letter in self.letters
        ]


def paper_3x12() -> HyperedgeSpec:
    """The 3x12 instance: all 3-subsets of the column blocks C1, C2, C3,
    then the rows R1..R4 of the index grid (sixteen minors total)."""
    return HyperedgeSpec(
        name="paper-3x12",
        rows=3,
        cols=12,
        letters=("x", "y", "z"),
        hyperedges=COL_BLOCKS + ROW_BLOCKS,
    )


def paper_ring() -> PolyRing:
    return paper_3x12().ring()


def minor(
    matrix: Sequence[Sequence[Polynomial]],
    rows: Iterable[int],
    cols: Iterable[int],
) -> Polynomial:
    """The minor with the given 1-based row and column indices, expanded by
    the Leibniz rule (a polynomial of (size)! terms before cancellation)."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise HyperedgeError("minor needs as many rows as columns")
    if not rows:
        raise HyperedgeError("empty minor")
    sub = [[matrix[i - 1][j - 1] for j in cols] for i in rows]
    n = len(sub)
    ring = sub[0][0].ring
    total = ring.zero
    for perm in permutations(range(n)):
        sign = 1
        for a in range(n):
            for b in range(a + 1, n):
                if perm[a] > perm[b]:
                    sign = -sign
        term = ring.one
        for i in range(n):
            term = term * sub[i][perm[i]]
        total = total + (term if sign > 0 else -term)
    return total


def build_hyperedge_ideal(spec: HyperedgeSpec) -> Ideal:
    """The ideal of the spec's minors, hyperedges in listed order and each
    oversized hyperedge expanded to its subsets in lex order, deduplicated."""
    ring = spec.ring()
    M = spec.matrix(ring)
    gens: List[Polynomial] = []
    seen = set()
    for B in spec.hyperedges:
        subsets = (
            [tuple(B)]
            if len(B) == spec.rows
            else [c for c in combinations(sorted(B), spec.rows)]
        )
        for cols in subsets:
            g = minor(M, range(1, spec.rows + 1), cols)
            if g not in seen:
                seen.add(g)
                gens.append(g)
    return Ideal(ring, gens)


def all_maximal_minors_ideal(spec: Optional[HyperedgeSpec] = None) -> Ideal:
    """The ideal of all maximal minors (220 of them in the 3x12 case),
    column triples in lex order."""
    spec = spec or paper_3x12()
    ring = spec.ring()
    M = spec.matrix(ring)
    gens = [
        minor(M, range(1, spec.rows + 1), cols)
        for cols in combinations(range(1, spec.cols + 1), spec.rows)
    ]
    return Ideal(ring, gens)


# ---------------------------------------------------------------------------
# symmetry


def _column_action(ring: PolyRing, spec: HyperedgeSpec, mapping: Dict[int, int], label: str) -> SymmetryAction:
    image = list(range(ring.nvars))
    for b in range(spec.rows):
        for j, k in mapping.items():
            image[b * spec.cols + (j - 1)] = b * spec.cols + (k - 1)
    return SymmetryAction(tuple(image), label)


def _row_swap(ring: PolyRing, spec: HyperedgeSpec, a: int, b: int) -> SymmetryAction:
    image = list(range(ring.nvars))
    for j in range(spec.cols):
        image[a * spec.cols + j] = b * spec.cols + j
        image[b * spec.cols + j] = a * spec.cols + j
    label = f"rows:({spec.letters[a]} {spec.letters[b]})"
    return SymmetryAction(tuple(image), label)


def maps_generators_to_signed_generators(
    sigma: SymmetryAction, gens: Sequence[Polynomial]
) -> bool:
    """Whether sigma sends every generator to another generator up to sign
    (a direct certificate that the ideal is stable under sigma)."""
    pool = set()
    for g in gens:
        pool.add(g)
        pool.add(-g)
    return all(sigma(g) in pool for g in gens)


def symmetry_generators(spec: Optional[HyperedgeSpec] = None) -> List[SymmetryAction]:
    """Generators of the S3 x S4 x S3 subgroup: adjacent row swaps, adjacent
    R-block transpositions, adjacent C-block transpositions.  Each action is
    verified to map the spec's minors to signed minors before it is
    returned."""
    spec = spec or paper_3x12()
    if (spec.rows, spec.cols) != (3, 12) or spec.hyperedges != COL_BLOCKS + ROW_BLOCKS:
        raise HyperedgeError("symmetry generators are defined for the 3x12 shape")
    ring = spec.ring()
    actions: List[SymmetryAction] = []
    for a in range(spec.rows - 1):
        actions.append(_row_swap(ring, spec, a, a + 1))
    for blocks, tag in ((ROW_BLOCKS, "R"), (COL_BLOCKS, "C")):
        for i in range(len(blocks) - 1):
            mapping: Dict[int, int] = {}
            for j, k in zip(blocks[i], blocks[i + 1]):
                mapping[j] = k
                mapping[k] = j
            label = f"{tag}blocks:({tag}{i + 1} {tag}{i + 2})"
            actions.append(_column_action(ring, spec, mapping, label))
    gens = build_hyperedge_ideal(spec).generators
    for sigma in actions:
        if not maps_generators_to_signed_generators(sigma, gens):
            raise HyperedgeError(f"action {sigma.label} does not stabilize the ideal")
    return actions


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

