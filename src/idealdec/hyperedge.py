"""Determinantal hyperedge ideals over a symbolic letter-by-index matrix.

The flagship instance is the 3x12 case: a matrix whose rows are the x-, y-
and z-variables indexed 1..12, the ideal generated by the 3x3 minors on the
hyperedges R1..R4 (rows of the index grid) and all 3-subsets of C1..C3 (its
columns), the full 220-minor ideal, and the S3 x S4 x S3 symmetry
subgroup.  The structure verifier for 44-generator data sets is in
``verify``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import combinations, permutations, product
from operator import add
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

# a module, not its names: only symmetry_generators runs it (see __init__)
from . import symmetry
from .domains import QQ
from .ideals import Ideal
from .rings import Polynomial, PolyRing, RingError, summed


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
            if len(set(B)) != len(B):
                raise HyperedgeError(f"hyperedge {B} repeats a column")
        # letters such as x,x or x,x1 with 11 columns name a variable twice
        try:
            self.ring()
        except RingError as ex:
            letters = ",".join(self.letters)
            raise HyperedgeError(f"letters {letters} do not give a ring: {ex}") from None

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


@cache
def _signed_permutations(n: int) -> Tuple[Tuple[Tuple[Tuple[int, int], ...], bool], ...]:
    """Each permutation p of range(n) as its pairs (i, p[i]), with whether
    it is odd, in lex order."""
    out = []
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        out.append((tuple(enumerate(perm)), inversions % 2 == 1))
    return tuple(out)


def minor(
    matrix: Sequence[Sequence[Polynomial]],
    rows: Iterable[int],
    cols: Iterable[int],
) -> Polynomial:
    """The minor with the given 1-based row and column indices, expanded by
    the Leibniz rule (a polynomial of (size)! terms before cancellation).

    Each permutation's product is formed term by term: exponent tuples are
    added, coefficients multiplied (a factor that is the domain's one is
    skipped), and the signed terms are summed by ``rings.summed``."""
    rows = tuple(rows)
    cols = tuple(cols)
    if len(rows) != len(cols):
        raise HyperedgeError("minor needs as many rows as columns")
    if not rows:
        raise HyperedgeError("empty minor")
    sub = [[matrix[i - 1][j - 1] for j in cols] for i in rows]
    ring = sub[0][0].ring
    if any(f.ring is not ring and f.ring != ring for row in sub for f in row):
        raise RingError("polynomials from different rings")
    terms = [[f.terms.items() for f in row] for row in sub]
    one = ring.domain.one
    minus_one = -one

    def signed_terms():
        for pairs, odd in _signed_permutations(len(rows)):
            for factors in product(*[terms[i][j] for i, j in pairs]):
                exps, coeff = factors[0]
                for e, c in factors[1:]:
                    exps = map(add, exps, e)
                    if c is not one:
                        coeff = c if coeff is one else coeff * c
                if odd:
                    coeff = minus_one if coeff is one else -coeff
                yield tuple(exps), coeff

    return summed(ring, signed_terms())


def build_hyperedge_ideal(spec: HyperedgeSpec) -> Ideal:
    """The ideal of the spec's minors, hyperedges in listed order and each
    oversized hyperedge expanded to its subsets in lex order, deduplicated
    up to sign: the first minor on each column set is kept.  The entries
    are distinct variables, so two minors agree up to sign exactly when
    their column sets are equal."""
    ring = spec.ring()
    M = spec.matrix(ring)
    gens: List[Polynomial] = []
    seen = set()
    for B in spec.hyperedges:
        subsets = (
            [tuple(B)]
            if len(B) == spec.rows
            else combinations(sorted(B), spec.rows)
        )
        for cols in subsets:
            key = frozenset(cols)
            if key not in seen:
                seen.add(key)
                gens.append(minor(M, range(1, spec.rows + 1), cols))
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


def _column_action(ring: PolyRing, spec: HyperedgeSpec, mapping: Dict[int, int], label: str) -> symmetry.SymmetryAction:
    image = list(range(ring.nvars))
    for b in range(spec.rows):
        for j, k in mapping.items():
            image[b * spec.cols + (j - 1)] = b * spec.cols + (k - 1)
    return symmetry.SymmetryAction(tuple(image), label)


def _row_swap(ring: PolyRing, spec: HyperedgeSpec, a: int, b: int) -> symmetry.SymmetryAction:
    image = list(range(ring.nvars))
    for j in range(spec.cols):
        image[a * spec.cols + j] = b * spec.cols + j
        image[b * spec.cols + j] = a * spec.cols + j
    label = f"rows:({spec.letters[a]} {spec.letters[b]})"
    return symmetry.SymmetryAction(tuple(image), label)


def maps_generators_to_signed_generators(
    sigma: symmetry.SymmetryAction, gens: Sequence[Polynomial]
) -> bool:
    """Whether sigma sends every generator to another generator up to sign
    (a direct certificate that the ideal is stable under sigma)."""
    pool = set()
    for g in gens:
        pool.add(g)
        pool.add(-g)
    return all(sigma(g) in pool for g in gens)


def symmetry_generators(spec: Optional[HyperedgeSpec] = None) -> List[symmetry.SymmetryAction]:
    """Generators of the S3 x S4 x S3 subgroup: adjacent row swaps, adjacent
    R-block transpositions, adjacent C-block transpositions.  Each action is
    verified to map the spec's minors to signed minors before it is
    returned."""
    spec = spec or paper_3x12()
    if (spec.rows, spec.cols) != (3, 12) or spec.hyperedges != COL_BLOCKS + ROW_BLOCKS:
        raise HyperedgeError("symmetry generators are defined for the 3x12 shape")
    ring = spec.ring()
    actions: List[symmetry.SymmetryAction] = []
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
