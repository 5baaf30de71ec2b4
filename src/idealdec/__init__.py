"""idealdec: exact primary decomposition for determinantal hyperedge ideals.

Sparse multivariate polynomials over Q and GF(p), Groebner bases (plain and
localized at an independent set of variables), ideal arithmetic, GTZ-style
primary decomposition with certified zero-dimensional maximality tests, a
symmetry-pruned primality check, and constructors plus a structure verifier
for the 3x12 hyperedge family.
"""

from .domains import DomainError, ModInt, PrimeField, QQ, Rationals, is_prime
from .orders import (
    MonomialOrder,
    OrderError,
    block_order,
    degrevlex_order,
    lex_order,
    order_from_string,
)
from .rings import (
    ParseError,
    Polynomial,
    PolyRing,
    RingError,
    format_poly,
    format_ring_header,
    parse_ring_header,
)
from .polygcd import (
    ExactDivisionError,
    content_wrt,
    divides,
    exact_divide,
    normalize_assoc,
    poly_gcd,
    poly_gcd_many,
    poly_lcm,
    poly_lcm_many,
    primitive_in,
    primitive_part_wrt,
    squarefree_decomposition_in,
)
from .groebner import (
    GroebnerBasis,
    GroebnerError,
    NotZeroDimensional,
    buchberger,
    is_groebner_basis,
    spolynomial,
)
from .ideals import (
    Ideal,
    IdealError,
    chained_saturation,
    contract,
    contract_with_trail,
    dimension,
    eliminate,
    ideal_sum,
    intersect,
    quotient,
    saturate,
    saturation_coefficients,
    sort_saturation_coefficients,
)
from .indepsets import (
    IndepSetRanking,
    IndepSetReport,
    is_independent,
    maximal_independent_sets,
    rank_independent_sets,
    score_independent_set,
)
from .factorize import (
    FactorOutcome,
    FactorPart,
    factor_rational_univariate,
    is_irreducible_over_q,
    split_minimal_polynomial,
)
from .symmetry import SymmetryAction, SymmetryError, UnionFind, generate_group
from .decompose import (
    MAXIMAL,
    NOT_MAXIMAL,
    NOT_PRIME,
    PRIME,
    UNKNOWN,
    DecompositionError,
    DecompositionIncomplete,
    DecompositionResult,
    MaximalityResult,
    PrimalityVerdict,
    PrimaryComponent,
    Provenance,
    apply_automorphism,
    coefficient_orbits,
    gtz_decompose,
    is_maximal_zero_dim,
    minimal_polynomial,
    primality_check,
    stabilizes,
    zero_dim_decompose,
)
from .hyperedge import (
    GeneratorStructureReport,
    HyperedgeError,
    HyperedgeSpec,
    admissible_partitions,
    all_maximal_minors_ideal,
    build_hyperedge_ideal,
    minor,
    paper_3x12,
    paper_ring,
    partition_rule_monomials,
    symmetry_generators,
    verify_structure,
)
from .files import (
    FileFormatError,
    read_generators,
    read_ideal,
    write_generators,
)

__version__ = "0.1.0"

__all__ = [
    "DomainError", "ModInt", "PrimeField", "QQ", "Rationals", "is_prime",
    "MonomialOrder", "OrderError", "block_order", "degrevlex_order",
    "lex_order", "order_from_string",
    "ParseError", "Polynomial", "PolyRing", "RingError",
    "format_poly", "format_ring_header", "parse_ring_header",
    "ExactDivisionError", "content_wrt", "divides", "exact_divide",
    "normalize_assoc", "poly_gcd", "poly_gcd_many", "poly_lcm",
    "poly_lcm_many", "primitive_in", "primitive_part_wrt",
    "squarefree_decomposition_in",
    "GroebnerBasis", "GroebnerError", "NotZeroDimensional", "buchberger",
    "is_groebner_basis", "spolynomial",
    "Ideal", "IdealError", "chained_saturation", "contract",
    "contract_with_trail", "dimension", "eliminate", "ideal_sum",
    "intersect", "quotient", "saturate", "saturation_coefficients",
    "sort_saturation_coefficients",
    "IndepSetRanking", "IndepSetReport", "is_independent",
    "maximal_independent_sets", "rank_independent_sets",
    "score_independent_set",
    "FactorOutcome", "FactorPart", "factor_rational_univariate",
    "is_irreducible_over_q", "split_minimal_polynomial",
    "SymmetryAction", "SymmetryError", "UnionFind", "generate_group",
    "MAXIMAL", "NOT_MAXIMAL", "NOT_PRIME", "PRIME", "UNKNOWN",
    "DecompositionError", "DecompositionIncomplete", "DecompositionResult",
    "MaximalityResult", "PrimalityVerdict", "PrimaryComponent", "Provenance",
    "apply_automorphism", "coefficient_orbits", "gtz_decompose",
    "is_maximal_zero_dim", "minimal_polynomial", "primality_check",
    "stabilizes", "zero_dim_decompose",
    "GeneratorStructureReport", "HyperedgeError", "HyperedgeSpec",
    "admissible_partitions", "all_maximal_minors_ideal",
    "build_hyperedge_ideal", "minor", "paper_3x12", "paper_ring",
    "partition_rule_monomials", "symmetry_generators", "verify_structure",
    "FileFormatError", "read_generators", "read_ideal", "write_generators",
    "__version__",
]
