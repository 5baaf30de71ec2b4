"""idealdec: exact primary decomposition for determinantal hyperedge ideals.

Sparse multivariate polynomials over Q and GF(p), Groebner bases (plain and
localized at an independent set of variables), ideal arithmetic, GTZ-style
primary decomposition with certified zero-dimensional maximality tests, a
symmetry-pruned primality check, and constructors plus a structure verifier
for the 3x12 hyperedge family.

``import idealdec`` runs no submodule.  Each one is registered in
``sys.modules`` with ``importlib.util.LazyLoader`` and runs on first use,
and the names below resolve through the module ``__getattr__`` (PEP 562)
from one table, so a Groebner run never runs the decomposition stack.
"""

import importlib.util
import sys

# submodule -> the names re-exported from it; __all__ is built from this
_EXPORTS = {
    "domains": "DomainError ModInt PrimeField QQ Rationals is_prime",
    "orders": "MonomialOrder OrderError block_order degrevlex_order lex_order "
              "order_from_string",
    "rings": "ParseError Polynomial PolyRing RingError format_poly "
             "format_ring_header parse_ring_header",
    "polygcd": "ExactDivisionError exact_divide normalize_assoc poly_gcd "
               "poly_gcd_many poly_lcm poly_lcm_many primitive_in "
               "squarefree_decomposition_in",
    "groebner": "GroebnerBasis GroebnerError NotZeroDimensional buchberger "
                "is_groebner_basis spolynomial",
    "ideals": "Ideal IdealError chained_saturation contract contract_with_trail "
              "dimension eliminate ideal_sum intersect quotient saturate "
              "saturation_coefficients sort_saturation_coefficients",
    "indepsets": "IndepSetRanking IndepSetReport is_independent "
                 "maximal_independent_sets rank_independent_sets "
                 "score_independent_set",
    "factorize": "FactorOutcome FactorPart factor_rational_univariate "
                 "is_irreducible_over_q split_minimal_polynomial",
    "symmetry": "SymmetryAction SymmetryError UnionFind generate_group",
    "decompose": "MAXIMAL NOT_MAXIMAL NOT_PRIME PRIME UNKNOWN DecompositionError "
                 "DecompositionIncomplete DecompositionResult MaximalityResult "
                 "PrimalityVerdict PrimaryComponent Provenance apply_automorphism "
                 "coefficient_orbits gtz_decompose is_maximal_zero_dim "
                 "minimal_polynomial primality_check stabilizes zero_dim_decompose",
    "hyperedge": "HyperedgeError HyperedgeSpec all_maximal_minors_ideal "
                 "build_hyperedge_ideal minor paper_3x12 paper_ring "
                 "symmetry_generators",
    "verify": "GeneratorStructureReport admissible_partitions "
              "partition_rule_monomials verify_structure",
    "files": "FileFormatError read_generators write_generators",
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_SOURCE, "__version__"]


def _register(name: str):
    """The submodule ``name`` in sys.modules, its body not yet run."""
    spec = importlib.util.find_spec(f"{__name__}.{name}")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


globals().update((name, _register(name)) for name in (*_EXPORTS, "cli"))


def __getattr__(name: str):
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(globals()[_SOURCE[name]], name)
    return value


def __dir__():
    return sorted({*globals(), *_SOURCE})
