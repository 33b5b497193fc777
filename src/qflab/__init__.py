"""Exact representation numbers of positive definite integral quadratic
forms: lattice-point counting, Watson-type transforms, eta quotients and
the strong square-regularity property."""

from .arith import (factorize, h_factor, kronecker,
                    local_density_good, square_split, valuation)
from .cache import cache_theta, make_cache, resolve_cache_dir
from .forms import QuadForm, congruence_sublattice, parse_form
from .lattices import (GENUS_PAIRS, CLASSIFICATION_TABLE, GenusPair, ClassificationEntry,
                       all_bundled_forms, classification_passing)
from .qseries import (EtaQuotient, LEVEL120_QUOTIENTS, QSeries, cusp_orders,
                      divisor_character_sum, eta_expansion,
                      eta_quotient_expansion, quotient_coefficient,
                      newman_check, sturm_bound, unary_theta_identities)
from .reduction import canonical_form, is_isometric, minkowski_reduce
from .regularity import (RegularityReport, check_indistinguishable,
                         hecke_square_recursion_check, is_strongly_s_regular,
                         m_s, genus_pair_identity_check,
                         theta_difference_vs_quotients)
from .search import SearchConfig, search_diagonal
from .theta import RepQuery, represent_count, short_vectors, theta_coeffs
from .transforms import (JordanSymbolOdd, gamma_sublattices,
                         jordan_symbol_odd, lambda_composite,
                         lambda_transform, watson_sublattice)
from .verify import run_lemma54, run_props, run_table1

__version__ = "0.1.0"

__all__ = [
    "EtaQuotient", "GENUS_PAIRS",
    "GenusPair", "JordanSymbolOdd", "LEVEL120_QUOTIENTS", "QSeries",
    "QuadForm", "RegularityReport", "RepQuery", "SearchConfig",
    "CLASSIFICATION_TABLE", "ClassificationEntry",
    "all_bundled_forms", "cache_theta", "canonical_form",
    "check_indistinguishable", "congruence_sublattice", "cusp_orders",
    "divisor_character_sum", "eta_expansion", "eta_quotient_expansion",
    "factorize", "gamma_sublattices", "h_factor",
    "hecke_square_recursion_check", "is_isometric",
    "is_strongly_s_regular", "jordan_symbol_odd", "kronecker",
    "lambda_composite", "lambda_transform", "quotient_coefficient",
    "local_density_good", "m_s", "make_cache", "minkowski_reduce",
    "newman_check", "parse_form", "genus_pair_identity_check",
    "represent_count", "resolve_cache_dir", "run_lemma54", "run_props",
    "run_table1", "search_diagonal", "short_vectors",
    "square_split", "sturm_bound", "classification_passing",
    "theta_coeffs", "theta_difference_vs_quotients",
    "unary_theta_identities", "valuation", "watson_sublattice",
]
