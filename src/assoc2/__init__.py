"""Exact combinatorics engine for associahedra and 2-associahedra.

Enumerates the face posets of K_r and W_n, verifies that the completed
2-associahedra are Eulerian, cross-validates all face counts against a
generating-function oracle and a concatenation recurrence, and computes flag
f-vectors and cd-indices of the verified posets.
"""

from .poset import (CdPolynomial, EulerianReport, FlagVector, NonEulerianError,
                    PosetError, RankedPoset, ab_index, cd_index, fiber_product,
                    flag_f_vector, flag_h_vector, reduced_product)
from .series import (LaurentPoly, TruncatedSeries, check_f_closed_form, coefficient,
                     eval_t_minus1, geometric_inverse, solve_F, solve_f)
from .trees import (Bracketing, Tree, all_bracketings, bracketing_to_tree, concat,
                    corolla, count_K, dim_tree, enumerate_Kr, parse_tree,
                    root_decompose, tree_to_bracketing, tree_to_text)
from .twoassoc import (SearchSpaceError, TwoBracket, TwoBracketing, VerificationError,
                       count_W, dim_2concat, enumerate_Wn, face_two_bracketings,
                       forgetful_map, removables, restrict_to_bracket, top_element,
                       top_rank, validate_two_bracketing)
from .audit import (AuditReport, audit_counts, audit_desk, audit_eulerian,
                    audit_identities)

__version__ = "0.1.0"

__all__ = [
    "AuditReport", "Bracketing", "CdPolynomial", "EulerianReport", "FlagVector",
    "LaurentPoly", "NonEulerianError", "PosetError", "RankedPoset",
    "SearchSpaceError", "Tree", "TruncatedSeries", "TwoBracket", "TwoBracketing",
    "VerificationError",
    "ab_index", "all_bracketings", "audit_counts", "audit_desk", "audit_eulerian",
    "audit_identities", "bracketing_to_tree", "cd_index", "check_f_closed_form",
    "coefficient", "concat", "corolla", "count_K", "count_W", "dim_2concat",
    "dim_tree", "enumerate_Kr", "enumerate_Wn", "eval_t_minus1", "face_two_bracketings",
    "fiber_product", "flag_f_vector", "flag_h_vector", "forgetful_map", "geometric_inverse",
    "parse_tree", "reduced_product", "removables", "restrict_to_bracket",
    "root_decompose", "solve_F", "solve_f", "top_element", "top_rank",
    "tree_to_bracketing", "tree_to_text", "validate_two_bracketing",
]
