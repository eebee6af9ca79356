"""Exact combinatorial invariants of log surface germs.

Resolution dual graphs, discrepancy solving, Hirzebruch-Jung strings,
germ taxonomy, adjunction differents, restriction degree bookkeeping,
and standard-coefficient checks, all in exact rational arithmetic.
"""

from .dualgraph import (BoundaryBranch, LcClass, ResolutionGraph,
                        boundary_coefficients, cartier_index,
                        is_contractible, log_canonical_class)
from .errors import (BadParameters, GermError, GlueMismatch, LimitExceeded,
                     NotApplicable, ParseError, ValidationError)
from .germs import (ClassGroup, CyclicQuotientGerm, GermClass, GermTag,
                    NonNormalGerm, Trichotomy, check_slc_glue,
                    classify_lc_germ, classify_nonnormal, different_coeff,
                    hj_expand, resolution_graph)
from .rational import format_rat, parse_rat
from .residue import (ResidueReport, find_failure_m, glued_restriction_coeff,
                      multibranch_deficit, single_branch_report)
from .stdcoeff import CoeffCheck, coeff_check

__version__ = "0.1.0"

__all__ = [
    "BadParameters", "BoundaryBranch", "ClassGroup", "CoeffCheck",
    "CyclicQuotientGerm", "GermClass", "GermError", "GermTag",
    "GlueMismatch", "LcClass", "LimitExceeded",
    "NonNormalGerm", "NotApplicable", "ParseError",
    "ResidueReport", "ResolutionGraph", "Trichotomy",
    "ValidationError", "boundary_coefficients",
    "cartier_index", "check_slc_glue", "classify_lc_germ",
    "classify_nonnormal", "coeff_check", "different_coeff",
    "find_failure_m", "format_rat",
    "glued_restriction_coeff", "hj_expand",
    "is_contractible", "log_canonical_class",
    "multibranch_deficit",
    "parse_rat", "resolution_graph",
    "single_branch_report",
]
