"""Exact sparse discriminants of integer point configurations.

Everything is computed over the integers and rationals; no floating
point, no randomness.  Points are columns of the input matrix, dual
vectors are rows of the Gale-side matrix.
"""

from .config import (
    GaleConfiguration,
    PointConfiguration,
    cayley,
    dual_of,
    gale_dual,
    gale_side,
    is_homogeneous,
    is_pyramid,
    segment,
    standard_form,
)
from .defect import (
    DefectReport,
    RhoReport,
    SupportLattice,
    dual_variety_dim,
    is_dual_defect,
    is_dual_defect_exhaustive,
    rho_bound,
    support_lattice,
)
from .disc import (
    DiscriminantResult,
    check_restriction_grouping,
    check_specialization,
    contract,
    discriminant,
    discriminant_codim1,
    extend_plus_minus,
    glue_resultant,
    horn_eval,
    horn_implicitize_rank2,
    membership,
    pullback,
)
from .errors import (
    DegenerateDual,
    DiscforgeError,
    ParseError,
    PreconditionError,
    Unsupported,
)
from .lattice import IntMatrix, lattice_index
from .matroid import Decomposition, ReduceResult, collinear_classes, decompose, reduce
from .poly import (
    SparsePolynomial,
    newton_vertices,
    poly_from_json_dict,
    poly_to_json_dict,
)

__all__ = [
    "DefectReport",
    "Decomposition",
    "DegenerateDual",
    "DiscforgeError",
    "DiscriminantResult",
    "GaleConfiguration",
    "IntMatrix",
    "ParseError",
    "PointConfiguration",
    "PreconditionError",
    "ReduceResult",
    "RhoReport",
    "SparsePolynomial",
    "SupportLattice",
    "Unsupported",
    "cayley",
    "check_restriction_grouping",
    "check_specialization",
    "collinear_classes",
    "contract",
    "decompose",
    "discriminant",
    "discriminant_codim1",
    "dual_of",
    "dual_variety_dim",
    "extend_plus_minus",
    "gale_dual",
    "gale_side",
    "glue_resultant",
    "horn_eval",
    "horn_implicitize_rank2",
    "is_dual_defect",
    "is_dual_defect_exhaustive",
    "is_homogeneous",
    "is_pyramid",
    "lattice_index",
    "membership",
    "newton_vertices",
    "poly_from_json_dict",
    "poly_to_json_dict",
    "pullback",
    "reduce",
    "rho_bound",
    "segment",
    "standard_form",
    "support_lattice",
]

__version__ = "0.1.0"
