"""Exact sparse discriminants of integer point configurations.

Everything is computed over the integers and rationals; no floating
point, no randomness.  Points are columns of the input matrix, dual
vectors are rows of the Gale-side matrix.
"""

import importlib

# each exported name and the submodule that defines it; the submodule is
# imported on first access (PEP 562), so ``import discforge`` loads none
_HOME = {
    "config": (
        "GaleConfiguration", "PointConfiguration", "cayley", "dual_of", "gale_dual",
        "gale_side", "is_homogeneous", "is_pyramid", "segment", "standard_form",
    ),
    "defect": (
        "DefectReport", "RhoReport", "SupportLattice", "dual_variety_dim",
        "is_dual_defect", "is_dual_defect_exhaustive", "rho_bound", "support_lattice",
    ),
    "disc": (
        "DiscriminantResult", "check_restriction_grouping", "check_specialization",
        "contract", "discriminant", "discriminant_codim1", "extend_plus_minus",
        "glue_resultant", "horn_eval", "horn_implicitize_rank2", "membership", "pullback",
    ),
    "errors": (
        "DegenerateDual", "DiscforgeError", "NotIrreducible", "ParseError", "PreconditionError",
        "Unsupported",
    ),
    "lattice": ("IntMatrix", "lattice_index"),
    "matroid": ("ReduceResult", "collinear_classes", "reduce"),
    "poly": (
        "SparsePolynomial", "newton_vertices", "poly_from_json_dict", "poly_to_json_dict",
    ),
}
_MODULE_OF = {name: mod for mod, names in _HOME.items() for name in names}


def __getattr__(name):
    mod = _MODULE_OF.get(name)
    if mod is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{mod}", __name__), name)


__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"
