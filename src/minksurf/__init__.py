"""Pointwise invariants, Gauss map Laplacians, and equivalence verdicts
for space-like surfaces in a 4-dimensional Minkowski ambient space.

Layering, bottom up: ``jets`` (truncated Taylor arithmetic), ``linalg``
(indefinite vectors and bivectors), ``expr`` + ``surfaces`` (expression
parsing, surface catalog, immersion jets), ``geometry`` (frames, forms,
curvatures, residuals), ``gaussmap`` (both Gauss map Laplacian routes,
decomposition, verdicts), ``report`` + ``cli`` (grids and I/O).
"""

from .jets import (SUPPORTED_ORDERS, DivisionByZeroValue, DomainError, Jet,
                   JetError, OrderExceeded, UnsupportedOrder, fd_partial,
                   jet_variable, partial)
from .linalg import (AmbientVector, Bivector, CausalClass, DegeneratePlane,
                     bivector_inner, causal_character,
                     dual_unit_normal_bivector, hodge_dual, minkowski_inner,
                     orthonormal_normal_frame, wedge)
from .expr import (ArityError, ParseError, UnknownIdentifier,
                   parse_expression, serialize_expression)
from .surfaces import (Domain, MissingParameter, SurfaceSpec, UnknownSurface,
                       catalog_lookup, catalog_names, cell_centers,
                       evaluate_immersion, parse_surface, serialize_surface)
from .geometry import (NotSpacelike, PointGeometry, Tolerances, adapted_frame,
                       classify_point, codazzi_residual,
                       first_fundamental_form, gaussian_curvature,
                       mean_curvature_vector, normal_curvature_RD,
                       parallel_H_residual, position_laplacian,
                       second_fundamental_form,
                       squared_second_fundamental_form)
from .gaussmap import (GaussLaplacianDecomposition, NotApplicable,
                       PointRecord, TheoremVerdict, UnknownTheorem,
                       evaluate_batch, evaluate_grid, evaluate_point,
                       first_kind_residuals,
                       gauss_map, laplacian_gauss_direct,
                       laplacian_gauss_formula, lemma42_residual,
                       route_agreement, theorem_ids, theorem_verdict)
from .report import (RunConfig, RunResult, run, run_analyze, run_catalog,
                     run_classify, run_verify)

__version__ = "0.1.0"

__all__ = [
    "SUPPORTED_ORDERS", "DivisionByZeroValue", "DomainError", "Jet",
    "JetError", "OrderExceeded", "UnsupportedOrder", "fd_partial",
    "jet_variable", "partial",
    "AmbientVector", "Bivector", "CausalClass", "DegeneratePlane",
    "bivector_inner", "causal_character",
    "dual_unit_normal_bivector", "hodge_dual", "minkowski_inner",
    "orthonormal_normal_frame", "wedge",
    "ArityError", "ParseError", "UnknownIdentifier", "parse_expression",
    "serialize_expression",
    "Domain", "MissingParameter", "SurfaceSpec", "UnknownSurface",
    "catalog_lookup", "catalog_names", "cell_centers", "evaluate_immersion",
    "parse_surface", "serialize_surface",
    "NotSpacelike", "PointGeometry", "Tolerances", "adapted_frame",
    "classify_point", "codazzi_residual", "first_fundamental_form",
    "gaussian_curvature", "mean_curvature_vector", "normal_curvature_RD",
    "parallel_H_residual", "position_laplacian", "second_fundamental_form",
    "squared_second_fundamental_form",
    "GaussLaplacianDecomposition", "NotApplicable", "PointRecord",
    "TheoremVerdict", "UnknownTheorem", "evaluate_batch", "evaluate_grid",
    "evaluate_point",
    "first_kind_residuals", "gauss_map", "laplacian_gauss_direct",
    "laplacian_gauss_formula", "lemma42_residual", "route_agreement",
    "theorem_ids", "theorem_verdict",
    "RunConfig", "RunResult", "run", "run_analyze", "run_catalog",
    "run_classify", "run_verify",
    "__version__",
]
