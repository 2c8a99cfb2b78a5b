"""Pointwise invariants, Gauss map Laplacians, and equivalence verdicts
for space-like surfaces in a 4-dimensional Minkowski ambient space.

Layering, bottom up: ``jets`` (truncated Taylor arithmetic), ``linalg``
(indefinite vectors and bivectors), ``expr`` + ``surfaces`` (expression
parsing, surface catalog, immersion jets), ``geometry`` (frames, forms,
curvatures, residuals), ``gaussmap`` (both Gauss map Laplacian routes,
decomposition, verdicts), ``report`` + ``cli`` (grids and I/O).
"""

__version__ = "0.1.0"
