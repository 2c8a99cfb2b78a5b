"""Shared fixtures: catalog instantiations and frequently reused geometry."""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import surfaces as sf
from minksurf.expr import serialize_expression

# Every run draws the same examples, and no example is failed for its
# wall time, which varies with the host's load.
settings.register_profile("tier1", derandomize=True, deadline=None)
settings.load_profile("tier1")

# Every catalog entry with concrete parameter choices.  graph has no default
# height function, so it appears with a representative paraboloid height.
CATALOG_CASES = (
    ("plane", {}),
    ("graph", {"phi": "(u^2 + v^2)/2"}),
    ("type-i", {"b": 0.5}),
    ("type-ii", {"a": 1.0}),
    ("s31-flat", {"r": 1.0}),
    ("h3-flat", {"r": 1.0}),
    ("example52", {}),
    ("product", {"a": 1.0, "b": 2.0}),
)

CATALOG_IDS = tuple(name for name, _ in CATALOG_CASES)

# A surface with no special structure: curved, twisted normal bundle,
# nonzero normal curvature.  Exercises the generic code paths that the
# catalog's heavily symmetric entries leave cold.
WILD_TEXT = (
    "x1 = u^2/5 + v^2/10 ; x2 = u ; x3 = v ; x4 = u*v/10"
)


# A surface whose grids mix both metric skip reasons, domain errors and
# overflows in one block
MIXED_FILE = Path(__file__).parent / "data" / "mixed_skips.surf"


# Batch shapes of the byte checks between a lean numpy form and its
# reference: one point, a batch of one, a 4x4 grid's block, and a stack
# of four such blocks.
BATCH_SHAPES = ((), (1,), (16,), (4, 16))

# Signed zeros, infinities and NaN among ordinary numbers of several
# scales; 1.0 and -1.0 make light-like vectors.
SPECIAL_VALUES = (0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0,
                  1e-12, 1e8, -2.5)


def special_values(shape: tuple[int, ...], seed: int = 0) -> np.ndarray:
    """A float array of the given shape drawn from SPECIAL_VALUES."""
    rng = np.random.default_rng(seed)
    return np.array(SPECIAL_VALUES)[
        rng.integers(len(SPECIAL_VALUES), size=shape)]


def build(name: str, params: dict) -> sf.SurfaceSpec:
    return sf.catalog_lookup(name, params)


def serialize_surface(spec: sf.SurfaceSpec) -> str:
    """The surface text of ``spec``, which ``sf.parse_surface`` reads
    back to an equal spec."""
    lines = [f"name = {spec.name}"]
    for pname in sorted(spec.params):
        lines.append(f"param {pname} = {spec.params[pname]!r}")
    d = spec.domain
    lines.append(f"domain = [{d.u_min!r},{d.u_max!r}]x[{d.v_min!r},{d.v_max!r}]")
    for k, comp in enumerate(spec.components, start=1):
        lines.append(f"x{k} = {serialize_expression(comp)}")
    return "\n".join(lines) + "\n"


@pytest.fixture(params=CATALOG_CASES, ids=CATALOG_IDS)
def catalog_spec(request) -> sf.SurfaceSpec:
    name, params = request.param
    return build(name, params)


@pytest.fixture(scope="session")
def wild_spec() -> sf.SurfaceSpec:
    return sf.parse_surface(WILD_TEXT)


@pytest.fixture(scope="session")
def product_12() -> sf.SurfaceSpec:
    return sf.catalog_lookup("product", {"a": 1.0, "b": 2.0})


def point_geometry(spec: sf.SurfaceSpec, u: float, v: float, k: int = 3,
                   tol: ge.Tolerances = ge.DEFAULT_TOLERANCES) -> ge.PointGeometry:
    return ge.PointGeometry(sf.evaluate_immersion(spec, u, v, k), base=(u, v), tol=tol)


def grid_geometry(spec: sf.SurfaceSpec, nu: int, nv: int) -> ge.PointGeometry:
    """One order-3 batch over the cell centres of an nu x nv grid: the
    batch the grid is evaluated as when it has at most
    ``gaussmap.BLOCK_POINTS`` points."""
    us, vs = (np.array(c) for c in zip(*sf.cell_centers(spec.domain, nu, nv)))
    return ge.PointGeometry(sf.evaluate_immersion(spec, us, vs, 3), base=(us, vs))


def route_agreement(spec: sf.SurfaceSpec, grid: tuple[int, int]) -> float:
    """Max over the evaluated points of an order-3 grid of the
    normalized distance between the two Gauss map Laplacian routes."""
    live = gm.evaluate_grid(spec, grid).live
    return max(live["residual_route"].tolist(), default=0.0)


def rows(block: gm.Records) -> list[gm.PointRecord]:
    """The records of a block, one ``PointRecord`` per row."""
    return [block.point(k) for k in range(len(block))]


def grid_points(spec: sf.SurfaceSpec, nu: int = 5, nv: int = 5):
    return sf.cell_centers(spec.domain, nu, nv)
