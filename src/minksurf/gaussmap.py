"""Gauss map analysis: two Laplacian routes, term decomposition, verdicts.

The Gauss map of a space-like surface takes values in the unit bivectors
(<nu, nu> = -1).  Its Laplacian can be computed two independent ways:

  * directly, by applying the metric Laplacian to each of the six
    bivector components of the jet-valued Gauss map;
  * structurally, as a sum of five groups built from pointwise frame
    data: the squared second fundamental form times nu, the normal
    curvature times the tangent bivector, two trace-gradient wedges, and
    a normal-connection rotation term.

Agreement of the two routes is the strongest single correctness check in
the package, since the routes share no code beyond the jet algebra.  On
top of the decomposition sit the harmonicity / pointwise-first-kind
residuals, a gradient relation satisfied by maximal surfaces with flat
normal bundle, and grid-level verdict checks for a small registry of
if-and-only-if statements.

Grids are evaluated in blocks of points, each block as one batch of
jets (see ``evaluate_batch``); a record's bytes do not depend on the
block it was computed in.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import jets as jt
from . import linalg as la
from .geometry import DEFAULT_TOLERANCES, PointGeometry, Tolerances
from .linalg import Bivector
from .surfaces import SurfaceSpec, cell_centers, evaluate_immersion

__all__ = [
    "NotApplicable",
    "UnknownTheorem",
    "GaussLaplacianDecomposition",
    "PointRecord",
    "TheoremVerdict",
    "gauss_map",
    "laplacian_gauss_direct",
    "laplacian_gauss_formula",
    "route_agreement",
    "first_kind_residuals",
    "lemma42_residual",
    "evaluate_batch",
    "evaluate_point",
    "evaluate_grid",
    "theorem_verdict",
    "theorem_verdict_from_records",
    "theorem_ids",
    "TERM_NAMES",
]


class NotApplicable(Exception):
    """A check's preconditions fail at this point."""


class UnknownTheorem(Exception):
    """The requested verdict id is not in the registry."""


TERM_NAMES = ("nu", "normal_curvature", "grad_trace3", "grad_trace4",
              "rotation")


@dataclass(frozen=True)
class GaussLaplacianDecomposition:
    """Both routes to the Gauss map Laplacian at one point, with the
    structural route recorded term group by term group.

    formula = c_nu * nu + c_norm * (e1 ^ e2) + grad3 ^ e4 + e3 ^ grad4
              + 2 * sum_j omega34(e_j) H ^ e_j,
    where grad_beta = sum_i e_i(trace A_beta) e_i.  The residuals are
    Euclidean norms over the six bivector components of the direct
    route: residual_first_kind = |direct - h_sq * nu|, residual_harmonic
    = |direct|.
    """

    nu: Bivector
    direct: Bivector
    formula: Bivector
    c_nu: float
    c_norm: float
    grad_trA3: tuple[float, float]
    grad_trA4: tuple[float, float]
    omega34: tuple[float, float]
    term_nu: Bivector
    term_normal_curvature: Bivector
    term_grad_trace3: Bivector
    term_grad_trace4: Bivector
    term_rotation: Bivector
    residual_first_kind: float
    residual_harmonic: float
    residual_route: float

    def term(self, name: str) -> Bivector:
        return {
            "nu": self.term_nu,
            "normal_curvature": self.term_normal_curvature,
            "grad_trace3": self.term_grad_trace3,
            "grad_trace4": self.term_grad_trace4,
            "rotation": self.term_rotation,
        }[name]


def gauss_map(pg: PointGeometry) -> Bivector:
    """Jet-valued Gauss map at the point; value satisfies <nu, nu> = -1."""
    return pg.nu_jets


def _laplacian_bivector(pg: PointGeometry) -> Bivector:
    return Bivector(*(pg.laplacian(c).value()
                      for c in pg.nu_jets.components()))


def laplacian_gauss_direct(spec: SurfaceSpec, u: float, v: float,
                           order: int = 3,
                           tol: Tolerances = DEFAULT_TOLERANCES) -> Bivector:
    """Gauss map Laplacian by the divergence form, componentwise on the
    jet-valued Gauss map of the surface at (u, v)."""
    xj = evaluate_immersion(spec, u, v, order)
    pg = PointGeometry(xj, base=(u, v), tol=tol)
    return _laplacian_bivector(pg)


def _directional_value(pg: PointGeometry, f, i: int) -> float:
    a, b = pg._dir_coeffs(i)
    return a * f.partial(1, 0) + b * f.partial(0, 1)


def laplacian_gauss_formula(pg: PointGeometry,
                            term_scales: Optional[dict[str, float]] = None,
                            ) -> GaussLaplacianDecomposition:
    """Assemble the structural route and compare it with the direct one.

    term_scales multiplies named term groups of the structural route
    (default 1.0 each); it exists so tests can corrupt one group and
    confirm the route agreement catches it.
    """
    scales = {name: 1.0 for name in TERM_NAMES}
    if term_scales:
        unknown = set(term_scales) - set(scales)
        if unknown:
            raise KeyError(f"unknown term names: {sorted(unknown)}")
        scales.update(term_scales)

    e1, e2, e3, e4 = pg.frame_values
    nu_vals = pg.nu
    tr3, tr4 = pg.trace_jets
    grad3 = (_directional_value(pg, tr3, 1), _directional_value(pg, tr3, 2))
    grad4 = (_directional_value(pg, tr4, 1), _directional_value(pg, tr4, 2))
    grad3_vec = e1.scaled(grad3[0]) + e2.scaled(grad3[1])
    grad4_vec = e1.scaled(grad4[0]) + e2.scaled(grad4[1])
    w34 = pg.omega34

    term_nu = nu_vals.scaled(pg.h_sq * scales["nu"])
    term_norm = la.wedge(e1, e2).scaled(2.0 * pg.RD
                                        * scales["normal_curvature"])
    term_g3 = la.wedge(grad3_vec, e4).scaled(scales["grad_trace3"])
    term_g4 = la.wedge(e3, grad4_vec).scaled(scales["grad_trace4"])
    rot = (la.wedge(pg.H, e1).scaled(2.0 * w34[0])
           + la.wedge(pg.H, e2).scaled(2.0 * w34[1]))
    term_rot = rot.scaled(scales["rotation"])

    formula = term_nu + term_norm + term_g3 + term_g4 + term_rot
    direct = _laplacian_bivector(pg)

    first_kind = la.bivector_euclid_norm(direct - nu_vals.scaled(pg.h_sq))
    harmonic = la.bivector_euclid_norm(direct)
    route = (la.bivector_euclid_norm(direct - formula)
             / (1.0 + la.bivector_euclid_norm(direct)))

    return GaussLaplacianDecomposition(
        nu=nu_vals, direct=direct, formula=formula,
        c_nu=pg.h_sq, c_norm=2.0 * pg.RD,
        grad_trA3=grad3, grad_trA4=grad4, omega34=w34,
        term_nu=term_nu, term_normal_curvature=term_norm,
        term_grad_trace3=term_g3, term_grad_trace4=term_g4,
        term_rotation=term_rot,
        residual_first_kind=first_kind, residual_harmonic=harmonic,
        residual_route=route)


def first_kind_residuals(decomp: GaussLaplacianDecomposition,
                         ) -> tuple[float, float, float]:
    """(first-kind residual, harmonic residual, f estimate).

    f is identified by projection, f = -<direct, nu> with the indefinite
    bivector product, independent of reading off the h_sq coefficient.
    """
    f_estimate = -la.bivector_inner(decomp.direct, decomp.nu)
    return decomp.residual_first_kind, decomp.residual_harmonic, f_estimate


def _lemma42(pg: PointGeometry, tau: Optional[float] = None):
    # (where the relation applies, its residual) at each point
    tau = pg.tol.residual if tau is None else tau
    applies = ~(pg.H_norm_euclid > tau) & ~(abs(pg.RD) > tau)
    f_jet = pg.h_sq_jet
    f0 = f_jet.value()
    e1f = _directional_value(pg, f_jet, 1)
    e2f = _directional_value(pg, f_jet, 2)
    w1, w2 = pg.omega12
    best = math.inf
    for eps in (-1.0, 1.0):
        r = np.maximum(abs(e1f + 4.0 * eps * w2 * f0),
                       abs(e2f - 4.0 * eps * w1 * f0))
        best = np.minimum(best, r)
    return applies, best


def lemma42_residual(pg: PointGeometry, tau: Optional[float] = None):
    """Gradient relation satisfied by the squared second fundamental form
    on maximal points with flat normal bundle:

        e1(f) = -4 eps omega12(e2) f,   e2(f) = 4 eps omega12(e1) f

    for one of eps in {-1, +1} (the frame-labeling freedom); the residual
    minimizes over both.  Raises NotApplicable when a point is not
    maximal or the normal bundle is not flat there.
    """
    applies, best = _lemma42(pg, tau)
    if not np.all(applies):
        raise NotApplicable(
            f"not maximal with flat normal bundle at {pg.base}: "
            f"|H| = {pg.H_norm_euclid!r}, R^D = {pg.RD!r}")
    return best


# -- per-point record ---------------------------------------------------

@dataclass(frozen=True)
class PointRecord:
    """Flat, picklable snapshot of everything computed at one grid point.

    Skipped points carry ok=False and a reason; every numeric field is
    then zero-filled and must not be interpreted.
    """

    u: float
    v: float
    ok: bool
    skip_reason: Optional[str] = None
    g: tuple[float, float, float] = (0.0, 0.0, 0.0)  # E, F, G
    x: tuple[float, float, float, float] = (0.0,) * 4
    position_inner: float = 0.0
    nu: tuple[float, ...] = (0.0,) * 6
    omega12: tuple[float, float] = (0.0, 0.0)
    omega34: tuple[float, float] = (0.0, 0.0)
    h3: tuple[float, float, float] = (0.0, 0.0, 0.0)  # h^3_11, h^3_12, h^3_22
    h4: tuple[float, float, float] = (0.0, 0.0, 0.0)
    H: tuple[float, float, float, float] = (0.0,) * 4
    H_inner: float = 0.0
    H_causal: str = ""
    H_norm_euclid: float = 0.0
    h_sq: float = 0.0
    K: tuple[float, float, float] = (0.0, 0.0, 0.0)  # gauss, formula, intrinsic
    RD: float = 0.0
    laplacian_x: tuple[float, float, float, float] = (0.0,) * 4
    bilaplacian_norm: Optional[float] = None
    dnu_direct: tuple[float, ...] = (0.0,) * 6
    dnu_formula: tuple[float, ...] = (0.0,) * 6
    c_nu: float = 0.0
    c_norm: float = 0.0
    grad_trA3: tuple[float, float] = (0.0, 0.0)
    grad_trA4: tuple[float, float] = (0.0, 0.0)
    residual_frame: float = 0.0
    residual_codazzi: float = 0.0
    residual_parallel_H: float = 0.0
    residual_beltrami: float = 0.0
    residual_route: float = 0.0
    residual_first_kind: float = 0.0
    residual_harmonic: float = 0.0
    f_estimate: float = 0.0
    lemma42: Optional[float] = None
    labels: tuple[str, ...] = ()


# Points per batch when a grid is evaluated.  Report bytes do not depend
# on it; it bounds the memory a batch of jets takes.
BLOCK_POINTS = 256

# Arithmetic failures at a point, and the skip reason each one records.
_POINT_ERRORS = ((jt.DomainError, "domain-error"),
                 (jt.DivisionByZeroValue, "singular"),
                 (ZeroDivisionError, "singular"),
                 (OverflowError, "overflow"))
_POINT_ERROR_TYPES = tuple(err for err, _ in _POINT_ERRORS)


def _failure(err: Exception) -> str:
    return next(reason for kind, reason in _POINT_ERRORS
                if isinstance(err, kind))


def _skipped(u: float, v: float, reason: str) -> PointRecord:
    return PointRecord(u=u, v=v, ok=False, skip_reason=reason)


def _immersion_failure(spec: SurfaceSpec, u: float, v: float,
                       order: int) -> Optional[str]:
    try:
        evaluate_immersion(spec, u, v, order)
    except _POINT_ERROR_TYPES as err:
        return _failure(err)
    return None


def _columns(pg: PointGeometry, term_scales) -> dict:
    # every numeric record field of the points of pg, as per-point values
    # (a tuple of them for tuple fields)
    decomp = laplacian_gauss_formula(pg, term_scales)
    rfk, rharm, f_est = first_kind_residuals(decomp)
    h = pg.h_jets
    E, F, G = pg.metric_jets
    cols = {
        "g": (E.value(), F.value(), G.value()),
        "x": pg.x_values.components(),
        "position_inner": pg.position_inner,
        "nu": pg.nu.components(),
        "omega12": pg.omega12, "omega34": pg.omega34,
        "h3": tuple(h[(3, i, j)].value() for i, j in ((1, 1), (1, 2), (2, 2))),
        "h4": tuple(h[(4, i, j)].value() for i, j in ((1, 1), (1, 2), (2, 2))),
        "H": pg.H.components(),
        "H_inner": pg.H_inner,
        "H_norm_euclid": pg.H_norm_euclid,
        "h_sq": pg.h_sq,
        "K": (pg.K_gauss, pg.K_formula, pg.K_intrinsic),
        "RD": pg.RD,
        "laplacian_x": pg.laplacian_x.components(),
        "dnu_direct": decomp.direct.components(),
        "dnu_formula": decomp.formula.components(),
        "c_nu": decomp.c_nu, "c_norm": decomp.c_norm,
        "grad_trA3": decomp.grad_trA3, "grad_trA4": decomp.grad_trA4,
        "residual_frame": pg.residual_frame,
        "residual_codazzi": pg.residual_codazzi,
        "residual_parallel_H": pg.residual_parallel_H,
        "residual_beltrami": pg.residual_beltrami,
        "residual_route": decomp.residual_route,
        "residual_first_kind": rfk,
        "residual_harmonic": rharm,
        "f_estimate": f_est,
    }
    if pg.order >= 4:
        cols["bilaplacian_norm"] = la.euclid_norm(pg.bilaplacian_x)
    return cols


def _live_records(pg: PointGeometry, us: list, vs: list,
                  term_scales) -> list[PointRecord]:
    # Records of the points of pg, which all have a space-like metric.
    n = len(us)

    def per_point(x) -> np.ndarray:
        return x if np.shape(x) == (n,) else np.broadcast_to(x, (n,))

    cols = _columns(pg, term_scales)
    lemma_applies, lemma = (per_point(x) for x in _lemma42(pg))
    finite = np.logical_and.reduce(
        [np.isfinite(per_point(x)) for col in cols.values()
         for x in (col if isinstance(col, tuple) else (col,))]
        + [~lemma_applies | np.isfinite(lemma)])
    values = {name: (list(zip(*(per_point(x).tolist() for x in col)))
                     if isinstance(col, tuple) else per_point(col).tolist())
              for name, col in cols.items()}
    causal = [c.name for c in per_point(pg.H_causal)]
    labels = pg.classify()
    records = []
    for k, (u, v) in enumerate(zip(us, vs)):
        if not finite[k]:
            records.append(_skipped(u, v, "overflow"))
            continue
        records.append(PointRecord(
            u=u, v=v, ok=True, H_causal=causal[k],
            lemma42=float(lemma[k]) if lemma_applies[k] else None,
            labels=tuple(sorted(labels[k])),
            **{name: col[k] for name, col in values.items()}))
    return records


def _batch_records(spec: SurfaceSpec, us: list, vs: list, order: int,
                   tol: Tolerances, term_scales) -> list[PointRecord]:
    xj = evaluate_immersion(spec, np.array(us), np.array(vs), order)
    reasons = PointGeometry(xj, tol=tol).skip_reasons.tolist()
    live = [k for k, reason in enumerate(reasons) if reason is None]
    done = iter(())
    if live:
        if len(live) < len(us):
            xj = tuple(c.select(np.array(live)) for c in xj)
        lu, lv = [us[k] for k in live], [vs[k] for k in live]
        pg = PointGeometry(xj, base=(np.array(lu), np.array(lv)), tol=tol)
        done = iter(_live_records(pg, lu, lv, term_scales))
    return [next(done) if reason is None else _skipped(u, v, reason)
            for u, v, reason in zip(us, vs, reasons)]


def evaluate_batch(spec: SurfaceSpec, points: Sequence[tuple[float, float]],
                   order: int = 3, tol: Tolerances = DEFAULT_TOLERANCES,
                   term_scales: Optional[dict[str, float]] = None,
                   ) -> list[PointRecord]:
    """Full pointwise analysis of a block of (u, v) points as one batch.

    Points where the analysis cannot run come back as skipped records:
    "degenerate" or "not-spacelike" metric, "domain-error" (sqrt or log
    outside its domain), "singular" (division by zero), "overflow" (a
    float overflow, or any non-finite value in the record).  numpy
    floating-point warnings are silenced for the batch.
    """
    us = [float(u) for u, _ in points]
    vs = [float(v) for _, v in points]
    if not us:
        return []
    with np.errstate(all="ignore"):
        try:
            return _batch_records(spec, us, vs, order, tol, term_scales)
        except _POINT_ERROR_TYPES as err:
            if len(us) == 1:
                return [_skipped(us[0], vs[0], _failure(err))]
            # Find the failing points one at a time through the
            # immersion, then evaluate the others as a batch.
            failures = [_immersion_failure(spec, u, v, order)
                        for u, v in zip(us, vs)]
    if not any(failures):
        # the failure lies past the immersion: go point by point
        return [evaluate_point(spec, u, v, order, tol, term_scales)
                for u, v in zip(us, vs)]
    rest = [(u, v) for u, v, f in zip(us, vs, failures) if f is None]
    done = iter(evaluate_batch(spec, rest, order, tol, term_scales))
    return [next(done) if f is None else _skipped(u, v, f)
            for u, v, f in zip(us, vs, failures)]


def evaluate_point(spec: SurfaceSpec, u: float, v: float, order: int = 3,
                   tol: Tolerances = DEFAULT_TOLERANCES,
                   term_scales: Optional[dict[str, float]] = None,
                   ) -> PointRecord:
    """Full pointwise analysis of one point; points where it cannot run
    come back as skipped records rather than raising."""
    return evaluate_batch(spec, [(u, v)], order, tol, term_scales)[0]


def evaluate_grid(spec: SurfaceSpec, grid: tuple[int, int] = (7, 7),
                  order: int = 3, tol: Tolerances = DEFAULT_TOLERANCES,
                  term_scales: Optional[dict[str, float]] = None,
                  ) -> list[PointRecord]:
    """Row-major records over cell centers of the surface domain,
    evaluated BLOCK_POINTS points at a time."""
    points = cell_centers(spec.domain, *grid)
    return [rec for start in range(0, len(points), BLOCK_POINTS)
            for rec in evaluate_batch(spec, points[start:start + BLOCK_POINTS],
                                      order, tol, term_scales)]


def route_agreement(spec: SurfaceSpec, grid: tuple[int, int] = (7, 7),
                    order: int = 3, tol: Tolerances = DEFAULT_TOLERANCES,
                    term_scales: Optional[dict[str, float]] = None) -> float:
    """Max over the grid of the normalized distance between the two
    Laplacian routes; the package's strongest end-to-end oracle."""
    worst = 0.0
    for rec in evaluate_grid(spec, grid, order, tol, term_scales):
        if rec.ok:
            worst = max(worst, rec.residual_route)
    return worst


# -- theorem verdicts -----------------------------------------------------

@dataclass(frozen=True)
class SideResult:
    description: str
    passes: bool
    residual: float


@dataclass(frozen=True)
class TheoremVerdict:
    """Grid-sampled consistency report for one registered equivalence.

    consistent means both sides pass or both fail on the sample; that is
    numerical evidence for the stated if-and-only-if at the tolerance,
    never a proof, and says nothing beyond the sampled points.
    """

    theorem_id: str
    surface: str
    statement: str
    premise: str
    premise_met: bool
    vacuous: bool
    side_a: SideResult
    side_b: SideResult
    consistent: bool
    tolerance: float
    points: int
    skipped: int
    notes: str


def _live(records: Sequence[PointRecord]) -> list[PointRecord]:
    return [r for r in records if r.ok]


def _constancy(values: Sequence[float], rel: float) -> tuple[bool, float]:
    # sample sd against rel * (1 + |mean|); returns (constant?, sd)
    if len(values) < 2:
        return True, 0.0
    mean = statistics.fmean(values)
    sd = statistics.stdev(values)
    return sd <= rel * (1.0 + abs(mean)), sd


def _check_harmonic(recs, tau, rel):
    worst = max(r.residual_harmonic for r in recs)
    return SideResult("harmonic Gauss map (max |direct Laplacian|)",
                      worst <= tau, worst)


def _check_first_kind(recs, tau, rel):
    worst = max(r.residual_first_kind for r in recs)
    return SideResult("pointwise first-kind Gauss map Laplacian "
                      "(max |direct - h_sq nu|)", worst <= tau, worst)


def _check_global_first_kind(recs, tau, rel):
    worst = max(r.residual_first_kind for r in recs)
    const, sd = _constancy([r.f_estimate for r in recs], rel)
    return SideResult("global first-kind: pointwise first-kind with "
                      "grid-constant f", worst <= tau and const,
                      max(worst, sd))


def _check_flat(recs, tau, rel):
    worst = max(abs(r.K[0]) for r in recs)
    return SideResult("flat (max |K|)", worst <= tau, worst)


def _check_fnb(recs, tau, rel):
    worst = max(abs(r.RD) for r in recs)
    return SideResult("flat normal bundle (max |R^D|)", worst <= tau, worst)


def _check_parallel(recs, tau, rel):
    worst = max(r.residual_parallel_H for r in recs)
    return SideResult("parallel mean curvature vector (max |DH|)",
                      worst <= tau, worst)


def _check_lightlike_H(recs, tau, rel):
    ok = all(r.H_causal == "LIGHTLIKE" for r in recs)
    worst = max(abs(r.H_inner) / (1.0 + r.H_norm_euclid ** 2) for r in recs)
    return SideResult("light-like mean curvature vector everywhere",
                      ok, worst)


def _check_K_constant(recs, tau, rel):
    const, sd = _constancy([r.K[0] for r in recs], rel)
    return SideResult("grid-constant Gaussian curvature", const, sd)


def _and(*checks):
    def combined(recs, tau, rel):
        parts = [c(recs, tau, rel) for c in checks]
        return SideResult(" AND ".join(p.description for p in parts),
                          all(p.passes for p in parts),
                          max(p.residual for p in parts))
    return combined


def _or(*checks):
    def combined(recs, tau, rel):
        parts = [c(recs, tau, rel) for c in checks]
        best = min(parts, key=lambda p: p.residual)
        return SideResult(" OR ".join(p.description for p in parts),
                          any(p.passes for p in parts), best.residual)
    return combined


def _premise_any(recs, tau, rel):
    return True, "space-like sample points exist"


def _premise_maximal(recs, tau, rel):
    ok = all(r.H_norm_euclid <= tau for r in recs)
    return ok, "maximal on the sample (|H| <= tol everywhere)"


def _premise_nonmaximal(recs, tau, rel):
    ok = all(r.H_norm_euclid > tau for r in recs)
    return ok, "non-maximal on the sample (|H| > tol everywhere)"


def _premise_lightlike(recs, tau, rel):
    ok = all(r.H_causal == "LIGHTLIKE" for r in recs)
    return ok, "light-like mean curvature vector on the sample"


def _premise_in_s31(recs, tau, rel):
    const, _ = _constancy([r.position_inner for r in recs], rel)
    ok = const and all(r.position_inner > 0 for r in recs)
    return ok, "sample lies in a de Sitter quadric (<x,x> constant > 0)"


def _premise_in_h3(recs, tau, rel):
    const, _ = _constancy([r.position_inner for r in recs], rel)
    ok = const and all(r.position_inner < 0 and r.x[0] > 0 for r in recs)
    return ok, "sample lies in a hyperbolic quadric (<x,x> constant < 0)"


@dataclass(frozen=True)
class _TheoremEntry:
    statement: str
    premise: Callable
    side_a: Callable
    side_b: Callable


THEOREMS: dict[str, _TheoremEntry] = {
    "T3.4": _TheoremEntry(
        "maximal: harmonic Gauss map iff flat with flat normal bundle",
        _premise_maximal, _check_harmonic, _and(_check_flat, _check_fnb)),
    "T3.5": _TheoremEntry(
        "non-maximal: harmonic Gauss map iff flat with light-like "
        "parallel mean curvature vector",
        _premise_nonmaximal, _check_harmonic,
        _and(_check_flat, _check_lightlike_H, _check_parallel)),
    "T3.7": _TheoremEntry(
        "harmonic Gauss map iff flat, flat normal bundle, and either "
        "maximal or light-like parallel mean curvature (the checkable "
        "content of the six-type classification)",
        _premise_any, _check_harmonic,
        _and(_check_flat, _check_fnb,
             _or(lambda recs, tau, rel: SideResult(
                     "maximal (max |H|)",
                     max(r.H_norm_euclid for r in recs) <= tau,
                     max(r.H_norm_euclid for r in recs)),
                 _and(_check_lightlike_H, _check_parallel)))),
    "T3.9": _TheoremEntry(
        "in a de Sitter quadric: flat with light-like parallel mean "
        "curvature iff harmonic Gauss map",
        _premise_in_s31,
        _and(_check_flat, _check_lightlike_H, _check_parallel),
        _check_harmonic),
    "T3.10": _TheoremEntry(
        "in a hyperbolic quadric: flat with light-like parallel mean "
        "curvature iff harmonic Gauss map",
        _premise_in_h3,
        _and(_check_flat, _check_lightlike_H, _check_parallel),
        _check_harmonic),
    "T4.1": _TheoremEntry(
        "maximal: pointwise first-kind Gauss map iff flat normal bundle",
        _premise_maximal, _check_first_kind, _check_fnb),
    "T4.3": _TheoremEntry(
        "maximal: global first-kind Gauss map iff harmonic Gauss map",
        _premise_maximal, _check_global_first_kind, _check_harmonic),
    "T4.4": _TheoremEntry(
        "non-maximal: pointwise first-kind Gauss map iff parallel mean "
        "curvature vector",
        _premise_nonmaximal, _check_first_kind, _check_parallel),
    "T4.6": _TheoremEntry(
        "light-like mean curvature: global first-kind Gauss map iff "
        "harmonic Gauss map",
        _premise_lightlike, _check_global_first_kind, _check_harmonic),
    "T4.8": _TheoremEntry(
        "non-maximal: global first-kind Gauss map iff parallel mean "
        "curvature vector and grid-constant Gaussian curvature",
        _premise_nonmaximal, _check_global_first_kind,
        _and(_check_parallel, _check_K_constant)),
}
# The catalog-facing id of the same six-type statement.
THEOREMS["T3.11"] = THEOREMS["T3.7"]


def theorem_ids() -> tuple[str, ...]:
    return tuple(sorted(THEOREMS))


def theorem_verdict_from_records(theorem_id: str,
                                 records: Sequence[PointRecord],
                                 surface_name: str = "",
                                 tau: Optional[float] = None,
                                 tol: Tolerances = DEFAULT_TOLERANCES,
                                 ) -> TheoremVerdict:
    entry = THEOREMS.get(theorem_id)
    if entry is None:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: "
            f"{', '.join(theorem_ids())}")
    tau = tol.residual if tau is None else tau
    rel = tol.constancy_rel
    live = _live(records)
    skipped = len(records) - len(live)
    notes = (f"numerical evidence at tolerance {tau!r} on {len(live)} "
             "sample points; not a proof, and silent beyond the sample")
    if not live:
        empty = SideResult("not evaluated (no usable points)", False,
                           math.inf)
        return TheoremVerdict(
            theorem_id=theorem_id, surface=surface_name,
            statement=entry.statement, premise="no usable sample points",
            premise_met=False, vacuous=True, side_a=empty, side_b=empty,
            consistent=True, tolerance=tau, points=0, skipped=skipped,
            notes=notes)
    met, premise_text = entry.premise(live, tau, rel)
    side_a = entry.side_a(live, tau, rel)
    side_b = entry.side_b(live, tau, rel)
    if not met:
        # Premise fails: the statement says nothing here, so the sample
        # cannot contradict it.
        return TheoremVerdict(
            theorem_id=theorem_id, surface=surface_name,
            statement=entry.statement, premise=premise_text,
            premise_met=False, vacuous=True, side_a=side_a, side_b=side_b,
            consistent=True, tolerance=tau, points=len(live),
            skipped=skipped, notes=notes)
    return TheoremVerdict(
        theorem_id=theorem_id, surface=surface_name,
        statement=entry.statement, premise=premise_text, premise_met=True,
        vacuous=False, side_a=side_a, side_b=side_b,
        consistent=side_a.passes == side_b.passes, tolerance=tau,
        points=len(live), skipped=skipped, notes=notes)


def theorem_verdict(theorem_id: str, spec: SurfaceSpec,
                    grid: tuple[int, int] = (7, 7),
                    tau: Optional[float] = None, order: int = 3,
                    tol: Tolerances = DEFAULT_TOLERANCES) -> TheoremVerdict:
    if theorem_id not in THEOREMS:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: "
            f"{', '.join(theorem_ids())}")
    records = evaluate_grid(spec, grid, order, tol)
    return theorem_verdict_from_records(theorem_id, records, spec.name,
                                        tau, tol)
