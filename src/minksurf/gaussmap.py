"""Gauss map analysis: two Laplacian routes, term decomposition, verdicts.

The Gauss map of a space-like surface takes values in the unit bivectors
(<nu, nu> = -1).  Its Laplacian is computed two ways:

  * directly, by applying the metric Laplacian to each of the six
    bivector components of the jet-valued Gauss map;
  * structurally, as a sum of five groups built from pointwise frame
    data: the squared second fundamental form times nu, the normal
    curvature times the tangent bivector, two trace-gradient wedges, and
    a normal-connection rotation term.

Agreement of the two routes is the strongest single correctness check in
the package, but the routes are not independent.  Both start from the
same immersion jets and metric, read the same adapted frame and Gauss
map (the direct route differentiates ``nu_jets``, the structural route
scales its value), and run on the same jet algebra and ``linalg``
products; only the direct route applies the metric Laplace operator.
An error in what they share passes both alike; ROADMAP item 3 asks for
an oracle that shares none of it.

On top of the decomposition sit the harmonicity / pointwise-first-kind
residuals, a gradient relation satisfied by maximal surfaces with flat
normal bundle, and grid-level verdict checks for a small registry of
if-and-only-if statements.

Grids are evaluated in blocks of points, each block as one batch of
jets (see ``evaluate_batch``), and their records come back as columns
(``Records``); a record's bytes do not depend on the block it was
computed in.
"""

from __future__ import annotations

import dataclasses
import math
import statistics
from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import jets as jt
from . import linalg as la
from .geometry import (CONSTANCY_REL, DEFAULT_TOLERANCES, PointGeometry,
                       Tolerances)
from .surfaces import SurfaceSpec, cell_centers, evaluate_immersion

__all__ = [
    "NotApplicable",
    "UnknownTheorem",
    "GaussLaplacianDecomposition",
    "PointRecord",
    "Records",
    "TheoremVerdict",
    "laplacian_gauss_formula",
    "first_kind_residuals",
    "lemma42_residual",
    "evaluate_batch",
    "evaluate_point",
    "evaluate_grid",
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

    nu: np.ndarray
    direct: np.ndarray
    formula: np.ndarray
    c_nu: float
    c_norm: float
    grad_trA3: tuple[float, float]
    grad_trA4: tuple[float, float]
    residual_first_kind: float
    residual_harmonic: float
    residual_route: float


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
    # e_i(trace A3) and e_i(trace A4), i = 1, 2
    d1, d2 = pg.along(pg.trace_jets)
    grad3, grad4 = (d1[0], d2[0]), (d1[1], d2[1])
    grad3_vec = grad3[0] * e1 + grad3[1] * e2
    grad4_vec = grad4[0] * e1 + grad4[1] * e2
    w34 = pg.omega34

    nu_term = pg.h_sq * scales["nu"] * nu_vals
    norm_term = (2.0 * pg.RD * scales["normal_curvature"]
                 * la.wedge(e1, e2))
    g3_term = scales["grad_trace3"] * la.wedge(grad3_vec, e4)
    g4_term = scales["grad_trace4"] * la.wedge(e3, grad4_vec)
    rot = (2.0 * w34[0] * la.wedge(pg.H, e1)
           + 2.0 * w34[1] * la.wedge(pg.H, e2))
    rot_term = scales["rotation"] * rot

    formula = nu_term + norm_term + g3_term + g4_term + rot_term
    direct = pg.laplacian(pg.nu_jets).value()

    first_kind = la.euclid_norm(direct - pg.h_sq * nu_vals)
    harmonic = la.euclid_norm(direct)
    route = la.euclid_norm(direct - formula) / (1.0 + la.euclid_norm(direct))

    return GaussLaplacianDecomposition(
        nu=nu_vals, direct=direct, formula=formula,
        c_nu=pg.h_sq, c_norm=2.0 * pg.RD,
        grad_trA3=grad3, grad_trA4=grad4,
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


def _lemma42(pg: PointGeometry):
    # (where the relation applies, its residual) at each point
    tau = pg.tol.residual
    applies = ~(pg.H_norm_euclid > tau) & ~(abs(pg.RD) > tau)
    f_jet = pg.h_sq_jet
    f0 = f_jet.value()
    e1f, e2f = pg.along(f_jet)
    w1, w2 = pg.omega12
    best = math.inf
    for eps in (-1.0, 1.0):
        r = np.maximum(abs(e1f + 4.0 * eps * w2 * f0),
                       abs(e2f - 4.0 * eps * w1 * f0))
        best = np.minimum(best, r)
    return applies, best


def lemma42_residual(pg: PointGeometry):
    """Gradient relation satisfied by the squared second fundamental form
    on maximal points with flat normal bundle:

        e1(f) = -4 eps omega12(e2) f,   e2(f) = 4 eps omega12(e1) f

    for one of eps in {-1, +1} (the frame-labeling freedom); the residual
    minimizes over both.  Raises NotApplicable when a point is not
    maximal or the normal bundle is not flat there.
    """
    applies, best = _lemma42(pg)
    if not np.all(applies):
        raise NotApplicable(
            f"not maximal with flat normal bundle at {pg.base}: "
            f"|H| = {pg.H_norm_euclid!r}, R^D = {pg.RD!r}")
    return best


# -- records ------------------------------------------------------------

@dataclass(frozen=True)
class PointRecord:
    """Flat snapshot of everything computed at one grid point: one row
    of a ``Records`` block.

    Each default is the value of a skipped point (ok=False, with a
    reason; its other values must not be interpreted), and it fixes
    the field's column in a ``Records`` block.
    """

    u: float = 0.0
    v: float = 0.0
    ok: bool = False
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


def _objects(values: list) -> np.ndarray:
    # an object column holding the values themselves (np.array would
    # make equal-length tuples a 2-d array)
    return np.fromiter(values, dtype=object, count=len(values))


class Records:
    """The records of a sequence of grid points, one numpy column per
    ``PointRecord`` field, with one row per point.

    A field's default fixes its column: a float, or a non-empty tuple of
    floats, gives a float64 column of shape (n,) or (n, k); a bool gives
    a bool column; anything else (skip_reason, H_causal, lemma42,
    bilaplacian_norm, labels) gives an object column.
    """

    def __init__(self, columns: dict[str, np.ndarray]):
        self.columns = columns

    @staticmethod
    def of(rows: Sequence[PointRecord]) -> Records:
        """The block holding ``rows``, in order."""
        n = len(rows)

        def column(f):
            values = [getattr(row, f.name) for row in rows]
            if isinstance(f.default, bool):
                return np.array(values, dtype=bool)
            if isinstance(f.default, (float, tuple)) and f.default != ():
                return np.array(values, dtype=float).reshape(
                    n, *np.shape(f.default))
            return _objects(values)

        return Records({f.name: column(f)
                        for f in dataclasses.fields(PointRecord)})

    def __len__(self) -> int:
        return len(self.columns["ok"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @staticmethod
    def join(blocks: Sequence[Records]) -> Records:
        """The rows of each block in turn."""
        return Records({name: np.concatenate([b[name] for b in blocks])
                        for name in blocks[0].columns})

    def select(self, rows) -> Records:
        """The records at ``rows``: a slice, row indices or a row mask."""
        return Records({name: col[rows] for name, col in self.columns.items()})

    def lists(self, name: str) -> list[list]:
        """A column as Python lists, one per component of its field;
        floats come out of ``.tolist()`` bit for bit."""
        col = self.columns[name]
        return col.T.tolist() if col.ndim == 2 else [col.tolist()]

    def live(self) -> Records:
        """The records of the evaluated points."""
        ok = self.columns["ok"]
        return self if ok.all() else self.select(ok)

    def point(self, k: int) -> PointRecord:
        """Row k as a ``PointRecord``."""
        def cell(col):
            value = col[k:k + 1].tolist()[0]
            return tuple(value) if isinstance(value, list) else value
        return PointRecord(**{name: cell(col)
                              for name, col in self.columns.items()})


# The one row that every skipped point's record repeats.
_SKIPPED_ROW = Records.of([PointRecord()])


# Points per batch when a grid is evaluated.  Report bytes do not depend
# on it; it bounds the memory a batch of jets takes.
BLOCK_POINTS = 256

# Arithmetic failures at a point, and the skip reason each one records.
_POINT_ERRORS = {jt.DomainError: "domain-error",
                 jt.DivisionByZeroValue: "singular",
                 ZeroDivisionError: "singular",
                 OverflowError: "overflow"}


def _failure(err: Exception, n: int) -> tuple[np.ndarray, str]:
    # The points of an n-point batch that err names (a builtin error from
    # float arithmetic on constants names all of them), and their reason.
    points = getattr(err, "points", True)
    failed = np.broadcast_to(points, np.shape(points)[:-1] + (n,))
    reason = next(reason for kind, reason in _POINT_ERRORS.items()
                  if isinstance(err, kind))
    return failed.reshape(-1, n).any(axis=0), reason


def _columns(pg: PointGeometry) -> dict:
    # every numeric record field of the points of pg, as per-point values
    # (a tuple of them for tuple fields)
    decomp = laplacian_gauss_formula(pg)
    rfk, rharm, f_est = first_kind_residuals(decomp)
    h = pg._h.value()
    E, F, G = pg.metric_jets
    cols = {
        "g": (E.value(), F.value(), G.value()),
        "x": tuple(pg.x_values),
        "position_inner": pg.position_inner,
        "nu": tuple(pg.nu),
        "omega12": pg.omega12, "omega34": pg.omega34,
        "h3": tuple(h[0]), "h4": tuple(h[1]),  # ij = 11, 12, 22
        "H": tuple(pg.H),
        "H_inner": pg.H_inner,
        "H_norm_euclid": pg.H_norm_euclid,
        "h_sq": pg.h_sq,
        "K": (pg.K_gauss, pg.K_formula, pg.K_intrinsic),
        "RD": pg.RD,
        "laplacian_x": tuple(pg.laplacian_x),
        "dnu_direct": tuple(decomp.direct),
        "dnu_formula": tuple(decomp.formula),
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


def _live_block(pg: PointGeometry) -> tuple[Records, np.ndarray]:
    # The records of the points of pg, which all have a space-like
    # metric, and which of them hold only finite values.
    us, vs = pg.base
    n = len(us)

    def per_point(x) -> np.ndarray:
        return np.broadcast_to(x, (n,))

    cols = {name: (np.stack([per_point(x) for x in col], axis=1)
                   if isinstance(col, tuple) else np.array(per_point(col)))
            for name, col in _columns(pg).items()}
    lemma_applies, lemma = (per_point(x) for x in _lemma42(pg))
    finite = np.logical_and.reduce(
        [np.isfinite(col).reshape(n, -1).all(axis=1) for col in cols.values()]
        + [~lemma_applies | np.isfinite(lemma)])
    bilaplacian = cols.pop("bilaplacian_norm", None)
    cols.update(
        u=us, v=vs, ok=np.ones(n, dtype=bool),
        skip_reason=_objects([None] * n),
        H_causal=_objects([c.name for c in per_point(pg.H_causal)]),
        lemma42=_objects([x if applies else None for x, applies
                          in zip(lemma.tolist(), lemma_applies.tolist())]),
        bilaplacian_norm=_objects([None] * n if bilaplacian is None
                                  else bilaplacian.tolist()),
        labels=_objects([tuple(sorted(labels)) for labels in pg.classify()]))
    return Records(cols), finite


def evaluate_batch(spec: SurfaceSpec, points: Sequence[tuple[float, float]],
                   order: int = 3, tol: Tolerances = DEFAULT_TOLERANCES
                   ) -> Records:
    """Full pointwise analysis of a block of (u, v) points as one batch.

    Points where the analysis cannot run come back as skipped rows:
    "degenerate" or "not-spacelike" metric, "domain-error" (sqrt or log
    outside its domain), "singular" (division by zero), "overflow" (a
    float overflow, or any non-finite value in the record).  A failure
    skips the points it names (``jets.JetError.points``; a float error in
    a constant subexpression names them all), and the batch runs again
    without them, so each point gets the reason it would get alone.
    numpy floating-point warnings are silenced for the batch.
    """
    n = len(points)
    us = np.array([float(u) for u, _ in points])
    vs = np.array([float(v) for _, v in points])
    reasons = np.full(n, None, dtype=object)
    live = np.arange(n)
    block, finite = _SKIPPED_ROW.select(slice(0, 0)), np.ones(0, dtype=bool)
    # Each pass runs the live points as one batch and restarts without the
    # points it skips, so a mask names points of the batch that raised it.
    with np.errstate(all="ignore"):
        while live.size:
            try:
                pg = PointGeometry(
                    evaluate_immersion(spec, us[live], vs[live], order),
                    base=(us[live], vs[live]), tol=tol)
                failed = pg.skip_reasons != None  # noqa: E711 - elementwise
                if not failed.any():
                    block, finite = _live_block(pg)
                    break
                reasons[live[failed]] = pg.skip_reasons[failed]
            except tuple(_POINT_ERRORS) as err:
                failed, reason = _failure(err, live.size)
                reasons[live[failed]] = reason
            live = live[~failed]
    if live.size == n and finite.all():
        return block
    # a non-finite value makes its point an overflow skip
    reasons[live[~finite]] = "overflow"
    rows = _SKIPPED_ROW.select(np.zeros(n, dtype=int))
    for name, col in block.columns.items():
        rows[name][live[finite]] = col[finite]
    rows.columns.update(u=us, v=vs, skip_reason=reasons)
    return rows


def evaluate_point(spec: SurfaceSpec, u: float, v: float, order: int = 3,
                   tol: Tolerances = DEFAULT_TOLERANCES) -> PointRecord:
    """Full pointwise analysis of one point; points where it cannot run
    come back as skipped records rather than raising."""
    return evaluate_batch(spec, [(u, v)], order, tol).point(0)


def evaluate_grid(spec: SurfaceSpec, grid: tuple[int, int] = (7, 7),
                  order: int = 3, tol: Tolerances = DEFAULT_TOLERANCES
                  ) -> Records:
    """Row-major records over cell centers of the surface domain,
    evaluated BLOCK_POINTS points at a time."""
    points = cell_centers(spec.domain, *grid)
    return Records.join([
        evaluate_batch(spec, points[start:start + BLOCK_POINTS], order, tol)
        for start in range(0, len(points), BLOCK_POINTS)])


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
    statement: str
    surface: str
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


def _mean(values: Sequence[float]) -> float:
    """statistics.fmean, bit for bit, where it returns.  Its sum can leave
    the float range although the mean of finite values cannot; then the
    n values are scaled by 2^-k < 1/n, which keeps their sum in range,
    and the mean is scaled back."""
    try:
        return statistics.fmean(values)
    except OverflowError:
        k = len(values).bit_length()
        scaled = statistics.fmean([math.ldexp(x, -k) for x in values])
        return math.ldexp(scaled, k)


def _constancy(values: Sequence[float]) -> tuple[bool, float]:
    # sample sd against CONSTANCY_REL * (1 + |mean|); returns (constant?, sd)
    if len(values) < 2:
        return True, 0.0
    mean = _mean(values)
    sd = statistics.stdev(values)
    return sd <= CONSTANCY_REL * (1.0 + abs(mean)), sd


def _bound(description: str, name: str, component: Optional[int] = None):
    # the side "max |column| <= tol" on a record column, or on one
    # component of it
    def check(recs, tau):
        col = recs[name] if component is None else recs[name][:, component]
        worst = max(map(abs, col.tolist()))
        return SideResult(description, worst <= tau, worst)
    return check


_check_harmonic = _bound("harmonic Gauss map (max |direct Laplacian|)",
                         "residual_harmonic")
_check_first_kind = _bound("pointwise first-kind Gauss map Laplacian "
                           "(max |direct - h_sq nu|)", "residual_first_kind")
_check_flat = _bound("flat (max |K|)", "K", 0)
_check_fnb = _bound("flat normal bundle (max |R^D|)", "RD")
_check_parallel = _bound("parallel mean curvature vector (max |DH|)",
                         "residual_parallel_H")


def _check_global_first_kind(recs, tau):
    worst = max(recs["residual_first_kind"].tolist())
    const, sd = _constancy(recs["f_estimate"].tolist())
    return SideResult("global first-kind: pointwise first-kind with "
                      "grid-constant f", worst <= tau and const,
                      max(worst, sd))


def _check_lightlike_H(recs, tau):
    ok = all(c == "LIGHTLIKE" for c in recs["H_causal"])
    worst = max(abs(inner) / (1.0 + norm ** 2) for inner, norm
                in zip(recs["H_inner"].tolist(),
                       recs["H_norm_euclid"].tolist()))
    return SideResult("light-like mean curvature vector everywhere",
                      ok, worst)


def _check_K_constant(recs, tau):
    const, sd = _constancy(recs["K"][:, 0].tolist())
    return SideResult("grid-constant Gaussian curvature", const, sd)


def _and(*checks):
    def combined(recs, tau):
        parts = [c(recs, tau) for c in checks]
        return SideResult(" AND ".join(p.description for p in parts),
                          all(p.passes for p in parts),
                          max(p.residual for p in parts))
    return combined


def _or(*checks):
    def combined(recs, tau):
        parts = [c(recs, tau) for c in checks]
        best = min(parts, key=lambda p: p.residual)
        return SideResult(" OR ".join(p.description for p in parts),
                          any(p.passes for p in parts), best.residual)
    return combined


def _premise_any(recs, tau):
    return True, "space-like sample points exist"


def _premise_maximal(recs, tau):
    ok = all(x <= tau for x in recs["H_norm_euclid"].tolist())
    return ok, "maximal on the sample (|H| <= tol everywhere)"


def _premise_nonmaximal(recs, tau):
    ok = all(x > tau for x in recs["H_norm_euclid"].tolist())
    return ok, "non-maximal on the sample (|H| > tol everywhere)"


def _premise_lightlike(recs, tau):
    ok = all(c == "LIGHTLIKE" for c in recs["H_causal"])
    return ok, "light-like mean curvature vector on the sample"


def _premise_in_s31(recs, tau):
    positions = recs["position_inner"].tolist()
    const, _ = _constancy(positions)
    ok = const and all(p > 0 for p in positions)
    return ok, "sample lies in a de Sitter quadric (<x,x> constant > 0)"


def _premise_in_h3(recs, tau):
    positions = recs["position_inner"].tolist()
    const, _ = _constancy(positions)
    ok = const and all(p < 0 and x0 > 0 for p, x0
                       in zip(positions, recs["x"][:, 0].tolist()))
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
             _or(_bound("maximal (max |H|)", "H_norm_euclid"),
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
                                 records: Records,
                                 surface_name: str = "",
                                 tol: Tolerances = DEFAULT_TOLERANCES,
                                 ) -> TheoremVerdict:
    entry = THEOREMS.get(theorem_id)
    if entry is None:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: "
            f"{', '.join(theorem_ids())}")
    tau = tol.residual
    live = records.live()
    skipped = len(records) - len(live)
    notes = (f"numerical evidence at tolerance {tau!r} on {len(live)} "
             "sample points; not a proof, and silent beyond the sample")
    if not live:
        empty = SideResult("not evaluated (no usable points)", False,
                           math.inf)
        met, premise_text, side_a, side_b = (
            False, "no usable sample points", empty, empty)
    else:
        met, premise_text = entry.premise(live, tau)
        side_a = entry.side_a(live, tau)
        side_b = entry.side_b(live, tau)
    # A failed premise makes the statement say nothing here, so the
    # sample cannot contradict it.
    return TheoremVerdict(
        theorem_id=theorem_id, statement=entry.statement,
        surface=surface_name, premise=premise_text, premise_met=met,
        vacuous=not met, side_a=side_a, side_b=side_b,
        consistent=not met or side_a.passes == side_b.passes,
        tolerance=tau, points=len(live), skipped=skipped, notes=notes)
