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
computed in.  A block is one ``PointGeometry`` at the run's order; only
Delta^2 x needs order 4, and every other field is the same at order 3.
"""

import math
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import jets as jt
from . import linalg as la
from .geometry import (CONSTANCY_REL, DEFAULT_TOLERANCES, LABELS,
                       PointGeometry, Tolerances)
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
    "column_stats",
    "TERM_NAMES",
]


class NotApplicable(Exception):
    """A check's preconditions fail at this point."""


class UnknownTheorem(Exception):
    """The requested verdict id is not in the registry."""


TERM_NAMES = ("nu", "normal_curvature", "grad_trace3", "grad_trace4",
              "rotation")

_QUADRIC = np.array([label in ("IN-S31", "IN-H3", "IN-LIGHTCONE")
                     for label in LABELS])


class GaussLaplacianDecomposition(NamedTuple):
    """Both routes to the Gauss map Laplacian at one point, with the
    structural route recorded term group by term group.

    formula = c_nu * nu + c_norm * (e1 ^ e2) + grad3 ^ e4 + e3 ^ grad4
              + 2 * sum_j omega34(e_j) H ^ e_j,
    where grad_beta = sum_i e_i(trace A_beta) e_i.  The residuals are
    Euclidean norms over the six bivector components of the direct
    route: residual_first_kind = |direct - h_sq * nu|, residual_harmonic
    = |direct|.  f_estimate is f identified by projection, f = -<direct,
    nu> with the indefinite bivector product, independent of reading off
    the h_sq coefficient.
    """

    direct: np.ndarray
    formula: np.ndarray
    c_nu: float
    c_norm: float
    grad_trA3: tuple[float, float]
    grad_trA4: tuple[float, float]
    residual_first_kind: float
    residual_harmonic: float
    residual_route: float
    f_estimate: float


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
        direct=direct, formula=formula,
        c_nu=pg.h_sq, c_norm=2.0 * pg.RD,
        grad_trA3=grad3, grad_trA4=grad4,
        residual_first_kind=first_kind, residual_harmonic=harmonic,
        residual_route=route,
        f_estimate=-la.bivector_inner(direct, nu_vals))


def first_kind_residuals(decomp: GaussLaplacianDecomposition,
                         ) -> tuple[float, float, float]:
    """(first-kind residual, harmonic residual, f estimate)."""
    return (decomp.residual_first_kind, decomp.residual_harmonic,
            decomp.f_estimate)


def _lemma42(pg: PointGeometry):
    # (where the relation applies, its residual) at each point
    applies = pg.label_masks["MAXIMAL"] & pg.label_masks["FLAT-NORMAL-BUNDLE"]
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

class PointRecord(NamedTuple):
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


def _names(mask) -> tuple[str, ...]:
    # the labels of one row of a label mask column, sorted
    return tuple(label for label, on in zip(LABELS, mask) if on)


class Records:
    """The records of a sequence of grid points, one numpy column per
    ``PointRecord`` field, with one row per point, and ``tol``, the
    tolerances they were evaluated at; the verdicts judge a block at its
    own ``tol``.

    A field's default fixes its column: a float, or a non-empty tuple of
    floats, gives a float64 column of shape (n,) or (n, k); a bool gives
    a bool column, and labels one mask per label of ``LABELS``, of shape
    (n, len(LABELS)); anything else (skip_reason, H_causal, lemma42,
    bilaplacian_norm) gives an object column.

    Nothing mutates a block once ``evaluate_batch`` has returned it, so
    what is derived from its columns (``live``, ``position_stats``,
    ``label_extent`` and the rest) is computed once per block and kept.
    """

    def __init__(self, columns: dict[str, np.ndarray], tol: Tolerances):
        self.columns = columns
        self.tol = tol

    @staticmethod
    def of(rows: Sequence[PointRecord]) -> "Records":
        """The block holding ``rows``, in order, at the default
        tolerances."""
        n = len(rows)

        def column(name, default):
            values = [getattr(row, name) for row in rows]
            if name == "labels":  # a label not in LABELS raises ValueError
                masks = np.zeros((n, len(LABELS)), dtype=bool)
                for k, row in enumerate(values):
                    masks[k, [LABELS.index(label) for label in row]] = True
                return masks
            if isinstance(default, bool):
                return np.array(values, dtype=bool)
            if isinstance(default, (float, tuple)):
                return np.array(values, dtype=float).reshape(
                    n, *np.shape(default))
            return np.array(values, dtype=object)

        return Records({name: column(name, default) for name, default
                        in PointRecord._field_defaults.items()},
                       DEFAULT_TOLERANCES)

    def __len__(self) -> int:
        return len(self.columns["ok"])

    def __getitem__(self, name: str) -> np.ndarray:
        return self.columns[name]

    @staticmethod
    def join(blocks: "Sequence[Records]") -> "Records":
        """The rows of each block in turn, at the first block's ``tol``
        (``evaluate_grid`` evaluates every block at one)."""
        return Records({name: np.concatenate([b[name] for b in blocks])
                        for name in blocks[0].columns}, blocks[0].tol)

    def select(self, rows) -> "Records":
        """The records at ``rows``: a slice, row indices or a row mask."""
        return Records({name: col[rows] for name, col in self.columns.items()},
                       self.tol)

    def lists(self, name: str) -> list[list]:
        """A column as Python lists, one per component of its field;
        floats come out of ``.tolist()`` bit for bit, labels as names."""
        col = self.columns[name]
        if name == "labels":
            return [list(map(_names, col.tolist()))]
        return col.T.tolist() if col.ndim == 2 else [col.tolist()]

    @cached_property
    def position_stats(self) -> dict[str, float]:
        """``column_stats`` of <x, x>, which the summary reports."""
        return column_stats(self["position_inner"].tolist())

    @cached_property
    def position_constant(self) -> bool:
        """Whether <x, x> is grid-constant (``_constant``)."""
        return len(self) < 2 or _constant(self.position_stats)

    @cached_property
    def label_extent(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """The labels held at every point and at some point (none on no
        points); a quadric label counts everywhere only if <x, x> is
        grid-constant.  Premises, verdict sides and the summary read it."""
        masks = self["labels"]
        somewhere = masks.any(axis=0)
        everywhere = masks.all(axis=0) & somewhere
        if (everywhere & _QUADRIC).any() and not self.position_constant:
            everywhere &= ~_QUADRIC
        return _names(everywhere), _names(somewhere)

    @cached_property
    def live(self) -> "Records":
        """The records of the evaluated points."""
        ok = self.columns["ok"]
        return self if ok.all() else self.select(ok)

    def point(self, k: int) -> PointRecord:
        """Row k as a ``PointRecord``, from its ``lists``."""
        row = self.select(slice(k, k + 1))
        fields = {name: [x for x, in row.lists(name)] for name in self.columns}
        return PointRecord(**{name: x[0] if len(x) == 1 else tuple(x)
                              for name, x in fields.items()})


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


def _live_block(pg: PointGeometry) -> tuple[Records, np.ndarray]:
    # The records of the points of pg, which all have a space-like
    # metric, and which of them hold only finite values.  A value has the
    # point axis last, so its column is a row-layout copy of its transpose
    # (always a copy, so that no column keeps a larger array alive); the
    # float columns are checked for finiteness in one pass, side by side.
    us, vs = pg.base
    n = len(us)
    d = laplacian_gauss_formula(pg)
    h = pg._h.value()
    values = {
        "g": [j.value() for j in pg.metric_jets],
        "x": pg.x_values, "position_inner": pg.position_inner, "nu": pg.nu,
        "omega12": pg.omega12, "omega34": pg.omega34,
        "h3": h[0], "h4": h[1],  # ij = 11, 12, 22
        "H": pg.H, "H_inner": pg.H_inner, "H_norm_euclid": pg.H_norm_euclid,
        "h_sq": pg.h_sq,
        "K": [pg.K_gauss, pg.K_formula, pg.K_intrinsic], "RD": pg.RD,
        "laplacian_x": pg.laplacian_x,
        "dnu_direct": d.direct, "dnu_formula": d.formula,
        "c_nu": d.c_nu, "c_norm": d.c_norm,
        "grad_trA3": d.grad_trA3, "grad_trA4": d.grad_trA4,
        "residual_frame": pg.residual_frame,
        "residual_codazzi": pg.residual_codazzi,
        "residual_parallel_H": pg.residual_parallel_H,
        "residual_beltrami": pg.residual_beltrami,
        "residual_route": d.residual_route,
        "residual_first_kind": d.residual_first_kind,
        "residual_harmonic": d.residual_harmonic,
        "f_estimate": d.f_estimate,
        "labels": [pg.label_masks[label] for label in LABELS],
    }
    if pg.order == 4:
        values["bilaplacian_norm"] = la.euclid_norm(pg.bilaplacian_x)
    cols = {name: np.asarray(x).T.copy() for name, x in values.items()}
    labels = cols.pop("labels")
    lemma_applies, lemma = _lemma42(pg)
    finite = (np.isfinite(np.concatenate(
        [col.reshape(n, -1) for col in cols.values()], axis=1)).all(axis=1)
              & (~lemma_applies | np.isfinite(lemma)))
    bilaplacian = cols.pop("bilaplacian_norm", None)
    cols.update(
        labels=labels, u=us, v=vs, ok=np.ones(n, dtype=bool),
        skip_reason=np.full(n, None),
        H_causal=pg.H_causal,
        lemma42=np.array([x if applies else None for x, applies in zip(
            lemma.tolist(), lemma_applies.tolist())], dtype=object),
        bilaplacian_norm=np.array([None] * n if bilaplacian is None
                                  else bilaplacian.tolist(), dtype=object))
    return Records(cols, pg.tol), finite


def _skipped_rows(n: int, tol: Tolerances) -> Records:
    # n rows that each repeat PointRecord()'s
    return Records({name: col[np.zeros(n, dtype=int)]
                    for name, col in _SKIPPED_ROW.columns.items()}, tol)


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
    numpy floating-point warnings are silenced for the batch.  The block
    carries ``tol``.
    """
    n = len(points)
    us = np.array([float(u) for u, _ in points])
    vs = np.array([float(v) for _, v in points])
    reasons = np.full(n, None, dtype=object)
    live = np.arange(n)
    block, finite = _skipped_rows(0, tol), np.ones(0, dtype=bool)
    # Each pass runs the live points as one batch and restarts without the
    # points it skips, so a mask names points of the batch that raised it.
    with np.errstate(all="ignore"):
        while live.size:
            try:
                base = (us[live], vs[live])
                pg = PointGeometry(evaluate_immersion(spec, *base, order),
                                   base, tol)
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
    rows = _skipped_rows(n, tol)
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
    blocks = [evaluate_batch(spec, points[start:start + BLOCK_POINTS],
                             order, tol)
              for start in range(0, len(points), BLOCK_POINTS)]
    return blocks[0] if len(blocks) == 1 else Records.join(blocks)


# -- theorem verdicts -----------------------------------------------------

class SideResult(NamedTuple):
    description: str
    passes: bool
    residual: float


class TheoremVerdict(NamedTuple):
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
    """fsum / n, which is statistics.fmean bit for bit.  The sum can
    leave the float range although the mean of finite values cannot;
    then the n values are scaled by 2^-k < 1/n, which keeps their sum in
    range, and the mean is scaled back."""
    n = len(values)
    try:
        return math.fsum(values) / n
    except OverflowError:
        k = n.bit_length()
        scaled = math.fsum([math.ldexp(x, -k) for x in values]) / n
        return math.ldexp(scaled, k)


def _stdev(values: Sequence[float]) -> float:
    """The sample standard deviation of n >= 2 finite values, exact and
    correctly rounded, so statistics.stdev of Python 3.11+ bit for bit.

    Every value is an integer times 2^-s for one s, so the variance is
    the fraction (n sum X^2 - (sum X)^2) / (n (n - 1) 4^s) of integers
    X.  Its square root is taken in integers to at least 55 bits with
    round-to-odd (the low bit set when inexact), and the one rounding to
    a float at the end is then correct.  As stdev does, it raises
    OverflowError where the sd exceeds the float range."""
    n = len(values)
    ratios = [x.as_integer_ratio() for x in values]  # denominators 2^k
    s = max(d.bit_length() for _, d in ratios) - 1
    xs = [m << (s + 1 - d.bit_length()) for m, d in ratios]
    total = sum(xs)
    num = n * sum(x * x for x in xs) - total * total
    den = n * (n - 1) << 2 * s
    # num / den times 4^-q is at least 2^108, so its root keeps 55 bits
    q = (num.bit_length() - den.bit_length() - 109) // 2
    if q >= 0:
        den <<= 2 * q
    else:
        num <<= -2 * q
    root = math.isqrt(num // den)
    root |= root * root * den != num
    return float(root << q) if q >= 0 else root / (1 << -q)


def column_stats(values: Sequence[float]) -> dict[str, float]:
    """The mean, sample sd, min and max of n >= 1 finite values (a
    summary's statistics of a column).  The sd of one value is 0, and an
    sd past the float range is inf."""
    try:
        sd = _stdev(values) if len(values) > 1 else 0.0
    except OverflowError:
        sd = math.inf
    return {"mean": _mean(values), "sd": sd,
            "min": min(values), "max": max(values)}


def _constant(stats: dict[str, float]) -> bool:
    # the grid-constancy rule: sample sd within CONSTANCY_REL * (1 + |mean|)
    return stats["sd"] <= CONSTANCY_REL * (1.0 + abs(stats["mean"]))


def _constancy(values: Sequence[float]) -> tuple[bool, float]:
    # (constant?, sd) of a column; fewer than two values are constant
    if len(values) < 2:
        return True, 0.0
    stats = column_stats(values)
    return _constant(stats), stats["sd"]


def _side(description: str, name: str, label: Optional[str] = None,
          component: Optional[int] = None):
    # the side with residual max |column| (or |one component|); it passes
    # where the label holds everywhere, or with no label where max <= the
    # records' tolerance
    def check(recs):
        col = recs[name] if component is None else recs[name][:, component]
        worst = max(map(abs, col.tolist()))
        passes = (worst <= recs.tol.residual if label is None
                  else label in recs.label_extent[0])
        return SideResult(description, passes, worst)
    return check


_check_harmonic = _side("harmonic Gauss map (max |direct Laplacian|)",
                        "residual_harmonic")
_check_first_kind = _side("pointwise first-kind Gauss map Laplacian "
                          "(max |direct - h_sq nu|)", "residual_first_kind")
_check_flat = _side("flat (max |K|)", "K", "FLAT", 0)
_check_fnb = _side("flat normal bundle (max |R^D|)", "RD",
                   "FLAT-NORMAL-BUNDLE")
_check_parallel = _side("parallel mean curvature vector (max |DH|)",
                        "residual_parallel_H", "PARALLEL-H")


def _check_global_first_kind(recs):
    worst = max(recs["residual_first_kind"].tolist())
    const, sd = _constancy(recs["f_estimate"].tolist())
    return SideResult("global first-kind: pointwise first-kind with "
                      "grid-constant f", worst <= recs.tol.residual and const,
                      max(worst, sd))


def _check_lightlike_H(recs):
    ok = "MARGINALLY-TRAPPED" in recs.label_extent[0]
    worst = max(abs(inner) / (1.0 + norm ** 2) for inner, norm
                in zip(recs["H_inner"].tolist(),
                       recs["H_norm_euclid"].tolist()))
    return SideResult("light-like mean curvature vector everywhere",
                      ok, worst)


def _check_K_constant(recs):
    const, sd = _constancy(recs["K"][:, 0].tolist())
    return SideResult("grid-constant Gaussian curvature", const, sd)


def _and(*checks):
    def combined(recs):
        parts = [c(recs) for c in checks]
        return SideResult(" AND ".join(p.description for p in parts),
                          all(p.passes for p in parts),
                          max(p.residual for p in parts))
    return combined


def _or(*checks):
    def combined(recs):
        parts = [c(recs) for c in checks]
        best = min(parts, key=lambda p: p.residual)
        return SideResult(" OR ".join(p.description for p in parts),
                          any(p.passes for p in parts), best.residual)
    return combined


# A premise is (text, label, held): the label holds at every point
# (held) or at none; no label is the premise that live points exist.
_ANY = ("space-like sample points exist", None, True)
_MAXIMAL = ("maximal on the sample (|H| <= tol everywhere)", "MAXIMAL", True)
_NONMAXIMAL = ("non-maximal on the sample (|H| > tol everywhere)",
               "MAXIMAL", False)
_LIGHTLIKE = ("light-like mean curvature vector on the sample",
              "MARGINALLY-TRAPPED", True)
_IN_S31 = ("sample lies in a de Sitter quadric (<x,x> constant > 0)",
           "IN-S31", True)
_IN_H3 = ("sample lies in a hyperbolic quadric (<x,x> constant < 0)",
          "IN-H3", True)


class _TheoremEntry(NamedTuple):
    statement: str
    premise: tuple[str, Optional[str], bool]
    side_a: Callable
    side_b: Callable


THEOREMS: dict[str, _TheoremEntry] = {
    "T3.4": _TheoremEntry(
        "maximal: harmonic Gauss map iff flat with flat normal bundle",
        _MAXIMAL, _check_harmonic, _and(_check_flat, _check_fnb)),
    "T3.5": _TheoremEntry(
        "non-maximal: harmonic Gauss map iff flat with light-like "
        "parallel mean curvature vector",
        _NONMAXIMAL, _check_harmonic,
        _and(_check_flat, _check_lightlike_H, _check_parallel)),
    "T3.7": _TheoremEntry(
        "harmonic Gauss map iff flat, flat normal bundle, and either "
        "maximal or light-like parallel mean curvature (the checkable "
        "content of the six-type classification)",
        _ANY, _check_harmonic,
        _and(_check_flat, _check_fnb,
             _or(_side("maximal (max |H|)", "H_norm_euclid", "MAXIMAL"),
                 _and(_check_lightlike_H, _check_parallel)))),
    "T3.9": _TheoremEntry(
        "in a de Sitter quadric: flat with light-like parallel mean "
        "curvature iff harmonic Gauss map",
        _IN_S31,
        _and(_check_flat, _check_lightlike_H, _check_parallel),
        _check_harmonic),
    "T3.10": _TheoremEntry(
        "in a hyperbolic quadric: flat with light-like parallel mean "
        "curvature iff harmonic Gauss map",
        _IN_H3,
        _and(_check_flat, _check_lightlike_H, _check_parallel),
        _check_harmonic),
    "T4.1": _TheoremEntry(
        "maximal: pointwise first-kind Gauss map iff flat normal bundle",
        _MAXIMAL, _check_first_kind, _check_fnb),
    "T4.3": _TheoremEntry(
        "maximal: global first-kind Gauss map iff harmonic Gauss map",
        _MAXIMAL, _check_global_first_kind, _check_harmonic),
    "T4.4": _TheoremEntry(
        "non-maximal: pointwise first-kind Gauss map iff parallel mean "
        "curvature vector",
        _NONMAXIMAL, _check_first_kind, _check_parallel),
    "T4.6": _TheoremEntry(
        "light-like mean curvature: global first-kind Gauss map iff "
        "harmonic Gauss map",
        _LIGHTLIKE, _check_global_first_kind, _check_harmonic),
    "T4.8": _TheoremEntry(
        "non-maximal: global first-kind Gauss map iff parallel mean "
        "curvature vector and grid-constant Gaussian curvature",
        _NONMAXIMAL, _check_global_first_kind,
        _and(_check_parallel, _check_K_constant)),
}
# The catalog-facing id of the same six-type statement.
THEOREMS["T3.11"] = THEOREMS["T3.7"]


def theorem_ids() -> tuple[str, ...]:
    return tuple(sorted(THEOREMS))


def theorem_verdict_from_records(theorem_id: str,
                                 records: Records,
                                 surface_name: str = "",
                                 ) -> TheoremVerdict:
    """The verdict of one registry entry on ``records``, judged at the
    tolerance they were evaluated at (``records.tol``)."""
    entry = THEOREMS.get(theorem_id)
    if entry is None:
        raise UnknownTheorem(
            f"unknown theorem id {theorem_id!r}; known: "
            f"{', '.join(theorem_ids())}")
    tau = records.tol.residual
    live = records.live
    skipped = len(records) - len(live)
    notes = (f"numerical evidence at tolerance {tau!r} on {len(live)} "
             "sample points; not a proof, and silent beyond the sample")
    if not live:
        empty = SideResult("not evaluated (no usable points)", False,
                           math.inf)
        met, premise_text, side_a, side_b = (
            False, "no usable sample points", empty, empty)
    else:
        premise_text, label, held = entry.premise
        everywhere, somewhere = live.label_extent
        met = label is None or (label in everywhere if held
                                else label not in somewhere)
        side_a = entry.side_a(live)
        side_b = entry.side_b(live)
    # A failed premise makes the statement say nothing here, so the
    # sample cannot contradict it.
    return TheoremVerdict(
        theorem_id=theorem_id, statement=entry.statement,
        surface=surface_name, premise=premise_text, premise_met=met,
        vacuous=not met, side_a=side_a, side_b=side_b,
        consistent=not met or side_a.passes == side_b.passes,
        tolerance=tau, points=len(live), skipped=skipped, notes=notes)
