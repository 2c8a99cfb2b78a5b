"""Pointwise extrinsic geometry of a space-like surface.

Everything here is computed from jets of the immersion at a batch of
parameter points (one point is the batch ``()``): induced metric, an
adapted orthonormal frame (tangent pair plus a space-like and a
time-like normal), connection forms, second fundamental form and shape
operators, mean curvature vector, Gaussian curvature by three
independent routes, normal curvature, the position Laplacian, and
residuals that measure how well the structural identities hold.

Conventions, fixed once for the whole package:
  * ambient signature (-, +, +, +), first component time-like;
  * normal frame ordered space-like first: <e3, e3> = +1, <e4, e4> = -1,
    with e4 the unit normal part of the time axis;
  * e3 ^ e4 equals the dual unit normal bivector (the Gauss map value),
    which makes det[e1 e2 e3 e4] > 0;
  * the Laplacian is the geometer's one, Delta f = -div grad f on
    functions, so Delta x = -2 H.

Value-level results are floats for one point and per-point arrays for a
batch; every value is bit-for-bit the one the point gets alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import jets as jt
from . import linalg as la
from .jets import Jet, OrderExceeded
from .linalg import CausalClass, DegeneratePlane, causal_character

__all__ = [
    "Tolerances",
    "NotSpacelike",
    "PointGeometry",
    "second_fundamental_form",
    "mean_curvature_vector",
    "squared_second_fundamental_form",
    "gaussian_curvature",
    "normal_curvature_RD",
    "parallel_H_residual",
    "position_laplacian",
    "classify_point",
]

class NotSpacelike(Exception):
    """The induced metric fails to be positive definite at the point.

    Carries ``eigenvalue_signs`` of the 2x2 metric for diagnosis.
    """

    def __init__(self, message: str, eigenvalue_signs: tuple[int, int]):
        super().__init__(message)
        self.eigenvalue_signs = eigenvalue_signs


# The scale-aware causal classifier's cutoff, the relative cutoff on
# grid constancy, and the Gram cutoff below which a point is skipped as
# degenerate.
CAUSAL_TOL = 1e-9
CONSTANCY_REL = 1e-6
DEGENERATE_TOL = 1e-12


@dataclass(frozen=True, slots=True)
class Tolerances:
    """The settable tolerance: residual, the absolute cutoff on identity
    residuals and pointwise predicates; it must be finite and positive.
    """

    residual: float = 1e-8

    def __post_init__(self):
        if not (math.isfinite(self.residual) and self.residual > 0):
            raise ValueError(f"tolerance residual must be finite and "
                             f"positive, got {self.residual!r}")


DEFAULT_TOLERANCES = Tolerances()

# Operands of the products a_i a_j, a_i b_j, b_i a_j, b_i b_j (in blocks
# of three, ij = 11, 12, 22) in the stack (a_1, a_2, b_1, b_2).
_H_LEFT = [0, 0, 1, 0, 0, 1, 2, 2, 3, 2, 2, 3]
_H_RIGHT = [0, 1, 1, 2, 3, 3, 0, 1, 1, 2, 3, 3]


def _matrices(rows) -> np.ndarray:
    """A C-contiguous (*batch, n, n) stack from n rows of n per-point
    values, the layout np.linalg.det and @ take one matrix at a time."""
    return np.stack([np.stack(np.broadcast_arrays(*row), axis=-1)
                     for row in rows], axis=-2)


@dataclass(frozen=True)
class Frame:
    """Adapted frame at a point, carried as jets.

    e[0], e[1] span the tangent plane (epsilon +1 each), e[2] is the
    space-like normal, e[3] the time-like normal.  a[i], b[i] are the
    coordinate coefficient jets with e_i = a_i x_u + b_i x_v, and
    nu = e[2] ^ e[3] is the Gauss map value.
    """

    e: tuple[Jet, Jet, Jet, Jet]
    a: tuple[Jet, Jet]
    b: tuple[Jet, Jet]
    nu: Jet


class PointGeometry:
    """All frame, form, and curvature data of a batch of surface points.

    Built lazily: each stage materializes on first access and is cached.
    Instances are immutable by convention (nothing mutates after
    construction).  The batch is that of the immersion jets; ``base``
    holds the parameter values, numbers or per-point arrays.
    """

    def __init__(self, xjets, base=(0.0, 0.0),
                 tol: Tolerances = DEFAULT_TOLERANCES):
        if len(xjets) != 4:
            raise ValueError("xjets must have 4 components")
        self.xjets = tuple(xjets)
        self.base = base
        self.tol = tol
        self.order = self.xjets[0].order
        self.batch = self.xjets[0].batch

    # -- first fundamental form ---------------------------------------

    @cached_property
    def x(self) -> Jet:
        return jt.stack(self.xjets)

    @cached_property
    def x_values(self) -> np.ndarray:
        return self.x.value()

    @cached_property
    def _partials(self) -> Jet:
        """x_u and x_v as one stack of shape (4, 2, *batch)."""
        x = self.x
        return jt.stack([x.deriv_u(), x.deriv_v()], axis=1)

    @cached_property
    def _metric(self) -> Jet:
        """(E, F, G) = (<x_u, x_u>, <x_u, x_v>, <x_v, x_v>) as one stack."""
        d = self._partials
        return la.minkowski_inner(d[:, [0, 0, 1]], d[:, [0, 1, 1]])

    @cached_property
    def metric_jets(self) -> tuple[Jet, Jet, Jet]:
        g = self._metric
        return g[0], g[1], g[2]

    @cached_property
    def metric_det_jet(self) -> Jet:
        # E G - F F
        g = self._metric
        p = g[[0, 1]] * g[[2, 1]]
        return p[0] - p[1]

    @cached_property
    def _gram(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        # g11, g22 and det g at each point
        E, F, G = (j.value() for j in self.metric_jets)
        return E, G, E * G - F * F

    @cached_property
    def skip_reasons(self) -> np.ndarray:
        """Per point: None where the metric is positive definite, else
        "degenerate" (|det g| within tolerance) or "not-spacelike"."""
        g11, _, det = self._gram
        reasons = np.full(self.batch, None, dtype=object)
        reasons[(g11 <= 0.0) | (det < 0.0)] = "not-spacelike"
        reasons[abs(det) <= DEGENERATE_TOL] = "degenerate"
        return reasons

    def require_spacelike(self) -> None:
        """Raise for the first point whose metric is not positive definite."""
        reasons = np.ravel(self.skip_reasons)
        bad = np.flatnonzero(reasons != None)  # noqa: E711 - elementwise
        if not bad.size:
            return
        first = bad[0]
        g11, g22, det = (float(np.ravel(x)[first]) for x in self._gram)
        base = tuple(float(np.ravel(b)[first]) for b in self.base)
        if reasons[first] == "degenerate":
            raise DegeneratePlane(
                f"tangent Gram determinant {det!r} at {base} is degenerate")
        if det < 0:
            signs = (1, -1)
        else:
            signs = (1, 1) if g11 + g22 > 0 else (-1, -1)
        raise NotSpacelike(
            f"induced metric not positive definite at {base}: "
            f"g11={g11!r}, det={det!r}, eigenvalue signs {signs}", signs)

    # -- adapted frame --------------------------------------------------

    @cached_property
    def nu_jets(self) -> Jet:
        """The Gauss map value as a jet-valued unit bivector."""
        return self.frame.nu

    @cached_property
    def nu(self) -> np.ndarray:
        return self.nu_jets.value()

    @cached_property
    def frame(self) -> Frame:
        self.require_spacelike()
        E, F, _ = self.metric_jets
        inv_E = jt.reciprocal(E)
        # det g / E, which is |x_v - (F/E) x_u|^2, and F / E
        q = jt.stack([self.metric_det_jet, F]) * inv_E[None]
        roots = jt.sqrt(jt.stack([inv_E, q[0]]))
        a1 = roots[0]
        b1 = Jet.constant(np.zeros(self.batch), a1.order)
        inv_mu = jt.reciprocal(roots[1])
        a2 = -q[1] * inv_mu
        b2 = inv_mu
        # a1 x_u, a2 x_u and b2 x_v; e1 is the first, e2 the sum of the others
        p = jt.stack([a1, a2, b2])[None] * self._partials[:, [0, 0, 1]]
        e1, e2 = p[:, 0], p[:, 1] + p[:, 2]
        e3, e4, nu = la.normal_frame(e1, e2, jt.sqrt)
        return Frame(e=(e1, e2, e3, e4), a=(a1, a2), b=(b1, b2), nu=nu)

    @cached_property
    def frame_values(self) -> tuple[np.ndarray, ...]:
        return tuple(e.value() for e in self.frame.e)

    @cached_property
    def residual_frame(self) -> float:
        """Max deviation of the frame Gram matrix from diag(1, 1, 1, -1)."""
        vals = np.stack(self.frame_values, axis=1)
        i, j = np.triu_indices(4)
        got = la.minkowski_inner(vals[:, i], vals[:, j])
        want = np.diag([1.0, 1.0, 1.0, -1.0])[i, j]
        return np.maximum.reduce(
            abs(got - want.reshape(want.shape + (1,) * len(self.batch))))

    def along(self, f: Jet) -> np.ndarray:
        """e_1(f) and e_2(f), the derivatives of a jet (or of each jet of a
        stack) along the tangent frame, as values on a new leading axis:
        e_i(f) = a_i f_u + b_i f_v."""
        shape = (2,) + (1,) * (len(f.batch) - len(self.batch)) + self.batch
        a, b = (np.reshape([c.value() for c in coeffs], shape)
                for coeffs in (self.frame.a, self.frame.b))
        return a * f.partial(1, 0) + b * f.partial(0, 1)

    # Connection forms omega_AB(e_i) = <flat derivative of e_A along e_i,
    # e_B>, i = 1, 2; antisymmetric in (A, B) by metric compatibility.

    @cached_property
    def omega12(self) -> tuple[float, float]:
        d = np.moveaxis(self.along(self.frame.e[0]), 0, 1)
        w = la.minkowski_inner(d, self.frame_values[1][:, None])
        return w[0], w[1]

    @cached_property
    def omega34(self) -> tuple[float, float]:
        d = np.moveaxis(self.along(self.frame.e[2]), 0, 1)
        w = la.minkowski_inner(d, self.frame_values[3][:, None])
        return w[0], w[1]

    # -- second fundamental form ----------------------------------------

    @cached_property
    def _normals(self) -> Jet:
        """e3 and e4 as one stack of shape (4, 2, *batch)."""
        return jt.stack(self.frame.e[2:], axis=1)

    @cached_property
    def _h(self) -> Jet:
        """Second-fundamental-form coefficients h^beta_ij as one stack of
        shape (2, 3, *batch): beta = 3, 4 by ij = 11, 12, 22.

        Built from the symmetric expansion
        h^beta_ij = a_i a_j <x_uu, e_b> + (a_i b_j + b_i a_j) <x_uv, e_b>
                    + b_i b_j <x_vv, e_b>,
        which drops the tangential derivative-of-coefficient terms exactly
        and makes h^beta_12 = h^beta_21 structural.
        """
        f = self.frame
        d = self._partials
        du, dv = d.deriv_u(), d.deriv_v()
        second = jt.stack([du[:, 0], dv[:, 0], dv[:, 1]], axis=1)
        # <x_uu, e_b>, <x_uv, e_b>, <x_vv, e_b> by beta, shape (2, 3, *batch)
        p = la.minkowski_inner(second[:, None], self._normals[:, :, None])
        ab = jt.stack([f.a[0], f.a[1], f.b[0], f.b[1]])
        c = ab[_H_LEFT] * ab[_H_RIGHT]
        # the three coefficients of each h_ij, shape (3, 3, *batch)
        coef = jt.stack([c[0:3], c[3:6] + c[6:9], c[9:12]])
        t = coef[None] * p[:, :, None]
        return t[:, 0] + t[:, 1] + t[:, 2]

    @cached_property
    def shape_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(A3, A4) in the tangent frame, shape (*batch, 2, 2); symmetric
        by construction."""
        h = self._h.value()
        return tuple(_matrices([[h[b, 0], h[b, 1]], [h[b, 1], h[b, 2]]])
                     for b in (0, 1))

    @cached_property
    def trace_jets(self) -> Jet:
        """trace A3 and trace A4 as one stack."""
        return self._h[:, 0] + self._h[:, 2]

    @cached_property
    def H_jets(self) -> Jet:
        """Mean curvature vector as jets: (trA3 e3 - trA4 e4) / 2."""
        t = (self.trace_jets * 0.5)[None] * self._normals
        return t[:, 0] - t[:, 1]

    @cached_property
    def H(self) -> np.ndarray:
        return self.H_jets.value()

    @cached_property
    def H_inner(self):
        return la.minkowski_inner(self.H, self.H)

    @cached_property
    def H_norm_euclid(self):
        return la.euclid_norm(self.H)

    @cached_property
    def H_causal(self):
        """CausalClass of H; an object array of them for a batch."""
        return causal_character(self.H, CAUSAL_TOL)

    @cached_property
    def h_sq_jet(self) -> Jet:
        """The signed squared norm of h (may be negative)."""
        sq = self._h ** 2
        s = sq[:, 0] + sq[:, 1] * 2.0 + sq[:, 2]
        return s[0] + -s[1]

    @cached_property
    def h_sq(self):
        return self.h_sq_jet.value()

    # -- curvatures ------------------------------------------------------

    @cached_property
    def K_gauss(self):
        A3, A4 = self.shape_operators
        return np.linalg.det(A3) - np.linalg.det(A4)

    @cached_property
    def K_formula(self):
        return 2.0 * self.H_inner - self.h_sq / 2.0

    @cached_property
    def K_intrinsic(self):
        """Brioschi expression in the metric jets; intrinsic oracle."""
        E, F, G = self.metric_jets
        Ev, Eu = E.partial(0, 1), E.partial(1, 0)
        Evv = E.partial(0, 2)
        Fu, Fv = F.partial(1, 0), F.partial(0, 1)
        Fuv = F.partial(1, 1)
        Gu, Gv = G.partial(1, 0), G.partial(0, 1)
        Guu = G.partial(2, 0)
        e0, f0, g0 = E.value(), F.value(), G.value()
        m1 = _matrices([
            [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
            [Fv - 0.5 * Gu, e0, f0],
            [0.5 * Gv, f0, g0],
        ])
        m2 = _matrices([
            [0.0, 0.5 * Ev, 0.5 * Gu],
            [0.5 * Ev, e0, f0],
            [0.5 * Gu, f0, g0],
        ])
        det_g = e0 * g0 - f0 * f0
        return ((np.linalg.det(m1) - np.linalg.det(m2))
                / np.float_power(det_g, 2))

    @cached_property
    def RD(self):
        """Normal curvature component <[A3, A4] e1, e2>."""
        A3, A4 = self.shape_operators
        comm = A3 @ A4 - A4 @ A3
        return comm[..., 1, 0]

    # -- residuals --------------------------------------------------------

    @cached_property
    def residual_parallel_H(self):
        """Euclidean size of the normal part of the ambient derivative of H,
        summed over both tangent directions; zero iff DH = 0."""
        # the derivatives along e_1 and e_2 on the axis after the components
        w = np.moveaxis(self.along(self.H_jets), 0, 1)
        e1v, e2v = (e[:, None] for e in self.frame_values[:2])
        tang1 = la.minkowski_inner(w, e1v)
        tang2 = la.minkowski_inner(w, e2v)
        normal = la.euclid_norm(w - tang1 * e1v - tang2 * e2v)
        return normal[0] + normal[1]

    def codazzi_residual(self, omega12_shift: float = 0.0):
        """Max defect of the covariant symmetry h^beta_{ij,k} = h^beta_{jk,i}
        over all index triples."""
        # h^beta_{jk,i} as an array indexed [beta, i, j, k, *batch]: the flat
        # derivative along e_i of the coefficient, a normal-connection
        # rotation, and two Levi-Civita correction terms.
        sym = [[0, 1], [1, 2]]  # h_jk in the (11, 12, 22) stack
        h = self._h.value()[:, sym]
        flat = np.moveaxis(self.along(self._h)[:, :, sym], 0, 1)
        # sum_gamma eps_gamma h^gamma_jk omega_{gamma beta}(e_i); the
        # gamma = beta term vanishes, and both cross terms reduce to
        # +h^other omega_34 since eps_4 omega_43 = +omega_34.
        rot = h[::-1, None] * np.array(self.omega34)[None, :, None, None]
        # omega in the tangent indices, [i, p, q]: omega_12(e_i) = w12,
        # omega_21 = -w12, and 0.0 on the diagonal
        w12 = np.array(self.omega12) + omega12_shift
        zero = np.zeros_like(w12)
        w = np.moveaxis(np.array([[zero, w12], [-w12, zero]]), 2, 0)
        levi = sum(w[None, :, :, None, ell] * h[:, None, None, ell]
                   + w[None, :, None, :, ell] * h[:, None, :, None, ell]
                   for ell in (0, 1))
        cov = flat + rot - levi
        # h^beta_{jk,i} against h^beta_{ij,k}, which sits at [beta, k, i, j]
        return np.max(abs(np.moveaxis(cov, 1, 3) - cov), axis=(0, 1, 2, 3))

    @cached_property
    def residual_codazzi(self):
        return self.codazzi_residual()

    # -- Laplace operator --------------------------------------------------

    @cached_property
    def _laplace_coeffs(self) -> tuple[Jet, Jet]:
        # (P, Q, Q, R) = (G, -F, -F, E) / W as one stack, and 1 / W
        W = jt.sqrt(self.metric_det_jet)
        invW = jt.reciprocal(W)
        r = self._metric[[2, 1, 0]] * invW[None]
        return jt.stack([r[0], -r[1], -r[1], r[2]]), invW

    def laplacian(self, f: Jet) -> Jet:
        """Geometer's Laplace operator applied to a scalar jet, or to each
        component of a stack of them.

        Result is a jet two orders lower than f (after alignment with
        the metric jets), so order-3 immersions support one Laplacian of
        first-derivative data and order-4 immersions support the
        bilaplacian of the position.
        """
        coef, invW = self._laplace_coeffs
        fu, fv = f.deriv_u(), f.deriv_v()
        # the coefficients get an axis for each component axis of f
        extra = (None,) * (len(f.batch) - len(self.batch))
        # P fu, Q fv, Q fu, R fv
        t = coef[(slice(None),) + extra] * jt.stack([fu, fv, fu, fv])
        div = (t[0] + t[1]).deriv_u() + (t[2] + t[3]).deriv_v()
        return -(invW[extra] * div)

    @cached_property
    def laplacian_x_jets(self) -> Jet:
        self.require_spacelike()
        return self.laplacian(self.x)

    @cached_property
    def laplacian_x(self) -> np.ndarray:
        return self.laplacian_x_jets.value()

    @cached_property
    def residual_beltrami(self):
        """Euclidean defect of Delta x + 2 H = 0."""
        return la.euclid_norm(self.laplacian_x + 2.0 * self.H)

    @cached_property
    def bilaplacian_x(self) -> np.ndarray:
        if self.order < 4:
            raise OrderExceeded(
                "the bilaplacian needs order-4 jets of the immersion")
        return self.laplacian(self.laplacian_x_jets).value()

    # -- classification -----------------------------------------------------

    def label_masks(self) -> dict[str, np.ndarray]:
        """Per label, where its pointwise predicate holds at the residual
        tolerance.

        Quadric labels (IN-S31, IN-H3, IN-LIGHTCONE) state the sign class
        of <x, x> at each point; whether the whole surface lies in one
        quadric is a grid-level question answered by the report layer.
        """
        tau = self.tol.residual
        H, norm_H = self.H, self.H_norm_euclid
        h = self._h.value()
        e3, e4 = (e[:, None] for e in self.frame_values[2:])
        # h(e_i, e_j) = h^3_ij e3 - h^4_ij e4 by ij = 11, 12, 22, and its
        # umbilicity defect h(e_i, e_j) - delta_ij H
        hv = h[0] * e3 + -h[1] * e4
        p = la.minkowski_inner(hv, H[:, None])
        scale = tau * (1.0 + np.maximum.reduce(abs(p)))
        defect = hv - np.stack([H, np.zeros_like(H), H], 1)
        hn = tau * (1.0 + norm_H)
        x_causal = causal_character(self.x_values, CAUSAL_TOL)
        return {
            "MAXIMAL": norm_H <= tau,
            "MARGINALLY-TRAPPED": self.H_causal == CausalClass.LIGHTLIKE,
            "FLAT": abs(self.K_gauss) <= tau,
            "FLAT-NORMAL-BUNDLE": abs(self.RD) <= tau,
            "PARALLEL-H": self.residual_parallel_H <= tau,
            "PSEUDO-UMBILICAL": ((abs(p[1]) <= scale)
                                 & (abs(p[0] - p[2]) <= scale)),
            "TOTALLY-UMBILICAL": np.logical_and.reduce(
                la.euclid_norm(defect) <= hn),
            "IN-LIGHTCONE": ((x_causal == CausalClass.ZERO)
                             | (x_causal == CausalClass.LIGHTLIKE)),
            "IN-S31": x_causal == CausalClass.SPACELIKE,
            "IN-H3": ((x_causal == CausalClass.TIMELIKE)
                      & (self.x_values[0] > 0)),
        }

    def classify(self):
        """Pointwise predicate labels, each decided at the residual
        tolerance: a frozenset for one point, a list of them for a batch."""
        masks = self.label_masks()
        if not self.batch:
            return frozenset(name for name, on in masks.items() if on)
        rows = zip(*(np.broadcast_to(on, self.batch).ravel().tolist()
                     for on in masks.values()))
        return [frozenset(name for name, on in zip(masks, row) if on)
                for row in rows]

    @cached_property
    def position_inner(self):
        return la.minkowski_inner(self.x_values, self.x_values)


# -- contract-level operation wrappers -------------------------------------

def second_fundamental_form(pg: PointGeometry):
    """h coefficients (values) keyed (beta, i, j), and the two shape
    operator matrices."""
    values = pg._h.value()
    ij = {(1, 1): 0, (1, 2): 1, (2, 1): 1, (2, 2): 2}
    h = {(beta, i, j): values[b, q]
         for b, beta in enumerate((3, 4)) for (i, j), q in ij.items()}
    A3, A4 = pg.shape_operators
    return h, A3, A4


def mean_curvature_vector(pg: PointGeometry):
    return pg.H, pg.H_inner, pg.H_causal


def squared_second_fundamental_form(pg: PointGeometry):
    return pg.h_sq


def gaussian_curvature(pg: PointGeometry):
    return pg.K_gauss, pg.K_formula, pg.K_intrinsic


def normal_curvature_RD(pg: PointGeometry):
    return pg.RD


def parallel_H_residual(pg: PointGeometry):
    return pg.residual_parallel_H


def position_laplacian(pg: PointGeometry,
                       ) -> tuple[np.ndarray, Optional[float]]:
    """Delta x (values) and, when order-4 jets are available, the Euclidean
    norm of Delta^2 x; None marks the bilaplacian as absent at order 3."""
    if pg.order < 4:
        return pg.laplacian_x, None
    return pg.laplacian_x, la.euclid_norm(pg.bilaplacian_x)


def classify_point(pg: PointGeometry):
    return pg.classify()
