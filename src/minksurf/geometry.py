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

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from . import jets as jt
from . import linalg as la
from .jets import Jet, OrderExceeded
from .linalg import (AmbientVector, Bivector, CausalClass, DegeneratePlane,
                     causal_character)

__all__ = [
    "Tolerances",
    "NotSpacelike",
    "PointGeometry",
    "first_fundamental_form",
    "adapted_frame",
    "second_fundamental_form",
    "mean_curvature_vector",
    "squared_second_fundamental_form",
    "gaussian_curvature",
    "normal_curvature_RD",
    "parallel_H_residual",
    "codazzi_residual",
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


@dataclass(frozen=True, slots=True)
class Tolerances:
    """Tolerance bundle used across the pipeline.

    causal feeds the scale-aware causal classifier, residual is the
    absolute cutoff on identity residuals and pointwise predicates,
    constancy_rel is the relative cutoff on grid constancy, degenerate
    is the Gram cutoff below which a point is skipped as degenerate.
    """

    causal: float = 1e-9
    residual: float = 1e-8
    constancy_rel: float = 1e-6
    degenerate: float = 1e-12


DEFAULT_TOLERANCES = Tolerances()

def _vec_deriv_u(v: AmbientVector) -> AmbientVector:
    return AmbientVector(*(c.deriv_u() for c in v.components()))


def _vec_deriv_v(v: AmbientVector) -> AmbientVector:
    return AmbientVector(*(c.deriv_v() for c in v.components()))


def _vec_values(v: AmbientVector) -> AmbientVector:
    return AmbientVector(*(c.value() for c in v.components()))


def _biv_values(b: Bivector) -> Bivector:
    return Bivector(*(c.value() for c in b.components()))


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

    e: tuple[AmbientVector, AmbientVector, AmbientVector, AmbientVector]
    a: tuple[Jet, Jet]
    b: tuple[Jet, Jet]
    nu: Bivector


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
    def x(self) -> AmbientVector:
        return AmbientVector(*self.xjets)

    @cached_property
    def x_values(self) -> AmbientVector:
        return _vec_values(self.x)

    @cached_property
    def xu(self) -> AmbientVector:
        return _vec_deriv_u(self.x)

    @cached_property
    def xv(self) -> AmbientVector:
        return _vec_deriv_v(self.x)

    @cached_property
    def metric_jets(self) -> tuple[Jet, Jet, Jet]:
        E = la.minkowski_inner(self.xu, self.xu)
        F = la.minkowski_inner(self.xu, self.xv)
        G = la.minkowski_inner(self.xv, self.xv)
        return E, F, G

    @cached_property
    def g(self) -> np.ndarray:
        """The metric matrix, shape (2, 2, *batch)."""
        E, F, G = self.metric_jets
        return np.array([[E.value(), F.value()], [F.value(), G.value()]])

    @cached_property
    def metric_det_jet(self) -> Jet:
        E, F, G = self.metric_jets
        return E * G - F * F

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
        reasons[abs(det) <= self.tol.degenerate] = "degenerate"
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

    @cached_property
    def is_spacelike(self):
        """Per point: whether the metric is positive definite."""
        ok = self.skip_reasons == None  # noqa: E711 - elementwise
        return bool(ok) if ok.ndim == 0 else ok

    # -- adapted frame --------------------------------------------------

    @cached_property
    def nu_jets(self) -> Bivector:
        """The Gauss map value as a jet-valued unit bivector."""
        return self.frame.nu

    @cached_property
    def nu(self) -> Bivector:
        return _biv_values(self.nu_jets)

    @cached_property
    def frame(self) -> Frame:
        self.require_spacelike()
        E, F, _ = self.metric_jets
        inv_E = jt.reciprocal(E)
        a1 = jt.sqrt(inv_E)
        b1 = Jet.constant(np.zeros(self.batch), a1.order)
        # |x_v - (F/E) x_u|^2 = det g / E
        inv_mu = jt.reciprocal(jt.sqrt(self.metric_det_jet * inv_E))
        a2 = -(F * inv_E) * inv_mu
        b2 = inv_mu
        e1 = self.xu.scaled(a1)
        e2 = self.xu.scaled(a2) + self.xv.scaled(b2)
        e3, e4, nu = la.normal_frame(e1, e2, jt.sqrt)
        return Frame(e=(e1, e2, e3, e4), a=(a1, a2), b=(b1, b2), nu=nu)

    @cached_property
    def frame_values(self) -> tuple[AmbientVector, ...]:
        return tuple(_vec_values(e) for e in self.frame.e)

    @cached_property
    def residual_frame(self) -> float:
        """Max deviation of the frame Gram matrix from diag(1, 1, 1, -1)."""
        target = (1.0, 1.0, 1.0, -1.0)
        worst = 0.0
        vals = self.frame_values
        for i in range(4):
            for j in range(i, 4):
                got = la.minkowski_inner(vals[i], vals[j])
                want = target[i] if i == j else 0.0
                worst = np.maximum(worst, abs(got - want))
        return worst

    def _dir_coeffs(self, i: int):
        # value-level coefficients of e_i = a du + b dv, i in {1, 2}
        f = self.frame
        return f.a[i - 1].value(), f.b[i - 1].value()

    def omega(self, A: int, B: int, i: int) -> float:
        """Connection form omega_AB(e_i) = <flat-derivative of e_A along e_i, e_B>.

        Antisymmetric in (A, B) by metric compatibility; indices are
        1-based frame labels, i in {1, 2}.
        """
        eA = self.frame.e[A - 1]
        eB = self.frame_values[B - 1]
        a, b = self._dir_coeffs(i)
        du = tuple(c.partial(1, 0) for c in eA.components())
        dv = tuple(c.partial(0, 1) for c in eA.components())
        w = AmbientVector(*(a * x + b * y for x, y in zip(du, dv)))
        return la.minkowski_inner(w, eB)

    @cached_property
    def omega12(self) -> tuple[float, float]:
        return (self.omega(1, 2, 1), self.omega(1, 2, 2))

    @cached_property
    def omega34(self) -> tuple[float, float]:
        return (self.omega(3, 4, 1), self.omega(3, 4, 2))

    # -- second fundamental form ----------------------------------------

    @cached_property
    def _second_partials(self) -> tuple[AmbientVector, AmbientVector, AmbientVector]:
        xuu = _vec_deriv_u(self.xu)
        xuv = _vec_deriv_v(self.xu)
        xvv = _vec_deriv_v(self.xv)
        return xuu, xuv, xvv

    @cached_property
    def h_jets(self) -> dict[tuple[int, int, int], Jet]:
        """Second-fundamental-form coefficients h^beta_ij as jets.

        Built from the symmetric expansion
        h^beta_ij = a_i a_j <x_uu, e_b> + (a_i b_j + b_i a_j) <x_uv, e_b>
                    + b_i b_j <x_vv, e_b>,
        which drops the tangential derivative-of-coefficient terms exactly
        and makes h^beta_12 = h^beta_21 structural.
        """
        f = self.frame
        xuu, xuv, xvv = self._second_partials
        out: dict[tuple[int, int, int], Jet] = {}
        for beta, ebeta in ((3, f.e[2]), (4, f.e[3])):
            puu = la.minkowski_inner(xuu, ebeta)
            puv = la.minkowski_inner(xuv, ebeta)
            pvv = la.minkowski_inner(xvv, ebeta)
            for i in (1, 2):
                for j in (i, 2):
                    ai, bi = f.a[i - 1], f.b[i - 1]
                    aj, bj = f.a[j - 1], f.b[j - 1]
                    hij = (ai * aj * puu + (ai * bj + bi * aj) * puv
                           + bi * bj * pvv)
                    out[(beta, i, j)] = hij
                    out[(beta, j, i)] = hij
        return out

    @cached_property
    def shape_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """(A3, A4) in the tangent frame, shape (*batch, 2, 2); symmetric
        by construction."""
        h = self.h_jets
        return tuple(_matrices(
            [[h[(beta, 1, 1)].value(), h[(beta, 1, 2)].value()],
             [h[(beta, 2, 1)].value(), h[(beta, 2, 2)].value()]])
            for beta in (3, 4))

    @cached_property
    def trace_jets(self) -> tuple[Jet, Jet]:
        h = self.h_jets
        return (h[(3, 1, 1)] + h[(3, 2, 2)], h[(4, 1, 1)] + h[(4, 2, 2)])

    def h_vector(self, i: int, j: int) -> AmbientVector:
        """h(e_i, e_j) as an ambient vector of values."""
        h = self.h_jets
        e3, e4 = self.frame_values[2], self.frame_values[3]
        # h = sum_beta eps_beta h^beta_ij e_beta
        return (e3.scaled(h[(3, i, j)].value())
                + e4.scaled(-h[(4, i, j)].value()))

    @cached_property
    def H_jets(self) -> AmbientVector:
        """Mean curvature vector as jets: (trA3 e3 - trA4 e4) / 2."""
        tr3, tr4 = self.trace_jets
        f = self.frame
        half3 = tr3 * 0.5
        half4 = tr4 * 0.5
        return f.e[2].scaled(half3) - f.e[3].scaled(half4)

    @cached_property
    def H(self) -> AmbientVector:
        return _vec_values(self.H_jets)

    @cached_property
    def H_inner(self):
        return la.minkowski_inner(self.H, self.H)

    @cached_property
    def H_norm_euclid(self):
        return la.euclid_norm(self.H)

    @cached_property
    def H_causal(self):
        """CausalClass of H; an object array of them for a batch."""
        return causal_character(self.H, self.tol.causal)

    @cached_property
    def h_sq_jet(self) -> Jet:
        """The signed squared norm of h (may be negative)."""
        h = self.h_jets
        acc = None
        for beta, eps in ((3, 1.0), (4, -1.0)):
            s = (h[(beta, 1, 1)] ** 2 + h[(beta, 1, 2)] ** 2 * 2.0
                 + h[(beta, 2, 2)] ** 2)
            term = s if eps > 0 else -s
            acc = term if acc is None else acc + term
        return acc

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
        du = AmbientVector(*(c.partial(1, 0) for c in self.H_jets.components()))
        dv = AmbientVector(*(c.partial(0, 1) for c in self.H_jets.components()))
        e1v, e2v = self.frame_values[0], self.frame_values[1]
        total = 0.0
        for i in (1, 2):
            a, b = self._dir_coeffs(i)
            w = AmbientVector(*(a * x + b * y
                                for x, y in zip(du.components(), dv.components())))
            tang1 = la.minkowski_inner(w, e1v)
            tang2 = la.minkowski_inner(w, e2v)
            normal = w - e1v.scaled(tang1) - e2v.scaled(tang2)
            total += la.euclid_norm(normal)
        return total

    def _h_cov_deriv(self, i: int, j: int, k: int, beta: int,
                     omega12_shift: float = 0.0):
        # Covariant derivative h^beta_{jk,i}: flat derivative along e_i of
        # the coefficient, a normal-connection rotation, and two
        # Levi-Civita correction terms.
        h = self.h_jets
        a, b = self._dir_coeffs(i)
        flat = (a * h[(beta, j, k)].partial(1, 0)
                + b * h[(beta, j, k)].partial(0, 1))

        w12 = self.omega12[i - 1] + omega12_shift
        w34 = self.omega34[i - 1]
        other = 7 - beta  # 3 <-> 4
        # sum_gamma eps_gamma h^gamma_jk omega_{gamma beta}(e_i); the
        # gamma = beta term vanishes, and both cross terms reduce to
        # +h^other omega_34 since eps_4 omega_43 = +omega_34.
        rot = h[(other, j, k)].value() * w34
        # omega in the tangent indices: omega_12(e_i) = w12, omega_21 = -w12
        def w_tan(p: int, q: int):
            if p == q:
                return 0.0
            return w12 if (p, q) == (1, 2) else -w12

        levi = sum(w_tan(j, ell) * h[(beta, ell, k)].value()
                   + w_tan(k, ell) * h[(beta, j, ell)].value()
                   for ell in (1, 2))
        return flat + rot - levi

    def codazzi_residual(self, omega12_shift: float = 0.0):
        """Max defect of the covariant symmetry of h over all index triples."""
        worst = 0.0
        for beta in (3, 4):
            for i in (1, 2):
                for j in (1, 2):
                    for k in (1, 2):
                        lhs = self._h_cov_deriv(k, i, j, beta, omega12_shift)
                        rhs = self._h_cov_deriv(i, j, k, beta, omega12_shift)
                        worst = np.maximum(worst, abs(lhs - rhs))
        return worst

    @cached_property
    def residual_codazzi(self):
        return self.codazzi_residual()

    # -- Laplace operator --------------------------------------------------

    @cached_property
    def _laplace_coeffs(self) -> tuple[Jet, Jet, Jet, Jet]:
        E, F, G = self.metric_jets
        W = jt.sqrt(self.metric_det_jet)
        invW = jt.reciprocal(W)
        P = G * invW
        Q = -(F * invW)
        R = E * invW
        return P, Q, R, invW

    def laplacian(self, f: Jet) -> Jet:
        """Geometer's Laplace operator applied to a scalar jet.

        Result is a jet two orders lower than f (after alignment with
        the metric jets), so order-3 immersions support one Laplacian of
        first-derivative data and order-4 immersions support the
        bilaplacian of the position.
        """
        P, Q, R, invW = self._laplace_coeffs
        fu, fv = f.deriv_u(), f.deriv_v()
        div = (P * fu + Q * fv).deriv_u() + (Q * fu + R * fv).deriv_v()
        return -(invW * div)

    @cached_property
    def laplacian_x_jets(self) -> AmbientVector:
        self.require_spacelike()
        return AmbientVector(*(self.laplacian(c) for c in self.xjets))

    @cached_property
    def laplacian_x(self) -> AmbientVector:
        return _vec_values(self.laplacian_x_jets)

    @cached_property
    def residual_beltrami(self):
        """Euclidean defect of Delta x + 2 H = 0."""
        d = self.laplacian_x
        h2 = self.H.scaled(2.0)
        return la.euclid_norm(AmbientVector(*(x + y for x, y in
                                              zip(d.components(), h2.components()))))

    @cached_property
    def bilaplacian_x(self) -> AmbientVector:
        if self.order < 4:
            raise OrderExceeded(
                "the bilaplacian needs order-4 jets of the immersion")
        return AmbientVector(*(self.laplacian(c).value()
                               for c in self.laplacian_x_jets.components()))

    # -- classification -----------------------------------------------------

    def label_masks(self, tau: Optional[float] = None) -> dict[str, np.ndarray]:
        """Per label, where its pointwise predicate holds at tau.

        Quadric labels (IN-S31, IN-H3, IN-LIGHTCONE) state the sign class
        of <x, x> at each point; whether the whole surface lies in one
        quadric is a grid-level question answered by the report layer.
        """
        tau = self.tol.residual if tau is None else tau
        H, norm_H = self.H, self.H_norm_euclid
        hv = {(i, j): self.h_vector(i, j) for i in (1, 2) for j in (1, 2)}
        p = {key: la.minkowski_inner(vec, H) for key, vec in hv.items()}
        scale = tau * (1.0 + np.maximum.reduce([abs(val) for val in p.values()]))
        hn = tau * (1.0 + norm_H)
        zero = AmbientVector(0.0, 0.0, 0.0, 0.0)
        xv = self.x_values
        q = la.minkowski_inner(xv, xv)
        on_cone = abs(q) <= self.tol.causal * (1.0 + la.euclid_sq(xv))
        return {
            "MAXIMAL": norm_H <= tau,
            "MARGINALLY-TRAPPED": self.H_causal == CausalClass.LIGHTLIKE,
            "FLAT": abs(self.K_gauss) <= tau,
            "FLAT-NORMAL-BUNDLE": abs(self.RD) <= tau,
            "PARALLEL-H": self.residual_parallel_H <= tau,
            "PSEUDO-UMBILICAL": ((abs(p[(1, 2)]) <= scale)
                                 & (abs(p[(1, 1)] - p[(2, 2)]) <= scale)),
            "TOTALLY-UMBILICAL": np.logical_and.reduce([
                la.euclid_norm(hv[(i, j)] - (H if i == j else zero)) <= hn
                for i in (1, 2) for j in (1, 2)]),
            "IN-LIGHTCONE": on_cone,
            "IN-S31": ~on_cone & (q > 0),
            "IN-H3": ~on_cone & ~(q > 0) & (xv.c0 > 0),
        }

    def classify(self, tau: Optional[float] = None):
        """Pointwise predicate labels, each decided against tau: a
        frozenset for one point, a list of them for a batch."""
        masks = self.label_masks(tau)
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

def first_fundamental_form(xjets, require_spacelike: bool = True,
                           tol: Tolerances = DEFAULT_TOLERANCES,
                           ):
    """Induced metric g_ij = <x_i, x_j> and the space-likeness verdict."""
    pg = PointGeometry(xjets, tol=tol)
    if require_spacelike:
        pg.require_spacelike()
        return pg.g, True
    return pg.g, pg.is_spacelike


def adapted_frame(xjets, base=(0.0, 0.0),
                  tol: Tolerances = DEFAULT_TOLERANCES) -> PointGeometry:
    """PointGeometry with frames and connection forms materialized."""
    pg = PointGeometry(xjets, base=base, tol=tol)
    pg.frame
    pg.omega12
    pg.omega34
    return pg


def second_fundamental_form(pg: PointGeometry):
    """h coefficients (values), and the two shape operator matrices."""
    h = {key: jet.value() for key, jet in pg.h_jets.items()}
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


def codazzi_residual(pg: PointGeometry, omega12_shift: float = 0.0):
    return pg.codazzi_residual(omega12_shift)


def position_laplacian(pg: PointGeometry, bilaplacian: Optional[bool] = None,
                       ) -> tuple[AmbientVector, Optional[float]]:
    """Delta x (values) and, when order-4 jets are available, the Euclidean
    norm of Delta^2 x; None marks the bilaplacian as absent at order 3."""
    want = pg.order >= 4 if bilaplacian is None else bilaplacian
    dx = pg.laplacian_x
    if not want:
        return dx, None
    bl = pg.bilaplacian_x
    return dx, la.euclid_norm(bl)


def classify_point(pg: PointGeometry, tau: Optional[float] = None):
    return pg.classify(tau)
