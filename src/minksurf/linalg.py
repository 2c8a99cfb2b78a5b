"""Indefinite linear algebra on Minkowski 4-space and its bivectors.

The ambient space is R^4 with the inner product of signature
(-, +, +, +); the first component is the time-like one.  Bivectors live
in the 6-dimensional exterior square, coordinatized by Pluecker-style
components in the fixed basis order (12, 13, 14, 23, 24, 34), on which
the induced inner product is diagonal with signs (-1, -1, -1, +1, +1, +1).

All functions are pure and all values immutable.  The vector and
bivector containers are generic over their scalar type: components may
be floats, per-point float arrays or jets, since all support the same
arithmetic.  The norms and the causal classification work point by point
on floats or arrays; the normal frame construction takes a square root
function so the geometry layer runs the identical construction on jets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "AmbientVector",
    "Bivector",
    "CausalClass",
    "DegeneratePlane",
    "BIVECTOR_SIGNS",
    "minkowski_inner",
    "wedge",
    "bivector_inner",
    "hodge_dual",
    "contract",
    "normal_frame",
    "causal_character",
    "euclid_norm",
]

# Signs of the induced inner product on the bivector basis
# (12, 13, 14, 23, 24, 34): a factor f1 makes the square negative.
BIVECTOR_SIGNS = (-1.0, -1.0, -1.0, 1.0, 1.0, 1.0)


class DegeneratePlane(Exception):
    """The two tangent vectors do not span a space-like plane."""


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


@dataclass(frozen=True, slots=True)
class AmbientVector:
    """A vector in Minkowski 4-space; c0 is the time-like component."""

    c0: float
    c1: float
    c2: float
    c3: float

    def components(self) -> tuple:
        return (self.c0, self.c1, self.c2, self.c3)

    def __add__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector(self.c0 + other.c0, self.c1 + other.c1,
                             self.c2 + other.c2, self.c3 + other.c3)

    def __sub__(self, other: "AmbientVector") -> "AmbientVector":
        return AmbientVector(self.c0 - other.c0, self.c1 - other.c1,
                             self.c2 - other.c2, self.c3 - other.c3)

    def __neg__(self) -> "AmbientVector":
        return AmbientVector(-self.c0, -self.c1, -self.c2, -self.c3)

    def scaled(self, s) -> "AmbientVector":
        return AmbientVector(s * self.c0, s * self.c1, s * self.c2, s * self.c3)


@dataclass(frozen=True, slots=True)
class Bivector:
    """An element of the exterior square, Pluecker components in the
    basis order (12, 13, 14, 23, 24, 34)."""

    p12: float
    p13: float
    p14: float
    p23: float
    p24: float
    p34: float

    def components(self) -> tuple:
        return (self.p12, self.p13, self.p14, self.p23, self.p24, self.p34)

    def __add__(self, other: "Bivector") -> "Bivector":
        return Bivector(*(a + b for a, b in zip(self.components(), other.components())))

    def __sub__(self, other: "Bivector") -> "Bivector":
        return Bivector(*(a - b for a, b in zip(self.components(), other.components())))

    def __neg__(self) -> "Bivector":
        return Bivector(*(-a for a in self.components()))

    def scaled(self, s) -> "Bivector":
        return Bivector(*(s * a for a in self.components()))


def minkowski_inner(a: AmbientVector, b: AmbientVector):
    return -a.c0 * b.c0 + a.c1 * b.c1 + a.c2 * b.c2 + a.c3 * b.c3


def euclid_sq(a: AmbientVector):
    return a.c0 * a.c0 + a.c1 * a.c1 + a.c2 * a.c2 + a.c3 * a.c3


def wedge(a: AmbientVector, b: AmbientVector) -> Bivector:
    return Bivector(
        a.c0 * b.c1 - a.c1 * b.c0,
        a.c0 * b.c2 - a.c2 * b.c0,
        a.c0 * b.c3 - a.c3 * b.c0,
        a.c1 * b.c2 - a.c2 * b.c1,
        a.c1 * b.c3 - a.c3 * b.c1,
        a.c2 * b.c3 - a.c3 * b.c2,
    )


def bivector_inner(alpha: Bivector, beta: Bivector):
    acc = None
    for s, x, y in zip(BIVECTOR_SIGNS, alpha.components(), beta.components()):
        term = x * y if s > 0 else -(x * y)
        acc = term if acc is None else acc + term
    return acc


def euclid_norm(v):
    """Euclidean norm of the components of a vector or bivector.

    Residual measurements use this norm, never the indefinite one: a
    light-like defect has zero indefinite norm but is still a defect.
    Squares go through ``np.float_power``, the C library ``pow`` that
    Python's float ``**`` also calls, and are summed in component order.
    """
    return np.sqrt(sum(np.float_power(x, 2) for x in v.components()))


def hodge_dual(b: Bivector) -> Bivector:
    """The star operator on the exterior square.

    Characterized by alpha ^ beta = <star(alpha), beta> vol with the
    orientation of the standard basis; on this index ordering it is a
    component shuffle with signs, and star(star(b)) = -b.
    """
    return Bivector(
        b.p34,
        -b.p24,
        b.p23,
        -b.p14,
        b.p13,
        -b.p12,
    )


_CAUSAL_CLASSES = (CausalClass.ZERO, CausalClass.LIGHTLIKE,
                   CausalClass.SPACELIKE, CausalClass.TIMELIKE)


def causal_character(v: AmbientVector, tol: float):
    """Scale-aware causal classification of a (possibly inexact) vector.

    A CausalClass for float components; for per-point arrays, an object
    array of CausalClass of the same shape.
    """
    if tol < 0:
        raise ValueError("tolerance must be nonnegative")
    e2 = euclid_sq(v)
    q = minkowski_inner(v, v)
    which = np.select([np.sqrt(e2) <= tol, abs(q) <= tol * (1.0 + e2), q > 0],
                      [0, 1, 2], 3)
    if which.ndim == 0:
        return _CAUSAL_CLASSES[int(which)]
    return np.array(_CAUSAL_CLASSES, dtype=object)[which]


# -- normal plane constructions ----------------------------------------

def contract(x: AmbientVector, b: Bivector) -> AmbientVector:
    """Interior product of a bivector with a vector.

    Linear in b, with iota_x(a ^ c) = <x, a> c - <x, c> a.
    """
    return AmbientVector(
        -(x.c1 * b.p12 + x.c2 * b.p13 + x.c3 * b.p14),
        -(x.c0 * b.p12 + x.c2 * b.p23 + x.c3 * b.p24),
        -(x.c0 * b.p13) + x.c1 * b.p23 - x.c3 * b.p34,
        -(x.c0 * b.p14) + x.c1 * b.p24 + x.c2 * b.p34,
    )


def normal_frame(e1: AmbientVector, e2: AmbientVector, sqrt=math.sqrt,
                 ) -> tuple[AmbientVector, AmbientVector, Bivector]:
    """(e3, e4, nu) for an orthonormal space-like tangent pair (e1, e2).

    The time axis t splits as t_T + t_N with t_T space-like, so
    <t_N, t_N> = -1 - |t_T|^2 <= -1 and e4 = t_N / |t_N| never
    degenerates.  With nu = star(e1 ^ e2) and e3 = iota_{e4} nu, the
    pair is orthonormal with e3 ^ e4 = nu by construction.  Components
    may be floats or jets; sqrt must match them.
    """
    a, b = e1.c0, e2.c0
    # t_N = t - <t, e1> e1 - <t, e2> e2, and <t, e_i> = -e_i.c0
    t_n = e1.scaled(a) + e2.scaled(b)
    t_n = AmbientVector(t_n.c0 + 1.0, t_n.c1, t_n.c2, t_n.c3)
    e4 = t_n.scaled(1.0 / sqrt(1.0 + a * a + b * b))
    nu = hodge_dual(wedge(e1, e2))
    return contract(e4, nu), e4, nu

