"""Indefinite linear algebra on Minkowski 4-space and its bivectors.

The ambient space is R^4 with the inner product of signature
(-, +, +, +); the first component is the time-like one.  Bivectors live
in the 6-dimensional exterior square, coordinatized by Pluecker-style
components in the fixed basis order (12, 13, 14, 23, 24, 34), on which
the induced inner product is diagonal with signs (-1, -1, -1, +1, +1, +1).

All functions are pure, and values are immutable by convention.  A
vector or bivector holds its components as one stack with a leading
component axis: a float array of shape (4, ...) or (6, ...), or a jet
whose batch has that shape.  Further axes after the component one are
batch axes (per-point values, or groups of vectors handled together), so
each operation below takes one array or jet product whatever the number
of components.  The norms and the causal classification work point by point on floats or
arrays; the normal frame construction takes a square root function so
the geometry layer runs the identical construction on jets.

Jet products are not commutative to the bit (the Cauchy terms of
``a * b`` are added in the order of a's coefficients), so every product
keeps its operand order, and every sum across components adds left to
right, as the component formulas are written.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .jets import Jet, stack

__all__ = [
    "AmbientVector",
    "Bivector",
    "CausalClass",
    "DegeneratePlane",
    "minkowski_inner",
    "wedge",
    "bivector_inner",
    "hodge_dual",
    "contract",
    "normal_frame",
    "causal_character",
    "euclid_norm",
]

class DegeneratePlane(Exception):
    """The two tangent vectors do not span a space-like plane."""


class CausalClass(Enum):
    SPACELIKE = "spacelike"
    TIMELIKE = "timelike"
    LIGHTLIKE = "lightlike"
    ZERO = "zero"


def _ndim(stack) -> int:
    return len(stack.batch) if isinstance(stack, Jet) else np.ndim(stack)


def _spread(s, stack):
    """s ready to multiply every component of stack: a jet gets length-1
    axes in front to match; numbers and arrays broadcast as they are."""
    if isinstance(s, Jet):
        return s[(None,) * (_ndim(stack) - len(s.batch))]
    return s


def _signs(stack, *signs: float) -> np.ndarray:
    # one sign per component, shaped to multiply the stack; a factor
    # +-1.0 changes a float's sign and nothing else
    return np.reshape(signs, (len(signs),) + (1,) * (_ndim(stack) - 1))


class _Components:
    """Components along the leading axis of one array or jet.

    Built from the components, ``AmbientVector(c0, c1, c2, c3)``, or
    around an existing stack, ``AmbientVector.of(stack)``.
    """

    __slots__ = ("comps",)
    FIELDS: tuple[str, ...] = ()

    def __init_subclass__(cls, fields: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls.FIELDS = tuple(fields.split())
        for n, name in enumerate(cls.FIELDS):
            setattr(cls, name, property(lambda self, n=n: self.comps[n]))

    def __init__(self, *components):
        if len(components) != len(self.FIELDS):
            raise TypeError(f"{type(self).__name__} takes the components "
                            f"{', '.join(self.FIELDS)}")
        if isinstance(components[0], Jet):
            self.comps = stack(components)
        else:
            self.comps = np.array(np.broadcast_arrays(*components),
                                  dtype=float)

    @classmethod
    def of(cls, comps):
        out = cls.__new__(cls)
        out.comps = comps
        return out

    def components(self) -> tuple:
        return tuple(self.comps[n] for n in range(len(self.FIELDS)))

    def __add__(self, other):
        return self.of(self.comps + other.comps)

    def __sub__(self, other):
        return self.of(self.comps - other.comps)

    def __neg__(self):
        return self.of(-self.comps)

    def scaled(self, s):
        return self.of(_spread(s, self.comps) * self.comps)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        if isinstance(self.comps, Jet):
            return self.comps == other.comps
        return np.array_equal(self.comps, other.comps)

    __hash__ = None

    def __repr__(self) -> str:
        return f"{type(self).__name__}.of({self.comps!r})"


class AmbientVector(_Components, fields="c0 c1 c2 c3"):
    """A vector in Minkowski 4-space; c0 is the time-like component."""

    __slots__ = ()


class Bivector(_Components, fields="p12 p13 p14 p23 p24 p34"):
    """An element of the exterior square, Pluecker components in the
    basis order (12, 13, 14, 23, 24, 34)."""

    __slots__ = ()


def minkowski_inner(a: AmbientVector, b: AmbientVector):
    # -a0 b0 + ...: a negated product equals the product of the negated
    # factor up to the sign of a zero, which the next (product) term's
    # addition settles
    p = a.comps * b.comps
    return -p[0] + p[1] + p[2] + p[3]


def euclid_sq(a: AmbientVector):
    p = a.comps * a.comps
    return p[0] + p[1] + p[2] + p[3]


# wedge: component n is a_L[n] b_R[n] - a_R[n] b_L[n]
_WEDGE_L, _WEDGE_R = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]


def wedge(a: AmbientVector, b: AmbientVector) -> Bivector:
    p = a.comps[_WEDGE_L + _WEDGE_R] * b.comps[_WEDGE_R + _WEDGE_L]
    return Bivector.of(p[:6] - p[6:])


def bivector_inner(alpha: Bivector, beta: Bivector):
    # a factor f1 makes a basis bivector's square negative
    p = alpha.comps * beta.comps
    return -p[0] + -p[1] + -p[2] + p[3] + p[4] + p[5]


def euclid_norm(v):
    """Euclidean norm of the components of a vector or bivector.

    Residual measurements use this norm, never the indefinite one: a
    light-like defect has zero indefinite norm but is still a defect.
    Squares go through ``np.float_power``, the C library ``pow`` that
    Python's float ``**`` also calls, and are summed in component order.
    """
    return np.sqrt(sum(np.float_power(v.comps, 2)))


def hodge_dual(b: Bivector) -> Bivector:
    """The star operator on the exterior square.

    Characterized by alpha ^ beta = <star(alpha), beta> vol with the
    orientation of the standard basis; on this index ordering it is a
    component shuffle with signs, (p34, -p24, p23, -p14, p13, -p12), and
    star(star(b)) = -b.
    """
    d = b.comps[[5, 4, 3, 2, 1, 0]]
    return Bivector.of(d * _signs(d, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0))


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

# contract: the 12 products x[_CONTRACT_X] b[_CONTRACT_B], in blocks f, s,
# t of four; component n adds f[n], s[n] and t[n] with the docstring's signs
_CONTRACT_X = [1, 0, 0, 0, 2, 2, 1, 1, 3, 3, 3, 2]
_CONTRACT_B = [0, 0, 1, 2, 1, 3, 3, 4, 2, 4, 5, 5]


def contract(x: AmbientVector, b: Bivector) -> AmbientVector:
    """Interior product of a bivector with a vector.

    Linear in b, with iota_x(a ^ c) = <x, a> c - <x, c> a:
    (-(x1 p12 + x2 p13 + x3 p14), -(x0 p12 + x2 p23 + x3 p24),
    -x0 p13 + x1 p23 - x3 p34, -x0 p14 + x1 p24 + x2 p34).
    """
    p = x.comps[_CONTRACT_X] * b.comps[_CONTRACT_B]
    f, s, t = p[0:4], p[4:8], p[8:12]
    inner = (f * _signs(f, 1.0, 1.0, -1.0, -1.0) + s
             + t * _signs(t, 1.0, 1.0, -1.0, 1.0))
    return AmbientVector.of(inner * _signs(inner, -1.0, -1.0, 1.0, 1.0))


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

