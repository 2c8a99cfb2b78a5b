"""Indefinite linear algebra on Minkowski 4-space and its bivectors.

The ambient space is R^4 with the inner product of signature
(-, +, +, +); the first component is the time-like one.  The bivectors
live in the 6-dimensional exterior square, coordinatized by
Pluecker-style components in the fixed basis order (12, 13, 14, 23, 24,
34), on which the induced inner product is diagonal with signs
(-1, -1, -1, +1, +1, +1).

A vector or bivector is its component stack, with no class around it:
a float array of shape (4, ...) or (6, ...), or a jet whose batch has
that shape.  Axes after the component axis are batch axes (per-point
values, or groups of vectors handled together), so each function below
is one array or jet product whatever the number of components.  A
function takes stacks and returns a stack or a per-point value; none
mutates its inputs.  The norms and the causal classification take
float arrays.  The normal frame construction takes a square root
function, so the geometry layer runs the identical construction on
jets.

Jet products are not commutative to the bit (the Cauchy terms of
``a * b`` are added in the order of a's coefficients), so every product
keeps its operand order, and every sum across components adds left to
right, as the component formulas are written.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from . import jets as jt
from .jets import Jet

__all__ = [
    "CausalClass",
    "DegeneratePlane",
    "minkowski_inner",
    "euclid_sq",
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


def _signs(stack, *signs: float) -> np.ndarray:
    # one sign per component, shaped to multiply the stack; a factor
    # +-1.0 changes a float's sign and nothing else
    ndim = len(stack.batch) if isinstance(stack, Jet) else np.ndim(stack)
    return np.reshape(signs, (len(signs),) + (1,) * (ndim - 1))


def minkowski_inner(a, b):
    # -a0 b0 + ...: a negated product equals the product of the negated
    # factor up to the sign of a zero, which the next (product) term's
    # addition settles
    p = a * b
    return -p[0] + p[1] + p[2] + p[3]


def euclid_sq(a):
    p = a * a
    return p[0] + p[1] + p[2] + p[3]


# wedge: component n is a_L[n] b_R[n] - a_R[n] b_L[n]
_WEDGE_L, _WEDGE_R = [0, 0, 0, 1, 1, 2], [1, 2, 3, 2, 3, 3]


def wedge(a, b):
    p = a[_WEDGE_L + _WEDGE_R] * b[_WEDGE_R + _WEDGE_L]
    return p[:6] - p[6:]


def bivector_inner(alpha, beta):
    # a factor f1 makes a basis bivector's square negative
    p = alpha * beta
    return -p[0] + -p[1] + -p[2] + p[3] + p[4] + p[5]


def euclid_norm(v):
    """Euclidean norm of the components of a vector or bivector.

    Residual measurements use this norm, never the indefinite one: a
    light-like defect has zero indefinite norm but is still a defect.
    Squares go through ``np.float_power``, the C library ``pow`` that
    Python's float ``**`` also calls, and are summed in component order.
    """
    return np.sqrt(sum(np.float_power(v, 2)))


def hodge_dual(b):
    """The star operator on the exterior square.

    Characterized by alpha ^ beta = <star(alpha), beta> vol with the
    orientation of the standard basis; on this index ordering it is a
    component shuffle with signs, (p34, -p24, p23, -p14, p13, -p12), and
    star(star(b)) = -b.
    """
    d = b[[5, 4, 3, 2, 1, 0]]
    return d * _signs(d, 1.0, -1.0, 1.0, -1.0, 1.0, -1.0)


_CAUSAL_CLASSES = (CausalClass.ZERO, CausalClass.LIGHTLIKE,
                   CausalClass.SPACELIKE, CausalClass.TIMELIKE)


def causal_character(v, tol: float):
    """Scale-aware causal classification of a (possibly inexact) vector.

    A CausalClass for a vector of shape (4,); for per-point vectors, an
    object array of CausalClass of their batch shape.
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


def contract(x, b):
    """Interior product of a bivector with a vector.

    Linear in b, with iota_x(a ^ c) = <x, a> c - <x, c> a:
    (-(x1 p12 + x2 p13 + x3 p14), -(x0 p12 + x2 p23 + x3 p24),
    -x0 p13 + x1 p23 - x3 p34, -x0 p14 + x1 p24 + x2 p34).
    """
    p = x[_CONTRACT_X] * b[_CONTRACT_B]
    f, s, t = p[0:4], p[4:8], p[8:12]
    inner = (f * _signs(f, 1.0, 1.0, -1.0, -1.0) + s
             + t * _signs(t, 1.0, 1.0, -1.0, 1.0))
    return inner * _signs(inner, -1.0, -1.0, 1.0, 1.0)


def normal_frame(e1, e2, sqrt=np.sqrt):
    """(e3, e4, nu) for an orthonormal space-like tangent pair (e1, e2).

    The time axis t splits as t_T + t_N with t_T space-like, so
    <t_N, t_N> = -1 - |t_T|^2 <= -1 and e4 = t_N / |t_N| never
    degenerates.  With nu = star(e1 ^ e2) and e3 = iota_{e4} nu, the
    pair is orthonormal with e3 ^ e4 = nu by construction.  The stacks
    may be float arrays or jets; sqrt must match them.
    """
    a, b = e1[0], e2[0]
    # t_N = t - <t, e1> e1 - <t, e2> e2, and <t, e_i> = -e_i[0]
    t_n = a[None] * e1 + b[None] * e2
    stack = jt.stack if isinstance(t_n, Jet) else np.stack
    t_n = stack([t_n[0] + 1.0, t_n[1], t_n[2], t_n[3]])
    e4 = (1.0 / sqrt(1.0 + a * a + b * b))[None] * t_n
    nu = hodge_dual(wedge(e1, e2))
    return contract(e4, nu), e4, nu
