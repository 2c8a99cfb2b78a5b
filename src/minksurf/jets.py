"""Truncated bivariate Taylor arithmetic in two parameters.

Every differential quantity downstream (metric, frames, curvatures,
Laplacians) is obtained by evaluating expressions in this arithmetic, so
correctness here is load-bearing for the whole package.  A :class:`Jet`
of order ``k`` at a base point stores the Taylor-normalized partials
``c[i, j] = (d^{i+j} f / du^i dv^j) / (i! j!)`` for ``i + j <= k``.
Products are Cauchy products truncated at total degree ``k``; elementary
functions are applied by composing their univariate Taylor series with
the nilpotent part of the argument.

A small central finite-difference evaluator ships alongside.  It is the
independent oracle used by the cross-check test suites and is never on
the main computation path.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, Sequence, Union

__all__ = [
    "Jet",
    "JetError",
    "UnsupportedOrder",
    "OrderExceeded",
    "DomainError",
    "DivisionByZeroValue",
    "jet_variable",
    "partial",
    "fd_partial",
    "SUPPORTED_ORDERS",
]

SUPPORTED_ORDERS = (3, 4)

Scalar = Union[int, float]


class JetError(Exception):
    """Base class for jet arithmetic failures."""


class UnsupportedOrder(JetError):
    """Requested truncation order is not one of SUPPORTED_ORDERS."""


class OrderExceeded(JetError):
    """A derivative beyond the carried truncation order was requested."""


class DomainError(JetError):
    """Elementary function applied outside its real domain."""


class DivisionByZeroValue(JetError):
    """Division by a jet whose value coefficient is exactly zero."""


@lru_cache(maxsize=None)
def _mul_plan(order: int) -> tuple[tuple[int, int, int], ...]:
    # Flat-index triples (ia, ib, iout) of every Cauchy-product term
    # with total degree <= order.  Shared by all jets of this order.
    n = order + 1
    plan = []
    for ia in range(n):
        for ja in range(n - ia):
            for ib in range(n - ia - ja):
                for jb in range(n - ia - ja - ib):
                    plan.append((ia * n + ja, ib * n + jb, (ia + ib) * n + (ja + jb)))
    return tuple(plan)


class Jet:
    """A bivariate Taylor polynomial truncated at total degree ``order``.

    Coefficients are stored row-major in a flat tuple of length
    ``(order + 1) ** 2``; entries with ``i + j > order`` are kept but are
    always exactly zero.  Instances are immutable and safe to share
    across workers.
    """

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: tuple[float, ...]):
        if order < 0:
            raise UnsupportedOrder(f"jet order must be nonnegative, got {order}")
        n = order + 1
        if len(coeffs) != n * n:
            raise ValueError(f"expected {n * n} coefficients, got {len(coeffs)}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - misuse guard
        raise AttributeError("Jet is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Jet":
        n = order + 1
        coeffs = [0.0] * (n * n)
        coeffs[0] = float(value)
        return cls(order, tuple(coeffs))

    @classmethod
    def variable(cls, which: str, value: Scalar, order: int) -> "Jet":
        if order < 1:
            raise UnsupportedOrder("a variable jet needs order >= 1")
        if which not in ("u", "v"):
            raise ValueError(f"unknown variable {which!r}; expected 'u' or 'v'")
        n = order + 1
        coeffs = [0.0] * (n * n)
        coeffs[0] = float(value)
        if which == "u":
            coeffs[n] = 1.0
        else:
            coeffs[1] = 1.0
        return cls(order, tuple(coeffs))

    # -- inspection ---------------------------------------------------

    def value(self) -> float:
        return self.coeffs[0]

    def coeff(self, i: int, j: int) -> float:
        """Taylor-normalized coefficient of (u-u0)^i (v-v0)^j."""
        if i < 0 or j < 0 or i + j > self.order:
            raise OrderExceeded(f"coefficient ({i},{j}) beyond order {self.order}")
        return self.coeffs[i * (self.order + 1) + j]

    def partial(self, i: int, j: int) -> float:
        """Raw partial derivative d^{i+j}/du^i dv^j at the base point."""
        return math.factorial(i) * math.factorial(j) * self.coeff(i, j)

    def __repr__(self) -> str:
        nz = {
            (i, j): self.coeffs[i * (self.order + 1) + j]
            for i in range(self.order + 1)
            for j in range(self.order + 1 - i)
            if self.coeffs[i * (self.order + 1) + j] != 0.0
        }
        return f"Jet(order={self.order}, {nz})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return self.order == other.order and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.order, self.coeffs))

    # -- ring operations ----------------------------------------------

    def truncated(self, order: int) -> "Jet":
        """This jet with every coefficient of total degree > order dropped."""
        if order >= self.order:
            return self
        n_old = self.order + 1
        n = order + 1
        out = [0.0] * (n * n)
        for i in range(n):
            for j in range(n - i):
                out[i * n + j] = self.coeffs[i * n_old + j]
        return Jet(order, tuple(out))

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b = _align(self, other)
            return Jet(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))
        if isinstance(other, (int, float)):
            coeffs = list(self.coeffs)
            coeffs[0] += float(other)
            return Jet(self.order, tuple(coeffs))
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.order, tuple(-c for c in self.coeffs))

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b = _align(self, other)
            return Jet(a.order, tuple(x - y for x, y in zip(a.coeffs, b.coeffs)))
        if isinstance(other, (int, float)):
            coeffs = list(self.coeffs)
            coeffs[0] -= float(other)
            return Jet(self.order, tuple(coeffs))
        return NotImplemented

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            a, b = _align(self, other)
            n = a.order + 1
            out = [0.0] * (n * n)
            ca, cb = a.coeffs, b.coeffs
            for ia, ib, io in _mul_plan(a.order):
                out[io] += ca[ia] * cb[ib]
            return Jet(a.order, tuple(out))
        if isinstance(other, (int, float)):
            s = float(other)
            return Jet(self.order, tuple(c * s for c in self.coeffs))
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self * reciprocal(other)
        if isinstance(other, (int, float)):
            if float(other) == 0.0:
                raise DivisionByZeroValue("division by scalar zero")
            return self * (1.0 / float(other))
        return NotImplemented

    def __rtruediv__(self, other) -> "Jet":
        if isinstance(other, (int, float)):
            return reciprocal(self) * float(other)
        return NotImplemented

    def __pow__(self, exponent: int) -> "Jet":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return reciprocal(self) ** (-exponent)
        result = Jet.constant(1.0, self.order)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus -----------------------------------------------------

    def deriv_u(self) -> "Jet":
        """Jet of df/du, one order lower."""
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        k = self.order - 1
        n_old = self.order + 1
        n = k + 1
        out = [0.0] * (n * n)
        for i in range(n):
            for j in range(n - i):
                out[i * n + j] = (i + 1) * self.coeffs[(i + 1) * n_old + j]
        return Jet(k, tuple(out))

    def deriv_v(self) -> "Jet":
        """Jet of df/dv, one order lower."""
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        k = self.order - 1
        n_old = self.order + 1
        n = k + 1
        out = [0.0] * (n * n)
        for i in range(n):
            for j in range(n - i):
                out[i * n + j] = (j + 1) * self.coeffs[i * n_old + j + 1]
        return Jet(k, tuple(out))


def _align(a: Jet, b: Jet) -> tuple[Jet, Jet]:
    # Mixed orders arise naturally (a second derivative of the immersion
    # times a frame jet); the product is only determined to the lower order.
    if a.order == b.order:
        return a, b
    k = min(a.order, b.order)
    return a.truncated(k), b.truncated(k)


def _compose(series: Sequence[float], a: Jet) -> Jet:
    # Horner evaluation of sum_m series[m] * w^m where w is the
    # nilpotent part of a (so w^{k+1} = 0 in the truncated ring).
    w = a - a.value()
    result = Jet.constant(series[-1], a.order)
    for c in reversed(series[:-1]):
        result = result * w + c
    return result


def reciprocal(a: Jet) -> Jet:
    x0 = a.value()
    if x0 == 0.0:
        raise DivisionByZeroValue("reciprocal of a jet with zero value")
    series = [(-1.0) ** m / x0 ** (m + 1) for m in range(a.order + 1)]
    return _compose(series, a)


def sqrt(a: Jet) -> Jet:
    x0 = a.value()
    if x0 <= 0.0:
        raise DomainError(f"sqrt requires a positive value, got {x0}")
    series = [math.sqrt(x0)]
    for m in range(1, a.order + 1):
        series.append(series[m - 1] * (0.5 - (m - 1)) / (m * x0))
    return _compose(series, a)


def log(a: Jet) -> Jet:
    x0 = a.value()
    if x0 <= 0.0:
        raise DomainError(f"log requires a positive value, got {x0}")
    series = [math.log(x0)]
    for m in range(1, a.order + 1):
        series.append((-1.0) ** (m + 1) / (m * x0**m))
    return _compose(series, a)


def exp(a: Jet) -> Jet:
    e0 = math.exp(a.value())
    series = [e0 / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def sin(a: Jet) -> Jet:
    x0 = a.value()
    cycle = (math.sin(x0), math.cos(x0), -math.sin(x0), -math.cos(x0))
    series = [cycle[m % 4] / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def cos(a: Jet) -> Jet:
    x0 = a.value()
    cycle = (math.cos(x0), -math.sin(x0), -math.cos(x0), math.sin(x0))
    series = [cycle[m % 4] / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def sinh(a: Jet) -> Jet:
    x0 = a.value()
    s0, c0 = math.sinh(x0), math.cosh(x0)
    series = [(s0 if m % 2 == 0 else c0) / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def cosh(a: Jet) -> Jet:
    x0 = a.value()
    s0, c0 = math.sinh(x0), math.cosh(x0)
    series = [(c0 if m % 2 == 0 else s0) / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


# -- contract-level entry points --------------------------------------


def jet_variable(which: str, value: Scalar, k: int) -> Jet:
    """A coordinate jet for u or v at the given base value, order k in {3, 4}."""
    if k not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(f"order must be one of {SUPPORTED_ORDERS}, got {k}")
    return Jet.variable(which, value, k)


def partial(a: Jet, i: int, j: int) -> float:
    """Raw partial derivative; raises OrderExceeded beyond the jet's order."""
    return a.partial(i, j)


# -- finite-difference oracle ------------------------------------------

_CENTRAL_STENCILS: dict[int, tuple[tuple[int, float], ...]] = {
    0: ((0, 1.0),),
    1: ((-1, -0.5), (1, 0.5)),
    2: ((-1, 1.0), (0, -2.0), (1, 1.0)),
    3: ((-2, -0.5), (-1, 1.0), (1, -1.0), (2, 0.5)),
}


def _fd_once(fn: Callable[[float, float], float], u: float, v: float,
             i: int, j: int, h: float) -> float:
    acc = 0.0
    for du, wu in _CENTRAL_STENCILS[i]:
        for dv, wv in _CENTRAL_STENCILS[j]:
            acc += wu * wv * fn(u + du * h, v + dv * h)
    return acc / h ** (i + j)


def fd_partial(fn: Callable[[float, float], float], u: float, v: float,
               i: int, j: int, step: float = 1e-4, richardson: bool = True) -> float:
    """Central-difference estimate of d^{i+j} fn / du^i dv^j at (u, v).

    Second-order central stencils, tensored over the two directions,
    with one optional Richardson step (cancels the leading h^2 error).
    Test-suite oracle only; roundoff grows quickly with i + j, so use a
    coarser step for third derivatives.
    """
    if i < 0 or j < 0 or i > 3 or j > 3:
        raise ValueError("fd_partial supports derivative orders 0..3 per axis")
    d_h = _fd_once(fn, u, v, i, j, step)
    if not richardson:
        return d_h
    d_h2 = _fd_once(fn, u, v, i, j, step / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0
