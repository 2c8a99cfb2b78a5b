"""Truncated bivariate Taylor arithmetic in two parameters, batched over points.

Every differential quantity downstream (metric, frames, curvatures,
Laplacians) is obtained by evaluating expressions in this arithmetic, so
correctness here is load-bearing for the whole package.  A :class:`Jet`
of order ``k`` stores, for every point of a batch, the Taylor-normalized
partials ``c[i, j] = (d^{i+j} f / du^i dv^j) / (i! j!)`` for
``i + j <= k``.  Coefficients form a float array of shape
``(m, *batch)`` with ``m = (k+1)(k+2)/2``, in graded order (total degree
first), so truncation to a lower order is a prefix.  A single point is
the batch ``()``.  Products are Cauchy products truncated at total
degree ``k``; elementary functions are applied by composing their
univariate Taylor series with the nilpotent part of the argument.

Every result is bit-for-bit independent of the batch it is computed in:
each product coefficient adds its Cauchy terms in one fixed order
starting from 0.0, the transcendental base values come from ``math`` one
point at a time, and integer powers of base values use
``np.float_power``, which calls the C library ``pow`` just as Python's
float ``**`` does.

A small central finite-difference evaluator ships alongside.  It is the
independent oracle used by the cross-check test suites and is never on
the main computation path.
"""

from __future__ import annotations

import math
import numbers
from functools import lru_cache
from typing import Callable, Sequence, Union

import numpy as np

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

Scalar = Union[int, float, np.ndarray]

# Right operands that act on every point's value coefficient: numbers,
# or arrays holding one number per point of the batch.
_SCALARS = (numbers.Real, np.ndarray)


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


def _size(order: int) -> int:
    return (order + 1) * (order + 2) // 2


@lru_cache(maxsize=None)
def _index(order: int) -> dict[tuple[int, int], int]:
    # graded storage: degree 0, then (1,0), (0,1), then (2,0), (1,1), ...
    pairs = [(i, d - i) for d in range(order + 1) for i in range(d, -1, -1)]
    return {pair: n for n, pair in enumerate(pairs)}


@lru_cache(maxsize=None)
def _mul_plan(order: int):
    """Index arrays of the truncated product.

    The Cauchy terms of each output coefficient are added in the order
    of the loops below, starting from 0.0.  The outputs are ranked by
    term count, so that the r-th terms of all outputs that have one form
    a prefix, and added block by block, rank after rank.
    """
    idx = _index(order)
    plan = []
    for ia in range(order + 1):
        for ja in range(order + 1 - ia):
            for ib in range(order + 1 - ia - ja):
                for jb in range(order + 1 - ia - ja - ib):
                    plan.append((idx[ia, ja], idx[ib, jb], idx[ia + ib, ja + jb]))
    terms: dict[int, list[int]] = {n: [] for n in idx.values()}
    for t, (_, _, out) in enumerate(plan):
        terms[out].append(t)
    ranked = sorted(terms, key=lambda n: -len(terms[n]))
    order_by_rank, blocks = [], []
    for r in range(len(terms[ranked[0]])):
        outs = [n for n in ranked if len(terms[n]) > r]
        blocks.append((len(order_by_rank), len(outs)))
        order_by_rank += [terms[n][r] for n in outs]
    ia, ib, _ = (np.array(col) for col in zip(*plan))
    by_rank = np.array(order_by_rank)
    return ia[by_rank], ib[by_rank], tuple(blocks), np.argsort(ranked)


@lru_cache(maxsize=None)
def _deriv_plan(order: int, axis: int) -> tuple[np.ndarray, np.ndarray]:
    # source index and factor of each coefficient of d/du (axis 0) or
    # d/dv (axis 1), which has one order less
    src = _index(order)
    shift = [(i + 1, j) if axis == 0 else (i, j + 1) for i, j in _index(order - 1)]
    factor = [float(s[axis]) for s in shift]
    return np.array([src[s] for s in shift]), np.array(factor)


def _first(values: np.ndarray, bad: np.ndarray) -> float:
    # the first offending point's value, for error messages
    return float(np.ravel(values)[np.flatnonzero(bad)[0]])


class Jet:
    """A bivariate Taylor polynomial truncated at total degree ``order``,
    one per point of a batch.

    ``coeffs`` has shape ``(m, *batch)``.  Instances are immutable by
    convention: no operation writes into an existing coefficient array.
    Operands of one operation share the batch shape; numbers and
    per-point arrays act on the value coefficient.
    """

    __slots__ = ("order", "coeffs")
    __array_ufunc__ = None  # numpy defers array-jet operations to Jet

    def __init__(self, order: int, coeffs):
        if order < 0:
            raise UnsupportedOrder(f"jet order must be nonnegative, got {order}")
        coeffs = np.asarray(coeffs, dtype=float)
        if coeffs.shape[:1] != (_size(order),):
            raise ValueError(f"expected {_size(order)} coefficients, "
                             f"got shape {coeffs.shape}")
        object.__setattr__(self, "order", order)
        object.__setattr__(self, "coeffs", coeffs)

    def __setattr__(self, name, value):  # pragma: no cover - misuse guard
        raise AttributeError("Jet is immutable")

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((_size(order),) + value.shape)
        coeffs[0] = value
        return cls(order, coeffs)

    @classmethod
    def variable(cls, which: str, value: Scalar, order: int) -> "Jet":
        if order < 1:
            raise UnsupportedOrder("a variable jet needs order >= 1")
        if which not in ("u", "v"):
            raise ValueError(f"unknown variable {which!r}; expected 'u' or 'v'")
        jet = cls.constant(value, order)
        jet.coeffs[_index(order)[(1, 0) if which == "u" else (0, 1)]] = 1.0
        return jet

    # -- inspection ---------------------------------------------------

    @property
    def batch(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    def select(self, index) -> "Jet":
        """The jet at the chosen points of a one-axis batch."""
        return Jet(self.order, self.coeffs[:, index])

    def value(self):
        return self.coeffs[0]

    def coeff(self, i: int, j: int):
        """Taylor-normalized coefficient of (u-u0)^i (v-v0)^j."""
        if i < 0 or j < 0 or i + j > self.order:
            raise OrderExceeded(f"coefficient ({i},{j}) beyond order {self.order}")
        return self.coeffs[_index(self.order)[i, j]]

    def partial(self, i: int, j: int):
        """Raw partial derivative d^{i+j}/du^i dv^j at the base point."""
        return math.factorial(i) * math.factorial(j) * self.coeff(i, j)

    def __repr__(self) -> str:
        if self.batch:
            return f"Jet(order={self.order}, batch={self.batch})"
        nz = {pair: float(self.coeffs[n])
              for pair, n in _index(self.order).items() if self.coeffs[n] != 0.0}
        return f"Jet(order={self.order}, {nz})"

    def __eq__(self, other) -> bool:
        if not isinstance(other, Jet):
            return NotImplemented
        return (self.order == other.order
                and np.array_equal(self.coeffs, other.coeffs))

    def __hash__(self) -> int:
        # + 0.0 turns -0.0 into 0.0, which compares equal to it
        return hash((self.order, self.coeffs.shape,
                     (self.coeffs + 0.0).tobytes()))

    # -- ring operations ----------------------------------------------

    def truncated(self, order: int) -> "Jet":
        """This jet with every coefficient of total degree > order dropped."""
        if order >= self.order:
            return self
        return Jet(order, self.coeffs[:_size(order)])

    def _with_value(self, value) -> "Jet":
        coeffs = self.coeffs.copy()
        coeffs[0] = value
        return Jet(self.order, coeffs)

    def __add__(self, other) -> "Jet":
        if isinstance(other, Jet):
            k, a, b = _align(self, other)
            return Jet(k, a + b)
        if isinstance(other, _SCALARS):
            return self._with_value(self.coeffs[0] + other)
        return NotImplemented

    __radd__ = __add__

    def __neg__(self) -> "Jet":
        return Jet(self.order, -self.coeffs)

    def __sub__(self, other) -> "Jet":
        if isinstance(other, Jet):
            k, a, b = _align(self, other)
            return Jet(k, a - b)
        if isinstance(other, _SCALARS):
            return self._with_value(self.coeffs[0] - other)
        return NotImplemented

    def __rsub__(self, other) -> "Jet":
        return (-self) + other

    def __mul__(self, other) -> "Jet":
        if isinstance(other, Jet):
            k, a, b = _align(self, other)
            ia, ib, blocks, unrank = _mul_plan(k)
            terms = a[ia] * b[ib]
            acc = np.zeros(a.shape)
            for start, count in blocks:
                acc[:count] += terms[start:start + count]
            return Jet(k, acc[unrank])
        if isinstance(other, _SCALARS):
            return Jet(self.order, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self * reciprocal(other)
        if isinstance(other, _SCALARS):
            if np.any(np.equal(other, 0.0)):
                raise DivisionByZeroValue("division by scalar zero")
            return self * (1.0 / other)
        return NotImplemented

    def __rtruediv__(self, other) -> "Jet":
        if isinstance(other, _SCALARS):
            return reciprocal(self) * other
        return NotImplemented

    def __pow__(self, exponent: int) -> "Jet":
        if not isinstance(exponent, int):
            return NotImplemented
        if exponent < 0:
            return reciprocal(self) ** (-exponent)
        result = Jet.constant(np.ones(self.batch), self.order)
        for _ in range(exponent):
            result = result * self
        return result

    # -- calculus -----------------------------------------------------

    def _deriv(self, axis: int) -> "Jet":
        if self.order == 0:
            raise OrderExceeded("cannot differentiate an order-0 jet")
        src, factor = _deriv_plan(self.order, axis)
        factor = factor.reshape(factor.shape + (1,) * len(self.batch))
        return Jet(self.order - 1, factor * self.coeffs[src])

    def deriv_u(self) -> "Jet":
        """Jet of df/du, one order lower."""
        return self._deriv(0)

    def deriv_v(self) -> "Jet":
        """Jet of df/dv, one order lower."""
        return self._deriv(1)


def _align(a: Jet, b: Jet) -> tuple[int, np.ndarray, np.ndarray]:
    # Mixed orders arise naturally (a second derivative of the immersion
    # times a frame jet); the product is only determined to the lower order.
    if a.coeffs.shape == b.coeffs.shape:
        return a.order, a.coeffs, b.coeffs
    if a.batch != b.batch:
        raise ValueError(f"jet batches differ: {a.batch} and {b.batch}")
    k = min(a.order, b.order)
    return k, a.coeffs[:_size(k)], b.coeffs[:_size(k)]


def _pointwise(fn: Callable[[float], float], x) -> np.ndarray:
    # a math function applied one point at a time, so that its result
    # does not depend on the batch
    return np.reshape([fn(t) for t in np.ravel(x).tolist()], np.shape(x))


def _compose(series: Sequence, a: Jet) -> Jet:
    # Horner evaluation of sum_m series[m] * w^m where w is the
    # nilpotent part of a (so w^{k+1} = 0 in the truncated ring).
    w = a - a.value()
    result = Jet.constant(series[-1], a.order)
    for c in reversed(series[:-1]):
        result = result * w + c
    return result


def reciprocal(a: Jet) -> Jet:
    x0 = a.value()
    if np.any(x0 == 0.0):
        raise DivisionByZeroValue("reciprocal of a jet with zero value")
    series = [(-1.0) ** m / np.float_power(x0, m + 1)
              for m in range(a.order + 1)]
    return _compose(series, a)


def sqrt(a: Jet) -> Jet:
    x0 = a.value()
    bad = x0 <= 0.0
    if np.any(bad):
        raise DomainError(
            f"sqrt requires a positive value, got {_first(x0, bad)!r}")
    series = [np.sqrt(x0)]
    for m in range(1, a.order + 1):
        series.append(series[m - 1] * (0.5 - (m - 1)) / (m * x0))
    return _compose(series, a)


def log(a: Jet) -> Jet:
    x0 = a.value()
    bad = x0 <= 0.0
    if np.any(bad):
        raise DomainError(
            f"log requires a positive value, got {_first(x0, bad)!r}")
    series = [_pointwise(math.log, x0)]
    for m in range(1, a.order + 1):
        series.append((-1.0) ** (m + 1) / (m * np.float_power(x0, m)))
    return _compose(series, a)


def exp(a: Jet) -> Jet:
    e0 = _pointwise(math.exp, a.value())
    series = [e0 / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def sin(a: Jet) -> Jet:
    s0, c0 = _pointwise(math.sin, a.value()), _pointwise(math.cos, a.value())
    cycle = (s0, c0, -s0, -c0)
    series = [cycle[m % 4] / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def cos(a: Jet) -> Jet:
    s0, c0 = _pointwise(math.sin, a.value()), _pointwise(math.cos, a.value())
    cycle = (c0, -s0, -c0, s0)
    series = [cycle[m % 4] / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def sinh(a: Jet) -> Jet:
    s0, c0 = _pointwise(math.sinh, a.value()), _pointwise(math.cosh, a.value())
    series = [(s0 if m % 2 == 0 else c0) / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


def cosh(a: Jet) -> Jet:
    s0, c0 = _pointwise(math.sinh, a.value()), _pointwise(math.cosh, a.value())
    series = [(c0 if m % 2 == 0 else s0) / math.factorial(m) for m in range(a.order + 1)]
    return _compose(series, a)


# -- contract-level entry points --------------------------------------


def jet_variable(which: str, value: Scalar, k: int) -> Jet:
    """A coordinate jet for u or v at the given base value (a number, or
    an array with one base value per point), order k in {3, 4}."""
    if k not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(f"order must be one of {SUPPORTED_ORDERS}, got {k}")
    return Jet.variable(which, value, k)


def partial(a: Jet, i: int, j: int):
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
