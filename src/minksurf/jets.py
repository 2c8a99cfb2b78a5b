"""Truncated bivariate Taylor arithmetic in two parameters, batched over points.

Every differential quantity downstream (metric, frames, curvatures,
Laplacians) is obtained by evaluating expressions in this arithmetic, so
correctness here is load-bearing for the whole package.  A :class:`Jet`
of order ``k`` stores, for every point of a batch, the Taylor-normalized
partials ``c[i, j] = (d^{i+j} f / du^i dv^j) / (i! j!)`` for
``i + j <= k``.  Coefficients form a float array of shape
``(m, *batch)`` with ``m = (k+1)(k+2)/2``, in graded order (total degree
first), so truncation to a lower order is a prefix.  A single point is
the batch ``()``.  A stack of jets (the components of a vector, say)
is one jet whose batch has a leading component axis.  Products are
Cauchy products truncated at total degree ``k``; elementary functions
are applied by composing their univariate Taylor series with the
nilpotent part of the argument.

Every result is bit-for-bit independent of the batch it is computed in:
each product coefficient adds its Cauchy terms in one fixed order
starting from 0.0, the transcendental base values come from ``math`` one
point at a time, and integer powers of base values use
``np.float_power``, which calls the C library ``pow`` just as Python's
float ``**`` does.
"""

from __future__ import annotations

import math
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
    "stack",
    "SUPPORTED_ORDERS",
]

SUPPORTED_ORDERS = (3, 4)

Scalar = Union[int, float, np.ndarray]

# Operands that act on every point's value coefficient: Python and numpy
# integers and floats (bool included), and arrays holding one number per
# point of the batch.  Concrete types, since an ABC check such as
# numbers.Real costs more than the arithmetic on a small batch.
_SCALARS = (np.ndarray, float, int, np.floating, np.integer)


class JetError(Exception):
    """Base class for jet arithmetic failures.  ``points`` is True where
    the operation fails: a bool array shaped like the failing operand's
    values, whose last axis is the batch's point axis, or one bool."""

    def __init__(self, message: str, points=True):
        super().__init__(message)
        self.points = points


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
def _mul_plan(order: int) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """Factor and output indices of the Cauchy terms of the truncated
    product.

    The terms of each output coefficient are added in the order of the
    loops below, starting from 0.0.  They are laid out rank by rank (the
    r-th terms of every output that has one), each rank in output order,
    so that consecutive terms of a rank mostly go to consecutive outputs
    and a product adds them slice by slice.
    """
    idx = _index(order)
    terms: dict[int, list[tuple[int, int]]] = {n: [] for n in idx.values()}
    for ia in range(order + 1):
        for ja in range(order + 1 - ia):
            for ib in range(order + 1 - ia - ja):
                for jb in range(order + 1 - ia - ja - ib):
                    terms[idx[ia + ib, ja + jb]].append(
                        (idx[ia, ja], idx[ib, jb]))
    laid = [(terms[n][r], n) for r in range(max(map(len, terms.values())))
            for n in sorted(terms) if len(terms[n]) > r]
    return (np.array([t[0] for t, _ in laid]),
            np.array([t[1] for t, _ in laid]), tuple(n for _, n in laid))


# Bytes of gathered Cauchy terms a product holds at once.  Larger
# temporaries pass glibc's default 128 KiB mmap and trim thresholds, and
# the pages of each one are then faulted in again on every product.
_TERM_BYTES = 1 << 15


@lru_cache(maxsize=None)
def _mul_runs(order: int, run_terms: int):
    """The terms of ``_mul_plan`` in runs of run_terms terms: per run,
    its factor indices and its pieces (lo, hi, t), which add the run's
    terms t, t+1, ... to the outputs lo, ..., hi - 1."""
    ia, ib, out = _mul_plan(order)
    runs = []
    for start in range(0, len(out), run_terms):
        pieces: list[tuple[int, int, int]] = []
        for t in range(start, min(start + run_terms, len(out))):
            if t > start and out[t] == out[t - 1] + 1:
                lo, hi, first = pieces[-1]
                pieces[-1] = (lo, hi + 1, first)
            else:
                pieces.append((out[t], out[t] + 1, t - start))
        runs.append((ia[start:start + run_terms], ib[start:start + run_terms],
                     tuple(pieces)))
    return tuple(runs)


def _product(order: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    # Each output coefficient adds its terms rank after rank from 0.0,
    # however the runs cut the terms, so the result never changes a bit.
    n_terms = len(_mul_plan(order)[2])
    shape = a.shape if a.shape == b.shape else (
        a.shape[:1] + np.broadcast_shapes(a.shape[1:], b.shape[1:]))
    out = np.zeros(shape)
    run_terms = max(1, _TERM_BYTES // max(out[0].nbytes, 1))
    for run_a, run_b, pieces in _mul_runs(order, min(run_terms, n_terms)):
        terms = a[run_a] * b[run_b]
        for lo, hi, first in pieces:
            out[lo:hi] += terms[first:first + hi - lo]
    return out


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

    ``coeffs`` is a float array of shape ``(m, *batch)``, stored as
    given, unchecked.  Instances are immutable by convention: no
    operation writes into an existing coefficient array.
    Operands of one operation have as many batch axes as each other and
    broadcast as numpy arrays do, so ``s[None] * v`` multiplies each
    component of the stack ``v`` by the jet ``s``, while a ``()`` and a
    ``(2,)`` jet do not combine.  An ``int``, ``bool``, ``float``, numpy
    integer or numpy float, or an array with one number per point of the
    batch, acts on the value coefficient; any other operand type raises
    TypeError.
    """

    __slots__ = ("order", "coeffs")
    __array_ufunc__ = None  # numpy defers array-jet operations to Jet
    __iter__ = None  # indexing selects points; a jet is not a sequence

    def __init__(self, order: int, coeffs: np.ndarray):
        self.order = order
        self.coeffs = coeffs

    # -- construction -------------------------------------------------

    @classmethod
    def constant(cls, value: Scalar, order: int) -> "Jet":
        value = np.asarray(value, dtype=float)
        coeffs = np.zeros((_size(order),) + value.shape)
        coeffs[0] = value
        return Jet(order, coeffs)

    # -- inspection ---------------------------------------------------

    @property
    def batch(self) -> tuple[int, ...]:
        return self.coeffs.shape[1:]

    def __getitem__(self, index) -> "Jet":
        """The jet at the chosen points (or components) of the batch; the
        index applies to the batch axes as it would to a numpy array."""
        index = index if isinstance(index, tuple) else (index,)
        return Jet(self.order, self.coeffs[(slice(None),) + index])

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
            return Jet(k, _product(k, a, b))
        if isinstance(other, _SCALARS):
            return Jet(self.order, self.coeffs * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Jet":
        if isinstance(other, Jet):
            return self * reciprocal(other)
        if isinstance(other, _SCALARS):
            bad = np.equal(other, 0.0)
            if bad.any():
                raise DivisionByZeroValue("division by scalar zero", bad)
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
    if len(a.batch) != len(b.batch):
        raise ValueError(f"jet batches differ: {a.batch} and {b.batch}")
    k = min(a.order, b.order)
    return k, a.coeffs[:_size(k)], b.coeffs[:_size(k)]


def stack(jets: Sequence[Jet], axis: int = 0) -> Jet:
    """One jet whose batch has a new axis at ``axis`` along the given
    jets, at the lowest of their orders: ``np.stack`` of their
    coefficients, as one concatenation of views with the new axis."""
    k = min(j.order for j in jets)
    view = (slice(_size(k)),) + (slice(None),) * axis + (None,)
    return Jet(k, np.concatenate([j.coeffs[view] for j in jets],
                                 axis=axis + 1))


def _overflows(fn: Callable[[float], float], t: float) -> bool:
    try:
        fn(t)
    except OverflowError:
        return True
    return False


def _pointwise(fn: Callable[[float], float], x) -> np.ndarray:
    # a math function applied one point at a time, so that its result
    # does not depend on the batch; an OverflowError names its points
    values = x.ravel().tolist()
    try:
        return np.array([fn(t) for t in values]).reshape(x.shape)
    except OverflowError as err:
        err.points = np.array([_overflows(fn, t) for t in values]
                              ).reshape(x.shape)
        raise


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
    bad = x0 == 0.0
    if bad.any():
        raise DivisionByZeroValue("reciprocal of a jet with zero value", bad)
    series = [(-1.0) ** m / np.float_power(x0, m + 1)
              for m in range(a.order + 1)]
    return _compose(series, a)


def sqrt(a: Jet) -> Jet:
    x0 = a.value()
    bad = x0 <= 0.0
    if bad.any():
        raise DomainError(
            f"sqrt requires a positive value, got {_first(x0, bad)!r}", bad)
    series = [np.sqrt(x0)]
    for m in range(1, a.order + 1):
        series.append(series[m - 1] * (0.5 - (m - 1)) / (m * x0))
    return _compose(series, a)


def log(a: Jet) -> Jet:
    x0 = a.value()
    bad = x0 <= 0.0
    if bad.any():
        raise DomainError(
            f"log requires a positive value, got {_first(x0, bad)!r}", bad)
    series = [_pointwise(math.log, x0)]
    for m in range(1, a.order + 1):
        series.append((-1.0) ** (m + 1) / (m * np.float_power(x0, m)))
    return _compose(series, a)


def _cyclic(cycle: Sequence, a: Jet) -> Jet:
    # f(a) for an f whose derivatives at the base value repeat the cycle:
    # coefficient m of its series is cycle[m % len(cycle)] / m!
    return _compose([cycle[m % len(cycle)] / math.factorial(m)
                     for m in range(a.order + 1)], a)


def exp(a: Jet) -> Jet:
    return _cyclic((_pointwise(math.exp, a.value()),), a)


def _nan_at_infinity(fn: Callable[[float], float]) -> Callable[[float], float]:
    # math.sin and math.cos raise ValueError at +-inf; NaN there makes an
    # overflowed argument a non-finite value like any other overflow
    return lambda t: fn(t) if math.isfinite(t) else math.nan


float_sin, float_cos = _nan_at_infinity(math.sin), _nan_at_infinity(math.cos)


def sin(a: Jet) -> Jet:
    s0, c0 = _pointwise(float_sin, a.value()), _pointwise(float_cos, a.value())
    return _cyclic((s0, c0, -s0, -c0), a)


def cos(a: Jet) -> Jet:
    s0, c0 = _pointwise(float_sin, a.value()), _pointwise(float_cos, a.value())
    return _cyclic((c0, -s0, -c0, s0), a)


def sinh(a: Jet) -> Jet:
    s0, c0 = _pointwise(math.sinh, a.value()), _pointwise(math.cosh, a.value())
    return _cyclic((s0, c0), a)


def cosh(a: Jet) -> Jet:
    s0, c0 = _pointwise(math.sinh, a.value()), _pointwise(math.cosh, a.value())
    return _cyclic((c0, s0), a)


# -- contract-level entry points --------------------------------------


def jet_variable(which: str, value: Scalar, k: int) -> Jet:
    """A coordinate jet for u or v at the given base value (a number, or
    an array with one base value per point), order k in {3, 4}."""
    if k not in SUPPORTED_ORDERS:
        raise UnsupportedOrder(f"order must be one of {SUPPORTED_ORDERS}, got {k}")
    if which not in ("u", "v"):
        raise ValueError(f"unknown variable {which!r}; expected 'u' or 'v'")
    jet = Jet.constant(value, k)
    jet.coeffs[_index(k)[(1, 0) if which == "u" else (0, 1)]] = 1.0
    return jet

