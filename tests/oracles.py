"""Oracles for the tests, sharing no code with the package: a float
evaluator of expression texts and a finite-difference estimate of
partial derivatives."""

from __future__ import annotations

import math
from typing import Callable, Mapping, Optional

# The expression language's elementary functions, taken from math.
_FUNCTIONS = {name: getattr(math, name)
              for name in ("sin", "cos", "sinh", "cosh", "exp", "sqrt", "log")}


def eval_text(text: str, u: float, v: float,
              params: Optional[Mapping[str, float]] = None) -> float:
    """The value of an expression text at (u, v), by Python's ``eval``
    with ``^`` read as ``**``: the two grammars agree on precedence, as
    ``-u^2`` is ``-(u^2)`` and a power's exponent is an integer."""
    names = {**_FUNCTIONS, **(params or {}), "u": float(u), "v": float(v)}
    return float(eval(text.replace("^", "**"), {"__builtins__": {}}, names))


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
               i: int, j: int, step: float = 1e-4) -> float:
    """Central-difference estimate of d^{i+j} fn / du^i dv^j at (u, v).

    Second-order central stencils, tensored over the two directions,
    with one Richardson step (cancels the leading h^2 error).  Roundoff
    grows quickly with i + j, so use a coarser step for third
    derivatives.
    """
    if i < 0 or j < 0 or i > 3 or j > 3:
        raise ValueError("fd_partial supports derivative orders 0..3 per axis")
    d_h = _fd_once(fn, u, v, i, j, step)
    d_h2 = _fd_once(fn, u, v, i, j, step / 2.0)
    return (4.0 * d_h2 - d_h) / 3.0

