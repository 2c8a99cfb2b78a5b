"""A small infix expression language for immersion components.

Grammar (standard precedence, ^ binds tightest, integer exponents only):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := '-' factor | power
    power   := atom ('^' ['-'] INTEGER)?
    atom    := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')'

Identifiers are the coordinates u and v, declared parameter names, or
the function names sin, cos, sinh, cosh, exp, sqrt, log.  An exponent's
magnitude is at most MAX_EXPONENT, and the nesting is bounded by
MAX_GROUPS and MAX_HEIGHT.

A parsed expression is a plan: a tuple of steps ``(op, *args)`` in
evaluation order, whose last step is the value.  A step's operands are
indices of earlier steps:

    ("const", x)          a non-negative number literal
    ("name", s)           u, v or a parameter
    ("neg", i), (f, i)    unary minus, or one of the FUNCTION_NAMES
    (o, i, j)             o one of + - * /
    ("^", i, n)           an integer power

Evaluation, printing and equality (plain tuple equality) loop over the
steps, so none of them recurses.  Serialization is canonical:
parse(serialize(plan)) == plan.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Iterator, Mapping, Optional

import numpy as np

from . import jets
from .jets import Jet

__all__ = [
    "Expr",
    "ParseError",
    "UnknownIdentifier",
    "ArityError",
    "parse_expression",
    "serialize_expression",
    "eval_jet",
    "eval_float",
    "free_identifiers",
]

# A jet power multiplies once per unit of its exponent, so the exponent
# is capped to keep evaluation time bounded.
MAX_EXPONENT = 1000

# Parsing recurses about five frames per open group (a parenthesis, a
# function argument or a unary minus), and MAX_GROUPS keeps it inside
# Python's default recursion limit.  No other pass recurses; MAX_HEIGHT
# stays so that the set of accepted texts does not change.
MAX_GROUPS = 100
MAX_HEIGHT = 400

Expr = tuple[tuple, ...]

# The elementary functions; each has the same name in math and in jets.
FUNCTION_NAMES = ("sin", "cos", "sinh", "cosh", "exp", "sqrt", "log")


class ParseError(Exception):
    """Syntax failure, carrying a 1-based source position."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column


class UnknownIdentifier(ParseError):
    """An identifier that is not u, v, a declared parameter, or a function."""


class ArityError(ParseError):
    """A function used without its single parenthesized argument."""


# -- lexer --------------------------------------------------------------

_OPS = "+-*/^(),"


@dataclass(frozen=True, slots=True)
class _Token:
    kind: str  # "number" | "ident" | one of _OPS | "end"
    text: str
    line: int
    column: int


# Numbers are written in ASCII digits only: str.isdigit also takes
# superscripts and other scripts' digits, which int() and float() either
# reject or silently read as numbers.
_DIGITS = frozenset("0123456789")


def _tokens(text: str, line0: int = 1, col0: int = 1) -> Iterator[_Token]:
    line, col = line0, col0
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        start_col = col
        if ch in _DIGITS or (ch == "." and i + 1 < n and text[i + 1] in _DIGITS):
            j = i
            seen_dot = False
            while j < n and (text[j] in _DIGITS or (text[j] == "." and not seen_dot)):
                seen_dot = seen_dot or text[j] == "."
                j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in _DIGITS:
                    j = k
                    while j < n and text[j] in _DIGITS:
                        j += 1
            tok = text[i:j]
            col += j - i
            i = j
            yield _Token("number", tok, line, start_col)
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tok = text[i:j]
            col += j - i
            i = j
            yield _Token("ident", tok, line, start_col)
            continue
        if ch in _OPS:
            i += 1
            col += 1
            yield _Token(ch, ch, line, start_col)
            continue
        raise ParseError(f"unexpected character {ch!r}", line, start_col)
    yield _Token("end", "", line, col)


class _Parser:
    def __init__(self, text: str, params: Optional[frozenset],
                 line0: int, col0: int):
        self._toks = list(_tokens(text, line0, col0))
        self._pos = 0
        self._params = params
        self._groups = 0
        self._steps: list[tuple] = []

    @property
    def _cur(self) -> _Token:
        return self._toks[self._pos]

    def _advance(self) -> _Token:
        t = self._cur
        self._pos += 1
        return t

    def _expect(self, kind: str) -> _Token:
        if self._cur.kind != kind:
            raise ParseError(
                f"expected {kind!r}, found {self._cur.text or 'end of input'!r}",
                self._cur.line, self._cur.column)
        return self._advance()

    def _node(self, tok: _Token, step: tuple, *heights: int
              ) -> tuple[int, int]:
        # append step, built at tok over subtrees of these heights;
        # return its index and height
        height = 1 + max(heights, default=0)
        if height > MAX_HEIGHT:
            raise ParseError(f"expression is more than {MAX_HEIGHT} levels "
                             "deep", tok.line, tok.column)
        self._steps.append(step)
        return len(self._steps) - 1, height

    def _inside(self, tok: _Token, parse):
        # parse() in the group that tok opens
        self._groups += 1
        if self._groups > MAX_GROUPS:
            raise ParseError(f"more than {MAX_GROUPS} nested parentheses, "
                             "functions or minus signs", tok.line, tok.column)
        result = parse()
        self._groups -= 1
        return result

    def parse(self) -> Expr:
        self._expr()
        if self._cur.kind != "end":
            raise ParseError(f"unexpected trailing {self._cur.text!r}",
                             self._cur.line, self._cur.column)
        return tuple(self._steps)

    # Each method below returns the index of a subtree's last step and
    # the subtree's height.  _expr joins terms by + and - (level 0), and
    # factors by * and / (level 1).

    def _expr(self, level: int = 0) -> tuple[int, int]:
        i, height = self._expr(1) if level == 0 else self._factor()
        while self._cur.kind in (("+", "-"), ("*", "/"))[level]:
            op = self._advance()
            j, rhs_height = self._expr(1) if level == 0 else self._factor()
            i, height = self._node(op, (op.kind, i, j), height, rhs_height)
        return i, height

    def _factor(self) -> tuple[int, int]:
        if self._cur.kind == "-":
            tok = self._advance()
            i, height = self._inside(tok, self._factor)
            return self._node(tok, ("neg", i), height)
        return self._power()

    def _power(self) -> tuple[int, int]:
        i, height = self._atom()
        if self._cur.kind != "^":
            return i, height
        caret = self._advance()
        negate = False
        if self._cur.kind == "-":
            self._advance()
            negate = True
        tok = self._cur
        if tok.kind != "number" or not tok.text.isdigit():
            raise ParseError("exponent must be an integer literal",
                             caret.line, caret.column)
        digits = tok.text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent {tok.text} exceeds {MAX_EXPONENT}",
                             tok.line, tok.column)
        self._advance()
        exponent = int(digits)
        return self._node(caret, ("^", i, -exponent if negate else exponent),
                          height)

    def _atom(self) -> tuple[int, int]:
        tok = self._cur
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} is too large",
                                 tok.line, tok.column)
            self._advance()
            return self._node(tok, ("const", value))
        if tok.kind == "(":
            self._advance()
            found = self._inside(tok, self._expr)
            self._expect(")")
            return found
        if tok.kind == "ident":
            self._advance()
            name = tok.text
            if name in FUNCTION_NAMES:
                if self._cur.kind != "(":
                    raise ArityError(
                        f"function {name!r} requires one parenthesized argument",
                        tok.line, tok.column)
                self._advance()
                i, height = self._inside(tok, self._expr)
                if self._cur.kind == ",":
                    raise ArityError(
                        f"function {name!r} takes exactly one argument",
                        self._cur.line, self._cur.column)
                self._expect(")")
                return self._node(tok, (name, i), height)
            if (name not in ("u", "v") and self._params is not None
                    and name not in self._params):
                raise UnknownIdentifier(f"unknown identifier {name!r}",
                                        tok.line, tok.column)
            return self._node(tok, ("name", name))
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line, tok.column)


def parse_expression(text: str, params: Optional[Mapping | frozenset] = None,
                     line0: int = 1, col0: int = 1) -> Expr:
    """Parse one expression into its plan.

    When ``params`` is given, identifiers other than u, v, the function
    names, and the listed parameters raise UnknownIdentifier with their
    source position.  ``line0``/``col0`` offset reported positions so
    expressions embedded in larger files point at the right place.
    """
    declared = None if params is None else frozenset(params)
    return _Parser(text, declared, line0, col0).parse()


# -- serialization -------------------------------------------------------

def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def serialize_expression(e: Expr) -> str:
    """Canonical text form; parses back to an equal plan."""
    # the text of each step, and its precedence: 1 for + -, 2 for * /,
    # 3 for a unary minus, 4 for a power, 5 for an atom
    texts: list[str] = []
    precs: list[int] = []

    def operand(i: int, least: int) -> str:
        return texts[i] if precs[i] >= least else f"({texts[i]})"

    for op, a, *rest in e:
        if op == "const":
            text, prec = _fmt_const(a), 5
        elif op == "name":
            text, prec = a, 5
        elif op == "neg":
            # "--u", not "-(-u)": the text of a plan within the parser's
            # bounds stays within them
            text, prec = "-" + operand(a, 3), 3
        elif op == "^":
            text, prec = f"{operand(a, 5)}^{rest[0]}", 4
        elif op in FUNCTION_NAMES:
            text, prec = f"{op}({texts[a]})", 5
        else:
            prec = 1 if op in "+-" else 2
            # the right operand needs parentheses at equal precedence too:
            # '-' and '/' are left-associative, and a leading '-' in it
            # must not fuse
            text = f"{operand(a, prec)} {op} {operand(rest[0], prec + 1)}"
        texts.append(text)
        precs.append(prec)
    return texts[-1]


# -- evaluation ----------------------------------------------------------

def free_identifiers(e: Expr) -> frozenset[str]:
    """Coordinate and parameter names appearing in the expression."""
    return frozenset(step[1] for step in e if step[0] == "name")


def _jet_or_float(jet_fn, float_fn):
    # steps with no u/v dependence evaluate to bare floats; a math
    # domain error there is a jet domain error at every point
    def apply(a):
        if isinstance(a, Jet):
            return jet_fn(a)
        try:
            return float_fn(a)
        except ValueError as err:
            raise jets.DomainError(f"{err} at the constant {a!r}") from None
    return apply


_ARITH = {"neg": operator.neg, "+": operator.add, "-": operator.sub,
          "*": operator.mul, "/": operator.truediv}

_FLOAT_FNS = {**{name: getattr(math, name) for name in FUNCTION_NAMES},
              "sin": jets.float_sin, "cos": jets.float_cos}

_FLOAT_STEPS = {**_ARITH, **_FLOAT_FNS}

_JET_STEPS = {**_ARITH, **{name: _jet_or_float(getattr(jets, name), float_fn)
                           for name, float_fn in _FLOAT_FNS.items()}}


def _run(e: Expr, env: Mapping[str, object], steps: Mapping) -> object:
    values: list = []
    for op, a, *rest in e:
        if op == "const":
            value = a
        elif op == "name":
            try:
                value = env[a]
            except KeyError:
                raise KeyError(f"unbound identifier {a!r}") from None
        elif op == "^":
            value = values[a] ** rest[0]
        else:
            value = steps[op](values[a], *[values[j] for j in rest])
        values.append(value)
    return values[-1]


def eval_jet(e: Expr, u: Jet, v: Jet, params: Mapping[str, float]) -> Jet:
    """Evaluate in jet arithmetic; constants are widened to the jet order
    and to the batch of u."""
    env = {"u": u, "v": v, **params}
    out = _run(e, env, _JET_STEPS)
    if isinstance(out, Jet):
        return out
    return Jet.constant(np.full(u.batch, float(out)), u.order)


def eval_float(e: Expr, u: float, v: float, params: Mapping[str, float]) -> float:
    """Plain float evaluation, used by the finite-difference oracle."""
    env = {"u": float(u), "v": float(v), **params}
    out = _run(e, env, _FLOAT_STEPS)
    return float(out)
