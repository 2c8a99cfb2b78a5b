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
MAX_GROUPS and MAX_HEIGHT.  The AST is a tree of frozen
dataclasses with structural equality, and serialization is canonical:
parse(serialize(ast)) == ast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping, Optional, Union

import numpy as np

from . import jets
from .jets import Jet

__all__ = [
    "Expr",
    "Const",
    "Coord",
    "Param",
    "Unary",
    "BinOp",
    "Pow",
    "UnaryFn",
    "BinFn",
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
# function argument or a unary minus), and evaluation, serialization and
# splicing one frame per level of the tree; these bounds keep all of
# them inside Python's default recursion limit.
MAX_GROUPS = 100
MAX_HEIGHT = 400


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


class UnaryFn(Enum):
    NEG = "neg"
    SIN = "sin"
    COS = "cos"
    SINH = "sinh"
    COSH = "cosh"
    EXP = "exp"
    SQRT = "sqrt"
    LOG = "log"


# The elementary functions; each has the same name in math and in jets.
FUNCTION_NAMES = tuple(fn.value for fn in UnaryFn if fn is not UnaryFn.NEG)


class BinFn(Enum):
    ADD = "+"
    SUB = "-"
    MUL = "*"
    DIV = "/"


@dataclass(frozen=True, slots=True)
class Const:
    value: float


@dataclass(frozen=True, slots=True)
class Coord:
    name: str  # "u" or "v"


@dataclass(frozen=True, slots=True)
class Param:
    name: str


@dataclass(frozen=True, slots=True)
class Unary:
    fn: UnaryFn
    arg: "Expr"


@dataclass(frozen=True, slots=True)
class BinOp:
    fn: BinFn
    lhs: "Expr"
    rhs: "Expr"


@dataclass(frozen=True, slots=True)
class Pow:
    base: "Expr"
    exponent: int


Expr = Union[Const, Coord, Param, Unary, BinOp, Pow]


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

    def _node(self, node: Expr, tok: _Token, *heights: int
              ) -> tuple[Expr, int]:
        # node, built at tok over subtrees of these heights, and its height
        height = 1 + max(heights)
        if height > MAX_HEIGHT:
            raise ParseError(f"expression is more than {MAX_HEIGHT} levels "
                             "deep", tok.line, tok.column)
        return node, height

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
        e, _ = self._expr()
        if self._cur.kind != "end":
            raise ParseError(f"unexpected trailing {self._cur.text!r}",
                             self._cur.line, self._cur.column)
        return e

    # Each method below returns a subtree and its height.  _expr joins
    # terms by + and - (level 0), and factors by * and / (level 1).

    def _expr(self, level: int = 0) -> tuple[Expr, int]:
        e, height = self._expr(1) if level == 0 else self._factor()
        while self._cur.kind in (("+", "-"), ("*", "/"))[level]:
            op = self._advance()
            rhs, rhs_height = self._expr(1) if level == 0 else self._factor()
            e, height = self._node(BinOp(BinFn(op.kind), e, rhs), op,
                                   height, rhs_height)
        return e, height

    def _factor(self) -> tuple[Expr, int]:
        if self._cur.kind == "-":
            tok = self._advance()
            arg, height = self._inside(tok, self._factor)
            return self._node(Unary(UnaryFn.NEG, arg), tok, height)
        return self._power()

    def _power(self) -> tuple[Expr, int]:
        base, height = self._atom()
        if self._cur.kind != "^":
            return base, height
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
        return self._node(Pow(base, -exponent if negate else exponent),
                          caret, height)

    def _atom(self) -> tuple[Expr, int]:
        tok = self._cur
        if tok.kind == "number":
            value = float(tok.text)
            if not math.isfinite(value):
                raise ParseError(f"number {tok.text!r} is too large",
                                 tok.line, tok.column)
            self._advance()
            return Const(value), 1
        if tok.kind == "(":
            self._advance()
            e = self._inside(tok, self._expr)
            self._expect(")")
            return e
        if tok.kind == "ident":
            self._advance()
            name = tok.text
            if name in FUNCTION_NAMES:
                if self._cur.kind != "(":
                    raise ArityError(
                        f"function {name!r} requires one parenthesized argument",
                        tok.line, tok.column)
                self._advance()
                arg, height = self._inside(tok, self._expr)
                if self._cur.kind == ",":
                    raise ArityError(
                        f"function {name!r} takes exactly one argument",
                        self._cur.line, self._cur.column)
                self._expect(")")
                return self._node(Unary(UnaryFn(name), arg), tok, height)
            if name in ("u", "v"):
                return Coord(name), 1
            if self._params is not None and name not in self._params:
                raise UnknownIdentifier(f"unknown identifier {name!r}",
                                        tok.line, tok.column)
            return Param(name), 1
        raise ParseError(
            f"expected a value, found {tok.text or 'end of input'!r}",
            tok.line, tok.column)


def parse_expression(text: str, params: Optional[Mapping | frozenset] = None,
                     line0: int = 1, col0: int = 1) -> Expr:
    """Parse one expression.

    When ``params`` is given, identifiers other than u, v, the function
    names, and the listed parameters raise UnknownIdentifier with their
    source position.  ``line0``/``col0`` offset reported positions so
    expressions embedded in larger files point at the right place.
    """
    declared = None if params is None else frozenset(params)
    return _Parser(text, declared, line0, col0).parse()


# -- serialization -------------------------------------------------------

def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return 1 if e.fn in (BinFn.ADD, BinFn.SUB) else 2
    if isinstance(e, Unary) and e.fn is UnaryFn.NEG:
        return 3
    if isinstance(e, Pow):
        return 4
    return 5


def _fmt_const(value: float) -> str:
    if value == int(value) and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def serialize_expression(e: Expr) -> str:
    """Canonical text form; parses back to an equal AST."""
    if isinstance(e, Const):
        return _fmt_const(e.value)
    if isinstance(e, Coord):
        return e.name
    if isinstance(e, Param):
        return e.name
    if isinstance(e, Unary):
        if e.fn is UnaryFn.NEG:
            # "--u", not "-(-u)": the text of a tree within the parser's
            # bounds stays within them
            inner = serialize_expression(e.arg)
            if _prec(e.arg) < 3:
                inner = f"({inner})"
            return f"-{inner}"
        return f"{e.fn.value}({serialize_expression(e.arg)})"
    if isinstance(e, BinOp):
        lhs = serialize_expression(e.lhs)
        rhs = serialize_expression(e.rhs)
        my = _prec(e)
        if _prec(e.lhs) < my:
            lhs = f"({lhs})"
        # Right operand needs parens at equal precedence too: '-' and '/'
        # are left-associative, and a leading '-' in rhs must not fuse.
        if _prec(e.rhs) <= my:
            rhs = f"({rhs})"
        return f"{lhs} {e.fn.value} {rhs}"
    if isinstance(e, Pow):
        base = serialize_expression(e.base)
        if _prec(e.base) <= 4:
            base = f"({base})"
        return f"{base}^{e.exponent}"
    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


# -- evaluation ----------------------------------------------------------

def free_identifiers(e: Expr) -> frozenset[str]:
    """Coordinate and parameter names appearing in the expression."""
    out: set[str] = set()
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Coord, Param)):
            out.add(node.name)
        elif isinstance(node, Unary):
            stack.append(node.arg)
        elif isinstance(node, BinOp):
            stack.append(node.lhs)
            stack.append(node.rhs)
        elif isinstance(node, Pow):
            stack.append(node.base)
    return frozenset(out)


def _jet_or_float(jet_fn, float_fn):
    # subtrees with no u/v dependence evaluate to bare floats
    def apply(a):
        return jet_fn(a) if isinstance(a, Jet) else float_fn(a)
    return apply


_FLOAT_FNS = {**{UnaryFn(name): getattr(math, name) for name in FUNCTION_NAMES},
              UnaryFn.SIN: jets.float_sin, UnaryFn.COS: jets.float_cos}

_JET_FNS = {fn: _jet_or_float(getattr(jets, fn.value), float_fn)
            for fn, float_fn in _FLOAT_FNS.items()}


def _eval(e: Expr, env: Mapping[str, object], fns: Mapping) -> object:
    if isinstance(e, Const):
        return e.value
    if isinstance(e, (Coord, Param)):
        try:
            return env[e.name]
        except KeyError:
            raise KeyError(f"unbound identifier {e.name!r}") from None
    if isinstance(e, Unary):
        arg = _eval(e.arg, env, fns)
        if e.fn is UnaryFn.NEG:
            return -arg
        return fns[e.fn](arg)
    if isinstance(e, BinOp):
        lhs = _eval(e.lhs, env, fns)
        rhs = _eval(e.rhs, env, fns)
        if e.fn is BinFn.ADD:
            return lhs + rhs
        if e.fn is BinFn.SUB:
            return lhs - rhs
        if e.fn is BinFn.MUL:
            return lhs * rhs
        return lhs / rhs
    if isinstance(e, Pow):
        return _eval(e.base, env, fns) ** e.exponent
    raise TypeError(f"not an expression node: {e!r}")  # pragma: no cover


def eval_jet(e: Expr, u: Jet, v: Jet, params: Mapping[str, float]) -> Jet:
    """Evaluate in jet arithmetic; constants are widened to the jet order
    and to the batch of u."""
    env = {"u": u, "v": v, **params}
    out = _eval(e, env, _JET_FNS)
    if isinstance(out, Jet):
        return out
    return Jet.constant(np.full(u.batch, float(out)), u.order)


def eval_float(e: Expr, u: float, v: float, params: Mapping[str, float]) -> float:
    """Plain float evaluation, used by the finite-difference oracle."""
    env = {"u": float(u), "v": float(v), **params}
    out = _eval(e, env, _FLOAT_FNS)
    return float(out)
