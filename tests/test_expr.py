"""Expression language: parsing, printing, and jet evaluation, checked
against the float evaluator and finite differences of ``oracles``."""

from __future__ import annotations

import inspect
import math
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minksurf import expr as ex
from minksurf import jets as jt

from oracles import eval_text, fd_partial


def value_at(e: ex.Expr, u: float, v: float, params=None) -> float:
    """The value of the plan ``e`` at (u, v), by jet evaluation."""
    uj, vj = jt.jet_variable("u", u, 3), jt.jet_variable("v", v, 3)
    return float(ex.eval_jet(e, uj, vj, params or {}).value())


def roundtrip(text: str, params=None) -> ex.Expr:
    e = ex.parse_expression(text, params=params)
    again = ex.parse_expression(ex.serialize_expression(e), params=params)
    assert again == e
    return e


class TestParsing:
    @pytest.mark.parametrize("text,u,v,want", [
        ("1 + 2*3^2", 0.0, 0.0, 19.0),
        ("-u^2", 0.5, 0.0, -0.25),
        ("2 - 3 - 4", 0.0, 0.0, -5.0),
        ("2/4/2", 0.0, 0.0, 0.25),
        ("u^-1", 0.5, 0.0, 2.0),
        ("(u + v)^3", 1.0, 1.0, 8.0),
        ("sqrt(2)/2", 0.0, 0.0, math.sqrt(2.0) / 2.0),
        ("1e-3 + u", 0.5, 0.0, 0.501),
        ("exp(u)*cos(v)", 0.5, 0.25, math.exp(0.5) * math.cos(0.25)),
        ("sinh(u) + cosh(v)", 0.3, 0.6, math.sinh(0.3) + math.cosh(0.6)),
        ("log(u)", 2.0, 0.0, math.log(2.0)),
    ])
    def test_value_and_roundtrip(self, text, u, v, want):
        e = roundtrip(text)
        assert value_at(e, u, v) == pytest.approx(want, rel=1e-14)

    def test_power_binds_tighter_than_unary_minus(self):
        e = ex.parse_expression("-u^2")
        assert value_at(e, 3.0, 0.0) == -9.0

    def test_parentheses_collapse(self):
        assert ex.parse_expression("(u)") == ex.parse_expression("u")

    def test_parameters_evaluate(self):
        e = roundtrip("a*u + b", params=frozenset({"a", "b"}))
        assert value_at(e, 2.0, 0.0, {"a": 3.0, "b": 1.0}) == 7.0

    def test_free_identifiers(self):
        e = ex.parse_expression("a*u + b*sin(v)")
        assert ex.free_identifiers(e) == frozenset({"a", "b", "u", "v"})


class TestParseErrors:
    @pytest.mark.parametrize("text,col", [
        ("u +", 4),
        ("sin()", 5),
        ("2 ^ 3 ^ 2", 7),
        ("u^(2)", 2),
        ("u^1.5", 2),
        ("u + 1e400", 5),
        ("u^1001", 3),
        ("u^-99999999999", 4),
        ("u^\u00b2", 3),
        ("\u00b2*u", 1),
        ("u^\u0661", 3),
        ("\u0663*u", 1),
        ("u + 1\u0660", 6),
    ])
    def test_parse_error_position(self, text, col):
        with pytest.raises(ex.ParseError) as info:
            ex.parse_expression(text)
        assert info.value.line == 1
        assert info.value.column == col

    def test_exponent_cap_is_inclusive(self):
        e = ex.parse_expression(f"u^-{ex.MAX_EXPONENT}")
        assert e[-1] == ("^", 0, -ex.MAX_EXPONENT)

    def test_arity_error(self):
        with pytest.raises(ex.ArityError) as info:
            ex.parse_expression("sin(u, v)")
        assert info.value.column == 6

    def test_unknown_identifier_when_params_declared(self):
        with pytest.raises(ex.UnknownIdentifier) as info:
            ex.parse_expression("a*u + b", params=frozenset({"a"}))
        assert "b" in str(info.value)
        assert info.value.column == 7

    def test_unbound_parameter_at_eval(self):
        e = ex.parse_expression("phi + u")
        with pytest.raises(KeyError):
            value_at(e, 0.0, 0.0)


def outcome(text: str, **kwargs):
    """The serialized plan of ``text``, or the (line, column) of its
    ParseError."""
    try:
        return ex.serialize_expression(ex.parse_expression(text, **kwargs))
    except ex.ParseError as err:
        return err.line, err.column


class TestScannerEdges:
    # what the token pattern makes of each text, seen through the parser
    @pytest.mark.parametrize("text, kwargs, want", [
        # number forms: a dot needs a digit on one side, an exponent
        # needs a digit after its sign, and one number has one dot
        ("1.", {}, "1"),
        (".5", {}, "0.5"),
        ("1.e5", {}, "100000"),
        ("1E-2", {}, "0.01"),
        ("1e", {}, (1, 2)),
        ("1e+u", {}, (1, 2)),
        ("1e5e", {}, (1, 4)),
        ("1.2.3", {}, (1, 4)),
        ("..5", {}, (1, 1)),
        ("1a", {}, (1, 2)),
        # a tab or a carriage return is one blank column
        ("u\t+\t$", {}, (1, 5)),
        ("\tu +\r", {}, (1, 6)),
        ("u\r*\r\r", {}, (1, 6)),
        # col0 offsets the first line only
        ("?", {"line0": 3, "col0": 7}, (3, 7)),
        ("u +\n  ?", {"line0": 3, "col0": 7}, (4, 3)),
        ("u\n+", {"line0": 3, "col0": 7}, (4, 2)),
        ("u +\n", {"line0": 3, "col0": 7}, (4, 1)),
        # an identifier starts with a letter or '_' and goes on with
        # letters, digits and '_' of any script
        ("é", {}, "é"),
        ("é*u", {"params": frozenset()}, (1, 1)),
        ("_a1", {}, "_a1"),
        ("u²", {}, "u²"),
        # other digits, and blanks other than space, tab and \r, are
        # unexpected characters
        ("²", {}, (1, 1)),
        ("½", {}, (1, 1)),
        ("u*½", {}, (1, 3)),
        ("١", {}, (1, 1)),
        ("u + ١", {}, (1, 5)),
        ("u\xa0+ v", {}, (1, 2)),
        ("u +\xa0", {}, (1, 4)),
        ("u\f+ v", {}, (1, 2)),
    ])
    def test_outcome(self, text, kwargs, want):
        assert outcome(text, **kwargs) == want

    @pytest.mark.parametrize("text, message", [
        ("²", "unexpected character '²'"),
        ("u\xa0+ v", "unexpected character '\\xa0'"),
        ("1.2.3", "unexpected trailing '.3'"),
        ("\tu +\r", "expected a value, found 'end of input'"),
    ])
    def test_message(self, text, message):
        with pytest.raises(ex.ParseError, match=f"^{re.escape(message)} "):
            ex.parse_expression(text)


# a hostile alphabet: pieces of numbers, operators, the three blanks and
# newline, characters that look like digits or blanks and are not, a
# non-ASCII letter, the function names, the coordinates and a declared
# parameter
HOSTILE = (*"0123456789", ".", "e", "E", *"+-*/^(),", " ", "\t", "\r", "\n",
           "²", "١", "\xa0", "é", *ex.FUNCTION_NAMES, "u", "v", "a")


class TestNoOtherException:
    @given(pieces=st.lists(st.sampled_from(HOSTILE), max_size=24))
    @settings(max_examples=300)
    def test_parse_or_parse_error_in_range(self, pieces):
        text = "".join(pieces)
        declared = frozenset({"a"})
        try:
            e = ex.parse_expression(text, declared)
        except ex.ParseError as err:
            lines = text.split("\n")
            assert 1 <= err.line <= len(lines)
            assert 1 <= err.column <= len(lines[err.line - 1]) + 1
        else:
            printed = ex.serialize_expression(e)
            assert ex.parse_expression(printed, declared) == e


G, H = ex.MAX_GROUPS, ex.MAX_HEIGHT


class TestNestingBounds:
    # texts at the bounds: G open groups, or a tree H nodes high
    AT_BOUNDS = {
        "parentheses": "(" * G + "u" + ")" * G,
        "unary-minus": "-" * G + "u",
        "right-nested": "u-(" * G + "u" + ")" * G,
        "functions-over-a-sum": "sin(" * G + "+".join(["u"] * (H - G))
                                + ")" * G,
        "sum": "+".join(["u"] * H),
    }

    @pytest.mark.parametrize("text", AT_BOUNDS.values(), ids=AT_BOUNDS)
    def test_at_the_bounds_every_pass_runs(self, text):
        # parse, print, parse the print, and evaluate in jets and by the
        # oracle
        e = ex.parse_expression(text)
        printed = ex.serialize_expression(e)
        again = ex.parse_expression(printed)
        assert again == e
        assert ex.serialize_expression(again) == printed
        u, v = jt.jet_variable("u", 0.5, 4), jt.jet_variable("v", 0.0, 4)
        assert ex.eval_jet(e, u, v, {}).value() == pytest.approx(
            eval_text(text, 0.5, 0.0), rel=1e-12)

    LONG = {
        "sum": "+".join(["u"] * H),
        "product": "*".join(["u"] * H),
        "difference": "u" + "-v" * (H - 1),
    }

    @pytest.mark.parametrize("text", LONG.values(), ids=LONG)
    def test_no_pass_recurses(self, text):
        # trees H levels high, with the recursion limit 60 frames above
        # this test's own depth; Python's own parser, in the oracle, needs
        # more, so the reference value is computed first
        value = eval_text(text, 0.5, 0.25)
        uj, vj = jt.jet_variable("u", 0.5, 3), jt.jet_variable("v", 0.25, 3)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(len(inspect.stack(0)) + 60)
        try:
            e = ex.parse_expression(text)
            again = ex.parse_expression(ex.serialize_expression(e))
            equal = again == e
            jet = ex.eval_jet(e, uj, vj, {})
        finally:
            sys.setrecursionlimit(limit)
        assert equal
        assert jet.value() == pytest.approx(value, rel=1e-12)

    def test_nested_negation_prints_without_parentheses(self):
        assert ex.serialize_expression(ex.parse_expression("-(-u)")) == "--u"

    @pytest.mark.parametrize("text, col", [
        ("(" * (G + 1) + "u" + ")" * (G + 1), G + 1),
        ("-" * (G + 1) + "u", G + 1),
        ("sin(" * (G + 1) + "u" + ")" * (G + 1), 4 * G + 1),
        ("+".join(["u"] * (H + 1)), 2 * H),
        ("u" + "*u" * H, 2 * H),
    ])
    def test_past_a_bound_is_a_parse_error_at_the_crossing(self, text, col):
        with pytest.raises(ex.ParseError) as info:
            ex.parse_expression(text)
        assert (info.value.line, info.value.column) == (1, col)


class TestJetEvaluator:
    exprs = [
        "u^2*v - 3*u + v^3",
        "exp(u)*cos(v)",
        "sqrt(u^2 + v^2 + 1)",
        "a*cosh(u) + a*sinh(v)",
        "(u - v)/(u*v + 2)",
        "sqrt(2)*sin(u) + log(v + 3)",
        "1 - u^2",  # a number minus a jet (Jet.__rsub__)
    ]

    @pytest.mark.parametrize("text", exprs)
    @pytest.mark.parametrize("u0,v0", [(0.4, -0.3), (1.0, 0.5)])
    def test_jet_value_matches_float_eval(self, text, u0, v0):
        params = {"a": 1.5}
        e = ex.parse_expression(text)
        uj = jt.jet_variable("u", u0, 3)
        vj = jt.jet_variable("v", v0, 3)
        got = ex.eval_jet(e, uj, vj, params)
        assert got.value() == pytest.approx(
            eval_text(text, u0, v0, params), rel=1e-13)

    @pytest.mark.parametrize("text", exprs)
    @pytest.mark.parametrize("i,j", [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    def test_jet_partials_match_finite_differences(self, text, i, j):
        params = {"a": 1.5}
        e = ex.parse_expression(text)
        u0, v0 = 0.4, -0.3

        def value(u, v):
            return eval_text(text, u, v, params)

        uj = jt.jet_variable("u", u0, 3)
        vj = jt.jet_variable("v", v0, 3)
        got = ex.eval_jet(e, uj, vj, params).partial(i, j)
        assert got == pytest.approx(
            fd_partial(value, u0, v0, i, j, step=1e-4), rel=1e-6, abs=1e-6)

    def test_constant_subtree_stays_scalar(self):
        # sqrt(2) has no u or v dependence; mixing it into jet arithmetic
        # must not lose derivative slots
        e = ex.parse_expression("sqrt(2)*u")
        uj = jt.jet_variable("u", 0.3, 3)
        vj = jt.jet_variable("v", 0.0, 3)
        got = ex.eval_jet(e, uj, vj, {})
        assert got.partial(1, 0) == pytest.approx(math.sqrt(2.0), rel=1e-14)


@st.composite
def small_exprs(draw, depth=0):
    if depth > 3 or draw(st.booleans()):
        leaf = draw(st.sampled_from(["u", "v", "1", "2", "0.5", "a"]))
        return leaf
    op = draw(st.sampled_from(["+", "-", "*"]))
    lhs = draw(small_exprs(depth=depth + 1))
    rhs = draw(small_exprs(depth=depth + 1))
    return f"({lhs} {op} {rhs})"


class TestRoundTripProperty:
    @given(text=small_exprs())
    @settings(max_examples=80)
    def test_serialize_parse_fixpoint(self, text):
        e = ex.parse_expression(text)
        printed = ex.serialize_expression(e)
        assert ex.parse_expression(printed) == e
        # printing is a fixpoint after one pass
        assert ex.serialize_expression(ex.parse_expression(printed)) == printed

    @given(text=small_exprs())
    @settings(max_examples=80)
    def test_operands_point_to_earlier_steps(self, text):
        for k, (op, *args) in enumerate(ex.parse_expression(text)):
            operands = {"const": [], "name": [], "^": args[:1]}.get(op, args)
            assert all(0 <= i < k for i in operands)

    @given(text=small_exprs())
    @settings(max_examples=40)
    def test_eval_agrees_across_roundtrip(self, text):
        # the printed text means what the source text means, read by the
        # oracle rather than by the parser
        printed = ex.serialize_expression(ex.parse_expression(text))
        params = {"a": 0.7}
        assert eval_text(printed, 0.3, 0.9, params) == pytest.approx(
            eval_text(text, 0.3, 0.9, params), rel=1e-14)
