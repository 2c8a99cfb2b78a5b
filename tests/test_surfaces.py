"""Surface catalog, the text format, and jet evaluation of immersions."""

from __future__ import annotations

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from minksurf import cli
from minksurf import expr as ex
from minksurf import linalg as la
from minksurf import surfaces as sf

from conftest import CATALOG_CASES, CATALOG_IDS, build, serialize_surface
from oracles import eval_text, fd_partial


def ambient(spec, u, v):
    return np.array([eval_text(ex.serialize_expression(c), u, v, spec.params)
                     for c in spec.components])


class TestCatalog:
    def test_names_complete(self):
        assert sf.catalog_names() == (
            "example52", "graph", "h3-flat", "plane",
            "product", "s31-flat", "type-i", "type-ii")

    def test_unknown_surface(self):
        with pytest.raises(sf.UnknownSurface):
            sf.catalog_lookup("nosuch")

    def test_graph_requires_height_function(self):
        with pytest.raises(sf.MissingParameter):
            sf.catalog_lookup("graph")

    def test_unknown_parameter_rejected(self):
        with pytest.raises(Exception):
            sf.catalog_lookup("product", {"c": 1.0})

    @pytest.mark.parametrize("name,params", CATALOG_CASES, ids=CATALOG_IDS)
    def test_roundtrip_through_text(self, name, params):
        spec = build(name, params)
        again = sf.parse_surface(serialize_surface(spec))
        assert again == spec

    def test_product_1_1_matches_type_ii_1(self):
        prod = sf.catalog_lookup("product", {"a": 1.0, "b": 1.0})
        tii = sf.catalog_lookup("type-ii", {"a": 1.0})
        for u in (-0.7, 0.0, 0.4):
            for v in (-0.3, 0.2, 0.9):
                p, t = ambient(prod, u, v), ambient(tii, u, v)
                assert la.euclid_sq(np.array(
                    [p[0] - t[0], p[1] - t[1], p[2] - t[2], p[3] - t[3]])) < 1e-24

    def test_type_i_zero_matches_graph_of_half_square_sum(self):
        ti = sf.catalog_lookup("type-i", {"b": 0.0})
        gr = sf.catalog_lookup("graph", {"phi": "(u^2 + v^2)/2"})
        for u, v in [(-0.5, 0.3), (0.8, -0.8), (0.0, 1.0)]:
            p, t = ambient(ti, u, v), ambient(gr, u, v)
            assert abs(p[0] - t[0]) < 1e-15 and abs(p[3] - t[3]) < 1e-15


class TestPlanReuse:
    """Catalog plans are parsed once per process, by entry name; what a
    call supplies (overrides, the graph height) is its own."""

    @pytest.mark.parametrize("name,params", CATALOG_CASES, ids=CATALOG_IDS)
    def test_repeated_lookup_gives_equal_plans(self, name, params):
        first, again = build(name, params), build(name, params)
        assert again == first
        # repr tells ("const", -0.0) from ("const", 0.0), which == does not
        assert repr(again.components) == repr(first.components)
        # and each plan is the one a parse of the entry's text gives now
        entry = sf.catalog_entry(name)
        declared = frozenset(first.params) | frozenset(entry.expr_params)
        for text, plan in zip(entry.components, again.components):
            if text not in entry.expr_params:
                fresh = ex.parse_expression(text, declared)
                assert repr(plan) == repr(fresh)

    def test_overrides_do_not_leak(self):
        default = sf.catalog_lookup("product")
        moved = sf.catalog_lookup("product", {"a": 2.0, "b": 3.0})
        again = sf.catalog_lookup("product")
        assert moved.params == {"a": 2.0, "b": 3.0}
        assert again.params == default.params == {"a": 1.0, "b": 2.0}
        assert repr(again.components) == repr(default.components)

    def test_splice_does_not_leak(self):
        plans = {}
        for phi in ("u*v", 0.0, -0.0, "-0.0", "0", "u*v", -0.0, 0.0):
            spec = sf.catalog_lookup("graph", {"phi": phi})
            want = ex.parse_expression(phi if isinstance(phi, str)
                                       else repr(phi))
            assert repr(spec.components[0]) == repr(want)
            assert repr(spec.components[3]) == repr(want)
            plans[repr(phi)] = repr(want)
        assert plans["0.0"] != plans["-0.0"]

    def test_signed_zero_heights_in_one_process(self, tmp_path):
        calls = {phi: ["verify", "T3.5", "--catalog", "graph", "--param",
                       f"phi={phi}", "--grid", "4x4", "--out",
                       str(tmp_path / "report")]
                 for phi in ("0", "-0.0")}
        src = Path(__file__).resolve().parents[1] / "src"
        path = os.pathsep.join(filter(None, [str(src),
                                             os.environ.get("PYTHONPATH")]))

        def alone(argv):
            done = subprocess.run(
                [sys.executable, "-m", "minksurf.cli", *argv],
                env={**os.environ, "PYTHONPATH": path}, capture_output=True,
                text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            return (tmp_path / "report").read_bytes()

        def in_process(argv):
            assert cli.main(argv) == 0
            return (tmp_path / "report").read_bytes()

        want = {phi: alone(argv) for phi, argv in calls.items()}
        assert want["0"] != want["-0.0"]
        for order in (("0", "-0.0"), ("-0.0", "0")):
            for phi in order:
                assert in_process(calls[phi]) == want[phi], (order, phi)


class TestGraphHeightParameter:
    def test_expression_string_accepted(self):
        spec = sf.catalog_lookup("graph", {"phi": "u*v"})
        x = ambient(spec, 2.0, 3.0)
        assert tuple(x) == (6.0, 2.0, 3.0, 6.0)

    def test_first_and_last_components_agree_everywhere(self):
        spec = sf.catalog_lookup("graph", {"phi": "exp(u)*cos(v)"})
        for u, v in [(0.0, 0.0), (0.5, -0.7), (-1.0, 1.0)]:
            x = ambient(spec, u, v)
            assert x[0] == pytest.approx(x[3], rel=1e-15)
            assert x[0] == pytest.approx(math.exp(u) * math.cos(v), rel=1e-14)


class TestEvaluateImmersion:
    def test_plane_jets(self):
        spec = sf.catalog_lookup("plane")
        xj = sf.evaluate_immersion(spec, 1.0, 2.0, 3)
        assert [c.value() for c in xj] == [0.0, 1.0, 2.0, 0.0]
        assert [c.partial(1, 0) for c in xj] == [0.0, 1.0, 0.0, 0.0]
        assert [c.partial(0, 1) for c in xj] == [0.0, 0.0, 1.0, 0.0]
        for c in xj:
            for i, j in [(2, 0), (1, 1), (0, 2), (3, 0), (0, 3)]:
                assert c.partial(i, j) == 0.0

    def test_example52_value_oracle(self):
        spec = sf.catalog_lookup("example52")
        xj = sf.evaluate_immersion(spec, 1.0, 0.0, 3)
        s2 = math.sqrt(2.0)
        want = (1.0 / s2, 0.0,
                (s2 * math.sin(s2) - math.cos(s2)) / s2,
                (s2 * math.cos(s2) + math.sin(s2)) / s2)
        for c, w in zip(xj, want):
            assert c.value() == pytest.approx(w, rel=1e-14, abs=1e-14)

    @pytest.mark.parametrize("name,params", CATALOG_CASES, ids=CATALOG_IDS)
    def test_jets_match_finite_differences(self, name, params):
        spec = build(name, params)
        pts = sf.cell_centers(spec.domain, 5, 5)
        probes = (pts[0], pts[12], pts[24])
        for u0, v0 in probes:
            xj = sf.evaluate_immersion(spec, u0, v0, 3)
            for ci, c in enumerate(spec.components):
                def value(u, v, _text=ex.serialize_expression(c)):
                    return eval_text(_text, u, v, spec.params)
                for i, j in [(1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]:
                    want = fd_partial(value, u0, v0, i, j, step=1e-4)
                    got = xj[ci].partial(i, j)
                    assert got == pytest.approx(want, rel=1e-6, abs=1e-5), (
                        f"{name} component {ci + 1} partial {(i, j)} at {(u0, v0)}")

    def test_containment_s31(self):
        for r in (0.5, 1.0, 2.0):
            spec = sf.catalog_lookup("s31-flat", {"r": r})
            for u, v in sf.cell_centers(spec.domain, 5, 5):
                x = ambient(spec, u, v)
                assert la.minkowski_inner(x, x) == pytest.approx(
                    1.0 / r ** 2, abs=1e-10)

    def test_containment_h3(self):
        for r in (0.5, 1.0, 2.0):
            spec = sf.catalog_lookup("h3-flat", {"r": r})
            for u, v in sf.cell_centers(spec.domain, 5, 5):
                x = ambient(spec, u, v)
                assert la.minkowski_inner(x, x) == pytest.approx(
                    -1.0 / r ** 2, abs=1e-10)
                assert x[0] > 0.0


class TestCellCenters:
    def test_count_and_bounds(self):
        dom = sf.Domain(0.0, 1.0, -2.0, 2.0)
        pts = sf.cell_centers(dom, 4, 3)
        assert len(pts) == 12
        for u, v in pts:
            assert 0.0 < u < 1.0 and -2.0 < v < 2.0

    def test_row_major_u_then_v(self):
        pts = sf.cell_centers(sf.Domain(0.0, 2.0, 0.0, 1.0), 2, 2)
        assert pts == ((0.5, 0.25), (0.5, 0.75), (1.5, 0.25), (1.5, 0.75))

    def test_avoids_edges(self):
        # example52 is singular at u = 0; centers of any grid over a domain
        # touching that edge must stay interior
        pts = sf.cell_centers(sf.Domain(0.0, 2.0, -1.0, 1.0), 7, 7)
        assert min(u for u, _ in pts) > 0.0

    @pytest.mark.parametrize("nu,nv", [(1, 5), (5, 1), (0, 0)])
    def test_needs_two_cells_per_axis(self, nu, nv):
        with pytest.raises(ValueError):
            sf.cell_centers(sf.Domain(0.0, 1.0, 0.0, 1.0), nu, nv)


class TestTextFormat:
    def test_parse_minimal(self):
        spec = sf.parse_surface(
            "x1 = (u^2+v^2)/2 ; x2 = u ; x3 = v ; x4 = (u^2+v^2)/2")
        assert spec.params == {}
        x = ambient(spec, 1.0, 1.0)
        assert tuple(x) == (1.0, 1.0, 1.0, 1.0)

    def test_parse_with_params_and_domain(self):
        text = """name = demo
param a = 2.0
domain = [0.0,1.0]x[-1.0,1.0]
x1 = a*cosh(u)
x2 = a*sinh(u)
x3 = v
x4 = 0
"""
        spec = sf.parse_surface(text)
        assert spec.name == "demo"
        assert spec.params == {"a": 2.0}
        assert spec.domain == sf.Domain(0.0, 1.0, -1.0, 1.0)

    def test_tags_and_notes_are_dropped(self):
        # catalog metadata is accepted in a file and carried by no spec;
        # a notes line keeps its ';'
        plain = "param a = 2\nx1 = a*u\nx2 = u\nx3 = v\nx4 = 0\n"
        tagged = "tags = a, b\nnotes = x; y\n" + plain
        assert sf.parse_surface(tagged) == sf.parse_surface(plain)

    def test_missing_component_rejected(self):
        with pytest.raises(ex.ParseError):
            sf.parse_surface("x1 = u ; x2 = v ; x3 = 0")

    def test_unknown_identifier_in_component(self):
        with pytest.raises(ex.UnknownIdentifier):
            sf.parse_surface("x1 = q ; x2 = u ; x3 = v ; x4 = 0")

    # where the statement finder puts each statement, seen through the
    # (line, column) of an error in it, or the components of the spec
    @pytest.mark.parametrize("text, want", [
        ("x1 = u;\tx2 = ?; x3 = v; x4 = 0", (1, 14)),
        ("x1 = u;\t x2 = v; x3 = 0;\tx4 = ?", (1, 31)),
        ("x1 = u;\xa0x2 = v; x3 = 0;\xa0 x4 = ?", (1, 31)),
        ("x1 = u ;\t; ;x2 = v;;x3 = 0;x4 = 0\t", ("u", "v", "0", "0")),
        ("notes = a; b # c; d\nx1 = u; x2 = v; x3 = 0; x4 = ?", (2, 30)),
        (" notes = a; x1 = b\nx1 = u; x2 = v; x3 = 0; x4 = 0",
         ("u", "v", "0", "0")),
        # only '\n' ends a line, as in the expression scanner: a form
        # feed is a blank between statements and an error inside one
        ("\fx1 = u; x2 = v; x3 = 0; x4 = ?", (1, 31)),
        ("x1 = u\f+ v; x2 = v; x3 = 0; x4 = 0", (1, 7)),
        ("x1 = u; x2 = v;\f x3 = 0 ; x4 = w", (1, 32)),
        ("notes = a\x85b\u2028c\nx1 = u; x2 = v; x3 = 0; x4 = w", (2, 30)),
        ("x1 = u\r\nx2 = v\r\nx3 = 0\r\nx4 = w\r\n", (4, 6)),
        ("x1 = u\rx2 = v\rx3 = 0\rx4 = 0\r", (1, 1)),
    ])
    def test_statement_positions(self, text, want):
        try:
            spec = sf.parse_surface(text)
        except ex.ParseError as err:
            got = err.line, err.column
        else:
            got = tuple(map(ex.serialize_expression, spec.components))
        assert got == want
