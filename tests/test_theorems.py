"""Equivalence verdicts: numerical consistency checks for the registry.

Registry ids are opaque keys here.  Each entry pairs a premise with two
sides A and B; a verdict is consistent when A and B pass or fail together
over the sampled grid, and vacuous when the premise never holds.
"""

from __future__ import annotations

import pytest

from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import surfaces as sf

from conftest import build


def verdict(tid, name, params=None, grid=(5, 5)):
    spec = build(name, params or {})
    return gm.theorem_verdict_from_records(
        tid, gm.evaluate_grid(spec, grid), spec.name)


class TestRegistry:
    def test_all_ids_present(self):
        assert gm.theorem_ids() == (
            "T3.10", "T3.11", "T3.4", "T3.5", "T3.7",
            "T3.9", "T4.1", "T4.3", "T4.4", "T4.6", "T4.8")

    def test_unknown_id(self):
        with pytest.raises(gm.UnknownTheorem):
            verdict("T9.99", "plane")

    def test_verdict_text_fields(self):
        v = verdict("T4.1", "graph", {"phi": "u*v"})
        assert v.theorem_id == "T4.1"
        assert v.surface == "graph"
        assert v.statement and v.premise
        assert "not a proof" in v.notes
        assert v.points == 25 and v.skipped == 0


class TestBothSidesPass:
    @pytest.mark.parametrize("tid,name,params", [
        ("T3.4", "graph", {"phi": "u*v"}),
        ("T3.4", "plane", {}),
        ("T3.5", "type-ii", {"a": 1.0}),
        ("T3.7", "type-i", {"b": 0.5}),
        ("T3.11", "type-i", {"b": 0.0}),
        ("T3.9", "s31-flat", {"r": 1.0}),
        ("T3.10", "h3-flat", {"r": 1.0}),
        ("T4.1", "graph", {"phi": "u^2 - v^2"}),
        ("T4.3", "graph", {"phi": "exp(u)*cos(v)"}),
        ("T4.4", "example52", {}),
        ("T4.6", "type-ii", {"a": 1.0}),
        ("T4.8", "product", {"a": 1.0, "b": 2.0}),
    ])
    def test_consistent_with_sides_true(self, tid, name, params):
        v = verdict(tid, name, params)
        assert v.premise_met and not v.vacuous
        assert v.side_a.passes and v.side_b.passes
        assert v.consistent


class TestBothSidesFail:
    @pytest.mark.parametrize("tid,name,params,grid", [
        # non-harmonic cubic height: Gauss map is neither first kind nor
        # is H parallel; an even grid avoids the maximal line u = 0
        ("T4.4", "graph", {"phi": "u^3"}, (6, 6)),
        ("T3.5", "product", {"a": 1.0, "b": 2.0}, (5, 5)),
        ("T3.7", "example52", {}, (5, 5)),
        ("T4.6", "example52", {}, (5, 5)),
        ("T4.8", "example52", {}, (5, 5)),
    ])
    def test_consistent_with_sides_false(self, tid, name, params, grid):
        v = verdict(tid, name, params, grid=grid)
        assert v.premise_met and not v.vacuous
        assert not v.side_a.passes and not v.side_b.passes
        assert v.consistent
        assert v.side_a.residual > 1e-6 or v.side_b.residual > 1e-6


class TestVacuousPremise:
    def test_wrong_quadric(self):
        v = verdict("T3.9", "h3-flat", {"r": 1.0})
        assert not v.premise_met and v.vacuous and v.consistent

    def test_mirror_wrong_quadric(self):
        v = verdict("T3.10", "s31-flat", {"r": 1.0})
        assert not v.premise_met and v.vacuous and v.consistent

    def test_maximal_premise_on_trapped_surface(self):
        v = verdict("T3.4", "type-ii", {"a": 1.0})
        assert not v.premise_met and v.vacuous and v.consistent

    def test_nonmaximal_premise_on_maximal_surface(self):
        v = verdict("T4.4", "graph", {"phi": "u*v"})
        assert not v.premise_met and v.vacuous

    def test_odd_grid_touches_maximal_line(self):
        # u = 0 sits on a 7x7 cell-center grid of the default domain and
        # the cubic graph is maximal there, so the premise lapses
        v = verdict("T4.4", "graph", {"phi": "u^3"}, grid=(7, 7))
        assert not v.premise_met and v.vacuous and v.consistent

    def test_lightlike_premise_on_timelike_H(self):
        v = verdict("T4.6", "product", {"a": 1.0, "b": 2.0})
        assert not v.premise_met and v.vacuous


class TestFromRecords:
    def test_records_reusable_across_theorems(self, product_12):
        recs = gm.evaluate_grid(product_12, grid=(5, 5))
        v1 = gm.theorem_verdict_from_records("T4.8", recs, surface_name="product")
        v2 = gm.theorem_verdict_from_records("T3.5", recs, surface_name="product")
        assert v1.consistent and v1.side_a.passes
        assert v2.consistent and not v2.side_a.passes

    def test_empty_records_vacuous(self):
        v = gm.theorem_verdict_from_records("T4.1", gm.Records.of([]),
                                            surface_name="none")
        assert v.vacuous and v.consistent
        assert v.points == 0

    def test_judged_at_the_records_tolerance(self):
        # premise, sides, tolerance and notes all read the tolerance the
        # records were evaluated at: |H| = 2 sqrt(2) 1e-6 is maximal at
        # 1e-4 only
        spec = build("graph", {"phi": "1e-6*(u^2+v^2)"})
        for tau, maximal in ((1e-4, True), (1e-8, False)):
            recs = gm.evaluate_grid(spec, (3, 3), 3, ge.Tolerances(tau))
            v = gm.theorem_verdict_from_records("T3.4", recs, spec.name)
            assert v.tolerance == tau and repr(tau) in v.notes
            assert v.premise_met is maximal and v.consistent

    def test_skipped_points_counted(self):
        mixed = sf.parse_surface(
            "x1 = u ; x2 = v ; x3 = u ; x4 = 0")  # degenerate everywhere
        recs = gm.evaluate_grid(mixed, grid=(3, 3))
        v = gm.theorem_verdict_from_records("T4.1", recs, surface_name="mixed")
        assert v.skipped == 9 and v.points == 0
        assert v.vacuous
