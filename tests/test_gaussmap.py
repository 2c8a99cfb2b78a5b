"""Gauss map Laplacian: two independent routes, decomposition, grid records.

The direct route differentiates the normal bivector componentwise with the
Laplace operator of the induced metric.  The formula route assembles the
same bivector from curvature data: the squared second fundamental form
times nu, the normal curvature term, two trace-gradient wedges, and a
normal-rotation correction.  Their agreement at machine precision is the
strongest single check in the package, and deliberately so: every module
feeds at least one of the two routes.
"""

from __future__ import annotations

import statistics
import sys

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import linalg as la
from minksurf import surfaces as sf

from conftest import (CATALOG_CASES, CATALOG_IDS, MIXED_FILE, build,
                      grid_geometry, point_geometry, route_agreement, rows)

# Every surface file of the test data but mixed_skips.surf, which
# test_order_four_records_are_order_three_ones reads on its own grid
SURF_FILES = sorted(path for path in MIXED_FILE.parent.glob("*.surf")
                    if path != MIXED_FILE)

HARMONIC_HEIGHTS = ("u*v", "u^2 - v^2", "exp(u)*cos(v)")


finite_floats = st.floats(allow_nan=False, allow_infinity=False)


@given(st.lists(finite_floats, min_size=1, max_size=20))
@example([1.69e308] * 9)  # fmean's sum overflows on both
@example([1.7e308, 1.7e308, -1.7e308])
def test_mean_is_fmean_or_finite(values):
    # fmean's bits wherever fmean returns; a finite mean where it overflows
    try:
        want = statistics.fmean(values)
    except OverflowError:
        got, lo, hi = gm._mean(values), min(values), max(values)
        # within the values, up to the rounding of the sum and the division
        assert lo - 1e-15 * abs(lo) <= got <= hi + 1e-15 * abs(hi)
    else:
        got = gm._mean(values)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()


# finite floats of every size: hypothesis's own (subnormals and both
# zeros among them), the extremes, and m * 10^e for e from -300 to 300
sd_floats = (finite_floats
             | st.sampled_from((0.0, -0.0, 5e-324, -5e-324,
                                2.2250738585072014e-308,
                                1.7976931348623157e308))
             | st.builds(lambda m, e: m * 10.0 ** e,
                         st.floats(-10.0, 10.0), st.integers(-300, 300)))


@st.composite
def sd_samples(draw):
    # 2 to 64 values from a pool of at most 64, so that values repeat
    pool = draw(st.lists(sd_floats, min_size=1, max_size=64))
    return draw(st.lists(st.sampled_from(pool), min_size=2, max_size=64))


@pytest.mark.skipif(sys.version_info < (3, 11),
                    reason="statistics.stdev rounds once from Python 3.11 on")
@given(sd_samples())
@example([1.7e308, -1.7e308])  # the sd itself exceeds the float range
@example([5e-324, -5e-324, 0.0, -0.0])
@example([(-1.0) ** k * (k % 7 + 0.5) * 10.0 ** (k % 601 - 300)
          for k in range(1024)])
def test_stdev_is_statistics_stdev(values):
    # stdev's bits, and its OverflowError where it raises one
    try:
        want = statistics.stdev(values)
    except OverflowError:
        with pytest.raises(OverflowError):
            gm._stdev(values)
    else:
        assert gm._stdev(values).hex() == want.hex()


@given(sd_samples())
@example([1.7e308, -1.7e308])
@example([3.5])
def test_column_stats(values):
    # _mean and _stdev, min and max; an sd past the float range reads inf
    try:
        sd = gm._stdev(values) if len(values) > 1 else 0.0
    except OverflowError:
        sd = float("inf")
    stats = gm.column_stats(values)
    assert list(stats) == ["mean", "sd", "min", "max"]
    assert stats["mean"] == gm._mean(values)
    assert stats["sd"] == sd
    assert (stats["min"], stats["max"]) == (min(values), max(values))


def test_constancy_reads_column_stats():
    # an sd past the float range is not constant
    assert gm._constancy([1.7e308, -1.7e308]) == (False, float("inf"))
    assert gm._constancy([2.5]) == gm._constancy([]) == (True, 0.0)
    assert gm._constancy([1.0, 1.0, 1.0]) == (True, 0.0)


def term_group(pg, term: str):
    """One term group of the formula route: the formula with every other
    group scaled to 0."""
    others = {t: 0.0 for t in gm.TERM_NAMES if t != term}
    return gm.laplacian_gauss_formula(pg, others).formula


@pytest.mark.parametrize("name,params", CATALOG_CASES, ids=CATALOG_IDS)
def test_route_agreement_catalog(name, params):
    spec = build(name, params)
    assert route_agreement(spec, grid=(5, 5)) <= 1e-10


def test_route_agreement_wild(wild_spec):
    assert route_agreement(wild_spec, grid=(5, 5)) <= 1e-10


class TestDecomposition:
    def test_nu_coefficient_is_squared_h(self, catalog_spec):
        dom = catalog_spec.domain
        u = dom.u_min + 0.55 * (dom.u_max - dom.u_min)
        v = dom.v_min + 0.3 * (dom.v_max - dom.v_min)
        pg = point_geometry(catalog_spec, u, v)
        d = gm.laplacian_gauss_formula(pg)
        assert d.c_nu == pytest.approx(pg.h_sq, rel=1e-12, abs=1e-12)

    def test_normal_curvature_coefficient(self, wild_spec):
        pg = point_geometry(wild_spec, 0.4, -0.3)
        d = gm.laplacian_gauss_formula(pg)
        assert d.c_norm == pytest.approx(
            2.0 * ge.normal_curvature_RD(pg), rel=1e-12)
        assert abs(d.c_norm) > 1e-3

    @pytest.mark.parametrize("name,params", [
        ("plane", {}),
        ("product", {"a": 1.0, "b": 2.0}),
        ("type-ii", {"a": 1.0}),
        ("graph", {"phi": "u*v"}),
    ])
    def test_aligned_gauges_have_single_term(self, name, params):
        # in these families the construction's normal frame is parallel
        # (or H vanishes), so every group except the nu term dies alone
        pg = point_geometry(build(name, params), 0.4, -0.3)
        for t in ("normal_curvature", "grad_trace3", "grad_trace4", "rotation"):
            assert la.euclid_norm(term_group(pg, t)) <= 1e-12, t

    @pytest.mark.parametrize("name,params", [
        ("type-i", {"b": 0.5}),
        ("s31-flat", {"r": 1.0}),
        ("h3-flat", {"r": 1.0}),
    ])
    def test_rotating_gauges_cancel_jointly(self, name, params):
        # here the time-axis frame rotates in the normal plane, so the two
        # trace-gradient groups and the rotation group are each order one
        # yet their sum still reproduces the direct Laplacian
        pg = point_geometry(build(name, params), 0.4, -0.3)
        d = gm.laplacian_gauss_formula(pg)
        for t in ("grad_trace3", "grad_trace4", "rotation"):
            assert la.euclid_norm(term_group(pg, t)) > 0.1, t
        assert d.residual_route <= 1e-12

    def test_formula_is_sum_of_terms(self, wild_spec):
        pg = point_geometry(wild_spec, 0.4, -0.3)
        d = gm.laplacian_gauss_formula(pg)
        total = [0.0] * 6
        for t in gm.TERM_NAMES:
            group = term_group(pg, t)
            for k in range(6):
                total[k] += group[k]
        for k in range(6):
            assert total[k] == pytest.approx(d.formula[k], rel=1e-12, abs=1e-12)

    def test_direct_route_standalone(self):
        spec = build("product", {"a": 1.0, "b": 2.0})
        pg = point_geometry(spec, 0.4, -0.3)
        d = gm.laplacian_gauss_formula(pg)
        assert la.euclid_norm(d.direct - d.formula) <= 1e-12

    def test_unknown_term_name_rejected(self, wild_spec):
        pg = point_geometry(wild_spec, 0.4, -0.3)
        with pytest.raises(KeyError):
            gm.laplacian_gauss_formula(pg, term_scales={"nonsense": 2.0})


class TestMutationSensitivity:
    """A 1 percent corruption of any single group must be visible."""

    @pytest.mark.parametrize("term", gm.TERM_NAMES)
    def test_each_term_matters(self, wild_spec, term):
        clean = route_agreement(wild_spec, grid=(5, 5))
        broken = gm.laplacian_gauss_formula(
            grid_geometry(wild_spec, 5, 5), {term: 1.01}).residual_route.max()
        assert clean <= 1e-10
        assert broken > 1e-6

    def test_connection_corruption_breaks_codazzi(self, wild_spec):
        pg = point_geometry(wild_spec, 0.4, -0.3)
        assert pg.codazzi_residual() <= 1e-10
        assert pg.codazzi_residual(omega12_shift=0.1) > 1e-2


class TestFirstKind:
    @pytest.mark.parametrize("a,b", [(1.0, 2.0), (3.0, 4.0)])
    def test_product_is_pointwise_first_kind(self, a, b):
        spec = build("product", {"a": a, "b": b})
        want_f = 1.0 / b ** 2 - 1.0 / a ** 2
        for u, v in sf.cell_centers(spec.domain, 5, 5):
            pg = point_geometry(spec, u, v)
            d = gm.laplacian_gauss_formula(pg)
            rfk, rharm, f_est = gm.first_kind_residuals(d)
            assert rfk <= 1e-8
            assert f_est == pytest.approx(want_f, abs=1e-8)

    def test_example52_f_estimate(self):
        spec = build("example52", {})
        for u in (0.5, 1.0, 2.0):
            pg = point_geometry(spec, u, 0.25)
            _, _, f_est = gm.first_kind_residuals(gm.laplacian_gauss_formula(pg))
            assert f_est == pytest.approx(-2.0 / u ** 4, rel=1e-6)

    @pytest.mark.parametrize("name,params", [
        ("type-i", {"b": 0.5}),
        ("type-ii", {"a": 1.0}),
        ("s31-flat", {"r": 1.0}),
        ("h3-flat", {"r": 1.0}),
        ("graph", {"phi": "u*v"}),
        ("graph", {"phi": "u^2 - v^2"}),
        ("graph", {"phi": "exp(u)*cos(v)"}),
    ])
    def test_harmonic_suite(self, name, params):
        spec = build(name, params)
        for u, v in sf.cell_centers(spec.domain, 5, 5):
            d = gm.laplacian_gauss_formula(point_geometry(spec, u, v))
            _, rharm, _ = gm.first_kind_residuals(d)
            assert rharm <= 1e-8

    def test_cubic_graph_fails_both_ways(self):
        # generic non-harmonic height: neither first kind nor parallel H
        spec = build("graph", {"phi": "u^3"})
        pg = point_geometry(spec, 0.5, 0.25)
        rfk, _, _ = gm.first_kind_residuals(gm.laplacian_gauss_formula(pg))
        assert rfk > 1e-3
        assert ge.parallel_H_residual(pg) > 1e-3


class TestLemma42:
    @pytest.mark.parametrize("phi", ["u*v", "u^2 - v^2"])
    def test_harmonic_graph_satisfies_relations(self, phi):
        spec = build("graph", {"phi": phi})
        for u, v in sf.cell_centers(spec.domain, 5, 5):
            assert gm.lemma42_residual(point_geometry(spec, u, v)) <= 1e-6

    def test_plane_trivially_applicable(self):
        assert gm.lemma42_residual(point_geometry(build("plane", {}), 0.3, 0.2)) == 0.0

    @pytest.mark.parametrize("name,params", [
        ("product", {"a": 1.0, "b": 2.0}),
        ("graph", {"phi": "u^3"}),
    ])
    def test_not_applicable_off_premise(self, name, params):
        with pytest.raises(gm.NotApplicable):
            gm.lemma42_residual(point_geometry(build(name, params), 0.5, 0.25))


class TestRecords:
    def test_grid_shape_and_order(self, product_12):
        recs = rows(gm.evaluate_grid(product_12, grid=(4, 3)))
        assert len(recs) == 12
        assert [(r.u, r.v) for r in recs] == list(
            sf.cell_centers(product_12.domain, 4, 3))
        assert all(r.ok for r in recs)

    def test_record_contents(self, product_12):
        r = gm.evaluate_grid(product_12, grid=(4, 3)).point(0)
        assert r.f_estimate == pytest.approx(-0.75, abs=1e-9)
        assert r.h_sq == pytest.approx(-0.75, abs=1e-9)
        assert r.H_causal == "TIMELIKE"
        assert "PARALLEL-H" in r.labels
        assert r.lemma42 is None
        assert r.bilaplacian_norm is None
        assert r.residual_route <= 1e-10

    def test_every_block_carries_its_tolerance(self):
        # live, partly skipped, wholly skipped and empty blocks alike
        tol = ge.Tolerances(1e-4)
        mixed = sf.parse_surface(MIXED_FILE.read_text())
        degenerate = sf.parse_surface("x1 = u ; x2 = v ; x3 = u ; x4 = 0")
        points = sf.cell_centers(mixed.domain, 5, 5)
        blocks = [gm.evaluate_batch(spec, pts, 3, tol) for spec, pts in (
            (build("plane", {}), points), (mixed, points),
            (degenerate, points), (mixed, []))]
        live, partly, skipped, empty = blocks
        assert live["ok"].all() and not skipped["ok"].any()
        assert 0 < partly["ok"].sum() < len(points) and len(empty) == 0
        joined = gm.Records.join(blocks)
        for block in (*blocks, joined, joined.live, joined.select([0, 30])):
            assert block.tol == tol

    def test_order_four_populates_bilaplacian(self):
        r = gm.evaluate_point(build("type-i", {"b": 0.0}), 0.4, -0.3, order=4)
        assert r.bilaplacian_norm is not None
        assert r.bilaplacian_norm <= 1e-8

    @pytest.mark.parametrize("spec,grid", [
        *((sf.catalog_lookup(name, {"phi": "u^2-v^2+sin(u)*exp(v)"}
                             if name == "graph" else None), (9, 7))
          for name in sf.catalog_names()),
        (sf.parse_surface(MIXED_FILE.read_text()), (15, 15)),
        *((sf.parse_surface(path.read_text()), (9, 7)) for path in SURF_FILES),
    ], ids=[*sf.catalog_names(), "mixed-skips",
            *(path.stem for path in SURF_FILES)])
    def test_order_four_records_are_order_three_ones(self, spec, grid):
        # every column but bilaplacian_norm, skip_reason included; floats
        # by bit pattern, so that -0.0 and NaN payloads count
        o3, o4 = (gm.evaluate_grid(spec, grid, order) for order in (3, 4))
        assert o3.columns.keys() == o4.columns.keys()
        for name, col in o3.columns.items():
            if name == "bilaplacian_norm":
                continue
            if col.dtype == float:
                assert np.array_equal(col.view(np.int64),
                                      o4[name].view(np.int64)), name
            else:
                assert (list(map(repr, col.tolist()))
                        == list(map(repr, o4[name].tolist()))), name
        assert set(o3["bilaplacian_norm"]) == {None}
        assert ([x is None for x in o4["bilaplacian_norm"]]
                == (~o4["ok"]).tolist())

    def test_skip_reasons(self):
        timelike = sf.parse_surface("x1 = 2*u ; x2 = u ; x3 = v ; x4 = 0")
        degen = sf.parse_surface("x1 = u ; x2 = v ; x3 = u ; x4 = 0")
        r1 = gm.evaluate_point(timelike, 0.3, 0.2)
        r2 = gm.evaluate_point(degen, 0.3, 0.2)
        assert (r1.ok, r1.skip_reason) == (False, "not-spacelike")
        assert (r2.ok, r2.skip_reason) == (False, "degenerate")

    def test_gauss_map_unit_normalized(self, catalog_spec):
        dom = catalog_spec.domain
        u = dom.u_min + 0.45 * (dom.u_max - dom.u_min)
        v = dom.v_min + 0.65 * (dom.v_max - dom.v_min)
        pg = point_geometry(catalog_spec, u, v)
        nu = pg.nu_jets  # jet valued; compare at the base point
        assert la.bivector_inner(nu, nu).value() == pytest.approx(-1.0, rel=1e-12)
        assert la.bivector_inner(pg.nu, pg.nu) == pytest.approx(-1.0, rel=1e-12)
