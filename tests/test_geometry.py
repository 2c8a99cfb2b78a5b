"""Pointwise surface geometry: metric, frame, curvatures, residuals, labels.

Hand oracles used below (all derivable by direct differentiation):
  graph, s31-flat, h3-flat: induced metric is the identity at every point
  type-ii(a): E = G = a^2, F = 0
  product(a,b): E = a^2, G = b^2, F = 0; principal curvatures give
      |h3| = (0, 0, 1/b), |h4| = (1/a, 0, 0), <H,H> = (1/b^2 - 1/a^2)/4,
      squared second fundamental form 1/b^2 - 1/a^2
  example52: E = G = u^2, F = 0; K = u^-4
"""

from __future__ import annotations

import math

import numpy as np
import pytest

import minksurf.jets as jt
from minksurf import geometry as ge
from minksurf import linalg as la
from minksurf import surfaces as sf

from conftest import (BATCH_SHAPES, CATALOG_CASES, CATALOG_IDS, build,
                      grid_points, point_geometry, special_values)

PROBES = ((0.4, -0.3), (-0.6, 0.7), (0.1, 0.1))


def probe_points(spec):
    # interior points valid for every catalog domain, example52 included
    dom = spec.domain
    pts = []
    for fu, fv in ((0.3, 0.25), (0.7, 0.6), (0.55, 0.85)):
        pts.append((dom.u_min + fu * (dom.u_max - dom.u_min),
                    dom.v_min + fv * (dom.v_max - dom.v_min)))
    return pts


class TestMetric:
    @pytest.mark.parametrize("name,params,EFG", [
        ("plane", {}, lambda u, v: (1.0, 0.0, 1.0)),
        ("graph", {"phi": "u*v"}, lambda u, v: (1.0, 0.0, 1.0)),
        ("s31-flat", {"r": 1.0}, lambda u, v: (1.0, 0.0, 1.0)),
        ("h3-flat", {"r": 2.0}, lambda u, v: (1.0, 0.0, 1.0)),
        ("type-ii", {"a": 1.5}, lambda u, v: (2.25, 0.0, 2.25)),
        ("product", {"a": 1.0, "b": 2.0}, lambda u, v: (1.0, 0.0, 4.0)),
        ("example52", {}, lambda u, v: (u * u, 0.0, u * u)),
    ])
    def test_first_fundamental_form_oracle(self, name, params, EFG):
        spec = build(name, params)
        for u, v in probe_points(spec):
            pg = ge.PointGeometry(sf.evaluate_immersion(spec, u, v, 3))
            pg.require_spacelike()
            g11, g12, g22 = (j.value() for j in pg.metric_jets)
            E, F, G = EFG(u, v)
            assert g11 == pytest.approx(E, rel=1e-12)
            assert g12 == pytest.approx(F, abs=1e-12)
            assert g22 == pytest.approx(G, rel=1e-12)

    def test_metric_is_symmetric_positive(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            pg = ge.PointGeometry(sf.evaluate_immersion(catalog_spec, u, v, 3))
            pg.require_spacelike()
            E, F, G = (j.value() for j in pg.metric_jets)
            g = np.array([[E, F], [F, G]])
            assert g[0, 1] == g[1, 0]
            assert np.linalg.det(g) > 0.0 and g[0, 0] > 0.0


class TestFrame:
    def test_orthonormality_residual(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            pg = point_geometry(catalog_spec, u, v)
            assert pg.residual_frame <= 1e-10

    def test_gram_matrix_signature(self, catalog_spec):
        u, v = probe_points(catalog_spec)[0]
        pg = point_geometry(catalog_spec, u, v)
        e = pg.frame_values
        gram = np.array([[la.minkowski_inner(a, b) for b in e] for a in e])
        assert np.allclose(gram, np.diag([1.0, 1.0, 1.0, -1.0]), atol=1e-10)

    def test_tangent_normal_split(self, catalog_spec):
        u, v = probe_points(catalog_spec)[0]
        pg = point_geometry(catalog_spec, u, v)
        e1, e2, e3, e4 = pg.frame_values
        # x_u and x_v, the columns of the (4, 2) stack of partials
        xu, xv = (pg._partials.value()[:, k] for k in (0, 1))
        for n in (e3, e4):
            assert abs(la.minkowski_inner(n, xu)) < 1e-10
            assert abs(la.minkowski_inner(n, xv)) < 1e-10

    def test_normal_wedge_equals_gauss_bivector(self, catalog_spec):
        # the orientation convention: e3 ^ e4 reproduces the unit normal
        # bivector exactly, not up to sign
        for u, v in probe_points(catalog_spec):
            pg = point_geometry(catalog_spec, u, v)
            e3, e4 = pg.frame_values[2], pg.frame_values[3]
            w = la.wedge(e3, e4)
            assert la.euclid_norm(w - pg.nu) < 1e-10

    def test_deterministic_rebuild(self, product_12):
        a = point_geometry(product_12, 0.4, -0.3)
        b = point_geometry(product_12, 0.4, -0.3)

        def frame_bytes(pg):
            f = pg.frame
            return [j.coeffs.tobytes() for j in (*f.e, *f.a, *f.b, f.nu)]

        assert frame_bytes(a) == frame_bytes(b)
        assert len(a.frame_values) == len(b.frame_values) == 4
        for ea, eb in zip(a.frame_values, b.frame_values):
            assert np.array_equal(ea, eb)


class TestSecondFundamentalForm:
    def test_product_values(self, product_12):
        for u, v in PROBES:
            pg = point_geometry(product_12, u, v)
            h, A3, A4 = ge.second_fundamental_form(pg)
            assert abs(h[(3, 2, 2)]) == pytest.approx(0.5, rel=1e-12)
            assert abs(h[(4, 1, 1)]) == pytest.approx(1.0, rel=1e-12)
            for key in ((3, 1, 1), (3, 1, 2), (4, 1, 2), (4, 2, 2)):
                assert abs(h[key]) < 1e-12
            # sign pattern is gauge dependent but the cross product is not
            assert h[(3, 2, 2)] * h[(4, 1, 1)] == pytest.approx(0.5, rel=1e-12)
            assert np.allclose(A3 @ A4, A4 @ A3, atol=1e-12)

    def test_symmetry_in_ij(self, catalog_spec):
        u, v = probe_points(catalog_spec)[0]
        h, _, _ = ge.second_fundamental_form(point_geometry(catalog_spec, u, v))
        for beta in (3, 4):
            assert h[(beta, 1, 2)] == pytest.approx(h[(beta, 2, 1)], abs=1e-14)

    def test_plane_vanishes(self):
        pg = point_geometry(build("plane", {}), 0.3, 0.8)
        h, A3, A4 = ge.second_fundamental_form(pg)
        assert max(abs(x) for x in h.values()) < 1e-14
        assert np.allclose(A3, 0.0) and np.allclose(A4, 0.0)


class TestMeanCurvature:
    def test_product_inner_and_class(self, product_12):
        pg = point_geometry(product_12, 0.4, -0.3)
        H, H_inner, H_class = ge.mean_curvature_vector(pg)
        assert H_inner == pytest.approx(-0.1875, rel=1e-12)
        assert H_class == "TIMELIKE"

    @pytest.mark.parametrize("name,params", [
        ("type-i", {"b": 0.5}),
        ("type-ii", {"a": 1.0}),
        ("s31-flat", {"r": 1.0}),
        ("h3-flat", {"r": 1.0}),
        ("example52", {}),
    ])
    def test_lightlike_nonzero(self, name, params):
        spec = build(name, params)
        for u, v in probe_points(spec):
            pg = point_geometry(spec, u, v)
            H, H_inner, H_class = ge.mean_curvature_vector(pg)
            assert H_class == "LIGHTLIKE"
            assert la.euclid_sq(H) > 1e-6

    def test_maximal_surfaces(self):
        for phi in ("u*v", "u^2 - v^2"):
            pg = point_geometry(build("graph", {"phi": phi}), 0.4, -0.3)
            H, _, H_class = ge.mean_curvature_vector(pg)
            assert H_class == "ZERO"
            assert la.euclid_sq(H) < 1e-20

    def test_squared_h_product(self, product_12):
        pg = point_geometry(product_12, 0.4, -0.3)
        assert ge.squared_second_fundamental_form(pg) == pytest.approx(
            -0.75, rel=1e-12)


class TestGaussianCurvature:
    def test_three_routes_agree(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            Kg, Kf, Ki = ge.gaussian_curvature(point_geometry(catalog_spec, u, v))
            tol = 1e-8 * (1.0 + abs(Kg))
            assert abs(Kg - Kf) <= tol
            assert abs(Kg - Ki) <= tol

    @pytest.mark.parametrize("u,K", [(0.5, 16.0), (1.0, 1.0), (2.0, 0.0625)])
    def test_example52_curvature(self, u, K):
        spec = build("example52", {})
        for v in (-0.5, 0.0, 0.5):
            pg = point_geometry(spec, u, v)
            Kg, _, _ = ge.gaussian_curvature(pg)
            assert Kg == pytest.approx(K, rel=1e-6)
            assert ge.squared_second_fundamental_form(pg) == pytest.approx(
                -2.0 * K, rel=1e-6)

    @pytest.mark.parametrize("name,params", [
        ("plane", {}), ("type-i", {"b": 0.5}), ("type-ii", {"a": 1.0}),
        ("s31-flat", {"r": 1.0}), ("h3-flat", {"r": 1.0}),
        ("product", {"a": 1.0, "b": 2.0}),
    ])
    def test_flat_members(self, name, params):
        spec = build(name, params)
        for u, v in probe_points(spec):
            Kg, _, _ = ge.gaussian_curvature(point_geometry(spec, u, v))
            assert abs(Kg) < 1e-10


class TestNormalCurvature:
    def test_catalog_is_flat_normal_bundle(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            assert abs(ge.normal_curvature_RD(point_geometry(catalog_spec, u, v))) < 1e-10

    def test_wild_surface_twists(self, wild_spec):
        # generic graph over two independent height functions has
        # noncommuting shape operators
        pg = point_geometry(wild_spec, 0.4, -0.3)
        assert abs(ge.normal_curvature_RD(pg)) > 1e-3


class TestResiduals:
    def test_codazzi(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            assert point_geometry(catalog_spec, u, v).codazzi_residual() <= 1e-8

    def test_codazzi_wild(self, wild_spec):
        assert point_geometry(wild_spec, 0.4, -0.3).codazzi_residual() <= 1e-10

    def test_codazzi_detects_connection_corruption(self, wild_spec):
        pg = point_geometry(wild_spec, 0.4, -0.3)
        assert pg.codazzi_residual(omega12_shift=0.1) > 1e-2

    def test_beltrami(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            assert point_geometry(catalog_spec, u, v).residual_beltrami <= 1e-8

    def test_parallel_H_on_catalog(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            assert ge.parallel_H_residual(point_geometry(catalog_spec, u, v)) <= 1e-8

    def test_parallel_H_fails_generically(self):
        pg = point_geometry(build("graph", {"phi": "u^3"}), 0.5, 0.25)
        assert ge.parallel_H_residual(pg) > 1e-3


class TestPositionLaplacian:
    def test_equals_minus_twice_H(self, catalog_spec):
        for u, v in probe_points(catalog_spec):
            pg = point_geometry(catalog_spec, u, v)
            lap, bil = ge.position_laplacian(pg)
            assert bil is None
            H, _, _ = ge.mean_curvature_vector(pg)
            d = np.array([lap[k] + 2 * H[k] for k in range(4)])
            assert math.sqrt(la.euclid_sq(d)) <= 1e-8

    @pytest.mark.parametrize("b", [0.0, 0.5])
    def test_type_i_is_biharmonic(self, b):
        spec = build("type-i", {"b": b})
        pg = point_geometry(spec, 0.4, -0.3, k=4)
        lap, bil = ge.position_laplacian(pg)
        assert bil is not None and bil <= 1e-8
        assert math.sqrt(la.euclid_sq(lap)) == pytest.approx(
            2.0 * math.sqrt(2.0), rel=1e-12)

    def test_bilaplacian_needs_order_four(self):
        pg = point_geometry(build("plane", {}), 0.1, 0.1, k=3)
        with pytest.raises(jt.OrderExceeded):
            pg.bilaplacian_x


class TestClassification:
    def test_plane(self):
        labels = ge.classify_point(point_geometry(build("plane", {}), 0.3, -0.2))
        assert {"MAXIMAL", "FLAT", "FLAT-NORMAL-BUNDLE", "PARALLEL-H",
                "TOTALLY-UMBILICAL", "PSEUDO-UMBILICAL"} <= labels

    def test_harmonic_graph_is_maximal_not_trapped(self):
        labels = ge.classify_point(
            point_geometry(build("graph", {"phi": "u*v"}), 0.4, -0.3))
        assert "MAXIMAL" in labels and "FLAT" in labels
        assert "MARGINALLY-TRAPPED" not in labels

    @pytest.mark.parametrize("name,params", [
        ("type-i", {"b": 0.5}),
        ("type-ii", {"a": 1.0}),
        ("s31-flat", {"r": 1.0}),
        ("h3-flat", {"r": 1.0}),
    ])
    def test_trapped_family(self, name, params):
        labels = ge.classify_point(point_geometry(build(name, params), 0.4, -0.3))
        assert {"MARGINALLY-TRAPPED", "PARALLEL-H", "FLAT",
                "FLAT-NORMAL-BUNDLE"} <= labels
        assert "MAXIMAL" not in labels

    def test_example52(self):
        labels = ge.classify_point(point_geometry(build("example52", {}), 1.0, 0.3))
        assert {"MARGINALLY-TRAPPED", "PARALLEL-H", "FLAT-NORMAL-BUNDLE",
                "IN-S31"} <= labels
        assert "FLAT" not in labels

    def test_quadric_membership_markers(self):
        in_s31 = ge.classify_point(point_geometry(build("s31-flat", {"r": 1.0}), 0.4, 0.2))
        in_h3 = ge.classify_point(point_geometry(build("h3-flat", {"r": 1.0}), 0.4, 0.2))
        on_cone = ge.classify_point(point_geometry(build("type-ii", {"a": 1.0}), 0.4, 0.2))
        assert "IN-S31" in in_s31 and "IN-H3" not in in_s31
        assert "IN-H3" in in_h3 and "IN-S31" not in in_h3
        assert "IN-LIGHTCONE" in on_cone

    def test_product_not_trapped(self, product_12):
        labels = ge.classify_point(point_geometry(product_12, 0.4, -0.3))
        assert {"FLAT", "FLAT-NORMAL-BUNDLE", "PARALLEL-H"} <= labels
        assert "MARGINALLY-TRAPPED" not in labels
        assert "MAXIMAL" not in labels


class TestErrorPaths:
    def test_timelike_tangent_rejected(self):
        u = jt.jet_variable("u", 0.1, 3)
        v = jt.jet_variable("v", 0.2, 3)
        zero = u * 0.0
        with pytest.raises(ge.NotSpacelike) as info:
            ge.PointGeometry((u, v, zero, zero)).require_spacelike()
        assert info.value.eigenvalue_signs == (1, -1)

    def test_degenerate_plane_rejected(self):
        u = jt.jet_variable("u", 0.1, 3)
        v = jt.jet_variable("v", 0.2, 3)
        with pytest.raises(la.DegeneratePlane):
            ge.PointGeometry((u, u, v, u * 0.0)).require_spacelike()

    def test_opt_out_of_spacelike_check(self):
        u = jt.jet_variable("u", 0.1, 3)
        v = jt.jet_variable("v", 0.2, 3)
        zero = u * 0.0
        pg = ge.PointGeometry((u, v, zero, zero))
        assert pg.skip_reasons.item() == "not-spacelike"
        assert pg.metric_jets[0].value() == pytest.approx(-1.0)

    @pytest.mark.parametrize("name", ["causal", "residual", "constancy_rel",
                                      "degenerate"])
    @pytest.mark.parametrize("value", [0.0, -1e-8, math.nan, math.inf])
    def test_tolerances_finite_and_positive(self, name, value):
        # residual is the one setting; causal, constancy_rel and
        # degenerate are geometry constants that Tolerances does not take
        error = ValueError if name == "residual" else TypeError
        with pytest.raises(error, match=name):
            ge.Tolerances(**{name: value})


@pytest.mark.parametrize("name,params", CATALOG_CASES, ids=CATALOG_IDS)
def test_full_grid_invariants(name, params):
    """Criterion-style sweep: every residual small at every grid point."""
    spec = build(name, params)
    for u, v in grid_points(spec, 5, 5):
        pg = point_geometry(spec, u, v)
        assert pg.residual_frame <= 1e-10
        assert abs(la.bivector_inner(pg.nu, pg.nu) + 1.0) <= 1e-10
        assert pg.codazzi_residual() <= 1e-8
        assert pg.residual_beltrami <= 1e-8
        Kg, Kf, Ki = ge.gaussian_curvature(pg)
        assert abs(Kg - Kf) <= 1e-8 * (1.0 + abs(Kg))
        assert abs(Kg - Ki) <= 1e-8 * (1.0 + abs(Kg))


@pytest.mark.parametrize("batch", BATCH_SHAPES)
@pytest.mark.parametrize("n", [2, 3])
def test_matrices_equal_stacked_broadcast_reference(batch, n):
    # per-point entries with signed zeros, infinities and NaN, and the
    # numbers 0.0 and -0.0, which broadcast to every point
    values = special_values((n, n) + batch, seed=n + len(batch))
    rows = [[values[i, j] for j in range(n)] for i in range(n)]
    rows[0][0], rows[n - 1][0] = 0.0, -0.0
    got = ge._matrices(rows)
    want = np.stack([np.stack(np.broadcast_arrays(*row), axis=-1)
                     for row in rows], axis=-2)
    assert got.shape == want.shape == batch + (n, n)
    assert got.flags.c_contiguous
    assert got.tobytes() == want.tobytes()
