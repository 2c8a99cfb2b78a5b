"""Top-level acceptance gate: nine numbered criteria, one line of output each.

Run with -s to see the lines; each criterion fails loudly on its own.
"""

from __future__ import annotations

import math
import time

import numpy as np

from minksurf import gaussmap as gm
from minksurf import geometry as ge
from minksurf import linalg as la
from minksurf import report
from minksurf import surfaces as sf

from conftest import (CATALOG_CASES, WILD_TEXT, build, grid_geometry,
                      route_agreement, rows)


def announce(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def records(name, params, grid=(7, 7), order=3):
    return rows(gm.evaluate_grid(build(name, params), grid=grid, order=order))


def test_criterion_1_flat_trapped_example_quantitative():
    t0 = time.perf_counter()
    spec = build("example52", {})
    worst = 0.0
    for u in (0.5, 1.0, 2.0):
        for v in (-0.5, 0.0, 0.5):
            pg = ge.PointGeometry(sf.evaluate_immersion(spec, u, v, 3), base=(u, v))
            K = ge.gaussian_curvature(pg)[0]
            hsq = ge.squared_second_fundamental_form(pg)
            worst = max(worst,
                        abs(K - u ** -4) / u ** -4,
                        abs(hsq + 2.0 * u ** -4) / (2.0 * u ** -4))
    elapsed = time.perf_counter() - t0
    announce(1, worst <= 1e-6 and elapsed < 1.0,
             f"max rel err {worst:.2e}, {elapsed * 1e3:.0f} ms")


def test_criterion_2_two_route_identity_on_catalog():
    t0 = time.perf_counter()
    worst = max(route_agreement(build(name, params), grid=(7, 7))
                for name, params in CATALOG_CASES)
    elapsed = time.perf_counter() - t0
    announce(2, worst <= 1e-6 and elapsed < 10.0,
             f"max route residual {worst:.2e}, {elapsed:.1f} s")


def test_criterion_3_harmonic_gauss_map_suite():
    trapped = [("type-i", {"b": 0.5}), ("type-ii", {"a": 1.0}),
               ("s31-flat", {"r": 1.0}), ("h3-flat", {"r": 1.0})]
    graphs = [("graph", {"phi": phi})
              for phi in ("u*v", "u^2 - v^2", "exp(u)*cos(v)")]
    worst = 0.0
    ok_labels = True
    for (name, params), need_trapped in (
            [(c, True) for c in trapped] + [(c, False) for c in graphs]):
        for r in records(name, params):
            worst = max(worst, r.residual_harmonic)
            ok_labels &= "FLAT" in r.labels
            if need_trapped:
                ok_labels &= {"MARGINALLY-TRAPPED", "PARALLEL-H"} <= set(r.labels)
    announce(3, worst <= 1e-8 and ok_labels,
             f"max harmonic residual {worst:.2e}, labels {'ok' if ok_labels else 'missing'}")


def test_criterion_4_pointwise_first_kind_suite():
    worst_rfk = 0.0
    detail = []
    for a, b in ((1.0, 2.0), (3.0, 4.0)):
        recs = records("product", {"a": a, "b": b})
        worst_rfk = max(worst_rfk, max(r.residual_first_kind for r in recs))
        fs = [r.f_estimate for r in recs]
        mean = sum(fs) / len(fs)
        sd = math.sqrt(sum((f - mean) ** 2 for f in fs) / len(fs))
        want = 1.0 / b ** 2 - 1.0 / a ** 2
        detail.append(sd <= 1e-9 and abs(mean - want) <= 1e-8)
    recs = records("example52", {})
    worst_rfk = max(worst_rfk, max(r.residual_first_kind for r in recs))
    rel52 = max(abs(r.f_estimate + 2.0 * r.u ** -4) / (2.0 * r.u ** -4)
                for r in recs)
    announce(4, worst_rfk <= 1e-8 and all(detail) and rel52 <= 1e-6,
             f"max residual {worst_rfk:.2e}, product f const {detail}, "
             f"example rel {rel52:.2e}")


def test_criterion_5_negative_controls_and_mutations():
    block = gm.evaluate_grid(build("graph", {"phi": "u^3"}), grid=(6, 6))
    recs = rows(block)
    controls = (min(r.residual_first_kind for r in recs) > 1e-3
                and min(r.residual_parallel_H for r in recs) > 1e-3)
    verdict = gm.theorem_verdict_from_records("T4.4", block, "graph")
    both_fail = (verdict.consistent and not verdict.side_a.passes
                 and not verdict.side_b.passes)
    # catalog members are all flat-normal-bundle, so the harness adds one
    # twisted surface to make every group of the assembly load bearing
    wild = sf.parse_surface(WILD_TEXT)
    grids = (grid_geometry(wild, 5, 5),
             grid_geometry(build("example52", {}), 5, 5))
    weakest = min(
        max(gm.laplacian_gauss_formula(pg, {t: 1.01}).residual_route.max()
            for pg in grids)
        for t in gm.TERM_NAMES)
    announce(5, controls and both_fail and weakest > 1e-6,
             f"controls {'ok' if controls else 'weak'}, "
             f"equivalence both-fail {'ok' if both_fail else 'broken'}, "
             f"weakest mutation signal {weakest:.2e}")


def test_criterion_6_self_consistency_invariants():
    worst = {"codazzi": 0.0, "K": 0.0, "nu": 0.0, "frame": 0.0, "beltrami": 0.0}
    for name, params in CATALOG_CASES:
        for r in records(name, params):
            worst["codazzi"] = max(worst["codazzi"], r.residual_codazzi)
            worst["frame"] = max(worst["frame"], r.residual_frame)
            worst["beltrami"] = max(worst["beltrami"], r.residual_beltrami)
            kg, kf, ki = r.K
            scale = 1.0 + abs(kg)
            worst["K"] = max(worst["K"], abs(kg - kf) / scale, abs(kg - ki) / scale)
            nu = np.array(r.nu)
            worst["nu"] = max(worst["nu"], abs(la.bivector_inner(nu, nu) + 1.0))
    ok = (worst["codazzi"] <= 1e-8 and worst["K"] <= 1e-8
          and worst["nu"] <= 1e-10 and worst["frame"] <= 1e-10
          and worst["beltrami"] <= 1e-8)
    announce(6, ok, ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_7_quadric_containment_and_verdicts():
    worst = 0.0
    exits = []
    for name, sign in (("s31-flat", 1.0), ("h3-flat", -1.0)):
        for r in (0.5, 1.0, 2.0):
            for rec in records(name, {"r": r}):
                worst = max(worst, abs(rec.position_inner - sign / r ** 2))
            cfg = report.RunConfig(command="verify", catalog=name,
                                   params={"r": r}, theorem="T3.5")
            exits.append(report.run(cfg).exit_code)
    announce(7, worst <= 1e-10 and all(c == 0 for c in exits),
             f"max containment defect {worst:.2e}, verify exits {sorted(set(exits))}")


def test_criterion_8_biharmonic_flat_family():
    ok = True
    worst_bi = 0.0
    for b in (0.0, 0.5):
        for r in records("type-i", {"b": b}, grid=(5, 5), order=4):
            worst_bi = max(worst_bi, r.bilaplacian_norm)
            lap = math.sqrt(sum(c * c for c in r.laplacian_x))
            ok &= abs(lap - 2.0 * math.sqrt(2.0)) <= 1e-8
    announce(8, ok and worst_bi <= 1e-8,
             f"max bilaplacian {worst_bi:.2e}, laplacian magnitude "
             f"{'pinned at 2*sqrt(2)' if ok else 'off'}")


def test_criterion_9_maximal_graph_gradient_relations():
    worst = 0.0
    for phi in ("u*v", "u^2 - v^2"):
        for r in records("graph", {"phi": phi}):
            assert r.lemma42 is not None
            worst = max(worst, r.lemma42)
    announce(9, worst <= 1e-6, f"max relation residual {worst:.2e}")
