"""Grid batching: records and report bytes do not depend on how the grid
is split into batches."""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from minksurf import cli
from minksurf import gaussmap as gm
from minksurf import jets as jt
from minksurf import report
from minksurf import surfaces as sf

from conftest import rows

# A surface whose grids mix both metric skip reasons, domain errors and
# overflows in one block
MIXED_FILE = Path(__file__).parent / "data" / "mixed_skips.surf"


def test_records_match_pointwise_evaluation():
    # 17 x 19 = 323 points: a full block and a ragged one
    cfg = report.RunConfig(catalog="graph",
                           params={"phi": "sin(u)*exp(v)+u^3"},
                           grid=(17, 19), order=3)
    spec = report.resolve_surface(cfg)
    assert gm.BLOCK_POINTS < 17 * 19 < 2 * gm.BLOCK_POINTS
    records = rows(report.evaluate_records(spec, cfg))
    alone = [gm.evaluate_point(spec, u, v, cfg.order, cfg.tol)
             for u, v in sf.cell_centers(spec.domain, *cfg.grid)]
    assert records == alone
    # repr tells -0.0 from 0.0, which == does not
    assert repr(records) == repr(alone)


@pytest.mark.parametrize("argv", [
    ["analyze", "--catalog", "example52", "--order", "4"],
    ["analyze", "--catalog", "graph", "--param", "phi=log(u)", "--format",
     "csv"],
    ["classify", "--catalog", "s31-flat"],
    ["verify", "T4.8", "--catalog", "product"],
    ["analyze", "--surface-file", str(MIXED_FILE), "--order", "4"],
])
def test_report_bytes_do_not_depend_on_block_size(argv, monkeypatch, tmp_path):
    def report_bytes(name):
        path = tmp_path / name
        assert cli.main(argv + ["--grid", "9x7", "--out", str(path)]) == 0
        return path.read_bytes()

    whole = report_bytes("whole")
    monkeypatch.setattr(gm, "BLOCK_POINTS", 5)
    assert report_bytes("blocks-of-5") == whole


def test_failure_past_the_immersion_skips_only_its_points(monkeypatch):
    spec = sf.catalog_lookup("product")
    clean = rows(gm.evaluate_grid(spec, (3, 3)))
    bad_u = clean[4].u
    real = gm.laplacian_gauss_formula

    def failing_on_one_row(pg):
        if np.any(pg.base[0] == bad_u):
            raise jt.DomainError("injected", pg.base[0] == bad_u)
        return real(pg)

    monkeypatch.setattr(gm, "laplacian_gauss_formula", failing_on_one_row)
    got = rows(gm.evaluate_grid(spec, (3, 3)))
    assert [r.skip_reason for r in got] == [
        "domain-error" if r.u == bad_u else None for r in clean]
    assert [r for r in got if r.ok] == [r for r in clean if r.u != bad_u]


def test_constant_division_by_zero_skips_every_point():
    # a float 1/0 names no points: it fails all of them alike
    spec = sf.catalog_lookup("graph", {"phi": "u + 1/0"})
    got = rows(gm.evaluate_grid(spec, (3, 3)))
    assert [r.skip_reason for r in got] == ["singular"] * 9


@pytest.mark.parametrize("order", [3, 4])
def test_each_point_in_a_mixed_block_gets_its_own_reason(order, monkeypatch):
    # One block holds every skip reason, and a failure past the immersion
    # names one row; each record equals the point's record on its own.
    spec = sf.parse_surface(MIXED_FILE.read_text())
    clean = gm.evaluate_grid(spec, (15, 15), order)
    bad_u = clean.live()["u"][0]
    real = gm.laplacian_gauss_formula

    def failing_on_one_row(pg):
        if np.any(pg.base[0] == bad_u):
            raise jt.DivisionByZeroValue("injected", pg.base[0] == bad_u)
        return real(pg)

    monkeypatch.setattr(gm, "laplacian_gauss_formula", failing_on_one_row)
    got = rows(gm.evaluate_grid(spec, (15, 15), order))
    assert {r.skip_reason for r in got} == {
        None, "degenerate", "not-spacelike", "domain-error", "overflow",
        "singular"}
    alone = [gm.evaluate_point(spec, u, v, order)
             for u, v in sf.cell_centers(spec.domain, 15, 15)]
    assert repr(got) == repr(alone)
