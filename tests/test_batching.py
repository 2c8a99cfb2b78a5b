"""Grid batching: records and report bytes do not depend on how the grid
is split into batches."""

from __future__ import annotations

import numpy as np
import pytest

from minksurf import cli
from minksurf import gaussmap as gm
from minksurf import jets as jt
from minksurf import report
from minksurf import surfaces as sf


def test_records_match_pointwise_evaluation():
    # 17 x 19 = 323 points: a full block and a ragged one
    cfg = report.RunConfig(catalog="graph",
                           params={"phi": "sin(u)*exp(v)+u^3"},
                           grid=(17, 19), order=3)
    spec = report.resolve_surface(cfg)
    assert gm.BLOCK_POINTS < 17 * 19 < 2 * gm.BLOCK_POINTS
    records = report.evaluate_records(spec, cfg)
    alone = [gm.evaluate_point(spec, u, v, cfg.order, cfg.tol)
             for u, v in sf.cell_centers(spec.domain, *cfg.grid)]
    assert records == alone
    # repr tells -0.0 from 0.0, which == does not
    assert repr(records) == repr(alone)


@pytest.mark.parametrize("argv", [
    ["analyze", "--catalog", "example52", "--order", "4"],
    ["analyze", "--catalog", "graph", "--param", "phi=log(u)", "--format",
     "csv"],
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
    clean = gm.evaluate_grid(spec, (3, 3))
    bad_u = clean[4].u
    real = gm.laplacian_gauss_formula

    def failing_on_one_row(pg, term_scales=None):
        if np.any(pg.base[0] == bad_u):
            raise jt.DomainError("injected")
        return real(pg, term_scales)

    monkeypatch.setattr(gm, "laplacian_gauss_formula", failing_on_one_row)
    got = gm.evaluate_grid(spec, (3, 3))
    assert [r.skip_reason for r in got] == [
        "domain-error" if r.u == bad_u else None for r in clean]
    assert [r for r in got if r.ok] == [r for r in clean if r.u != bad_u]
