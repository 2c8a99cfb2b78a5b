"""Report bytes pinned by sha256 digests.

``tests/data/golden_reports.json`` holds the digest of every report in
``golden_configs()``: analyze JSON, analyze CSV and classify JSON on the
whole catalog at orders 3 and 4 on two grids, and every registered
theorem on every catalog surface.  The digests were recorded from the
scalar-jet implementation that preceded grid batching, so a match means
batching changed no report byte.  Report bits also depend on the C math
library and the BLAS build.  The file records the platform they were
taken on (Python, numpy, system, C library), and a mismatch names both
platforms when they differ, since then the platform rather than the code
may be at fault; that is a reason to run on the recorded platform, not
to re-record.  To record them from a checkout::

    PYTHONPATH=src python tests/test_golden.py --record > golden.json
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import sys
import tempfile
from pathlib import Path

import numpy as np

from minksurf import cli, gaussmap, report, surfaces

GOLDEN = Path(__file__).resolve().parent / "data" / "golden_reports.json"

REPORT_PARAMS = {"graph": ("phi=sin(u)*exp(v)+u^3",)}
VERIFY_PARAMS = {"graph": ("phi=u^2-v^2",)}
REPORT_KINDS = {
    "analyze-json": ("analyze",),
    "analyze-csv": ("analyze", "--format", "csv"),
    "classify-json": ("classify",),
}


def _params(table: dict, name: str) -> list[str]:
    return [arg for p in table.get(name, ()) for arg in ("--param", p)]


def golden_configs() -> dict[str, list[str]]:
    """Key -> CLI argv (without --out) of every pinned report."""
    out = {}
    for kind, head in REPORT_KINDS.items():
        for name in surfaces.catalog_names():
            for order in (3, 4):
                for grid in ("9x7", "16x16"):
                    out[f"{kind}/{name}/o{order}/{grid}"] = [
                        *head, "--catalog", name,
                        *_params(REPORT_PARAMS, name),
                        "--order", str(order), "--grid", grid]
    for tid in gaussmap.theorem_ids():
        for name in surfaces.catalog_names():
            out[f"verify/{tid}/{name}"] = [
                "verify", tid, "--catalog", name,
                *_params(VERIFY_PARAMS, name),
                "--grid", "4x4", "--order", "3", "--jobs", "1"]
    return out


def report_digest(argv: list[str]) -> tuple[int, str]:
    """Exit code and sha256 of the report bytes of one CLI call."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "report")
        code = cli.main([*argv, "--out", path])
        with open(path, "rb") as fh:
            return code, hashlib.sha256(fh.read()).hexdigest()


def platform_record() -> dict[str, str]:
    """What besides the code the report bits depend on."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "system": platform.system(), "machine": platform.machine(),
            "libc": " ".join(platform.libc_ver())}


def test_config_count():
    configs = golden_configs()
    assert sum(k.startswith("verify/") for k in configs) == 88
    assert len(configs) == 96 + 88


def test_report_bytes_match_golden_digests(monkeypatch):
    with open(GOLDEN, encoding="utf-8") as fh:
        recorded = json.load(fh)
    golden = recorded["digests"]
    configs = golden_configs()
    assert set(golden) == set(configs)

    # analyze JSON, analyze CSV and classify JSON of one surface, order
    # and grid share their records: evaluate them once
    evaluate = report.evaluate_records
    cache = {}

    def shared_records(spec, cfg):
        key = (cfg.catalog, tuple(sorted(cfg.params.items())), cfg.grid,
               cfg.order, cfg.tol)
        if key not in cache:
            cache[key] = evaluate(spec, cfg)
        return cache[key]

    monkeypatch.setattr(report, "evaluate_records", shared_records)
    mismatched = []
    for key, argv in configs.items():
        got = list(report_digest(argv))
        if got != golden[key]:
            mismatched.append(key)
    here = platform_record()
    note = ("" if here == recorded["platform"] else
            f"; digests recorded on {recorded['platform']}, running on {here}")
    assert mismatched == [], f"{len(mismatched)} reports differ{note}"


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    digests = {key: list(report_digest(argv))
               for key, argv in golden_configs().items()}
    json.dump({"platform": platform_record(), "digests": digests},
              sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
