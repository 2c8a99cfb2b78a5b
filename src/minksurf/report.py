"""Grid orchestration and machine-readable reports.

A run resolves a surface (catalog entry or text file), evaluates the
pointwise analysis over cell centers of a rectangular grid, block by
block in one process, and serializes the records plus grid summaries to
JSON or CSV.  Reports are deterministic: identical bytes for the same
config and build, independent of how the grid is split into blocks, with
floats written via repr so a JSON round trip preserves every bit.

Every report embeds the sign conventions; the numbers are meaningless
without them.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import statistics
from dataclasses import dataclass, field
from typing import Optional, Sequence

from . import surfaces as sf
from .gaussmap import (PointRecord, TheoremVerdict, _constancy,
                       evaluate_grid, theorem_verdict_from_records)
from .geometry import DEFAULT_TOLERANCES, Tolerances
from .expr import serialize_expression
from .surfaces import Domain, SurfaceSpec

__all__ = [
    "RunConfig",
    "RunResult",
    "CONVENTIONS",
    "resolve_surface",
    "evaluate_records",
    "summarize",
    "run_analyze",
    "run_classify",
    "run_verify",
    "run_catalog",
    "run",
]

SCHEMA_VERSION = 2

CONVENTIONS = {
    "signature": [-1, 1, 1, 1],
    "time_axis": "component 0",
    "normal_frame_signs": {"e3": 1, "e4": -1},
    "normal_frame": "e4 is the unit normal part of the time axis, "
                    "e3 = iota_{e4} nu",
    "laplacian_sign": "Delta = -div grad on functions, so Delta x = -2 H",
    "bivector_basis": ["12", "13", "14", "23", "24", "34"],
    "bivector_signs": [-1, -1, -1, 1, 1, 1],
    "gauss_map": "unit dual bivector of the tangent plane; <nu, nu> = -1, "
                 "e3 ^ e4 = nu",
    "grid": "points at cell centers of the domain rectangle, row-major in "
            "u then v",
}

QUADRIC_LABELS = ("IN-S31", "IN-H3", "IN-LIGHTCONE")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description shared by all CLI commands."""

    command: str = "analyze"
    catalog: Optional[str] = None
    surface_file: Optional[str] = None
    params: dict = field(default_factory=dict)
    grid: tuple[int, int] = (7, 7)
    domain: Optional[tuple[float, float, float, float]] = None
    order: int = 3
    tol: Tolerances = DEFAULT_TOLERANCES
    fmt: str = "json"
    out: Optional[str] = None
    jobs: Optional[int] = None  # accepted for compatibility; no effect
    theorem: Optional[str] = None

    def __post_init__(self):
        if self.command not in ("analyze", "classify", "verify", "catalog"):
            raise ValueError(f"unknown command {self.command!r}")
        if self.grid[0] < 2 or self.grid[1] < 2:
            raise ValueError("grid needs at least 2 points per axis")
        if self.order not in (3, 4):
            raise ValueError("jet order must be 3 or 4")
        if self.fmt not in ("json", "csv"):
            raise ValueError(f"unknown format {self.fmt!r}")
        for name in ("causal", "residual", "constancy_rel", "degenerate"):
            if getattr(self.tol, name) <= 0:
                raise ValueError(f"tolerance {name} must be positive")


@dataclass(frozen=True)
class RunResult:
    payload: dict
    text: str
    exit_code: int


def resolve_surface(cfg: RunConfig) -> SurfaceSpec:
    if (cfg.catalog is None) == (cfg.surface_file is None):
        raise ValueError("exactly one of catalog name or surface file "
                         "must be given")
    if cfg.catalog is not None:
        spec = sf.catalog_lookup(cfg.catalog, cfg.params or None)
    else:
        with open(cfg.surface_file, "r", encoding="utf-8") as fh:
            spec = sf.parse_surface(fh.read())
        if cfg.params:
            unknown = set(cfg.params) - set(spec.params)
            if unknown:
                raise ValueError(
                    f"parameters not declared by the surface file: "
                    f"{sorted(unknown)}")
            merged = dict(spec.params)
            for key, val in cfg.params.items():
                merged[key] = float(val)
            spec = dataclasses.replace(spec, params=merged)
    if cfg.domain is not None:
        a, b, c, d = cfg.domain
        spec = dataclasses.replace(spec, domain=Domain(a, b, c, d))
    return spec


def evaluate_records(spec: SurfaceSpec, cfg: RunConfig) -> list[PointRecord]:
    """Row-major records over the grid, evaluated in blocks of
    ``gaussmap.BLOCK_POINTS`` points; the bytes they lead to do not
    depend on the block size."""
    return evaluate_grid(spec, cfg.grid, cfg.order, cfg.tol)


def _stats(values: Sequence[float]) -> dict:
    if not values:
        return {"mean": None, "sd": None, "min": None, "max": None}
    mean = statistics.fmean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return {"mean": mean, "sd": sd, "min": min(values), "max": max(values)}


def summarize(records: Sequence[PointRecord], tol: Tolerances) -> dict:
    live = [r for r in records if r.ok]
    skipped = [r for r in records if not r.ok]
    out: dict = {
        "points_total": len(records),
        "points_evaluated": len(live),
        "points_skipped": len(skipped),
        "skip_reasons": sorted({r.skip_reason for r in skipped}),
    }
    if not live:
        return out

    residuals = {}
    for name in ("residual_frame", "residual_codazzi", "residual_parallel_H",
                 "residual_beltrami", "residual_route",
                 "residual_first_kind", "residual_harmonic"):
        residuals[name] = max(getattr(r, name) for r in live)
    out["max_residuals"] = residuals

    out["K_gauss"] = _stats([r.K[0] for r in live])
    out["K_route_spread"] = max(
        max(abs(r.K[0] - r.K[1]), abs(r.K[0] - r.K[2])) for r in live)
    out["h_sq"] = _stats([r.h_sq for r in live])
    out["RD_max_abs"] = max(abs(r.RD) for r in live)
    out["f_estimate"] = _stats([r.f_estimate for r in live])
    out["H_causal_classes"] = sorted({r.H_causal for r in live})
    out["H_norm_euclid_max"] = max(r.H_norm_euclid for r in live)

    positions = [r.position_inner for r in live]
    out["position_inner"] = _stats(positions)
    # A quadric containment constant only makes sense if <x, x> is
    # grid-constant; the rule is the one the quadric premises use.
    pos_constant, _ = _constancy(positions, tol.constancy_rel)
    out["position_inner_constant"] = pos_constant

    lem = [r.lemma42 for r in live if r.lemma42 is not None]
    out["lemma42_max"] = max(lem) if lem else None
    bil = [r.bilaplacian_norm for r in live
           if r.bilaplacian_norm is not None]
    out["bilaplacian_norm_max"] = max(bil) if bil else None

    everywhere = set(live[0].labels)
    somewhere = set()
    for r in live:
        everywhere &= set(r.labels)
        somewhere |= set(r.labels)
    if not pos_constant:
        everywhere -= set(QUADRIC_LABELS)
    out["labels_everywhere"] = sorted(everywhere)
    out["labels_somewhere"] = sorted(somewhere)
    return out


def _surface_block(spec: SurfaceSpec, source: str) -> dict:
    return {
        "name": spec.name,
        "source": source,
        "params": {k: spec.params[k] for k in sorted(spec.params)},
        "domain": list(spec.domain.as_tuple()),
        "components": [serialize_expression(c) for c in spec.components],
    }


def _grid_block(cfg: RunConfig) -> dict:
    return {
        "nu": cfg.grid[0],
        "nv": cfg.grid[1],
        "points": cfg.grid[0] * cfg.grid[1],
        "order": cfg.order,
    }


_LABEL_COLUMNS = ("u", "v", "ok", "skip_reason")
_CSV_SCALARS = _LABEL_COLUMNS + (
    "position_inner", "H_inner", "H_causal", "H_norm_euclid", "h_sq", "RD",
    "c_nu", "c_norm", "residual_frame", "residual_codazzi",
    "residual_parallel_H", "residual_beltrami", "residual_route",
    "residual_first_kind", "residual_harmonic", "f_estimate", "lemma42",
    "bilaplacian_norm",
)
_CSV_TUPLES = (
    ("g", ("E", "F", "G")),
    ("x", ("x0", "x1", "x2", "x3")),
    ("nu", tuple(f"nu_{b}" for b in ("12", "13", "14", "23", "24", "34"))),
    ("omega12", ("omega12_e1", "omega12_e2")),
    ("omega34", ("omega34_e1", "omega34_e2")),
    ("h3", ("h3_11", "h3_12", "h3_22")),
    ("h4", ("h4_11", "h4_12", "h4_22")),
    ("H", ("H0", "H1", "H2", "H3")),
    ("K", ("K_gauss", "K_formula", "K_intrinsic")),
    ("laplacian_x", ("lap_x0", "lap_x1", "lap_x2", "lap_x3")),
    ("dnu_direct", tuple(f"dnu_{i}" for i in range(6))),
    ("dnu_formula", tuple(f"dnu_formula_{i}" for i in range(6))),
    ("grad_trA3", ("grad_trA3_e1", "grad_trA3_e2")),
    ("grad_trA4", ("grad_trA4_e1", "grad_trA4_e2")),
)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _csv_text(header: Sequence[str], rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _records_csv(records: Sequence[PointRecord], scalars: Sequence[str],
                 tuples=()) -> str:
    """One row per record: the scalar fields, the tuple fields expanded
    one column per component, and the labels joined by ';'."""
    header = [*scalars, *(col for _, cols in tuples for col in cols), "labels"]
    rows = ([*(_csv_cell(getattr(rec, name)) for name in scalars),
             *(_csv_cell(x) for name, _ in tuples for x in getattr(rec, name)),
             ";".join(rec.labels)]
            for rec in records)
    return _csv_text(header, rows)


def _to_json(payload: dict) -> str:
    return json.dumps(payload, indent=2, allow_nan=True) + "\n"


def _verdict_block(verdict: TheoremVerdict) -> dict:
    return {
        "theorem_id": verdict.theorem_id,
        "statement": verdict.statement,
        "surface": verdict.surface,
        "premise": verdict.premise,
        "premise_met": verdict.premise_met,
        "vacuous": verdict.vacuous,
        "side_a": dataclasses.asdict(verdict.side_a),
        "side_b": dataclasses.asdict(verdict.side_b),
        "consistent": verdict.consistent,
        "tolerance": verdict.tolerance,
        "points": verdict.points,
        "skipped": verdict.skipped,
        "notes": verdict.notes,
    }


def _analysis_result(cfg: RunConfig, include_labels_only: bool) -> RunResult:
    spec = resolve_surface(cfg)
    source = "catalog" if cfg.catalog is not None else "file"
    records = evaluate_records(spec, cfg)
    summary = summarize(records, cfg.tol)
    exit_code = 3 if summary["points_evaluated"] == 0 else 0
    if include_labels_only:
        points = [{"u": r.u, "v": r.v, "ok": r.ok,
                   "skip_reason": r.skip_reason, "labels": list(r.labels)}
                  for r in records]
    else:
        # PointRecord holds no nested dataclasses, so its instance dict
        # (in field order) is what dataclasses.asdict would build.
        points = [dict(vars(r)) for r in records]

    payload = {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "conventions": CONVENTIONS,
        "surface": _surface_block(spec, source),
        "grid": _grid_block(cfg),
        "points": points,
        "summary": summary,
    }
    if cfg.fmt == "json":
        text = _to_json(payload)
    elif include_labels_only:
        text = _records_csv(records, _LABEL_COLUMNS)
    else:
        text = _records_csv(records, _CSV_SCALARS, _CSV_TUPLES)
    return RunResult(payload=payload, text=text, exit_code=exit_code)


def run_analyze(cfg: RunConfig) -> RunResult:
    return _analysis_result(cfg, include_labels_only=False)


def run_classify(cfg: RunConfig) -> RunResult:
    return _analysis_result(cfg, include_labels_only=True)


def run_verify(cfg: RunConfig) -> RunResult:
    if not cfg.theorem:
        raise ValueError("verify needs a theorem id")
    spec = resolve_surface(cfg)
    source = "catalog" if cfg.catalog is not None else "file"
    records = evaluate_records(spec, cfg)
    summary = summarize(records, cfg.tol)
    verdict = theorem_verdict_from_records(
        cfg.theorem, records, spec.name, cfg.tol.residual, cfg.tol)
    if summary["points_evaluated"] == 0:
        exit_code = 3
    else:
        exit_code = 0 if verdict.consistent else 1
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "verify",
        "conventions": CONVENTIONS,
        "surface": _surface_block(spec, source),
        "grid": _grid_block(cfg),
        "verdict": _verdict_block(verdict),
        "summary": summary,
    }
    return RunResult(payload=payload, text=_to_json(payload),
                     exit_code=exit_code)


def run_catalog(cfg: RunConfig) -> RunResult:
    entries = []
    for name in sf.catalog_names():
        entry = sf.catalog_entry(name)
        entries.append({
            "name": name,
            "float_params": {p: d for p, d in entry.float_params},
            "expression_params": list(entry.expr_params),
            "domain": list(entry.domain.as_tuple()),
            "tags": sorted(entry.tags),
            "notes": entry.notes,
            "components": list(entry.components),
        })
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "catalog",
        "conventions": CONVENTIONS,
        "catalog": entries,
    }
    if cfg.fmt == "csv":
        text = _csv_text(
            ["name", "float_params", "expression_params", "domain", "tags"],
            ([e["name"],
              ";".join(f"{k}={_csv_cell(v)}"
                       for k, v in e["float_params"].items()),
              ";".join(e["expression_params"]),
              ";".join(_csv_cell(x) for x in e["domain"]),
              ";".join(e["tags"])]
             for e in entries))
    else:
        text = _to_json(payload)
    return RunResult(payload=payload, text=text, exit_code=0)


def run(cfg: RunConfig) -> RunResult:
    if cfg.command == "analyze":
        return run_analyze(cfg)
    if cfg.command == "classify":
        return run_classify(cfg)
    if cfg.command == "verify":
        return run_verify(cfg)
    return run_catalog(cfg)
