"""Grid orchestration and machine-readable reports.

A run resolves a surface (catalog entry or text file), evaluates the
pointwise analysis over cell centers of a rectangular grid, block by
block in one process, and serializes the records plus grid summaries to
JSON or CSV.  Reports are deterministic: identical bytes for the same
config and build, independent of how the grid is split into blocks, with
floats written via repr so a JSON round trip preserves every bit.

Records arrive as columns (``gaussmap.Records``), and the summary, the
verdicts and both writers read the columns.  Each writer picks the
encoder of a column from its dtype: float64, bool, or object, whose
values are encoded one at a time.  The JSON ``points`` block is one
``%``-template per record layout, compiled from the column shapes and
filled column by column, with bytes equal to what ``json.dumps(indent=2,
allow_nan=True)`` writes for the records' dicts.  The rest of a payload
goes through ``json.dumps`` itself.

Every report embeds the sign conventions; the numbers are meaningless
without them.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import io
import json
import statistics
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from typing import Optional, Sequence

from . import surfaces as sf
from .gaussmap import (BLOCK_POINTS, PointRecord, Records, _constancy,
                       _mean, evaluate_grid, theorem_verdict_from_records)
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
        if self.command == "verify" and self.fmt == "csv":
            raise ValueError("verify writes JSON only; --format csv is not "
                             "supported")
        if self.command == "verify" and not self.theorem:
            raise ValueError("verify needs a theorem id")


@dataclass(frozen=True)
class RunResult:
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


def evaluate_records(spec: SurfaceSpec, cfg: RunConfig) -> Records:
    """Row-major records over the grid, evaluated in blocks of
    ``gaussmap.BLOCK_POINTS`` points; the bytes they lead to do not
    depend on the block size."""
    return evaluate_grid(spec, cfg.grid, cfg.order, cfg.tol)


def _stats(values: Sequence[float]) -> dict:
    mean = _mean(values)
    sd = statistics.stdev(values) if len(values) > 1 else 0.0
    return {"mean": mean, "sd": sd, "min": min(values), "max": max(values)}


def summarize(records: Records) -> dict:
    live = records.live()
    skipped = records["skip_reason"][~records["ok"]].tolist()
    out: dict = {
        "points_total": len(records),
        "points_evaluated": len(live),
        "points_skipped": len(skipped),
        "skip_reasons": sorted(set(skipped)),
    }
    if not live:
        return out

    out["max_residuals"] = {
        name: max(live[name].tolist())
        for name in ("residual_frame", "residual_codazzi",
                     "residual_parallel_H", "residual_beltrami",
                     "residual_route", "residual_first_kind",
                     "residual_harmonic")}

    K_gauss, K_formula, K_intrinsic = live.lists("K")
    out["K_gauss"] = _stats(K_gauss)
    out["K_route_spread"] = max(
        max(abs(k - f), abs(k - i))
        for k, f, i in zip(K_gauss, K_formula, K_intrinsic))
    out["h_sq"] = _stats(live["h_sq"].tolist())
    out["RD_max_abs"] = max(map(abs, live["RD"].tolist()))
    out["f_estimate"] = _stats(live["f_estimate"].tolist())
    out["H_causal_classes"] = sorted(set(live["H_causal"]))
    out["H_norm_euclid_max"] = max(live["H_norm_euclid"].tolist())

    positions = live["position_inner"].tolist()
    out["position_inner"] = _stats(positions)
    # A quadric containment constant only makes sense if <x, x> is
    # grid-constant; the rule is the one the quadric premises use.
    pos_constant, _ = _constancy(positions)
    out["position_inner_constant"] = pos_constant

    for name in ("lemma42", "bilaplacian_norm"):
        present = [x for x in live[name] if x is not None]
        out[name + "_max"] = max(present) if present else None

    labels = live["labels"]
    everywhere = set(labels[0]).intersection(*labels)
    somewhere = set().union(*labels)
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


def _blocks(records: Records):
    """The records in blocks of ``BLOCK_POINTS``: the writers encode one
    block's columns at a time, which bounds the memory they hold."""
    for start in range(0, len(records), BLOCK_POINTS):
        yield records.select(slice(start, start + BLOCK_POINTS))


def _float_texts(values) -> list[str]:
    """``float.__repr__`` of each value: the text of a float in both the
    CSV and the JSON reports (JSON then renames the non-finite ones)."""
    return list(map(float.__repr__, values))


def _csv_cells(values) -> list[str]:
    return list(map(_csv_cell, values))


def _records_csv(records: Records, scalars: Sequence[str],
                 tuples=()) -> str:
    """One row per record: the scalar fields, the tuple fields expanded
    one column per component, and the labels joined by ';'."""
    header = [*scalars, *(col for _, cols in tuples for col in cols), "labels"]

    def columns(block):
        cols = [(_float_texts if block[name].dtype == float else _csv_cells)(
                    *block.lists(name)) for name in scalars]
        for name, _ in tuples:
            cols.extend(map(_float_texts, block.lists(name)))
        cols.append(list(map(";".join, block["labels"])))
        return cols

    return _csv_text(header, (row for block in _blocks(records)
                              for row in zip(*columns(block))))


class _JSONText(str):
    """JSON text that ``_to_json`` writes as it is."""


def _json_floats(values) -> list[str]:
    """JSON text of floats: ``float.__repr__``, and NaN/Infinity/-Infinity
    for the non-finite ones, as ``allow_nan=True`` writes them."""
    texts = _float_texts(values)
    nonfinite = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
    return list(map(nonfinite.get, texts, texts))


def _json_strings(strings: Sequence[str]) -> str:
    if not strings:
        return "[]"
    items = ",\n        ".join(map(encode_basestring_ascii, strings))
    return f"[\n        {items}\n      ]"


def _json_value(value) -> str:
    """JSON text of one value of an object column."""
    if value is None:
        return "null"
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, tuple):
        return _json_strings(value)
    return _json_floats([value])[0]


def _json_texts(dtype, values: list) -> list[str]:
    """JSON text of each value of one component of a column of ``dtype``."""
    if dtype == float:
        return _json_floats(values)
    if dtype == bool:
        return ["true" if x else "false" for x in values]
    return list(map(_json_value, values))


@functools.cache
def _record_template(layout: tuple[tuple[str, tuple], ...]) -> str:
    """%-template of one element of the ``points`` list, at its depth in
    a payload, for records with the (field name, row shape) ``layout``:
    one ``%s`` per component of a field whose rows are 1-d, and one per
    other field."""
    members = []
    for name, shape in layout:
        key = encode_basestring_ascii(name)
        if shape:
            slots = ",\n".join(["        %s"] * shape[0])
            members.append(f"      {key}: [\n{slots}\n      ]")
        else:
            members.append(f"      {key}: %s")
    return "    {\n" + ",\n".join(members) + "\n    }"


def _points_json(records: Records, names: tuple[str, ...]) -> _JSONText:
    """The ``points`` list of a payload, holding the fields ``names`` of
    each record: a block's columns are encoded at once, then each record
    is one ``template % values``."""
    if not records:
        return _JSONText("[]")
    template = _record_template(
        tuple((name, records[name].shape[1:]) for name in names))
    texts = []
    for block in _blocks(records):
        columns = [_json_texts(block[name].dtype, values) for name in names
                   for values in block.lists(name)]
        texts.extend(map(template.__mod__, zip(*columns)))
    return _JSONText("[\n" + ",\n".join(texts) + "\n  ]")


def _to_json(payload: dict) -> str:
    """``json.dumps(payload, indent=2, allow_nan=True) + "\\n"``: each
    value but a ``_JSONText`` is written by ``json.dumps`` and indented
    by two more spaces, which is safe since JSON text holds no raw
    newline inside a string."""
    parts = []
    for key, value in payload.items():
        if not isinstance(value, _JSONText):
            value = json.dumps(value, indent=2, allow_nan=True)
            value = value.replace("\n", "\n  ")
        parts += (",\n  " if parts else "{\n  ",
                  encode_basestring_ascii(key), ": ", value)
    parts.append("\n}\n")
    return "".join(parts)


def _grid_report(cfg: RunConfig) -> RunResult:
    """The report of analyze (every record field), classify (the labels
    only) or verify (the verdict in place of the records)."""
    spec = resolve_surface(cfg)
    records = evaluate_records(spec, cfg)
    summary = summarize(records)
    exit_code = 3 if summary["points_evaluated"] == 0 else 0
    labels_only = cfg.command == "classify"
    if cfg.fmt == "csv":
        if labels_only:
            text = _records_csv(records, _LABEL_COLUMNS)
        else:
            text = _records_csv(records, _CSV_SCALARS, _CSV_TUPLES)
        return RunResult(text=text, exit_code=exit_code)
    payload = {
        "schema": SCHEMA_VERSION,
        "command": cfg.command,
        "conventions": CONVENTIONS,
        "surface": _surface_block(
            spec, "catalog" if cfg.catalog is not None else "file"),
        "grid": _grid_block(cfg),
    }
    if cfg.command == "verify":
        verdict = theorem_verdict_from_records(cfg.theorem, records,
                                               spec.name, cfg.tol)
        payload["verdict"] = dataclasses.asdict(verdict)
        if exit_code == 0 and not verdict.consistent:
            exit_code = 1
    elif labels_only:
        payload["points"] = _points_json(records, (*_LABEL_COLUMNS, "labels"))
    else:
        payload["points"] = _points_json(
            records, tuple(f.name for f in dataclasses.fields(PointRecord)))
    payload["summary"] = summary
    return RunResult(text=_to_json(payload), exit_code=exit_code)


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
        text = _to_json({
            "schema": SCHEMA_VERSION,
            "command": "catalog",
            "conventions": CONVENTIONS,
            "catalog": entries,
        })
    return RunResult(text=text, exit_code=0)


def run(cfg: RunConfig) -> RunResult:
    if cfg.command == "catalog":
        return run_catalog(cfg)
    return _grid_report(cfg)
