"""Traced run: spans around calls into the package's layers.

Spans are recorded only from this file, around public functions of
``surfaces``, ``geometry``, ``gaussmap`` and ``report``; nothing inside
``src/`` is instrumented.  Two kinds of traced work make up a round:

* CLI calls run in this process with ``report.resolve_surface``,
  ``report.evaluate_records``, ``report.summarize``,
  ``report.theorem_verdict_from_records`` and ``report.run`` wrapped in
  spans, so the self time of ``report.run`` is serialization and the
  self time of ``cli.main`` is argument handling and the file write;
* a staged pass that drives one ``PointGeometry`` per grid point through
  the pipeline stages in order.  Stages are ``cached_property`` chains,
  so each stage's span holds only the work that stage adds.

At each point the staged calls also run without spans
(``trace.overhead_s`` is the difference in wall time), and so does
``gaussmap.evaluate_point`` (``trace.coverage`` is the summed stage
self time over its wall time).  Spans stay in memory and are written
out when the run ends.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional

from minksurf import cli, gaussmap, geometry, linalg, report, surfaces

from workloads import Case, Gate

STAGES = ("surfaces.immersion", "geometry.metric", "geometry.frame",
          "geometry.second_form", "gaussmap.routes", "geometry.residuals")


@dataclass(frozen=True)
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    run: str


class Tracer:
    """In-memory span recorder; the parent is the innermost open span."""

    def __init__(self):
        self.spans: list[Optional[Span]] = []
        self.run = ""
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._open[-1] if self._open else None
        self.spans.append(None)
        self._open.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._open.pop()
            self.spans[index] = Span(name, start, end, parent, self.run)

    def self_times(self, first: int = 0) -> dict[str, float]:
        """Seconds per span name: duration minus the time covered by
        direct children, summed over spans ``first`` onwards."""
        spans = self.spans[first:]
        child = [0.0] * len(spans)
        for s in spans:
            if s.parent is not None and s.parent >= first:
                child[s.parent - first] += s.end - s.start
        out: dict[str, float] = {}
        for s, inner in zip(spans, child):
            out[s.name] = out.get(s.name, 0.0) + (s.end - s.start - inner)
        return out

    def write(self, path: Path) -> None:
        rows = [dict(asdict(s), id=i) for i, s in enumerate(self.spans)]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": rows}, fh)


# -- staged pass -----------------------------------------------------------

class _Point:
    """Working state of one staged point."""

    def __init__(self, spec, u: float, v: float, order: int, tol):
        self.spec, self.u, self.v = spec, u, v
        self.order, self.tol = order, tol
        self.xj = self.pg = self.decomp = None


def _immersion(p: _Point) -> None:
    p.xj = surfaces.evaluate_immersion(p.spec, p.u, p.v, p.order)


def _metric(p: _Point) -> None:
    p.pg = geometry.PointGeometry(p.xj, base=(p.u, p.v), tol=p.tol)
    p.pg.require_spacelike()


def _frame(p: _Point) -> None:
    p.pg.nu_jets, p.pg.frame, p.pg.omega12, p.pg.omega34


def _second_form(p: _Point) -> None:
    pg = p.pg
    geometry.second_fundamental_form(pg)
    geometry.mean_curvature_vector(pg)
    geometry.squared_second_fundamental_form(pg)
    geometry.gaussian_curvature(pg)
    geometry.normal_curvature_RD(pg)


def _routes(p: _Point) -> None:
    p.decomp = gaussmap.laplacian_gauss_formula(p.pg)
    gaussmap.first_kind_residuals(p.decomp)


def _residuals(p: _Point) -> None:
    pg = p.pg
    pg.residual_frame, pg.residual_codazzi, pg.position_inner
    geometry.parallel_H_residual(pg)
    pg.residual_beltrami
    geometry.position_laplacian(pg)
    try:
        gaussmap.lemma42_residual(pg)
    except gaussmap.NotApplicable:
        pass
    geometry.classify_point(pg)


_STAGE_FNS: tuple[Callable[[_Point], None], ...] = (
    _immersion, _metric, _frame, _second_form, _routes, _residuals)

_SKIPS = (geometry.NotSpacelike, linalg.DegeneratePlane)

_ROTATIONS = (("traced", "plain", "whole"), ("plain", "whole", "traced"),
              ("whole", "traced", "plain"))


def _staged(p: _Point, tracer: Optional[Tracer]) -> None:
    if tracer is None:
        for fn in _STAGE_FNS:
            fn(p)
        return
    with tracer.span("point"):
        for name, fn in zip(STAGES, _STAGE_FNS):
            with tracer.span(name):
                fn(p)


def point_passes(resolved, tol, tracer: Tracer, label: str) -> dict:
    """Per grid point, the staged calls with spans, the same calls
    without spans, and ``gaussmap.evaluate_point``.  The three alternate
    point by point, in rotating order, so that drift in machine speed
    falls on all three alike.  Returns the summed wall time of each and
    whether all three agree on every point's route residual."""
    wall = {"traced": 0.0, "plain": 0.0, "whole": 0.0}
    agree = True
    n = 0
    for k, (case, spec) in enumerate(resolved):
        for i, (u, v) in enumerate(
                surfaces.cell_centers(spec.domain, *case.grid)):
            routes = {}
            for kind in _ROTATIONS[n % 3]:
                start = time.perf_counter()
                if kind == "whole":
                    rec = gaussmap.evaluate_point(spec, u, v, case.order, tol)
                    routes[kind] = rec.residual_route if rec.ok else None
                else:
                    p = _Point(spec, u, v, case.order, tol)
                    tracer.run = f"{label}/point-{k}-{i}"
                    try:
                        _staged(p, tracer if kind == "traced" else None)
                        routes[kind] = p.decomp.residual_route
                    except _SKIPS:
                        routes[kind] = None
                wall[kind] += time.perf_counter() - start
            agree = agree and (routes["traced"] == routes["plain"]
                               == routes["whole"])
            n += 1
    return {"wall": wall, "agree": agree}



# Per-layer metrics that are the summed self time of one span name.
_SELF_TIME_METRICS = {
    "surfaces.resolve_s": "surfaces.resolve",
    "surfaces.immersion_s": "surfaces.immersion",
    "geometry.metric_s": "geometry.metric",
    "geometry.frame_s": "geometry.frame",
    "geometry.second_form_s": "geometry.second_form",
    "gaussmap.routes_s": "gaussmap.routes",
    "geometry.residuals_s": "geometry.residuals",
    "report.evaluate_s": "report.evaluate",
    "report.summarize_s": "report.summarize",
    "gaussmap.verdict_s": "gaussmap.verdict",
    "report.serialize_s": "report.run",
    "cli.self_s": "cli.main",
}


# -- traced CLI calls --------------------------------------------------------

_WRAPPED = (("resolve_surface", "surfaces.resolve"),
            ("evaluate_records", "report.evaluate"),
            ("summarize", "report.summarize"),
            ("theorem_verdict_from_records", "gaussmap.verdict"),
            ("run", "report.run"))


@contextmanager
def _report_spans(tracer: Tracer, captured: list):
    """Wrap the report layer's entry points in spans for the duration."""
    originals = {attr: getattr(report, attr) for attr, _ in _WRAPPED}

    def wrap(attr, name):
        fn = originals[attr]

        def traced(*args, **kwargs):
            with tracer.span(name):
                out = fn(*args, **kwargs)
            if attr == "evaluate_records":
                captured.append(out)
            return out
        return traced

    for attr, name in _WRAPPED:
        setattr(report, attr, wrap(attr, name))
    try:
        yield
    finally:
        for attr, fn in originals.items():
            setattr(report, attr, fn)


def traced_calls(cases: list[Case], tracer: Tracer, gate: Gate,
                 out_dir: Path, label: str, record: Callable[[list], None],
                 ) -> tuple[int, list]:
    """Run each case through ``cli.main`` in this process under spans,
    passing each gate result to ``record``.

    Returns the report bytes and the records of every
    ``evaluate_records`` call."""
    total_bytes = 0
    captured: list = []
    with _report_spans(tracer, captured):
        for k, case in enumerate(cases):
            out = out_dir / f"traced-{k}.out"
            tracer.run = f"{label}/call-{k}"
            with tracer.span("cli.main"):
                rc = cli.main(list(case.argv) + ["--out", str(out)])
            data = out.read_bytes() if out.exists() else b""
            total_bytes += len(data)
            record(gate.check(case, rc, data))
    return total_bytes, captured


def verdict_probe(tracer: Tracer, records_per_call: list, cases: list[Case],
                  label: str) -> None:
    """On grid workloads, which run no verdict, time the whole registry's
    verdicts over the workload's own records."""
    tracer.run = f"{label}/verdicts"
    for case, records in zip(cases, records_per_call):
        for tid in gaussmap.theorem_ids():
            with tracer.span("gaussmap.verdict"):
                gaussmap.theorem_verdict_from_records(tid, records,
                                                      case.catalog)


def traced_round(cases: list[Case], tracer: Tracer, gate: Gate,
                 out_dir: Path, label: str, record: Callable[[list], None],
                 ) -> dict:
    """One round of traced work; gate results go to ``record``."""
    first = len(tracer.spans)
    nbytes, records = traced_calls(cases, tracer, gate, out_dir, label,
                                   record)
    if cases[0].argv[0] != "verify":
        verdict_probe(tracer, records, cases, label)

    tol = geometry.Tolerances()
    resolved = [(c, report.resolve_surface(report.RunConfig(**c.run_config())))
                for c in cases]
    passes = point_passes(resolved, tol, tracer, label)
    # The staged calls must compute what evaluate_point computes.
    record([] if passes["agree"] else
           ["staged route residuals differ from evaluate_point"])
    wall = passes["wall"]

    selft = tracer.self_times(first)
    metrics = {metric: selft.get(span, 0.0)
               for metric, span in _SELF_TIME_METRICS.items()}
    stage_sum = sum(selft.get(name, 0.0) for name in STAGES)
    evaluate_s = metrics["report.evaluate_s"]
    counts = Counter(s.name for s in tracer.spans[first:])
    metrics.update({
        "report.pool_efficiency": (stage_sum / (cases[0].jobs * evaluate_s)
                                   if evaluate_s > 0 else 0.0),
        "report.report_bytes": nbytes,
        "geometry.points_evaluated": counts["geometry.frame"],
        "geometry.points_skipped": (counts["geometry.metric"]
                                    - counts["geometry.frame"]),
        "trace.coverage": stage_sum / wall["whole"],
        "trace.overhead_s": wall["traced"] - wall["plain"],
    })
    return metrics
