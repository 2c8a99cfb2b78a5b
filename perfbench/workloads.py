"""Workload definitions, seeded inputs and correctness gates.

A workload is a list of ``Case`` objects, one per ``minksurf`` CLI call.
The seed only moves the sample domain: the default seed runs each
catalog domain exactly, any other seed shrinks it by 2-5 % per axis and
shifts it inside the catalog domain, so every sample point stays where
the catalog entry is defined (example52 keeps u > 0).

Gates take what a call produced (exit code and report bytes) and return
a list of problems; an empty list means the call passed.
"""

from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from minksurf import gaussmap, surfaces

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
VERIFY_REFERENCE = REFERENCE_DIR / "verify_registry.json"
CLASSIFY_REFERENCE = REFERENCE_DIR / "classify_graph_o3_labels.json"

DEFAULT_SEED = 0
# The two-route Laplacian agreement and the frame orthonormality read
# about 5e-15 on example52; 1e-12 leaves room for reordered arithmetic
# but not for a broken route.
RESIDUAL_LIMIT = 1e-12

WORKLOADS = ("analyze-e52-o4", "classify-graph-o3", "verify-registry")

# Expression parameters for catalog entries that have no default.
VERIFY_PARAMS = {"graph": ("phi=u^2-v^2",)}


@dataclass(frozen=True)
class Case:
    """One CLI call: its argv (without --out), what it resolves, and
    the sample grid."""

    key: str
    argv: tuple[str, ...]
    catalog: str
    params: tuple[str, ...]
    domain: Optional[tuple[float, float, float, float]]
    grid: tuple[int, int]
    order: int
    jobs: int

    @property
    def points(self) -> int:
        return self.grid[0] * self.grid[1]

    def run_config(self) -> dict:
        """Keyword arguments of ``report.RunConfig`` for this call."""
        return {
            "command": self.argv[0],
            "catalog": self.catalog,
            "params": dict(p.split("=", 1) for p in self.params),
            "grid": self.grid,
            "domain": self.domain,
            "order": self.order,
            "jobs": self.jobs,
            "theorem": self.argv[1] if self.argv[0] == "verify" else None,
        }


def seeded_domain(catalog: str, seed: int,
                  ) -> Optional[tuple[float, float, float, float]]:
    """None (the catalog domain) for the default seed, else a shifted
    and shrunk rectangle strictly inside the catalog domain."""
    if seed == DEFAULT_SEED:
        return None
    rng = random.Random(f"{seed}:{catalog}")
    bounds = surfaces.catalog_entry(catalog).domain.as_tuple()
    out: list[float] = []
    for lo, hi in (bounds[:2], bounds[2:]):
        width = hi - lo
        shrink = rng.uniform(0.02, 0.05)
        start = lo + width * shrink * rng.uniform(0.1, 0.9)
        out += [start, start + width * (1.0 - shrink)]
    return tuple(out)


def _case(key: str, head: list[str], catalog: str, params: tuple[str, ...],
          seed: int, grid: tuple[int, int], order: int, jobs: int,
          tail: tuple[str, ...] = ()) -> Case:
    domain = seeded_domain(catalog, seed)
    argv = head + ["--catalog", catalog]
    for p in params:
        argv += ["--param", p]
    argv += ["--order", str(order), "--grid", f"{grid[0]}x{grid[1]}",
             "--jobs", str(jobs)]
    if domain is not None:
        # one token, since a bound may start with "-"
        argv.append("--domain=" + ",".join(repr(x) for x in domain))
    return Case(key, tuple(argv) + tail, catalog, params, domain, grid,
                order, jobs)


def build_cases(workload: str, seed: int,
                grid: Optional[tuple[int, int]] = None) -> list[Case]:
    """The CLI calls of one workload run, in order."""
    if workload == "analyze-e52-o4":
        return [_case(workload, ["analyze"], "example52", (), seed,
                      grid or (32, 32), 4, 2)]
    if workload == "classify-graph-o3":
        return [_case(workload, ["classify"], "graph", ("phi=u*v",), seed,
                      grid or (32, 32), 3, 1, ("--format", "csv"))]
    if workload == "verify-registry":
        return [_case(f"{tid}/{name}", ["verify", tid], name,
                      VERIFY_PARAMS.get(name, ()), seed, grid or (4, 4), 3, 1)
                for tid in gaussmap.theorem_ids()
                for name in surfaces.catalog_names()]
    raise ValueError(f"unknown workload {workload!r}")


# -- reference tables --------------------------------------------------------

def load_reference(workload: str) -> Optional[dict]:
    path = {"verify-registry": VERIFY_REFERENCE,
            "classify-graph-o3": CLASSIFY_REFERENCE}.get(workload)
    if path is None:
        return None
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# -- gates --------------------------------------------------------------------

def _json_report(data: bytes, problems: list[str]) -> Optional[dict]:
    try:
        return json.loads(data)
    except ValueError as err:
        problems.append(f"report is not JSON: {err}")
        return None


def check_analyze(rc: int, data: bytes, case: Case) -> list[str]:
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    payload = _json_report(data, problems)
    if payload is None:
        return problems
    summary = payload.get("summary", {})
    if summary.get("points_evaluated") != case.points:
        problems.append(f"points_evaluated {summary.get('points_evaluated')!r}"
                        f", expected {case.points}")
    worst = summary.get("max_residuals", {})
    for name in ("residual_route", "residual_frame"):
        value = worst.get(name)
        # written so that NaN and a missing value fail too
        if not (isinstance(value, (int, float)) and value <= RESIDUAL_LIMIT):
            problems.append(f"{name} {value!r} exceeds {RESIDUAL_LIMIT}")
    return problems


def check_classify(rc: int, data: bytes, case: Case,
                   reference: dict, exact: bool) -> list[str]:
    """Labels must equal the reference column when ``exact`` (default
    seed and grid); otherwise every label must be one that occurs in the
    reference column, which covers the whole catalog domain."""
    problems = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    rows = list(csv.reader(io.StringIO(data.decode("utf-8", "replace"))))
    if not rows or rows[0] != ["u", "v", "ok", "skip_reason", "labels"]:
        return problems + ["unexpected CSV header"]
    body = rows[1:]
    evaluated = sum(1 for r in body if len(r) == 5 and r[2] == "true")
    if len(body) != case.points or evaluated != case.points:
        problems.append(f"{evaluated} of {len(body)} rows evaluated, "
                        f"expected {case.points}")
    labels = [r[4] if len(r) == 5 else None for r in body]
    want = reference["labels"]
    if exact:
        if labels != want:
            bad = sum(1 for a, b in zip(labels, want) if a != b)
            problems.append(f"label column differs from the reference "
                            f"({bad} rows, lengths {len(labels)}/{len(want)})")
    else:
        allowed = set(want)
        bad = [x for x in labels if x not in allowed]
        if bad:
            problems.append(f"{len(bad)} labels outside the reference set, "
                            f"e.g. {bad[0]!r}")
    return problems


def check_verify(rc: int, data: bytes, case: Case,
                 expected: Optional[list]) -> list[str]:
    """``expected`` is the reference (exit code, premise_met, consistent)
    or None where the reference table does not apply."""
    problems = [] if rc in (0, 1) else [f"exit code {rc}, expected 0 or 1"]
    payload = _json_report(data, problems)
    if payload is None:
        return problems
    verdict = payload.get("verdict", {})
    got_points = payload.get("summary", {}).get("points_evaluated")
    if got_points != case.points:
        problems.append(f"points_evaluated {got_points!r}, "
                        f"expected {case.points}")
    if (rc == 0) != (verdict.get("consistent") is True):
        problems.append(f"exit code {rc} disagrees with consistent="
                        f"{verdict.get('consistent')!r}")
    got = [rc, verdict.get("premise_met"), verdict.get("consistent")]
    if expected is not None and got != expected:
        problems.append(f"{case.key}: (exit, premise_met, consistent) "
                        f"{got}, reference {expected}")
    return problems


class Gate:
    """Applies the workload's gate to each call and checks that report
    bytes repeat exactly across runs of the same call."""

    def __init__(self, workload: str, seed: int, grid_overridden: bool):
        self.workload = workload
        self.reference = load_reference(workload)
        self.exact = seed == DEFAULT_SEED and not grid_overridden
        self.first_bytes: dict[str, bytes] = {}

    def expected_keys_missing(self, cases: list[Case]) -> list[str]:
        """Reference rows that no call of this run covers."""
        if self.workload != "verify-registry" or not self.exact:
            return []
        called = {c.key for c in cases}
        return sorted(set(self.reference["calls"]) - called)

    def check(self, case: Case, rc: int, data: bytes) -> list[str]:
        if self.workload == "analyze-e52-o4":
            problems = check_analyze(rc, data, case)
        elif self.workload == "classify-graph-o3":
            problems = check_classify(rc, data, case, self.reference,
                                      self.exact)
        else:
            expected = None
            if self.exact:
                expected = self.reference["calls"].get(case.key)
                if expected is None:
                    return [f"{case.key}: no reference row"]
            problems = check_verify(rc, data, case, expected)
        first = self.first_bytes.setdefault(case.key, data)
        if data != first:
            problems.append(f"{case.key}: report bytes differ from the "
                            "first run")
        return problems
