"""Smoke test of the benchmark itself, at tiny grids.

    python3 perfbench/smoke.py

Runs every workload once with and once without tracing on small grids
and checks that the result line carries every metric BENCHMARK.json
names, each with its unit, and that all calls pass the gates.  Then it
feeds the gates tampered reports and checks that each is rejected.
Exits 0 when all checks pass.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import workloads as wl  # noqa: E402
from minksurf import cli  # noqa: E402

END_TO_END = ("points_per_s", "call_ms_p50", "call_ms_p85", "peak_rss_mb",
              "setup_s")
PER_LAYER = (
    "surfaces.resolve_s", "surfaces.immersion_s", "geometry.metric_s",
    "geometry.frame_s", "geometry.second_form_s", "gaussmap.routes_s",
    "geometry.residuals_s", "report.evaluate_s", "report.pool_efficiency",
    "report.summarize_s", "gaussmap.verdict_s", "report.serialize_s",
    "cli.self_s", "report.report_bytes", "geometry.points_evaluated",
    "geometry.points_skipped", "trace.coverage", "trace.overhead_s")
GRIDS = {"analyze-e52-o4": "4x4", "classify-graph-o3": "4x4",
         "verify-registry": "2x2"}

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what)
    if not ok:
        failures.append(what)


def check_declared() -> None:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    declared = {m["name"] for m in bench["end_to_end"]}
    expect(declared == set(END_TO_END), "BENCHMARK.json end_to_end names")
    declared = {m["name"] for m in bench["per_layer"]}
    expect(declared == set(PER_LAYER), "BENCHMARK.json per_layer names")
    expect([w["name"] for w in bench["workloads"]] == list(wl.WORKLOADS),
           "BENCHMARK.json workloads")


def check_runs() -> None:
    for workload, grid in GRIDS.items():
        for trace, names in ((0, END_TO_END), (1, PER_LAYER)):
            what = f"{workload} --trace {trace}"
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "1", "--seconds", "1", "--trace", str(trace),
                 "--grid", grid], cwd=ROOT, capture_output=True, text=True,
                timeout=170)
            expect(proc.returncode == 0, f"{what} exits 0")
            if proc.returncode != 0:
                print(proc.stderr[-2000:])
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            expect(set(result) == {"correct", "attempted", "failed",
                                   "metrics"}, f"{what} result keys")
            expect(result["correct"] and result["failed"] == 0
                   and result["attempted"] >= 1, f"{what} passes its gates")
            metrics = result["metrics"]
            expect(set(metrics) == set(names), f"{what} prints every metric")
            expect(all(isinstance(m.get("value"), (int, float))
                       and isinstance(m.get("unit"), str) and m["unit"]
                       for m in metrics.values()), f"{what} values and units")


def check_gates(tmp: Path) -> None:
    (case,) = wl.build_cases("analyze-e52-o4", 0, (4, 4))
    out = tmp / "analyze.json"
    rc = cli.main([*case.argv, "--out", str(out)])
    data = out.read_bytes()
    expect(not wl.check_analyze(rc, data, case), "genuine analyze passes")
    payload = json.loads(data)
    payload["summary"]["max_residuals"]["residual_route"] = 1e-9
    expect(bool(wl.check_analyze(rc, json.dumps(payload).encode(), case)),
           "inflated residual_route is rejected")
    payload = json.loads(data)
    payload["summary"]["max_residuals"]["residual_frame"] = float("nan")
    expect(bool(wl.check_analyze(rc, json.dumps(payload).encode(), case)),
           "NaN residual_frame is rejected")
    payload = json.loads(data)
    payload["summary"]["points_evaluated"] -= 1
    expect(bool(wl.check_analyze(rc, json.dumps(payload).encode(), case)),
           "short points_evaluated is rejected")
    expect(bool(wl.check_analyze(3, data, case)),
           "wrong exit code is rejected")

    gate = wl.Gate("analyze-e52-o4", 0, True)
    gate.check(case, rc, data)
    expect(bool(gate.check(case, rc, data + b" ")),
           "changed report bytes are rejected")

    (case,) = wl.build_cases("classify-graph-o3", 0)
    ref = wl.load_reference("classify-graph-o3")
    header = "u,v,ok,skip_reason,labels\n"
    rows = [f"0.0,0.0,true,,{label}\n" for label in ref["labels"]]
    genuine = (header + "".join(rows)).encode()
    expect(not wl.check_classify(0, genuine, case, ref, True),
           "reference label column passes")
    rows[7] = "0.0,0.0,true,,FLAT\n"
    tampered = (header + "".join(rows)).encode()
    expect(bool(wl.check_classify(0, tampered, case, ref, True)),
           "changed label is rejected")
    expect(bool(wl.check_classify(0, tampered, case, ref, False)),
           "label outside the reference set is rejected")

    cases = wl.build_cases("verify-registry", 0)
    ref = wl.load_reference("verify-registry")
    case = cases[0]
    out = tmp / "verify.json"
    rc = cli.main([*case.argv, "--out", str(out)])
    data = out.read_bytes()
    row = ref["calls"][case.key]
    expect(not wl.check_verify(rc, data, case, row),
           "genuine verify matches its reference row")
    expect(bool(wl.check_verify(rc, data, case, [row[0], not row[1], row[2]])),
           "verify against a different premise_met is rejected")
    payload = json.loads(data)
    payload["verdict"]["consistent"] = False
    expect(bool(wl.check_verify(rc, json.dumps(payload).encode(), case, None)),
           "exit code that contradicts the verdict is rejected")


def main() -> int:
    check_declared()
    with tempfile.TemporaryDirectory(dir=ROOT) as tmp:
        check_gates(Path(tmp))
    check_runs()
    print(f"{len(failures)} failed" if failures else "all passed")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
