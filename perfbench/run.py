"""minksurf benchmark: whole CLI runs timed end to end, plus a traced run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``.  Each workload is a closed loop from this one process: the
next run starts when the previous one has ended.

* ``analyze-e52-o4``: ``minksurf analyze`` on example52, order 4, 32x32,
  ``--jobs 2``, JSON to a file; one child interpreter per run.
* ``classify-graph-o3``: ``minksurf classify`` on ``graph phi=u*v``,
  order 3, 32x32, ``--jobs 1``, CSV; one child interpreter per run.
* ``verify-registry``: one child interpreter per run that calls
  ``cli.main(["verify", ...])`` for every registered theorem on every
  catalog surface at 4x4.

With ``--trace 0`` the run reports the end-to-end metrics named in
BENCHMARK.json, its timings scaled to a reference host speed sampled
alongside (see ``hostspeed.py``); with ``--trace 1`` it reports the
per-layer metrics of a traced run (see ``spans.py``).  Every call's output goes through the
workload's gate (see ``workloads.py``).  The last line of standard
output is the result object; the line before it holds run metadata.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = OUT_DIR / "work"  # reports and child results; removed at exit
CHILD_TIMEOUT_S = 60  # a run takes 2-8 s; two hung children still end by 180 s
SETUP_MIN_SAMPLES = 5
# The CPUs timed children run on: every workload uses at most two.
CPUS = tuple(sorted(os.sched_getaffinity(0))[:2])


def _env(cpus: tuple[int, ...]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PERFBENCH_CPUS"] = ",".join(map(str, cpus))
    return env


def child_cpus(turn: int, jobs: int = 1) -> tuple[int, ...]:
    """A child with a pool gets a CPU per worker; a single-process child
    gets one CPU, the next in turn."""
    return CPUS[:jobs] if jobs > 1 else (CPUS[turn % len(CPUS)],)


def run_child(args: list[str], cpus: tuple[int, ...],
              ) -> tuple[int, float, float]:
    """Run ``child.py ARGS`` pinned to ``cpus`` to completion; returns
    (exit code, start, end) on ``time.perf_counter``.  A child that
    overruns is killed with its whole process group."""
    cmd = [sys.executable, str(HERE / "child.py"), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(cpus),
                            stdout=subprocess.DEVNULL,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -signal.SIGKILL, start, time.perf_counter()
    end = time.perf_counter()
    if err:
        sys.stderr.write(err.decode("utf-8", "replace")[-2000:])
    return proc.returncode, start, end


def _read_json(path: Path) -> Optional[dict]:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        return None


def _peak_rss_mb(usage: dict, jobs: int) -> float:
    """Peak RSS of the CLI process plus, when it ran a pool, ``jobs``
    times the peak of its largest worker (an upper bound on the sum)."""
    kb = usage["maxrss_self_kb"]
    if jobs > 1:
        kb += jobs * usage["maxrss_children_kb"]
    return kb / 1024.0


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def timing_metrics(points: int, walls: list[float],
                   call_s: dict[str, list[float]]) -> dict:
    """Throughput from the median run, and call latency percentiles
    across the workload's distinct calls, each at its median run."""
    typical = [statistics.median(times) for times in call_s.values()]
    return {
        "points_per_s": points / statistics.median(walls),
        "call_ms_p50": 1e3 * statistics.median(typical),
        "call_ms_p85": 1e3 * percentile(typical, 85),
    }


class Timings:
    """Wall times of a workload's runs and calls, each kept as measured
    and scaled by the host speed over its own interval."""

    def __init__(self, sampler):
        self.sampler = sampler
        self.walls: list[float] = []
        self.scaled_walls: list[float] = []
        self.calls: dict[str, list[float]] = {}
        self.scaled_calls: dict[str, list[float]] = {}

    def run(self, start: float, end: float, cpus) -> None:
        self.walls.append(end - start)
        self.scaled_walls.append(self.sampler.scaled(start, end, cpus))

    def call(self, key: str, start: float, end: float, cpus) -> None:
        self.calls.setdefault(key, []).append(end - start)
        self.scaled_calls.setdefault(key, []).append(
            self.sampler.scaled(start, end, cpus))

    def metrics(self, points: int) -> tuple[dict, dict]:
        """(scaled metrics, the same figures from unscaled times)."""
        return (timing_metrics(points, self.scaled_walls, self.scaled_calls),
                timing_metrics(points, self.walls, self.calls))


def another_run_fits(start: float, walls: list[float], seconds: float) -> bool:
    """Closed-loop rule: at least one run, then another while the last
    run's duration still fits in the measured interval."""
    return not walls or time.perf_counter() - start + walls[-1] <= seconds


class Tally:
    """Calls attempted and failed, with the first few problems kept for
    the report on stderr."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems[:2])


class SetupProbe:
    """Set-up time: a fresh interpreter imports minksurf and resolves
    every surface config of the workload, scaled by the host speed like
    the other timings.  The workload loops take one sample before each
    run, so the samples spread over the measured interval."""

    def __init__(self, cases, sampler):
        self.spec = WORK_DIR / "setup-spec.json"
        self.result = WORK_DIR / "setup-result.json"
        configs = []
        for c in cases:
            cfg = c.run_config()
            if cfg not in configs:
                configs.append(cfg)
        with open(self.spec, "w", encoding="utf-8") as fh:
            json.dump({"configs": configs}, fh)
        self.sampler = sampler
        self.samples: list[float] = []
        self.scaled: list[float] = []

    def sample(self) -> None:
        self.result.unlink(missing_ok=True)
        cpus = child_cpus(len(self.samples))
        rc, _, _ = run_child(["setup", str(self.spec), str(self.result)],
                             cpus)
        got = _read_json(self.result) if rc == 0 else None
        if got is None:
            raise RuntimeError("set-up child failed")
        self.samples.append(got["seconds"])
        self.scaled.append(self.sampler.scaled(got["start"], got["end"],
                                               cpus))

    def medians(self) -> tuple[float, float]:
        """(scaled, unscaled) median set-up time."""
        while len(self.samples) < SETUP_MIN_SAMPLES:
            self.sample()
        return statistics.median(self.scaled), statistics.median(self.samples)


def cli_run(case, out: Path, turn: int = 0,
            ) -> tuple[int, bytes, tuple[float, float, tuple], Optional[dict]]:
    """One CLI call in a fresh interpreter: (exit code, report bytes,
    (start, end, CPUs), resource usage or None)."""
    result = WORK_DIR / "cli-result.json"
    for stale in (out, result):
        stale.unlink(missing_ok=True)
    cpus = child_cpus(turn, case.jobs)
    rc, start, end = run_child(["cli", str(result), "--",
                                *case.argv, "--out", str(out)], cpus)
    data = out.read_bytes() if out.exists() else b""
    return rc, data, (start, end, cpus), _read_json(result)


def jobs_invariance(case, gate, tally: Tally) -> None:
    """The workload's report bytes (the gate's first run) against a run
    at --jobs 1."""
    argv = list(case.argv)
    argv[argv.index("--jobs") + 1] = "1"
    serial = dataclasses.replace(case, argv=tuple(argv), jobs=1)
    rc, data, _, _ = cli_run(serial, WORK_DIR / "jobs-1.out")
    same = rc == 0 and data == gate.first_bytes.get(case.key)
    tally.add([] if same else [f"{case.key}: bytes differ between "
                               f"--jobs {case.jobs} and --jobs 1"])


def grid_workload(case, gate, seconds: float, tally: Tally,
                  setup: SetupProbe, timings: Timings) -> tuple[dict, dict]:
    """Closed loop of whole CLI runs, one fresh interpreter each; the
    run is the workload's one call."""
    rss = []
    out = WORK_DIR / "report.out"
    nbytes = 0
    start = time.perf_counter()
    while another_run_fits(start, timings.walls, seconds):
        setup.sample()
        rc, data, span, usage = cli_run(case, out, len(timings.walls))
        problems = gate.check(case, rc, data)
        if usage is None:
            problems.append("child wrote no resource usage")
        else:
            rss.append(_peak_rss_mb(usage, case.jobs))
        tally.add(problems)
        timings.run(*span)
        timings.call(case.key, *span)
        nbytes = len(data)
    if not rss:
        raise RuntimeError("no run completed")
    return ({"peak_rss_mb": statistics.median(rss)},
            {"report_bytes": nbytes, "runs": len(timings.walls),
             "call_samples": len(timings.walls)})


def registry_workload(cases, gate, seconds: float, tally: Tally,
                      setup: SetupProbe, timings: Timings
                      ) -> tuple[dict, dict]:
    """Closed loop of registry runs, each one child running every call."""
    run_dir = WORK_DIR / "registry"
    spec = WORK_DIR / "registry-spec.json"
    result = WORK_DIR / "registry-result.json"
    outs = [run_dir / f"call-{k}.out" for k in range(len(cases))]
    with open(spec, "w", encoding="utf-8") as fh:
        json.dump({"calls": [
            {"key": c.key, "argv": [*c.argv, "--out", str(o)]}
            for c, o in zip(cases, outs)]}, fh)
    rss = []
    nbytes = 0
    start = time.perf_counter()
    while another_run_fits(start, timings.walls, seconds):
        setup.sample()
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        result.unlink(missing_ok=True)
        cpus = child_cpus(len(timings.walls))
        rc, begun, ended = run_child(["registry", str(spec), str(result)],
                                     cpus)
        timings.run(begun, ended, cpus)
        got = _read_json(result) if rc == 0 else None
        if got is None or len(got["calls"]) != len(cases):
            for _ in cases:
                tally.add([f"registry child failed with exit code {rc}"])
            continue
        rss.append(_peak_rss_mb(got, 1))
        nbytes = 0
        for case, out, call in zip(cases, outs, got["calls"]):
            data = out.read_bytes() if out.exists() else b""
            nbytes += len(data)
            timings.call(case.key, call["start"], call["end"], cpus)
            tally.add(gate.check(case, call["rc"], data))
    if not rss:
        raise RuntimeError("no registry run completed")
    return ({"peak_rss_mb": statistics.median(rss)},
            {"report_bytes": nbytes, "runs": len(timings.walls),
             "call_samples": sum(map(len, timings.calls.values()))})


def untraced_workload(workload, cases, gate, seconds: float,
                      tally: Tally) -> tuple[dict, dict]:
    """The end-to-end metrics: timings scaled to the reference host
    speed; the unscaled figures go to the metadata."""
    import hostspeed
    with hostspeed.Sampler(CPUS) as sampler:
        setup = SetupProbe(cases, sampler)
        timings = Timings(sampler)
        if workload == "verify-registry":
            metrics, info = registry_workload(cases, gate, seconds, tally,
                                              setup, timings)
        else:
            metrics, info = grid_workload(cases[0], gate, seconds, tally,
                                          setup, timings)
        scaled, unscaled = timings.metrics(sum(c.points for c in cases))
        metrics.update(scaled)
        metrics["setup_s"], unscaled["setup_s"] = setup.medians()
        info["unscaled"] = unscaled
        info["host_kernel_ms"] = 1e3 * sampler.median_kernel_s()
        info["cpus"] = list(CPUS)
    return metrics, info


def traced_workload(workload, cases, gate, seconds: float, tally: Tally,
                    seed: int) -> tuple[dict, dict]:
    """Rounds of traced work while another round fits in ``seconds``;
    each metric is the median over rounds."""
    import spans
    tracer = spans.Tracer()
    rounds: list[dict] = []
    durations: list[float] = []
    start = time.perf_counter()
    while another_run_fits(start, durations, seconds):
        begun = time.perf_counter()
        rounds.append(spans.traced_round(
            cases, tracer, gate, WORK_DIR, f"round-{len(rounds)}", tally.add))
        durations.append(time.perf_counter() - begun)
    tracer.write(OUT_DIR / f"spans-{workload}-seed{seed}.json")
    merged = {name: statistics.median_low(r[name] for r in rounds)
              for name in rounds[0]}
    return merged, {"report_bytes": int(merged["report.report_bytes"]),
                    "rounds": len(rounds), "spans": len(tracer.spans)}


def git_commit() -> Optional[str]:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def src_lines() -> int:
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, encoding="utf-8") as fh:
            total += sum(1 for _ in fh)
    return total


def metadata(workload: str, seed: int, info: dict, tally: Tally) -> dict:
    import numpy
    return {
        "workload": workload,
        "seed": seed,
        "git_commit": git_commit(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "src_lines": src_lines(),
        **info,
        "failed_frac": tally.failed / max(1, tally.attempted),
        "benchmark_peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _grid_arg(text: str) -> tuple[int, int]:
    left, _, right = text.lower().partition("x")
    return int(left), int(right)


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--grid", type=_grid_arg, default=None,
                        help="override the workload grid (smoke test); "
                             "reference tables then apply as sets only")
    args = parser.parse_args(argv)

    if not (SRC / "minksurf" / "__init__.py").is_file():
        print(f"error: no minksurf sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        bench = json.load(fh)
    sys.path.insert(0, str(SRC))
    import workloads as wl
    if args.workload not in wl.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: "
              f"{', '.join(wl.WORKLOADS)}", file=sys.stderr)
        return 2

    cases = wl.build_cases(args.workload, args.seed, args.grid)
    gate = wl.Gate(args.workload, args.seed, args.grid is not None)
    tally = Tally()
    for missing in gate.expected_keys_missing(cases):
        tally.add([f"reference row {missing} was not called"])
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    WORK_DIR.mkdir(parents=True)
    try:
        if args.trace:
            metrics, info = traced_workload(args.workload, cases, gate,
                                            args.seconds, tally, args.seed)
            listed = bench["per_layer"]
        else:
            metrics, info = untraced_workload(args.workload, cases, gate,
                                              args.seconds, tally)
            listed = bench["end_to_end"]
        if args.workload == "analyze-e52-o4":
            jobs_invariance(cases[0], gate, tally)
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)

    for problem in tally.problems[:20]:
        print(f"gate: {problem}", file=sys.stderr)
    meta = metadata(args.workload, args.seed, info, tally)
    print(json.dumps({"metadata": meta}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in listed},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
