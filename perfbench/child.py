"""Child process of the benchmark: one fresh interpreter per use.

    python3 perfbench/child.py cli RESULT -- ARGV...
        runs ``minksurf.cli.main(ARGV)`` once and exits with its code.
    python3 perfbench/child.py registry SPEC RESULT
        runs ``minksurf.cli.main`` for every call in SPEC in this one
        process and records each call's exit code, wall time and its
        start and end on ``time.perf_counter``.
    python3 perfbench/child.py setup SPEC RESULT
        times ``import minksurf`` plus ``report.resolve_surface`` of
        every run config in SPEC, with the start and end of that interval.

RESULT receives a JSON object that includes the peak resident set of
this process and of its largest reaped child (a pool worker), in KiB.
The caller sets PYTHONPATH to the checkout's ``src``, and may set
PERFBENCH_CPUS to a comma-separated list of CPUs to pin this process
(and any pool workers it starts) to before it does anything else.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time


def _rusage() -> dict:
    return {
        "maxrss_self_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "maxrss_children_kb":
            resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    }


def _write(path: str, obj: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)


def run_cli(result_path: str, argv: list[str]) -> int:
    from minksurf import cli
    rc = cli.main(argv)
    _write(result_path, {"rc": rc, **_rusage()})
    return rc


def run_registry(spec_path: str, result_path: str) -> int:
    from minksurf import cli
    with open(spec_path, encoding="utf-8") as fh:
        calls = json.load(fh)["calls"]
    done = []
    for call in calls:
        start = time.perf_counter()
        rc = cli.main(call["argv"])
        end = time.perf_counter()
        done.append({"key": call["key"], "rc": rc, "start": start,
                     "end": end, "seconds": end - start})
    _write(result_path, {"calls": done, **_rusage()})
    return 0


def run_setup(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        configs = json.load(fh)["configs"]
    start = time.perf_counter()
    import minksurf  # noqa: F401  (the import is what is timed)
    from minksurf import report
    for cfg in configs:
        cfg["grid"] = tuple(cfg["grid"])
        if cfg["domain"] is not None:
            cfg["domain"] = tuple(cfg["domain"])
        report.resolve_surface(report.RunConfig(**cfg))
    end = time.perf_counter()
    _write(result_path, {"start": start, "end": end, "seconds": end - start,
                         **_rusage()})
    return 0


def main(argv: list[str]) -> int:
    cpus = os.environ.get("PERFBENCH_CPUS")
    if cpus:
        os.sched_setaffinity(0, {int(c) for c in cpus.split(",")})
    mode = argv[0] if argv else ""
    if mode == "cli" and len(argv) >= 3 and argv[2] == "--":
        return run_cli(argv[1], argv[3:])
    if mode == "registry" and len(argv) == 3:
        return run_registry(argv[1], argv[2])
    if mode == "setup" and len(argv) == 3:
        return run_setup(argv[1], argv[2])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
