"""Record the reference tables the benchmark gates against.

    PYTHONPATH=src python3 perfbench/record_reference.py

The tables were recorded once, at the default seed and grids, from the
commit that introduced the benchmark.  They are the expected answers: a
change that makes the benchmark disagree with them is wrong unless it
means to change those answers, and then the change says so.  The script
therefore refuses to overwrite an existing table.
"""

from __future__ import annotations

import csv
import io
import json
import sys
import tempfile
from pathlib import Path

from minksurf import cli

import workloads as wl


def _call(case: wl.Case, out: Path) -> tuple[int, bytes]:
    rc = cli.main([*case.argv, "--out", str(out)])
    return rc, out.read_bytes()


def verify_table(tmp: Path) -> dict:
    calls = {}
    for case in wl.build_cases("verify-registry", wl.DEFAULT_SEED):
        rc, data = _call(case, tmp / "verify.json")
        verdict = json.loads(data)["verdict"]
        calls[case.key] = [rc, verdict["premise_met"], verdict["consistent"]]
    return {"grid": "4x4", "columns": ["exit_code", "premise_met",
                                       "consistent"], "calls": calls}


def classify_table(tmp: Path) -> dict:
    (case,) = wl.build_cases("classify-graph-o3", wl.DEFAULT_SEED)
    rc, data = _call(case, tmp / "classify.csv")
    if rc != 0:
        raise SystemExit(f"classify exited with {rc}")
    rows = list(csv.reader(io.StringIO(data.decode("utf-8"))))[1:]
    return {"grid": "32x32", "labels": [r[4] for r in rows]}


def main() -> int:
    targets = ((wl.VERIFY_REFERENCE, verify_table),
               (wl.CLASSIFY_REFERENCE, classify_table))
    existing = [str(path) for path, _ in targets if path.exists()]
    if existing:
        print(f"refusing to overwrite {', '.join(existing)}", file=sys.stderr)
        return 1
    wl.REFERENCE_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=wl.REFERENCE_DIR) as tmp:
        for path, make in targets:
            table = make(Path(tmp))
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(table, fh, indent=1, sort_keys=True)
                fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
