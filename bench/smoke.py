"""Smoke test of the benchmark itself.

    python3 bench/smoke.py

Runs every workload of BENCHMARK.json at a tiny size, untraced and traced,
and checks that the last output line has the required keys and every
metric of BENCHMARK.json with its unit.  It then feeds the checks one
deliberately wrong label and verifies that it is counted as a failed task
and makes the run incorrect.  Exits non-zero on the first problem.
"""

from __future__ import annotations

import argparse
import json
import math
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[1]


def check_metrics(workload: str, trace: int, expected: list[dict]) -> None:
    proc = subprocess.run([sys.executable, str(run.BENCH / "run.py"), "--workload", workload,
                           "--seed", "1", "--seconds", "1", "--trace", str(trace), "--tiny"],
                          cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    if set(last) != {"correct", "attempted", "failed", "metrics"} or last["attempted"] < 1:
        sys.exit(f"{workload} trace={trace}: malformed result line {last}")
    got = {k: (v["value"], v["unit"]) for k, v in last["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    if set(got) != set(want):
        sys.exit(f"{workload} trace={trace}: metrics {sorted(set(got) ^ set(want))} "
                 "missing or unexpected")
    for name, (value, unit) in got.items():
        if unit != want[name] or not isinstance(value, (int, float)) or not math.isfinite(value):
            sys.exit(f"{workload} trace={trace}: bad metric {name} = {value} {unit}")
    print(f"ok {workload} trace={trace}: {len(got)} metrics, "
          f"{last['failed']}/{last['attempted']} failed")


def check_wrong_label() -> None:
    args = argparse.Namespace(workload="label-query", seed=1, tiny=True)
    doc = run.spawn(args)
    statuses, _ = run.check_rounds([doc])
    if statuses["wrong"]:
        sys.exit(f"tiny label-query round already has wrong outputs: {statuses}")
    rec = next(r for r in doc["records"] if r["kind"] == "label")
    rec["out"]["eta"] = rec["out"]["eta"][::-1]     # no longer Weyl-normalized: wrong
    statuses, reasons = run.check_rounds([doc])
    _, info = run.end_to_end([doc], [doc["setup_s"]], statuses)
    if statuses["wrong"] != 1 or info["failed_frac"] != 1 / len(doc["records"]):
        sys.exit(f"a wrong label was not counted: {statuses} {info}")
    print(f"ok wrong label counted: failed_frac {info['failed_frac']:.4f}, {list(reasons)[0]}")


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for workload in (w["name"] for w in spec["workloads"]):
        check_metrics(workload, 0, spec["end_to_end"])
        check_metrics(workload, 1, spec["per_layer"])
    check_wrong_label()


if __name__ == "__main__":
    main()
