"""momentflow benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from the repository root.  Workloads: enumerate, label-query,
flow-critical, flow-equivalence (see ``workloads.py`` and BENCHMARK.json).

A run repeats rounds of the workload's fixed task set, each round in a fresh
process (``round.py``), closed loop and single threaded, until the next round
would end after ``--seconds``; it always measures at least two rounds.  With
``--trace 0`` a few set-up-only processes add set-up samples, and the run
reports the end-to-end metrics.  With ``--trace 1`` plain and traced rounds
alternate, and the run reports the per-layer metrics of the traced rounds
plus ``trace.overhead_frac`` (traced over plain round wall time, minus one).

Every distinct task output is checked after all rounds (``checks.py``).
The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it carry the run's context
(commit, nproc, Python and numpy versions) and failure details, which are
also written to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

# one BLAS/OpenMP thread, set before numpy is imported here and in the round
# processes; a fixed hash seed makes set iteration order, and so the work, repeat
BENCH_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                              "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
BENCH_ENV["PYTHONHASHSEED"] = "0"
os.environ.update(BENCH_ENV)

MIN_ROUNDS = 2
EXTRA_SETUPS = 3
ROUND_TIMEOUT_S = 170
TAIL_LADDER = (99.9, 99.0, 90.0, 50.0)

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("task_p50_ms", "ms"),
              ("task_tail_ms", "ms"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"))


class RoundError(RuntimeError):
    pass


def spawn(args, *, trace=False, setup_only=False, spans=None) -> dict:
    argv = [sys.executable, str(BENCH / "round.py"), "--workload", args.workload,
            "--seed", str(args.seed)]
    argv += ["--trace"] * trace + ["--setup-only"] * setup_only + ["--tiny"] * args.tiny
    argv += ["--spans", str(spans)] if spans else []
    spawned_at = time.perf_counter()
    proc = subprocess.run(argv + ["--spawned-at", repr(spawned_at)], cwd=ROOT,
                          capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        doc = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
    except json.JSONDecodeError:
        doc = None
    if doc is None:
        raise RoundError(f"round process exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    doc["elapsed_s"] = time.perf_counter() - spawned_at
    return doc


def measure(args) -> tuple[list[dict], list[dict], list[float]]:
    """Plain rounds, traced rounds and set-up samples of one run."""
    start = time.perf_counter()
    plain, traced, setups = [], [], []
    if not args.trace:
        setups = [spawn(args, setup_only=True)["setup_s"] for _ in range(EXTRA_SETUPS)]
    longest = 0.0
    while True:
        want_trace = bool(args.trace) and len(traced) < len(plain)
        spans = OUT / f"spans-{args.workload}.csv.gz" if want_trace else None
        doc = spawn(args, trace=want_trace, spans=spans)
        (traced if want_trace else plain).append(doc)
        if not want_trace:
            setups.append(doc["setup_s"])
        longest = max(longest, doc["elapsed_s"])
        enough = traced if args.trace else len(plain) >= MIN_ROUNDS
        if enough and time.perf_counter() - start + longest > args.seconds:
            return plain, traced, setups


def check_rounds(rounds: list[dict]) -> tuple[Counter, Counter]:
    """Status count over all task records, and the failure reasons.  Each
    distinct (task, output) pair is checked once."""
    sys.path.insert(0, str(ROOT / "src"))
    import momentflow as mf
    from checks import Checker
    checker = Checker(mf)
    verdicts: dict[str, tuple[str, str]] = {}
    statuses, reasons = Counter(), Counter()
    for doc in rounds:
        for rec in doc["records"]:
            key = json.dumps([rec["key"], rec["out"], rec["err"]], sort_keys=True)
            if key not in verdicts:
                verdicts[key] = checker.check(rec["kind"], rec["inp"], rec["out"], rec["err"])
            status, reason = verdicts[key]
            statuses[status] += 1
            if status != "ok":
                reasons[f"{rec['key']}: {status}: {reason}"] += 1
    return statuses, reasons


def tail_level(samples_per_round: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it in the
    guaranteed minimum of rounds (p50 when even that has fewer)."""
    n = samples_per_round * MIN_ROUNDS
    return next((p for p in TAIL_LADDER if n * (1 - p / 100) >= 10), 50.0)


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(plain, setups, statuses) -> tuple[dict, dict]:
    lat = [rec["lat"] for doc in plain for rec in doc["records"]]
    level = tail_level(len(plain[0]["records"]))
    attempted = sum(statuses.values())
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(doc["wall_s"] for doc in plain),
        "task_p50_ms": 1e3 * percentile(lat, 50.0),
        "task_tail_ms": 1e3 * percentile(lat, level),
        "peak_rss_mb": statistics.median(doc["peak_rss_mb"] for doc in plain),
        "ok_frac": statuses["ok"] / attempted,
    }
    info = {"task_tail_percentile": level, "task_samples": len(lat),
            "tasks_per_round": len(plain[0]["records"]),
            "failed_frac": (attempted - statuses["ok"]) / attempted,
            "setup_samples": len(setups)}
    return values, info


def per_layer(plain, traced) -> tuple[dict, dict]:
    from tracing import PER_LAYER
    layers = [doc["layers"] for doc in traced]
    values = {}
    for name, unit in PER_LAYER:
        samples = [lay[name] for lay in layers]
        values[name] = samples[0] if unit == "count" else statistics.median(samples)
    values["trace.overhead_frac"] = (statistics.median(d["wall_s"] for d in traced)
                                     / statistics.median(d["wall_s"] for d in plain) - 1)
    unsteady = sorted(name for name, unit in PER_LAYER if unit == "count"
                      and len({lay[name] for lay in layers}) > 1)
    return values, {"traced_rounds": len(traced), "counts_differ_between_rounds": unsteady}


def units() -> dict:
    from tracing import PER_LAYER
    return dict(END_TO_END + PER_LAYER + (("trace.overhead_frac", "ratio"),))


def run_context() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "momentflow").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy
    return {"commit": commit, "src_sha256": digest.hexdigest(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny inputs, for the smoke test")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {', '.join(WORKLOADS)}")
    if not (ROOT / "src" / "momentflow" / "__init__.py").is_file():
        print(f"error: no momentflow sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)

    try:
        plain, traced, setups = measure(args)
    except (RoundError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    checked_at = time.perf_counter()
    statuses, reasons = check_rounds(plain + traced)
    check_s = time.perf_counter() - checked_at
    if args.trace:
        values, info = per_layer(plain, traced)
    else:
        values, info = end_to_end(plain, setups, statuses)
    info.update(workload=args.workload, seed=args.seed, rounds=len(plain) + len(traced),
                check_s=check_s,
                statuses=dict(statuses), failures=dict(reasons))
    unit = units()
    result = {"correct": statuses["wrong"] == 0,
              "attempted": sum(statuses.values()),
              "failed": statuses["failed"] + statuses["wrong"],
              "metrics": {k: {"value": v, "unit": unit[k]} for k, v in values.items()}}
    context = run_context()
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({"context": context, "info": info, "result": result}, indent=1))
    print(json.dumps({"context": context}))
    print(json.dumps({"info": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
