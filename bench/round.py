"""One round of a workload in a fresh process.

    python3 bench/round.py --workload NAME --seed N --spawned-at T [--trace]
                           [--setup-only] [--tiny] [--spans FILE]

Imports momentflow, builds the seeded task list (set-up), runs every task
once in order, each starting when the previous one returns, and prints one
JSON line: set-up time, round wall time, peak RSS and one record per task
(latency, error, output).  ``--spawned-at`` is the parent's
``time.perf_counter()`` just before it started this process; on Linux that
clock is system-wide, so set-up time includes interpreter start-up.
With ``--trace`` every public momentflow function is wrapped before set-up
and the record carries the per-layer metrics of the round.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--spans")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import momentflow as mf
    import momentflow.cli  # noqa: F401  (tasks call mf.cli.run)

    import workloads
    tracer = None
    if args.trace:
        from tracing import Tracer, layer_metrics
        tracer = Tracer()
        tracer.instrument(mf)

    tasks = workloads.build_tasks(mf, args.workload, args.seed, args.tiny)
    start = time.perf_counter()
    setup_s = start - args.spawned_at
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    timed = []
    for idx, task in enumerate(tasks):
        if tracer:
            tracer.task = idx
        t0 = time.perf_counter()
        try:
            result, err = task.call(), None
        except Exception as exc:  # a raising task is a failed task; the round goes on
            result, err = None, f"{type(exc).__name__}: {exc}"
        timed.append((task, result, err, time.perf_counter() - t0))
    wall_s = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    records = []
    for task, result, err, latency in timed:
        out = None
        if err is None:
            try:
                out = workloads.output_record(task, result)
            except Exception as exc:  # malformed result: report it as the task's error
                err = f"unreadable result: {type(exc).__name__}: {exc}"
        records.append({"key": task.key, "kind": task.kind, "inp": task.inp,
                        "lat": latency, "err": err, "out": out})
    doc = {"setup_s": setup_s, "wall_s": wall_s, "peak_rss_mb": peak_rss_mb,
           "records": records}
    if tracer:
        doc["layers"] = layer_metrics(tracer.spans)
        if args.spans:
            tracer.dump(args.spans)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
