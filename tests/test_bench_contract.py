"""The benchmark harness under ``bench/`` reads the package through names a
refactor can break: ``RepAction.__init__`` (a build), ``RepAction.gradient``
and ``moment_and_gradient`` (wrapped by the tracer), ``RepAction.pi_stack``
(read for its size) and each module's ``__all__`` (the functions the tracer
wraps).  A break shows up there only as a failed benchmark run, so each
workload's tiny traced round runs here, and its records go through the
benchmark's own checks.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import momentflow

BENCH = Path(__file__).resolve().parents[1] / "bench"
# one thread and a fixed hash seed, as the benchmark runs its rounds
_ENV = {k: "1" for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                         "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
_ENV["PYTHONHASHSEED"] = "0"


@pytest.mark.parametrize("workload", ["enumerate", "label-query", "flow-critical",
                                      "flow-equivalence"])
def test_tiny_traced_round_passes_the_benchmark_checks(monkeypatch, workload):
    monkeypatch.syspath_prepend(str(BENCH))
    from checks import Checker
    from tracing import PER_LAYER

    proc = subprocess.run([sys.executable, str(BENCH / "round.py"), "--workload", workload,
                           "--seed", "1", "--spawned-at", "0", "--tiny", "--trace"],
                          env={**os.environ, **_ENV}, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert doc["records"]
    assert [rec["key"] for rec in doc["records"] if rec["err"] is not None] == []
    assert set(doc["layers"]) == {name for name, _ in PER_LAYER}
    checker = Checker(momentflow)
    verdicts = [(rec["key"], *checker.check(rec["kind"], rec["inp"], rec["out"], rec["err"]))
                for rec in doc["records"]]
    assert [v for v in verdicts if v[1] != "ok"] == []
    if workload == "flow-critical":
        # a flow restricted to its start's invariant coordinates is not a
        # new build, and the tracer's class wrappers still see its gradients
        flowed = {("brackets", rec["inp"]["n"]) if rec["kind"] == "cli-bracket-flow"
                  else (rec["inp"]["family"], rec["inp"]["n"]) for rec in doc["records"]}
        assert doc["layers"]["momentmap.rep_action.builds"] == len(flowed)
        assert doc["layers"]["flows.gradient_per_step"] >= 12
        # kn_label_via_flow seeds Wolfe with the flow's limit face, which
        # certifies on the Jordan representatives: no Fraction solve is left
        assert doc["layers"]["minnorm.solve_exact.calls"] == 0
