"""Seeded inputs and fixed task lists of the four benchmark workloads.

A *round* is one pass over a workload's fixed task set.  Every input is
generated here from the seed; momentflow only ever sees the generated
vectors, weight lists and argv lists.  Each task is one public API call or
one ``momentflow.cli.run(argv)`` with stdout captured, timed on its own.

Besides the timed call, a task carries ``inp``, a JSON description of its
input that the output checks in ``checks.py`` use to re-derive the answer
independently of the call that produced it.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable

import numpy as np

WORKLOADS = ("enumerate", "label-query", "flow-critical", "flow-equivalence")

RESIDUAL_TOL = 1e-9     # FlowParams/CLI default; flow limits are checked against it
MATCH_TOL = 1e-6        # verify_flow_equivalence default
VFE_T = 5.0

# enumerate: the classical families, then eight torus modules, all images of
# one fixed base module (n = 4, k = 8) under seeded signed coordinate
# permutations.  Those are isometries of the weight lattice, so every image
# takes the same work: the seed changes the inputs, not their cost, and the
# median task is one of these sixteen equal-cost runs per two rounds.
ENUM_FAMILIES = (("adjoint", 4), ("lambda2", 5), ("adjoint", 3), ("lambda2", 4),
                 ("brackets", 3), ("standard", 4), ("dual", 4))
ENUM_TORUS_SHAPE = (4, 8)       # (n, distinct weights k) of the base module
ENUM_TORUS_IMAGES = 8
TINY_ENUM_FAMILIES = (("adjoint", 3), ("standard", 3), ("brackets", 3))
TINY_ENUM_TORUS_SHAPE = (3, 6)

QUERY_COUNT = 300
JORDAN_CATALOG_N = (8, 9, 10)

CHAIN_N = (6, 7)
KN_PARTITIONS_7_8 = {7: ((7,), (6, 1), (5, 2), (4, 3)),
                     8: ((8,), (7, 1), (6, 2), (5, 3), (4, 4))}   # n = 6: all of them
RANDOM_FLOW_N = (5, 5, 6, 6)
BASE_SEED = 20240627

VFE_FAMILIES = (("adjoint", 3), ("adjoint", 4), ("standard", 4), ("lambda2", 4),
                ("brackets", 3))
VFE_PER_FAMILY = 2


@dataclass
class Task:
    key: str
    kind: str
    call: Callable[[], Any]
    inp: dict


def cli_call(mf, argv: list[str]) -> Callable[[], dict]:
    """A task body running ``momentflow.cli.run(argv)`` with output captured."""
    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = mf.cli.run(argv)
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    return call


# ---------------------------------------------------------------------------
# weights and states, computed here rather than by momentflow


def family_weights(family: str, n: int) -> list[tuple[int, ...]]:
    """Torus weight of each coordinate, in momentflow's coordinate order."""
    def e(*terms):
        w = [0] * n
        for sign, k in terms:
            w[k] += sign
        return tuple(w)
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if family == "standard":
        return [e((1, i)) for i in range(n)]
    if family == "dual":
        return [e((-1, i)) for i in range(n)]
    if family == "adjoint":
        return [e((1, i), (-1, j)) for i in range(n) for j in range(n)]
    if family == "lambda2":
        return [e((1, i), (1, j)) for i, j in pairs]
    if family == "brackets":
        return [e((1, l), (-1, i), (-1, j)) for i, j in pairs for l in range(n)]
    raise ValueError(family)


def state_of_support(family: str, n: int, support) -> list[tuple[int, ...]]:
    ws = family_weights(family, n)
    return sorted({ws[k] for k in support})


def jordan_eta(parts) -> tuple[Fraction, ...]:
    """Closed-form label of a Jordan partition: the block ladder divided by
    its squared norm sum (n_j - 1) n_j (n_j + 1) / 12, sorted descending."""
    ladder = [Fraction(nj - 1, 2) - k for nj in parts for k in range(nj)]
    q_ladder = sum(Fraction((nj - 1) * nj * (nj + 1), 12) for nj in parts)
    return tuple(sorted((x / q_ladder for x in ladder), reverse=True))


def jordan_support(parts) -> list[int]:
    """Adjoint coordinates of the superdiagonal ones of a Jordan matrix."""
    n, out, start = sum(parts), [], 0
    for nj in parts:
        out += [(start + k) * n + start + k + 1 for k in range(nj - 1)]
        start += nj
    return out


def partitions(n: int, cap: int | None = None):
    cap = n if cap is None else cap
    if n == 0:
        yield ()
        return
    for first in range(min(cap, n), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest


# ---------------------------------------------------------------------------
# seeded generators


def _random_torus_module(rng, n: int, k: int) -> list[list[int]]:
    seen: set[tuple[int, ...]] = set()
    while len(seen) < k:
        w = tuple(int(x) for x in rng.integers(-2, 3, size=n))
        if any(w):
            seen.add(w)
    return [list(w) for w in sorted(seen)]


def _signed_magnitudes(rng, m: int) -> np.ndarray:
    return rng.uniform(0.5, 2.0, m) * rng.choice([-1.0, 1.0], m)


def _sparse_unstable(rng, family: str, n: int):
    """A sparse vector whose support lies in an open half-space of weights,
    so it is unstable: Borel (upper-triangular) support for adjoint, a
    random generic half-space for brackets, any support for lambda2."""
    ws = family_weights(family, n)
    if family == "adjoint":
        allowed = [i * n + j for i in range(n) for j in range(i + 1, n)]
        m = int(rng.integers(n, 2 * n + 1))
    elif family == "brackets":
        allowed = []
        while len(allowed) < 10:    # every weight sums to -1, so some half-spaces are empty
            eta0 = rng.normal(size=n)
            allowed = [k for k, w in enumerate(ws) if float(np.dot(w, eta0)) > 1e-9]
        m = int(rng.integers(10, 41))
    else:
        allowed = list(range(len(ws)))
        m = int(rng.integers(5, 13))
    support = sorted(int(k) for k in rng.choice(allowed, size=min(m, len(allowed)),
                                                replace=False))
    coords = np.zeros(len(ws))
    coords[support] = _signed_magnitudes(rng, len(support))
    return support, coords


def _orthogonal(rng, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def _base_rng(workload: str):
    """Generator of a workload's fixed base problems.  The seeded inputs of
    enumerate's torus modules and of the flows are isometric images of
    these (see the constants above and ``_flow_equivalence_tasks``), so the
    seed changes the inputs but not the work they take."""
    return np.random.default_rng([BASE_SEED, WORKLOADS.index(workload)])


def _floats(a) -> list[float]:
    return [float(x) for x in np.asarray(a).reshape(-1)]


# ---------------------------------------------------------------------------
# task lists


def _enumerate_tasks(mf, rng, tiny: bool) -> list[Task]:
    tasks = []
    for fam, n in (TINY_ENUM_FAMILIES if tiny else ENUM_FAMILIES):
        tasks.append(Task(f"cli-enum:{fam}{n}", "cli-enumerate",
                          cli_call(mf, ["labels-enumerate", "--family", fam, "--n", str(n)]),
                          {"family": fam, "n": n}))
    n, k = TINY_ENUM_TORUS_SHAPE if tiny else ENUM_TORUS_SHAPE
    base = _random_torus_module(_base_rng("enumerate"), n, k)
    for idx in range(1 if tiny else ENUM_TORUS_IMAGES):
        perm, signs = rng.permutation(n), rng.choice([-1, 1], n)
        weights = sorted([int(signs[i]) * w[perm[i]] for i in range(n)] for w in base)
        spec = mf.torus_weights(weights)
        tasks.append(Task(f"torus-enum:{idx}", "torus-enumerate",
                          lambda spec=spec: mf.enumerate_labels(spec),
                          {"weights": weights}))
    return tasks


def _label_query_tasks(mf, rng, tiny: bool) -> list[Task]:
    tasks = []
    slots = ("adjoint", "brackets", "adjoint", "brackets", "lambda2")
    count = 10 if tiny else QUERY_COUNT
    for i in range(count):
        fam = slots[(i + i // 10) % 5]
        if tiny:
            n = 4
        else:
            n = {"adjoint": 6 + (i // 5) % 5, "brackets": 5 + (i // 5) % 3,
                 "lambda2": 6}[fam]
        support, coords = _sparse_unstable(rng, fam, n)
        inp = {"family": fam, "n": n,
               "state": [list(w) for w in state_of_support(fam, n, support)]}
        if i % 10 == 9:
            argv = ["--family", fam, "--n", str(n), "--vector", json.dumps(_floats(coords))]
            label_call = cli_call(mf, ["label"] + argv)
            slot: dict = {}

            def label_task(call=label_call, slot=slot):
                slot["out"] = call()
                return slot["out"]

            def stratum_task(argv=argv, slot=slot):
                return cli_call(mf, ["stratum"] + argv + ["--label", slot["out"]["stdout"]])()

            tasks.append(Task(f"q{i}:cli-label", "cli-label", label_task, inp))
            tasks.append(Task(f"q{i}:cli-stratum", "cli-stratum", stratum_task, inp))
        else:
            v = mf.rep_vector(mf.RepSpec(fam, n), coords)
            slot = {}

            def label_task(v=v, slot=slot):
                slot["label"] = mf.optimal_class(v.spec, v)
                return slot["label"]

            def stratum_task(v=v, slot=slot):
                return slot["label"], mf.stratum_membership(v.spec, v, slot["label"])

            tasks.append(Task(f"q{i}:label", "label", label_task, inp))
            tasks.append(Task(f"q{i}:stratum", "stratum", stratum_task, inp))
    for n in ((4,) if tiny else JORDAN_CATALOG_N):
        for parts in partitions(n):
            if parts[0] > 1:
                p = mf.Partition(parts)
                tasks.append(Task(f"jordan:{parts}", "jordan",
                                  lambda p=p: mf.jordan_label(p), {"parts": list(parts)}))
    return tasks


def _flow_critical_tasks(mf, rng, tiny: bool) -> list[Task]:
    tasks = []
    for n in ((5,) if tiny else CHAIN_N):
        tasks.append(Task(f"cli-chain{n}", "cli-bracket-flow",
                          cli_call(mf, ["bracket", "--preset", "chain", "--n", str(n), "--flow"]),
                          {"n": n}))
    if tiny:
        kn_partitions = {4: ((4,), (2, 2))}
    else:
        kn_partitions = {6: [p for p in partitions(6) if p[0] > 1], **KN_PARTITIONS_7_8}
    for n, plist in kn_partitions.items():
        ctx = mf.build_context(n, "GL")
        for parts in plist:
            # a diagonal conjugate of the Jordan matrix: same support, same
            # label, so the diagonal torus stays optimal for it
            support = jordan_support(parts)
            coords = np.zeros(n * n)
            coords[support] = rng.uniform(0.5, 2.0, len(support))
            v = mf.rep_vector(mf.adjoint(n), coords)
            tasks.append(Task(f"kn:{parts}", "kn",
                              lambda ctx=ctx, v=v: mf.kn_label_via_flow(ctx, v.spec, v),
                              {"parts": list(parts), "family": "adjoint", "n": n}))
    contexts = {}
    base = _base_rng("flow-critical")
    for idx, n in enumerate((4,) if tiny else RANDOM_FLOW_N):
        ctx = contexts.setdefault(n, mf.build_context(n, "GL"))
        spec = mf.brackets(n)
        v = mf.apply_group(spec, _orthogonal(rng, n),
                           mf.rep_vector(spec, base.normal(size=spec.dim)))
        tasks.append(Task(f"gflow:{idx}", "gradient-flow",
                          lambda ctx=ctx, v=v: mf.gradient_flow(ctx, v.spec, v),
                          {"family": "brackets", "n": n}))
    return tasks


def _flow_equivalence_tasks(mf, rng, tiny: bool) -> list[Task]:
    tasks = []
    families = (("adjoint", 2), ("standard", 2)) if tiny else VFE_FAMILIES
    t_max = 1.0 if tiny else VFE_T
    contexts = {}
    base = _base_rng("flow-equivalence")
    for rep in range(VFE_PER_FAMILY):
        for fam, n in families:
            spec = mf.RepSpec(fam, n)
            # vbar = rho(k2) v_base and h0 = k1 h_base k2^T: every flow is an
            # orthogonal image of the base problem's
            h_base = (_orthogonal(base, n) @ np.diag(np.linspace(0.5, 2.0, n))
                      @ _orthogonal(base, n))
            v_base = mf.rep_vector(spec, base.normal(size=spec.dim))
            k1, k2 = _orthogonal(rng, n), _orthogonal(rng, n)
            vbar = mf.apply_group(spec, k2, v_base).coords
            h0 = k1 @ h_base @ k2.T
            key = f"vfe:{fam}{n}:{rep}"
            inp = {"family": fam, "n": n}
            if rep == 0 and fam == families[0][0]:
                argv = ["verify-flows", "--family", fam, "--n", str(n),
                        "--vector", json.dumps(_floats(vbar)),
                        "--h0", json.dumps([_floats(row) for row in h0]),
                        "--t-max", repr(t_max)]
                tasks.append(Task(key, "cli-verify-flows", cli_call(mf, argv), inp))
                continue
            ctx = contexts.setdefault(n, mf.build_context(n, "GL"))
            v = mf.rep_vector(spec, vbar)
            tasks.append(Task(key, "vfe",
                              lambda ctx=ctx, v=v, h0=h0: mf.verify_flow_equivalence(
                                  ctx, v.spec, v, h0, t_max),
                              inp))
    return tasks


_BUILDERS = {"enumerate": _enumerate_tasks, "label-query": _label_query_tasks,
             "flow-critical": _flow_critical_tasks,
             "flow-equivalence": _flow_equivalence_tasks}


def build_tasks(mf, workload: str, seed: int, tiny: bool = False) -> list[Task]:
    """The workload's task list for ``seed``; contexts that API tasks share
    are built here, so their cost is part of set-up."""
    rng = np.random.default_rng([seed, WORKLOADS.index(workload)])
    return _BUILDERS[workload](mf, rng, tiny)


# ---------------------------------------------------------------------------
# outputs, converted after the timed region


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _eta(label) -> list[str] | None:
    return None if label is None else [_rat(x) for x in label.eta]


def output_record(task: Task, result) -> dict:
    """JSON form of a task result, read by ``checks.Checker.check``."""
    kind = task.kind
    if kind.startswith("cli-"):
        return result
    if kind == "torus-enumerate":
        return {"labels": [_eta(lab) for lab in result.labels], "zero": result.zero_label}
    if kind == "label":
        return {"eta": _eta(result)}
    if kind == "stratum":
        label, report = result
        return {"eta": _eta(label), "q": _rat(report.q),
                "grading": sorted([list(w), _rat(r)] for w, r in report.grading.items()),
                "in_V_ge0": report.in_V_ge0}
    if kind == "jordan":
        return {"eta": _eta(result.label), "identity_ok": result.identity_ok,
                "display_ok": result.display_ok}
    if kind == "kn":
        return {"match": result.match, "eta": _eta(result.hesselink),
                "converged": result.flow.converged,
                "limit": _floats(result.flow.limit.coords)}
    if kind == "gradient-flow":
        return {"converged": result.converged, "limit": _floats(result.limit.coords)}
    if kind == "vfe":
        return {"passed": result.passed, "max_dev_v": result.max_dev_v,
                "max_dev_S": result.max_dev_S}
    raise ValueError(kind)
