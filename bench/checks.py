"""Output checks, run after the timed region on every distinct task output.

Each check returns ``(status, reason)``.  Status ``ok`` means the output
passed; ``failed`` means the task raised, exited non-zero, or reported a
negative verdict of its own (not converged, no match, not a derivation);
``wrong`` means the output contradicts what the benchmark re-derives here.
Both ``failed`` and ``wrong`` count as failed tasks; ``wrong`` also makes
the run incorrect.

Labels are re-derived exactly.  For a label eta with q = <eta, eta>, some
coordinate permutation of eta must pair with every state weight at >= q
(queried labels), and it must be the minimum-norm point of the hull of the
weights tight for it: ``min_norm_point_by_enumeration`` of those weights
when there are at most ``ORACLE_MAX_WEIGHTS`` of them, an exact barycentric
certificate otherwise.  The permutation and the carrying subset are found in
floating point (a bounded least-squares fit); everything that decides
the verdict is exact.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
from scipy.optimize import lsq_linear

import workloads

REFERENCE = Path(__file__).resolve().parent / "reference" / "labels.json"
_SUPPORT_FLOOR = 1e-9
ORACLE_MAX_WEIGHTS = 4      # the enumeration oracle visits 2^k subsets


def _dot(w, x) -> Fraction:
    return sum((a * b for a, b in zip(w, x)), Fraction(0))


def _hull_fit(points: np.ndarray, target: np.ndarray) -> tuple[np.ndarray, float]:
    """Weights lambda >= 0, rescaled to sum 1, of the least-squares fit of
    [points^T; 1...1] lambda to [target; 1], and its residual.  The residual
    is zero exactly when target is in the hull; for target 0 the rescaled
    weights give the hull's minimum-norm point whatever the row's weight,
    and a weight of 1 keeps the problem well conditioned."""
    a = np.vstack([points.T, np.ones(len(points))])
    b = np.append(target, 1.0)
    lam = lsq_linear(a, b, bounds=(0, np.inf), method="bvls").x
    return lam / lam.sum(), float(np.linalg.norm(a @ lam - b))


def _barycentric(points, target, guess) -> list[Fraction] | None:
    """An exact solution lambda of sum lambda_i p_i = target, sum lambda_i = 1,
    or None when there is none.  When the points are affinely dependent the
    free coordinates take the (exact binary) values of the float ``guess``,
    so a non-negative guess yields a non-negative exact solution near it."""
    rows = [[Fraction(p[d]) for p in points] + [Fraction(target[d])]
            for d in range(len(target))]
    rows.append([Fraction(1)] * len(points) + [Fraction(1)])
    pivots, r = [], 0
    for c in range(len(points)):
        piv = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        rows[r] = [x / rows[r][c] for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
    if any(row[-1] != 0 for row in rows[r:]):
        return None
    lam = [Fraction(float(g)) for g in guess]
    for i, c in enumerate(pivots):
        lam[c] = rows[i][-1] - sum((rows[i][f] * lam[f] for f in range(len(points))
                                    if f != c), Fraction(0))
    return lam


def _tight(weights, eta: tuple[Fraction, ...]) -> list:
    """Weights w with <w, eta> = <eta, eta>, in integer arithmetic: with
    eta = e / d for integers e, that is <w, e> d = <e, e>."""
    d = math.lcm(*(x.denominator for x in eta))
    e = [int(x * d) for x in eta]
    ee = sum(x * x for x in e)
    return [w for w in weights if sum(a * b for a, b in zip(w, e)) * d == ee]


def _carried(mf, tight, eta: tuple[Fraction, ...]) -> bool:
    """True when eta lies in the hull of ``tight`` (weights that all pair to
    <eta, eta> with it), so that eta is the minimum-norm point of that hull.
    A floating-point fit screens candidates; the verdict is exact: the
    enumeration oracle on small tight sets, and for larger ones (2^k
    subsets) an exact barycentric certificate on the subset the fit uses."""
    if not tight:
        return False
    lam, res = _hull_fit(np.array(tight, float), np.array([float(x) for x in eta]))
    if res > 1e-6:
        return False
    if len(tight) <= ORACLE_MAX_WEIGHTS:
        point, _ = mf.min_norm_point_by_enumeration(tight)
        return tuple(point) == tuple(eta)
    keep = np.flatnonzero(lam > _SUPPORT_FLOOR)
    exact = _barycentric([tight[i] for i in keep], eta, lam[keep])
    return exact is not None and all(x >= 0 for x in exact)


def rederive_queried(mf, state, eta_sorted: tuple[Fraction, ...]) -> bool:
    """eta_sorted is the Weyl-normalized minimum-norm point of conv(state)."""
    pts = np.array(state, float)
    lam, _ = _hull_fit(pts, np.zeros(pts.shape[1]))
    approx = pts.T @ lam
    eta = [Fraction(0)] * len(eta_sorted)
    for rank, coord in enumerate(np.argsort(-approx, kind="stable")):
        eta[coord] = eta_sorted[rank]
    eta = tuple(eta)
    q = _dot(eta, eta)
    if q == 0 or any(_dot(w, eta) < q for w in state):
        return False
    return _carried(mf, _tight(state, eta), eta)


def _distinct_permutations(values: tuple):
    """Distinct orderings of a multiset, generated lazily, starting with
    ``values`` itself when it is sorted descending."""
    counts = Counter(values)
    keys = sorted(counts, reverse=True)

    def extend(prefix):
        if len(prefix) == len(values):
            yield tuple(prefix)
            return
        for k in keys:
            if counts[k]:
                counts[k] -= 1
                yield from extend(prefix + [k])
                counts[k] += 1
    return extend([])


def rederive_enumerated(mf, weights, eta_sorted: tuple[Fraction, ...]) -> bool:
    """eta_sorted is the Weyl-normalized minimum-norm point of the hull of
    some subset of the weights."""
    return any(_carried(mf, _tight(weights, eta), eta)
               for eta in _distinct_permutations(eta_sorted))


def _eta(doc) -> tuple[Fraction, ...]:
    return tuple(Fraction(x) for x in doc)


def _parse(out: dict):
    if out["rc"] != 0:
        return None, ("failed", f"exit code {out['rc']}: {out['stderr'].strip()[:200]}")
    try:
        return json.loads(out["stdout"]), None
    except json.JSONDecodeError as exc:
        return None, ("wrong", f"stdout is not JSON: {exc}")


class Checker:
    """Checks task outputs; holds the reference label sets and the contexts
    used to recompute criticality residuals."""

    def __init__(self, mf):
        self.mf = mf
        self.reference = json.loads(REFERENCE.read_text())
        self._contexts: dict[int, object] = {}

    def check(self, kind: str, inp: dict, out, err: str | None):
        if err is not None:
            return "failed", f"raised {err}"
        return getattr(self, "_" + kind.replace("-", "_"))(inp, out)

    # -- enumeration -------------------------------------------------------

    def _cli_enumerate(self, inp, out):
        doc, bad = _parse(out)
        if bad:
            return bad
        fam, n = inp["family"], inp["n"]
        ref = self.reference.get(f"{fam}{n}")
        got = sorted(lab["eta"] for lab in doc["labels"])
        if ref is None:
            return "wrong", f"no reference for {fam}{n}"
        if got != sorted(ref["labels"]) or doc["zero_label"] != ref["zero_label"]:
            return "wrong", f"{fam}{n} label set differs from the reference"
        if doc["count"] != len(got):
            return "wrong", "count field disagrees with the label list"
        weights = sorted(set(workloads.family_weights(fam, n)))
        for eta in got:
            if not rederive_enumerated(self.mf, weights, _eta(eta)):
                return "wrong", f"label {eta} is not a minimum-norm point of a weight subset"
        if fam == "adjoint":
            found = {_eta(eta) for eta in got}
            for parts in workloads.partitions(n):
                if parts[0] > 1 and workloads.jordan_eta(parts) not in found:
                    return "wrong", f"Jordan label of {parts} missing from adjoint({n})"
        return "ok", ""

    def _torus_enumerate(self, inp, out):
        weights = [tuple(w) for w in inp["weights"]]
        for eta in out["labels"]:
            if not rederive_enumerated(self.mf, weights, _eta(eta)):
                return "wrong", f"label {eta} is not a minimum-norm point of a weight subset"
        lam, res = _hull_fit(np.array(weights, float), np.zeros(len(weights[0])))
        keep = np.flatnonzero(lam > _SUPPORT_FLOOR)
        exact = _barycentric([weights[i] for i in keep], (0,) * len(weights[0]), lam[keep])
        zero = res <= 1e-9 and exact is not None and all(x >= 0 for x in exact)
        if out["zero"] != zero:
            return "wrong", "zero_label disagrees with the hull of all weights"
        return "ok", ""

    # -- labels and strata -------------------------------------------------

    def _label_of(self, inp, eta_doc):
        if eta_doc is None:
            return "wrong", "an unstable vector was labelled semistable"
        state = [tuple(w) for w in inp["state"]]
        if not rederive_queried(self.mf, state, _eta(eta_doc)):
            return "wrong", f"label {eta_doc} is not the minimum-norm point of the state"
        return "ok", ""

    def _label(self, inp, out):
        return self._label_of(inp, out["eta"])

    def _cli_label(self, inp, out):
        doc, bad = _parse(out)
        if bad:
            return bad
        return self._label_of(inp, None if doc.get("semistable") else doc["eta"])

    def _grading_of(self, inp, eta_doc, q_doc, grading, in_v):
        eta = _eta(eta_doc)
        q = _dot(eta, eta)
        if Fraction(q_doc) != q:
            return "wrong", "q != <eta, eta>"
        expected = sorted([list(w), _dot(w, eta) - q] for w in inp["state"])
        got = sorted([list(w), Fraction(r)] for w, r in grading)
        if got != expected:
            return "wrong", "grading differs from <chi, eta> - q over the state"
        if in_v != all(r >= 0 for _, r in expected):
            return "wrong", "in_V_ge0 disagrees with the grading"
        return "ok", ""

    def _stratum(self, inp, out):
        return self._grading_of(inp, out["eta"], out["q"], out["grading"], out["in_V_ge0"])

    def _cli_stratum(self, inp, out):
        doc, bad = _parse(out)
        if bad:
            return bad
        grading = [(g["weight"], g["r"]) for g in doc["grading"]]
        return self._grading_of(inp, doc["eta"], doc["q"], grading, doc["in_V_ge0"])

    def _jordan(self, inp, out):
        if _eta(out["eta"]) != workloads.jordan_eta(inp["parts"]):
            return "wrong", "label differs from the closed block formula"
        if not (out["identity_ok"] and out["display_ok"]):
            return "failed", "identity_ok/display_ok false"
        return "ok", ""

    # -- flows -------------------------------------------------------------

    def _residual(self, family, n, coords) -> float:
        mf = self.mf
        ctx = self._contexts.setdefault(n, mf.build_context(n, "GL"))
        spec = mf.RepSpec(family, n)
        return mf.criticality_residual(ctx, spec, mf.rep_vector(spec, coords))

    def _limit_ok(self, inp, out):
        if not out["converged"]:
            return "failed", "flow did not converge"
        res = self._residual(inp["family"], inp["n"], out["limit"])
        if res > workloads.RESIDUAL_TOL * (1 + 1e-6):
            return "wrong", f"recomputed criticality residual {res:.3g} above tolerance"
        return "ok", ""

    def _kn(self, inp, out):
        if _eta(out["eta"]) != workloads.jordan_eta(inp["parts"]):
            return "wrong", "label differs from the closed block formula"
        status = self._limit_ok(inp, out)
        if status[0] != "ok":
            return status
        if not out["match"]:
            return "failed", "flow spectrum does not match the label"
        return "ok", ""

    def _gradient_flow(self, inp, out):
        return self._limit_ok(inp, out)

    def _equivalence(self, passed, dev_v, dev_s):
        if passed != (dev_v <= workloads.MATCH_TOL and dev_s <= workloads.MATCH_TOL):
            return "wrong", "passed disagrees with the reported deviations"
        if not passed:
            return "failed", f"flows disagree (v {dev_v:.3g}, S {dev_s:.3g})"
        return "ok", ""

    def _vfe(self, inp, out):
        return self._equivalence(out["passed"], out["max_dev_v"], out["max_dev_S"])

    def _cli_verify_flows(self, inp, out):
        doc, bad = _parse(out)
        if bad:
            return bad
        if doc["tol"] != workloads.MATCH_TOL:
            return "wrong", "verify-flows ran at another tolerance"
        return self._equivalence(doc["passed"], doc["max_dev_v"], doc["max_dev_S"])

    def _cli_bracket_flow(self, inp, out):
        doc, bad = _parse(out)
        if bad:
            return bad
        if not doc["flowed"] or doc["criticality_residual"] > workloads.RESIDUAL_TOL:
            return "failed", "chain bracket did not reach a critical direction"
        check = doc.get("critical_check")
        if check is None:
            return "wrong", "critical direction reached but no critical_check"
        if not check["is_derivation"]:
            return "failed", (f"is_derivation false (derivation residual "
                              f"{check['derivation_residual']:.3g})")
        if not check["positive"]:
            return "failed", "beta_plus not positive"
        return "ok", ""
