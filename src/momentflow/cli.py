"""Deterministic command-line front end.

Every subcommand returns a single JSON document (or a CSV table for
trajectories), and ``run`` alone writes it to stdout.  Exit codes: 0
success, 1 computation error, 2 usage error.  Rationals are serialized as
"p/q" strings; identical argv + seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import fields, replace
from fractions import Fraction

import numpy as np

from . import bracket as bracketmod
from . import hesselink, jordan
from .cartan import build_context
from .flows import (FlowError, FlowParams, flow_trajectory_csv, gradient_flow,
                    verify_flow_equivalence)
from .hesselink import _fraction_str, _parse_rational
from .momentmap import closed_form_moment, criticality_residual, moment
from .reps import (TORUS_WEIGHTS, RepSpec, canonical_family, rep_vector,
                   torus_weights, vector_from_json, weights_of)

__all__ = ["main", "run"]


# config-file keys and their value types; a flag of the same name overrides
# the file's value
_CONFIG_KEYS = {"residual_tol": float, "match_tol": float, "t_max": float,
                "sample_stride": int, "max_steps": int, "seed": int}
_FLOW_FIELDS = {f.name for f in fields(FlowParams)}


class UsageError(Exception):
    pass


def _load_config(path: str) -> dict:
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.strip()!r}; expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in _CONFIG_KEYS:
                raise UsageError(f"unknown config key {key!r}")
            try:
                settings[key] = _CONFIG_KEYS[key](value)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc
    return settings


def _settings(args) -> dict:
    """The --config file's entries, overridden by the flags given."""
    settings = _load_config(args.config) if args.config else {}
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            settings[key] = value
    return settings


def _flow_params(settings: dict) -> FlowParams:
    return FlowParams(**{k: v for k, v in settings.items() if k in _FLOW_FIELDS})


def _maybe_file(text: str):
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            return json.load(fh)
    return json.loads(text)


def _resolve_spec(args) -> RepSpec:
    if args.weights is not None:
        return torus_weights(_maybe_file(args.weights))
    if args.family is None or args.n is None:
        raise UsageError("--family and --n are required (or --weights for a torus family)")
    family = canonical_family(args.family)
    if family == TORUS_WEIGHTS:
        raise UsageError("TorusWeights needs --weights")
    return RepSpec(family, args.n)


def _resolve_vector(args):
    if args.vector is None:
        raise UsageError("--vector is required")
    doc = _maybe_file(args.vector)
    if isinstance(doc, dict):
        v = vector_from_json(doc)
        if args.family is not None and canonical_family(args.family) != v.spec.family:
            raise UsageError("--family contradicts the vector document")
        if args.n is not None and args.n != v.spec.n:
            raise UsageError("--n contradicts the vector document")
        if args.weights is not None and torus_weights(_maybe_file(args.weights)) != v.spec:
            raise UsageError("--weights contradicts the vector document")
        return v
    return rep_vector(_resolve_spec(args), doc)


def _floats(a) -> list:
    return [float(x) for x in np.asarray(a).reshape(-1)]


def _matrix(a) -> list:
    return [[float(x) for x in row] for row in np.asarray(a)]


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rep_info(args) -> dict:
    spec = _resolve_spec(args)
    return {
        "family": spec.family,
        "n": spec.n,
        "dim": spec.dim,
        "weights": [list(w) for w in weights_of(spec)],
        "coordinates": {
            "Standard": "unit vectors e_1..e_n",
            "Dual": "dual basis functionals",
            "Adjoint": "elementary matrices E_ij, row-major",
            "Lambda2": "E_ij - E_ji for i < j, lexicographic pairs",
            "Brackets": "sqrt(2) * c^l_ij, pairs (i<j) lexicographic, target l fastest",
            "TorusWeights": "abstract weight coordinates in the given order",
        }[spec.family],
    }


def _cmd_moment(args) -> dict:
    v = _resolve_vector(args)
    ctx = build_context(v.spec.n, args.group)
    mv = moment(ctx, v.spec, v)
    doc = {
        "family": v.spec.family,
        "n": v.spec.n,
        "matrix": _matrix(mv.matrix),
        "energy": mv.energy,
        "spectrum": _floats(mv.spectrum),
        "criticality_residual": criticality_residual(ctx, v.spec, v),
    }
    if v.spec.family != TORUS_WEIGHTS and args.group == "GL":
        cf = closed_form_moment(v.spec, v)
        doc["closed_form_max_dev"] = float(np.abs(cf.matrix - mv.matrix).max())
    return doc


def _cmd_flow(args) -> dict | str:
    settings = _settings(args)
    v = _resolve_vector(args)
    ctx = build_context(v.spec.n, args.group)
    result = gradient_flow(ctx, v.spec, v, _flow_params(settings))
    if args.format == "csv":
        return flow_trajectory_csv(result)
    return {
        "converged": result.converged,
        "status": result.status,
        "steps": result.steps,
        "t_final": result.samples[-1][0],
        "energy_first": result.energy_trace[0][1],
        "energy_last": result.energy_trace[-1][1],
        "residual_last": result.residual_trace[-1][1],
        "limit_coords": _floats(result.limit.coords),
        "limit_spectrum": _floats(result.limit_moment.spectrum),
    }


def _random_well_conditioned(n: int, seed: int, diagonal: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if diagonal:  # torus modules are only acted on by diagonal matrices
        return np.diag(rng.uniform(0.5, 2.0, n))
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2


def _cmd_verify_flows(args) -> dict:
    settings = _settings(args)
    # FlowParams.t_max 1000 lies far past the horizon where cond h(t), which
    # grows like e^{2t}, has already lost the comparison
    if "t_max" not in settings:
        raise UsageError("verify-flows needs a horizon: --t-max (or t_max in --config)")
    vbar = _resolve_vector(args)
    n = vbar.spec.n
    ctx = build_context(n, args.group)
    if args.h0 is not None:
        h0 = np.asarray(_maybe_file(args.h0), dtype=float)
    else:
        h0 = _random_well_conditioned(n, settings.get("seed", 0),
                                      vbar.spec.family == TORUS_WEIGHTS)
    params = _flow_params(settings)
    tol = {"tol": settings["match_tol"]} if "match_tol" in settings else {}
    report = verify_flow_equivalence(ctx, vbar.spec, vbar, h0, params.t_max, params, **tol)
    return {
        "h0": _matrix(h0),
        "t_max": params.t_max,
        "max_dev_v": report.max_dev_v,
        "max_dev_S": report.max_dev_S,
        "tol": report.tol,
        "passed": report.passed,
    }


def _cmd_label(args) -> dict:
    v = _resolve_vector(args)
    return hesselink.label_to_json(hesselink.optimal_class(v.spec, v))


def _cmd_labels_enumerate(args) -> dict:
    spec = _resolve_spec(args)
    enum = hesselink.enumerate_labels(spec, max_weight_count=args.cap)
    return {
        "labels": [hesselink.label_to_json(lab) for lab in enum.labels],
        "zero_label": enum.zero_label,
        "count": len(enum.labels),
    }


def _cmd_stratum(args) -> dict:
    v = _resolve_vector(args)
    if args.label is None:
        raise UsageError("--label is required (inline JSON, @file, or '-' for stdin)")
    if args.label == "-":
        label_doc = json.load(sys.stdin)
    else:
        label_doc = _maybe_file(args.label)
    label = hesselink.label_from_json(label_doc)
    if label is None:
        raise UsageError("cannot test membership against the semistable marker")
    report = hesselink.stratum_membership(v.spec, v, label)
    return {
        "eta": [_fraction_str(x) for x in label.eta],
        "q": _fraction_str(report.q),
        "grading": [{"weight": list(w), "r": _fraction_str(r)}
                    for w, r in sorted(report.grading.items())],
        "in_V_ge0": report.in_V_ge0,
        "v0_coords": _floats(report.v0.coords),
        "in_U_ge0": report.in_U_ge0,
    }


def _cmd_jordan(args) -> dict:
    if args.partition is None:
        raise UsageError("--partition is required, e.g. --partition 3,2")
    p = jordan.Partition.parse(args.partition)
    rep = jordan.jordan_label(p)
    return {
        "partition": list(p.parts),
        "n": p.n,
        "eta": [_fraction_str(x) for x in rep.label.eta],
        "q": _fraction_str(rep.label.q),
        "eta_normalized": [_fraction_str(x) for x in rep.label.eta_normalized],
        "beta_paper": [_fraction_str(x) for x in rep.beta_paper],
        "q_paper": _fraction_str(rep.q_paper),
        "identity_ok": rep.identity_ok,
        "display_ok": rep.display_ok,
        "negdef_ok": rep.negdef_ok,
        "block_bound_ok": rep.block_bound_ok,
    }


def _cmd_bracket(args) -> dict:
    if args.n is None:
        raise UsageError("--n is required")
    params = _flow_params(_settings(args))
    mu = bracketmod.bracket_preset(args.preset, args.n)
    ctx = build_context(args.n, "GL")
    v = mu.normalized()
    res = criticality_residual(ctx, v.spec, v)
    flowed = False
    target = min(params.residual_tol, bracketmod.CRITICAL_RESIDUAL)
    if res > target and args.flow:
        mu = v = gradient_flow(ctx, v.spec, v, replace(params, residual_tol=target)).limit
        res = criticality_residual(ctx, v.spec, v)
        flowed = True
    doc = {
        "preset": args.preset,
        "n": args.n,
        "jacobi_ok": bracketmod.jacobi_ok(mu),
        "flowed": flowed,
        "criticality_residual": res,
        "moment_matrix": _matrix(moment(ctx, v.spec, v).matrix),
    }
    if res <= params.residual_tol:
        check = bracketmod.critical_bracket_check(ctx, mu, residual_tol=params.residual_tol)
        doc["critical_check"] = {
            "beta_spectrum": _floats(check.beta.spectrum),
            "beta_plus_eigenvalues": _floats(np.real(check.eigenvalues)),
            "is_derivation": check.is_derivation,
            "derivation_residual": check.derivation_residual,
            "positive": check.positive,
            "orthogonality_residual": check.orthogonality_residual,
        }
    return doc


def _cmd_project_sl(args) -> dict:
    if args.eta is None:
        raise UsageError("--eta is required")
    raw = _maybe_file(args.eta)
    if not isinstance(raw, list):
        raise ValueError(f"--eta must be a list of rationals, got {raw!r}")
    try:
        eta = tuple(Fraction(x).limit_denominator(10**12) if isinstance(x, float)
                    else _parse_rational(x, f"--eta entry {k}")
                    for k, x in enumerate(raw))
    except OverflowError as exc:  # Fraction(inf); Fraction(nan) raises ValueError
        raise ValueError(str(exc)) from exc
    out = hesselink.project_to_sl(eta)
    return {"eta": [_fraction_str(x) for x in eta], "eta_sl": [_fraction_str(x) for x in out]}


# ---------------------------------------------------------------------------
# parser


# every flag, defined once; each subcommand registers only the flags it reads
_FLAGS = {
    "--family": {"help": "representation family (standard, dual, adjoint, lambda2, brackets)"},
    "--n": {"type": int, "help": "matrix size"},
    "--weights": {"help": "TorusWeights weight list, inline JSON or @file"},
    "--group": {"choices": ("GL", "SL"), "default": "GL"},
    "--vector": {"help": "coordinates, inline JSON array/object or @file"},
    "--config": {"help": "key=value config file; flags override it"},
    "--t-max": {"dest": "t_max", "type": float},
    "--tol": {"dest": "residual_tol", "type": float},
    "--match-tol": {"dest": "match_tol", "type": float},
    "--seed": {"type": int},
    "--format": {"choices": ("json", "csv"), "default": "csv"},
    "--h0": {"help": "initial group element, inline JSON or @file (default: seeded random)"},
    "--cap": {"type": int, "default": 20, "help": "maximum distinct weight count"},
    "--label": {"help": "label JSON (inline, @file, or '-' for stdin)"},
    "--partition": {"help": "comma-separated block sizes, e.g. 3,2"},
    "--preset": {"choices": ("heisenberg", "chain"), "default": "heisenberg"},
    "--flow": {"action": "store_true", "help": "flow to a critical direction first"},
    "--eta": {"help": "rational vector, e.g. '[\"1/2\",\"0\",\"-1/2\"]' or '[1,0,-1]'"},
}
_SPEC = ("--family", "--n", "--weights")
_VECTOR = _SPEC + ("--vector",)
_MOMENT = _SPEC + ("--group", "--vector")
_SETTINGS = ("--config", "--t-max")
_SUBCOMMANDS = (
    ("rep-info", _cmd_rep_info, "dimension, weights, coordinate order", _SPEC),
    ("moment", _cmd_moment, "moment map value of a vector", _MOMENT),
    ("flow", _cmd_flow, "integrate the gradient flow (CSV by default)",
     _MOMENT + _SETTINGS + ("--tol", "--format")),
    ("verify-flows", _cmd_verify_flows, "three-flow equivalence report",
     _MOMENT + _SETTINGS + ("--match-tol", "--seed", "--h0")),
    ("label", _cmd_label, "exact Hesselink label of a vector", _VECTOR),
    ("labels-enumerate", _cmd_labels_enumerate, "all candidate labels of a family",
     _SPEC + ("--cap",)),
    ("stratum", _cmd_stratum, "stratum membership report", _VECTOR + ("--label",)),
    ("jordan", _cmd_jordan, "exact label data of a Jordan partition", ("--partition",)),
    ("bracket", _cmd_bracket, "bracket preset and critical-point report",
     ("--n",) + _SETTINGS + ("--tol", "--preset", "--flow")),
    ("project-sl", _cmd_project_sl, "orthogonal projection of a label to trace zero", ("--eta",)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description="Moment maps, flows, and exact stratum labels for GL_n(R)/SL_n(R).")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func, help_text, flags in _SUBCOMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        p.set_defaults(func=func)
    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse argv, execute, return the exit code.

    The subcommand's document is written to stdout here and nowhere else;
    a run that fails writes nothing there.  Warnings raised while the
    subcommand runs are reported on stderr as ``warning: <text>`` lines,
    ahead of any ``error:`` line.
    """
    args = _build_parser().parse_args(argv)
    error = None
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            doc = args.func(args)
            sys.stdout.write(doc if isinstance(doc, str) else json.dumps(doc, indent=2) + "\n")
            code = 0
        except UsageError as exc:
            code, error = 2, exc
        except (ValueError, TypeError, ZeroDivisionError, FlowError, OSError, KeyError) as exc:
            code, error = 1, exc
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    if error is not None:
        print(f"error: {error}", file=sys.stderr)
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
