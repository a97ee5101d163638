"""Deterministic command-line front end.

Every subcommand prints a single JSON document (or a CSV table for
trajectories) on stdout.  Exit codes: 0 success, 1 computation error,
2 usage error.  Rationals are serialized as "p/q" strings; identical
argv + seed produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import bracket as bracketmod
from . import hesselink, jordan
from .cartan import build_context
from .flows import FlowParams, flow_trajectory_csv, gradient_flow, verify_flow_equivalence
from .momentmap import closed_form_moment, criticality_residual, moment
from .reps import (TORUS_WEIGHTS, RepSpec, canonical_family, rep_vector,
                   torus_weights, vector_from_json, weights_of)

__all__ = ["main", "run"]


@dataclass
class CliConfig:
    """Tolerances and flow parameters, assembled from a key=value config
    file overridden by command-line flags."""

    residual_tol: float = 1e-9
    match_tol: float = 1e-6
    dt0: float = 1e-2
    t_max: float = 1e3
    sample_stride: int = 10
    max_steps: int = 1_000_000
    seed: int = 0
    format: str = "json"

    _FLOAT_KEYS = ("residual_tol", "match_tol", "dt0", "t_max")
    _INT_KEYS = ("sample_stride", "max_steps", "seed")

    def apply(self, key: str, value: str) -> None:
        if key in self._FLOAT_KEYS:
            setattr(self, key, float(value))
        elif key in self._INT_KEYS:
            setattr(self, key, int(value))
        elif key == "format":
            if value not in ("json", "csv"):
                raise ValueError(f"format must be json or csv, got {value!r}")
            self.format = value
        else:
            raise ValueError(f"unknown config key {key!r}")

    def flow_params(self, renormalize: bool = True) -> FlowParams:
        return FlowParams(dt0=self.dt0, t_max=self.t_max,
                          residual_tol=self.residual_tol,
                          max_steps=self.max_steps,
                          sample_stride=self.sample_stride,
                          renormalize=renormalize)


class UsageError(Exception):
    pass


def _load_config(cfg: CliConfig, path: str) -> None:
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {raw.strip()!r}; expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            try:
                cfg.apply(key, value)
            except ValueError as exc:
                raise UsageError(str(exc)) from exc


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
        return v
    return rep_vector(_resolve_spec(args), doc)


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _floats(a) -> list:
    return [float(x) for x in np.asarray(a).reshape(-1)]


def _matrix(a) -> list:
    return [[float(x) for x in row] for row in np.asarray(a)]


def _emit_json(doc) -> None:
    sys.stdout.write(json.dumps(doc, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_rep_info(args, cfg: CliConfig) -> int:
    spec = _resolve_spec(args)
    doc = {
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
    _emit_json(doc)
    return 0


def _cmd_moment(args, cfg: CliConfig) -> int:
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
    _emit_json(doc)
    return 0


def _cmd_flow(args, cfg: CliConfig) -> int:
    v = _resolve_vector(args)
    ctx = build_context(v.spec.n, args.group)
    result = gradient_flow(ctx, v.spec, v, cfg.flow_params(renormalize=not args.raw))
    if cfg.format == "csv":
        sys.stdout.write(flow_trajectory_csv(result))
        return 0
    doc = {
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
    _emit_json(doc)
    return 0


def _random_well_conditioned(n: int, seed: int, diagonal: bool = False) -> np.ndarray:
    rng = np.random.default_rng(seed)
    if diagonal:  # torus modules are only acted on by diagonal matrices
        return np.diag(rng.uniform(0.5, 2.0, n))
    q1, _ = np.linalg.qr(rng.normal(size=(n, n)))
    q2, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return q1 @ np.diag(rng.uniform(0.5, 2.0, n)) @ q2


def _cmd_verify_flows(args, cfg: CliConfig) -> int:
    vbar = _resolve_vector(args)
    n = vbar.spec.n
    ctx = build_context(n, args.group)
    if args.h0 is not None:
        h0 = np.asarray(_maybe_file(args.h0), dtype=float)
    else:
        h0 = _random_well_conditioned(n, cfg.seed, vbar.spec.family == TORUS_WEIGHTS)
    report = verify_flow_equivalence(ctx, vbar.spec, vbar, h0, cfg.t_max,
                                     cfg.flow_params(), tol=cfg.match_tol)
    _emit_json({
        "h0": _matrix(h0),
        "t_max": cfg.t_max,
        "max_dev_v": report.max_dev_v,
        "max_dev_S": report.max_dev_S,
        "tol": report.tol,
        "passed": report.passed,
    })
    return 0


def _cmd_label(args, cfg: CliConfig) -> int:
    v = _resolve_vector(args)
    _emit_json(hesselink.label_to_json(hesselink.optimal_class(v.spec, v)))
    return 0


def _cmd_labels_enumerate(args, cfg: CliConfig) -> int:
    spec = _resolve_spec(args)
    enum = hesselink.enumerate_labels(spec, max_weight_count=args.cap)
    _emit_json({
        "labels": [hesselink.label_to_json(lab) for lab in enum.labels],
        "zero_label": enum.zero_label,
        "count": len(enum.labels),
    })
    return 0


def _cmd_stratum(args, cfg: CliConfig) -> int:
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
    _emit_json({
        "eta": [_rat(x) for x in label.eta],
        "q": _rat(report.q),
        "grading": [{"weight": list(w), "r": _rat(r)} for w, r in sorted(report.grading.items())],
        "in_V_ge0": report.in_V_ge0,
        "v0_coords": _floats(report.v0.coords),
        "in_U_ge0": report.in_U_ge0,
    })
    return 0


def _cmd_jordan(args, cfg: CliConfig) -> int:
    if args.partition is None:
        raise UsageError("--partition is required, e.g. --partition 3,2")
    p = jordan.Partition.parse(args.partition)
    rep = jordan.jordan_label(p)
    _emit_json({
        "partition": list(p.parts),
        "n": p.n,
        "eta": [_rat(x) for x in rep.label.eta],
        "q": _rat(rep.label.q),
        "eta_normalized": [_rat(x) for x in rep.label.eta_normalized],
        "beta_paper": [_rat(x) for x in rep.beta_paper],
        "q_paper": _rat(rep.q_paper),
        "identity_ok": rep.identity_ok,
        "display_ok": rep.display_ok,
        "negdef_ok": rep.negdef_ok,
        "block_bound_ok": rep.block_bound_ok,
    })
    return 0


def _cmd_bracket(args, cfg: CliConfig) -> int:
    if args.n is None:
        raise UsageError("--n is required")
    mu = bracketmod.bracket_preset(args.preset, args.n)
    ctx = build_context(args.n, "GL")
    v = mu.to_rep_vector().normalized()
    res = criticality_residual(ctx, v.spec, v)
    flowed = False
    if res > cfg.residual_tol and args.flow:
        result = gradient_flow(ctx, v.spec, v, cfg.flow_params())
        v = result.limit
        mu = bracketmod.BracketTensor.from_rep_vector(v)
        res = criticality_residual(ctx, v.spec, v)
        flowed = True
    doc = {
        "preset": args.preset,
        "n": args.n,
        "jacobi_ok": mu.jacobi_ok,
        "flowed": flowed,
        "criticality_residual": res,
        "moment_matrix": _matrix(moment(ctx, v.spec, v).matrix),
    }
    if res <= cfg.residual_tol:
        check = bracketmod.critical_bracket_check(ctx, mu, residual_tol=cfg.residual_tol)
        doc["critical_check"] = {
            "beta_spectrum": _floats(check.beta.spectrum),
            "beta_plus_eigenvalues": _floats(np.real(check.eigenvalues)),
            "is_derivation": check.is_derivation,
            "derivation_residual": check.derivation_residual,
            "positive": check.positive,
            "orthogonality_residual": check.orthogonality_residual,
        }
    _emit_json(doc)
    return 0


def _cmd_project_sl(args, cfg: CliConfig) -> int:
    if args.eta is None:
        raise UsageError("--eta is required")
    raw = _maybe_file(args.eta)
    eta = tuple(Fraction(x) if not isinstance(x, float) else Fraction(x).limit_denominator(10**12)
                for x in raw)
    out = hesselink.project_to_sl(eta)
    _emit_json({"eta": [_rat(Fraction(x)) for x in eta], "eta_sl": [_rat(x) for x in out]})
    return 0


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentflow",
        description="Moment maps, flows, and exact stratum labels for GL_n(R)/SL_n(R).")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, vector=False):
        p.add_argument("--family", help="representation family (standard, dual, adjoint, lambda2, brackets)")
        p.add_argument("--n", type=int, help="matrix size")
        p.add_argument("--weights", help="TorusWeights weight list, inline JSON or @file")
        p.add_argument("--group", choices=("GL", "SL"), default="GL")
        if vector:
            p.add_argument("--vector", help="coordinates, inline JSON array/object or @file")
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--t-max", dest="t_max", type=float)
        p.add_argument("--dt0", type=float)
        p.add_argument("--tol", dest="residual_tol", type=float)
        p.add_argument("--match-tol", dest="match_tol", type=float)
        p.add_argument("--seed", type=int)
        p.add_argument("--format", choices=("json", "csv"))

    p = sub.add_parser("rep-info", help="dimension, weights, coordinate order")
    common(p)
    p.set_defaults(func=_cmd_rep_info)

    p = sub.add_parser("moment", help="moment map value of a vector")
    common(p, vector=True)
    p.set_defaults(func=_cmd_moment)

    p = sub.add_parser("flow", help="integrate the gradient flow (CSV by default)")
    common(p, vector=True)
    p.add_argument("--raw", action="store_true", help="disable unit-sphere renormalization")
    p.set_defaults(func=_cmd_flow, default_format="csv")

    p = sub.add_parser("verify-flows", help="three-flow equivalence report")
    common(p, vector=True)
    p.add_argument("--h0", help="initial group element, inline JSON or @file (default: seeded random)")
    p.set_defaults(func=_cmd_verify_flows)

    p = sub.add_parser("label", help="exact Hesselink label of a vector")
    common(p, vector=True)
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("labels-enumerate", help="all candidate labels of a family")
    common(p)
    p.add_argument("--cap", type=int, default=20, help="maximum distinct weight count")
    p.set_defaults(func=_cmd_labels_enumerate)

    p = sub.add_parser("stratum", help="stratum membership report")
    common(p, vector=True)
    p.add_argument("--label", help="label JSON (inline, @file, or '-' for stdin)")
    p.set_defaults(func=_cmd_stratum)

    p = sub.add_parser("jordan", help="exact label data of a Jordan partition")
    common(p)
    p.add_argument("--partition", help="comma-separated block sizes, e.g. 3,2")
    p.set_defaults(func=_cmd_jordan)

    p = sub.add_parser("bracket", help="bracket preset and critical-point report")
    common(p)
    p.add_argument("--preset", choices=("heisenberg", "chain"), default="heisenberg")
    p.add_argument("--flow", action="store_true", help="flow to a critical direction first")
    p.set_defaults(func=_cmd_bracket)

    p = sub.add_parser("project-sl", help="orthogonal projection of a label to trace zero")
    p.add_argument("--eta", help="rational vector, e.g. '[\"1/2\",\"0\",\"-1/2\"]' or '[1,0,-1]'")
    p.add_argument("--config", help="key=value config file")
    p.set_defaults(func=_cmd_project_sl)

    return parser


def run(argv: list[str]) -> int:
    """Entry point used by tests: parse argv, execute, return the exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = CliConfig()
    try:
        if getattr(args, "config", None):
            _load_config(cfg, args.config)
        if getattr(args, "default_format", None) and args.format is None:
            cfg.format = args.default_format
        for key in ("t_max", "dt0", "residual_tol", "match_tol", "seed", "format"):
            value = getattr(args, key, None)
            if value is not None:
                setattr(cfg, key, value)
        return args.func(args, cfg)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
