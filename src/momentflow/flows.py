"""Negative gradient flow, companion group flow, metric flow, and the
numerical check that the three are the same trajectory in three models.

All integrations run through one driver, ``_integrate``, which alone decides
which states are sampled and when a run stops; each flow supplies only its
entry checks, its right-hand side and the mapping from raw states to result
objects.  The driver uses classical RK4 with step-doubling error control: a
step is accepted when the full-step vs two-half-steps discrepancy is at most
1e-10 per unit of block scale, halved otherwise, and the step grows by 1.5x
after ten consecutive accepts.  The two-half-step state is the one kept.
The full and the first half step share the stage f(y), so an attempted
step costs 11 right-hand-side evaluations.  Inputs are validated once, at
entry (``apply_group`` rejects a singular h0 and warns above condition
number 1e12); right-hand sides run the unchecked kernels on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cartan import CartanContext, _check_symmetric, _spd_root, _spd_root_and_inverse
from .momentmap import MomentValue, _energy_and_residual, _moment_matrix, moment, rep_action
from .reps import (TORUS_WEIGHTS, RepSpec, RepVector, _act, _diagonal_or_raise, _invert,
                   apply_group, rep_vector)

__all__ = [
    "FlowParams",
    "FlowResult",
    "CoupledFlowResult",
    "EquivalenceReport",
    "SpdMetric",
    "FlowError",
    "gradient_flow",
    "coupled_group_flow",
    "metric_flow",
    "verify_flow_equivalence",
    "flow_trajectory_csv",
]

LOCAL_ERROR_TOL = 1e-10
STEP_UNDERFLOW = 1e-14
GROWTH_FACTOR = 1.5
ACCEPTS_BEFORE_GROWTH = 10


class FlowError(RuntimeError):
    """Raised when an integration cannot continue (e.g. positivity loss)."""


@dataclass
class FlowParams:
    """Integration controls shared by all flows."""

    dt0: float = 1e-2
    t_max: float = 1e3
    residual_tol: float = 1e-9
    max_steps: int = 1_000_000
    sample_stride: int = 10
    renormalize: bool = True

    def __post_init__(self):
        # comparisons fail on NaN, so NaN is rejected; t_max may be inf
        if not (0 < self.dt0 < np.inf and self.t_max > 0 and self.max_steps > 0
                and self.sample_stride > 0):
            raise ValueError("flow parameters must be positive, and dt0 finite")
        if not (0 < self.residual_tol < 1):
            raise ValueError("residual_tol must lie in (0, 1)")


@dataclass(frozen=True)
class SpdMetric:
    """A symmetric positive-definite matrix, i.e. a scalar product on R^n."""

    S: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.S, dtype=float)
        _check_symmetric(s, "metric", 1e-12)
        if np.linalg.eigvalsh(s)[0] <= 0.0:
            raise ValueError("metric must be positive definite")
        s.flags.writeable = False
        object.__setattr__(self, "S", s)


@dataclass
class FlowResult:
    """Sampled gradient-flow trajectory and its limit data."""

    samples: list
    energy_trace: list
    residual_trace: list
    converged: bool
    limit: RepVector
    limit_moment: MomentValue
    status: str = "converged"
    steps: int = 0


@dataclass
class CoupledFlowResult:
    v_samples: list
    h_samples: list
    status: str


@dataclass
class EquivalenceReport:
    max_dev_v: float
    max_dev_S: float
    passed: bool
    tol: float = 1e-6


def _rk4(f, y, h, k1):
    k2 = f(y + (0.5 * h) * k1)
    k3 = f(y + (0.5 * h) * k2)
    k4 = f(y + h * k3)
    return y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _block_error(full, half, y, blocks):
    worst = 0.0
    for sl in blocks:
        scale = max(1.0, float(np.linalg.norm(y[sl])))
        worst = max(worst, float(np.linalg.norm(full[sl] - half[sl])) / scale)
    return worst


def _integrate(f, y0, params: FlowParams, blocks, on_state=None, postprocess=None):
    """The adaptive driver shared by all flows.  Returns
    (t, y, status, steps, samples).

    ``on_state(t, y)`` runs on the initial state and on every accepted
    state; a true return stops the run as ``converged``.  ``samples`` holds
    (t, y) at t = 0, after every ``params.sample_stride``-th accepted step,
    and at the final state exactly once.
    """
    t = 0.0
    y = np.asarray(y0, dtype=float).copy()
    samples = [(t, y)]
    if on_state is not None and on_state(t, y):
        return t, y, "converged", 0, samples
    dt = params.dt0
    steps = 0
    run = 0
    horizon = params.t_max * (1.0 - 1e-12)
    while t < horizon and steps < params.max_steps:
        dt = min(dt, params.t_max - t)
        k1 = f(y)
        full = _rk4(f, y, dt, k1)
        mid = _rk4(f, y, 0.5 * dt, k1)
        half = _rk4(f, mid, 0.5 * dt, f(mid))
        if _block_error(full, half, y, blocks) <= LOCAL_ERROR_TOL:
            y = half if postprocess is None else postprocess(half)
            t += dt
            steps += 1
            run += 1
            if steps % params.sample_stride == 0:
                samples.append((t, y))
            if on_state is not None and on_state(t, y):
                status = "converged"
                break
            if run >= ACCEPTS_BEFORE_GROWTH:
                dt *= GROWTH_FACTOR
                run = 0
        else:
            dt *= 0.5
            run = 0
            if dt < STEP_UNDERFLOW:
                status = "dt_underflow"
                break
    else:
        status = "max_steps" if steps >= params.max_steps else "t_max"
    if samples[-1][0] != t:
        samples.append((t, y))
    return t, y, status, steps, samples


def gradient_flow(ctx: CartanContext, spec: RepSpec, v0: RepVector,
                  params: FlowParams | None = None) -> FlowResult:
    """Integrate v' = -pi(m(v)) v.

    With ``params.renormalize`` the state is projected to the unit sphere
    after each accepted step; the moment map and energy are scale-invariant,
    so the direction dynamics are unchanged.  The run converges when the
    criticality residual drops below ``params.residual_tol``.
    """
    if params is None:
        params = FlowParams()
    act = rep_action(ctx, spec)
    c0 = np.array(v0.coords, dtype=float)
    nrm = np.linalg.norm(c0)
    if nrm == 0.0:
        raise ValueError("cannot flow the zero vector")
    if params.renormalize:
        c0 /= nrm

    def f(y):
        return -act.gradient(y)

    energy_trace: list = []
    residual_trace: list = []

    def on_state(t, y):
        fval, res = _energy_and_residual(act, y)
        energy_trace.append((t, fval))
        residual_trace.append((t, res))
        return res <= params.residual_tol

    post = (lambda y: y / np.linalg.norm(y)) if params.renormalize else None
    _, y, status, steps, states = _integrate(f, c0, params, [slice(None)], on_state, post)
    limit = rep_vector(spec, y / np.linalg.norm(y))
    return FlowResult(samples=[(t, rep_vector(spec, y)) for t, y in states],
                      energy_trace=energy_trace,
                      residual_trace=residual_trace,
                      converged=(status == "converged"),
                      limit=limit,
                      limit_moment=moment(ctx, spec, limit),
                      status=status,
                      steps=steps)


def coupled_group_flow(ctx: CartanContext, spec: RepSpec, vbar: RepVector, h0,
                       params: FlowParams | None = None) -> CoupledFlowResult:
    """Co-integrate the raw gradient flow of v = rho(h0) vbar together with
    the group element h' = -m(v(t)) h, h(0) = h0.

    Along exact solutions v(t) = rho(h(t)) vbar, which is what
    :func:`verify_flow_equivalence` measures.
    """
    if params is None:
        params = FlowParams()
    act = rep_action(ctx, spec)
    n = ctx.n
    h0 = np.asarray(h0, dtype=float)
    v0 = apply_group(spec, h0, vbar)
    if v0.norm == 0.0:
        raise ValueError("cannot flow the zero vector")
    d = spec.dim
    y0 = np.concatenate([v0.coords, h0.reshape(-1)])
    blocks = [slice(0, d), slice(d, d + n * n)]

    def f(y):
        c = y[:d]
        h = y[d:].reshape(n, n)
        coeff, grad = act.moment_and_gradient(c)
        return np.concatenate([-grad, -(_moment_matrix(ctx, coeff) @ h).reshape(-1)])

    _, _, status, _, states = _integrate(f, y0, params, blocks)
    return CoupledFlowResult(v_samples=[(t, rep_vector(spec, y[:d])) for t, y in states],
                             h_samples=[(t, y[d:].reshape(n, n).copy()) for t, y in states],
                             status=status)


def _rho(spec, h, c, hinv=None):
    """rho(h) c on raw arrays, inverting h unless ``hinv`` is given; on a
    torus module h must stay diagonal."""
    if spec.family == TORUS_WEIGHTS:
        _diagonal_or_raise(h, "h")
        return _act(spec, h, None, c)
    return _act(spec, h, np.linalg.inv(h) if hinv is None else hinv, c)


def _sym(y, n):
    """The symmetric part of y read as an n x n matrix."""
    m = y.reshape(n, n)
    return 0.5 * (m + m.T)


def _moment_at(ctx, act, h, vbar, hinv=None):
    """m(rho(h) vbar) as a matrix; ``vbar`` is a coordinate array."""
    return _moment_matrix(ctx, act.moment_coefficients(_rho(act.spec, h, vbar, hinv)))


def _metric_velocity(ctx, act, vbar, y):
    """S' = -(M^T S + S M) with M = h^{-1} m(rho(h) vbar) h, h = sqrt(S),
    on the flattened S; ``vbar`` is a coordinate array."""
    n = ctx.n
    s = _sym(y, n)
    h, hinv = _spd_root_and_inverse(s)
    big = hinv @ _moment_at(ctx, act, h, vbar, hinv) @ h
    return _sym(-(big.T @ s + s @ big), n).reshape(-1)


def metric_flow(ctx: CartanContext, spec: RepSpec, vbar: RepVector,
                s0: SpdMetric, params: FlowParams | None = None) -> list:
    """Integrate the metric flow on positive-definite matrices.

    The coset representative is always the SPD square root, which makes the
    driving term independent of the orthogonal factor.  vbar and sqrt(S0)
    pass ``apply_group``'s checks at entry.  Positivity is checked at every
    accepted step; losing it aborts with a FlowError.
    """
    if params is None:
        params = FlowParams()
    if vbar.norm == 0.0:
        raise ValueError("cannot flow the zero vector")
    n = ctx.n
    # checks vbar's spec, the condition of sqrt(S0) and, on a torus, its diagonal
    apply_group(spec, _spd_root(_sym(s0.S, n)), vbar)
    act = rep_action(ctx, spec)

    def f(y):
        return _metric_velocity(ctx, act, vbar.coords, y)

    def on_state(t, y):
        if np.linalg.eigvalsh(_sym(y, n))[0] <= 0.0:
            raise FlowError(f"metric lost positivity at t = {t:.6g}")

    _, y, _, _, states = _integrate(f, s0.S.reshape(-1), params, [slice(None)], on_state)
    _invert(_spd_root(_sym(y, n)))  # warns if S(t) ended ill-conditioned
    return [(t, SpdMetric(_sym(y, n))) for t, y in states]


def verify_flow_equivalence(ctx: CartanContext, spec: RepSpec, vbar: RepVector,
                            h0, t_horizon: float,
                            params: FlowParams | None = None,
                            tol: float = 1e-6) -> EquivalenceReport:
    """Run the three flows side by side from matched initial data.

    Each block integrates its own self-contained equation -- the vector flow
    from rho(h0) vbar, the group flow h' = -m(rho(h) vbar) h from h0, and
    the metric flow from h0^T h0 -- and the report collects the worst
    relative deviations of v(t) from rho(h(t)) vbar and of S(t) from
    h(t)^T h(t) over the horizon.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if params is None:
        params = FlowParams()
    params = replace(params, t_max=float(t_horizon))
    act = rep_action(ctx, spec)
    n = ctx.n
    h0 = np.asarray(h0, dtype=float)
    v0 = apply_group(spec, h0, vbar)
    if v0.norm == 0.0:
        raise ValueError("cannot flow the zero vector")
    d = spec.dim
    n2 = n * n
    y0 = np.concatenate([v0.coords, h0.reshape(-1), (h0.T @ h0).reshape(-1)])
    blocks = [slice(0, d), slice(d, d + n2), slice(d + n2, d + 2 * n2)]

    def f(y):
        c = y[:d]
        h = y[d:d + n2].reshape(n, n)
        dv = -act.gradient(c)
        dh = -(_moment_at(ctx, act, h, vbar.coords) @ h)
        ds = _metric_velocity(ctx, act, vbar.coords, y[d + n2:])
        return np.concatenate([dv, dh.reshape(-1), ds])

    worst = {"v": 0.0, "S": 0.0}

    def on_state(t, y):
        c = y[:d]
        h = y[d:d + n2].reshape(n, n)
        s = y[d + n2:].reshape(n, n)
        pred = _rho(spec, h, vbar.coords)
        dev_v = np.linalg.norm(c - pred) / np.linalg.norm(c)
        dev_s = np.linalg.norm(s - h.T @ h) / np.linalg.norm(s)
        worst["v"] = max(worst["v"], float(dev_v))
        worst["S"] = max(worst["S"], float(dev_s))

    _, y, _, _, _ = _integrate(f, y0, params, blocks, on_state)
    _invert(y[d:d + n2].reshape(n, n))  # warns if h(t) ended ill-conditioned
    return EquivalenceReport(max_dev_v=worst["v"], max_dev_S=worst["S"],
                             passed=bool(worst["v"] <= tol and worst["S"] <= tol),
                             tol=tol)


def flow_trajectory_csv(result: FlowResult) -> str:
    """CSV rendering of a gradient-flow run: t, F, residual, coordinates."""
    lookup_f = dict(result.energy_trace)
    lookup_r = dict(result.residual_trace)
    dim = result.limit.spec.dim
    lines = ["t,F,residual," + ",".join(f"c{k}" for k in range(dim))]
    for t, v in result.samples:
        fval = lookup_f.get(t, float("nan"))
        res = lookup_r.get(t, float("nan"))
        row = [format(t, ".17g"), format(fval, ".17g"), format(res, ".17g")]
        row += [format(x, ".17g") for x in v.coords]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"
