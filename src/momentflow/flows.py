"""Negative gradient flow, companion group flow, metric flow, and the
numerical check that the three are the same trajectory in three models.

All integrations use classical RK4 with step-doubling error control: a step
is accepted when the full-step vs two-half-steps discrepancy is at most
1e-10 per unit of block scale, halved otherwise, and the step grows by 1.5x
after ten consecutive accepts.  The two-half-step state is the one kept.
The full and the first half step share the stage f(y), so an attempted
step costs 11 right-hand-side evaluations.  Inputs are validated once, at
entry (``apply_group`` rejects a singular h0 and warns above condition
number 1e12); right-hand sides run the unchecked kernels on plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import CartanContext, _spd_root
from .momentmap import MomentValue, _moment_matrix, moment, rep_action
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
        if self.dt0 <= 0 or self.t_max <= 0 or self.max_steps <= 0 or self.sample_stride <= 0:
            raise ValueError("flow parameters must be positive")
        if not (0 < self.residual_tol < 1):
            raise ValueError("residual_tol must lie in (0, 1)")


@dataclass(frozen=True)
class SpdMetric:
    """A symmetric positive-definite matrix, i.e. a scalar product on R^n."""

    S: np.ndarray

    def __post_init__(self):
        s = np.ascontiguousarray(self.S, dtype=float)
        scale = max(1.0, float(np.abs(s).max(initial=0.0)))
        if np.abs(s - s.T).max(initial=0.0) > 1e-12 * scale:
            raise ValueError("metric must be symmetric")
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


def _integrate(f, y0, params: FlowParams, blocks, on_accept, should_stop=None,
               postprocess=None):
    """Shared adaptive driver.  Returns (t, y, status, steps).

    ``should_stop(y)`` is called once on the initial state and then right
    after each ``on_accept(t, y)``, on the same state.
    """
    t = 0.0
    y = np.asarray(y0, dtype=float).copy()
    if should_stop is not None and should_stop(y):
        return t, y, "converged", 0
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
            on_accept(t, y)
            if should_stop is not None and should_stop(y):
                return t, y, "converged", steps
            if run >= ACCEPTS_BEFORE_GROWTH:
                dt *= GROWTH_FACTOR
                run = 0
        else:
            dt *= 0.5
            run = 0
            if dt < STEP_UNDERFLOW:
                return t, y, "dt_underflow", steps
    status = "max_steps" if steps >= params.max_steps else "t_max"
    return t, y, status, steps


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

    def stats(y):
        coeff, grad = act.moment_and_gradient(y)
        fval = float(coeff @ coeff)
        nn = float(np.linalg.norm(y))
        res = float(np.linalg.norm(grad - fval * y)) / nn
        return fval, res

    samples: list = []
    energy_trace: list = []
    residual_trace: list = []
    counter = {"k": 0}

    def record(t, y):
        fval, res = stats(y)
        energy_trace.append((t, fval))
        residual_trace.append((t, res))
        if counter["k"] % params.sample_stride == 0:
            samples.append((t, rep_vector(spec, y)))
        counter["k"] += 1

    def stop(y):
        # the driver calls this right after record(t, y) on the same state
        return residual_trace[-1][1] <= params.residual_tol

    def post(y):
        return y / np.linalg.norm(y) if params.renormalize else y

    record(0.0, c0)
    counter["k"] = 1  # t = 0 always sampled
    t, y, status, steps = _integrate(f, c0, params, [slice(None)], record,
                                     should_stop=stop, postprocess=post)
    if not samples or samples[-1][0] != t:
        samples.append((t, rep_vector(spec, y)))
    limit = rep_vector(spec, y / np.linalg.norm(y))
    return FlowResult(samples=samples,
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
    if h0.shape != (n, n) or abs(np.linalg.det(h0)) == 0.0:
        raise ValueError("h0 must be an invertible n x n matrix")
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

    v_samples: list = []
    h_samples: list = []
    counter = {"k": 0}

    def record(t, y):
        if counter["k"] % params.sample_stride == 0:
            v_samples.append((t, rep_vector(spec, y[:d])))
            h_samples.append((t, y[d:].reshape(n, n).copy()))
        counter["k"] += 1

    record(0.0, y0)
    counter["k"] = 1
    t, y, status, _ = _integrate(f, y0, params, blocks, record)
    if not v_samples or v_samples[-1][0] != t:
        v_samples.append((t, rep_vector(spec, y[:d])))
        h_samples.append((t, y[d:].reshape(n, n).copy()))
    return CoupledFlowResult(v_samples=v_samples, h_samples=h_samples, status=status)


def _rho(spec, h, c):
    """rho(h) c on raw arrays; on a torus module h must stay diagonal."""
    if spec.family == TORUS_WEIGHTS:
        _diagonal_or_raise(h, "h")
        return _act(spec, h, None, c)
    return _act(spec, h, np.linalg.inv(h), c)


def _metric_velocity(ctx, act, vbar, s):
    """S' = -(M^T S + S M) with M = h^{-1} m(rho(h) vbar) h, h = sqrt(S);
    ``vbar`` is a coordinate array."""
    s = 0.5 * (s + s.T)
    h = _spd_root(s)
    m = _moment_matrix(ctx, act.moment_coefficients(_rho(act.spec, h, vbar)))
    big = np.linalg.solve(h, m @ h)
    ds = -(big.T @ s + s @ big)
    return 0.5 * (ds + ds.T)


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
    # checks vbar's spec, the condition of sqrt(S0) and, on a torus, its diagonal
    apply_group(spec, _spd_root(0.5 * (s0.S + s0.S.T)), vbar)
    act = rep_action(ctx, spec)
    n = ctx.n
    y0 = s0.S.reshape(-1).copy()

    def f(y):
        return _metric_velocity(ctx, act, vbar.coords, y.reshape(n, n)).reshape(-1)

    out: list = []
    counter = {"k": 0}

    def record(t, y):
        s = 0.5 * (y.reshape(n, n) + y.reshape(n, n).T)
        if np.linalg.eigvalsh(s)[0] <= 0.0:
            raise FlowError(f"metric lost positivity at t = {t:.6g}")
        if counter["k"] % params.sample_stride == 0:
            out.append((t, SpdMetric(s)))
        counter["k"] += 1

    record(0.0, y0)
    counter["k"] = 1
    t, y, status, _ = _integrate(f, y0, params, [slice(None)], record)
    s = 0.5 * (y.reshape(n, n) + y.reshape(n, n).T)
    _invert(_spd_root(s))  # warns if S(t) ended ill-conditioned
    if not out or out[-1][0] != t:
        out.append((t, SpdMetric(s)))
    return out


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
    if params is None:
        params = FlowParams()
    params = FlowParams(dt0=params.dt0, t_max=float(t_horizon),
                        residual_tol=params.residual_tol,
                        max_steps=params.max_steps,
                        sample_stride=params.sample_stride,
                        renormalize=False)
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
        s = y[d + n2:].reshape(n, n)
        dv = -act.gradient(c)
        mh = _moment_matrix(ctx, act.moment_coefficients(_rho(spec, h, vbar.coords)))
        dh = -(mh @ h)
        ds = _metric_velocity(ctx, act, vbar.coords, s)
        return np.concatenate([dv, dh.reshape(-1), ds.reshape(-1)])

    worst = {"v": 0.0, "S": 0.0}

    def record(t, y):
        c = y[:d]
        h = y[d:d + n2].reshape(n, n)
        s = y[d + n2:].reshape(n, n)
        pred = _rho(spec, h, vbar.coords)
        dev_v = np.linalg.norm(c - pred) / np.linalg.norm(c)
        dev_s = np.linalg.norm(s - h.T @ h) / np.linalg.norm(s)
        worst["v"] = max(worst["v"], float(dev_v))
        worst["S"] = max(worst["S"], float(dev_s))

    record(0.0, y0)
    _, y, _, _ = _integrate(f, y0, params, blocks, record)
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
