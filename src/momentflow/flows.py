"""Negative gradient flow, companion group flow, metric flow, and the
numerical check that the three are the same trajectory in three models.

The stratum of v is read off where the direction of the negative gradient
flow v' = -pi(m(v)) v ends up (Ness, "A stratification of the null cone via
the moment map").  As <pi(m(v)) v, v> = F(v) |v|^2, that field also decays
|v| at rate F, which says nothing about the direction; ``gradient_flow``
therefore integrates u = v / |v| itself, u' = -(pi(m(u)) u - F(u) u), on the
unit sphere and in the same time, so its steps grow as u nears a critical
direction instead of resolving the decay.  The decay |v(t)| = |v0| e^{-int F}
is what ``coupled_group_flow`` adds: its v block is the raw flow.

All integrations run through one driver, ``_integrate``, which alone decides
which states are sampled and when a run stops; each flow supplies only its
entry checks, its right-hand side and the mapping from raw states to result
objects.  The driver takes Dormand-Prince 5(4) steps (Dormand & Prince, "A
family of embedded Runge-Kutta formulae"; Hairer-Norsett-Wanner, *Solving
ODEs I*, II.4-5): a step is accepted when the difference of its embedded
fifth- and fourth-order solutions is at most 1e-10 per unit of block scale,
the fifth-order state is the one kept, and every attempt rescales the step
by clip(0.9 err^(-1/5), 0.2, 5) with err that difference over the target.
The last stage of a step is f at the new state ("first same as last"), so it
is the next step's first stage and an attempted step costs 6 right-hand-side
evaluations; the flows read their stopping data off that stage rather than
evaluate again.  Inputs are validated once, in ``_entry``; right-hand sides
run the unchecked kernels on plain arrays, and take rho(h) vbar and its
moment map from one kernel, ``_orbit``.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .cartan import CartanContext, _check_symmetric, _spd_root, _spd_root_and_inverse
from .momentmap import ZERO_NORM_FLOOR, MomentValue, _moment_matrix, _sphere_velocity, moment
from .momentmap import rep_action
from .reps import RepSpec, RepVector, _act, _checked_in_range, _invert, apply_group, rep_vector

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
# Dormand-Prince 5(4) is stable on the negative real axis down to about
# -3.3, where a decaying mode is no longer damped (|R(z)| -> 1): near a
# stable limit the error control then keeps dt there and the state hovers
# at the local error target instead of converging.  Every run keeps
# dt * rho at most this, where |R(-2)| is about 0.17 (Hairer-Wanner,
# *Solving ODEs II*, IV.2).
STABILITY_CAP = 2.0


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
    rejected: int = 0
    evaluations: int = 0


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


# Dormand-Prince 5(4).  The flows are autonomous, so the nodes c_i are not
# needed.  Row i of _DP_A builds the argument of stage i + 2 from stages
# 1..i + 1; the last row is the fifth-order solution, so the seventh stage
# is f at the new state.  _DP_E is the fifth- minus the fourth-order weights.
_DP_A = tuple(np.array(row) for row in (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
))
_DP_E = np.array([71 / 57600, 0.0, -71 / 16695, 71 / 1920, -17253 / 339200, 22 / 525, -1 / 40])


def _dp5_step(f, y, dy, dt):
    """One Dormand-Prince step of size dt from y, with dy = f(y).  Returns
    the fifth-order state, f at that state, the embedded error vector and
    rho, an estimate of the largest |eigenvalue| of f's Jacobian."""
    stages = np.empty((7, y.size))
    stages[0] = dy
    z = y
    for i, row in enumerate(_DP_A, start=1):
        before, z = z, y + dt * (row @ stages[:i])
        stages[i] = f(z)
    # stages 6 and 7 are both at the step's end, so their difference
    # quotient is the stiffness estimate of Hairer-Wanner, *Solving ODEs II*,
    # IV.2; 0 when the two points coincide
    gap = np.linalg.norm(z - before)
    rho = float(np.linalg.norm(stages[6] - stages[5]) / gap) if gap > 0.0 else 0.0
    return z, stages[6], dt * (_DP_E @ stages), rho


def _block_error(err, y, blocks):
    """The largest norm of ``err`` over the blocks, each relative to
    max(1, |y|) on that block; NaN if any is NaN."""
    return float(np.max([np.linalg.norm(err[sl]) / max(1.0, float(np.linalg.norm(y[sl])))
                         for sl in blocks]))


def _step_factor(ratio):
    """clip(0.9 ratio^(-1/5), 0.2, 5) for an error ``ratio`` of the target;
    a NaN ratio gives 0.2."""
    return 5.0 if ratio == 0.0 else min(5.0, max(0.2, 0.9 * ratio ** -0.2))


def _integrate(f, y0, params: FlowParams, blocks, on_state=None, postprocess=None,
               counts=None):
    """The adaptive driver shared by all flows.  Returns
    (t, y, status, steps, samples).

    ``on_state(t, y, dy)`` runs on the initial state and on every accepted
    state, with dy = f(y); that f(y) is the last right-hand side evaluated
    before the call, so a flow may reuse what its f computed along with it.
    A true return stops the run as ``converged``.
    ``postprocess(y, dy)`` maps each accepted state and its derivative to
    the pair that is kept; it must keep dy = f(y).  ``samples`` holds
    (t, y) at t = 0, after every ``params.sample_stride``-th accepted step,
    and at the final state exactly once.  A ``counts`` dict receives the
    number of ``rejected`` attempts and of right-hand-side ``evaluations``.
    Every new dt keeps dt * rho at most ``STABILITY_CAP``.
    """
    t = 0.0
    y = np.asarray(y0, dtype=float).copy()
    dy = f(y)
    if counts is None:
        counts = {}
    counts.update(rejected=0, evaluations=1)
    samples = [(t, y)]
    if on_state is not None and on_state(t, y, dy):
        return t, y, "converged", 0, samples
    dt = params.dt0
    steps = 0
    horizon = params.t_max * (1.0 - 1e-12)
    while t < horizon and steps < params.max_steps:
        dt = min(dt, params.t_max - t)
        y_new, dy_new, err, rho = _dp5_step(f, y, dy, dt)
        counts["evaluations"] += 6
        ratio = _block_error(err, y, blocks) / LOCAL_ERROR_TOL
        taken = dt
        dt *= _step_factor(ratio)
        if dt * rho > STABILITY_CAP:
            dt = STABILITY_CAP / rho
        if ratio <= 1.0:
            y, dy = (y_new, dy_new) if postprocess is None else postprocess(y_new, dy_new)
            t += taken
            steps += 1
            if steps % params.sample_stride == 0:
                samples.append((t, y))
            if on_state is not None and on_state(t, y, dy):
                status = "converged"
                break
        else:
            counts["rejected"] += 1
            if dt < STEP_UNDERFLOW:
                status = "dt_underflow"
                break
    else:
        status = "max_steps" if steps >= params.max_steps else "t_max"
    if samples[-1][0] != t:
        samples.append((t, y))
    return t, y, status, steps, samples


def _entry(spec: RepSpec, v: RepVector, g=None):
    """``(coords, exponent, w)``: the checked coordinates of v, rescaled by
    2^-exponent, and w = rho(g) coords, with g validated by ``apply_group``
    (singular: ValueError; condition above 1e12: warning); w = coords when g
    is None.  Raises ValueError where |w|^2 is below the moment map's floor."""
    coords, exponent = _checked_in_range(spec, v)
    w = coords if g is None else apply_group(spec, g, RepVector(spec, coords)).coords
    if w @ w < ZERO_NORM_FLOOR:
        raise ValueError("cannot flow the zero vector")
    return coords, exponent, w


def gradient_flow(ctx: CartanContext, spec: RepSpec, v0: RepVector,
                  params: FlowParams | None = None) -> FlowResult:
    """Integrate the direction of v' = -pi(m(v)) v.

    The state is u = v / |v|, integrated as u' = -(pi(m(u)) u - F(u) u) and
    projected back to the unit sphere after each accepted step, so the
    samples are unit vectors.  The run converges when the criticality
    residual drops below ``params.residual_tol``.
    """
    if params is None:
        params = FlowParams()
    act = rep_action(ctx, spec)
    coords = _entry(spec, v0)[0]
    nrm = np.linalg.norm(coords)
    moments = [None]

    def f(y):
        # the moment coefficients are scale-invariant, so renormalizing the
        # state leaves the kept ones valid
        moments[0], dy = _sphere_velocity(act, y)
        return dy

    energy_trace: list = []
    residual_trace: list = []

    def on_state(t, y, dy):
        # dy is the step's last stage, so moments[0] was evaluated at y and
        # the criticality residual is |dy| / |y|
        fval = float(moments[0] @ moments[0])
        res = float(np.linalg.norm(dy) / np.linalg.norm(y))
        energy_trace.append((t, fval))
        residual_trace.append((t, res))
        return res <= params.residual_tol

    def to_sphere(y, dy):
        # f is homogeneous of degree 1, so f(y / |y|) = f(y) / |y|
        nrm = np.linalg.norm(y)
        return y / nrm, dy / nrm

    counts: dict = {}
    _, y, status, steps, states = _integrate(f, coords / nrm, params, [slice(None)],
                                             on_state, to_sphere, counts)
    limit = rep_vector(spec, y / np.linalg.norm(y))
    return FlowResult(samples=[(t, rep_vector(spec, y)) for t, y in states],
                      energy_trace=energy_trace,
                      residual_trace=residual_trace,
                      converged=(status == "converged"),
                      limit=limit,
                      limit_moment=moment(ctx, spec, limit),
                      status=status,
                      steps=steps,
                      **counts)


def coupled_group_flow(ctx: CartanContext, spec: RepSpec, vbar: RepVector, h0,
                       params: FlowParams | None = None) -> CoupledFlowResult:
    """Co-integrate the raw gradient flow of v = rho(h0) vbar together with
    the group element h' = -m(v(t)) h, h(0) = h0.

    Along exact solutions v(t) = rho(h(t)) vbar; :func:`verify_flow_equivalence`
    integrates h' = -m(rho(h) vbar) h instead, so it does not measure this.
    A vbar of extreme scale is integrated rescaled by a power of two, and its
    v samples scaled back.
    """
    if params is None:
        params = FlowParams()
    act = rep_action(ctx, spec)
    n = ctx.n
    h0 = np.asarray(h0, dtype=float)
    exponent, v0 = _entry(spec, vbar, h0)[1:]
    d = spec.dim
    y0 = np.concatenate([v0, h0.reshape(-1)])
    blocks = [slice(0, d), slice(d, d + n * n)]

    def f(y):
        c = y[:d]
        h = y[d:].reshape(n, n)
        coeff, grad = act.moment_and_gradient(c)
        return np.concatenate([-grad, -(_moment_matrix(ctx, coeff) @ h).reshape(-1)])

    _, _, status, _, states = _integrate(f, y0, params, blocks)
    return CoupledFlowResult(v_samples=[(t, rep_vector(spec, np.ldexp(y[:d], exponent)))
                                        for t, y in states],
                             h_samples=[(t, y[d:].reshape(n, n).copy()) for t, y in states],
                             status=status)


def _sym(y, n):
    """The symmetric part of y read as an n x n matrix."""
    m = y.reshape(n, n)
    return 0.5 * (m + m.T)


def _orbit(ctx, act, h, hinv, vbar):
    """rho(h) vbar and m(rho(h) vbar) as a matrix, with hinv = h^{-1};
    ``vbar`` is a coordinate array."""
    v = _act(act.spec, h, hinv, vbar)
    return v, _moment_matrix(ctx, act.moment_coefficients(v))


def _metric_velocity(ctx, act, vbar, y):
    """S' = -2 r m(rho(r) vbar) r with r = sqrt(S), on the flattened S: the
    push-forward of the group velocity -m h under S = h^T h at h = r.
    ``vbar`` is a coordinate array.  Raises FlowError when S is not
    positive definite."""
    n = ctx.n
    try:
        r, rinv = _spd_root_and_inverse(_sym(y, n))
    except ValueError as exc:
        raise FlowError(f"metric lost positivity: {exc}") from exc
    return _sym(-2.0 * (r @ _orbit(ctx, act, r, rinv, vbar)[1] @ r), n).reshape(-1)


def metric_flow(ctx: CartanContext, spec: RepSpec, vbar: RepVector,
                s0: SpdMetric, params: FlowParams | None = None) -> list:
    """Integrate the metric flow on positive-definite matrices.

    The coset representative is always the SPD square root, which makes the
    driving term independent of the orthogonal factor.  vbar and sqrt(S0)
    pass ``apply_group``'s checks at entry, and a vbar of extreme scale is
    rescaled by a power of two, which leaves m and so the flow unchanged.
    Positivity is checked in every right-hand side evaluation; losing it
    aborts with a FlowError.
    """
    if params is None:
        params = FlowParams()
    n = ctx.n
    # checks the condition of sqrt(S0) and, on a torus, its diagonal
    coords = _entry(spec, vbar, _spd_root(_sym(s0.S, n)))[0]
    act = rep_action(ctx, spec)

    def f(y):
        return _metric_velocity(ctx, act, coords, y)

    _, y, _, _, states = _integrate(f, s0.S.reshape(-1), params, [slice(None)])
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
    h(t)^T h(t) over the horizon; ``t_horizon`` overrides ``params.t_max``.
    The report passes only when the run reached the horizon and neither
    deviation exceeds ``tol`` (a NaN one fails).  A vbar of extreme scale is
    first rescaled by a power of two.
    """
    if not tol > 0:
        raise ValueError("tol must be positive")
    if params is None:
        params = FlowParams()
    params = replace(params, t_max=float(t_horizon))
    act = rep_action(ctx, spec)
    n = ctx.n
    h0 = np.asarray(h0, dtype=float)
    vbar, _, v0 = _entry(spec, vbar, h0)
    d = spec.dim
    n2 = n * n
    y0 = np.concatenate([v0, h0.reshape(-1), (h0.T @ h0).reshape(-1)])
    blocks = [slice(0, d), slice(d, d + n2), slice(d + n2, d + 2 * n2)]
    orbit = [None]

    def f(y):
        h = y[d:d + n2].reshape(n, n)
        orbit[0], m = _orbit(ctx, act, h, np.linalg.inv(h), vbar)
        ds = _metric_velocity(ctx, act, vbar, y[d + n2:])
        return np.concatenate([-act.gradient(y[:d]), -(m @ h).reshape(-1), ds])

    worst = {"v": 0.0, "S": 0.0}

    def on_state(t, y, dy):
        # dy is the step's last stage, so orbit[0] is rho(h) vbar at y
        c = y[:d]
        h = y[d:d + n2].reshape(n, n)
        s = y[d + n2:].reshape(n, n)
        dev_v = np.linalg.norm(c - orbit[0]) / np.linalg.norm(c)
        dev_s = np.linalg.norm(s - h.T @ h) / np.linalg.norm(s)
        # np.maximum keeps a NaN deviation, which then fails the check
        worst["v"] = float(np.maximum(worst["v"], dev_v))
        worst["S"] = float(np.maximum(worst["S"], dev_s))

    _, y, status, _, _ = _integrate(f, y0, params, blocks, on_state)
    _invert(y[d:d + n2].reshape(n, n))  # warns if h(t) ended ill-conditioned
    return EquivalenceReport(max_dev_v=worst["v"], max_dev_S=worst["S"],
                             passed=bool(status == "t_max" and worst["v"] <= tol
                                         and worst["S"] <= tol),
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
