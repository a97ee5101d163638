import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp
from scipy.linalg import sqrtm

from momentflow import (FlowError, FlowParams, SpdMetric, adjoint, adjoint_from_matrix,
                        apply_group, apply_lie, brackets, build_context,
                        closed_form_moment, coupled_group_flow, criticality_residual, dual,
                        flow_trajectory_csv, gradient_flow, lambda2, metric_flow,
                        moment, optimal_class, rep_vector, standard, torus_weights,
                        verify_flow_equivalence)
from momentflow.bracket import bracket_preset
from momentflow.minnorm import min_norm_point

from conftest import random_orthogonal, random_spd, random_vector, random_well_conditioned


def _e(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_standard_vectors_are_critical_and_constant_energy():
    ctx = build_context(2, "GL")
    spec = standard(2)
    res = gradient_flow(ctx, spec, rep_vector(spec, [1.0, 1.0]))
    assert res.converged and res.steps == 0
    assert all(abs(f - 1.0) <= 1e-12 for _, f in res.energy_trace)


def test_adjoint_nilpotent_fixed_direction():
    ctx = build_context(2, "GL")
    spec = adjoint(2)
    res = gradient_flow(ctx, spec, adjoint_from_matrix(_e(2, 0, 1)))
    assert res.converged
    assert np.abs(res.limit_moment.matrix - np.diag([1.0, -1.0])).max() <= 1e-9
    # limit direction is E_12 itself
    direction = res.limit.coords / np.linalg.norm(res.limit.coords)
    assert np.abs(np.abs(direction) - adjoint_from_matrix(_e(2, 0, 1)).coords).max() <= 1e-9


def test_mixed_nilpotent_limit_spectrum():
    # oracle: the exact minimum-norm point of {e1-e2, e2-e3} is (1/2, 0, -1/2)
    cert = min_norm_point([(1, -1, 0), (0, 1, -1)])
    expected = np.array([float(x) for x in cert.eta])

    ctx = build_context(3, "GL")
    spec = adjoint(3)
    v = adjoint_from_matrix(_e(3, 0, 1) + 2.0 * _e(3, 1, 2))
    res = gradient_flow(ctx, spec, v)
    assert res.converged
    assert np.abs(res.limit_moment.spectrum - expected).max() <= 1e-5


def test_torus_weights_flow_limit_is_label():
    # for a torus module the flow limit moment is the exact min-norm point of
    # the state hull, with no choice of optimal torus involved
    spec = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    v = rep_vector(spec, [1.0, 2.0, 0.5, 1.0])
    label = optimal_class(spec, v)
    assert label.eta == (Fraction(6, 17), Fraction(4, 17), Fraction(4, 17))
    res = gradient_flow(build_context(3, "GL"), spec, v)
    assert res.converged
    expected = np.array([float(x) for x in label.eta])
    assert np.abs(res.limit_moment.spectrum - expected).max() <= 1e-6


def test_energy_monotone_and_limit_critical():
    ctx = build_context(4, "GL")
    spec = adjoint(4)
    v = adjoint_from_matrix(_e(4, 0, 1) + _e(4, 1, 2) + 0.3 * _e(4, 2, 3) + 0.1 * _e(4, 0, 3))
    res = gradient_flow(ctx, spec, v)
    assert res.converged
    es = [f for _, f in res.energy_trace]
    assert all(es[i + 1] <= es[i] + 1e-10 for i in range(len(es) - 1))
    assert criticality_residual(ctx, spec, res.limit) <= 2e-9


def test_flow_label_constant_on_k_orbit(rng):
    # The limit spectrum is an invariant of the K-orbit of the start vector.
    # A generic rotation leaves the exact null cone through rounding, so the
    # rotated trajectory passes the true critical point (residual dips to
    # ~1e-7) and would ultimately escape toward the semistable minimum; the
    # stopping threshold must catch the dip.
    from momentflow.jordan import Partition, jordan_vector
    ctx = build_context(5, "GL")
    v = jordan_vector(Partition((3, 2)))
    spec = v.spec
    k = random_orthogonal(rng, 5)
    res1 = gradient_flow(ctx, spec, v)
    res2 = gradient_flow(ctx, spec, apply_group(spec, k, v),
                         FlowParams(residual_tol=3e-7))
    assert res1.converged and res2.converged
    assert np.abs(res1.limit_moment.spectrum - res2.limit_moment.spectrum).max() <= 1e-6


def test_step_halving_stability(monkeypatch):
    from momentflow import flows
    ctx = build_context(3, "GL")
    spec = adjoint(3)
    v = adjoint_from_matrix(_e(3, 0, 1) + 2.0 * _e(3, 1, 2))
    monkeypatch.setattr(flows, "FIRST_STEP", 1e-2)
    s1 = gradient_flow(ctx, spec, v).limit_moment.spectrum
    monkeypatch.setattr(flows, "FIRST_STEP", 5e-3)
    s2 = gradient_flow(ctx, spec, v).limit_moment.spectrum
    assert np.abs(s1 - s2).max() <= 1e-8


def test_gradient_flow_max_steps_reported():
    ctx = build_context(3, "GL")
    spec = adjoint(3)
    v = adjoint_from_matrix(_e(3, 0, 1) + 2.0 * _e(3, 1, 2))
    res = gradient_flow(ctx, spec, v, FlowParams(max_steps=3, residual_tol=1e-14))
    assert not res.converged
    assert res.status == "max_steps"
    assert res.limit_moment is not None  # final spectrum still reported


def test_step_underflow_diagnosed():
    # a wildly oscillating right-hand side never meets the error target
    from momentflow.flows import _integrate
    f = lambda y: np.array([1e8 * np.sin(1e12 * y[0] ** 2 + 1.0)])
    t, y, status, steps, _ = _integrate(f, np.array([1.0]), FlowParams(),
                                        [slice(None)], lambda t, y, dy: None)
    assert status == "dt_underflow"
    # a NaN error estimate shrinks the step like any rejection
    nan_after_start = lambda y: np.array([np.nan]) if y[0] != 1.0 else -y
    t, y, status, steps, _ = _integrate(nan_after_start, np.array([1.0]), FlowParams(),
                                        [slice(None)])
    assert (status, steps) == ("dt_underflow", 0)


def test_flow_params_validation():
    with pytest.raises(ValueError):
        FlowParams(residual_tol=2.0)
    with pytest.raises(ValueError):
        FlowParams(max_steps=0)
    nan, inf = float("nan"), float("inf")
    for bad in ({"t_max": nan}, {"residual_tol": nan}, {"max_steps": nan},
                {"sample_stride": nan}, {"t_max": -inf}, {"residual_tol": inf}):
        with pytest.raises(ValueError):
            FlowParams(**bad)
    assert FlowParams(t_max=inf).t_max == inf


def test_flow_params_are_frozen():
    # one FlowParams() instance is the default argument of every flow
    with pytest.raises(dataclasses.FrozenInstanceError):
        FlowParams().t_max = 1.0


def test_zero_vector_rejected():
    ctx = build_context(2, "GL")
    with pytest.raises(ValueError):
        gradient_flow(ctx, standard(2), rep_vector(standard(2), [0.0, 0.0]))


def test_coupled_flow_closed_form():
    # vbar = e1, h0 = I: v(t) = e^{-t} e1 and h(t) = diag(e^{-t}, 1, 1)
    ctx = build_context(3, "GL")
    spec = standard(3)
    vbar = rep_vector(spec, [1.0, 0.0, 0.0])
    params = FlowParams(t_max=2.0, sample_stride=25)
    res = coupled_group_flow(ctx, spec, vbar, np.eye(3), params)
    for (t, v), (t2, h) in zip(res.v_samples, res.h_samples):
        assert t == t2
        assert abs(v.coords[0] - np.exp(-t)) <= 1e-9
        assert np.abs(h - np.diag([np.exp(-t), 1.0, 1.0])).max() <= 1e-9


def test_coupled_flow_constant_at_normal_matrix():
    ctx = build_context(2, "GL")
    spec = adjoint(2)
    vbar = adjoint_from_matrix(np.diag([1.0, 2.0]))
    params = FlowParams(t_max=1.0)
    res = coupled_group_flow(ctx, spec, vbar, np.eye(2), params)
    t, v = res.v_samples[-1]
    t2, h = res.h_samples[-1]
    assert np.abs(v.coords - vbar.coords).max() <= 1e-12
    assert np.abs(h - np.eye(2)).max() <= 1e-12


def test_coupled_flow_tracks_group_orbit(rng):
    ctx = build_context(3, "GL")
    spec = adjoint(3)
    vbar = adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2))
    h0 = random_well_conditioned(rng, 3)
    params = FlowParams(t_max=3.0, sample_stride=20)
    res = coupled_group_flow(ctx, spec, vbar, h0, params)
    for (t, v), (_, h) in zip(res.v_samples, res.h_samples):
        pred = apply_group(spec, h, vbar).coords
        assert np.linalg.norm(v.coords - pred) <= 1e-6 * np.linalg.norm(v.coords)


def test_metric_flow_constant_at_normal_matrix():
    ctx = build_context(2, "GL")
    spec = adjoint(2)
    vbar = adjoint_from_matrix(np.diag([2.0, -1.0]))
    out = metric_flow(ctx, spec, vbar, SpdMetric(np.eye(2)), FlowParams(t_max=1.0))
    t, s = out[-1]
    assert np.abs(s.S - np.eye(2)).max() <= 1e-12


def test_metric_flow_closed_form():
    # S(t) = diag(e^{-2t}, 1, 1) from the coupled closed form S = h^T h
    ctx = build_context(3, "GL")
    spec = standard(3)
    vbar = rep_vector(spec, [1.0, 0.0, 0.0])
    out = metric_flow(ctx, spec, vbar, SpdMetric(np.eye(3)), FlowParams(t_max=2.0, sample_stride=25))
    for t, s in out:
        assert np.abs(s.S - np.diag([np.exp(-2.0 * t), 1.0, 1.0])).max() <= 1e-8


def test_metric_flow_matches_coupled_group_flow(rng):
    ctx = build_context(3, "GL")
    spec = adjoint(3)
    vbar = adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2))
    h0 = random_well_conditioned(rng, 3)
    params = FlowParams(t_max=2.0, sample_stride=1)
    coupled = coupled_group_flow(ctx, spec, vbar, h0, params)
    metric = dict(metric_flow(ctx, spec, vbar, SpdMetric(h0.T @ h0), params))
    checked = 0
    for t, h in coupled.h_samples:
        if t in metric:
            target = h.T @ h
            assert np.linalg.norm(metric[t].S - target) <= 1e-6 * np.linalg.norm(target)
            checked += 1
    assert checked >= 2


def test_spd_metric_validation():
    with pytest.raises(ValueError):
        SpdMetric(np.array([[1.0, 0.5], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        SpdMetric(np.diag([1.0, -1.0]))
    # diag(1, inf) used to be accepted
    for bad in (np.inf, np.nan):
        with pytest.raises(ValueError, match="metric must be finite"):
            SpdMetric(np.diag([1.0, bad]))


def test_verify_flow_equivalence_standard(rng):
    ctx = build_context(2, "GL")
    spec = standard(2)
    vbar = rep_vector(spec, [1.0, 0.0])
    rep = verify_flow_equivalence(ctx, spec, vbar, np.eye(2), 5.0)
    assert rep.passed
    rep = verify_flow_equivalence(ctx, spec, vbar, random_well_conditioned(rng, 2), 3.0)
    assert rep.passed


def test_verify_flow_equivalence_critical_bracket():
    # at a critical direction the vector flow only rescales
    ctx = build_context(3, "GL")
    spec = brackets(3)
    vbar = bracket_preset("heisenberg", 3)
    rep = verify_flow_equivalence(ctx, spec, vbar, np.eye(3), 5.0)
    assert rep.passed


def test_trajectory_csv_shape():
    ctx = build_context(2, "GL")
    spec = standard(2)
    res = gradient_flow(ctx, spec, rep_vector(spec, [3.0, 4.0]))
    text = flow_trajectory_csv(res)
    lines = text.strip().split("\n")
    assert lines[0] == "t,F,residual,c0,c1"
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert abs(float(first[1]) - 1.0) <= 1e-12
    # renormalized start: (3,4)/5
    assert abs(float(first[3]) - 0.6) <= 1e-15


def test_attempted_step_costs_twelve_evaluations(monkeypatch):
    # y' = -y from a first step far too large for the error target, so the
    # count covers rejected as well as accepted steps; the one evaluation
    # beyond twelve per attempt is f(y0), the first step's first stage
    from momentflow import flows
    attempts = {"n": 0}
    block_error = flows._block_error

    def counting_block_error(*args):
        attempts["n"] += 1  # called exactly once per attempted step
        return block_error(*args)

    monkeypatch.setattr(flows, "_block_error", counting_block_error)
    monkeypatch.setattr(flows, "FIRST_STEP", 1.0)
    evals = {"n": 0}

    def f(y):
        evals["n"] += 1
        return -y

    t, y, status, steps, _ = flows._integrate(f, np.array([1.0]), FlowParams(t_max=2.0),
                                              [slice(None)], lambda t, y, dy: None)
    assert status == "t_max" and abs(y[0] - np.exp(-2.0)) <= 1e-9
    assert attempts["n"] > steps > 0
    assert evals["n"] == 12 * attempts["n"] + 1


def test_driver_owns_sampling_and_stopping(monkeypatch):
    # y' = -y: on_state sees every state, samples are t = 0, every third
    # accepted step and the final state once, and a true on_state stops
    from momentflow import flows
    from momentflow.flows import _integrate
    monkeypatch.setattr(flows, "FIRST_STEP", 0.1)
    params = FlowParams(t_max=2.0, sample_stride=3)
    y0 = np.array([1.0])
    seen = []

    def record(t, y, dy):
        assert dy[0] == -y[0]  # the hook gets f at the state it sees
        seen.append(t)

    t, y, status, steps, samples = _integrate(lambda y: -y, y0, params, [slice(None)], record)
    assert status == "t_max" and steps > 6 and len(seen) == steps + 1
    expected = seen[::3] + ([t] if steps % 3 else [])
    assert [s for s, _ in samples] == expected and expected[-1] == t
    assert samples[-1][1][0] == y[0]

    t, y, status, steps, samples = _integrate(lambda y: -y, y0, params, [slice(None)],
                                              lambda t, y, dy: True)
    assert (status, steps, len(samples)) == ("converged", 0, 1)
    assert t == samples[0][0] == 0.0 and samples[0][1][0] == 1.0

    for k in (3, 4):
        seen = []

        def stop_at_k(t, y, dy):
            seen.append(t)
            return len(seen) == k + 1

        t, y, status, steps, samples = _integrate(lambda y: -y, y0, params, [slice(None)],
                                                  stop_at_k)
        assert (status, steps) == ("converged", k) and t == seen[-1]
        assert [s for s, _ in samples] == seen[::3] + ([t] if k % 3 else [])


def test_entry_warnings_name_the_caller():
    # the condition warning at entry points at this file, not at flows.py
    import warnings
    ctx = build_context(2, "GL")
    spec = standard(2)
    vbar = rep_vector(spec, [1.0, 1.0])
    h0 = np.diag([1.0, 1e-13])
    params = FlowParams(t_max=1.0)
    calls = [lambda: apply_group(spec, h0, vbar),
             lambda: coupled_group_flow(ctx, spec, vbar, h0, params),
             lambda: metric_flow(ctx, spec, vbar, SpdMetric(h0 @ h0), params),
             lambda: verify_flow_equivalence(ctx, spec, vbar, h0, 1.0)]
    for call in calls:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            call()
        assert caught[0].message.args[0].startswith("group element has condition number 1e+13")
        assert all(w.filename == __file__ for w in caught)


def test_singular_h0_rejected_before_integrating(monkeypatch):
    from momentflow import flows

    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(flows, "_integrate", no_integration)
    ctx = build_context(2, "GL")
    vbar = adjoint_from_matrix(_e(2, 0, 1))
    singular = np.array([[1.0, 2.0], [2.0, 4.0]])
    with pytest.raises(ValueError, match="singular group element"):
        verify_flow_equivalence(ctx, vbar.spec, vbar, singular, 1.0)
    with pytest.raises(ValueError, match="singular group element"):
        coupled_group_flow(ctx, vbar.spec, vbar, singular)
    non_square = np.ones((2, 3))
    with pytest.raises(ValueError, match="g must be 2 x 2"):
        verify_flow_equivalence(ctx, vbar.spec, vbar, non_square, 1.0)
    with pytest.raises(ValueError, match="g must be 2 x 2"):
        coupled_group_flow(ctx, vbar.spec, vbar, non_square)


def test_metric_flow_validates_at_entry(monkeypatch):
    # the metric flow checks vbar against the SPD root of S0 once, as
    # apply_group does, before integrating
    from momentflow import flows

    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(flows, "_integrate", no_integration)
    torus = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    vbar = rep_vector(torus, [1.0, 2.0, 0.5, 1.0])
    s0 = SpdMetric(np.eye(3) + 0.1 * (_e(3, 0, 1) + _e(3, 1, 0)))
    with pytest.raises(ValueError, match="not diagonal"):
        metric_flow(build_context(3, "GL"), torus, vbar, s0)
    # adjoint(2) and standard(4) have the same dimension
    other = adjoint_from_matrix(_e(2, 0, 1))
    with pytest.raises(ValueError, match="does not belong"):
        metric_flow(build_context(4, "GL"), standard(4), other, SpdMetric(np.eye(4)))


def test_metric_flow_ill_conditioned_s0_warns_at_entry_and_exit_only():
    import warnings
    ctx = build_context(2, "GL")
    spec = standard(2)
    vbar = rep_vector(spec, [1.0, 1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        metric_flow(ctx, spec, vbar, SpdMetric(np.diag([1.0, 1e-26])), FlowParams(t_max=1.0))
    messages = [str(w.message) for w in caught]
    assert 1 <= len(messages) <= 2
    assert messages[0].startswith("group element has condition number 1e+13")


def test_ill_conditioned_h0_warns_at_entry_and_exit_only():
    # validation sits at the API boundary: one warning for h0 and at most
    # one for the final h(t), not one per right-hand-side evaluation
    import warnings
    ctx = build_context(2, "GL")
    spec = standard(2)
    vbar = rep_vector(spec, [1.0, 1.0])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        rep = verify_flow_equivalence(ctx, spec, vbar, np.diag([1.0, 1e-13]), 1.0)
    messages = [str(w.message) for w in caught]
    assert 1 <= len(messages) <= 2
    assert all("condition number" in m for m in messages)
    assert messages[0].startswith("group element has condition number 1e+13")
    assert rep.passed


def test_verify_flow_equivalence_torus_module():
    # torus modules are only acted on by diagonal matrices, and the group
    # and metric flows keep a diagonal h0 diagonal
    spec = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    vbar = rep_vector(spec, [1.0, 2.0, 0.5, 1.0])
    h0 = np.diag([1.5, 0.7, 1.2])
    for group in ("GL", "SL"):
        rep = verify_flow_equivalence(build_context(3, group), spec, vbar, h0, 5.0)
        assert rep.passed, (group, rep)
    with pytest.raises(ValueError, match="not diagonal"):
        verify_flow_equivalence(build_context(3, "GL"), spec, vbar,
                                h0 + 0.1 * _e(3, 0, 1), 1.0)


@pytest.mark.parametrize("spec", [adjoint(3), brackets(3), lambda2(4)],
                         ids=["adjoint3", "brackets3", "lambda2_4"])
def test_trajectories_match_scipy_dop853(rng, spec):
    # scipy's eighth-order integrator at tight tolerances is the reference;
    # its right-hand sides use the closed-form moment map, apply_lie and
    # scipy's sqrtm, none of which the flows use
    n = spec.n
    ctx = build_context(n, "GL")
    vbar = random_vector(rng, spec)
    params = FlowParams(t_max=2.0, sample_stride=1)

    def reference(f, y0, times):
        sol = solve_ivp(lambda t, y: f(y), (0.0, 2.0), y0, method="DOP853",
                        rtol=1e-13, atol=1e-15, t_eval=times)
        assert sol.success
        return sol.y.T

    def closed_m(coords):
        return closed_form_moment(spec, rep_vector(spec, coords)).matrix

    def gradient_velocity(c):
        return -apply_lie(spec, closed_m(c), rep_vector(spec, c)).coords

    # the velocity is homogeneous of degree 1, so the direction flow is the
    # raw one divided by its norm; the raw flow itself is the v block of the
    # group flow from h0 = I
    flow = gradient_flow(ctx, spec, vbar, params)
    coupled = coupled_group_flow(ctx, spec, vbar, np.eye(n), params)
    for samples, on_sphere in ((flow.samples, True), (coupled.v_samples, False)):
        times = [t for t, _ in samples]
        expected = reference(gradient_velocity, vbar.coords, times)
        if on_sphere:
            expected /= np.linalg.norm(expected, axis=1, keepdims=True)
        assert len(times) > 10
        for (_, v), ref in zip(samples, expected):
            assert np.linalg.norm(v.coords - ref) <= 1e-8 * np.linalg.norm(ref)

    def metric_velocity(y):
        s = y.reshape(n, n)
        h = np.real(sqrtm(s))
        big = np.linalg.solve(h, closed_m(apply_group(spec, h, vbar).coords) @ h)
        return -(big.T @ s + s @ big).reshape(-1)

    s0 = random_spd(rng, n, 0.5, 2.0)
    metric = metric_flow(ctx, spec, vbar, SpdMetric(s0), params)
    expected = reference(metric_velocity, s0.reshape(-1), [t for t, _ in metric])
    assert len(metric) > 10
    for (_, s), ref in zip(metric, expected):
        assert np.linalg.norm(s.S.reshape(-1) - ref) <= 1e-8 * np.linalg.norm(ref)


def test_right_hand_side_evaluations_at_most_half_of_step_doubling(monkeypatch, rng):
    # work counters, not wall time: the step-doubling RK4 driver that the
    # Dormand-Prince drivers replaced took 5,181 and 10,615 evaluations here,
    # and the Dormand-Prince 5(4) driver 1,321 and 541
    from momentflow import flows
    evals = {"n": 0}
    integrate = flows._integrate

    def counting_integrate(f, *args, **kwargs):
        def counted(y):
            evals["n"] += 1
            return f(y)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(flows, "_integrate", counting_integrate)
    vbar = adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2))
    rep = verify_flow_equivalence(build_context(3, "GL"), vbar.spec, vbar,
                                  random_well_conditioned(rng, 3), 5.0)
    assert rep.passed and evals["n"] <= 5_181 // 2

    # the stopping test reads the last stage, so every gradient is a stage
    from momentflow.momentmap import RepAction
    gradients = {"n": 0}

    def counting(method):
        def counted(self, coords):
            gradients["n"] += 1
            return method(self, coords)
        return counted

    for name in ("gradient", "moment_and_gradient"):
        monkeypatch.setattr(RepAction, name, counting(getattr(RepAction, name)))
    evals["n"] = 0
    mu = bracket_preset("chain", 6).normalized()
    res = gradient_flow(build_context(6, "GL"), mu.spec, mu)
    assert res.converged and evals["n"] <= 10_615 // 2
    assert gradients["n"] == evals["n"]


_torus_flow_cases = st.integers(2, 3).flatmap(lambda n: st.lists(
    st.tuples(st.tuples(*[st.integers(-2, 2)] * n), st.sampled_from([-2.0, -1.0, 0.5, 1.0, 3.0])),
    min_size=2, max_size=6))


@settings(max_examples=25, deadline=None, database=None)
@given(_torus_flow_cases)
def test_torus_flow_limit_moment_is_min_norm_point(case):
    # every coordinate is nonzero, so the state is every weight and the
    # limit moment is the exact minimum-norm point of their hull
    weights = [w for w, _ in case]
    cert = min_norm_point(weights)
    # at q = 0, or with a weight off the support on the critical hyperplane,
    # the flow approaches its limit only polynomially in t; the certificate
    # already asserts that every support coefficient is positive
    assume(cert.q > 0)
    support = set(cert.support)
    assume(all(sum(a * b for a, b in zip(w, cert.eta)) > cert.q
               for w in weights if w not in support))
    spec = torus_weights(weights)
    res = gradient_flow(build_context(spec.n, "GL"), spec, rep_vector(spec, [c for _, c in case]))
    expected = np.array([float(x) for x in cert.eta])
    assert np.abs(np.diag(res.limit_moment.matrix) - expected).max() <= 1e-6


@pytest.mark.parametrize("group", ["GL", "SL"])
def test_sphere_velocity_is_tangent(rng, group):
    # <pi(m(y)) y, y> = F(y) |y|^2, so removing F(y) y leaves a velocity
    # orthogonal to y: the flow moves the direction only
    from momentflow.momentmap import _sphere_velocity, rep_action
    from momentflow.reps import dual
    ctx = build_context(3, group)
    torus = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    for spec in (standard(3), dual(3), adjoint(3), lambda2(3), brackets(3), torus):
        act = rep_action(ctx, spec)
        for _ in range(5):
            y = rng.normal(size=spec.dim) * rng.uniform(0.1, 10.0)
            coeff, dy = _sphere_velocity(act, y)
            grad = act.gradient(y)
            assert abs(dy @ y) <= 1e-14 * np.linalg.norm(grad) * np.linalg.norm(y)
            tangent = grad - (coeff @ coeff) * y
            assert np.abs(dy + tangent).max() <= 1e-14 * np.linalg.norm(grad)


def test_critical_input_takes_no_steps():
    # the velocity vanishes at a critical direction: the first residual stops the run
    ctx = build_context(3, "GL")
    for v in (adjoint_from_matrix(_e(3, 0, 1)), rep_vector(standard(3), [1.0, 1.0, 1.0])):
        res = gradient_flow(ctx, v.spec, v)
        assert (res.status, res.steps, res.rejected, res.evaluations) == ("converged", 0, 0, 1)
        assert res.residual_trace[0][1] <= 1e-15


def _dop853_tableau():
    """(A, b, E5, E3) of the driver as dense arrays: A is 12 x 12."""
    from momentflow import flows
    a = np.zeros((12, 12))
    for i, row in enumerate(flows._DOP_A[:-1], start=1):
        a[i, :i] = row
    return a, flows._DOP_A[-1], flows._DOP_E[0], flows._DOP_E[1]


def test_dop853_tableau_order_conditions():
    a, b, e5, e3 = _dop853_tableau()
    c = a.sum(axis=1)
    # the quadrature conditions of order 8
    for k in range(8):
        assert abs(b @ c ** k - 1.0 / (k + 1)) <= 1e-15
    assert abs(c[11] - 1.0) <= 1e-15
    # both error estimates are differences of consistent weights
    assert abs(e5.sum()) <= 1e-15 and abs(e3.sum()) <= 1e-15


def test_dop853_tableau_is_scipys_bit_for_bit():
    from scipy.integrate._ivp import dop853_coefficients as ref
    a, b, e5, e3 = _dop853_tableau()
    assert np.array_equal(a, ref.A[:12, :12]) and np.array_equal(b, ref.B)
    assert np.array_equal(e5, ref.E5) and np.array_equal(e3, ref.E3)
    # the row sums of A are the nodes
    assert np.abs(a.sum(axis=1) - ref.C[:12]).max() <= 1e-15


def test_equivalence_evaluations_at_most_half_of_dormand_prince_5(monkeypatch, rng):
    # work counters, not wall time: the Dormand-Prince 5(4) driver took
    # 1,321 evaluations here
    from momentflow import flows
    evals = {"n": 0}
    integrate = flows._integrate

    def counting_integrate(f, *args, **kwargs):
        def counted(y):
            evals["n"] += 1
            return f(y)
        return integrate(counted, *args, **kwargs)

    monkeypatch.setattr(flows, "_integrate", counting_integrate)
    vbar = adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2))
    rep = verify_flow_equivalence(build_context(3, "GL"), vbar.spec, vbar,
                                  random_well_conditioned(rng, 3), 5.0)
    assert rep.passed and evals["n"] <= 1_321 // 2


def test_direction_flow_work_counters(monkeypatch):
    # counters, not wall time: integrating v' = -pi(m(v)) v and renormalizing
    # took 2,797 evaluations on chain(6) and 757 accepted steps on chain(7),
    # and the sphere flow under Dormand-Prince 5(4) 541 evaluations and 101
    # accepted steps
    from momentflow.momentmap import RepAction
    gradients = {"n": 0}

    def counting(method):
        def counted(self, coords):
            gradients["n"] += 1
            return method(self, coords)
        return counted

    for name in ("gradient", "moment_and_gradient"):
        monkeypatch.setattr(RepAction, name, counting(getattr(RepAction, name)))
    for n, max_evaluations, max_steps in ((6, 1_000, None), (7, None, 200)):
        mu = bracket_preset("chain", n).normalized()
        ctx = build_context(n, "GL")
        gradients["n"] = 0
        res = gradient_flow(ctx, mu.spec, mu)
        assert res.converged
        assert res.evaluations == gradients["n"] == 1 + 12 * (res.steps + res.rejected)
        assert max_evaluations is None or res.evaluations <= max_evaluations
        assert max_steps is None or res.steps <= max_steps


def test_flows_at_extreme_scales_match_the_unscaled_vector(rng):
    # u's largest entry is in [1/2, 1), so 2^(+-600) u is rescaled to u
    # exactly, and the direction flow is u's
    ctx = build_context(3, "GL")
    spec = adjoint(3)
    c = rng.normal(size=spec.dim)
    u = rep_vector(spec, 0.75 * c / np.abs(c).max())
    params = FlowParams(t_max=3.0, sample_stride=1)
    base = gradient_flow(ctx, spec, u, params)
    h0 = random_well_conditioned(rng, 3)
    report = verify_flow_equivalence(ctx, spec, u, h0, 1.0)
    for k in (600, -600):
        v = rep_vector(spec, np.ldexp(u.coords, k))
        res = gradient_flow(ctx, spec, v, params)
        assert (res.steps, res.energy_trace, res.residual_trace) == (
            base.steps, base.energy_trace, base.residual_trace)
        assert np.array_equal(res.limit.coords, base.limit.coords)
        for (t, w), (s, x) in zip(res.samples, base.samples, strict=True):
            assert t == s and np.array_equal(w.coords, x.coords)
        assert verify_flow_equivalence(ctx, spec, v, h0, 1.0) == report


def test_raw_flow_of_a_tiny_vector_is_the_scaled_unit_run():
    # v block of the group flow from h0 = I is the raw flow v' = -pi(m(v)) v;
    # the step error is relative to max(1, |block|), so at 1e-100 the h block
    # sets the steps.  The raw gradient flow, integrated alone at that scale,
    # took 6 steps and stopped at spectrum (1, 0, -1), residual 5.4e-4.
    ctx = build_context(3, "GL")
    x = _e(3, 0, 1) + 2.0 * _e(3, 1, 2)
    params = FlowParams(t_max=20.0)
    unit = coupled_group_flow(ctx, adjoint(3), adjoint_from_matrix(x), np.eye(3), params)
    vbar = adjoint_from_matrix(1e-100 * x)
    tiny = coupled_group_flow(ctx, adjoint(3), vbar, np.eye(3), params)
    assert unit.status == tiny.status == "t_max"
    (t, v), (s, u) = tiny.v_samples[-1], unit.v_samples[-1]
    assert t == s == 20.0
    assert np.linalg.norm(v.coords - 1e-100 * u.coords) <= 1e-8 * np.linalg.norm(v.coords)
    assert np.abs(tiny.h_samples[-1][1] - unit.h_samples[-1][1]).max() <= 1e-8 * np.abs(
        unit.h_samples[-1][1]).max()
    # along the run v(t) = rho(h(t)) vbar
    for (_, v), (_, h) in zip(tiny.v_samples, tiny.h_samples, strict=True):
        pred = apply_group(vbar.spec, h, vbar).coords
        assert np.linalg.norm(v.coords - pred) <= 1e-8 * np.linalg.norm(v.coords)
    assert np.abs(moment(ctx, vbar.spec, v).spectrum - [0.5, 0.0, -0.5]).max() <= 1e-6


def test_gradient_flow_rejects_a_vector_of_another_spec():
    # adjoint(2) and standard(4) have the same dimension; the limit used to
    # come back labelled standard(4)
    with pytest.raises(ValueError, match="does not belong"):
        gradient_flow(build_context(4, "GL"), standard(4), adjoint_from_matrix(_e(2, 0, 1)))


def test_metric_flow_of_a_power_of_two_multiple_is_bit_identical():
    # m is scale-invariant and 2^-700 x is rescaled by a power of two, which
    # scales every product of the moment map exactly; unrescaled, 1e-200 x
    # had a "zero" moment map and 1e200 x overflowed it
    ctx = build_context(3, "GL")
    x = _e(3, 0, 1) + 2.0 * _e(3, 1, 2)
    s0 = SpdMetric(np.eye(3) + 0.1 * (_e(3, 0, 1) + _e(3, 1, 0)))
    params = FlowParams(t_max=5.0, sample_stride=1)
    base = metric_flow(ctx, adjoint(3), adjoint_from_matrix(x), s0, params)
    for k in (-700, 700):
        run = metric_flow(ctx, adjoint(3), adjoint_from_matrix(np.ldexp(x, k)), s0, params)
        assert len(run) == len(base)
        for (t, s), (u, r) in zip(run, base):
            assert t == u and np.array_equal(s.S, r.S)
    for scale in (1e-200, 1e200):
        run = metric_flow(ctx, adjoint(3), adjoint_from_matrix(scale * x), s0, params)
        assert run[-1][0] == 5.0
        assert np.abs(run[-1][1].S - base[-1][1].S).max() <= 1e-8


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_coupled_flow_at_extreme_scales_is_the_scaled_unit_run(scale):
    # unrescaled, 1e-200 x had a "zero" moment map and 1e200 x stopped at
    # t 0 with dt_underflow
    ctx = build_context(3, "GL")
    x = _e(3, 0, 1) + 2.0 * _e(3, 1, 2)
    params = FlowParams(t_max=5.0)
    unit = coupled_group_flow(ctx, adjoint(3), adjoint_from_matrix(x), np.eye(3), params)
    run = coupled_group_flow(ctx, adjoint(3), adjoint_from_matrix(scale * x), np.eye(3), params)
    assert run.status == unit.status == "t_max"
    (t, v), (s, u) = run.v_samples[-1], unit.v_samples[-1]
    assert t == s == 5.0
    assert np.linalg.norm(v.coords / scale - u.coords) <= 1e-8 * np.linalg.norm(u.coords)
    h, k = run.h_samples[-1][1], unit.h_samples[-1][1]
    assert np.abs(h - k).max() <= 1e-8 * np.abs(k).max()


def test_metric_flow_positivity_loss_is_a_flow_error():
    # S0 = 1e-20 diag(2, 1, 0.5) turns indefinite inside a step's stages,
    # where the root of S is taken, not at an accepted state
    ctx = build_context(3, "GL")
    vbar = adjoint_from_matrix(_e(3, 0, 1) + 2.0 * _e(3, 1, 2))
    s0 = SpdMetric(1e-20 * np.diag([2.0, 1.0, 0.5]))
    with pytest.raises(FlowError, match="metric lost positivity"):
        metric_flow(ctx, adjoint(3), vbar, s0, FlowParams(t_max=5.0))


def test_equivalence_fails_a_run_that_stops_short():
    ctx = build_context(2, "GL")
    vbar = adjoint_from_matrix(_e(2, 0, 1))
    h0 = np.array([[1.0, 0.5], [0.0, 1.0]])
    # max_steps ends the run at t 0.048 of 5.0: nothing past it was compared
    rep = verify_flow_equivalence(ctx, vbar.spec, vbar, h0, 5.0, FlowParams(max_steps=3))
    assert not rep.passed and rep.max_dev_v <= 1e-6 and rep.max_dev_S <= 1e-6
    assert verify_flow_equivalence(ctx, vbar.spec, vbar, h0, 5.0).passed
    # h0^T h0 overflows, so S starts infinite: its deviation is NaN, which
    # max() used to drop
    with np.errstate(over="ignore", invalid="ignore"):
        rep = verify_flow_equivalence(ctx, vbar.spec, vbar, 1e200 * np.eye(2), 5.0)
    assert not rep.passed and np.isnan(rep.max_dev_S)


def test_direction_flow_converges_below_the_local_error_target():
    # near the limit the sphere velocity vanishes and only stability bounds
    # dt; uncapped, dt settles near 1.4 against the Jacobian eigenvalue -2.4,
    # where DP5 no longer damps that mode, and the residual hovers near 1e-10
    # until t_max (803 steps); the raw field's radial decay held dt near 0.03
    # (363 steps)
    mu = bracket_preset("chain", 5).normalized()
    res = gradient_flow(build_context(5, "GL"), mu.spec, mu, FlowParams(residual_tol=1e-12))
    assert res.converged and res.steps <= 200
    assert res.residual_trace[-1][1] <= 1e-12


@pytest.mark.parametrize("spec", [standard(3), dual(3), adjoint(3), lambda2(3), brackets(3),
                                  torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])],
                         ids=lambda s: s.family)
def test_metric_velocity_is_the_pushed_forward_group_velocity(rng, spec):
    # S' = -2 r m(rho(r) vbar) r, r = sqrt(S), against the conjugated form
    # -(M^T S + S M) with M = r^-1 m(rho(r) vbar) r as the oracle
    from momentflow.flows import _metric_velocity
    from momentflow.momentmap import rep_action
    from momentflow.reps import _act
    ctx = build_context(3, "GL")
    act = rep_action(ctx, spec)
    for _ in range(5):
        vbar = rng.normal(size=spec.dim)
        s = (np.diag(rng.uniform(0.2, 3.0, 3)) if spec.family == "TorusWeights"
             else random_spd(rng, 3))
        r = sqrtm(s).real
        rinv = np.linalg.inv(r)
        big = rinv @ moment(ctx, spec, rep_vector(spec, _act(spec, r, rinv, vbar))).matrix @ r
        oracle = -(big.T @ s + s @ big)
        got = _metric_velocity(ctx, act, vbar, s.reshape(-1)).reshape(3, 3)
        assert np.linalg.norm(got - oracle) <= 1e-12 * np.linalg.norm(oracle)


def test_every_flow_rejects_an_underflowing_start_at_entry(monkeypatch):
    # one zero test at the one entry, the moment map's own floor: before,
    # rho(h0) vbar = (0, 1e-300) passed entry and the first right-hand side
    # raised "moment map is undefined at the zero vector"
    import warnings
    from momentflow import flows

    def no_integration(*args, **kwargs):
        raise AssertionError("integration started")

    monkeypatch.setattr(flows, "_integrate", no_integration)
    ctx = build_context(2, "GL")
    spec = standard(2)
    vbar = rep_vector(spec, [0.0, 1.0])
    tiny = np.diag([1.0, 1e-300])
    calls = [lambda: gradient_flow(ctx, spec, rep_vector(spec, [0.0, 0.0])),
             lambda: coupled_group_flow(ctx, spec, vbar, tiny),
             lambda: verify_flow_equivalence(ctx, spec, vbar, tiny, 1.0),
             # sqrt(S0) = diag(1, 1e-155), so |rho(sqrt(S0)) vbar|^2 = 1e-310
             lambda: metric_flow(ctx, spec, vbar, SpdMetric(np.diag([1.0, 1e-310])))]
    for call in calls:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the condition-number warning
            with pytest.raises(ValueError, match="^cannot flow the zero vector$"):
                call()


@pytest.mark.parametrize("spec, h0", [(adjoint(3), np.array([[1.0, 0.5, 0.0],
                                                             [0.0, 1.0, 0.2],
                                                             [0.3, 0.0, 1.0]])),
                                      (brackets(3), np.diag([1.5, 0.7, 1.2]))],
                         ids=["adjoint3", "brackets3"])
def test_equivalence_reads_the_orbit_off_the_last_stage(monkeypatch, rng, spec, h0):
    # max_dev_v takes rho(h) vbar from the step's last right-hand side; it
    # equals, bit for bit, a reference that inverts each accepted h afresh
    from momentflow import flows
    from momentflow.reps import _act
    states = []
    integrate = flows._integrate

    def recording(f, y0, params, blocks, on_state=None, *args):
        def on_state_recorded(t, y, dy):
            states.append(y.copy())
            return on_state(t, y, dy)
        return integrate(f, y0, params, blocks, on_state_recorded, *args)

    monkeypatch.setattr(flows, "_integrate", recording)
    vbar = random_vector(rng, spec)
    rep = verify_flow_equivalence(build_context(3, "GL"), spec, vbar, h0, 5.0)
    d = spec.dim
    ref = 0.0
    for y in states:
        h = y[d:d + 9].reshape(3, 3)
        pred = _act(spec, h, np.linalg.inv(h), vbar.coords)
        ref = float(np.maximum(ref, np.linalg.norm(y[:d] - pred) / np.linalg.norm(y[:d])))
    assert len(states) > 10 and rep.passed
    assert rep.max_dev_v == ref
