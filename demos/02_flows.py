"""The three equivalent flows: on vectors, on group elements, on metrics.

The negative gradient flow of the energy F = |m(v)|^2 drives a vector
toward a critical direction whose moment value is the stratum label.  The
same trajectory can be written as a flow of group elements h(t) acting on a
frozen vector, or as a flow of scalar products S(t) = h(t)^T h(t).  This
script integrates all three and measures how far apart they drift.
"""

import numpy as np

from momentflow import (FlowParams, SpdMetric, adjoint, adjoint_from_matrix,
                        build_context, coupled_group_flow, gradient_flow,
                        metric_flow, rep_vector, standard,
                        verify_flow_equivalence)

np.set_printoptions(precision=6, suppress=True)

ctx = build_context(3, "GL")
spec = adjoint(3)

# A mixed nilpotent: not critical at t = 0, flows to the (1/2, 0, -1/2)
# critical direction predicted by the exact stratum label.
x = adjoint_from_matrix(np.array([[0.0, 1, 0], [0, 0, 2], [0, 0, 0]]))
res = gradient_flow(ctx, spec, x)
print(f"gradient flow: {res.status} after {res.steps} steps")
print("energy start -> end: %.6f -> %.6f" % (res.energy_trace[0][1], res.energy_trace[-1][1]))
print("limit moment spectrum:", res.limit_moment.spectrum)

# Energy is non-increasing along the whole run:
es = [f for _, f in res.energy_trace]
print("energy monotone:", all(b <= a + 1e-10 for a, b in zip(es, es[1:])))

# Companion group flow: v(t) = rho(h(t)) vbar exactly, where
# h' = -m(v(t)) h.  With vbar = e1 in the standard family everything is
# explicit: v(t) = e^{-t} e1 and h(t) = diag(e^{-t}, 1, 1).
sspec = standard(3)
vbar = rep_vector(sspec, [1.0, 0.0, 0.0])
run = coupled_group_flow(ctx, sspec, vbar, np.eye(3), FlowParams(t_max=2.0))
t, vlast = run.v_samples[-1]
print(f"\ncoupled flow at t = {t:.2f}: v_1 = {vlast.coords[0]:.8f} vs e^-t = {np.exp(-t):.8f}")

# Metric flow on positive-definite matrices: S' = -2 r m(rho(r) vbar) r with
# r = sqrt(S), the SPD square root as coset representative; here
# S(t) = diag(e^{-2t}, 1, 1).
metric = metric_flow(ctx, sspec, vbar, SpdMetric(np.eye(3)), FlowParams(t_max=2.0))
t, slast = metric[-1]
print(f"metric flow at t = {t:.2f}: S_11 = {slast.S[0, 0]:.8f} vs e^-2t = {np.exp(-2 * t):.8f}")

# The equivalence theorem, verified numerically from a generic start:
rng = np.random.default_rng(3)
q1, _ = np.linalg.qr(rng.normal(size=(3, 3)))
q2, _ = np.linalg.qr(rng.normal(size=(3, 3)))
h0 = q1 @ np.diag(rng.uniform(0.6, 1.7, 3)) @ q2
report = verify_flow_equivalence(ctx, spec, x, h0, 5.0)
print(f"\nthree-flow equivalence over [0, 5]: dev_v = {report.max_dev_v:.2e}, "
      f"dev_S = {report.max_dev_S:.2e}, passed = {report.passed}")
