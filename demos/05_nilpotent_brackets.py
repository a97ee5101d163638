"""Critical nilpotent brackets and their distinguished derivations.

A Lie bracket on R^n is a vector in the bracket representation.  At a
critical direction of the energy, the shifted moment value
beta+ = m(mu) + tr(m(mu)^2) I is a derivation of the bracket, and its
spectrum being positive is the structural conclusion of interest.  The
Heisenberg bracket is critical as given; the longer chain brackets are
flowed to their critical direction first.
"""

import numpy as np

from momentflow import (FlowParams, bracket_preset, build_context,
                        criticality_residual, critical_bracket_check,
                        derivation_report, gradient_flow, moment)

np.set_printoptions(precision=6, suppress=True)

# Heisenberg: mu(e1, e2) = e3.  Its moment value is diag(-1, -1, 1) with
# energy 3, so beta+ = diag(2, 2, 4); the derivation property is exact.
ctx = build_context(3, "GL")
mu = bracket_preset("heisenberg", 3)
print("heisenberg: m(mu) =", np.diag(moment(ctx, mu.spec, mu).matrix),
      " residual =", criticality_residual(ctx, mu.spec, mu))
check = critical_bracket_check(ctx, mu)
print("beta+ =", np.diag(check.beta_plus))
print("derivation residual:", check.derivation_residual,
      " positive spectrum:", check.positive)
print("<beta+, beta> =", check.orthogonality_residual)

# A non-derivation for contrast: the identity rescales e3 once on the left
# but twice on the right of the bracket identity.
bad = derivation_report(mu, np.eye(3))
print("identity as candidate derivation: residual =", bad.derivation_residual)

# Chain brackets mu(e1, e_i) = e_{i+1}: the n = 4 chain happens to be
# critical as given, the n = 5 chain is not and needs the flow.
for n in (4, 5):
    ctxn = build_context(n, "GL")
    w = bracket_preset("chain", n)
    res0 = criticality_residual(ctxn, w.spec, w)
    if res0 > 1e-9:
        flow = gradient_flow(ctxn, w.spec, w, FlowParams(residual_tol=1e-12))
        w = flow.limit
        print(f"\nchain n={n}: flowed {flow.steps} steps from residual {res0:.3f}")
    else:
        print(f"\nchain n={n}: already critical (residual {res0:.2e})")
    check = critical_bracket_check(ctxn, w)
    print("beta spectrum:", check.beta.spectrum)
    print("beta+ eigenvalues:", np.real(check.eigenvalues), " positive:", check.positive)
    rep = derivation_report(w, check.beta_plus)
    print("lower-central-series dims:", rep.filtration_dims,
          " invariance residual: %.2e" % rep.filtration_invariance_residual)
