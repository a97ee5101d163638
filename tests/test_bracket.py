import numpy as np
import pytest

from momentflow import (adjoint, bracket_preset, brackets, brackets_from_tensor,
                        brackets_tensor, build_context, criticality_residual,
                        critical_bracket_check, derivation_report, gradient_flow,
                        FlowParams)
from momentflow.bracket import CRITICAL_RESIDUAL, DERIVATION_TOL, jacobi_ok, jacobi_residual

from conftest import bracket_value as mu_of, random_vector


def test_heisenberg_preset():
    mu = bracket_preset("heisenberg", 3)
    assert np.array_equal(mu_of(mu, [1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0])
    assert np.array_equal(mu_of(mu, [0, 1, 0], [1, 0, 0]), [0.0, 0.0, -1.0])
    assert jacobi_ok(mu)
    # single nonzero structure constant
    assert np.count_nonzero(mu.coords) == 1


def test_chain_presets():
    assert np.array_equal(bracket_preset("chain", 3).coords,
                          bracket_preset("heisenberg", 3).coords)
    mu = bracket_preset("chain", 4)
    assert np.array_equal(mu_of(mu, [1, 0, 0, 0], [0, 1, 0, 0]), [0, 0, 1, 0])
    assert np.array_equal(mu_of(mu, [1, 0, 0, 0], [0, 0, 1, 0]), [0, 0, 0, 1])
    # oracle: direct Jacobi expansion over the only interacting triple
    j = (mu_of(mu, mu_of(mu, [1, 0, 0, 0], [0, 1, 0, 0]), [0, 0, 1, 0])
         + mu_of(mu, mu_of(mu, [0, 1, 0, 0], [0, 0, 1, 0]), [1, 0, 0, 0])
         + mu_of(mu, mu_of(mu, [0, 0, 1, 0], [1, 0, 0, 0]), [0, 1, 0, 0]))
    assert np.abs(j).max() == 0.0
    assert jacobi_residual(mu) == 0.0


@pytest.mark.parametrize("name,n", [("heisenberg", 3), ("chain", 3), ("chain", 4),
                                    ("chain", 6)])
def test_preset_tensors_hold_exactly_their_structure_constants(name, n):
    # heisenberg: mu(e1, e2) = e3; chain: mu(e1, e_{i+1}) = e_{i+2} (0-based
    # T[i+1, 0, i] = 1), each with its antisymmetric mirror, zero elsewhere
    pairs = [(2, 0, 1)] if name == "heisenberg" else [(i + 1, 0, i) for i in range(1, n - 1)]
    expected = np.zeros((n, n, n))
    for l, i, j in pairs:
        expected[l, i, j], expected[l, j, i] = 1.0, -1.0
    assert np.array_equal(brackets_tensor(bracket_preset(name, n)), expected)


def test_bracket_checks_reject_other_families(rng):
    v = random_vector(rng, adjoint(3))
    for check in (jacobi_residual, lambda mu: derivation_report(mu, np.eye(3)),
                  lambda mu: critical_bracket_check(build_context(3, "GL"), mu)):
        with pytest.raises(ValueError, match="not a Brackets vector"):
            check(v)


@pytest.mark.parametrize("name,n", [("heisenberg", 3), ("chain", 4)])
def test_critical_bracket_check_is_scale_invariant(name, n):
    ctx = build_context(n, "GL")
    mu = bracket_preset(name, n)
    a = critical_bracket_check(ctx, mu)
    b = critical_bracket_check(ctx, brackets_from_tensor(2.0 * brackets_tensor(mu)))
    assert np.array_equal(a.beta.matrix, b.beta.matrix)
    assert np.array_equal(a.beta_plus, b.beta_plus)
    assert np.array_equal(a.eigenvalues, b.eigenvalues)
    assert (a.is_derivation, a.derivation_residual, a.positive, a.orthogonality_residual) == \
        (b.is_derivation, b.derivation_residual, b.positive, b.orthogonality_residual)


def test_preset_errors():
    with pytest.raises(ValueError):
        bracket_preset("heisenberg", 4)
    with pytest.raises(ValueError):
        bracket_preset("chain", 2)
    with pytest.raises(ValueError):
        bracket_preset("free", 3)


def test_derivation_report_heisenberg_scaling():
    # oracle: D(mu(e1,e2)) = 4 e3 while mu(De1,e2) + mu(e1,De2) = (2+2) e3
    mu = bracket_preset("heisenberg", 3)
    d = np.diag([2.0, 2.0, 4.0])
    lhs = d @ mu_of(mu, [1, 0, 0], [0, 1, 0])
    rhs = (mu_of(mu, d @ np.array([1.0, 0, 0]), [0, 1, 0])
           + mu_of(mu, [1, 0, 0], d @ np.array([0.0, 1, 0])))
    assert np.array_equal(lhs, rhs)

    rep = derivation_report(mu, d)
    assert rep.derivation_residual == 0.0
    assert np.array_equal(rep.eigenvalues, [2.0, 2.0, 4.0])
    assert rep.all_positive
    assert rep.filtration_dims == (3, 1)
    assert rep.filtration_invariance_residual <= 1e-12


def test_derivation_report_identity_fails():
    # De3 = e3 but mu(De1,e2) + mu(e1,De2) = 2 e3: residual exactly 1
    mu = bracket_preset("heisenberg", 3)
    rep = derivation_report(mu, np.eye(3))
    assert rep.derivation_residual == 1.0
    assert rep.all_positive


def test_derivation_report_zero_matrix():
    mu = bracket_preset("chain", 4)
    rep = derivation_report(mu, np.zeros((4, 4)))
    assert rep.derivation_residual == 0.0
    assert not rep.all_positive
    assert rep.filtration_dims == (4, 2, 1)


def test_critical_bracket_check_heisenberg():
    ctx = build_context(3, "GL")
    mu = bracket_preset("heisenberg", 3)
    rep = critical_bracket_check(ctx, mu)
    assert np.abs(rep.beta.matrix - np.diag([-1.0, -1.0, 1.0])).max() <= 1e-13
    assert abs(np.trace(rep.beta.matrix) + 1.0) <= 1e-13
    assert np.abs(rep.beta_plus - np.diag([2.0, 2.0, 4.0])).max() <= 1e-12
    assert rep.is_derivation and rep.positive
    assert rep.orthogonality_residual <= 1e-12


def test_critical_bracket_check_requires_criticality():
    ctx = build_context(5, "GL")
    mu = bracket_preset("chain", 5)
    with pytest.raises(ValueError):
        critical_bracket_check(ctx, mu)
    zero = brackets_from_tensor(np.zeros((3, 3, 3)))
    with pytest.raises(ValueError):
        critical_bracket_check(build_context(3, "GL"), zero)


def test_check_default_bound_reaches_the_derivation_verdict():
    # a flow to the FlowParams default 1e-9 used to pass the check's old
    # default residual_tol 1e-9 and report is_derivation false (4.73e-10)
    ctx = build_context(5, "GL")
    v = bracket_preset("chain", 5)
    loose = gradient_flow(ctx, v.spec, v).limit
    with pytest.raises(ValueError, match=r"not critical \(residual .* > 1\.41421e-10\)"):
        critical_bracket_check(ctx, loose)
    tight = gradient_flow(ctx, v.spec, v, FlowParams(residual_tol=CRITICAL_RESIDUAL)).limit
    rep = critical_bracket_check(ctx, tight)
    assert rep.is_derivation and rep.derivation_residual <= DERIVATION_TOL


@pytest.mark.parametrize("tol", ["residual_tol"])
@pytest.mark.parametrize("value", [float("nan"), 0.0, -1e-9])
def test_critical_bracket_check_rejects_non_positive_tolerances(tol, value):
    ctx = build_context(3, "GL")
    with pytest.raises(ValueError, match="must be positive"):
        critical_bracket_check(ctx, bracket_preset("heisenberg", 3), **{tol: value})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chain_flow_limits_have_positive_derivations(n):
    ctx = build_context(n, "GL")
    v = bracket_preset("chain", n)
    if criticality_residual(ctx, v.spec, v) > 1e-9:
        v = gradient_flow(ctx, v.spec, v, FlowParams(residual_tol=1e-12)).limit
    rep = critical_bracket_check(ctx, v)
    assert rep.positive
    assert abs(np.trace(rep.beta.matrix) + 1.0) <= 1e-9
    assert rep.orthogonality_residual <= 1e-9
    assert rep.derivation_residual <= 1e-8


def test_moment_of_any_bracket_has_trace_minus_one(rng):
    # pi(I) mu = -mu for every bracket, so tr m(mu) = -1 identically
    ctx = build_context(4, "GL")
    from momentflow import brackets, moment, rep_vector
    spec = brackets(4)
    for _ in range(5):
        v = rep_vector(spec, rng.normal(size=spec.dim))
        assert abs(np.trace(moment(ctx, spec, v).matrix) + 1.0) <= 1e-12


def test_derivation_residual_is_pi_d_of_the_bracket(rng):
    # oracle: D mu(e_i, e_j) - mu(D e_i, e_j) - mu(e_i, D e_j) by einsum on
    # the full tensor, max over pairs of the norm over targets
    for n in (3, 4, 5):
        mu = random_vector(rng, brackets(n))
        d = rng.normal(size=(n, n))
        t = brackets_tensor(mu)
        diff = (np.einsum("lm,mij->lij", d, t) - np.einsum("lmj,mi->lij", t, d)
                - np.einsum("lim,mj->lij", t, d))
        oracle = np.linalg.norm(diff.reshape(n, -1), axis=0).max()
        assert abs(derivation_report(mu, d).derivation_residual - oracle) <= 1e-13 * oracle


@pytest.mark.parametrize("n", [4, 5, 6])
def test_derivation_residual_is_bounded_by_the_criticality_residual(rng, n):
    # pi(I) mu = -mu, so pi(m + F I) mu = pi(m) mu - F mu is minus the sphere
    # velocity; per pair it is at most the whole, and coordinates carry sqrt(2)
    from momentflow import brackets, energy, moment, rep_vector
    ctx = build_context(n, "GL")
    spec = brackets(n)
    for _ in range(5):
        v = rep_vector(spec, rng.normal(size=spec.dim)).normalized()
        beta_plus = moment(ctx, spec, v).matrix + energy(ctx, spec, v) * np.eye(n)
        res = derivation_report(v, beta_plus).derivation_residual
        assert res <= criticality_residual(ctx, spec, v) / np.sqrt(2.0) * (1 + 1e-12)
