import numpy as np
import pytest

from momentflow import (BracketTensor, bracket_preset, build_context,
                        criticality_residual, critical_bracket_check,
                        derivation_report, gradient_flow, FlowParams)


def test_heisenberg_preset():
    mu = bracket_preset("heisenberg", 3)
    assert np.array_equal(mu.mu([1, 0, 0], [0, 1, 0]), [0.0, 0.0, 1.0])
    assert np.array_equal(mu.mu([0, 1, 0], [1, 0, 0]), [0.0, 0.0, -1.0])
    assert mu.jacobi_ok
    # single nonzero structure constant
    assert np.count_nonzero(mu.c) == 1


def test_chain_presets():
    assert np.array_equal(bracket_preset("chain", 3).c, bracket_preset("heisenberg", 3).c)
    mu = bracket_preset("chain", 4)
    assert np.array_equal(mu.mu([1, 0, 0, 0], [0, 1, 0, 0]), [0, 0, 1, 0])
    assert np.array_equal(mu.mu([1, 0, 0, 0], [0, 0, 1, 0]), [0, 0, 0, 1])
    # oracle: direct Jacobi expansion over the only interacting triple
    j = (mu.mu(mu.mu([1, 0, 0, 0], [0, 1, 0, 0]), [0, 0, 1, 0])
         + mu.mu(mu.mu([0, 1, 0, 0], [0, 0, 1, 0]), [1, 0, 0, 0])
         + mu.mu(mu.mu([0, 0, 1, 0], [1, 0, 0, 0]), [0, 1, 0, 0]))
    assert np.abs(j).max() == 0.0
    assert mu.jacobi_residual() == 0.0


def test_preset_errors():
    with pytest.raises(ValueError):
        bracket_preset("heisenberg", 4)
    with pytest.raises(ValueError):
        bracket_preset("chain", 2)
    with pytest.raises(ValueError):
        bracket_preset("free", 3)


def test_rep_vector_round_trip():
    mu = bracket_preset("chain", 5)
    back = BracketTensor.from_rep_vector(mu.to_rep_vector())
    assert np.abs(back.c - mu.c).max() <= 1e-15


def test_derivation_report_heisenberg_scaling():
    # oracle: D(mu(e1,e2)) = 4 e3 while mu(De1,e2) + mu(e1,De2) = (2+2) e3
    mu = bracket_preset("heisenberg", 3)
    d = np.diag([2.0, 2.0, 4.0])
    lhs = d @ mu.mu([1, 0, 0], [0, 1, 0])
    rhs = mu.mu(d @ np.array([1.0, 0, 0]), [0, 1, 0]) + mu.mu([1, 0, 0], d @ np.array([0.0, 1, 0]))
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
    zero = BracketTensor(3, np.zeros((3, 3)))
    with pytest.raises(ValueError):
        critical_bracket_check(build_context(3, "GL"), zero)


@pytest.mark.parametrize("tol", ["residual_tol", "derivation_tol"])
@pytest.mark.parametrize("value", [float("nan"), 0.0, -1e-9])
def test_critical_bracket_check_rejects_non_positive_tolerances(tol, value):
    # derivation_tol = nan used to report is_derivation false
    ctx = build_context(3, "GL")
    with pytest.raises(ValueError, match="must be positive"):
        critical_bracket_check(ctx, bracket_preset("heisenberg", 3), **{tol: value})


@pytest.mark.parametrize("n", [3, 4, 5])
def test_chain_flow_limits_have_positive_derivations(n):
    ctx = build_context(n, "GL")
    mu = bracket_preset("chain", n)
    v = mu.to_rep_vector()
    if criticality_residual(ctx, v.spec, v) > 1e-9:
        v = gradient_flow(ctx, v.spec, v, FlowParams(residual_tol=1e-12)).limit
    rep = critical_bracket_check(ctx, BracketTensor.from_rep_vector(v))
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
        mu = BracketTensor(n, rng.normal(size=(n * (n - 1) // 2, n)))
        d = rng.normal(size=(n, n))
        t = mu.tensor
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
        res = derivation_report(BracketTensor.from_rep_vector(v), beta_plus).derivation_residual
        assert res <= criticality_residual(ctx, spec, v) / np.sqrt(2.0) * (1 + 1e-12)
