import numpy as np
import pytest

from momentflow import build_context, parabolic_lie_algebra, spd_sqrt, weyl_normalize

from conftest import random_spd


def _e(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_dimension_counts():
    ctx = build_context(2, "GL")
    assert ctx.dim_p == 3 and ctx.dim_k == 1
    assert build_context(3, "SL").dim_p == 5
    assert build_context(4, "GL").dim_p == 10


@pytest.mark.parametrize("group", ["GL", "SL"])
@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_bases_orthonormal_and_orthogonal(group, n):
    ctx = build_context(n, group)
    for basis in (ctx.p_basis, ctx.k_basis):
        k = basis.shape[0]
        gram = np.tensordot(basis, basis, axes=([1, 2], [1, 2]))
        assert np.abs(gram - np.eye(k)).max() <= 1e-14
    cross = np.tensordot(ctx.p_basis, ctx.k_basis, axes=([1, 2], [1, 2]))
    assert np.abs(cross).max() <= 1e-14


def test_symmetry_types_and_involution():
    ctx = build_context(4, "GL")
    for b in ctx.p_basis:
        assert np.array_equal(b, b.T)
    for x in ctx.k_basis:
        assert np.array_equal(x, -x.T)


def test_diagonal_prefix_spans_torus():
    for group, n in [("GL", 3), ("SL", 4)]:
        ctx = build_context(n, group)
        prefix = ctx.p_basis[:ctx.a_dim]
        for b in prefix:
            assert np.abs(b - np.diag(np.diag(b))).max() == 0.0
        if group == "SL":
            for b in prefix:
                assert abs(np.trace(b)) <= 1e-14


def test_sl_bases_traceless():
    ctx = build_context(3, "SL")
    for b in ctx.p_basis:
        assert abs(np.trace(b)) <= 1e-14


def test_build_context_errors():
    with pytest.raises(ValueError):
        build_context(0, "GL")
    with pytest.raises(ValueError):
        build_context(1, "SL")
    with pytest.raises(ValueError):
        build_context(3, "XX")


def test_spd_sqrt_simple_cases():
    assert np.array_equal(spd_sqrt(np.eye(3)), np.eye(3))
    assert np.allclose(spd_sqrt(np.diag([4.0, 1.0])), np.diag([2.0, 1.0]), atol=1e-15)


def test_spd_sqrt_squares_back(rng):
    # oracle: explicit multiplication of the output
    for _ in range(100):
        n = int(rng.integers(1, 9))
        s = random_spd(rng, n)
        h = spd_sqrt(s)
        assert np.array_equal(h, h.T)
        assert np.linalg.norm(h @ h - s) <= 1e-12 * np.linalg.norm(s)


def test_spd_root_and_inverse(rng):
    # the metric flow takes sqrt(S) and its inverse from one eigendecomposition;
    # the root must be spd_sqrt's bit for bit, the inverse checked by multiplication
    from momentflow.cartan import _spd_root_and_inverse
    for _ in range(50):
        n = int(rng.integers(1, 7))
        s = random_spd(rng, n)
        h, hinv = _spd_root_and_inverse(s)
        assert np.array_equal(h, spd_sqrt(s))
        assert np.linalg.norm(hinv @ h - np.eye(n)) <= 1e-12 * n
    with pytest.raises(ValueError):
        _spd_root_and_inverse(np.diag([1.0, 0.0]))


def test_spd_sqrt_errors():
    with pytest.raises(ValueError):
        spd_sqrt(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        spd_sqrt(np.diag([1.0, -2.0]))
    with pytest.raises(ValueError):
        spd_sqrt(np.diag([1.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spd_sqrt_rejects_non_finite_entries(bad):
    # a NaN entry used to pass the symmetry check and give an all-NaN root
    with pytest.raises(ValueError, match="spd_sqrt input must be finite"):
        spd_sqrt(np.array([[1.0, 0.0], [0.0, bad]]))


def test_parabolic_zero_beta_is_everything():
    ctx = build_context(3, "GL")
    basis = parabolic_lie_algebra(ctx, np.zeros((3, 3)))
    assert basis.shape[0] == 9
    ctx_sl = build_context(3, "SL")
    assert parabolic_lie_algebra(ctx_sl, np.zeros((3, 3))).shape[0] == 8


@pytest.mark.parametrize("n,beta_diag,dim", [(2, [1.0, -1.0], 3), (3, [1.0, 0.0, -1.0], 6)])
def test_parabolic_upper_triangular_cases(n, beta_diag, dim):
    # oracle: ad(beta) E_ij = (beta_i - beta_j) E_ij, so the non-negative part
    # of a strictly decreasing diagonal is exactly the upper triangle
    ctx = build_context(n, "GL")
    basis = parabolic_lie_algebra(ctx, np.diag(beta_diag))
    assert basis.shape[0] == dim
    # every basis element is upper triangular and the span hits all of them
    for b in basis:
        assert np.abs(np.tril(b, -1)).max() <= 1e-12
    flat = basis.reshape(dim, -1)
    for i in range(n):
        for j in range(i, n):
            coords = flat @ _e(n, i, j).reshape(-1)
            recon = coords @ flat
            assert np.abs(recon - _e(n, i, j).reshape(-1)).max() <= 1e-12


def test_parabolic_closed_under_bracket(rng):
    ctx = build_context(4, "GL")
    for _ in range(5):
        d = rng.integers(-2, 3, size=4).astype(float)
        beta = np.diag(d)
        basis = parabolic_lie_algebra(ctx, beta)
        flat = basis.reshape(basis.shape[0], -1)
        for a in basis[: 6]:
            for b in basis[: 6]:
                c = a @ b - b @ a
                coords = flat @ c.reshape(-1)
                assert np.abs(coords @ flat - c.reshape(-1)).max() <= 1e-10


def test_parabolic_rejects_nonsymmetric():
    ctx = build_context(2, "GL")
    with pytest.raises(ValueError):
        parabolic_lie_algebra(ctx, np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_parabolic_rejects_non_finite_beta(bad):
    # a NaN beta used to return a (2, 2, 2) stack
    ctx = build_context(2, "GL")
    with pytest.raises(ValueError, match="beta must be finite"):
        parabolic_lie_algebra(ctx, np.array([[bad, 0.0], [0.0, -1.0]]))


def test_weyl_normalize():
    assert weyl_normalize((-1, 1, 0)) == (1, 0, -1)
    from fractions import Fraction
    half = Fraction(1, 2)
    assert weyl_normalize((half, half)) == (half, half)


def test_weyl_normalize_idempotent(rng):
    for _ in range(20):
        v = tuple(rng.integers(-5, 6, size=6).tolist())
        once = weyl_normalize(v)
        assert weyl_normalize(once) == once
