import hashlib

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


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a, dtype="<f8").tobytes()).hexdigest()


# sha256 of the bases as little-endian float64, recorded from the per-matrix
# loops that built them before the diagonal table; k_basis is the same for GL
# and SL
_P_BASIS_SHA256 = {
    ("GL", 1): "6c3c396ed6b5c36dcae172271f462051b1266b851e92df3deea8ac65478fd712",
    ("GL", 2): "ce0bb7ba80a5953a4c712f91f7344528a0e3ea14ccadbbf304ff1a7438be97ed",
    ("GL", 3): "6d32ea147d8ceda5b8785bd73449aabb5efb4965fefe61521f6994f6ec426807",
    ("GL", 4): "72072405f14cd0c6dc9026e44d8b0da67daae70bd552ac903e0644f6fda76420",
    ("GL", 5): "e829a6274b4749a433bfdd40dd6d3efc45478a1a71b0fa4c8d8a0e0a7535eaf5",
    ("GL", 6): "831c454296aedd6d4370c9965689a87631c06c2be61ec60f13649178d86b58e5",
    ("GL", 7): "c23a05f918121867f7c100e598134b3a9291cef7ec447ec885c91e71708929cf",
    ("GL", 8): "10a8ec255a59153d86edb932240d89c11edfb292d8d2c15a569b7c387db0540e",
    ("SL", 2): "252c4457d167a9312a45ba53606e3793dcf1860e9313cbb907b104f6af01b6f4",
    ("SL", 3): "f7992a0e5ace5f84739b41684a1285daef4be23dc7e38fd7a5adf2410a91cfff",
    ("SL", 4): "6caa16cfeea37bbdd9afd6774f307599781e47c23a3830c0d9a0c7ba153a6991",
    ("SL", 5): "53106f56e4d39033ccddb84e5d2aa09f8aeac4428015851c7398b6076244226a",
    ("SL", 6): "a9dcca222c645723ab5c2e2e3b4495191ebf5c0db651af1a4cba25c128f41123",
    ("SL", 7): "cfa900db133b3991fbe39c262f719e213a8dc859a83a23609c460eb1a9eb369a",
    ("SL", 8): "5f27584bbe291033bc3e3195738601cb315e1cabd340b814de3c14cd5120ad60",
}
_K_BASIS_SHA256 = {
    1: "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    2: "8c28f4aa60e9078049a0ede29a44097828298aec8ca9b4ee3441edb5c663d442",
    3: "feb4fe3c3e5cfad54e5cd10a53d4e786cce925ac5a19cedb4e0cc653976b2680",
    4: "51b036b279df3e03e381bc8667f3964d329b2cc6cfcfece80ec1f43289eb6835",
    5: "737cb5030ce9a860e31f0747d868405efeb17bced1f524629dd624f7736673aa",
    6: "c1c1cf6f07f830be4603e9f3a91d1ad0eae8f911dfb0e0a62c7a0f9deada5d27",
    7: "61f2abcc654a685597f82a835d7999e35e79bb07dcd7f3313b0445731c2c517e",
    8: "6250719a5c1e16947ae2910de41a4a09eecbfaa7cb376a53f817efdd71a929d7",
}


@pytest.mark.parametrize("group, n", sorted(_P_BASIS_SHA256))
def test_bases_keep_their_bytes(group, n):
    ctx = build_context(n, group)
    assert _sha256(ctx.p_basis) == _P_BASIS_SHA256[group, n]
    assert _sha256(ctx.k_basis) == _K_BASIS_SHA256[n]
    # the diagonal prefix is exactly a_dim long
    diagonal = [not (b - np.diag(np.diag(b))).any() for b in ctx.p_basis]
    assert sum(diagonal) == ctx.a_dim and all(diagonal[:ctx.a_dim])


# sha256 of parabolic_lie_algebra's stack, recorded like the bases; betas are
# integer diagonals (with repeated entries) or integer symmetric matrices
@pytest.mark.parametrize("group, beta, dim, digest", [
    ("GL", [2, 0, -1], 6, "3b41ba8b3e40d4229e9291956abdac9e1d813654fec59a825f7631f66e26858b"),
    ("GL", [1, -2, 1, 0], 11, "2a202b961668eae6e6b88727b321b357f9461ee728b6876df133b3ecacacf69f"),
    ("SL", [1, 0, -1], 5, "3d59c9195618b14d9af81dda9d15e1fc003e5ce30f27779c988fc66fb4c01e6d"),
    ("SL", [-1, 3, -1, -1], 12, "9172f5f61852801350c6b7e0486919b753af54876ee5f4ef3527c34fb9bf6a7c"),
    ("GL", [[2, 1, 0], [1, 0, 1], [0, 1, -1]], 6,
     "099622a2cf3913585ff1e54465f98fb1338e9eb812ea3991ebe9510c09d2fd9a"),
    ("SL", [[1, 1, 0], [1, 0, 2], [0, 2, -1]], 5,
     "d34ca692cafe9348c843925b2051776264def82e650a4710f72bafb71bac6269"),
])
def test_parabolic_keeps_its_bytes(group, beta, dim, digest):
    beta = np.array(beta, dtype=float)
    if beta.ndim == 1:
        beta = np.diag(beta)
    basis = parabolic_lie_algebra(build_context(len(beta), group), beta)
    assert basis.shape == (dim, len(beta), len(beta))
    assert _sha256(basis) == digest


def test_parabolic_checks_the_sl_trace():
    beta = np.diag([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="trace-zero"):
        parabolic_lie_algebra(build_context(3, "SL"), beta)
    assert parabolic_lie_algebra(build_context(3, "GL"), beta).shape == (7, 3, 3)


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
