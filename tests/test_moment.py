import hashlib

import numpy as np
import pytest

from momentflow import (adjoint, adjoint_from_matrix, apply_group, apply_lie,
                        brackets, build_context, closed_form_moment,
                        criticality_residual, dual, energy, lambda2,
                        lambda2_embed, moment, rep_vector, standard,
                        torus_weights, translated_moment)
from momentflow.bracket import bracket_preset

from conftest import bracket_value, matrix_families, random_orthogonal, random_vector


def _e(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def _heisenberg_vector():
    return bracket_preset("heisenberg", 3)


def test_standard_basis_vector():
    ctx = build_context(3, "GL")
    v = rep_vector(standard(3), [1.0, 0.0, 0.0])
    mv = moment(ctx, standard(3), v)
    assert np.abs(mv.matrix - _e(3, 0, 0)).max() <= 1e-15
    assert abs(mv.energy - 1.0) <= 1e-15


def test_adjoint_normal_matrices_are_in_the_kernel(rng):
    ctx = build_context(3, "GL")
    spec = adjoint(3)
    mv = moment(ctx, spec, adjoint_from_matrix(np.diag([1.0, 2.0, -1.0])))
    assert np.abs(mv.matrix).max() <= 1e-15
    q = random_orthogonal(rng, 3)
    mv = moment(ctx, spec, adjoint_from_matrix(q @ np.diag([3.0, 1.0, 0.5]) @ q.T))
    assert np.abs(mv.matrix).max() <= 1e-13


def _pi_bracket_coefficient(mu, s):
    """Oracle for <m(mu), S>: the displayed expansion of pi(S), summed over
    ordered basis pairs, divided by the ordered-pair norm of mu."""
    n = 3
    e = np.eye(n)
    num = 0.0
    nrm2 = 0.0
    for i in range(n):
        for j in range(n):
            mij = bracket_value(mu, e[i], e[j])
            pij = s @ mij - bracket_value(mu, s @ e[i], e[j]) - bracket_value(mu, e[i], s @ e[j])
            num += pij @ mij
            nrm2 += mij @ mij
    return num / nrm2


def test_heisenberg_moment_value():
    # oracle: the defining identity evaluated on E_11, E_22, E_33 by direct
    # expansion of pi(S)mu; the hand value is diag(-1, -1, 1), energy 3
    ctx = build_context(3, "GL")
    mu = bracket_preset("heisenberg", 3)
    expected = np.array([-1.0, -1.0, 1.0])
    for k in range(3):
        assert _pi_bracket_coefficient(mu, _e(3, k, k)) == expected[k]
    mv = moment(ctx, brackets(3), mu)
    assert np.abs(mv.matrix - np.diag(expected)).max() <= 1e-14
    assert abs(mv.energy - 3.0) <= 1e-13
    assert abs(energy(ctx, brackets(3), mu) - 3.0) <= 1e-13


def test_closed_form_adjoint_nilpotent():
    mv = closed_form_moment(adjoint(2), adjoint_from_matrix(_e(2, 0, 1)))
    assert np.array_equal(mv.matrix, np.diag([1.0, -1.0]))
    assert mv.energy == 2.0
    assert np.array_equal(mv.spectrum, [1.0, -1.0])


def test_closed_form_lambda2_rotation():
    # oracle: generic moment via the defining identity
    ctx = build_context(2, "GL")
    v = lambda2_embed([1.0, 0.0], [0.0, 1.0])
    generic = moment(ctx, lambda2(2), v)
    assert np.abs(generic.matrix - np.eye(2)).max() <= 1e-14
    closed = closed_form_moment(lambda2(2), v)
    assert np.abs(closed.matrix - generic.matrix).max() <= 1e-14


def test_closed_form_dual():
    ctx = build_context(2, "GL")
    v = rep_vector(dual(2), [1.0, 0.0])
    generic = moment(ctx, dual(2), v)
    assert np.abs(generic.matrix + _e(2, 0, 0)).max() <= 1e-15
    assert np.abs(closed_form_moment(dual(2), v).matrix - generic.matrix).max() <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 5])
def test_closed_forms_match_generic(rng, n):
    ctx = build_context(n, "GL")
    for spec in matrix_families(n):
        for _ in range(20):
            v = random_vector(rng, spec)
            generic = moment(ctx, spec, v)
            closed = closed_form_moment(spec, v)
            scale = max(1.0, np.abs(generic.matrix).max())
            assert np.abs(closed.matrix - generic.matrix).max() <= 1e-12 * scale


def test_defining_identity_against_apply_lie(rng):
    # oracle route: <pi(B_k)v, v>/<v, v> computed with apply_lie directly
    for n in (2, 4):
        ctx = build_context(n, "GL")
        for spec in matrix_families(n):
            for _ in range(5):
                v = random_vector(rng, spec)
                mv = moment(ctx, spec, v)
                nrm2 = v.coords @ v.coords
                for b in ctx.p_basis:
                    lhs = float(np.tensordot(mv.matrix, b, axes=2))
                    rhs = float(apply_lie(spec, b, v).coords @ v.coords) / nrm2
                    assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_sl_context_gives_traceless_moment(rng):
    ctx = build_context(3, "SL")
    v = random_vector(rng, standard(3))
    mv = moment(ctx, standard(3), v)
    assert abs(np.trace(mv.matrix)) <= 1e-14


def test_scale_invariance(rng):
    ctx = build_context(3, "GL")
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        base = moment(ctx, spec, v).matrix
        for c in (-3.0, 0.01, 7.0):
            scaled = moment(ctx, spec, rep_vector(spec, c * v.coords)).matrix
            assert np.abs(scaled - base).max() <= 1e-13 * max(1.0, np.abs(base).max())


def test_inner_product_rescaling_is_exact(rng):
    # scaling all coordinates by a power of two rescales the V-inner product
    # uniformly and must not change the moment map at all
    ctx = build_context(3, "GL")
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        base = moment(ctx, spec, v).matrix
        scaled = moment(ctx, spec, rep_vector(spec, 4.0 * v.coords)).matrix
        assert np.array_equal(scaled, base)


def test_k_equivariance(rng):
    ctx = build_context(3, "GL")
    for spec in matrix_families(3):
        for _ in range(10):
            v = random_vector(rng, spec)
            k = random_orthogonal(rng, 3)
            lhs = k @ moment(ctx, spec, v).matrix @ k.T
            rhs = moment(ctx, spec, apply_group(spec, k, v)).matrix
            assert np.abs(lhs - rhs).max() <= 1e-10


def test_energy_matches_defining_identity_shortcut(rng):
    ctx = build_context(3, "GL")
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        mv = moment(ctx, spec, v)
        shortcut = float(apply_lie(spec, mv.matrix, v).coords @ v.coords) / (v.coords @ v.coords)
        assert abs(mv.energy - shortcut) <= 1e-12 * max(1.0, mv.energy)


def test_translated_moment_identity_element(rng):
    ctx = build_context(2, "GL")
    spec = standard(2)
    v = rep_vector(spec, [1.0, 2.0])
    rep = translated_moment(ctx, spec, np.eye(2), v)
    assert np.abs(rep.matrix - moment(ctx, spec, v).matrix).max() <= 1e-15


def test_translated_moment_orthogonal(rng):
    # oracle: the closed form v v^T / |v|^2 evaluated at rho(h) e_1
    ctx = build_context(3, "GL")
    spec = standard(3)
    h = random_orthogonal(rng, 3)
    ve1 = rep_vector(spec, [1.0, 0.0, 0.0])
    rep = translated_moment(ctx, spec, h, apply_group(spec, h, ve1))
    expected = h @ _e(3, 0, 0) @ h.T
    assert np.abs(rep.matrix - expected).max() <= 1e-12


def test_translated_moment_diagonal_eigenvector():
    ctx = build_context(2, "GL")
    spec = standard(2)
    rep = translated_moment(ctx, spec, np.diag([2.0, 1.0]), rep_vector(spec, [1.0, 0.0]))
    assert np.abs(rep.matrix - _e(2, 0, 0)).max() <= 1e-15


def test_k_equivariance_via_translated_moment(rng):
    # Ad_h(m(v)) = m(rho(h) v) for orthogonal h, phrased through the API
    ctx = build_context(3, "GL")
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        k = random_orthogonal(rng, 3)
        rep = translated_moment(ctx, spec, k, apply_group(spec, k, v))
        assert np.abs(rep.matrix - k @ moment(ctx, spec, v).matrix @ k.T).max() <= 1e-10


def test_translated_moment_depends_only_on_coset(rng):
    # replacing h by h k for orthogonal k changes nothing: the translated
    # data is a function of the coset hK
    ctx = build_context(3, "GL")
    from conftest import random_well_conditioned
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        h = random_well_conditioned(rng, 3)
        k = random_orthogonal(rng, 3)
        a = translated_moment(ctx, spec, h, v).matrix
        b = translated_moment(ctx, spec, h @ k, v).matrix
        assert np.abs(a - b).max() <= 1e-10 * max(1.0, np.abs(a).max())


def test_criticality_residual_values():
    ctx2 = build_context(2, "GL")
    assert criticality_residual(ctx2, standard(2), rep_vector(standard(2), [1.0, 0.0])) <= 1e-15
    assert criticality_residual(ctx2, adjoint(2), adjoint_from_matrix(_e(2, 0, 1))) <= 1e-15

    # oracle: direct evaluation of pi(m(v))v and F(v)v shows they differ
    spec = adjoint(2)
    v = adjoint_from_matrix(_e(2, 0, 1) + np.eye(2))
    ctx = ctx2
    mv = moment(ctx, spec, v)
    lhs = apply_lie(spec, mv.matrix, v).coords
    rhs = mv.energy * v.coords
    assert np.linalg.norm(lhs - rhs) > 1e-3
    assert criticality_residual(ctx, spec, v) > 1e-3


def test_zero_vector_rejected():
    ctx = build_context(2, "GL")
    z = rep_vector(standard(2), [0.0, 0.0])
    with pytest.raises(ValueError):
        moment(ctx, standard(2), z)
    with pytest.raises(ValueError):
        closed_form_moment(standard(2), z)
    with pytest.raises(ValueError):
        criticality_residual(ctx, standard(2), z)
    with pytest.raises(ValueError):
        translated_moment(ctx, standard(2), np.eye(2), z)


def test_closed_form_rejects_torus_family():
    spec = torus_weights([(1, 0), (0, 1)])
    with pytest.raises(ValueError):
        closed_form_moment(spec, rep_vector(spec, [1.0, 0.0]))


def test_torus_weights_moment_is_torus_moment():
    # oracle: the torus moment map sum_k |v_k|^2 chi_k / |v|^2 on the diagonal,
    # and for SL its trace-free part
    spec = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    v = rep_vector(spec, [1.0, 2.0, 0.5, 1.0])
    chi = np.array(spec.weights, dtype=float)
    diag = (v.coords ** 2) @ chi / (v.coords @ v.coords)
    gl = moment(build_context(3, "GL"), spec, v).matrix
    assert np.abs(gl - np.diag(diag)).max() <= 1e-12
    sl = moment(build_context(3, "SL"), spec, v).matrix
    assert abs(np.trace(sl)) <= 1e-12
    assert np.abs(sl - np.diag(diag - diag.mean())).max() <= 1e-12


def test_translated_moment_rejects_singular():
    ctx = build_context(2, "GL")
    v = rep_vector(standard(2), [1.0, 0.0])
    with pytest.raises(ValueError):
        translated_moment(ctx, standard(2), np.zeros((2, 2)), v)


def test_moment_value_invariants(rng):
    ctx = build_context(4, "GL")
    for spec in matrix_families(4):
        v = random_vector(rng, spec)
        mv = moment(ctx, spec, v)
        assert np.abs(mv.matrix - mv.matrix.T).max() <= 1e-12
        assert abs(mv.energy - np.trace(mv.matrix @ mv.matrix)) <= 1e-12 * max(1.0, mv.energy)
        assert all(mv.spectrum[i] >= mv.spectrum[i + 1] for i in range(len(mv.spectrum) - 1))


@pytest.mark.parametrize("group", ["GL", "SL"])
def test_moment_matrix_kernel_equals_moment(rng, group):
    # the flows' right-hand sides build m(v) with _moment_matrix alone; it
    # must be the matrix that moment() reports, bit for bit
    from momentflow.momentmap import _moment_matrix, rep_action
    ctx = build_context(3, group)
    torus = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    for spec in matrix_families(3) + [torus]:
        v = random_vector(rng, spec)
        c = rep_action(ctx, spec).moment_coefficients(v.coords)
        assert np.array_equal(_moment_matrix(ctx, c), moment(ctx, spec, v).matrix)


def _torus_module(rng, n):
    return torus_weights(rng.integers(-2, 3, size=(n + 2, n)))


@pytest.mark.parametrize("group", ["GL", "SL"])
@pytest.mark.parametrize("n", [2, 3, 6])
def test_sparse_operator_matches_apply_lie(rng, group, n):
    # oracle: apply_lie on the p-basis, entry by entry: the coefficient of
    # m(v) along B_k is <pi(B_k) v, v>/|v|^2 (zero past the diagonal prefix
    # on a torus module), and the gradient is pi(m(v)) v
    from momentflow.momentmap import RepAction
    ctx = build_context(n, group)
    for spec in matrix_families(n) + [_torus_module(rng, n)]:
        act = RepAction(ctx, spec)
        v = random_vector(rng, spec)
        nrm2 = float(v.coords @ v.coords)
        acting = ctx.a_dim if spec.family == "TorusWeights" else ctx.dim_p
        want = np.zeros(ctx.dim_p)
        for k in range(acting):
            want[k] = apply_lie(spec, ctx.p_basis[k], v).coords @ v.coords / nrm2
        coeff = act.moment_coefficients(v.coords)
        assert np.abs(coeff - want).max() <= 1e-12 * np.abs(want).max()
        grad = apply_lie(spec, moment(ctx, spec, v).matrix, v).coords
        assert np.abs(act.gradient(v.coords) - grad).max() <= 1e-12 * np.abs(grad).max()
        both = act.moment_and_gradient(v.coords)
        assert np.array_equal(both[0], coeff)
        assert np.array_equal(both[1], act.gradient(v.coords))


def _pi_entries_by_columns(ctx, spec):
    """The pi build written out: pi(B_k) one basis column at a time through
    the public apply_lie, nonzeros by k, then column j, then row i."""
    acting = ctx.a_dim if spec.family == "TorusWeights" else ctx.dim_p
    basis = np.eye(spec.dim)
    entries = {"k": [], "i": [], "j": [], "value": []}
    for k in range(acting):
        for j in range(spec.dim):
            column = apply_lie(spec, ctx.p_basis[k], rep_vector(spec, basis[j])).coords
            for i in np.flatnonzero(column):
                for field, x in zip(entries, (k, i, j, column[i])):
                    entries[field].append(x)
    return {f: np.array(x, dtype=float if f == "value" else np.intp) for f, x in entries.items()}


def test_sparse_operator_build_is_deterministic_and_ordered(rng):
    from momentflow.momentmap import RepAction
    ctx = build_context(4, "SL")
    for spec in matrix_families(4):
        a, b = RepAction(ctx, spec).pi_stack, RepAction(ctx, spec).pi_stack
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
        # entries by k, then column j, then row i, with no explicit zeros
        order = np.lexsort((a["i"], a["j"], a["k"]))
        assert np.array_equal(order, np.arange(order.size))
        assert np.all(a["value"] != 0.0)
    # the batched build equals the column-by-column one, byte for byte
    for n in range(2, 7):
        for group in ("GL", "SL"):
            ctx = build_context(n, group)
            for spec in matrix_families(n) + [_torus_module(rng, n)]:
                stack = RepAction(ctx, spec).pi_stack
                want = _pi_entries_by_columns(ctx, spec)
                for field, column in want.items():
                    assert stack[field].tobytes() == column.tobytes(), (spec, group, field)


# sha256 of pi_stack at n = 4, fields k, i, j as little-endian int64 and
# value as little-endian float64, field after field: the bytes the per-family
# group actions gave before they became the slot kernel
_PI_STACK_SHA256 = {
    ("Standard", "GL"): "35ab19900317018be439be494027db8e84ea0151bfaea1a17ac867eb0b53a99b",
    ("Dual", "GL"): "9c3e73219d82c7a5617cab2eb2e5972b339429a822e7587b6580a80072614bbd",
    ("Adjoint", "GL"): "41c542865006fb3dbf33766a771db96b892ebefa08c8ef091944dcac521fa6a3",
    ("Lambda2", "GL"): "932ef334aaebf1344f8bd24a6a78b88042ccee9ef69809181ce1df35c26caa39",
    ("Brackets", "GL"): "6dd3e162d5c1ef25cc09e256691c42bd53136bc590550ea46790a93437303c8a",
    ("Standard", "SL"): "35844bbc0c9168fad19f63b204630b4838f8eb83707dc62ef8470e6f1af297fe",
    ("Dual", "SL"): "e878127362f96357741d0d9cdb5cdaf32bdd998cbd9457cb6b0a8f893fa884cd",
    ("Adjoint", "SL"): "4374db3bb2fd834472ad1cf374cf17ad1f56d31526d9c035cb62b223156d8fd9",
    ("Lambda2", "SL"): "169d95ea22918b14ec705b2806329b4efe51188bc5fab7756a302fefa4150696",
    ("Brackets", "SL"): "670b517404d0a347ae5ca48873553f168e0dbc40c32cbf04c61485f06d6706d1",
}


@pytest.mark.parametrize("family, group", sorted(_PI_STACK_SHA256))
def test_named_families_keep_their_pi_stack_bytes(family, group):
    from momentflow.momentmap import RepAction
    from momentflow.reps import RepSpec
    stack = RepAction(build_context(4, group), RepSpec(family, 4)).pi_stack
    data = b"".join(np.ascontiguousarray(stack[f], dtype="<f8" if f == "value" else "<i8")
                    .tobytes() for f in ("k", "i", "j", "value"))
    assert hashlib.sha256(data).hexdigest() == _PI_STACK_SHA256[family, group]


@pytest.mark.parametrize("entry", [
    moment, energy, criticality_residual,
    lambda ctx, spec, v: closed_form_moment(spec, v),
], ids=["moment", "energy", "criticality_residual", "closed_form_moment"])
def test_entry_points_reject_a_vector_of_another_spec(entry):
    # adjoint(2) and standard(4) have the same dimension: m(E12) has spectrum
    # (1, -1), and read as a standard(4) vector it came out (1, 0, 0, 0)
    other = adjoint_from_matrix(_e(2, 0, 1))
    with pytest.raises(ValueError, match="does not belong"):
        entry(build_context(4, "GL"), standard(4), other)


def test_sparse_operator_is_never_dense():
    # the dense dim_p x dim x dim stack of brackets(8) takes 14.5 MB
    import tracemalloc
    from momentflow.momentmap import RepAction
    ctx = build_context(8, "GL")
    tracemalloc.start()
    try:
        act = RepAction(ctx, brackets(8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert act.pi_stack.nbytes < 1e6
    assert peak < 5e6


_TORUS = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])


@pytest.mark.parametrize("group", ["GL", "SL"])
def test_extreme_scales_give_the_unscaled_answer(rng, group):
    # a power of two rescales exactly, so 2^(+-600) u, whose |u|^2 would
    # over- or underflow, reads bit for bit like u; u's largest entry is in
    # [1/2, 1), where the entry points leave it unscaled
    from momentflow import weight_components
    ctx = build_context(3, group)
    for spec in matrix_families(3) + [_TORUS]:
        c = rng.normal(size=spec.dim)
        u = rep_vector(spec, 0.75 * c / np.abs(c).max())
        expected = moment(ctx, spec, u)
        for k in (600, -600):
            v = rep_vector(spec, np.ldexp(u.coords, k))
            assert v.norm == np.ldexp(u.norm, k)
            assert np.array_equal(v.normalized().coords, u.normalized().coords)
            got = moment(ctx, spec, v)
            assert np.array_equal(got.matrix, expected.matrix)
            assert got.energy == expected.energy
            assert criticality_residual(ctx, spec, v) == criticality_residual(ctx, spec, u)
            if spec != _TORUS and group == "GL":
                assert np.array_equal(closed_form_moment(spec, v).matrix,
                                      closed_form_moment(spec, u).matrix)
            parts = weight_components(spec, v)
            assert parts.keys() == weight_components(spec, u).keys()
            assert all(np.array_equal(np.ldexp(p, -k), weight_components(spec, u)[w])
                       for w, p in parts.items())
