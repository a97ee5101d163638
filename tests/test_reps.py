import numpy as np
import pytest
from scipy.linalg import expm

from momentflow import (adjoint, adjoint_from_matrix, adjoint_to_matrix, apply_group,
                        apply_lie, brackets, build_context, dual, lambda2, lambda2_embed,
                        lambda2_from_matrix, lambda2_to_matrix, rep_dim, rep_vector, standard,
                        torus_weights, vector_from_json, vector_to_json,
                        weight_components, weights_of)
from momentflow.bracket import bracket_preset
from momentflow.reps import RepSpec, _weight_spaces, brackets_from_tensor, brackets_tensor

from conftest import (bracket_value, matrix_families, random_orthogonal, random_vector,
                      random_well_conditioned)


def _e(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_dimensions():
    assert rep_dim(adjoint(3)) == 9
    assert rep_dim(lambda2(4)) == 6
    assert rep_dim(brackets(3)) == 9
    assert rep_dim(standard(5)) == 5 == rep_dim(dual(5))
    assert rep_dim(torus_weights([(1, 0), (0, 1), (2, -1)])) == 3


def test_identity_acts_trivially(rng):
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        out = apply_group(spec, np.eye(3), v)
        assert np.abs(out.coords - v.coords).max() <= 1e-15


def test_adjoint_conjugation_example():
    spec = adjoint(2)
    v = adjoint_from_matrix(_e(2, 0, 1))
    out = apply_group(spec, np.diag([2.0, 1.0]), v)
    assert np.abs(out.coords - 2.0 * v.coords).max() <= 1e-15


def test_brackets_scaling_by_central_elements():
    # (rho(cI) mu)(x, y) = c mu(x/c, y/c) = mu(x, y) / c
    spec = brackets(3)
    mu = bracket_preset("heisenberg", 3)
    for c in (2.0, -0.5):
        out = apply_group(spec, c * np.eye(3), mu)
        assert np.abs(out.coords - mu.coords / c).max() <= 1e-14


def test_lie_action_simple_cases():
    v = rep_vector(standard(2), [1.0, 0.0])
    out = apply_lie(standard(2), _e(2, 0, 0), v)
    assert np.array_equal(out.coords, v.coords)

    spec = adjoint(2)
    x = adjoint_from_matrix(_e(2, 0, 1))
    out = apply_lie(spec, np.diag([1.0, -1.0]), x)
    assert np.abs(out.coords - 2.0 * x.coords).max() == 0.0


def test_brackets_lie_action_on_heisenberg():
    # oracle: pi(S)mu(x,y) = S mu(x,y) - mu(Sx,y) - mu(x,Sy) term by term;
    # for S = E_33 only the first term survives on (e1, e2) and gives e3 back
    spec = brackets(3)
    v = bracket_preset("heisenberg", 3)
    s = _e(3, 0, 0)
    lhs = s @ bracket_value(v, [1, 0, 0], [0, 1, 0])
    lhs -= bracket_value(v, s @ np.array([1.0, 0, 0]), [0, 1, 0])
    lhs -= bracket_value(v, [1, 0, 0], s @ np.array([0.0, 1, 0]))
    assert np.array_equal(lhs, -bracket_value(v, [1, 0, 0], [0, 1, 0]))  # hand expansion for E_11

    out = apply_lie(spec, _e(3, 2, 2), v)
    assert np.abs(out.coords - v.coords).max() == 0.0


def test_weights_of_families():
    assert weights_of(standard(2)) == [(1, 0), (0, 1)]
    assert weights_of(dual(2)) == [(-1, 0), (0, -1)]
    w = weights_of(brackets(3))
    # coordinate layout: pairs (0,1), (0,2), (1,2), target index fastest
    assert w[2 * 3 + 0] == (1, -1, -1)   # c^1_23
    assert w[1 * 3 + 1] == (-1, 1, -1)   # c^2_13
    assert w[0 * 3 + 2] == (-1, -1, 1)   # c^3_12
    assert weights_of(lambda2(3)) == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]
    adj = weights_of(adjoint(2))
    assert adj == [(0, 0), (1, -1), (-1, 1), (0, 0)]
    # reference: the coordinate orders of the module docstring as explicit
    # loops; slot signs (+1 for g, -1 for g^{-T}) add up to the weight
    for n in range(1, 7):
        def e(*signed):
            return tuple(sum(sign for (sign, i) in signed if i == k) for k in range(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        want = {
            standard(n): [e((1, i)) for i in range(n)],
            dual(n): [e((-1, i)) for i in range(n)],
            adjoint(n): [e((1, i), (-1, j)) for i in range(n) for j in range(n)],
            lambda2(n): [e((1, i), (1, j)) for (i, j) in pairs],
            brackets(n): [e((1, l), (-1, i), (-1, j)) for (i, j) in pairs for l in range(n)],
        }
        for spec, ws in want.items():
            got = weights_of(spec)
            assert spec.dim == len(ws) == rep_dim(spec), (spec, n)
            assert got == ws, (spec, n)
            assert all(type(x) is int for w in got for x in w)  # plain ints, for JSON


def test_weight_components():
    spec = adjoint(2)
    comp = weight_components(spec, adjoint_from_matrix(_e(2, 0, 1)))
    assert set(comp) == {(1, -1)}
    assert comp[(1, -1)].tolist() == [1.0]

    comp = weight_components(spec, adjoint_from_matrix(np.eye(2)))
    assert set(comp) == {(0, 0)}
    assert comp[(0, 0)].tolist() == [1.0, 1.0]

    comp = weight_components(standard(2), rep_vector(standard(2), [1.0, 1.0]))
    assert len(comp) == 2

    with pytest.raises(ValueError):
        weight_components(spec, adjoint_from_matrix(np.zeros((2, 2))))


def test_weight_spaces_built_once_per_spec_and_read_only():
    for spec in matrix_families(3) + [torus_weights([(2, 0), (1, 0), (1, 1), (1, -1), (1, 0)])]:
        w, spaces = _weight_spaces(spec)
        # an equal spec built anew hits the same cached table
        assert _weight_spaces(RepSpec(spec.family, spec.n, spec.weights)) is _weight_spaces(spec)
        assert list(spaces) == sorted(set(weights_of(spec)))
        assert sorted(np.concatenate(list(spaces.values())).tolist()) == list(range(spec.dim))
        for chi, idx in spaces.items():
            assert all(weights_of(spec)[k] == chi for k in idx)
        for a in (w, *spaces.values()):
            assert not a.flags.writeable
        with pytest.raises(TypeError):
            spaces[(0,) * spec.n] = np.arange(1)


def test_lambda2_embed():
    v = lambda2_embed([1.0, 0.0], [0.0, 1.0])
    assert np.array_equal(lambda2_to_matrix(v), _e(2, 0, 1) - _e(2, 1, 0))
    assert np.abs(lambda2_embed([1.0, 2.0], [1.0, 2.0]).coords).max() == 0.0
    assert np.array_equal(lambda2_embed([0.0, 1.0], [1.0, 0.0]).coords, -v.coords)


def test_lambda2_embed_bilinear(rng):
    x, y, z = rng.normal(size=(3, 4))
    lhs = lambda2_embed(x + 2.0 * z, y).coords
    rhs = lambda2_embed(x, y).coords + 2.0 * lambda2_embed(z, y).coords
    assert np.abs(lhs - rhs).max() <= 1e-12


@pytest.mark.parametrize("n", [2, 3])
def test_exponential_derivative_consistency(rng, n):
    h = 1e-5
    for spec in matrix_families(n):
        x = rng.normal(size=(n, n))
        v = random_vector(rng, spec)
        scale = max(1.0, v.norm)
        diff = (apply_group(spec, expm(h * x), v).coords - v.coords) / h
        lie = apply_lie(spec, x, v).coords
        assert np.abs(diff - lie).max() <= 1e-4 * scale


def test_group_homomorphism(rng):
    for spec in matrix_families(3):
        g = random_well_conditioned(rng, 3)
        h = random_well_conditioned(rng, 3)
        v = random_vector(rng, spec)
        lhs = apply_group(spec, g, apply_group(spec, h, v)).coords
        rhs = apply_group(spec, g @ h, v).coords
        assert np.abs(lhs - rhs).max() <= 1e-10 * max(1.0, np.abs(rhs).max())


def test_symmetry_split_under_inner_product(rng):
    # pi(B) symmetric for B in p, pi(X) skew for X in k, w.r.t. the dot product
    ctx = build_context(3, "GL")
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        w = random_vector(rng, spec)
        for b in ctx.p_basis:
            lhs = apply_lie(spec, b, v).coords @ w.coords
            rhs = v.coords @ apply_lie(spec, b, w).coords
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))
        for x in ctx.k_basis:
            lhs = apply_lie(spec, x, v).coords @ w.coords
            rhs = v.coords @ apply_lie(spec, x, w).coords
            assert abs(lhs + rhs) <= 1e-12 * max(1.0, abs(lhs))


def test_diagonal_action_scales_by_weights_exactly(rng):
    # powers of two keep every float operation exact, so the comparison is
    # against the literal weight monomial, with zero tolerance
    diag = np.array([2.0, 1.0, -4.0])
    g = np.diag(diag)
    for spec in matrix_families(3):
        v = random_vector(rng, spec)
        out = apply_group(spec, g, v)
        ws = weights_of(spec)
        expected = np.array([v.coords[k] * np.prod(diag ** np.array(ws[k]))
                             for k in range(spec.dim)])
        assert np.array_equal(out.coords, expected)


def test_torus_weights_family(rng):
    spec = torus_weights([(1, 0), (0, 1), (1, 1)])
    v = rep_vector(spec, [1.0, 2.0, 3.0])
    out = apply_group(spec, np.diag([2.0, 4.0]), v)
    assert out.coords.tolist() == [2.0, 8.0, 24.0]
    out = apply_lie(spec, np.diag([1.0, -2.0]), v)
    assert out.coords.tolist() == [1.0, -4.0, -3.0]
    with pytest.raises(ValueError):
        apply_group(spec, np.array([[1.0, 1.0], [0.0, 1.0]]), v)
    with pytest.raises(ValueError):
        apply_lie(spec, np.array([[0.0, 1.0], [0.0, 0.0]]), v)
    with pytest.raises(ValueError):
        apply_group(spec, np.diag([1.0, 0.0]), v)


def test_singular_group_element_rejected(rng):
    for spec in matrix_families(2):
        v = random_vector(rng, spec)
        with pytest.raises(ValueError):
            apply_group(spec, np.array([[1.0, 1.0], [1.0, 1.0]]), v)


def test_ill_conditioned_warning(rng):
    spec = adjoint(2)
    v = random_vector(rng, spec)
    g = np.diag([1e9, 1e-9])
    with pytest.warns(UserWarning):
        apply_group(spec, g, v)


def test_k_action_is_orthogonal(rng):
    for spec in matrix_families(3):
        k = random_orthogonal(rng, 3)
        v = random_vector(rng, spec)
        out = apply_group(spec, k, v)
        assert abs(out.norm - v.norm) <= 1e-12 * max(1.0, v.norm)


def test_vector_json_round_trip(rng):
    for spec in matrix_families(3) + [torus_weights([(1, 0, 0), (0, -1, 2)])]:
        v = random_vector(rng, spec)
        doc = vector_to_json(v)
        back = vector_from_json(doc)
        assert back.spec == v.spec
        assert np.array_equal(back.coords, v.coords)


def test_rep_vector_length_checked():
    with pytest.raises(ValueError):
        rep_vector(adjoint(2), [1.0, 2.0, 3.0])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rep_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="finite; coordinate 2"):
        rep_vector(standard(3), [0.0, 1.0, bad])
    with pytest.raises(ValueError, match="finite"):
        rep_vector(torus_weights([(1, 0), (0, 1)]), [bad, 1.0])


def test_act_kernel_equals_apply_group(rng):
    # the flows' right-hand sides run _act directly; it must be the same
    # arithmetic as the validated entry point, bit for bit
    from momentflow.reps import _act
    torus = torus_weights([(1, 0, 0), (0, 1, 0), (-1, -1, 2), (2, -1, 0)])
    for _ in range(5):
        cases = [(spec, random_well_conditioned(rng, 3)) for spec in matrix_families(3)]
        for spec, g in cases + [(torus, np.diag(rng.uniform(0.5, 2.0, 3)))]:
            v = random_vector(rng, spec)
            assert np.array_equal(_act(spec, g, np.linalg.inv(g), v.coords),
                                  apply_group(spec, g, v).coords), spec.family


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_group_action_matches_the_family_formulas(rng, n):
    # reference: each family's action written out on its own objects; the
    # slot kernel composes g on a +1 slot and g^{-T} on a -1 slot
    g = random_well_conditioned(rng, n)
    gi = np.linalg.inv(g)
    formulas = {
        standard(n): lambda v: g @ v.coords,
        dual(n): lambda v: gi.T @ v.coords,
        adjoint(n): lambda v: (g @ adjoint_to_matrix(v) @ gi).reshape(-1),
        lambda2(n): lambda v: lambda2_from_matrix(g @ lambda2_to_matrix(v) @ g.T).coords,
        # (g.mu)(x, y) = g mu(g^{-1} x, g^{-1} y)
        brackets(n): lambda v: brackets_from_tensor(
            np.einsum("lm,mab,ai,bj->lij", g, brackets_tensor(v), gi, gi)).coords,
    }
    for spec, formula in formulas.items():
        v = random_vector(rng, spec)
        want = formula(v)
        got = apply_group(spec, g, v).coords
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want), spec.family


def test_pair_bridges_match_pair_loops(rng):
    # reference: the coordinate orders of the module docstring, written out
    # as explicit loops over the pairs i < j
    n = 4
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    v = random_vector(rng, lambda2(n))
    a = np.zeros((n, n))
    for idx, (i, j) in enumerate(pairs):
        a[i, j], a[j, i] = v.coords[idx], -v.coords[idx]
    assert np.array_equal(lambda2_to_matrix(v), a)
    assert np.array_equal(lambda2_from_matrix(a).coords, v.coords)
    mu = random_vector(rng, brackets(n))
    c = mu.coords.reshape(-1, n) / np.sqrt(2.0)
    t = np.zeros((n, n, n))
    for idx, (i, j) in enumerate(pairs):
        t[:, i, j], t[:, j, i] = c[idx], -c[idx]
    assert np.array_equal(brackets_tensor(mu), t)
    back = np.sqrt(2.0) * np.concatenate([t[:, i, j] for (i, j) in pairs])
    assert np.array_equal(brackets_from_tensor(t).coords, back)


@pytest.mark.parametrize("shape", [(3, 4, 4), (3, 3), (2, 2, 2, 2)])
def test_brackets_from_tensor_rejects_non_cubic_tensors(shape):
    # a (3, 4, 4) tensor used to give a brackets(3) vector of its 3 x 3 corner
    with pytest.raises(ValueError, match="shape"):
        brackets_from_tensor(np.zeros(shape))


@pytest.mark.parametrize("spec", [lambda2(1), brackets(1)], ids=lambda s: s.family)
def test_zero_dimensional_modules_are_the_zero_vector(spec):
    # the scale check used to take np.max of the empty coordinate array
    from momentflow import FlowParams, gradient_flow, moment, verify_flow_equivalence
    ctx = build_context(1, "GL")
    v = rep_vector(spec, [])
    assert spec.dim == 0 and v.norm == 0.0
    assert np.array_equal(apply_group(spec, [[2.0]], v).coords, [])
    with pytest.raises(ValueError, match="moment map is undefined at the zero vector"):
        moment(ctx, spec, v)
    with pytest.raises(ValueError, match="zero vector has no state"):
        weight_components(spec, v)
    with pytest.raises(ValueError, match="cannot flow the zero vector"):
        gradient_flow(ctx, spec, v, FlowParams(t_max=1.0))
    with pytest.raises(ValueError, match="cannot flow the zero vector"):
        verify_flow_equivalence(ctx, spec, v, np.eye(1), 1.0)
