import json
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from momentflow import (MINUS_INFINITY, Partition, RepSpec, adjoint, adjoint_from_matrix,
                        apply_group, brackets, build_context, dual,
                        enumerate_labels, instability_measure, jordan_label, jordan_vector,
                        kn_label_via_flow, label_from_json, label_to_json,
                        lambda2, optimal_class, partitions, project_to_sl,
                        rep_vector, standard, state_of, stratum_membership,
                        torus_weights, weights_of, weyl_normalize)
from momentflow.bracket import bracket_preset
from momentflow.hesselink import HesselinkLabel
from momentflow import minnorm
from momentflow.minnorm import min_norm_point, min_norm_point_by_enumeration

from conftest import random_vector


def F(*a):
    return Fraction(*a)


def _e(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


def test_state_of_examples():
    assert state_of(adjoint(2), adjoint_from_matrix(_e(2, 0, 1))) == [(1, -1)]
    assert state_of(adjoint(3), adjoint_from_matrix(np.eye(3))) == [(0, 0, 0)]
    mu = bracket_preset("heisenberg", 3)
    assert state_of(brackets(3), mu) == [(-1, -1, 1)]


def test_instability_measure():
    assert instability_measure([(1, 0)], (1, 0)) == 1
    assert instability_measure([(1, 0)], (-1, 0)) is MINUS_INFINITY
    assert instability_measure([(1, -1)], (1, -1)) == 2
    with pytest.raises(ValueError):
        instability_measure([], (1, 0))


def test_instability_measure_additive_under_eigenvector_shift():
    # if every state weight pairs identically with the shift, the measure
    # translates by that amount
    state = [(1, -1, 0), (0, 1, -1)]
    eta = (F(1, 2), F(0), F(-1, 2))
    shift = (1, 1, 1)  # pairs to 0 with both roots
    assert instability_measure(state, eta) == instability_measure(
        state, tuple(a + b for a, b in zip(eta, shift)))


def test_optimal_class_examples():
    lbl = optimal_class(standard(2), rep_vector(standard(2), [1.0, 0.0]))
    assert lbl.eta == (F(1), F(0))
    assert lbl.q == 1

    assert optimal_class(adjoint(2), adjoint_from_matrix(np.eye(2))) is None

    lbl = optimal_class(adjoint(2), adjoint_from_matrix(_e(2, 0, 1)))
    assert lbl.eta == (F(1), F(-1))
    assert lbl.q == 2
    assert lbl.eta_normalized == (F(1, 2), F(-1, 2))
    assert np.array_equal(lbl.beta, np.diag([1.0, -1.0]))


def test_optimal_class_scale_invariant(rng):
    spec = adjoint(3)
    v = random_vector(rng, spec)
    base = optimal_class(spec, v)
    for c in (-3.0, 7.0):
        other = optimal_class(spec, rep_vector(spec, c * v.coords))
        assert (base is None) == (other is None)
        if base is not None:
            assert base.eta == other.eta


_magnitudes = st.floats(0.5, 2.0)
_signed = st.tuples(st.sampled_from([-1.0, 1.0]), _magnitudes).map(lambda p: p[0] * p[1])


@st.composite
def _sparse_vector_and_torus_element(draw):
    # nonzero coordinates and torus entries are bounded away from zero, so
    # every rescaled weight component stays far above zero_tol and the state
    # cannot change
    spec = draw(st.sampled_from([adjoint(3), lambda2(4), brackets(3)]))
    coords = draw(st.lists(st.one_of(st.just(0.0), _signed), min_size=spec.dim,
                           max_size=spec.dim).filter(any))
    perm = draw(st.permutations(range(spec.n)))
    torus = draw(st.lists(_signed, min_size=spec.n, max_size=spec.n))
    return spec, rep_vector(spec, coords), np.eye(spec.n)[list(perm)], np.diag(torus)


@settings(max_examples=60, deadline=None, database=None)
@given(_sparse_vector_and_torus_element())
def test_optimal_class_invariant_under_permutations_and_torus(case):
    spec, v, perm, torus = case

    def eta(w):  # the label is determined by eta; None marks semistability
        label = optimal_class(spec, w)
        return None if label is None else label.eta

    base = eta(v)
    for g in (perm, torus):
        assert eta(apply_group(spec, g, v)) == base


def test_null_cone_dichotomy(rng):
    # semistable iff zero lies in the state hull iff no eta achieves a
    # positive measure certificate
    spec = adjoint(3)
    for _ in range(15):
        coords = np.where(rng.random(9) < 0.5, 0.0, rng.normal(size=9))
        if not coords.any():
            continue
        v = rep_vector(spec, coords)
        state = state_of(spec, v)
        cert = min_norm_point(state)
        lbl = optimal_class(spec, v)
        assert (lbl is None) == cert.is_zero
        if lbl is not None:
            # KKT pairing holds for the raw (unsorted) minimizer
            assert instability_measure(state, cert.eta) == cert.q


def test_enumerate_labels_standard_n3():
    enum = enumerate_labels(standard(3))
    etas = {lab.eta for lab in enum.labels}
    assert etas == {
        (F(1), F(0), F(0)),
        (F(1, 2), F(1, 2), F(0)),
        (F(1, 3), F(1, 3), F(1, 3)),
    }
    assert not enum.zero_label
    qs = [lab.q for lab in enum.labels]
    assert qs == sorted(qs, reverse=True)


def test_enumerate_labels_dual_is_negated():
    enum_d = enumerate_labels(dual(2))
    assert {lab.eta for lab in enum_d.labels} == {
        (F(0), F(-1)),
        (F(-1, 2), F(-1, 2)),
    }


def test_enumerate_labels_adjoint_n2():
    enum = enumerate_labels(adjoint(2))
    assert {lab.eta for lab in enum.labels} == {(F(1), F(-1))}
    assert enum.zero_label


def test_enumerate_labels_cap():
    with pytest.raises(ValueError):
        enumerate_labels(adjoint(5))  # 21 distinct weights
    enum = enumerate_labels(adjoint(3))  # 7 distinct weights
    assert enum.zero_label
    assert (F(1), F(0), F(-1)) in {lab.eta for lab in enum.labels}


def _subset_reference(spec):
    """Weyl-normalized Wolfe minimizers of every non-empty subset of the
    distinct weights, and whether zero is among them."""
    distinct = sorted(set(weights_of(spec)))
    etas, zero = set(), False
    for size in range(1, len(distinct) + 1):
        for subset in combinations(distinct, size):
            cert = min_norm_point(subset)
            if cert.is_zero:
                zero = True
            else:
                etas.add(weyl_normalize(cert.eta))
    return etas, zero


def _assert_matches_subset_reference(spec):
    enum = enumerate_labels(spec)
    etas, zero = _subset_reference(spec)
    assert [lab.eta for lab in enum.labels] == sorted(
        etas, key=lambda eta: (-sum(x * x for x in eta), eta))
    assert enum.zero_label == zero


@pytest.mark.parametrize("spec", [standard(3), dual(3), adjoint(2), adjoint(3),
                                  lambda2(4), brackets(3)],
                         ids=lambda spec: f"{spec.family}{spec.n}")
def test_enumerate_labels_matches_subset_reference(spec):
    _assert_matches_subset_reference(spec)


_torus_modules = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.tuples(*[st.integers(-2, 2)] * n), min_size=1, max_size=8))


@settings(max_examples=40, deadline=None, database=None)
@given(_torus_modules)
def test_enumerate_labels_matches_subset_reference_on_torus_modules(weights):
    _assert_matches_subset_reference(torus_weights(weights))


_ENUMERATION_GOLDEN = json.loads(
    (Path(__file__).parent / "enumeration_golden.json").read_text())


@pytest.mark.parametrize("case", sorted(_ENUMERATION_GOLDEN))
def test_enumerate_labels_golden(case):
    # enumerations too large for the subset reference above, pinned label
    # for label in order; recorded when every affine solve was in Fractions
    family, n = case.split()
    enum = enumerate_labels(RepSpec(family, int(n)))
    assert [[str(x) for x in lab.eta] for lab in enum.labels] == _ENUMERATION_GOLDEN[case]["etas"]
    assert enum.zero_label == _ENUMERATION_GOLDEN[case]["zero_label"]


@pytest.mark.parametrize("n", [3, 4])
def test_enumerate_labels_contains_jordan_labels(n):
    etas = {lab.eta for lab in enumerate_labels(adjoint(n)).labels}
    for p in partitions(n):
        if max(p.parts) > 1:
            assert jordan_label(p).label.eta in etas


def test_stratum_membership_examples():
    spec = adjoint(2)
    label = HesselinkLabel.from_eta((1, -1))

    rep = stratum_membership(spec, adjoint_from_matrix(_e(2, 0, 1)), label)
    assert rep.grading == {(1, -1): F(0)}
    assert rep.in_V_ge0 and rep.in_U_ge0
    assert np.array_equal(rep.v0.coords, adjoint_from_matrix(_e(2, 0, 1)).coords)

    rep = stratum_membership(spec, adjoint_from_matrix(_e(2, 1, 0)), label)
    assert rep.grading == {(-1, 1): F(-4)}
    assert not rep.in_V_ge0 and not rep.in_U_ge0

    rep = stratum_membership(spec, adjoint_from_matrix(np.diag([1.0, -1.0])), label)
    assert rep.grading == {(0, 0): F(-2)}
    assert not rep.in_V_ge0


def test_stratum_grading_matches_measure():
    # m(v, eta/q) = 1 + (min r)/q on the non-negative part
    spec = adjoint(3)
    x = adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2) + _e(3, 0, 2))
    label = optimal_class(spec, x)
    rep = stratum_membership(spec, x, label)
    assert rep.in_V_ge0
    measured = instability_measure(state_of(spec, x),
                                   tuple(e / label.q for e in label.eta))
    assert measured == 1 + min(rep.grading.values()) / label.q


def test_stratum_chain_preserves_q():
    # v has a strictly positive graded piece; v0 drops it and keeps the label
    spec = adjoint(3)
    v = adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2) + _e(3, 0, 2))
    label = optimal_class(spec, v)
    rep = stratum_membership(spec, v, label)
    assert rep.in_U_ge0
    assert rep.grading[(1, 0, -1)] > 0
    v0 = rep.v0
    assert np.array_equal(adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2)).coords, v0.coords)
    assert optimal_class(spec, v0).q == label.q
    assert optimal_class(spec, v0).eta == label.eta


def test_membership_equivalent_to_raw_min_norm():
    # in_U_ge0 iff the raw (unsorted) min-norm point of the state equals eta
    spec = adjoint(2)
    label = HesselinkLabel.from_eta((1, -1))
    for m, expected in [(_e(2, 0, 1), True), (_e(2, 1, 0), False)]:
        v = adjoint_from_matrix(m)
        raw = min_norm_point(state_of(spec, v)).eta
        rep = stratum_membership(spec, v, label)
        assert rep.in_U_ge0 == (raw == label.eta) == expected


def test_stratum_membership_bracket_family():
    # single-weight state at a sorted representative: mu(e2, e3) = e1 is the
    # Heisenberg bracket moved by a permutation, with weight (1, -1, -1); it
    # sits at grading zero of its own label and is semistable for the
    # orthogonal hyperplane torus
    spec = brackets(3)
    t = np.zeros((3, 3, 3))
    t[0, 1, 2] = 1.0
    t[0, 2, 1] = -1.0
    from momentflow.reps import brackets_from_tensor
    mu = brackets_from_tensor(t)
    label = HesselinkLabel.from_eta((1, -1, -1))
    rep = stratum_membership(spec, mu, label)
    assert rep.grading == {(1, -1, -1): F(0)}
    assert rep.in_V_ge0 and rep.in_U_ge0
    assert np.array_equal(rep.v0.coords, mu.coords)


def test_stratum_membership_standard_family():
    spec = standard(2)
    label = HesselinkLabel.from_eta((1, 0))
    e1 = rep_vector(spec, [1.0, 0.0])
    rep = stratum_membership(spec, e1, label)
    assert rep.in_V_ge0 and rep.in_U_ge0
    # e1 + e2 has the weight e2 at grading -1 < 0
    rep = stratum_membership(spec, rep_vector(spec, [1.0, 1.0]), label)
    assert rep.grading == {(1, 0): F(0), (0, 1): F(-1)}
    assert not rep.in_V_ge0


def test_stratum_membership_reads_one_state_cut():
    # (1, -1) has r = 0, but its component 1e-13 lies below zero_tol * ||v||:
    # it is not in the state, so it stays out of v0 and out of the hull that
    # decides in_U_ge0, which is then the single point (1, 1) - eta
    spec = torus_weights([(2, 0), (1, 0), (1, 1), (1, -1)])
    v = rep_vector(spec, [1.0, 0.0, 1e-3, 1e-13])
    rep = stratum_membership(spec, v, HesselinkLabel.from_eta((1, 0)))
    assert rep.grading == {(1, 1): F(0), (2, 0): F(1)}
    assert rep.in_V_ge0
    assert rep.v0.coords.tolist() == [0.0, 0.0, 1e-3, 0.0]
    assert not rep.in_U_ge0


def _stratum_oracle(spec, v, eta, q):
    """Grading, v0 coordinates, in_V_ge0 and in_U_ge0 from the state of v;
    the level weights all pair to q with eta, so v0 is semistable for the
    hyperplane torus iff eta, the point of that hyperplane nearest zero, is
    the minimum-norm point of their hull."""
    state = state_of(spec, v)
    grading = {chi: sum(F(a) * b for a, b in zip(chi, eta)) - q for chi in state}
    level = [chi for chi in state if grading[chi] == 0]
    coords0 = [c if w in level else 0.0 for w, c in zip(weights_of(spec), v.coords)]
    in_v = all(r >= 0 for r in grading.values())
    in_u = in_v and bool(level) and min_norm_point_by_enumeration(level)[0] == eta
    return grading, coords0, in_v, in_u


@st.composite
def _torus_stratum_case(draw):
    # magnitudes 1e-13 and 1e-3 put components on both sides of the cut
    weights = draw(_torus_modules)
    coords = draw(st.lists(st.sampled_from([0.0, 1e-13, -1e-13, 1e-3, 1.0, -2.0]),
                           min_size=len(weights), max_size=len(weights)).filter(any))
    subset = draw(st.lists(st.sampled_from(weights), min_size=1, max_size=4))
    return torus_weights(weights), coords, min_norm_point(subset).eta


@settings(max_examples=150, deadline=None, database=None)
@given(_torus_stratum_case())
def test_stratum_membership_matches_state_oracle(case):
    spec, coords, eta = case
    assume(any(eta))
    v = rep_vector(spec, coords)
    label = HesselinkLabel.from_eta(eta)
    grading, coords0, in_v, in_u = _stratum_oracle(spec, v, label.eta, label.q)
    rep = stratum_membership(spec, v, label)
    assert rep.grading == grading
    assert rep.v0.coords.tolist() == coords0
    assert rep.in_V_ge0 == in_v
    assert rep.in_U_ge0 == in_u


def test_stratum_membership_errors():
    spec = adjoint(2)
    label = HesselinkLabel.from_eta((1, -1))
    with pytest.raises(ValueError):
        stratum_membership(spec, adjoint_from_matrix(np.zeros((2, 2))), label)
    with pytest.raises(ValueError):
        HesselinkLabel.from_eta((0, 0))


@pytest.mark.parametrize("eta", [(1,), (1, 0, -1)])
def test_stratum_membership_rejects_a_label_of_another_length(eta):
    # zip used to pair the weights with a truncated eta: a 1-entry label of
    # adjoint(2) reported in_V_ge0 and in_U_ge0 true
    v = adjoint_from_matrix(_e(2, 0, 1))
    with pytest.raises(ValueError, match=f"label has {len(eta)} entries, expected 2"):
        stratum_membership(adjoint(2), v, HesselinkLabel.from_eta(eta))


def test_instability_measure_rejects_weights_of_another_length():
    with pytest.raises(ValueError, match="same length"):
        instability_measure([(1, 0), (0, 1)], (1,))
    with pytest.raises(ValueError, match="same length"):
        instability_measure([(1, 0), (0, 1, 0)], (1, 0))


def test_kn_label_via_flow_examples():
    ctx = build_context(2, "GL")
    rep = kn_label_via_flow(ctx, adjoint(2), adjoint_from_matrix(_e(2, 0, 1)))
    assert rep.match
    assert np.abs(rep.spectrum - np.array([1.0, -1.0])).max() <= 1e-8

    ctx3 = build_context(3, "GL")
    rep = kn_label_via_flow(ctx3, adjoint(3),
                            adjoint_from_matrix(_e(3, 0, 1) + _e(3, 1, 2)))
    assert rep.match
    assert np.abs(rep.spectrum - np.array([0.5, 0.0, -0.5])).max() <= 1e-5

    mu = bracket_preset("heisenberg", 3)
    rep = kn_label_via_flow(ctx3, brackets(3), mu)
    assert rep.match
    assert rep.hesselink.eta == (F(1), F(-1), F(-1))


def test_kn_label_rejects_semistable():
    # the identity's one weight is 0, so its flow stops at once with F = 0
    ctx = build_context(2, "GL")
    with pytest.raises(ValueError, match="torus-semistable"):
        kn_label_via_flow(ctx, adjoint(2), adjoint_from_matrix(np.eye(2)))
    with pytest.raises(ValueError, match="zero vector has no state"):
        kn_label_via_flow(ctx, adjoint(2), adjoint_from_matrix(np.zeros((2, 2))))


def _counting_solves(monkeypatch):
    solves = {"n": 0}
    solve = minnorm.solve_exact

    def counted(a, b):
        solves["n"] += 1
        return solve(a, b)

    monkeypatch.setattr(minnorm, "solve_exact", counted)
    return solves


def test_kn_label_is_optimal_class_without_a_fraction_solve(monkeypatch, rng):
    # Wolfe starts from the face the flow's limit keeps, which certifies on
    # every diagonal conjugate of a Jordan matrix: the label is
    # optimal_class's and no minor cycle is left to solve
    solves = _counting_solves(monkeypatch)
    for n in range(4, 9):
        ctx = build_context(n, "GL")
        for p in partitions(n):
            if p.parts[0] == 1:
                continue  # the zero matrix
            support = [i * n + i + 1 for i in range(n - 1) if i + 1 not in np.cumsum(p.parts)]
            coords = np.zeros(n * n)
            coords[support] = rng.uniform(0.5, 2.0, len(support))
            v = rep_vector(adjoint(n), coords)
            solves["n"] = 0
            rep = kn_label_via_flow(ctx, v.spec, v)
            assert solves["n"] == 0, p.parts
            assert rep.hesselink.eta == optimal_class(v.spec, v).eta, p.parts
            assert rep.match, p.parts


def test_kn_label_without_a_certified_face_is_optimal_class(monkeypatch):
    # the regular nilpotent conjugated by the unimodular I + E12 + E34: its
    # flow leaves the torus-optimal face, so the seed does not certify and
    # Wolfe goes on from the cold start to optimal_class's label
    solves = _counting_solves(monkeypatch)
    x = np.array([[0, 1, 1, -1], [0, 0, 1, -1], [0, 0, 0, 1], [0, 0, 0, 0]], dtype=float)
    v = adjoint_from_matrix(x)
    rep = kn_label_via_flow(build_context(4, "GL"), adjoint(4), v)
    assert solves["n"] > 0
    assert rep.hesselink.eta == optimal_class(adjoint(4), v).eta == (
        F(3, 10), F(1, 10), F(-1, 10), F(-3, 10))


def test_labels_compare_and_hash_by_their_exact_fields():
    # beta is a numpy array: with it compared, == raised "truth value of an
    # array ... is ambiguous" and hash() raised "unhashable type"
    p = Partition((3, 2))
    v = jordan_vector(p)
    labels = [jordan_label(p).label, optimal_class(v.spec, v),
              kn_label_via_flow(build_context(5, "GL"), v.spec, v).hesselink,
              label_from_json(label_to_json(optimal_class(v.spec, v)))]
    assert all(label == labels[0] for label in labels)
    assert len(set(labels)) == 1
    other = jordan_label(Partition((4, 1))).label
    assert other != labels[0]
    assert len(set(labels + [other])) == 2


def test_project_to_sl():
    assert project_to_sl((1, 0)) == (F(1, 2), F(-1, 2))
    assert project_to_sl((1, 1, 1)) == (F(0), F(0), F(0))
    assert project_to_sl((1, -1)) == (F(1), F(-1))
    out = project_to_sl((F(1, 3), F(1, 2), F(0)))
    assert sum(out) == 0


def test_label_json_round_trip():
    lbl = optimal_class(adjoint(2), adjoint_from_matrix(_e(2, 0, 1)))
    doc = label_to_json(lbl)
    assert doc["eta"] == ["1/1", "-1/1"]
    assert doc["q"] == "2/1"
    back = label_from_json(doc)
    assert back.eta == lbl.eta and back.q == lbl.q

    assert label_to_json(None) == {"semistable": True}
    assert label_from_json({"semistable": True}) is None

    # alternative encodings
    assert label_from_json({"eta": [["1", "1"], ["-1", "1"]]}).eta == (F(1), F(-1))
    assert label_from_json({"eta": [1, -1]}).eta == (F(1), F(-1))
    with pytest.raises(ValueError):
        label_from_json({"eta": ["1/1", "-1/1"], "q": "3/1"})
    with pytest.raises(ValueError):
        label_from_json({"eta": [0.5, -0.5]})
