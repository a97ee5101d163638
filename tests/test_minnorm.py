from fractions import Fraction

import numpy as np
import pytest

from momentflow import adjoint, enumerate_labels, minnorm
from momentflow.minnorm import (_affine_coefficients, _affine_min_norm, _combination,
                                _integer_points, _points, _wolfe, min_norm_point,
                                min_norm_point_by_enumeration, solve_exact,
                                to_rational_vector)


def F(*a):
    return Fraction(*a)


def test_single_point_hull():
    cert = min_norm_point([(1, -1)])
    assert cert.eta == (F(1), F(-1))
    assert cert.q == 2
    assert cert.support == ((F(1), F(-1)),)
    assert cert.coefficients == (F(1),)
    assert cert.optimality_margin == 0


def test_two_simple_roots():
    # oracle below confirms; frozen value (1/2, 0, -1/2) with q = 1/2
    cert = min_norm_point([(1, -1, 0), (0, 1, -1)])
    assert cert.eta == (F(1, 2), F(0), F(-1, 2))
    assert cert.q == F(1, 2)
    eta, q = min_norm_point_by_enumeration([(1, -1, 0), (0, 1, -1)])
    assert (eta, q) == (cert.eta, cert.q)


def test_two_unit_vectors():
    cert = min_norm_point([(1, 0), (0, 1)])
    assert cert.eta == (F(1, 2), F(1, 2))
    assert cert.q == F(1, 2)
    assert set(cert.support) == {(F(1), F(0)), (F(0), F(1))}
    assert cert.coefficients == (F(1, 2), F(1, 2))


def test_zero_in_hull():
    cert = min_norm_point([(1, -1), (-1, 1)])
    assert cert.is_zero
    assert cert.q == 0
    cert = min_norm_point([(2, 1), (-1, -1), (0, 1)])
    assert cert.is_zero


def test_duplicates_are_harmless():
    cert = min_norm_point([(1, 0), (1, 0), (0, 1)])
    assert cert.q == F(1, 2)


def test_rational_inputs():
    cert = min_norm_point([(F(1, 2), F(-1, 2)), (F(1, 3), F(2, 3))])
    enum_eta, enum_q = min_norm_point_by_enumeration(
        [(F(1, 2), F(-1, 2)), (F(1, 3), F(2, 3))])
    assert (cert.eta, cert.q) == (enum_eta, enum_q)


def test_empty_input_rejected():
    with pytest.raises(ValueError):
        min_norm_point([])
    with pytest.raises(ValueError):
        min_norm_point_by_enumeration([])


def test_mixed_dimensions_rejected():
    with pytest.raises(ValueError):
        min_norm_point([(1, 0), (1, 0, 0)])
    # zip would silently truncate (1, 0) against (1,)
    with pytest.raises(ValueError, match="mixed dimensions"):
        min_norm_point_by_enumeration([(1, 0), (1,)])


def test_solve_exact_simple():
    a = [[F(2), F(1)], [F(1), F(3)]]
    sol = solve_exact(a, [F(5), F(10)])
    assert sol == [F(1), F(3)]


def test_solve_exact_singular_returns_none():
    a = [[F(1), F(2)], [F(2), F(4)]]
    assert solve_exact(a, [F(1), F(1)]) is None


def test_certificate_invariants_random(rng):
    for _ in range(150):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        pts = [tuple(int(x) for x in rng.integers(-3, 4, size=n)) for _ in range(k)]
        cert = min_norm_point(pts)
        # reconstruction, support pairing, and optimality are enforced in the
        # constructor; re-derive them here independently
        recon = [sum(c * p[d] for c, p in zip(cert.coefficients, cert.support))
                 for d in range(n)]
        assert tuple(recon) == cert.eta
        assert sum(cert.coefficients) == 1
        assert all(c > 0 for c in cert.coefficients)
        for p in pts:
            dot = sum(a * b for a, b in zip(to_rational_vector(p), cert.eta))
            assert dot >= cert.q


def _rational_points(rng, dim, k):
    """k rational points in dimension dim, some of them repeats of earlier
    points or affine combinations of two earlier ones (so dependent)."""
    pts = []
    for _ in range(k):
        kind = rng.integers(0, 10) if pts else 0
        if kind == 1:
            pts.append(pts[int(rng.integers(0, len(pts)))])
        elif kind == 2:
            a, b = (pts[int(i)] for i in rng.integers(0, len(pts), size=2))
            t = F(int(rng.integers(-3, 4)), int(rng.integers(1, 5)))
            pts.append(tuple(x + t * (y - x) for x, y in zip(a, b)))
        else:
            pts.append(tuple(F(int(rng.integers(-4, 5)), int(rng.integers(1, 36)))
                             for _ in range(dim)))
    return pts


def test_integer_solve_matches_fraction_solve(rng):
    # the walk's fraction-free integer solve against Wolfe's Fraction solve
    dependent = 0
    for _ in range(2000):
        pts = _rational_points(rng, int(rng.integers(1, 8)), int(rng.integers(1, 9)))
        ints, scale = _integer_points(pts)
        gram = [[sum(x * y for x, y in zip(p, q)) for q in ints] for p in ints]
        subset = list(range(len(pts)))
        sol = _affine_coefficients(gram, subset)
        ref = _affine_min_norm(pts)
        assert (sol is None) == (ref is None)
        if sol is None:
            dependent += 1
            continue
        numerators, det = sol
        assert det > 0
        assert [F(c, det) for c in numerators] == ref[1]
        assert _combination(ints, subset, numerators, det * scale) == ref[0]
    assert 500 < dependent < 1500  # both outcomes well covered


def test_enumeration_walk_work_is_pinned(monkeypatch):
    # the subsets the walk solves on adjoint(4): a change to the walk shows
    # up here as a count
    counts = {"dependent": 0, "feasible": 0, "infeasible": 0}

    def counted(gram, subset):
        sol = _affine_coefficients(gram, subset)
        kind = ("dependent" if sol is None
                else "feasible" if all(c >= 0 for c in sol[0]) else "infeasible")
        counts[kind] += 1
        return sol

    monkeypatch.setattr(minnorm, "_affine_coefficients", counted)
    enum = enumerate_labels(adjoint(4))
    assert (len(enum.labels), enum.zero_label) == (10, True)
    assert counts == {"dependent": 1127, "feasible": 721, "infeasible": 192}


def test_oracle_equivalence_random(rng):
    # exact equality of Wolfe in Fractions and the enumeration's integer
    # solves, on integer points and then on rational ones, which is what
    # stratum_membership hands over (chi - eta)
    for _ in range(150):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        pts = [tuple(int(x) for x in rng.integers(-3, 4, size=n)) for _ in range(k)]
        cert = min_norm_point(pts)
        eta, q = min_norm_point_by_enumeration(pts)
        assert cert.eta == eta
        assert cert.q == q
    for _ in range(150):
        pts = _rational_points(rng, int(rng.integers(1, 5)), int(rng.integers(1, 7)))
        cert = min_norm_point(pts)
        assert (cert.eta, cert.q) == min_norm_point_by_enumeration(pts)


def test_seeded_wolfe_matches_cold_wolfe(monkeypatch, rng):
    # a face only moves Wolfe's start: eta, q and the margin are the cold
    # run's whether or not the face certifies, and a face that does (the
    # cold run's own support always does) leaves no minor cycle to solve.
    # Each set tries its cold support and one of: a single point, the whole
    # set (often dependent), a random part of it (at times empty).
    solves = {"n": 0}

    def counted(a, b):
        solves["n"] += 1
        return solve_exact(a, b)

    monkeypatch.setattr(minnorm, "solve_exact", counted)
    kinds = {"empty": 0, "single": 0, "dependent": 0, "non-positive": 0, "certified": 0}
    for trial in range(2000):
        dim, k = int(rng.integers(1, 8)), int(rng.integers(1, 11))
        if trial % 2:
            pts = _rational_points(rng, dim, k)
        else:
            pts = [tuple(int(x) for x in rng.integers(-3, 4, size=dim)) for _ in range(k)]
            pts += pts[:int(rng.integers(0, 3))]
        distinct = _points(pts)
        cold = _wolfe(distinct, ())
        other = ([pts[int(rng.integers(0, len(pts)))]], pts,
                 [p for p in pts if rng.random() < 0.5])[trial % 3]
        for face in (cold.support, other):
            corral = sorted(set(map(to_rational_vector, face)))
            # classified by the Fraction solve, not by the seed's integer kernel
            ref = _affine_min_norm(corral) if corral else None
            kind = ("empty" if not corral else "single" if len(corral) == 1
                    else "dependent" if ref is None
                    else "non-positive" if min(ref[1]) <= 0 else "certified")
            kinds[kind] += 1
            solves["n"] = 0
            cert = _wolfe(distinct, face)
            assert (cert.eta, cert.q, cert.optimality_margin) == (
                cold.eta, cold.q, cold.optimality_margin)
            if face is cold.support:
                assert solves["n"] == 0
    assert kinds.pop("empty") > 0 and min(kinds.values()) >= 300, kinds


def test_seed_outside_the_weights_is_refused():
    pts = _points([(1, 0), (0, 1)])
    for face in ([(1, 1)], [(1, 0), (1, 0, 0)], [(F(1, 2), F(1, 2))]):
        with pytest.raises(ValueError, match="face weights must be among the weights"):
            _wolfe(pts, face)
