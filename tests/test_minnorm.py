from fractions import Fraction

import numpy as np
import pytest

from momentflow.minnorm import (min_norm_point, min_norm_point_by_enumeration,
                                solve_exact, to_rational_vector)


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


def test_oracle_equivalence_random(rng):
    # exact equality against the affine-subset enumeration
    for _ in range(150):
        n = int(rng.integers(1, 5))
        k = int(rng.integers(1, 7))
        pts = [tuple(int(x) for x in rng.integers(-3, 4, size=n)) for _ in range(k)]
        cert = min_norm_point(pts)
        eta, q = min_norm_point_by_enumeration(pts)
        assert cert.eta == eta
        assert cert.q == q
