from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest

from momentflow import Partition, dominates, jordan_label, jordan_vector, partitions, state_of
from momentflow.minnorm import min_norm_point_by_enumeration


def F(*a):
    return Fraction(*a)


def test_partition_canonicalization():
    p = Partition((2, 3, 1))
    assert p.parts == (3, 2, 1)
    assert p.n == 6
    assert Partition.parse("3,2").parts == (3, 2)
    with pytest.raises(ValueError):
        Partition((0, 1))
    with pytest.raises(ValueError):
        Partition(())


def test_partitions_enumeration():
    assert sum(1 for _ in partitions(6)) == 11
    assert [p.parts for p in partitions(3)] == [(3,), (2, 1), (1, 1, 1)]


def test_jordan_vector_shapes():
    assert np.array_equal(jordan_vector(Partition((2,))).coords.reshape(2, 2),
                          [[0.0, 1.0], [0.0, 0.0]])
    x = jordan_vector(Partition((3,))).coords.reshape(3, 3)
    assert np.array_equal(x, [[0, 1, 0], [0, 0, 1], [0, 0, 0]])
    x = jordan_vector(Partition((2, 1))).coords.reshape(3, 3)
    assert np.array_equal(x, [[0, 1, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(ValueError):
        jordan_vector(Partition((1, 1)))


def test_jordan_vector_state_is_simple_root_subset():
    for parts in [(3, 2), (4, 1), (2, 2, 1)]:
        p = Partition(parts)
        v = jordan_vector(p)
        n = p.n
        x = v.coords.reshape(n, n)
        expected = []
        for i in range(n - 1):
            if x[i, i + 1]:
                chi = [0] * n
                chi[i], chi[i + 1] = 1, -1
                expected.append(tuple(chi))
        assert state_of(v.spec, v) == sorted(expected)


def test_jordan_label_single_block_2():
    rep = jordan_label(Partition((2,)))
    assert rep.label.eta == (F(1), F(-1))
    assert rep.label.q == 2
    assert rep.beta_paper == (F(1, 2), F(-1, 2))
    assert rep.q_paper == F(1, 2)
    assert rep.identity_ok and rep.display_ok
    # the blanket eigenvalue claim genuinely fails here: the root e1 - e2
    # pairs to 1 > 1/2 = q_paper (see README "Tests and acceptance")
    assert not rep.negdef_ok
    assert rep.block_bound_ok


def test_jordan_label_single_block_3():
    rep = jordan_label(Partition((3,)))
    assert rep.label.eta == (F(1, 2), F(0), F(-1, 2))
    assert rep.label.q == F(1, 2)
    assert rep.beta_paper == (F(1), F(0), F(-1))
    assert rep.q_paper == 2
    assert rep.identity_ok and rep.display_ok and rep.negdef_ok


def test_jordan_label_3_2():
    # oracle: the subset-enumeration minimum-norm point of the state
    p = Partition((3, 2))
    v = jordan_vector(p)
    eta, q = min_norm_point_by_enumeration(state_of(v.spec, v))
    assert q == F(2, 5)

    rep = jordan_label(p)
    assert rep.label.q == F(2, 5)
    assert rep.q_paper == F(5, 2)
    assert rep.identity_ok and rep.display_ok and rep.negdef_ok


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_jordan_identity_suite(n):
    for p in partitions(n):
        if p.parts[0] == 1:
            continue
        rep = jordan_label(p)
        assert rep.identity_ok, p
        assert rep.display_ok, p
        assert rep.block_bound_ok, p
        assert rep.label.q * rep.q_paper == 1


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_negdef_holds_except_single_two_block(n):
    # exact statement of where the blanket semidefiniteness claim is true:
    # it fails precisely for (2, 1, ..., 1)
    for p in partitions(n):
        if p.parts[0] == 1:
            continue
        rep = jordan_label(p)
        expected = not (p.parts[0] == 2 and p.parts.count(2) == 1)
        assert rep.negdef_ok == expected, p


def test_dominance_order():
    assert dominates(Partition((3,)), Partition((2, 1)))
    assert not dominates(Partition((2, 1)), Partition((3,)))
    assert not dominates(Partition((3, 3)), Partition((4, 1, 1)))
    assert not dominates(Partition((4, 1, 1)), Partition((3, 3)))
    with pytest.raises(ValueError):
        dominates(Partition((2,)), Partition((3,)))


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dominance_reverses_q_strictly(n):
    ps = [p for p in partitions(n) if p.parts[0] > 1]
    for a, b in combinations(ps, 2):
        if a.parts == b.parts:
            continue
        if dominates(a, b):
            assert jordan_label(b).label.q > jordan_label(a).label.q, (a, b)
        elif dominates(b, a):
            assert jordan_label(a).label.q > jordan_label(b).label.q, (a, b)
