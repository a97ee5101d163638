import numpy as np
import pytest

from momentflow import (adjoint, brackets, brackets_tensor, dual, lambda2, rep_vector,
                        standard)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


def random_orthogonal(rng, n):
    q, r = np.linalg.qr(rng.normal(size=(n, n)))
    return q * np.sign(np.diag(r))


def random_spd(rng, n, lo=0.2, hi=3.0):
    q = random_orthogonal(rng, n)
    return (q * rng.uniform(lo, hi, n)) @ q.T


def random_well_conditioned(rng, n, lo=0.5, hi=2.0):
    return random_orthogonal(rng, n) @ np.diag(rng.uniform(lo, hi, n)) @ random_orthogonal(rng, n)


def matrix_families(n):
    """The five built-in families at size n."""
    return [standard(n), dual(n), adjoint(n), lambda2(n), brackets(n)]


def random_vector(rng, spec):
    return rep_vector(spec, rng.normal(size=spec.dim))


def bracket_value(mu, x, y):
    """mu(x, y) for a Brackets vector mu, read off its structure tensor."""
    return np.einsum("lij,i,j->l", brackets_tensor(mu),
                     np.asarray(x, dtype=float), np.asarray(y, dtype=float))
