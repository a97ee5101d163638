"""Concrete Cartan data for GL_n(R) and SL_n(R).

Everything downstream is phrased relative to the trace form
``<X, Y> = tr(X^T Y)`` on n x n matrices.  Under that form the Lie algebra
splits orthogonally into skew-symmetric matrices (the compact part, so_n)
and symmetric matrices (for SL_n: trace-free symmetric matrices).  This
module fixes orthonormal bases for both summands, with the diagonal
matrices as a recognizable prefix of the symmetric basis, and provides the
handful of matrix primitives the rest of the package needs: SPD square
roots, descending-sort normalization for the permutation action on
diagonals, and the non-negative eigenspace algebra of ad(beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .reps import _integers

__all__ = [
    "CartanContext",
    "build_context",
    "spd_sqrt",
    "parabolic_lie_algebra",
    "weyl_normalize",
]

# Eigenvalue-difference tolerance for the ad(beta) grading.  Inputs are
# small rationals in practice, so an absolute cutoff is appropriate.
AD_GRADING_TOL = 1e-12


def _traceless_diagonal_basis(n: int) -> np.ndarray:
    """Orthonormal basis of trace-zero diagonals, as (n-1, n) coefficient rows.

    Gram-Schmidt on e_i - e_{i+1}; row k is supported on the first k+2 axes,
    so the result is the usual "staircase" basis (1,-1,0,..)/sqrt(2), etc.
    """
    rows = np.zeros((n - 1, n))
    for k in range(n - 1):
        v = np.zeros(n)
        v[k] = 1.0
        v[k + 1] = -1.0
        for _ in range(2):  # the second pass guards the 1e-14 Gram requirement
            for prev in rows[:k]:
                v -= (prev @ v) * prev
        rows[k] = v / np.linalg.norm(v)
    return rows


@dataclass(frozen=True, eq=False)
class CartanContext:
    """Fixed Cartan data for GL_n(R) or SL_n(R).

    Attributes
    ----------
    n : int
        Matrix size.
    group : str
        "GL" or "SL".
    p_basis : ndarray, shape (dim_p, n, n)
        Orthonormal (trace form) basis of the symmetric part.  The diagonal
        sub-basis comes first: {E_ii} for GL, the trace-zero staircase
        combinations for SL, followed by (E_ij + E_ji)/sqrt(2) for i < j.
    k_basis : ndarray, shape (dim_k, n, n)
        Orthonormal basis of the skew-symmetric part, (E_ij - E_ji)/sqrt(2)
        for i < j.
    """

    n: int
    group: str
    p_basis: np.ndarray
    k_basis: np.ndarray

    @property
    def dim_p(self) -> int:
        return self.p_basis.shape[0]

    @property
    def dim_k(self) -> int:
        return self.k_basis.shape[0]

    @property
    def a_dim(self) -> int:
        """Length of the diagonal prefix of ``p_basis``: the split rank."""
        return self.dim_p - self.dim_k


def build_context(n: int, group: str = "GL") -> CartanContext:
    """Build the Cartan data for GL_n(R) or SL_n(R).

    Contexts are immutable, so one instance per (n, group) is built and
    shared; caches keyed on a context then stay bounded.

    Raises
    ------
    ValueError
        If n is not an integer or n < 1, or if group is "SL" with n < 2.
    """
    if group not in ("GL", "SL"):
        raise ValueError(f"group must be 'GL' or 'SL', got {group!r}")
    n = _integers((n,), f"matrix size is not an integer: {n!r}")[0]
    if n < 1:
        raise ValueError(f"matrix size must be positive, got {n}")
    if group == "SL" and n < 2:
        raise ValueError("SL_n needs n >= 2")
    return _context(n, group)


@lru_cache(maxsize=None)
def _context(n: int, group: str) -> CartanContext:
    """The bases from the one group-dependent datum, the table of diagonal
    rows (unit vectors for GL, the trace-zero staircase for SL), which is the
    prefix of ``p_basis``; the pairs i < j, row-major, give the rest."""
    rows = np.eye(n) if group == "GL" else _traceless_diagonal_basis(n)
    iu, ju = np.triu_indices(n, 1)
    pairs = np.arange(iu.size)
    s = 1.0 / np.sqrt(2.0)
    k_basis = np.zeros((iu.size, n, n))
    k_basis[pairs, iu, ju] = s
    k_basis[pairs, ju, iu] = -s
    diag = np.zeros((len(rows), n, n))
    diag[:, range(n), range(n)] = rows
    # (E_ij + E_ji)/sqrt(2) is the entrywise |(E_ij - E_ji)/sqrt(2)|
    p_basis = np.concatenate([diag, np.abs(k_basis)])
    p_basis.flags.writeable = k_basis.flags.writeable = False
    return CartanContext(n=n, group=group, p_basis=p_basis, k_basis=k_basis)


def _check_symmetric(s: np.ndarray, what: str, tol: float = 1e-10) -> None:
    # a NaN or infinite entry would make the comparison below pass
    if not np.isfinite(s).all():
        raise ValueError(f"{what} must be finite")
    scale = max(1.0, float(np.abs(s).max(initial=0.0)))
    if np.abs(s - s.T).max(initial=0.0) > tol * scale:
        raise ValueError(f"{what} must be symmetric")


def spd_sqrt(s) -> np.ndarray:
    """Unique symmetric positive-definite square root of an SPD matrix.

    Uses the symmetric eigendecomposition (ascending eigenvalue order), so
    the result is deterministic.  Raises ValueError for non-symmetric input
    or a non-positive eigenvalue.
    """
    s = np.asarray(s, dtype=float)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise ValueError("expected a square matrix")
    _check_symmetric(s, "spd_sqrt input")
    return _spd_root_and_inverse(s)[0]


def _spd_root_and_inverse(s: np.ndarray):
    """:func:`spd_sqrt` of a float matrix already known to be symmetric, and
    the inverse of that root, from one eigendecomposition; only positivity
    is checked."""
    w, q = np.linalg.eigh(s)
    if w[0] <= 0.0:
        raise ValueError(f"matrix is not positive definite (min eigenvalue {w[0]:g})")
    r = np.sqrt(w)
    h = (q * r) @ q.T
    return 0.5 * (h + h.T), (q / r) @ q.T


def parabolic_lie_algebra(ctx: CartanContext, beta) -> np.ndarray:
    """Basis of the non-negative eigenspace sum of ad(beta).

    For symmetric beta with eigenpairs (lambda_i, q_i) the matrices
    q_i q_j^T are an orthonormal eigenbasis of ad(beta) with eigenvalues
    lambda_i - lambda_j.  The returned stack holds the grade-zero torus, one
    matrix sum_i row_i q_i q_i^T per row of the context's diagonal table (a
    subalgebra of sl_n for SL), then the q_i q_j^T, i != j, with
    lambda_i - lambda_j >= -AD_GRADING_TOL.

    Returns an array of shape (k, n, n).
    """
    beta = np.asarray(beta, dtype=float)
    if beta.shape != (ctx.n, ctx.n):
        raise ValueError(f"beta must be {ctx.n} x {ctx.n}")
    _check_symmetric(beta, "beta")
    if ctx.group == "SL" and abs(np.trace(beta)) > 1e-10 * max(1.0, np.abs(beta).max()):
        raise ValueError("beta must be trace-zero for SL")

    lam, q = np.linalg.eigh(beta)
    rows = ctx.p_basis[:ctx.a_dim].diagonal(axis1=1, axis2=2)
    i, j = np.nonzero((lam[:, None] - lam[None, :] >= -AD_GRADING_TOL)
                      & ~np.eye(ctx.n, dtype=bool))
    torus = [(q * row) @ q.T for row in rows]
    return np.concatenate([torus, q.T[i, :, None] * q.T[j, None, :]])


def weyl_normalize(v) -> tuple:
    """Canonical representative of the S_n-orbit: the entries of a sequence
    as a tuple sorted descending, exact entries (e.g. Fractions) kept."""
    return tuple(sorted(v, reverse=True))
