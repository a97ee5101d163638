"""Moment map, energy, translated moment maps and the criticality residual.

The moment map of a vector v != 0 is the symmetric matrix m(v) determined by

    <m(v), B>  =  <pi(B) v, v> / <v, v>     for every B in p,

computed here by expanding over the orthonormal basis B_k of p carried by a
CartanContext.  That expansion is the single source of truth; the per-family
closed forms below are verification shortcuts and are tested against it.
The operators pi(B_k) are stored sparse, as their nonzero entries in a fixed
order (see :class:`RepAction`), and every contraction visits only those.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .cartan import CartanContext
from .reps import (ADJOINT, DUAL, LAMBDA2, STANDARD, TORUS_WEIGHTS, RepSpec, RepVector,
                   _checked_in_range, _lie, apply_group, brackets_tensor, lambda2_to_matrix)

__all__ = [
    "MomentValue",
    "TranslatedMoment",
    "moment",
    "closed_form_moment",
    "energy",
    "translated_moment",
    "criticality_residual",
    "rep_action",
]

ZERO_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class MomentValue:
    """A moment map value: the matrix, its energy tr(m^2), and its spectrum
    (eigenvalues sorted non-increasing)."""

    matrix: np.ndarray
    energy: float
    spectrum: np.ndarray


@dataclass(frozen=True)
class TranslatedMoment:
    """Moment map after translating the background metric by h."""

    matrix: np.ndarray


class RepAction:
    """The operators pi(B_k) over the p-basis of a context, stored sparse.

    ``pi_stack`` is one record with fields ``k``, ``i``, ``j`` and ``value``,
    each a contiguous array with one slot per nonzero entry: the (i, j)
    entry of the matrix of pi(B_k) is ``value``.  The entries are ordered by
    k, then by column j, then by row i; the contractions sum in that order,
    so it fixes the last bits of every result.  Each pi(B_k) is built by one
    batched ``reps._lie`` call on all basis vectors at once, not column by
    column, and only its nonzeros are kept, so the dense dim_p x dim x dim
    stack (0.1-0.8 % nonzero for brackets) is never formed.  With
    t = value * v[j] per entry, the moment coefficients are the sums of
    t * v[i] over each k, divided by |v|^2, and the gradient pi(m(v)) v
    sums coeff[k] * t over each row i.
    """

    def __init__(self, ctx: CartanContext, spec: RepSpec):
        if ctx.n != spec.n:
            raise ValueError(f"context size {ctx.n} != representation size {spec.n}")
        basis = np.eye(spec.dim)
        parts = []
        # only the diagonal prefix of the p-basis acts on a torus module
        acting = ctx.a_dim if spec.family == TORUS_WEIGHTS else ctx.dim_p
        for k in range(acting):
            columns = _lie(spec, ctx.p_basis[k], basis)  # row j is pi(B_k) e_j
            cols, rows = np.nonzero(columns)  # by column, then row
            parts.append((np.full(cols.size, k), rows, cols, columns[cols, rows]))
        nnz = sum(p[0].size for p in parts)
        stack = np.zeros((), dtype=[("k", np.intp, (nnz,)), ("i", np.intp, (nnz,)),
                                    ("j", np.intp, (nnz,)), ("value", float, (nnz,))])
        for field, column in zip(("k", "i", "j", "value"), zip(*parts)):
            stack[field] = np.concatenate(column)
        self.ctx = ctx
        self.spec = spec
        self.pi_stack = stack
        self._k, self._i, self._j, self._value = (stack[f] for f in ("k", "i", "j", "value"))

    def moment_coefficients(self, coords: np.ndarray) -> np.ndarray:
        """Coefficients of m(v) over the p-basis."""
        return self._coefficients(coords)[0]

    def gradient(self, coords: np.ndarray) -> np.ndarray:
        """pi(m(v)) v, the (sign-flipped) gradient-flow velocity."""
        return self._gradient(*self._coefficients(coords))

    def moment_and_gradient(self, coords: np.ndarray):
        coeff, t = self._coefficients(coords)
        return coeff, self._gradient(coeff, t)

    def _coefficients(self, coords: np.ndarray):
        """Coefficients of m(v), and the entry products t = value * v[j]."""
        nrm2 = float(coords @ coords)
        if nrm2 < ZERO_NORM_FLOOR:
            raise ValueError("moment map is undefined at the zero vector")
        t = self._value * coords[self._j]
        coeff = np.bincount(self._k, t * coords[self._i], minlength=self.ctx.dim_p) / nrm2
        return coeff, t

    def _gradient(self, coeff: np.ndarray, t: np.ndarray) -> np.ndarray:
        return np.bincount(self._i, coeff[self._k] * t, minlength=self.spec.dim)


@lru_cache(maxsize=None)
def rep_action(ctx: CartanContext, spec: RepSpec) -> RepAction:
    # CartanContext hashes by identity (eq=False) and build_context hands
    # out one shared instance per (n, group), so the cache holds at most one
    # stack per (n, group, spec); RepSpec is a value key.
    return RepAction(ctx, spec)


def _moment_matrix(ctx: CartanContext, coeff: np.ndarray) -> np.ndarray:
    """The symmetrized matrix sum_k coeff[k] B_k, without its spectrum."""
    n = ctx.n
    mat = (coeff @ ctx.p_basis.reshape(ctx.dim_p, n * n)).reshape(n, n)
    return 0.5 * (mat + mat.T)


def _moment_value(ctx: CartanContext, coeff: np.ndarray) -> MomentValue:
    mat = _moment_matrix(ctx, coeff)
    mat.flags.writeable = False
    return MomentValue(matrix=mat,
                       energy=float(coeff @ coeff),
                       spectrum=np.linalg.eigvalsh(mat)[::-1].copy())


def moment(ctx: CartanContext, spec: RepSpec, v: RepVector) -> MomentValue:
    """Moment map value of v, via the p-basis expansion."""
    coeff = rep_action(ctx, spec).moment_coefficients(_checked_in_range(spec, v)[0])
    return _moment_value(ctx, coeff)


def energy(ctx: CartanContext, spec: RepSpec, v: RepVector) -> float:
    """Energy tr(m(v)^2); scale-invariant."""
    return moment(ctx, spec, v).energy


def closed_form_moment(spec: RepSpec, v: RepVector) -> MomentValue:
    """Per-family closed form of the moment map (GL context).

    Must agree with :func:`moment` to 1e-12; the generic expansion remains
    the defining computation.  Not available for TorusWeights.
    """
    fam = spec.family
    if fam == TORUS_WEIGHTS:
        raise ValueError("no closed form for a TorusWeights family")
    v = RepVector(spec, _checked_in_range(spec, v)[0])
    c = v.coords
    nrm2 = float(c @ c)
    if nrm2 < ZERO_NORM_FLOOR:
        raise ValueError("moment map is undefined at the zero vector")

    if fam == STANDARD:
        mat = np.outer(c, c) / nrm2
    elif fam == DUAL:
        mat = -np.outer(c, c) / nrm2
    elif fam == ADJOINT:
        x = c.reshape(spec.n, spec.n)
        mat = (x @ x.T - x.T @ x) / nrm2
    elif fam == LAMBDA2:
        a = lambda2_to_matrix(v)
        # isometric norm: ||A||^2 = -tr(A^2)/2, which equals <c, c>
        mat = -(a @ a) / nrm2
    else:  # BRACKETS
        t = brackets_tensor(v)
        # <m(mu) x, y> ||mu||^2 = sum_{i,j} <mu(e_i,e_j), x><mu(e_i,e_j), y>
        #                        - 2 sum_j <mu(x,e_j), mu(y,e_j)>,
        # sums over ordered pairs; ||mu||^2 in the same ordered convention.
        p = np.einsum("aij,bij->ab", t, t)
        lmat = np.einsum("laj,lij->ia", t, t)
        mat = (p - 2.0 * lmat) / float(np.einsum("lij,lij->", t, t))

    mat = 0.5 * (mat + mat.T)
    mat.flags.writeable = False
    return MomentValue(matrix=mat,
                       energy=float(np.tensordot(mat, mat, axes=([0, 1], [1, 0]))),
                       spectrum=np.linalg.eigvalsh(mat)[::-1].copy())


def translated_moment(ctx: CartanContext, spec: RepSpec, h, v: RepVector) -> TranslatedMoment:
    """Moment map for the h-translated metric: h m(rho(h)^{-1} v) h^{-1}.

    For orthogonal h this reduces to m(rho(h) v) conjugated back, which is
    the K-equivariance identity.
    """
    h = np.asarray(h, dtype=float)
    try:
        hinv = np.linalg.inv(h)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular translation element") from exc
    w = apply_group(spec, hinv, v)
    m = moment(ctx, spec, w).matrix
    return TranslatedMoment(matrix=h @ m @ hinv)


def _sphere_velocity(act: RepAction, coords: np.ndarray):
    """The moment coefficients at v and -(pi(m(v)) v - F(v) v), the gradient
    flow's velocity less its radial part, on a coordinate array; it is
    orthogonal to v, since <pi(m(v)) v, v> = F(v) |v|^2."""
    coeff, grad = act.moment_and_gradient(coords)
    grad -= float(coeff @ coeff) * coords
    return coeff, -grad


def criticality_residual(ctx: CartanContext, spec: RepSpec, v: RepVector) -> float:
    """||pi(m(v)) v - F(v) v|| / ||v||; zero exactly at fixed directions of
    the gradient flow."""
    coords = _checked_in_range(spec, v)[0]
    return float(np.linalg.norm(_sphere_velocity(rep_action(ctx, spec), coords)[1])
                 / np.linalg.norm(coords))
