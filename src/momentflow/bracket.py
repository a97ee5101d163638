"""Nilpotent brackets: presets, derivations, and the critical-point check.

A bracket, an antisymmetric bilinear map mu: R^n x R^n -> R^n, is a vector of
``reps.brackets(n)``; ``reps.brackets_tensor`` gives its structure constants.
At a critical direction of the energy, the shifted moment value

    beta_plus = m(mu) + tr(m(mu)^2) * I

is a derivation of mu; whether its spectrum is positive is the quantity of
interest for nilsoliton-type conclusions, and this module reports exactly
that data (derivation residual, spectrum, lower-central-series filtration)
without claiming more.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cartan import CartanContext
from .momentmap import MomentValue, criticality_residual, moment
from .reps import SQRT2, RepVector, _integers, _lie, brackets_from_tensor, brackets_tensor

__all__ = [
    "DerivationReport",
    "CriticalBracketReport",
    "bracket_preset",
    "jacobi_residual",
    "jacobi_ok",
    "derivation_report",
    "critical_bracket_check",
]

JACOBI_TOL = 1e-12
RANK_TOL = 1e-10
# the fixed derivation tolerance of the critical-point check
DERIVATION_TOL = 1e-10
# the criticality bound of the check: pi(I) mu = -mu, so pi(beta_plus) mu is
# minus the sphere velocity and a unit bracket's derivation residual is at
# most its criticality residual / sqrt(2); flowing to this bound reaches the
# derivation verdict at DERIVATION_TOL
CRITICAL_RESIDUAL = SQRT2 * DERIVATION_TOL


def jacobi_residual(mu: RepVector) -> float:
    """Max norm of the Jacobi cyclic sum over basis triples."""
    t = brackets_tensor(mu)
    # sum_m T[l,m,k] T[m,i,j] cycled over (i, j, k)
    a = np.einsum("lmk,mij->lijk", t, t)
    cyc = a + np.transpose(a, (0, 2, 3, 1)) + np.transpose(a, (0, 3, 1, 2))
    return float(np.abs(cyc).max())


def jacobi_ok(mu: RepVector) -> bool:
    return jacobi_residual(mu) <= JACOBI_TOL


def bracket_preset(name: str, n: int) -> RepVector:
    """Built-in nilpotent Lie brackets.

    * ``heisenberg`` (n = 3): mu(e1, e2) = e3.
    * ``chain`` (n >= 3): mu(e1, e_i) = e_{i+1} for 2 <= i <= n-1; for
      n = 3 this coincides with the Heisenberg bracket.
    """
    name = str(name).lower()
    n = _integers((n,), f"n is not an integer: {n!r}")[0]
    if name == "heisenberg":
        if n != 3:
            raise ValueError("the Heisenberg preset needs n = 3")
    elif name == "chain":
        if n < 3:
            raise ValueError("the chain preset needs n >= 3")
    else:
        raise ValueError(f"unknown bracket preset {name!r}")
    t = np.zeros((n, n, n))  # T[l, i, j] for i < j; only those are read
    if name == "heisenberg":
        t[2, 0, 1] = 1.0
    else:
        for i in range(1, n - 1):  # mu(e1, e_{i+1}) = e_{i+2}, 0-based
            t[i + 1, 0, i] = 1.0
    return brackets_from_tensor(t)


def _lower_central_series(t: np.ndarray) -> list[np.ndarray]:
    """Orthonormal bases of V_1 = R^n, V_2 = [n, n], V_3 = [n, V_2], ...
    down to the last nonzero term, for the structure tensor t."""
    n = t.shape[0]
    bases = [np.eye(n)]
    while len(bases) <= n + 1:
        prev = bases[-1]
        # span of mu(e_a, prev columns)
        img = np.einsum("lij,jc->lic", t, prev).reshape(n, -1)
        u, s, _ = np.linalg.svd(img, full_matrices=False)
        rank = int(np.sum(s > RANK_TOL * max(1.0, s[0] if s.size else 0.0)))
        if rank == 0:
            break
        nxt = u[:, :rank]
        bases.append(nxt)
        if rank == prev.shape[1]:  # not nilpotent; series stabilized
            break
    return bases


@dataclass(frozen=True)
class DerivationReport:
    """How far D is from being a derivation of mu, plus its spectrum and the
    lower-central-series data."""

    D: np.ndarray
    derivation_residual: float
    eigenvalues: np.ndarray
    all_positive: bool
    filtration_dims: tuple[int, ...]
    filtration_invariance_residual: float


def derivation_report(mu: RepVector, d) -> DerivationReport:
    """Residual of D mu(x,y) = mu(Dx,y) + mu(x,Dy) over basis pairs, the
    eigenvalues of D, and whether D respects the lower central series."""
    t = brackets_tensor(mu)
    d = np.asarray(d, dtype=float)
    n = mu.spec.n
    if d.shape != (n, n):
        raise ValueError(f"D must be {n} x {n}")
    # D mu - mu(D., .) - mu(., D.) is pi(D) mu for the slot signs (1, -1, -1)
    pi_d = _lie(mu.spec, d, mu.coords / SQRT2).reshape(-1, n)
    residual = float(np.linalg.norm(pi_d, axis=1).max(initial=0.0))

    if np.abs(d - d.T).max(initial=0.0) <= 1e-12 * max(1.0, np.abs(d).max(initial=0.0)):
        eig = np.linalg.eigvalsh(d)
    else:
        ev = np.linalg.eigvals(d)
        eig = np.sort_complex(ev)
        if np.abs(eig.imag).max(initial=0.0) <= 1e-12:
            eig = eig.real
    all_positive = bool(np.all(np.real(eig) > 0) and np.abs(np.imag(eig)).max(initial=0.0) <= 1e-12)

    bases = _lower_central_series(t)
    dims = tuple(b.shape[1] for b in bases)
    inv_res = 0.0
    for b in bases:
        img = d @ b
        inv_res = max(inv_res, float(np.linalg.norm(img - b @ (b.T @ img))))
    return DerivationReport(D=d, derivation_residual=residual,
                            eigenvalues=eig, all_positive=all_positive,
                            filtration_dims=dims,
                            filtration_invariance_residual=inv_res)


@dataclass(frozen=True)
class CriticalBracketReport:
    """Moment data of a critical bracket direction.

    ``beta_plus = beta + tr(beta^2) I``; for brackets tr(beta) = -1, so
    <beta_plus, beta> vanishes, which is reported as a residual.
    """

    beta: MomentValue
    beta_plus: np.ndarray
    is_derivation: bool
    derivation_residual: float
    positive: bool
    eigenvalues: np.ndarray
    orthogonality_residual: float


def critical_bracket_check(ctx: CartanContext, mu: RepVector,
                           residual_tol: float = CRITICAL_RESIDUAL) -> CriticalBracketReport:
    """Check the derivation property of beta_plus at a critical bracket.

    The bracket must already be a critical direction (criticality residual
    at most ``residual_tol`` > 0); flow it there first otherwise.  The verdict
    ``is_derivation`` is judged at ``DERIVATION_TOL``, and the default
    ``CRITICAL_RESIDUAL`` is the bound at which it is reached.
    """
    if not residual_tol > 0:
        raise ValueError("residual_tol must be positive")
    brackets_tensor(mu)  # rejects a vector of another family
    v = mu.normalized()
    res = criticality_residual(ctx, v.spec, v)
    if res > residual_tol:
        raise ValueError(f"bracket is not critical (residual {res:.3g} > {residual_tol:g}); "
                         "flow it to that bound first")
    beta = moment(ctx, v.spec, v)
    beta_plus = beta.matrix + beta.energy * np.eye(ctx.n)
    rep = derivation_report(v, beta_plus)
    ortho = float(abs(np.tensordot(beta_plus, beta.matrix, axes=([0, 1], [0, 1]))))
    return CriticalBracketReport(
        beta=beta,
        beta_plus=beta_plus,
        is_derivation=bool(rep.derivation_residual <= DERIVATION_TOL),
        derivation_residual=rep.derivation_residual,
        positive=rep.all_positive,
        eigenvalues=rep.eigenvalues,
        orthogonality_residual=ortho,
    )
