"""Nilpotent Jordan representatives and their exact stratum labels.

A partition (n_1 >= ... >= n_s) of n selects the nilpotent matrix with
those Jordan block sizes; its state under the diagonal torus is a subset of
the simple roots, so the label is exactly computable.  The classical
closed form for the normalized label is the block-wise ladder

    ((n_j - 1)/2, (n_j - 3)/2, ..., (1 - n_j)/2)

whose squared norm is sum_j (n_j - 1) n_j (n_j + 1) / 12.  The minimum-norm
label eta is the *reciprocal* normalization of that ladder, which is why the
identity exercised here is q(eta) * q_ladder = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartan import weyl_normalize
from .hesselink import HesselinkLabel, optimal_class
from .reps import RepVector, _integers, adjoint_from_matrix

__all__ = [
    "Partition",
    "JordanLabelReport",
    "partitions",
    "dominates",
    "jordan_vector",
    "jordan_label",
]


@dataclass(frozen=True)
class Partition:
    """A partition of n into positive integer parts, in non-increasing order."""

    parts: tuple[int, ...]

    def __post_init__(self):
        error = f"partition parts must be positive integers, got {self.parts}"
        parts = tuple(sorted(_integers(self.parts, error), reverse=True))
        if not parts or parts[-1] < 1:
            raise ValueError(error)
        object.__setattr__(self, "parts", parts)

    @property
    def n(self) -> int:
        return sum(self.parts)

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse comma-separated parts, e.g. '3,2'."""
        return cls(tuple(int(tok) for tok in str(text).split(",") if tok.strip()))


def partitions(n: int):
    """Yield all partitions of n, largest part first, in reverse-lex order."""
    def rec(remaining, cap):
        if remaining == 0:
            yield ()
            return
        for first in range(min(cap, remaining), 0, -1):
            for rest in rec(remaining - first, first):
                yield (first,) + rest
    for parts in rec(n, n):
        yield Partition(parts)


def dominates(p: Partition, q: Partition) -> bool:
    """Dominance order: every partial sum of p is >= the one of q (same n)."""
    if p.n != q.n:
        raise ValueError("dominance compares partitions of the same n")
    total_p = 0
    total_q = 0
    for k in range(max(len(p.parts), len(q.parts))):
        total_p += p.parts[k] if k < len(p.parts) else 0
        total_q += q.parts[k] if k < len(q.parts) else 0
        if total_p < total_q:
            return False
    return True


def _jump_set(p: Partition) -> list[int]:
    """0-based indices i with a superdiagonal 1 at (i, i+1): all of
    {0, ..., n-2} except the block boundaries."""
    cumsums = set(np.cumsum(p.parts).tolist())
    return [i for i in range(1, p.n) if i not in cumsums]


def jordan_vector(p: Partition) -> RepVector:
    """The block-nilpotent matrix of the partition, as an Adjoint vector.

    Raises ValueError for the all-ones partition (the zero matrix).
    """
    if p.parts[0] == 1:
        raise ValueError("the all-ones partition gives the zero matrix")
    n = p.n
    x = np.zeros((n, n))
    for i in _jump_set(p):
        x[i - 1, i] = 1.0
    return adjoint_from_matrix(x)


@dataclass(frozen=True)
class JordanLabelReport:
    """Exact label data of a Jordan representative.

    ``beta_paper`` is the Weyl-sorted block ladder (the normalized label
    eta/q); ``q_paper`` its squared norm by the closed block formula;
    ``identity_ok`` the exact reciprocal identity q(eta) * q_paper == 1;
    ``display_ok`` that the computed eta/q equals the ladder;
    ``negdef_ok`` the blanket root-pairing comparison: every pairing
    <e_k - e_l, beta_paper> stays <= q_paper, i.e. ad(beta_paper) - q_paper
    is negative semidefinite on gl_n.  The largest pairing is n_1 - 1, so
    this holds for every partition except (2, 1, ..., 1), where it is
    1 > 1/2.  ``block_bound_ok`` is the per-block bound
    (n_j - 1)/2 <= q_paper (q_paper * I +- diag(beta_paper) positive
    semidefinite), which holds for every partition.
    """

    partition: Partition
    label: HesselinkLabel
    beta_paper: tuple[Fraction, ...]
    q_paper: Fraction
    identity_ok: bool
    display_ok: bool
    negdef_ok: bool
    block_bound_ok: bool


def _ladder(p: Partition) -> tuple[Fraction, ...]:
    out: list[Fraction] = []
    for nj in p.parts:
        out.extend(Fraction(nj - 1, 2) - k for k in range(nj))
    return weyl_normalize(out)


def jordan_label(p: Partition) -> JordanLabelReport:
    """Compute the exact label of a Jordan representative and check it
    against the closed forms."""
    xv = jordan_vector(p)
    label = optimal_class(xv.spec, xv)
    assert label is not None  # a nonzero nilpotent is unstable
    beta_paper = weyl_normalize(label.eta_normalized)
    ladder = _ladder(p)
    q_paper = sum((Fraction((nj - 1) * nj * (nj + 1), 12) for nj in p.parts), Fraction(0))
    max_root = beta_paper[0] - beta_paper[-1]
    return JordanLabelReport(
        partition=p,
        label=label,
        beta_paper=beta_paper,
        q_paper=q_paper,
        identity_ok=(label.q * q_paper == 1),
        display_ok=(beta_paper == ladder),
        negdef_ok=(max_root <= q_paper),
        block_bound_ok=all(Fraction(nj - 1, 2) <= q_paper for nj in p.parts),
    )
