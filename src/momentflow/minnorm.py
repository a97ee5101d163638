"""Exact minimum-norm point of the convex hull of finitely many rational vectors.

Two independent routes are provided:

* :func:`min_norm_point` -- Wolfe's nearest-point algorithm carried out
  entirely in rational arithmetic, returning a certificate (barycentric
  coefficients over the support plus the KKT optimality margin) whose
  invariants hold exactly;
* :func:`min_norm_point_by_enumeration` -- brute force that visits only the
  affinely independent subsets, kept as the oracle the solver is tested
  against; ``hesselink.enumerate_labels`` lists labels with the same walk.

The KKT characterization used throughout: eta is the minimum-norm point of
conv(P) iff eta lies in the hull and <p, eta> >= <eta, eta> for every p in P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

__all__ = [
    "MinNormCertificate",
    "min_norm_point",
    "min_norm_point_by_enumeration",
    "to_rational_vector",
    "solve_exact",
]

Rational = Fraction
RationalVector = tuple[Fraction, ...]

_MAX_MAJOR_ITERATIONS = 100_000


def to_rational_vector(v) -> RationalVector:
    """Coerce a sequence of ints/Fractions/strings like '1/2' to Fractions."""
    return tuple(Fraction(x) for x in v)


def _points(weights) -> list[RationalVector]:
    """Sorted distinct rational points of a non-empty, equal-dimension set."""
    pts = sorted({to_rational_vector(w) for w in weights})
    if not pts:
        raise ValueError("empty weight set")
    if any(len(p) != len(pts[0]) for p in pts):
        raise ValueError("weights of mixed dimensions")
    return pts


def _dot(a: RationalVector, b: RationalVector) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def solve_exact(a: list[list[Fraction]], b: list[Fraction]) -> list[Fraction] | None:
    """Solve a square linear system over the rationals.

    Gaussian elimination with the first nonzero pivot; returns None when the
    matrix is singular.  Everything stays a Fraction, so the result is exact.
    """
    n = len(a)
    m = [row[:] + [b[i]] for i, row in enumerate(a)]
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col] != 0), None)
        if piv is None:
            return None
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
        inv = 1 / m[col][col]
        m[col] = [x * inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[i][n] for i in range(n)]


def _affine_min_norm(points: list[RationalVector]):
    """Minimum-norm point of the affine hull of ``points``.

    Returns (point, barycentric coefficients), or None when the points are
    affinely dependent (the bordered Gram system is singular exactly in that
    case).
    """
    k = len(points)
    gram = [[_dot(points[i], points[j]) for j in range(k)] for i in range(k)]
    a: list[list[Fraction]] = [[Fraction(0)] + [Fraction(1)] * k]
    for i in range(k):
        a.append([Fraction(1)] + gram[i])
    rhs = [Fraction(1)] + [Fraction(0)] * k
    sol = solve_exact(a, rhs)
    if sol is None:
        return None
    mu = sol[1:]
    dim = len(points[0])
    y = tuple(sum((mu[i] * points[i][d] for i in range(k)), Fraction(0)) for d in range(dim))
    return y, mu


@dataclass(frozen=True)
class MinNormCertificate:
    """Exact minimizer of <x, x> over conv(weights), with its certificate.

    ``eta = sum(coefficients * support)`` exactly, every support weight
    pairs to exactly q with eta, and ``optimality_margin`` is the smallest
    slack <chi, eta> - q over *all* input weights (non-negative iff eta is
    optimal, which is asserted at construction).
    """

    eta: RationalVector
    q: Fraction
    support: tuple[RationalVector, ...]
    coefficients: tuple[Fraction, ...]
    optimality_margin: Fraction

    def __post_init__(self):
        dim = len(self.eta)
        total = Fraction(0)
        acc = [Fraction(0)] * dim
        for c, p in zip(self.coefficients, self.support):
            if c <= 0:
                raise ValueError("support coefficients must be positive")
            total += c
            for d in range(dim):
                acc[d] += c * p[d]
        if total != 1 or tuple(acc) != self.eta:
            raise ValueError("support does not reconstruct eta")
        if self.q != _dot(self.eta, self.eta):
            raise ValueError("q != <eta, eta>")
        for p in self.support:
            if _dot(p, self.eta) != self.q:
                raise ValueError("support weight off the critical hyperplane")
        if self.optimality_margin < 0:
            raise ValueError("certificate is not optimal")

    @property
    def is_zero(self) -> bool:
        return all(x == 0 for x in self.eta)


def min_norm_point(weights) -> MinNormCertificate:
    """Wolfe's algorithm over the rationals.

    ``weights`` is a non-empty iterable of equal-length vectors (entries
    coerced with Fraction).  Entering ties are broken by the
    lexicographically smallest weight, so the run is deterministic.
    """
    pts = _points(weights)

    # initial corral: the smallest-norm point, lexicographic tie-break
    start = min(pts, key=lambda p: (_dot(p, p), p))
    corral: list[RationalVector] = [start]
    lam: list[Fraction] = [Fraction(1)]
    x = start

    for _ in range(_MAX_MAJOR_ITERATIONS):
        q = _dot(x, x)
        entering = min(pts, key=lambda p: (_dot(x, p), p))
        if _dot(x, entering) >= q:
            break
        corral.append(entering)
        lam.append(Fraction(0))

        while True:
            res = _affine_min_norm(corral)
            if res is None:
                # cannot happen while the corral invariant holds
                raise RuntimeError("affinely dependent corral; invariant broken")
            y, mu = res
            if all(m > 0 for m in mu):
                x, lam = y, list(mu)
                break
            theta = min(l / (l - m) for l, m in zip(lam, mu) if m <= 0 and l > m)
            if theta <= 0:
                raise RuntimeError("stalled minor cycle; invariant broken")
            lam = [(1 - theta) * l + theta * m for l, m in zip(lam, mu)]
            x = tuple((1 - theta) * xi + theta * yi for xi, yi in zip(x, y))
            keep = [i for i, l in enumerate(lam) if l > 0]
            corral = [corral[i] for i in keep]
            lam = [lam[i] for i in keep]
    else:
        raise RuntimeError("min_norm_point failed to terminate")

    q = _dot(x, x)
    margin = min(_dot(p, x) for p in pts) - q
    return MinNormCertificate(eta=x, q=q,
                              support=tuple(corral),
                              coefficients=tuple(lam),
                              optimality_margin=margin)


def _feasible_affine_minimizers(weights):
    """Yield the affine-hull minimizer of every affinely independent subset
    whose barycentric coordinates are all >= 0 (it is then the minimum-norm
    point of the subset's hull).  A dependent subset is not grown further:
    all its supersets are dependent too."""
    pts = _points(weights)

    def grow(subset: list[RationalVector], start: int):
        for i in range(start, len(pts)):
            ext = subset + [pts[i]]
            res = _affine_min_norm(ext)
            if res is None:
                continue
            if all(m >= 0 for m in res[1]):
                yield res[0]
            yield from grow(ext, i + 1)

    yield from grow([], 0)


def min_norm_point_by_enumeration(weights) -> tuple[RationalVector, Fraction]:
    """Brute-force oracle: best feasible affine-subset minimizer.

    Solves the equality-constrained least-squares problem exactly on every
    affinely independent subset, keeps solutions with non-negative
    barycentric coordinates, and returns the minimum-norm candidate.  Only
    meant for small weight sets.
    """
    q, eta = min((_dot(y, y), y) for y in _feasible_affine_minimizers(weights))
    return eta, q
