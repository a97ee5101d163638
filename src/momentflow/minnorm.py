"""Exact minimum-norm point of the convex hull of finitely many rational vectors.

Two independent routes are provided:

* :func:`min_norm_point` -- Wolfe's nearest-point algorithm carried out
  entirely in rational arithmetic, returning a certificate (barycentric
  coefficients over the support plus the KKT optimality margin) whose
  invariants hold exactly;
* :func:`min_norm_point_by_enumeration` -- brute force that visits only the
  affinely independent subsets, kept as the oracle the solver is tested
  against; ``hesselink.enumerate_labels`` lists labels with the same walk.
  The walk solves each subset by fraction-free elimination over the
  integers (the points scaled by the LCM of their denominators), while
  Wolfe's minor cycle solves in Fractions (:func:`solve_exact`), so the two
  routes share no arithmetic and check one against the other.

A private seeded start (``_wolfe(pts, face)``, used by
``hesselink.kn_label_via_flow``) solves its face once on the walk's integer
kernel; the cold runs that :func:`min_norm_point` makes, and the oracle
tests compare, never take it.

The KKT characterization used throughout: eta is the minimum-norm point of
conv(P) iff eta lies in the hull and <p, eta> >= <eta, eta> for every p in P.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from operator import mul

__all__ = [
    "MinNormCertificate",
    "min_norm_point",
    "min_norm_point_by_enumeration",
    "to_rational_vector",
    "solve_exact",
]

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
    return _wolfe(_points(weights))


def _seed(pts: list[RationalVector], face):
    """Wolfe's starting corral from the weights ``face`` of ``pts``: the face
    (sorted and deduplicated), the barycentric coefficients of its
    affine-hull minimizer and that minimizer, or None when the face is
    empty, affinely dependent or has a coefficient <= 0.  Solved once by the
    enumerator's integer kernel.  A face weight not among ``pts`` raises."""
    corral = sorted({to_rational_vector(w) for w in face})
    if not corral:
        return None
    known = set(pts)
    if any(p not in known for p in corral):
        raise ValueError("face weights must be among the weights")
    ints, scale = _integer_points(corral)
    gram = [[sum(map(mul, p, q)) for q in ints] for p in ints]
    subset = list(range(len(corral)))
    sol = _affine_coefficients(gram, subset)
    if sol is None or any(c <= 0 for c in sol[0]):
        return None
    numerators, det = sol
    return (corral, [Fraction(c, det) for c in numerators],
            _combination(ints, subset, numerators, det * scale))


def _wolfe(pts: list[RationalVector], face=()) -> MinNormCertificate:
    """Wolfe's algorithm on the sorted distinct points ``pts``.

    With a ``face`` whose affine-hull minimizer lies inside it (see
    :func:`_seed`), the run starts from that corral, which satisfies Wolfe's
    invariant: affinely independent, x its affine minimizer, every
    coefficient positive.  Otherwise it starts from the smallest-norm point,
    lexicographic tie-break.  The minimum-norm point is unique, so eta, q
    and the margin do not depend on the start.
    """
    seed = _seed(pts, face)
    if seed is None:
        start = min(pts, key=lambda p: (_dot(p, p), p))
        seed = [start], [Fraction(1)], start
    corral, lam, x = seed

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


def _integer_points(pts: list[RationalVector]) -> tuple[list[tuple[int, ...]], int]:
    """``pts`` times the LCM of their denominators, and that LCM.  Scaling
    every point by one factor leaves affine dependence and barycentric
    coefficients unchanged."""
    scale = lcm(*(x.denominator for p in pts for x in p))
    return [tuple(x.numerator * (scale // x.denominator) for x in p) for p in pts], scale


def _affine_coefficients(gram: list[list[int]], subset: list[int]
                         ) -> tuple[list[int], int] | None:
    """Barycentric coefficients of the affine-hull minimizer of the points
    that ``subset`` indexes, as numerators over one positive determinant, or
    None when those points are affinely dependent.

    ``gram`` is the integer Gram matrix of all the points.  The bordered Gram
    system is solved by fraction-free Gauss-Jordan elimination (Bareiss), the
    integer twin of :func:`solve_exact`: every division is exact by
    Sylvester's identity, so nothing leaves the integers.  The rows are
    built in elimination order, the first point's row, then the border row,
    then the other points' rows, so that for j >= 1 the j-th pivot is the
    Gram determinant of p_2 - p_1, ..., p_j - p_1: a zero pivot means the
    points are dependent, and the last pivot, the determinant, is positive.
    """
    k = len(subset)
    rows = [[1] + [gram[i][j] for j in subset] + [0] for i in subset]
    m = [rows[0], [0] + [1] * k + [1]] + rows[1:]
    prev = 1
    for col in range(k + 1):
        # rows keep only the columns not yet eliminated, then the right-hand side
        p, *pivot_tail = m[col]
        if p == 0:
            return None
        m = [pivot_tail if r == col else
             [(p * x - row[0] * y) // prev for x, y in zip(row[1:], pivot_tail)]
             for r, row in enumerate(m)]
        prev = p
    return [row[0] for row in m[1:]], prev


def _combination(ints: list[tuple[int, ...]], subset: list[int], numerators: list[int],
                 denominator: int) -> RationalVector:
    """sum(numerators[i] * ints[subset[i]]) / denominator, exactly."""
    return tuple(Fraction(sum(c * ints[j][d] for c, j in zip(numerators, subset)), denominator)
                 for d in range(len(ints[0])))


def _feasible_affine_minimizers(weights):
    """Yield the affine-hull minimizer of every affinely independent subset
    whose barycentric coordinates are all >= 0 (it is then the minimum-norm
    point of the subset's hull).  A dependent subset is not grown further:
    all its supersets are dependent too.  The solves run over the integers
    on the scaled points; Fractions are built only for what is yielded."""
    pts = _points(weights)
    ints, scale = _integer_points(pts)
    gram = [[sum(map(mul, p, q)) for q in ints] for p in ints]

    def grow(subset: list[int], start: int):
        for i in range(start, len(pts)):
            ext = subset + [i]
            sol = _affine_coefficients(gram, ext)
            if sol is None:
                continue
            numerators, det = sol
            if all(c >= 0 for c in numerators):
                yield _combination(ints, ext, numerators, det * scale)
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
