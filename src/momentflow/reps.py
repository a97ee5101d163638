"""Representation catalog for GL_n(R).

Five built-in families plus user-supplied diagonal-torus weight lists:

* ``Standard``   -- R^n, g.v = gv
* ``Dual``       -- functionals, g.v = v o g^{-1}, so pi(X) = -X^T on coordinates
* ``Adjoint``    -- gl_n with conjugation, pi(X) = [X, .]
* ``Lambda2``    -- skew matrices A via x ^ y -> x y^T - y x^T, g.A = g A g^T
* ``Brackets``   -- antisymmetric bilinear maps mu: R^n x R^n -> R^n,
                    (g.mu)(x, y) = g mu(g^{-1}x, g^{-1}y)
* ``TorusWeights`` -- an abstract torus module given by its weight list;
                    only diagonal group/Lie arguments act

Coordinates are fixed so that the invariant inner product on each space is
the plain dot product of coordinate vectors:

* Standard/Dual: the unit vectors e_i (resp. the dual basis).
* Adjoint: elementary matrices E_ij, row-major, so <x, y> = tr(x^T y).
* Lambda2: the matrices E_ij - E_ji for i < j (lexicographic), orthonormal
  for <A, B> = -tr(AB)/2.
* Brackets: structure constants c^l_{ij} for i < j (pairs lexicographic,
  target index l fastest) scaled by sqrt(2), matching the inner product
  <mu, mu'> = sum over *ordered* pairs (i, j) of <mu(e_i,e_j), mu'(e_i,e_j)>.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "STANDARD", "DUAL", "ADJOINT", "LAMBDA2", "BRACKETS", "TORUS_WEIGHTS",
    "RepSpec", "RepVector",
    "standard", "dual", "adjoint", "lambda2", "brackets", "torus_weights",
    "rep_dim", "rep_vector",
    "apply_group", "apply_lie",
    "weights_of", "weight_components", "weight_component_indices",
    "lambda2_embed",
    "adjoint_from_matrix", "adjoint_to_matrix",
    "lambda2_from_matrix", "lambda2_to_matrix",
    "vector_to_json", "vector_from_json",
]

STANDARD = "Standard"
DUAL = "Dual"
ADJOINT = "Adjoint"
LAMBDA2 = "Lambda2"
BRACKETS = "Brackets"
TORUS_WEIGHTS = "TorusWeights"

_FAMILIES = (STANDARD, DUAL, ADJOINT, LAMBDA2, BRACKETS, TORUS_WEIGHTS)
_CANON = {f.lower().replace("_", ""): f for f in _FAMILIES}

SQRT2 = float(np.sqrt(2.0))

COND_WARN_THRESHOLD = 1e12


def canonical_family(name: str) -> str:
    key = str(name).lower().replace("_", "").replace("-", "")
    if key not in _CANON:
        raise ValueError(f"unknown representation family {name!r}; "
                         f"expected one of {', '.join(_FAMILIES)}")
    return _CANON[key]


def _pairs(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


@dataclass(frozen=True)
class RepSpec:
    """A representation family at a fixed matrix size.

    ``weights`` is only meaningful for the TorusWeights family: a tuple of
    integer n-tuples, one per coordinate.
    """

    family: str
    n: int
    weights: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "family", canonical_family(self.family))
        if self.n < 1:
            raise ValueError(f"matrix size must be positive, got {self.n}")
        if self.family == TORUS_WEIGHTS:
            if not self.weights:
                raise ValueError("TorusWeights needs a non-empty weight list")
            ws = tuple(tuple(int(x) for x in w) for w in self.weights)
            for w in ws:
                if len(w) != self.n:
                    raise ValueError(f"weight {w} has length {len(w)}, expected {self.n}")
            object.__setattr__(self, "weights", ws)
        elif self.weights is not None:
            raise ValueError(f"{self.family} does not take a weight list")

    @property
    def dim(self) -> int:
        n = self.n
        if self.family in (STANDARD, DUAL):
            return n
        if self.family == ADJOINT:
            return n * n
        if self.family == LAMBDA2:
            return n * (n - 1) // 2
        if self.family == BRACKETS:
            return n * (n * (n - 1) // 2)
        return len(self.weights)


def standard(n: int) -> RepSpec:
    return RepSpec(STANDARD, n)


def dual(n: int) -> RepSpec:
    return RepSpec(DUAL, n)


def adjoint(n: int) -> RepSpec:
    return RepSpec(ADJOINT, n)


def lambda2(n: int) -> RepSpec:
    return RepSpec(LAMBDA2, n)


def brackets(n: int) -> RepSpec:
    return RepSpec(BRACKETS, n)


def torus_weights(weights) -> RepSpec:
    weights = tuple(tuple(int(x) for x in w) for w in weights)
    if not weights:
        raise ValueError("empty weight list")
    return RepSpec(TORUS_WEIGHTS, len(weights[0]), weights)


def rep_dim(spec: RepSpec) -> int:
    return spec.dim


@dataclass(frozen=True)
class RepVector:
    """A coordinate vector in a representation."""

    spec: RepSpec
    coords: np.ndarray

    def __post_init__(self):
        c = np.ascontiguousarray(self.coords, dtype=float)
        if c.shape != (self.spec.dim,):
            raise ValueError(f"expected {self.spec.dim} coordinates for "
                             f"{self.spec.family} (n={self.spec.n}), got shape {c.shape}")
        if not np.isfinite(c).all():
            bad = np.flatnonzero(~np.isfinite(c))[0]
            raise ValueError(f"coordinates must be finite; coordinate {bad} is {c[bad]}")
        c.flags.writeable = False
        object.__setattr__(self, "coords", c)

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.coords))

    def normalized(self) -> "RepVector":
        nrm = self.norm
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return RepVector(self.spec, self.coords / nrm)


def rep_vector(spec: RepSpec, coords) -> RepVector:
    return RepVector(spec, np.asarray(coords, dtype=float))


# ---------------------------------------------------------------------------
# matrix bridges


def adjoint_to_matrix(v: RepVector) -> np.ndarray:
    if v.spec.family != ADJOINT:
        raise ValueError("not an Adjoint vector")
    n = v.spec.n
    return v.coords.reshape(n, n).copy()


def adjoint_from_matrix(x) -> RepVector:
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    return RepVector(adjoint(n), x.reshape(-1))


@lru_cache(maxsize=None)
def _triu(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Index arrays of ``_pairs(n)``."""
    return np.triu_indices(n, 1)


def _lambda2_matrix(coords: np.ndarray, n: int) -> np.ndarray:
    iu, ju = _triu(n)
    a = np.zeros((n, n))
    a[iu, ju] = coords
    a[ju, iu] = -coords
    return a


def lambda2_to_matrix(v: RepVector) -> np.ndarray:
    if v.spec.family != LAMBDA2:
        raise ValueError("not a Lambda2 vector")
    return _lambda2_matrix(v.coords, v.spec.n)


def lambda2_from_matrix(a) -> RepVector:
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return RepVector(lambda2(n), a[_triu(n)])


def lambda2_embed(x, y) -> RepVector:
    """Coordinates of x ^ y, i.e. of the skew matrix x y^T - y x^T."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    return lambda2_from_matrix(np.outer(x, y) - np.outer(y, x))


def brackets_tensor(v: RepVector) -> np.ndarray:
    """Full structure tensor T[l, i, j] = mu(e_i, e_j)_l of a Brackets vector.

    The sqrt(2) coordinate scaling is removed, so T holds the structure
    constants themselves.
    """
    if v.spec.family != BRACKETS:
        raise ValueError("not a Brackets vector")
    return _brackets_tensor_raw(v.coords / SQRT2, v.spec.n)


def brackets_from_tensor(t) -> RepVector:
    t = np.asarray(t, dtype=float)
    n = t.shape[0]
    return RepVector(brackets(n), SQRT2 * _brackets_coords_raw(t, n))


def _brackets_tensor_raw(coords: np.ndarray, n: int) -> np.ndarray:
    # tensor in coordinate scale (sqrt(2) factor left in place); the group
    # and Lie actions are linear, so skipping the scale round-trip keeps
    # exact inputs exact
    iu, ju = _triu(n)
    c = coords.reshape(-1, n).T
    t = np.zeros((n, n, n))
    t[:, iu, ju] = c
    t[:, ju, iu] = -c
    return t


def _brackets_coords_raw(t: np.ndarray, n: int) -> np.ndarray:
    return t[(slice(None),) + _triu(n)].T.reshape(-1)


# ---------------------------------------------------------------------------
# group and Lie algebra actions


def _check_square(m, n: int, what: str) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.shape != (n, n):
        raise ValueError(f"{what} must be {n} x {n}, got shape {m.shape}")
    return m


def _diagonal_or_raise(m: np.ndarray, what: str) -> np.ndarray:
    d = np.diag(np.diagonal(m))
    if np.any(m != d):
        raise ValueError(f"TorusWeights only acts through diagonal matrices; {what} is not diagonal")
    return np.diagonal(m).copy()


def _invert(g: np.ndarray) -> np.ndarray:
    try:
        ginv = np.linalg.inv(g)
    except np.linalg.LinAlgError as exc:
        raise ValueError("singular group element") from exc
    cond = np.linalg.norm(g, 2) * np.linalg.norm(ginv, 2)
    if cond > COND_WARN_THRESHOLD:
        # name the first caller outside the package, so that a flow checking
        # its input at entry points the warning at the flow's caller
        frame, level = sys._getframe(1), 2
        while frame is not None and frame.f_globals.get("__package__") == __package__:
            frame, level = frame.f_back, level + 1
        warnings.warn(f"group element has condition number {cond:.3g}; "
                      "results may lose precision", stacklevel=level)
    return ginv


def _act(spec: RepSpec, g: np.ndarray, ginv: np.ndarray | None, c: np.ndarray) -> np.ndarray:
    """rho(g) on raw coordinates, with no checks: g is a square float array,
    ginv its inverse (unused for TorusWeights, where g must be diagonal)."""
    fam = spec.family
    n = spec.n
    if fam == STANDARD:
        return g @ c
    if fam == DUAL:
        return ginv.T @ c
    if fam == ADJOINT:
        return (g @ c.reshape(n, n) @ ginv).reshape(-1)
    if fam == LAMBDA2:
        return (g @ _lambda2_matrix(c, n) @ g.T)[_triu(n)]
    if fam == BRACKETS:
        t = np.einsum("lm,mab,ai,bj->lij", g, _brackets_tensor_raw(c, n), ginv, ginv)
        return _brackets_coords_raw(t, n)
    chi = np.array(spec.weights, dtype=float)
    return np.prod(np.diagonal(g)[None, :] ** chi, axis=1) * c


def apply_group(spec: RepSpec, g, v: RepVector) -> RepVector:
    """Apply rho(g) to v.

    Validates, then calls the unchecked kernel ``_act``: raises ValueError
    for a vector of another spec, a non-square or singular g, and a
    non-diagonal g on a TorusWeights family; a condition number above 1e12
    triggers a warning, attributed to the first caller outside the package.
    Flows validate their group element once at entry and run ``_act``
    inside the integrator.
    """
    if v.spec != spec:
        raise ValueError("vector does not belong to spec")
    g = _check_square(g, spec.n, "g")
    if spec.family == TORUS_WEIGHTS:
        if np.any(_diagonal_or_raise(g, "g") == 0.0):
            raise ValueError("singular group element")
        ginv = None
    else:
        ginv = _invert(g)
    return RepVector(spec, _act(spec, g, ginv, v.coords))


def apply_lie(spec: RepSpec, x, v: RepVector) -> RepVector:
    """Apply pi(X) = (d/dt) rho(exp tX)|_0 to v."""
    if v.spec != spec:
        raise ValueError("vector does not belong to spec")
    x = _check_square(x, spec.n, "X")
    c = v.coords
    fam = spec.family

    if fam == STANDARD:
        out = x @ c
    elif fam == DUAL:
        out = -x.T @ c
    elif fam == ADJOINT:
        n = spec.n
        m = c.reshape(n, n)
        out = (x @ m - m @ x).reshape(-1)
    elif fam == LAMBDA2:
        a = lambda2_to_matrix(v)
        return lambda2_from_matrix(x @ a + a @ x.T)
    elif fam == BRACKETS:
        t = _brackets_tensor_raw(c, spec.n)
        t = (np.einsum("lm,mij->lij", x, t)
             - np.einsum("lmj,mi->lij", t, x)
             - np.einsum("lim,mj->lij", t, x))
        out = _brackets_coords_raw(t, spec.n)
    else:  # TORUS_WEIGHTS
        d = _diagonal_or_raise(x, "X")
        chi = np.array(spec.weights, dtype=float)
        out = (chi @ d) * c
    return RepVector(spec, out)


# ---------------------------------------------------------------------------
# torus weights


def weights_of(spec: RepSpec) -> list[tuple[int, ...]]:
    """Diagonal-torus weight of each coordinate, in coordinate order."""
    n = spec.n
    fam = spec.family
    if fam == STANDARD:
        return [tuple(int(i == k) for k in range(n)) for i in range(n)]
    if fam == DUAL:
        return [tuple(-int(i == k) for k in range(n)) for i in range(n)]
    if fam == ADJOINT:
        out = []
        for i in range(n):
            for j in range(n):
                out.append(tuple(int(i == k) - int(j == k) for k in range(n)))
        return out
    if fam == LAMBDA2:
        return [tuple(int(k == i) + int(k == j) for k in range(n)) for (i, j) in _pairs(n)]
    if fam == BRACKETS:
        out = []
        for (i, j) in _pairs(n):
            for l in range(n):
                out.append(tuple(int(k == l) - int(k == i) - int(k == j) for k in range(n)))
        return out
    return [tuple(w) for w in spec.weights]


def weight_component_indices(spec: RepSpec) -> dict[tuple[int, ...], np.ndarray]:
    """Coordinate indices grouped by weight, keys in lexicographic order."""
    groups: dict[tuple[int, ...], list[int]] = {}
    for k, w in enumerate(weights_of(spec)):
        groups.setdefault(w, []).append(k)
    return {w: np.array(groups[w], dtype=int) for w in sorted(groups)}


def weight_components(spec: RepSpec, v: RepVector, zero_tol: float = 1e-12
                      ) -> dict[tuple[int, ...], np.ndarray]:
    """Nonzero weight components of v.

    Components with norm <= zero_tol * ||v|| are dropped.  Raises ValueError
    for v = 0.
    """
    if v.spec != spec:
        raise ValueError("vector does not belong to spec")
    nrm = v.norm
    if nrm == 0.0:
        raise ValueError("zero vector has no state")
    out: dict[tuple[int, ...], np.ndarray] = {}
    for w, idx in weight_component_indices(spec).items():
        sub = v.coords[idx]
        if np.linalg.norm(sub) > zero_tol * nrm:
            out[w] = sub
    return out


# ---------------------------------------------------------------------------
# vector file format (shared with the CLI)


def vector_to_json(v: RepVector) -> dict:
    doc: dict = {"family": v.spec.family, "n": v.spec.n}
    if v.spec.family == TORUS_WEIGHTS:
        doc["weights"] = [list(w) for w in v.spec.weights]
    doc["coords"] = [float(x) for x in v.coords]
    return doc


def vector_from_json(doc) -> RepVector:
    if isinstance(doc, str):
        doc = json.loads(doc)
    family = canonical_family(doc["family"])
    if family == TORUS_WEIGHTS:
        spec = torus_weights(doc["weights"])
    else:
        spec = RepSpec(family, int(doc["n"]))
    return rep_vector(spec, doc["coords"])
