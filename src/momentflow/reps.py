"""Representation catalog for GL_n(R).

Five built-in families, each a space of tensors T with one index per slot,
plus user-supplied diagonal-torus weight lists.  ``_SLOTS`` holds the slot
signs of each family: a +1 slot carries g (Lie algebra: X), a -1 slot
carries g^{-T} (Lie algebra: -X^T).

* ``Standard``  (1,)        -- R^n, g.v = gv
* ``Dual``      (-1,)       -- functionals, g.v = v o g^{-1}, so pi(X) = -X^T
* ``Adjoint``   (1, -1)     -- gl_n with conjugation, pi(X) = [X, .]
* ``Lambda2``   (1, 1)      -- skew matrices A via x ^ y -> x y^T - y x^T,
                               g.A = g A g^T
* ``Brackets``  (1, -1, -1) -- antisymmetric bilinear maps mu: R^n x R^n -> R^n,
                               T[l, i, j] = mu(e_i, e_j)_l,
                               (g.mu)(x, y) = g mu(g^{-1}x, g^{-1}y)
* ``TorusWeights`` -- an abstract torus module given by its weight list;
                    only diagonal group/Lie arguments act

Lambda2 and Brackets are antisymmetric in their last two slots.  Coordinates
run over the pairs i < j of those slots first (lexicographic), then over the
other slots row-major, the last fastest: Adjoint uses E_ij row-major, Lambda2
E_ij - E_ji, Brackets c^l_{ij} with pairs outer and target l fastest, scaled
by sqrt(2).  Dimension, weights, the group and Lie actions and the
coordinate bridges all derive from the slot signs and this rule: both
actions apply one matrix to one slot at a time (``_on_slot``), rho(g) by
composing and pi(X) by summing over the slots.  The weights and weight
spaces of a spec are built once and cached.  The invariant inner product on
each space is then the plain dot product of coordinates: tr(x^T y) on gl_n,
-tr(AB)/2 on skew matrices, and for brackets the sum over *ordered* pairs
(i, j) of <mu(e_i,e_j), mu'(e_i,e_j)>.
"""

from __future__ import annotations

import json
import math
import sys
import warnings
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

__all__ = [
    "STANDARD", "DUAL", "ADJOINT", "LAMBDA2", "BRACKETS", "TORUS_WEIGHTS",
    "RepSpec", "RepVector",
    "standard", "dual", "adjoint", "lambda2", "brackets", "torus_weights",
    "rep_dim", "rep_vector",
    "apply_group", "apply_lie",
    "weights_of", "weight_components",
    "lambda2_embed",
    "adjoint_from_matrix", "adjoint_to_matrix",
    "lambda2_from_matrix", "lambda2_to_matrix",
    "brackets_tensor", "brackets_from_tensor",
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
ZERO_TOL = 1e-12  # the state cut: weight components of norm <= ZERO_TOL |v| are 0


def canonical_family(name: str) -> str:
    key = str(name).lower().replace("_", "").replace("-", "")
    if key not in _CANON:
        raise ValueError(f"unknown representation family {name!r}; "
                         f"expected one of {', '.join(_FAMILIES)}")
    return _CANON[key]


# slot signs of each built-in family; see the module docstring.  The +1
# slots come first, so a slot-order sum adds them before it subtracts the
# -1 slots: the pi(B_k) operators depend on that order in their last bits
_SLOTS = {STANDARD: (1,), DUAL: (-1,), ADJOINT: (1, -1), LAMBDA2: (1, 1), BRACKETS: (1, -1, -1)}
_SKEW = (LAMBDA2, BRACKETS)  # antisymmetric in their last two slots


@lru_cache(maxsize=None)
def _index(family: str, n: int) -> tuple:
    """``(shape, idx, swapped)``: coordinate k is the entry T[idx][k] of the
    tensor, idx = (..., i_1, ..., i_r) in the coordinate order of the module
    docstring; ``swapped`` exchanges the last two slots of an antisymmetric
    family (the entries holding -c) and is None for the others."""
    r = len(_SLOTS[family])
    free = r - 2 if family in _SKEW else r
    rest = np.indices((n,) * free).reshape(free, n ** free)
    swapped = None
    if family in _SKEW:
        iu, ju = np.triu_indices(n, 1)
        rest = [np.tile(s, iu.size) for s in rest] + [np.repeat(iu, n ** free),
                                                       np.repeat(ju, n ** free)]
        swapped = (Ellipsis, *rest[:-2], rest[-1], rest[-2])
    for s in rest:
        s.flags.writeable = False
    return (n,) * r, (Ellipsis, *rest), swapped


def _integers(xs, error: str) -> tuple[int, ...]:
    """xs as a tuple of ints, each entry an int, a numpy integer or an
    integral float, never a bool; raises ValueError(error) for anything else,
    a non-iterable xs included, so that no value from outside is truncated."""
    try:
        xs = tuple(xs)
    except TypeError:
        raise ValueError(error) from None
    if not all((isinstance(x, (int, np.integer)) and not isinstance(x, bool))
               or (isinstance(x, (float, np.floating)) and float(x).is_integer()) for x in xs):
        raise ValueError(error)
    return tuple(map(int, xs))


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
            ws = tuple(_integers(w, f"weight list entry {k} is not a list of integers: {w!r}")
                       for k, w in enumerate(self.weights))
            for w in ws:
                if len(w) != self.n:
                    raise ValueError(f"weight {w} has length {len(w)}, expected {self.n}")
            object.__setattr__(self, "weights", ws)
        elif self.weights is not None:
            raise ValueError(f"{self.family} does not take a weight list")

    @property
    def dim(self) -> int:
        if self.family == TORUS_WEIGHTS:
            return len(self.weights)
        n, r = self.n, len(_SLOTS[self.family])
        if self.family in _SKEW:
            return n ** (r - 2) * (n * (n - 1) // 2)
        return n ** r


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
    """The torus module with one coordinate per integer weight vector, of
    the first vector's length; ``RepSpec`` checks the entries."""
    try:
        rows = tuple(weights)
        n = len(rows[0])
    except TypeError:
        raise ValueError(f"a weight list must be a list of integer vectors, "
                         f"got {weights!r}") from None
    except IndexError:
        raise ValueError("empty weight list") from None
    return RepSpec(TORUS_WEIGHTS, n, rows)


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
        coords, exponent = _in_range(self.coords)
        return float(np.ldexp(np.linalg.norm(coords), exponent))

    def normalized(self) -> "RepVector":
        coords = _in_range(self.coords)[0]
        nrm = np.linalg.norm(coords)
        if nrm == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return RepVector(self.spec, coords / nrm)


# |v|^2 and the moment map's products over- or underflow once the largest
# entry leaves [2^-401, 2^400)
_SAFE_EXPONENT = 400


def _in_range(coords: np.ndarray) -> tuple[np.ndarray, int]:
    """(coords * 2^-e, e): e = 0 when the largest entry is in the safe range
    (or coords is 0, empty included), else the e that brings it to [1/2, 1).
    A power of two scales exactly, so scale-invariant results are the
    unscaled vector's."""
    exponent = math.frexp(float(np.max(np.abs(coords), initial=0.0)))[1]
    if abs(exponent) <= _SAFE_EXPONENT:
        return coords, 0
    return np.ldexp(coords, -exponent), exponent


def _checked_in_range(spec: RepSpec, v: RepVector) -> tuple[np.ndarray, int]:
    """``_in_range(v.coords)``, after checking that v belongs to spec: the
    entry of every computation that takes a spec and a vector."""
    if v.spec != spec:
        raise ValueError("vector does not belong to spec")
    return _in_range(v.coords)


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


def _tensor(spec: RepSpec, c: np.ndarray) -> np.ndarray:
    """Tensor of raw coordinates c (leading batch axes allowed), in
    coordinate scale: the sqrt(2) of Brackets is left in place, so the
    linear actions keep exact inputs exact.  Without an antisymmetric pair
    it is c itself, the tensor flattened row-major."""
    shape, idx, swapped = _index(spec.family, spec.n)
    if swapped is None:
        return c
    t = np.zeros(c.shape[:-1] + shape)
    t[idx] = c
    t[swapped] = -c
    return t


def _coords(spec: RepSpec, t: np.ndarray) -> np.ndarray:
    """Raw coordinates of a tensor; inverse of ``_tensor``."""
    _, idx, swapped = _index(spec.family, spec.n)
    return t[idx] if swapped else t


def lambda2_to_matrix(v: RepVector) -> np.ndarray:
    if v.spec.family != LAMBDA2:
        raise ValueError("not a Lambda2 vector")
    return _tensor(v.spec, v.coords)


def lambda2_from_matrix(a) -> RepVector:
    a = np.asarray(a, dtype=float)
    spec = lambda2(a.shape[0])
    return RepVector(spec, _coords(spec, a))


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
    return _tensor(v.spec, v.coords / SQRT2)


def brackets_from_tensor(t) -> RepVector:
    """The Brackets vector of a structure tensor; reads T[l, i, j] for i < j."""
    t = np.asarray(t, dtype=float)
    if t.ndim != 3 or t.shape != (t.shape[0],) * 3:
        raise ValueError(f"expected a structure tensor of shape (n, n, n), got shape {t.shape}")
    spec = brackets(t.shape[0])
    return RepVector(spec, SQRT2 * _coords(spec, t))


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


def _on_slot(m: np.ndarray, t: np.ndarray, s: int, r: int) -> np.ndarray:
    """The matrix m applied to slot s of a tensor t with r slots, in t's
    shape; leading batch axes are allowed, and the slots may be flattened
    into one axis.  The one contraction both actions are built from."""
    n = m.shape[0]
    return (m @ t.reshape(-1, n, n ** (r - s - 1))).reshape(t.shape)


def _act(spec: RepSpec, g: np.ndarray, ginv: np.ndarray | None, c: np.ndarray) -> np.ndarray:
    """rho(g) on raw coordinates, with no checks: g is a square float array,
    ginv its inverse (unused for TorusWeights, where only the diagonal of g
    is read).  Slot s carries g or g^{-T} as its sign says, one at a time."""
    if spec.family == TORUS_WEIGHTS:
        return np.prod(np.diagonal(g)[None, :] ** _weight_spaces(spec)[0], axis=1) * c
    signs = _SLOTS[spec.family]
    t = _tensor(spec, c)
    for s, sign in enumerate(signs):
        t = _on_slot(g if sign > 0 else ginv.T, t, s, len(signs))
    return _coords(spec, t)


def apply_group(spec: RepSpec, g, v: RepVector) -> RepVector:
    """Apply rho(g) to v.

    Validates, then calls the unchecked kernel ``_act``: raises ValueError
    for a vector of another spec, a non-square or singular g, and a
    non-diagonal g on a TorusWeights family; a condition number above 1e12
    triggers a warning, attributed to the first caller outside the package.
    Flows validate their group element once at entry and run ``_act``
    inside the integrator.
    """
    _checked_in_range(spec, v)
    g = _check_square(g, spec.n, "g")
    if spec.family == TORUS_WEIGHTS:
        if np.any(_diagonal_or_raise(g, "g") == 0.0):
            raise ValueError("singular group element")
        ginv = None
    else:
        ginv = _invert(g)
    return RepVector(spec, _act(spec, g, ginv, v.coords))


def _lie(spec: RepSpec, x: np.ndarray, c: np.ndarray) -> np.ndarray:
    """pi(X) on raw coordinates c, with any leading batch axes and no checks.

    Slot s acts by X or -X^T as its sign says; the slots' terms are
    accumulated in place, in slot order.
    """
    if spec.family == TORUS_WEIGHTS:
        return (_weight_spaces(spec)[0] @ np.diagonal(x)) * c
    signs = _SLOTS[spec.family]
    t = _tensor(spec, c)
    out = np.zeros(t.shape)
    for s, sign in enumerate(signs):
        out += _on_slot(x if sign > 0 else -x.T, t, s, len(signs))
    return _coords(spec, out)


def apply_lie(spec: RepSpec, x, v: RepVector) -> RepVector:
    """Apply pi(X) = (d/dt) rho(exp tX)|_0 to v."""
    _checked_in_range(spec, v)
    x = _check_square(x, spec.n, "X")
    if spec.family == TORUS_WEIGHTS:
        _diagonal_or_raise(x, "X")
    return RepVector(spec, _lie(spec, x, v.coords))


# ---------------------------------------------------------------------------
# torus weights


@lru_cache(maxsize=None)
def _weight_spaces(spec: RepSpec) -> tuple:
    """``(w, spaces)``, built once per spec: w[k] is the diagonal-torus
    weight of coordinate k (a read-only int array), the sum over slots of
    the slot sign times the unit vector of the slot's index; ``spaces`` maps
    each distinct weight, in lexicographic order, to the read-only array of
    its coordinate indices."""
    if spec.family == TORUS_WEIGHTS:
        w = np.array(spec.weights, dtype=int)
    else:
        _, idx, _ = _index(spec.family, spec.n)
        w = np.zeros((spec.dim, spec.n), dtype=int)
        rows = np.arange(spec.dim)
        for i, sign in zip(idx[1:], _SLOTS[spec.family]):
            w[rows, i] += sign
    spaces = {chi: np.flatnonzero((w == chi).all(axis=1))
              for chi in sorted(set(map(tuple, w.tolist())))}
    for a in (w, *spaces.values()):
        a.flags.writeable = False
    return w, MappingProxyType(spaces)


def weights_of(spec: RepSpec) -> list[tuple[int, ...]]:
    """Diagonal-torus weight of each coordinate, in coordinate order."""
    return list(map(tuple, _weight_spaces(spec)[0].tolist()))


def weight_components(spec: RepSpec, v: RepVector) -> dict[tuple[int, ...], np.ndarray]:
    """Nonzero weight components of v.

    Components with norm <= ``ZERO_TOL`` * ||v|| are dropped.  Raises
    ValueError for v = 0.
    """
    coords = _checked_in_range(spec, v)[0]
    nrm = np.linalg.norm(coords)
    if nrm == 0.0:
        raise ValueError("zero vector has no state")
    out: dict[tuple[int, ...], np.ndarray] = {}
    for w, idx in _weight_spaces(spec)[1].items():
        if np.linalg.norm(coords[idx]) > ZERO_TOL * nrm:
            out[w] = v.coords[idx]
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
