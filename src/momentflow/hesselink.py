"""Exact stratum labels for the diagonal torus, and the flow cross-check.

The torus side is purely combinatorial and runs in rational arithmetic:
states (supports of the weight decomposition), measures of instability,
minimum-norm points of weight hulls, optimal destabilizing classes, label
enumeration and stratum membership.  The numerical side compares a label
against the limit spectrum of the gradient flow, which is the content of
the equality between the analytically and algebraically defined strata.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .cartan import CartanContext, weyl_normalize
from .minnorm import (RationalVector, _dot, _feasible_affine_minimizers, min_norm_point,
                      to_rational_vector)
from .reps import RepSpec, RepVector, _integers, _weight_spaces, rep_vector, weight_components

__all__ = [
    "MINUS_INFINITY",
    "HesselinkLabel",
    "LabelEnumeration",
    "StratumReport",
    "KnFlowReport",
    "state_of",
    "instability_measure",
    "optimal_class",
    "enumerate_labels",
    "stratum_membership",
    "kn_label_via_flow",
    "project_to_sl",
    "cochar_gram_check",
    "label_to_json",
    "label_from_json",
]


class _MinusInfinity:
    """Sentinel for the divergent branch of the instability measure.

    Compares below every rational; not a float, so exact code paths cannot
    absorb it silently.
    """

    __slots__ = ()
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "MINUS_INFINITY"

    def __lt__(self, other):
        return not isinstance(other, _MinusInfinity)

    def __le__(self, other):
        return True

    def __gt__(self, other):
        return False

    def __ge__(self, other):
        return isinstance(other, _MinusInfinity)

    def __neg__(self):
        raise TypeError("MINUS_INFINITY has no negative")


MINUS_INFINITY = _MinusInfinity()

LABEL_MATCH_TOL = 1e-5  # of a flow limit spectrum to its exact label, per entry
MAX_WEIGHT_COUNT = 20


def state_of(spec: RepSpec, v: RepVector) -> list[tuple[int, ...]]:
    """Weights whose components of v are nonzero (cut at ``reps.ZERO_TOL``),
    lexicographically sorted."""
    return list(weight_components(spec, v))


def instability_measure(state, eta):
    """min over the state of <chi, eta>, or MINUS_INFINITY when that minimum
    is negative (the coordinates then blow up along the cocharacter); every
    weight must have eta's length."""
    state = [to_rational_vector(chi) for chi in state]
    if not state:
        raise ValueError("empty state")
    eta = to_rational_vector(eta)
    if any(len(chi) != len(eta) for chi in state):
        raise ValueError(f"state weights and eta must have the same length {len(eta)}")
    m = min(_dot(chi, eta) for chi in state)
    return MINUS_INFINITY if m < 0 else m


@dataclass(frozen=True)
class HesselinkLabel:
    """A nonzero stratum label.

    ``eta`` is the Weyl-normalized (descending) minimum-norm point of the
    state hull, ``q = <eta, eta>``, ``eta_normalized = eta / q`` is the
    optimal-class representative, and ``beta`` is the diagonal matrix with
    the eta coordinates.
    """

    eta: RationalVector
    q: Fraction
    eta_normalized: RationalVector
    beta: np.ndarray

    @classmethod
    def from_eta(cls, eta) -> "HesselinkLabel":
        eta = weyl_normalize(to_rational_vector(eta))
        q = _dot(eta, eta)
        if q == 0:
            raise ValueError("the zero class is not a label; it marks semistability")
        beta = np.diag([float(x) for x in eta])
        beta.flags.writeable = False
        return cls(eta=eta, q=q,
                   eta_normalized=tuple(x / q for x in eta),
                   beta=beta)


def optimal_class(spec: RepSpec, v: RepVector) -> HesselinkLabel | None:
    """Label of the stratum through v, or None when v is torus-semistable
    (zero lies in the convex hull of its state)."""
    cert = min_norm_point(state_of(spec, v))
    if cert.is_zero:
        return None
    return HesselinkLabel.from_eta(cert.eta)


@dataclass(frozen=True)
class LabelEnumeration:
    """All candidate labels of a representation: the nonzero ones (sorted by
    q descending, then lexicographically) and whether the zero class arises."""

    labels: tuple[HesselinkLabel, ...]
    zero_label: bool


def enumerate_labels(spec: RepSpec, max_weight_count: int = MAX_WEIGHT_COUNT
                     ) -> LabelEnumeration:
    """Minimum-norm points of all non-empty subsets of the weight set,
    deduplicated after Weyl normalization.

    Every minimum-norm point is the affine minimizer of an affinely
    independent subset with non-negative barycentric coordinates, so one
    walk over those subsets finds all of them; zero is among them exactly
    when it lies in the hull of the whole set (Caratheodory).  Refuses
    weight sets above ``max_weight_count``: the enumeration is exponential
    and silent sampling would corrupt closure-order reasoning downstream.
    """
    distinct = list(_weight_spaces(spec)[1])
    if len(distinct) > max_weight_count:
        raise ValueError(f"{len(distinct)} distinct weights exceed the cap "
                         f"{max_weight_count}; raise max_weight_count explicitly "
                         "to enumerate their subsets")
    found = {weyl_normalize(eta) for eta in _feasible_affine_minimizers(distinct)}
    zero = (0,) * len(distinct[0])
    labels = [HesselinkLabel.from_eta(eta) for eta in found if eta != zero]
    labels.sort(key=lambda lab: (-lab.q, lab.eta))
    return LabelEnumeration(labels=tuple(labels), zero_label=zero in found)


@dataclass(frozen=True)
class StratumReport:
    """Membership data of v relative to a label.

    ``grading`` maps each state weight chi to r(chi) = <chi, eta> - q, the
    eigenvalue of the shifted torus generator on that weight space.  ``v0``
    keeps the components of v on the state weights with r = 0 and zeroes
    the rest.  ``in_U_ge0`` adds the semistability of v0 for the hyperplane
    torus orthogonal to eta (tested as: zero lies in the hull of the r = 0
    state weights projected onto that hyperplane).  The grading, v0 and
    ``in_U_ge0`` all read the one state of v cut at ``reps.ZERO_TOL * ||v||``.
    """

    beta: np.ndarray
    q: Fraction
    grading: dict[tuple[int, ...], Fraction]
    in_V_ge0: bool
    v0: RepVector
    in_U_ge0: bool


def stratum_membership(spec: RepSpec, v: RepVector, label: HesselinkLabel) -> StratumReport:
    """Grade the state of v by the label and test the stratum conditions.

    The label's eta is used verbatim (membership is relative to a concrete
    diagonal representative, not its Weyl class), and has spec.n entries.
    """
    if label.q <= 0:
        raise ValueError("membership needs a nonzero label")
    if len(label.eta) != spec.n:
        raise ValueError(f"label has {len(label.eta)} entries, expected {spec.n}")
    eta, q = label.eta, label.q
    components = weight_components(spec, v)
    grading = {chi: _dot(chi, eta) - q for chi in components}
    in_v = all(r >= 0 for r in grading.values())
    level = [chi for chi, r in grading.items() if r == 0]

    spaces = _weight_spaces(spec)[1]
    coords0 = np.zeros_like(v.coords)
    for chi in level:
        coords0[spaces[chi]] = components[chi]
    v0 = rep_vector(spec, coords0)

    # Hilbert-Mumford for the subtorus orthogonal to eta: zero in the hull of
    # the level projected along eta, chi - (<chi, eta>/q) eta = chi - eta
    in_u = in_v and bool(level) and min_norm_point(
        [tuple(a - b for a, b in zip(chi, eta)) for chi in level]).is_zero
    return StratumReport(beta=label.beta, q=q, grading=grading,
                         in_V_ge0=in_v, v0=v0, in_U_ge0=in_u)


@dataclass(frozen=True)
class KnFlowReport:
    """Comparison of a gradient-flow limit against the exact label."""

    spectrum: np.ndarray
    hesselink: HesselinkLabel
    match: bool
    max_deviation: float
    flow: "object"


def kn_label_via_flow(ctx: CartanContext, spec: RepSpec, v: RepVector) -> KnFlowReport:
    """Flow v to a critical direction with the default ``FlowParams`` and
    compare the limit moment spectrum with the Weyl-normalized label
    coordinates; they match when the flow converged and no entry deviates
    by more than ``LABEL_MATCH_TOL``.

    The caller is responsible for choosing v so the diagonal torus is
    optimal (Jordan representatives and single-weight vectors qualify);
    otherwise the two sides are allowed to disagree.
    """
    from .flows import gradient_flow

    label = optimal_class(spec, v)
    if label is None:
        raise ValueError("v is torus-semistable; the flow comparison needs an unstable vector")
    result = gradient_flow(ctx, spec, v)
    spectrum = result.limit_moment.spectrum
    expected = np.array([float(x) for x in label.eta])
    dev = float(np.max(np.abs(spectrum - expected)))
    return KnFlowReport(spectrum=spectrum, hesselink=label,
                        match=bool(result.converged and dev <= LABEL_MATCH_TOL),
                        max_deviation=dev, flow=result)


def project_to_sl(eta) -> RationalVector:
    """Orthogonal projection onto the trace-zero hyperplane:
    eta - (sum eta_i / n) (1, ..., 1), exactly."""
    eta = to_rational_vector(eta)
    if not eta:
        raise ValueError("cannot project an empty label")
    shift = sum(eta) / len(eta)
    return tuple(x - shift for x in eta)


def cochar_gram_check(lams) -> list[list[int]]:
    """Gram matrix of integer cocharacter vectors under the trace form;
    entries are exact Python ints."""
    rows = [_integers(lam, f"cocharacter {k} is not a list of integers: {lam!r}")
            for k, lam in enumerate(lams)]
    for r in rows:
        if len(r) != len(rows[0]):
            raise ValueError("vectors of mixed dimensions")
    return [[sum(a * b for a, b in zip(r, s)) for s in rows] for r in rows]


# ---------------------------------------------------------------------------
# label JSON


def _fraction_str(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


def _parse_rational(x, where: str) -> Fraction:
    """x as an exact rational: a 'p/q' string, a Fraction, an integer or a
    [p, q] pair of integers, integral floats or integer strings, never a bool;
    ``where`` names x in the ValueError raised otherwise."""
    if isinstance(x, float):
        raise ValueError(f"labels are exact; refusing float {x!r}")
    error = f"{where} is not a rational ('p/q', an integer or [p, q]): {x!r}"
    try:
        if isinstance(x, (list, tuple)) and len(x) == 2:
            return Fraction(*_integers((int(e) if isinstance(e, str) else e for e in x), error))
        return Fraction(x if isinstance(x, (str, Fraction)) else _integers((x,), error)[0])
    except (ValueError, ZeroDivisionError):
        raise ValueError(error) from None


def label_to_json(label: HesselinkLabel | None) -> dict:
    """Serialize a label (or the semistable marker) with 'p/q' rationals."""
    if label is None:
        return {"semistable": True}
    return {
        "semistable": False,
        "eta": [_fraction_str(x) for x in label.eta],
        "q": _fraction_str(label.q),
        "eta_normalized": [_fraction_str(x) for x in label.eta_normalized],
    }


def label_from_json(doc) -> HesselinkLabel | None:
    """Parse a label document; accepts 'p/q' strings, ints, or [p, q] pairs."""
    if isinstance(doc, str):
        doc = json.loads(doc)
    if not isinstance(doc, dict):
        raise ValueError("a label document must be a JSON object")
    if doc.get("semistable"):
        return None
    eta = doc.get("eta")
    if not isinstance(eta, (list, tuple)):
        raise ValueError(f"a label document's eta must be a list of rationals, got {eta!r}")
    label = HesselinkLabel.from_eta(tuple(_parse_rational(x, f"label eta entry {k}")
                                          for k, x in enumerate(eta)))
    if "q" in doc and _parse_rational(doc["q"], "label q") != label.q:
        raise ValueError("inconsistent label document: q != <eta, eta>")
    return label
