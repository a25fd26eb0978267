"""Tame inertial parameters and their predicted weight sets.

A tame parameter is a pair (w, mu) with w in the Weyl group and mu - eta
1-deep.  The Galois side is never modelled: the parameter pair is the whole
input, every output is stated relative to it, and the predicted set is the
signed hypercube of graph points {sum of sign_i omega^(i) over i in J}.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import graph, lattice
from .errors import CardinalityError, PresentationError, PreconditionViolation
from .lattice import (
    LambdaWElement,
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
    eta,
)


@dataclass(frozen=True)
class TameParam:
    """Deligne-Lusztig parameter pair (w, mu); mu - eta must be 1-deep."""

    w: WeylElement
    mu: Weight
    params: Params

    def __post_init__(self):
        if self.w.f != self.params.f or self.mu.f != self.params.f:
            raise PreconditionViolation("w and mu must have length f")
        lattice.require_one_deep(self.params, self.mu)


def s_w(w: WeylElement) -> tuple[int, ...]:
    """The signed set w(S_e), encoded by its sign at each coordinate."""
    return tuple(-1 if s else 1 for s in w.flags)


def _concrete_generic(p: int, m: tuple[int, ...]) -> bool:
    return all(2 <= y <= p - 2 for y in m) and m != (2,) * len(m) and m != (p - 2,) * len(m)


def is_one_generic(t: TameParam) -> bool:
    """Concrete criterion at mu: every pairing in [2, p-2] and the pairing
    vector is neither all-2 nor all-(p-2)."""
    return _concrete_generic(t.params.p, t.mu.pairings())


def _recentred_pairings(t: TameParam) -> tuple[tuple[int, ...], ...]:
    """Pairings of the 2^f recentred weights in label order, in closed form:
    at label mask J, with m = mu.pairings() and c_i = s_w(w)_i at the bits
    of J and 0 elsewhere, y_i = m_i + c_i, or p - m_i - c_i where bit
    (i+1) mod f of J is set (omega_element(J) reflecting t_mu_raw's base
    pairing m_i + c_i - 1, plus eta).  Read by is_one_generic_pair; oracle:
    the composed presentation_weights (t_mu_raw + eta) in the tests."""
    p, f, m, s = t.params.p, t.params.f, t.mu.pairings(), s_w(t.w)
    out = []
    for J in range(1 << f):
        y = []
        for i in range(f):
            c = m[i] + s[i] if J >> i & 1 else m[i]
            y.append(p - c if J >> (i + 1) % f & 1 else c)
        out.append(tuple(y))
    return tuple(out)


def is_one_generic_pair(t: TameParam) -> bool:
    """The concrete criterion at every vector of _recentred_pairings: all in
    [2, p-2], neither all-2 nor all-(p-2); for f >= 2 stronger than
    is_one_generic.  Oracle: presentation_weights in tests/test_weights.py."""
    return all(_concrete_generic(t.params.p, y) for y in _recentred_pairings(t))


def presentations_feasible(t: TameParam) -> bool:
    """Whether every recentred weight is 1-deep, as recentring requires.  At
    coordinate i each recentred pairing is +-m_i or +-(m_i + s_i) mod p, the
    wall test is symmetric under y -> -y and TameParam has tested every m_i,
    so this is 1 < (m_i + s_i) mod p < p - 1 at every i.  Implied by
    is_one_generic_pair but strictly weaker (an all-2 or all-(p-2) vector
    can be 1-deep).  Oracle: is_deep on the tests' presentation_weights."""
    shifted = [m + s for m, s in zip(t.mu.pairings(), s_w(t.w))]
    return lattice.clear_of_walls(t.params.p, shifted, 1)


def hypercube_point(signs: tuple[int, ...], label: int) -> LambdaWElement:
    """The graph point sum of sign_i omega^(i) over the bits of the label."""
    return LambdaWElement(tuple(s if label >> i & 1 else 0 for i, s in enumerate(signs)))


def w_question(t: TameParam) -> tuple[SerreWeightClass, ...]:
    """The predicted weight set: classes of the 2^f signed hypercube points,
    returned sorted.  A collision would contradict graph injectivity."""
    f = t.params.f
    signs = s_w(t.w)
    classes = {
        graph.t_mu(t.params, t.mu, hypercube_point(signs, label)) for label in range(1 << f)
    }
    if len(classes) != 1 << f:
        raise CardinalityError(
            f"predicted weight set has {len(classes)} elements, expected {1 << f}"
        )
    return tuple(sorted(classes))


def jh_dl_reduction(t: TameParam) -> tuple[SerreWeightClass, ...]:
    """Constituents of the Deligne-Lusztig reduction, recovered by applying
    the inverse reflection to every predicted weight."""
    return _reflect_all(t.params, w_question(t))


def _reflect_all(params: Params, predicted) -> tuple[SerreWeightClass, ...]:
    return tuple(sorted(lattice.herzig_reflect_inv(params, c) for c in predicted))


@dataclass(frozen=True)
class Presentation:
    """One recentred presentation of the parameter: the weight attached to a
    hypercube label together with the Weyl element reproducing the set, in
    the closed form (and with the oracles) stated at _presentation."""

    label: int
    sigma: SerreWeightClass
    lam: Weight
    w_sigma: WeylElement


def _presentation(t: TameParam, target: frozenset, label: int) -> Presentation:
    """The recentred presentation at one hypercube label, in closed form:
    w_sigma = w . (Weyl part of the alcove stabiliser of the label mask J)
    . (sign flips on J), that is w_sigma_i = w_i xor J_i xor J_(i+1).  The
    label mask is the parity support of its hypercube point, so the closed
    form omega_element, whose oracle is verify's omega_uniqueness search,
    owns the Frobenius rotation.

    The parameter (w_sigma, lambda) must reproduce the target set; if it
    does not, or lambda is not 1-deep, the model is violated.  Two Weyl
    elements reproduce one set only if t_mu collides on the hypercube box,
    which graph injectivity excludes.  tests/test_weights.py keeps the
    exhaustive 2^f-candidate search as the oracle for this form.
    """
    params = t.params
    x = graph.t_mu_raw(params, t.mu, hypercube_point(s_w(t.w), label))
    sigma = lattice.serre_class(params, x)
    lam = x + eta(params.f)
    flips = WeylElement(tuple(bool(label >> i & 1) for i in range(params.f)))
    w_sigma = t.w * graph.omega_element(params, label).weyl * flips
    try:
        cand = TameParam(w_sigma, lam, params)
    except PreconditionViolation:
        cand = None  # lambda is not 1-deep: the parameter pair was not generic
    if cand is None or frozenset(w_question(cand)) != target:
        raise PresentationError(
            f"label {label:#b}: 0 Weyl candidates reproduce the weight "
            f"set; recentred weight has pairings {lam.pairings()}"
        )
    return Presentation(label, sigma, lam, w_sigma)


def presentation(t: TameParam, label: int) -> Presentation:
    """The recentred presentation at one hypercube label of the parameter."""
    if not is_one_generic(t):
        raise PreconditionViolation("parameter is not 1-generic")
    if not 0 <= label < 1 << t.params.f:
        raise PreconditionViolation(f"label {label} is not an f-bit mask")
    return _presentation(t, frozenset(w_question(t)), label)


def presentations(t: TameParam) -> tuple[Presentation, ...]:
    """All 2^f recentred presentations, in label order."""
    if not is_one_generic(t):
        raise PreconditionViolation("parameter is not 1-generic")
    target = frozenset(w_question(t))
    return tuple(_presentation(t, target, label) for label in range(1 << t.params.f))


def weights_report(t: TameParam) -> dict:
    pres = presentations(t)
    # the presentations carry the 2^f hypercube classes, so their sorted
    # classes are w_question(t); presentations has checked their count
    predicted = sorted(p.sigma for p in pres)
    return {
        "param": {"w": lattice.weyl_to_str(t.w), "mu": lattice.weight_to_str(t.mu)},
        "one_generic": is_one_generic(t),
        "w_question": [lattice.class_to_json(c) for c in predicted],
        "jh_dl": [lattice.class_to_json(c) for c in _reflect_all(t.params, predicted)],
        "presentations": [
            {
                "label": [i for i in range(t.params.f) if p.label >> i & 1],
                "lambda": lattice.weight_to_str(p.lam),
                "w_sigma": lattice.weyl_to_str(p.w_sigma),
            }
            for p in pres
        ],
    }
