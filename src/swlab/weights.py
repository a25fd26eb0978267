"""Tame inertial parameters and their predicted weight sets.

A tame parameter is a pair (w, mu) with w in the Weyl group and mu - eta
1-deep.  The Galois side is never modelled: the parameter pair is the whole
input, every output is stated relative to it, and the predicted set is the
signed hypercube of graph points {sum of sign_i omega^(i) over i in J}.
"""

from __future__ import annotations

import itertools
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
        if not lattice.is_deep(self.params, self.mu - eta(self.params.f), 1):
            raise PreconditionViolation(
                f"mu - eta must be 1-deep, pairings of mu are {self.mu.pairings()}"
            )


@dataclass(frozen=True)
class SignedSet:
    """The signed set w(S_e), encoded by its sign at each coordinate."""

    signs: tuple[int, ...]


def s_w(w: WeylElement) -> SignedSet:
    return SignedSet(tuple(-1 if s else 1 for s in w.flags))


def _concrete_generic(params: Params, mu: Weight) -> bool:
    m = mu.pairings()
    if not all(2 <= x <= params.p - 2 for x in m):
        return False
    return m != (2,) * params.f and m != (params.p - 2,) * params.f


def is_one_generic(t: TameParam) -> bool:
    """Concrete criterion at mu: every pairing in [2, p-2] and the pairing
    vector is neither all-2 nor all-(p-2)."""
    return _concrete_generic(t.params, t.mu)


def presentation_weights(t: TameParam) -> tuple[Weight, ...]:
    """The 2^f recentred weights, one per hypercube label, in label order.
    Always computable: only raw graph images are taken."""
    signs = s_w(t.w)
    e = eta(t.params.f)
    return tuple(
        graph.t_mu_raw(t.params, t.mu, hypercube_point(signs, label)) + e
        for label in range(1 << t.params.f)
    )


def is_one_generic_pair(t: TameParam) -> bool:
    """Genericity of the parameter pair: the concrete criterion must hold at
    every recentred presentation weight, not just at mu.  For f >= 2 this is
    strictly stronger than is_one_generic."""
    return all(_concrete_generic(t.params, lam) for lam in presentation_weights(t))


def presentations_feasible(t: TameParam) -> bool:
    """Whether every recentred presentation weight is 1-deep, which is what
    the recentring search and the block construction actually require.
    Implied by is_one_generic_pair but strictly weaker: at depth boundaries
    a presentation may be the all-2 or all-(p-2) vector yet stay 1-deep."""
    e = eta(t.params.f)
    return all(
        lattice.is_deep(t.params, lam - e, 1) for lam in presentation_weights(t)
    )


def hypercube_point(signs: SignedSet, label: int) -> LambdaWElement:
    """The graph point sum of sign_i omega^(i) over the bits of the label."""
    return LambdaWElement(
        tuple(signs.signs[i] if label >> i & 1 else 0 for i in range(len(signs.signs)))
    )


def _class_set(f: int, signs: SignedSet, classify) -> set[SerreWeightClass]:
    """Classes of the 2^f signed hypercube points, evaluated in label order.
    A collision would contradict graph injectivity."""
    classes = {classify(hypercube_point(signs, label)) for label in range(1 << f)}
    if len(classes) != 1 << f:
        raise CardinalityError(
            f"predicted weight set has {len(classes)} elements, expected {1 << f}"
        )
    return classes


def w_question(t: TameParam) -> tuple[SerreWeightClass, ...]:
    """The predicted weight set: classes of the 2^f signed hypercube points,
    returned sorted."""
    classes = _class_set(t.params.f, s_w(t.w), lambda point: graph.t_mu(t.params, t.mu, point))
    return tuple(sorted(classes))


def jh_dl_reduction(t: TameParam) -> tuple[SerreWeightClass, ...]:
    """Constituents of the Deligne-Lusztig reduction, recovered by applying
    the inverse reflection to every predicted weight."""
    return tuple(sorted(lattice.herzig_reflect_inv(t.params, c) for c in w_question(t)))


@dataclass(frozen=True)
class Presentation:
    """One recentred presentation of the parameter: the weight attached to a
    hypercube label together with the Weyl element reproducing the set."""

    label: int
    sigma: SerreWeightClass
    lam: Weight
    w_sigma: WeylElement


def _presentation(t: TameParam, target: frozenset, label: int) -> Presentation:
    """The recentred presentation at one hypercube label.  The unique Weyl
    element whose parameter at the recentred weight reproduces the target
    set is found by exhaustive search over all 2^f candidates; zero or
    multiple matches flag a model violation.

    The candidates' hypercubes over the recentred weight share their points,
    at most 3^f of them, so each point is classified once per call.
    """
    params = t.params
    x = graph.t_mu_raw(params, t.mu, hypercube_point(s_w(t.w), label))
    sigma = lattice.serre_class(params, x)
    lam = x + eta(params.f)
    memo: dict[tuple[int, ...], SerreWeightClass] = {}

    def classify(point: LambdaWElement) -> SerreWeightClass:
        if point.coeffs not in memo:
            memo[point.coeffs] = graph.t_mu(params, lam, point)
        return memo[point.coeffs]

    matches = []
    for flags in itertools.product((False, True), repeat=params.f):
        try:
            cand = TameParam(WeylElement(flags), lam, params)
        except PreconditionViolation:
            # the recentred weight is not 1-deep: no candidate over it
            # can be formed, and if this happens for every flag vector
            # the parameter pair was not generic
            continue
        if _class_set(params.f, s_w(cand.w), classify) == target:
            matches.append(cand.w)
    if len(matches) != 1:
        raise PresentationError(
            f"label {label:#b}: {len(matches)} Weyl candidates reproduce the weight "
            f"set; recentred weight has pairings {lam.pairings()}"
        )
    return Presentation(label, sigma, lam, matches[0])


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
    return {
        "param": {"w": lattice.weyl_to_str(t.w), "mu": lattice.weight_to_str(t.mu)},
        "one_generic": is_one_generic(t),
        "w_question": [lattice.class_to_json(c) for c in w_question(t)],
        "jh_dl": [lattice.class_to_json(c) for c in jh_dl_reduction(t)],
        "presentations": [
            {
                "label": [i for i in range(t.params.f) if p.label >> i & 1],
                "lambda": lattice.weight_to_str(p.lam),
                "w_sigma": lattice.weyl_to_str(p.w_sigma),
            }
            for p in pres
        ],
    }
