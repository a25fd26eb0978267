"""Label model of the generic projective envelope of a Serre weight.

The envelope of the class of mu - eta is a tensor product of three-step
pieces, one per coordinate, so its filtration is indexed by {0,1,2}^f.  Its
constituents are labelled by subsets J of the signed set {+-omega^(i)}: the
constituent sits in the graded layer counting the signs taken at each
coordinate (pushed forward one slot by the Frobenius twist of the middle
piece) and its class is the graph image of plus - minus.

Modules are never materialised; every statement here is about labels,
layers and multiplicities, which makes all of them exactly decidable.  The
one modelling assumption is that the submodule generated by a constituent
has exactly the superset labels as its constituents ("V_J_exact"); every
report carries it.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import graph, lattice
from .errors import MultiplicityError, NotRestricted, PreconditionViolation
from .lattice import LambdaWElement, Params, SerreWeightClass, Weight, dim_serre

ASSUMPTIONS = ("mu_minus_eta_1_deep", "V_J_exact")


@dataclass(frozen=True, order=True)
class JSet:
    """A subset of {+-omega^(i)}: plus and minus are f-bit masks, which may
    overlap at an index (both signs present)."""

    plus: int
    minus: int
    f: int

    def size(self) -> int:
        return self.plus.bit_count() + self.minus.bit_count()

    def omega(self) -> LambdaWElement:
        return LambdaWElement(
            tuple((self.plus >> i & 1) - (self.minus >> i & 1) for i in range(self.f))
        )

    def issubset(self, other: "JSet") -> bool:
        return (self.plus & other.plus) == self.plus and (self.minus & other.minus) == self.minus

    def covers(self) -> tuple["JSet", ...]:
        """Supersets obtained by adding one absent signed element."""
        out = []
        for i in range(self.f):
            if not self.plus >> i & 1:
                out.append(JSet(self.plus | 1 << i, self.minus, self.f))
            if not self.minus >> i & 1:
                out.append(JSet(self.plus, self.minus | 1 << i, self.f))
        return tuple(sorted(out))

    def supersets(self) -> tuple["JSet", ...]:
        free_plus = [i for i in range(self.f) if not self.plus >> i & 1]
        free_minus = [i for i in range(self.f) if not self.minus >> i & 1]
        out = []
        for extra_p in _submasks(free_plus):
            for extra_m in _submasks(free_minus):
                out.append(JSet(self.plus | extra_p, self.minus | extra_m, self.f))
        return tuple(sorted(out))


def _submasks(free_bits: list[int]) -> list[int]:
    masks = [0]
    for b in free_bits:
        masks += [m | 1 << b for m in masks]
    return masks


def all_jsets(f: int) -> tuple[JSet, ...]:
    return tuple(
        sorted(JSet(p, m, f) for p in range(1 << f) for m in range(1 << f))
    )


@dataclass(frozen=True, order=True)
class MultiIndex:
    """A filtration index in {0,1,2}^f with the componentwise order."""

    k: tuple[int, ...]

    def total(self) -> int:
        return sum(self.k)

    def leq(self, other: "MultiIndex") -> bool:
        for a, b in zip(self.k, other.k):
            if a > b:
                return False
        return True


def k_of(J: JSet) -> MultiIndex:
    """Graded index of the constituent.

    Component i is the filtration level of tensor factor i, which is driven
    by the signs taken at coordinate i+1: the middle layer of each factor
    carries a Frobenius twist, so a sign at coordinate i+1 reflects the
    graph image at coordinate i.  This is the unique rotation under which
    the factor dimension identities hold; verified exhaustively at f = 3.
    """
    k = [0] * J.f
    for i in range(J.f):
        j = (i + 1) % J.f
        k[i] = (J.plus >> j & 1) + (J.minus >> j & 1)
    return MultiIndex(tuple(k))


def sigma_label(params: Params, mu: Weight, J: JSet) -> SerreWeightClass:
    x = graph.t_mu_raw(params, mu, J.omega())
    if not graph.is_member_image(params, x):
        raise PreconditionViolation(f"omega_J for {J} is not a graph member")
    return lattice.serre_class(params, x)


@dataclass(frozen=True)
class GradedReport:
    """Constituents grouped by filtration index, with dimensions."""

    by_index: dict[MultiIndex, tuple[tuple[JSet, SerreWeightClass], ...]]
    dims: dict[MultiIndex, int]


def graded_pieces(params: Params, mu: Weight) -> GradedReport:
    """All 4^f constituents grouped by index; a class collision within one
    index would contradict multiplicity-freeness and raises."""
    lattice.require_one_deep(params, mu)
    groups: dict[MultiIndex, list[tuple[JSet, SerreWeightClass]]] = {}
    for J in all_jsets(params.f):
        groups.setdefault(k_of(J), []).append((J, sigma_label(params, mu, J)))
    by_index = {}
    dims = {}
    for k in sorted(groups):
        entries = tuple(groups[k])
        seen: dict[SerreWeightClass, JSet] = {}
        for J, cls in entries:
            if cls in seen:
                raise MultiplicityError(
                    f"index {k.k}: labels {seen[cls]} and {J} share the class {cls}"
                )
            seen[cls] = J
        by_index[k] = entries
        dims[k] = sum(dim_serre(cls) for _, cls in entries)
    return GradedReport(by_index, dims)


def fil_meet(k1: MultiIndex, k2: MultiIndex) -> MultiIndex:
    """Index of the intersection of two filtration pieces: componentwise max."""
    return MultiIndex(tuple(map(max, k1.k, k2.k)))


@functools.cache
def _up_sets(f: int) -> dict[MultiIndex, frozenset[MultiIndex]]:
    """Every index of {0,1,2}^f mapped to the indices above it."""
    points = [MultiIndex(k) for k in itertools.product((0, 1, 2), repeat=f)]
    return {b: frozenset(k for k in points if b.leq(k)) for b in points}


def upward_closure(indices, f: int) -> frozenset[MultiIndex]:
    """All indices of {0,1,2}^f above some given index, which must itself
    lie in {0,1,2}^f."""
    up = _up_sets(f)
    return frozenset().union(*(up[b] for b in indices))


def fil_index_intersect(I1, I2) -> frozenset[MultiIndex]:
    """Generators of the intersection of two filtration sums: all pairwise
    meets, pruned to the minimal elements of their upward closure."""
    meets = {fil_meet(k1, k2) for k1 in I1 for k2 in I2}
    return frozenset(
        k for k in meets if not any(other != k and other.leq(k) for other in meets)
    )


def tensor_translate(params: Params, lambda_minus: SerreWeightClass, i: int) -> tuple[SerreWeightClass, SerreWeightClass]:
    """Classes of the two translates of a class by the standard characters at
    coordinate i; both shifts must stay restricted."""
    r = lambda_minus.r[i]
    if not (1 <= r <= params.p - 2):
        raise NotRestricted(
            f"r_{i} = {r} leaves no room for both coordinate-{i} translates"
        )
    up = SerreWeightClass(
        lambda_minus.r[:i] + (r + 1,) + lambda_minus.r[i + 1 :], lambda_minus.d
    )
    down = SerreWeightClass(
        lambda_minus.r[:i] + (r - 1,) + lambda_minus.r[i + 1 :],
        (lambda_minus.d + params.p**i) % (params.q - 1),
    )
    return up, down


@dataclass(frozen=True)
class ExtensionWitness:
    """Descriptor of the two-layer piece carrying the unique nontrivial
    extension between the classes of nested labels differing by one sign."""

    J: JSet
    Jp: JSet
    k: MultiIndex
    kp: MultiIndex
    lower: tuple[tuple[JSet, SerreWeightClass], ...]
    upper: tuple[tuple[JSet, SerreWeightClass], ...]
    extension_of: SerreWeightClass
    extension_by: SerreWeightClass
    ext1: int


def extension_witness(params: Params, mu: Weight, J: JSet, Jp: JSet) -> ExtensionWitness:
    lattice.require_one_deep(params, mu)
    if not (J.issubset(Jp) and Jp.size() == J.size() + 1):
        raise PreconditionViolation(f"{Jp} must extend {J} by exactly one signed element")
    predictor = graph.ext1_dim(params, mu, J.omega(), Jp.omega())
    if predictor != 1:
        raise PreconditionViolation(
            f"labels {J} and {Jp} have non-adjacent graph points"
        )
    k, kp = k_of(J), k_of(Jp)
    lower = tuple(
        (L, sigma_label(params, mu, L)) for L in all_jsets(params.f) if k_of(L) == k
    )
    upper = tuple(
        (L, sigma_label(params, mu, L)) for L in all_jsets(params.f) if k_of(L) == kp
    )
    return ExtensionWitness(
        J,
        Jp,
        k,
        kp,
        lower,
        upper,
        extension_of=sigma_label(params, mu, J),
        extension_by=sigma_label(params, mu, Jp),
        ext1=predictor,
    )


@dataclass(frozen=True)
class VbarLayers:
    """Two-layer label report: the generating label, then its covers."""

    layer0: tuple[JSet, SerreWeightClass]
    layer1: tuple[tuple[JSet, SerreWeightClass], ...]


def vbar_layers(params: Params, mu: Weight, J: JSet) -> VbarLayers:
    lattice.require_one_deep(params, mu)
    return VbarLayers(
        (J, sigma_label(params, mu, J)),
        tuple((Jp, sigma_label(params, mu, Jp)) for Jp in J.covers()),
    )


@dataclass(frozen=True)
class SubmoduleLabel:
    """Label data of the submodule generated by the constituent at J: the
    adopted exact model takes the superset labels as its constituents."""

    J: JSet
    jh: frozenset[JSet]
    layer_of: dict[JSet, MultiIndex]


def v_submodule(params: Params, mu: Weight, J: JSet) -> SubmoduleLabel:
    lattice.require_one_deep(params, mu)
    sups = J.supersets()
    return SubmoduleLabel(J, frozenset(sups), {Jp: k_of(Jp) for Jp in sups})


def hom_dim(params: Params, mu: Weight, sigma: SerreWeightClass) -> tuple[int, tuple[JSet, ...]]:
    """Number of labels carrying the given class, with the labels."""
    lattice.require_one_deep(params, mu)
    labels = tuple(
        J for J in all_jsets(params.f) if sigma_label(params, mu, J) == sigma
    )
    return len(labels), labels


def jset_json(J: JSet) -> dict:
    return {
        "plus": [i for i in range(J.f) if J.plus >> i & 1],
        "minus": [i for i in range(J.f) if J.minus >> i & 1],
    }


def envelope_report(params: Params, mu: Weight) -> dict:
    rep = graded_pieces(params, mu)
    graded = []
    for k in sorted(rep.by_index, key=lambda k: (k.total(), k.k)):
        graded.append(
            {
                "k": list(k.k),
                "labels": [
                    {**jset_json(J), "r": list(c.r), "d": c.d, "dim": dim_serre(c)}
                    for J, c in rep.by_index[k]
                ],
            }
        )
    edges = [
        [jset_json(J), jset_json(Jp)]
        for J in all_jsets(params.f)
        for Jp in J.covers()
    ]
    return {
        "mu": lattice.weight_to_str(mu),
        "assumptions": list(ASSUMPTIONS),
        "graded": graded,
        "total_dim": sum(rep.dims.values()),
        "lattice_edges": edges,
    }
