"""The extension-graph coordinate system on Serre weights.

Graph points are elements of the SL2-side weight lattice.  Each point splits
uniquely as omega_J + nu with J the parity support and nu in the root
lattice; the alcove stabiliser attached to J (omega_element, a closed form
whose oracle is the search of verify's omega_uniqueness check) then carries
mu + nu + omega_J - eta to the weight whose class labels the point.

Two embeddings into the GL2-side lattice are in play and they do not agree
on the overlap: the fundamental part omega_J goes in through the section
omega^(i) -> (1,0)^(i), while the root part nu goes in with trivial central
character, alpha^(i) -> (1,-1)^(i).  Mixing them up shifts central
characters, which is why the embedding below always passes through the
decomposition.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from . import lattice
from .errors import NotRestricted, PreconditionViolation
from .lattice import (
    ExtAffineElement,
    LambdaWElement,
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
    eta,
)


@dataclass(frozen=True)
class EDecomposition:
    """Split of a lattice point as omega_J (J an f-bit mask) plus an even nu."""

    J: int
    nu: LambdaWElement


def decompose(w: LambdaWElement) -> EDecomposition:
    """J is the parity support; nu = w - omega_J has all coefficients even."""
    mask = 0
    nu = []
    for i, c in enumerate(w.coeffs):
        if c % 2:
            mask |= 1 << i
            nu.append(c - 1)
        else:
            nu.append(c)
    return EDecomposition(mask, LambdaWElement(tuple(nu)))


def embed_graph_point(w: LambdaWElement) -> Weight:
    """Embed omega_J + nu into the character lattice, each part through its
    own section: the coefficient c_i = j_i + 2m_i goes to (j_i + m_i, -m_i)."""
    dec = decompose(w)
    coords = []
    for i, c in enumerate(w.coeffs):
        j = 1 if dec.J >> i & 1 else 0
        m = (c - j) // 2
        coords.append((j + m, -m))
    return Weight(tuple(coords))


@functools.cache
def omega_element(params: Params, J: int) -> ExtAffineElement:
    """The alcove stabiliser w_J . t_{-pi^-1 omega_J} in closed form: with
    b_i = bit i+1 of J (pi^-1 rotates the mask), coordinate i carries the
    translation (0, -b_i) and the Weyl flag b_i.  Under the p-dot action
    this moves the pairing y to b_i.p + (-1)^b_i.y, preserving (0, p)."""
    f = params.f
    bits = [J >> ((i + 1) % f) & 1 for i in range(f)]
    return ExtAffineElement(
        Weight(tuple((0, -b) for b in bits)), WeylElement(tuple(map(bool, bits)))
    )


def t_mu_raw(params: Params, mu: Weight, w: LambdaWElement) -> Weight:
    """Image of a graph point in the character lattice (no quotient taken).

    A single-pass form of the composed formula
    ``p_dot(omega_element(decompose(w).J), mu + embed_graph_point(w) - eta)``,
    which the tests pin it against: one loop builds the parity mask J and
    the base coordinates, where c_i = j_i + 2m_i contributes
    (a_i + j_i + m_i - 1, b_i - m_i).
    """
    J = 0
    base = []
    for i, (c, (a, b)) in enumerate(zip(w.coeffs, mu.coords)):
        j = c & 1
        m = c >> 1  # floor halving: c = j + 2m also for negative c
        J |= j << i
        base.append((a + j + m - 1, b - m))
    g = omega_element(params, J)
    return lattice.p_dot(params, g, Weight(tuple(base)))


def is_member_image(params: Params, x: Weight) -> bool:
    """Membership test on a raw image: every pairing of x + eta lies in [0, p)."""
    return all(0 <= m + 1 < params.p for m in x.pairings())


def in_graph(params: Params, mu: Weight, w: LambdaWElement) -> bool:
    """Membership test on the raw image, which needs no lattice reduction:
    the pairings ignore central (p - pi)-shifts.  Library code tests an image
    it already holds with is_member_image; perfbench traces this wrapper, so
    deleting it is a benchmark change."""
    return is_member_image(params, t_mu_raw(params, mu, w))


def t_mu(params: Params, mu: Weight, w: LambdaWElement) -> SerreWeightClass:
    """Class of a graph point.  Raises NotRestricted when the raw image has a
    pairing of -1 or p, which can happen only at insufficient depth; such
    points are never silently re-centred across an alcove wall."""
    return lattice.serre_class(params, t_mu_raw(params, mu, w))


def adjacent(w1: LambdaWElement, w2: LambdaWElement) -> bool:
    """Whether the two points differ by exactly one +-omega^(j)."""
    diff = [a - b for a, b in zip(w1.coeffs, w2.coeffs)]
    nonzero = [c for c in diff if c]
    return len(nonzero) == 1 and nonzero[0] in (1, -1)


def ext1_dim(params: Params, mu: Weight, w1: LambdaWElement, w2: LambdaWElement) -> int:
    """Predicted Ext^1 dimension between the classes of two graph points:
    1 exactly for adjacent points, 0 otherwise.  Symmetric by construction."""
    for w in (w1, w2):
        x = t_mu_raw(params, mu, w)
        if not is_member_image(params, x):
            raise PreconditionViolation(f"point {w.coeffs} is not a graph member")
        x = x + eta(params.f)
        if not lattice.is_generic_char(params, x):
            raise PreconditionViolation(
                f"image of {w.coeffs} shifted by eta has pairings {x.pairings()}, not generic"
            )
    return 1 if adjacent(w1, w2) else 0


def recenter_check(params: Params, mu: Weight, w0pt: LambdaWElement, wprime: LambdaWElement) -> bool:
    """Two-route identity for recentring the graph at one of its points.

    Route one evaluates wprime over the recentred weight; route two pulls
    wprime back through the Weyl part of the stabiliser attached to w0pt
    (acting componentwise by sign flips, with no Frobenius shift) and
    evaluates over the original weight.
    """
    x = t_mu_raw(params, mu, w0pt)
    if not is_member_image(params, x):
        raise PreconditionViolation(f"recentring point {w0pt.coeffs} is not a graph member")
    lam = x + eta(params.f)
    w_j = omega_element(params, decompose(w0pt).J).weyl
    pulled = w_j.act_lambda(wprime) + w0pt
    return t_mu(params, lam, wprime) == t_mu(params, mu, pulled)


@dataclass(frozen=True)
class GraphEnumeration:
    """Vertices labelled by classes, adjacency edges on vertex indices, and
    boundary members whose class construction fails at this depth."""

    vertices: tuple[tuple[LambdaWElement, SerreWeightClass], ...]
    edges: tuple[tuple[int, int], ...]
    boundary: tuple[LambdaWElement, ...]


def enumerate_graph(params: Params, mu: Weight, radius: int) -> GraphEnumeration:
    """All graph members with coefficients in [-radius, radius]^f, in sorted
    coefficient order."""
    if radius < 0:
        raise PreconditionViolation(f"radius must be >= 0, got {radius}")
    if not lattice.is_dominant(mu - eta(params.f)):
        raise PreconditionViolation("mu - eta must be dominant")
    vertices = []
    boundary = []
    for coeffs in itertools.product(range(-radius, radius + 1), repeat=params.f):
        w = LambdaWElement(coeffs)
        x = t_mu_raw(params, mu, w)
        if not is_member_image(params, x):
            continue
        try:
            vertices.append((w, lattice.serre_class(params, x)))
        except NotRestricted:
            boundary.append(w)
    edges = [
        (i, j)
        for i, j in itertools.combinations(range(len(vertices)), 2)
        if adjacent(vertices[i][0], vertices[j][0])
    ]
    return GraphEnumeration(tuple(vertices), tuple(edges), tuple(boundary))


def graph_json(enum: GraphEnumeration) -> dict:
    return {
        "vertices": [
            {"coeffs": list(w.coeffs), "r": list(c.r), "d": c.d} for w, c in enum.vertices
        ],
        "edges": [list(e) for e in enum.edges],
        "boundary": [list(w.coeffs) for w in enum.boundary],
    }


def graph_dot(enum: GraphEnumeration) -> str:
    lines = ["graph extension_graph {", "  node [shape=box];"]
    for idx, (w, c) in enumerate(enum.vertices):
        coeffs = ",".join(str(x) for x in w.coeffs)
        rs = ",".join(str(x) for x in c.r)
        lines.append(f'  v{idx} [label="{coeffs} | r={rs}, d={c.d}"];')
    for idx, w in enumerate(enum.boundary):
        coeffs = ",".join(str(x) for x in w.coeffs)
        lines.append(f'  b{idx} [label="{coeffs} | boundary", style=dashed];')
    for i, j in enum.edges:
        lines.append(f"  v{i} -- v{j};")
    lines.append("}")
    return "\n".join(lines) + "\n"
