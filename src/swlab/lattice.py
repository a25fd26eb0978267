"""Exact weight arithmetic for GL2 over F_q, q = p^f.

Characters of the diagonal torus live in (Z^2)^f, one integer pair per
embedding of F_q, indexed by Z/f.  Weights are raw integer data; nothing is
normalised on construction, and every quotient structure (central character,
identification of irreducibles) is concentrated in SerreWeightClass.

The extended affine Weyl group is modelled as pairs t_lambda . w with the
translation written on the left, and acts on weights through the p-dot
action, where translations are scaled by p and everything is shifted by the
half-sum eta = (1,0) in every coordinate.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Iterable
from dataclasses import dataclass

from .errors import NotRegular, NotRestricted, PreconditionViolation


def _is_prime(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class Params:
    """Arithmetic context: a prime p >= 5 and an unramified degree f >= 1."""

    p: int
    f: int

    def __post_init__(self):
        # p >= 5 keeps the generic range 2 <= r <= p-2 non-vacuous.
        if not _is_prime(self.p) or self.p < 5:
            raise PreconditionViolation(f"p must be a prime >= 5, got {self.p}")
        if self.f < 1:
            raise PreconditionViolation(f"f must be >= 1, got {self.f}")

    @property
    def q(self) -> int:
        return self.p ** self.f


@dataclass(frozen=True)
class Weight:
    """A torus character: one integer pair (a_i, b_i) per coordinate i in Z/f."""

    coords: tuple[tuple[int, int], ...]

    @property
    def f(self) -> int:
        return len(self.coords)

    def pairing(self, i: int) -> int:
        """Pairing with the coroot at coordinate i, that is a_i - b_i."""
        a, b = self.coords[i]
        return a - b

    def pairings(self) -> tuple[int, ...]:
        return tuple(a - b for a, b in self.coords)

    def frobenius(self) -> "Weight":
        """Cyclic shift sending coordinate i-1 to coordinate i."""
        c = self.coords
        f = len(c)
        return Weight(tuple(c[(i - 1) % f] for i in range(f)))

    def frobenius_inverse(self) -> "Weight":
        c = self.coords
        f = len(c)
        return Weight(tuple(c[(i + 1) % f] for i in range(f)))

    def scale(self, k: int) -> "Weight":
        return Weight(tuple((k * a, k * b) for a, b in self.coords))

    def __add__(self, other: "Weight") -> "Weight":
        return Weight(tuple([(a + c, b + d) for (a, b), (c, d) in zip(self.coords, other.coords)]))

    def __sub__(self, other: "Weight") -> "Weight":
        return Weight(tuple([(a - c, b - d) for (a, b), (c, d) in zip(self.coords, other.coords)]))

    def __neg__(self) -> "Weight":
        return Weight(tuple([(-a, -b) for a, b in self.coords]))


@functools.cache
def eta(f: int) -> Weight:
    """The half-sum twist: (1, 0) in every coordinate."""
    return Weight(((1, 0),) * f)


@functools.cache
def zero_weight(f: int) -> Weight:
    return Weight(((0, 0),) * f)


@dataclass(frozen=True)
class LambdaWElement:
    """An element of the SL2-side weight lattice: sum of c_i omega^(i)."""

    coeffs: tuple[int, ...]

    @property
    def f(self) -> int:
        return len(self.coeffs)

    def __add__(self, other: "LambdaWElement") -> "LambdaWElement":
        return LambdaWElement(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "LambdaWElement") -> "LambdaWElement":
        return LambdaWElement(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "LambdaWElement":
        return LambdaWElement(tuple(-a for a in self.coeffs))

    def frobenius_inverse(self) -> "LambdaWElement":
        c = self.coeffs
        f = len(c)
        return LambdaWElement(tuple(c[(i + 1) % f] for i in range(f)))


@dataclass(frozen=True)
class WeylElement:
    """An element of W = S2^f; flag i set means the swap acts at coordinate i."""

    flags: tuple[bool, ...]

    @property
    def f(self) -> int:
        return len(self.flags)

    @staticmethod
    def identity(f: int) -> "WeylElement":
        return WeylElement((False,) * f)

    @staticmethod
    def longest(f: int) -> "WeylElement":
        return WeylElement((True,) * f)

    def __mul__(self, other: "WeylElement") -> "WeylElement":
        return WeylElement(tuple([a ^ b for a, b in zip(self.flags, other.flags)]))

    def act(self, w: Weight) -> Weight:
        return Weight(tuple([(b, a) if s else (a, b) for s, (a, b) in zip(self.flags, w.coords)]))

    def act_lambda(self, v: LambdaWElement) -> LambdaWElement:
        return LambdaWElement(tuple(-c if s else c for s, c in zip(self.flags, v.coeffs)))


@dataclass(frozen=True)
class ExtAffineElement:
    """t_lambda . w in the extended affine Weyl group, translation on the left."""

    translation: Weight
    weyl: WeylElement

    @property
    def f(self) -> int:
        return self.translation.f

    @staticmethod
    def identity(f: int) -> "ExtAffineElement":
        return ExtAffineElement(zero_weight(f), WeylElement.identity(f))

    @staticmethod
    def from_right_translation(w: WeylElement, nu: Weight) -> "ExtAffineElement":
        """Build w . t_nu, rewritten as t_{w(nu)} . w."""
        return ExtAffineElement(w.act(nu), w)

    def __mul__(self, other: "ExtAffineElement") -> "ExtAffineElement":
        # (t_a v)(t_b w) = t_{a + v(b)} (vw) in one pass, v swapping b where flagged
        coords, flags = [], []
        left, right = self.translation.coords, other.translation.coords
        for (a, b), v, (c, d), w in zip(left, self.weyl.flags, right, other.weyl.flags):
            coords.append((a + d, b + c) if v else (a + c, b + d))
            flags.append(v ^ w)
        return ExtAffineElement(Weight(tuple(coords)), WeylElement(tuple(flags)))

    def inverse(self) -> "ExtAffineElement":
        # components of W are involutions, so w^-1 = w and the translation is w(-a)
        pairs = zip(self.translation.coords, self.weyl.flags)
        return ExtAffineElement(
            Weight(tuple([(-b, -a) if s else (-a, -b) for (a, b), s in pairs])), self.weyl
        )

    def act(self, x: Weight) -> Weight:
        """Ordinary affine action, translations unscaled: a + w(x), where w
        swaps the pair of x at each flagged coordinate."""
        triples = zip(self.translation.coords, self.weyl.flags, x.coords)
        return Weight(
            tuple([(a + d, b + c) if s else (a + c, b + d) for (a, b), s, (c, d) in triples])
        )


def p_dot(params: Params, g: ExtAffineElement, w: Weight) -> Weight:
    """The p-dot action: scale the translation by p and conjugate by +eta.

    A single-pass form of the composed formula
    ``g.translation.scale(p) + g.weyl.act(w + eta) - eta``, which the tests
    pin it against: at an unswapped coordinate (a, b) goes to (a, b), at a
    swapped one to (b - 1, a + 1), before the scaled translation is added.
    """
    p = params.p
    return Weight(
        tuple(
            [
                (p * ta + b - 1, p * tb + a + 1) if s else (p * ta + a, p * tb + b)
                for (ta, tb), s, (a, b) in zip(g.translation.coords, g.weyl.flags, w.coords)
            ]
        )
    )


def clear_of_walls(p: int, ys: Iterable[int], n: int) -> bool:
    """The wall test, symmetric under y -> -y: every pairing y of ys has
    n < y mod p < p - n, n away from the p-walls (always so for n < 0)."""
    for y in ys:
        if not n < y % p < p - n:
            return False
    return True


def is_deep(params: Params, w: Weight, n: int) -> bool:
    """The wall test on the pairings a_i - b_i + 1 of w + eta."""
    return clear_of_walls(params.p, [a - b + 1 for a, b in w.coords], n)


def require_one_deep(params: Params, mu: Weight) -> None:
    """Raise unless mu - eta is 1-deep, the standing hypothesis on mu.  The
    pairings of (mu - eta) + eta are those of mu, so this is the wall test
    1 < m_i mod p < p - 1 on mu.pairings(), with no mu - eta built."""
    m = mu.pairings()
    if not clear_of_walls(params.p, m, 1):
        raise PreconditionViolation(f"mu - eta must be 1-deep, pairings of mu are {m}")


def is_generic_char(params: Params, w: Weight) -> bool:
    """True when 2 <= a_i - b_i <= p-2 at every coordinate."""
    return all(2 <= m <= params.p - 2 for m in w.pairings())


def is_regular(params: Params, w: Weight) -> bool:
    """True when 0 <= a_i - b_i < p-1 at every coordinate."""
    return all(0 <= m < params.p - 1 for m in w.pairings())


def is_dominant(w: Weight) -> bool:
    return all(m >= 0 for m in w.pairings())


@dataclass(frozen=True, order=True)
class SerreWeightClass:
    """Canonical form of an irreducible: a p-restricted profile r plus a
    central-character residue d modulo p^f - 1.

    Two p-restricted weights share an (r, d) exactly when they are congruent
    modulo (p - pi)X0(T): the pairing vector ignores central shifts and the
    linear form sum(b_i p^i) mod p^f - 1 has kernel exactly (p - pi)Z^f on
    the central lattice.
    """

    r: tuple[int, ...]
    d: int

    @property
    def f(self) -> int:
        return len(self.r)


def serre_class(params: Params, w: Weight) -> SerreWeightClass:
    """Class of a p-restricted weight modulo (p - pi)X0(T)."""
    p = params.p
    r = w.pairings()
    for i, m in enumerate(r):
        if not (0 <= m <= p - 1):
            raise NotRestricted(f"pairing {m} at coordinate {i} is outside [0, {p - 1}]")
    return SerreWeightClass(r, central_residue(params, w))


def central_residue(params: Params, w: Weight) -> int:
    """The linear form sum(b_i p^i) mod p^f - 1 on any weight; its kernel on
    the central lattice is exactly (p - pi)X0(T)."""
    p = params.p
    return sum(w.coords[i][1] * p**i for i in range(params.f)) % (params.q - 1)


def dim_serre(c: SerreWeightClass) -> int:
    dim = 1
    for r in c.r:
        dim *= r + 1
    return dim


def restricted_lift(params: Params, c: SerreWeightClass) -> Weight:
    """A p-restricted weight representing the class; the residue d is carried
    entirely by coordinate 0."""
    coords = [(c.r[0] + c.d, c.d)]
    coords += [(c.r[i], 0) for i in range(1, params.f)]
    return Weight(tuple(coords))


@functools.cache
def _reflection_element(f: int) -> ExtAffineElement:
    # w0 . t_{-eta} written with the translation on the left
    return ExtAffineElement(Weight(((0, -1),) * f), WeylElement.longest(f))


@functools.cache
def _reflection_inverse(f: int) -> ExtAffineElement:
    return _reflection_element(f).inverse()


def _check_regular(params: Params, c: SerreWeightClass) -> None:
    for i, r in enumerate(c.r):
        if r >= params.p - 1:
            raise NotRegular(f"r_{i} = {r} equals p-1 = {params.p - 1}")


def herzig_reflect(params: Params, c: SerreWeightClass) -> SerreWeightClass:
    """The reflection sending a regular class through w0.t_{-eta} and back to
    a restricted representative."""
    _check_regular(params, c)
    x = p_dot(params, _reflection_element(params.f), restricted_lift(params, c))
    return serre_class(params, x)


def herzig_reflect_inv(params: Params, c: SerreWeightClass) -> SerreWeightClass:
    """Inverse reflection, realised by the group inverse t_eta.w0."""
    _check_regular(params, c)
    x = p_dot(params, _reflection_inverse(params.f), restricted_lift(params, c))
    return serre_class(params, x)


def stabilizes_base_alcove(params: Params, g: ExtAffineElement) -> bool:
    """Exact per-coordinate test that g preserves the dominant base alcove.

    Under the p-dot action the pairing at coordinate i moves by the affine
    map y -> p.<t, a_i> + sign_i.y, which maps the open interval (0, p) onto
    itself only for (<t, a_i>, sign_i) in {(0, +1), (1, -1)}.
    """
    for (a, b), s in zip(g.translation.coords, g.weyl.flags):
        if a - b != s:
            return False
    return True


def central_shift_vector(coefficients: tuple[int, ...]) -> Weight:
    """The central weight sum c_i (1,1)^(i)."""
    return Weight(tuple((c, c) for c in coefficients))


def in_p_minus_pi_central(params: Params, coefficients: tuple[int, ...]) -> bool:
    """Whether a central vector sum c_i (1,1)^(i) lies in (p - pi)X0(T).

    Solves (p - pi)m = c exactly: m = (sum_j p^(f-1-j) shift^j c) / (p^f - 1),
    integral in every entry iff c is in the sublattice.  Each numerator is
    evaluated by Horner's rule, c_i first.
    """
    p, f, q = params.p, params.f, params.q
    for i in range(f):
        num = 0
        for j in range(f):
            num = num * p + coefficients[(i - j) % f]
        if num % (q - 1):
            return False
    return True


# --- text encodings used by every CLI surface ---


def weight_to_str(w: Weight) -> str:
    return ";".join(f"{a},{b}" for a, b in w.coords)


def weight_from_str(s: str, f: int) -> Weight:
    parts = s.split(";")
    if len(parts) != f:
        raise ValueError(f"expected {f} coordinate pairs separated by ';', got {len(parts)}")
    coords = []
    for part in parts:
        entries = part.split(",")
        if len(entries) != 2:
            raise ValueError(f"coordinate {part!r} is not a pair 'a,b'")
        try:
            coords.append((int(entries[0]), int(entries[1])))
        except ValueError:
            raise ValueError(f"coordinate {part!r} has non-integer entries") from None
    return Weight(tuple(coords))


def weyl_to_str(w: WeylElement) -> str:
    return "".join("s" if s else "e" for s in w.flags)


def weyl_from_str(s: str, f: int) -> WeylElement:
    if len(s) != f or any(ch not in "es" for ch in s):
        raise ValueError(f"Weyl element must be a string over {{e,s}} of length {f}, got {s!r}")
    return WeylElement(tuple(ch == "s" for ch in s))


def class_to_json(c: SerreWeightClass) -> dict:
    return {"r": list(c.r), "d": c.d}
