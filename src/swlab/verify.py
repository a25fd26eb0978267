"""Exhaustive small-case verification harness.

Every structural statement the package relies on is re-checked here by
brute force: exhaustive sweeps where the search space is small (under 10^6
points), seeded samples otherwise.

A check is a generator decorated with ``@check``.  It yields once per case
it examines: ``None`` when the case holds, or the counterexample string when
it does not.  A case is one instance of the checked statement whose
hypotheses hold: one sampled draw, one weight, one parameter, one pair of
labels, and so on.  The decorator registers the check in ``CHECKS``, in
definition order, under its function name without the ``check_`` prefix;
adding a check means writing one decorated generator.  The driver it wraps
around the generator counts the cases, stops at the first counterexample
(which may be yielded in the middle of a case: the generator is never
resumed after it) and reports one row per (p, f) configuration that the
check's ``when`` predicate admits.  A row reads ``pass``, ``FAIL`` with the
first counterexample in sorted scan order, or ``empty`` when the sweep held
no case; an empty row is not a failure.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from collections.abc import Callable, Iterator
from dataclasses import dataclass

from . import d0 as d0_mod
from . import envelope, graph, lattice
from . import weights as weights_mod
from .errors import (
    CardinalityError,
    MultiplicityError,
    PresentationError,
    PreconditionViolation,
    SwlabError,
)
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
class SuiteConfig:
    """Sweep configuration; the seed fully determines any sampled sweep."""

    p_list: tuple[int, ...] = (5, 7)
    f_list: tuple[int, ...] = (1, 2)
    depth: int = 1
    radius: int = 2
    cases: int = 10000
    seed: int = 0

    def __post_init__(self):
        # a sampled sweep of no cases, or an empty box, would pass vacuously
        if self.cases < 1:
            raise PreconditionViolation(f"cases must be >= 1, got {self.cases}")
        if self.radius < 0:
            raise PreconditionViolation(f"radius must be >= 0, got {self.radius}")


@dataclass(frozen=True)
class SuiteOutcome:
    name: str
    config: str
    cases: int
    counterexample: str | None = None

    @property
    def passed(self) -> bool:
        return self.counterexample is None

    @property
    def status(self) -> str:
        if not self.passed:
            return "FAIL"
        return "pass" if self.cases else "empty"


def _rng(cfg: SuiteConfig, params: Params, salt: int) -> random.Random:
    return random.Random(cfg.seed * 1_000_003 + params.p * 10_007 + params.f * 101 + salt)


Cases = Iterator[str | None]

CHECKS = ()  # (name, check) pairs in definition order, filled by @check


def check(when: Callable[[int, int], bool] = lambda p, f: True):
    """Register a case generator as a check that applies where ``when(p, f)``."""

    def register(cases: Callable[[Params, SuiteConfig], Cases]):
        name = cases.__name__.removeprefix("check_")

        @functools.wraps(cases)
        def run(params: Params, cfg: SuiteConfig) -> list[SuiteOutcome]:
            if not when(params.p, params.f):
                return []
            count, ce = 0, None
            try:
                for ce in cases(params, cfg):
                    count += 1
                    if ce is not None:
                        break
            except SwlabError as exc:
                # a case the model cannot even evaluate is a counterexample
                count, ce = count + 1, f"{type(exc).__name__}: {exc}"
            return [SuiteOutcome(name, f"p={params.p} f={params.f}", count, ce)]

        global CHECKS
        CHECKS += ((name, run),)
        return run

    return register


# --- sweep helpers ---


def pairing_vectors(params: Params, depth: int):
    """All pairing vectors whose weights are depth-deep, in sorted order."""
    return itertools.product(range(depth + 1, params.p - depth), repeat=params.f)


def mu_of(vector) -> Weight:
    return Weight(tuple((m, 0) for m in vector))


def all_weyl(f: int) -> list[WeylElement]:
    return [WeylElement(flags) for flags in itertools.product((False, True), repeat=f)]


def hypercube(f: int) -> list[LambdaWElement]:
    return [LambdaWElement(c) for c in itertools.product((-1, 0, 1), repeat=f)]


def one_generic_params(params: Params):
    """Parameters passing the concrete criterion at mu, all Weyl elements."""
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        for w in all_weyl(params.f):
            t = weights_mod.TameParam(w, mu, params)
            if weights_mod.is_one_generic(t):
                yield t


def pair_generic_params(params: Params):
    """Parameters generic at every recentred presentation weight."""
    for t in one_generic_params(params):
        if weights_mod.is_one_generic_pair(t):
            yield t


def feasible_generic_params(params: Params):
    """Generic parameters whose presentations are all 1-deep; a superset of
    the pair-generic sweep on which every block construction is defined."""
    for t in one_generic_params(params):
        if weights_mod.presentations_feasible(t):
            yield t


def _draws(rng: random.Random, lo: int, hi: int, n: int) -> list[int]:
    """What n calls of ``rng.randint(lo, hi)`` return, consuming the same words
    of the stream.  randint draws k = size.bit_length() bits per try and
    rejects values >= size (``_randbelow_with_getrandbits`` on Python 3.10 to
    3.12); this loop does the same without randint's layers of calls."""
    size = hi - lo + 1
    k = size.bit_length()
    getrandbits = rng.getrandbits
    out = []
    while len(out) < n:
        r = getrandbits(k)
        if r < size:
            out.append(lo + r)
    return out


def _rand_weight(rng: random.Random, f: int, lo: int = -6, hi: int = 6) -> Weight:
    v = _draws(rng, lo, hi, 2 * f)
    return Weight(tuple(zip(v[::2], v[1::2])))


def _rand_ext(rng: random.Random, f: int) -> ExtAffineElement:
    return ExtAffineElement(
        _rand_weight(rng, f, -4, 4), WeylElement(tuple(map(bool, _draws(rng, 0, 1, f))))
    )


# --- core lattice checks ---


@check()
def check_p_dot_action(params: Params, cfg: SuiteConfig) -> Cases:
    """p_dot is a left action of the extended affine Weyl group."""
    rng = _rng(cfg, params, 1)
    ident = ExtAffineElement.identity(params.f)
    for _ in range(min(cfg.cases, 1000)):
        g, h = _rand_ext(rng, params.f), _rand_ext(rng, params.f)
        x = _rand_weight(rng, params.f)
        if lattice.p_dot(params, ident, x) != x:
            yield f"identity moved {x.coords}"
        lhs = lattice.p_dot(params, g * h, x)
        rhs = lattice.p_dot(params, g, lattice.p_dot(params, h, x))
        yield None if lhs == rhs else f"g={g}, h={h}, x={x.coords}"


@check()
def check_ext_affine_group(params: Params, cfg: SuiteConfig) -> Cases:
    """Associativity, inverses, and the ordinary affine action."""
    rng = _rng(cfg, params, 2)
    ident = ExtAffineElement.identity(params.f)
    for _ in range(min(cfg.cases, 1000)):
        g, h, k = (_rand_ext(rng, params.f) for _ in range(3))
        gh = g * h
        if gh * k != g * (h * k):
            yield f"associativity: {g}, {h}, {k}"
        g_inv = g.inverse()
        if g * g_inv != ident or g_inv * g != ident:
            yield f"inverse: {g}"
        x = _rand_weight(rng, params.f)
        yield None if gh.act(x) == g.act(h.act(x)) else f"action: {g}, {h}, {x.coords}"


@check()
def check_frobenius_order(params: Params, cfg: SuiteConfig) -> Cases:
    rng = _rng(cfg, params, 3)
    for _ in range(200):
        x = _rand_weight(rng, params.f)
        y = x
        for _ in range(params.f):
            y = y.frobenius()
        if y != x:
            yield f"frobenius^f moved {x.coords}"
        if x.frobenius().frobenius_inverse() != x:
            yield f"inverse shift failed on {x.coords}"
        yield None


@check()
def check_serre_class_orbit(params: Params, cfg: SuiteConfig) -> Cases:
    """The class is constant along (p - pi)-shifts of the central lattice."""
    rng = _rng(cfg, params, 4)
    p, f = params.p, params.f
    for _ in range(min(cfg.cases, 500)):
        r = _draws(rng, 0, p - 1, f)
        b = _draws(rng, -8, 8, f)
        w = Weight(tuple((ri + bi, bi) for ri, bi in zip(r, b)))
        m = _draws(rng, -3, 3, f)
        shift = tuple(p * m[i] - m[(i - 1) % f] for i in range(f))
        w2 = w + lattice.central_shift_vector(shift)
        same = lattice.serre_class(params, w) == lattice.serre_class(params, w2)
        yield None if same else f"w={w.coords}, shift={shift}"


@check(when=lambda p, f: p == 5 and f <= 2)
def check_serre_class_injective(params: Params, cfg: SuiteConfig) -> Cases:
    """Equal classes force congruence mod (p - pi)X0(T); exhaustive at p=5."""
    p, f = params.p, params.f
    bs = list(itertools.product(range(p), repeat=f))
    # congruence of b1 and b2 does not depend on r: one test per pair
    congruent = [
        lattice.in_p_minus_pi_central(params, tuple(x - y for x, y in zip(b1, b2)))
        for b1, b2 in itertools.combinations(bs, 2)
    ]
    for r in itertools.product(range(p), repeat=f):
        entries = [
            (b, lattice.serre_class(params, Weight(tuple((ri + bi, bi) for ri, bi in zip(r, b)))))
            for b in bs
        ]
        pairs = itertools.combinations(entries, 2)
        for ((b1, c1), (b2, c2)), same in zip(pairs, congruent):
            yield None if (c1 == c2) == same else f"r={r}, b1={b1}, b2={b2}"


@check()
def check_deepness_monotone(params: Params, cfg: SuiteConfig) -> Cases:
    for v in itertools.product(range(0, 2 * params.p), repeat=params.f):
        w = mu_of(v)
        for n in range(1, params.p // 2 + 1):
            if lattice.is_deep(params, w, n) and not lattice.is_deep(params, w, n - 1):
                yield f"pairings={v}, n={n}"
        yield None


@check()
def check_generic_implies_deep(params: Params, cfg: SuiteConfig) -> Cases:
    e = eta(params.f)
    for v in itertools.product(range(0, params.p + 1), repeat=params.f):
        w = mu_of(v)
        if lattice.is_generic_char(params, w):
            if not all(1 < m < params.p - 1 for m in v):
                yield f"pairings={v}"
            deep = lattice.is_deep(params, w - e, 1)
            yield None if deep else f"pairings={v} not 1-deep after shift"


@check()
def check_omega_uniqueness(params: Params, cfg: SuiteConfig) -> Cases:
    """Oracle of graph.omega_element: for each mask J, the search over all
    2^f candidates w . t_{-pi^-1 omega_J} finds exactly the closed form as
    base-alcove stabiliser; the 2^f masks give distinct elements."""
    f = params.f
    seen = set()
    for mask in range(1 << f):
        g = graph.omega_element(params, mask)
        omega = LambdaWElement(tuple(mask >> i & 1 for i in range(f)))
        nu = -graph.embed_graph_point(omega.frobenius_inverse())
        cands = (ExtAffineElement.from_right_translation(w, nu) for w in all_weyl(f))
        found = [c for c in cands if lattice.stabilizes_base_alcove(params, c)]
        if found != [g]:
            yield f"mask={mask:#b}: search finds {found}, closed form is {g}"
        if any(g.translation.pairing(i) not in (0, 1) for i in range(f)):
            yield f"mask={mask:#b}: translation pairings"
        seen.add(g)
        yield None
    if len(seen) != 1 << f:
        yield f"only {len(seen)} distinct elements"


# --- extension graph checks ---


@check()
def check_graph_injectivity(params: Params, cfg: SuiteConfig) -> Cases:
    """For every depth-compliant pairing vector, all graph points in the box
    have pairwise distinct raw images modulo (p - pi)X0(T), by the complete
    invariant (pairings, central residue), and the signed hypercube is
    contained in the graph (the non-vacuity floor).  The row is left empty
    where p <= 2 * depth + 1 (--depth 2 at p=5, --depth 3 at p=7): no pairing
    vector is depth-deep, so the statement has no mu to be about."""
    f, radius = params.f, cfg.radius
    for v in pairing_vectors(params, cfg.depth):
        mu = mu_of(v)
        seen: dict[tuple, tuple] = {}
        members = set()
        for coeffs in itertools.product(range(-radius, radius + 1), repeat=f):
            x = graph.t_mu_raw(params, mu, LambdaWElement(coeffs))
            if not graph.is_member_image(params, x):
                continue
            members.add(coeffs)
            inv = (x.pairings(), lattice.central_residue(params, x))
            if inv in seen:
                yield f"mu pairings {v}: {seen[inv]} and {coeffs} collide"
            seen[inv] = coeffs
        if radius >= 1 and cfg.depth >= 1:
            for coeffs in itertools.product((-1, 0, 1), repeat=f):
                if coeffs not in members:
                    yield f"mu pairings {v}: hypercube point {coeffs} not a member"
        yield None


@check(when=lambda p, f: p >= 7)
def check_graph_symmetry(params: Params, cfg: SuiteConfig) -> Cases:
    """Recentring identity over all hypercube pairs; needs 2-deep weights so
    that every pair stays inside both graphs."""
    box = hypercube(params.f)
    for v in pairing_vectors(params, 2):
        mu = mu_of(v)
        for w0pt in box:
            for wprime in box:
                ok = graph.recenter_check(params, mu, w0pt, wprime)
                yield None if ok else f"mu pairings {v}: w0={w0pt.coeffs}, w'={wprime.coeffs}"


@check(when=lambda p, f: p >= 7)
def check_ext_predictor(params: Params, cfg: SuiteConfig) -> Cases:
    """Symmetry and the adjacency characterisation of the predictor."""
    box = hypercube(params.f)
    for v in pairing_vectors(params, 2):
        mu = mu_of(v)
        for w1 in box:
            for w2 in box:
                d12 = graph.ext1_dim(params, mu, w1, w2)
                d21 = graph.ext1_dim(params, mu, w2, w1)
                expect = 1 if graph.adjacent(w1, w2) else 0
                if not (d12 == d21 == expect and d12 <= 1):
                    yield f"mu pairings {v}: {w1.coeffs} vs {w2.coeffs}"
                yield None if w1 != w2 or d12 == 0 else f"self-extension at {w1.coeffs}"


@check(when=lambda p, f: p <= 7 and f <= 2)
def check_herzig_bijection(params: Params, cfg: SuiteConfig) -> Cases:
    """The reflection is a bijection of regular classes; round-trips hold."""
    p, f, q = params.p, params.f, params.q
    images = set()
    count = 0
    for r in itertools.product(range(p - 1), repeat=f):
        for d in range(q - 1):
            c = SerreWeightClass(r, d)
            image = lattice.herzig_reflect(params, c)
            if any(x > p - 2 for x in image.r):
                yield f"image of {c} not regular"
            if lattice.herzig_reflect_inv(params, image) != c:
                yield f"round trip failed at {c}"
            if lattice.herzig_reflect(params, lattice.herzig_reflect_inv(params, c)) != c:
                yield f"inverse round trip failed at {c}"
            images.add(image)
            count += 1
            yield None
    if len(images) != count:
        yield "reflection not injective on regular classes"


# --- weight set checks ---


@check()
def check_wq_cardinality(params: Params, cfg: SuiteConfig) -> Cases:
    # consistency tautology: the signed set determines the Weyl element, so
    # dependence on w only through it carries no extra content here
    signs_seen = {weights_mod.s_w(w): w for w in all_weyl(params.f)}
    if len(signs_seen) != 1 << params.f:
        yield "signed sets do not separate Weyl elements"
    for t in one_generic_params(params):
        try:
            wq = weights_mod.w_question(t)
        except CardinalityError as exc:
            yield f"{t.mu.pairings()} w={t.w.flags}: {exc}"
        yield None if len(wq) == 1 << params.f else f"{t.mu.pairings()} w={t.w.flags}"


@check()
def check_wq_genericity(params: Params, cfg: SuiteConfig) -> Cases:
    """Every predicted weight has a generic representative after the eta
    shift; holds on the pair-generic sweep.  The row is left empty where no
    parameter is pair-generic, as at p=5 f=3 (f = 3 is tested from p=7 on)."""
    e = eta(params.f)
    for t in pair_generic_params(params):
        for c in weights_mod.w_question(t):
            rep = lattice.restricted_lift(params, c)
            if not lattice.is_generic_char(params, rep + e):
                yield f"{t.mu.pairings()} w={t.w.flags}: class {c}"
        yield None


@check()
def check_jh_roundtrip(params: Params, cfg: SuiteConfig) -> Cases:
    """Reflection round-trip between the reduction constituents and the
    predicted set; constituents stay regular (0-deep)."""
    for t in one_generic_params(params):
        tag = f"{t.mu.pairings()} w={t.w.flags}"
        wq = weights_mod.w_question(t)
        jh = weights_mod.jh_dl_reduction(t)
        if len(jh) != 1 << params.f:
            yield f"{tag}: size"
        back = tuple(sorted(lattice.herzig_reflect(params, c) for c in jh))
        if back != wq:
            yield f"{tag}: round trip"
        regular = all(x <= params.p - 2 for c in jh for x in c.r)
        yield None if regular else f"{tag}: not regular"


@check()
def check_presentations_valid(params: Params, cfg: SuiteConfig) -> Cases:
    for t in feasible_generic_params(params):
        tag = f"{t.mu.pairings()} w={t.w.flags}"
        try:
            pres = weights_mod.presentations(t)
        except PresentationError as exc:
            yield f"{tag}: {exc}"
        if len(pres) != 1 << params.f:
            yield f"{tag}: count"
        if len({p.sigma for p in pres}) != 1 << params.f:
            yield f"{tag}: sigma repeat"
        base = pres[0]
        if base.lam != t.mu or base.w_sigma != t.w:
            yield f"{tag}: empty label"
        strict = weights_mod.is_one_generic_pair(t)
        target = weights_mod.w_question(t)
        for p in pres:
            cand = weights_mod.TameParam(p.w_sigma, p.lam, params)
            # strict pair genericity means each presentation is itself generic
            if weights_mod.w_question(cand) != target or (
                strict and not weights_mod.is_one_generic(cand)
            ):
                yield f"{tag}: label {p.label}"
        yield None


# --- envelope checks ---


@check()
def check_envelope_dimensions(params: Params, cfg: SuiteConfig) -> Cases:
    """Total dimension (2p)^f, and the per-coordinate factor dimensions
    m_i, 2(p - m_i), m_i with the depth-one piece of size 2p - m_i."""
    p, f = params.p, params.f
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        rep = envelope.graded_pieces(params, mu)
        total = sum(rep.dims.values())
        if total != (2 * p) ** f:
            yield f"pairings {v}: total {total}"
        dim_of = {
            J: lattice.dim_serre(c)
            for entries in rep.by_index.values()
            for J, c in entries
        }
        side = (2 * p) ** (f - 1)
        for i in range(f):
            by_count = {0: 0, 1: 0, 2: 0}
            for J, d in dim_of.items():
                by_count[envelope.k_of(J).k[i]] += d
            m = v[i]
            expected = {0: m * side, 1: 2 * (p - m) * side, 2: m * side}
            if by_count != expected:
                yield f"pairings {v}: coordinate {i} {by_count}"
            fil1 = by_count[1] + by_count[2]
            if fil1 != (2 * p - m) * side:
                yield f"pairings {v}: Fil1 at {i} is {fil1}"
        yield None


@check()
def check_graded_multiplicity_free(params: Params, cfg: SuiteConfig) -> Cases:
    """No class collisions within an index, nor among the successors of an
    index at the next level."""
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        try:
            rep = envelope.graded_pieces(params, mu)
        except MultiplicityError as exc:
            yield f"pairings {v}: {exc}"
        class_of = {J: c for entries in rep.by_index.values() for J, c in entries}
        index_of = {J: envelope.k_of(J) for J in class_of}
        for k in rep.by_index:
            succ = [
                (J, c)
                for J, c in class_of.items()
                if k.leq(index_of[J]) and index_of[J].total() == k.total() + 1
            ]
            seen = {}
            for J, c in succ:
                if c in seen:
                    yield f"pairings {v}: k={k.k}, {seen[c]} and {J}"
                seen[c] = J
        counts = Counter(index_of.values())
        for k, n in counts.items():
            if n != 2 ** sum(1 for x in k.k if x == 1):
                yield f"pairings {v}: count at {k.k} is {n}"
        yield None


@check()
def check_sigma_iff_omega(params: Params, cfg: SuiteConfig) -> Cases:
    """Constituent classes agree exactly when their lattice points agree."""
    labels = envelope.all_jsets(params.f)
    omega = {J: J.omega() for J in labels}
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        cls = {J: envelope.sigma_label(params, mu, J) for J in labels}
        for J1, J2 in itertools.combinations(labels, 2):
            same = (cls[J1] == cls[J2]) == (omega[J1] == omega[J2])
            yield None if same else f"pairings {v}: {J1} vs {J2}"


@check()
def check_tensor_translate(params: Params, cfg: SuiteConfig) -> Cases:
    p, f = params.p, params.f
    for r in itertools.product(range(1, p - 1), repeat=f):
        c = SerreWeightClass(r, 0)
        for i in range(f):
            up, down = envelope.tensor_translate(params, c, i)
            if up == down:
                yield f"r={r}, i={i}: outputs agree"
            if up.r[i] != r[i] + 1 or down.r[i] != r[i] - 1:
                yield f"r={r}, i={i}: wrong shifts"
            if lattice.dim_serre(up) + lattice.dim_serre(down) != 2 * lattice.dim_serre(c):
                yield f"r={r}, i={i}: dimension sum"
            yield None


@check()
def check_extension_witnesses(params: Params, cfg: SuiteConfig) -> Cases:
    """Every label cover admits an extension witness wherever the genericity
    precondition holds; depth-boundary pairs are skipped."""
    labels = envelope.all_jsets(params.f)
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        for J in labels:
            for Jp in J.covers():
                try:
                    wit = envelope.extension_witness(params, mu, J, Jp)
                except PreconditionViolation:
                    continue
                if wit.ext1 != 1:
                    yield f"pairings {v}: {J} < {Jp}"
                if not (wit.k.leq(wit.kp) and wit.kp.total() == wit.k.total() + 1):
                    yield f"pairings {v}: indices {wit.k}, {wit.kp}"
                if J not in dict(wit.lower) or Jp not in dict(wit.upper):
                    yield f"pairings {v}: labels missing"
                yield None


@check()
def check_vbar_layers(params: Params, cfg: SuiteConfig) -> Cases:
    """Two-layer reports list exactly the covers, with distinct classes, and
    agree with the size-(|J|+1) slice of the generated submodule."""
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        for J in envelope.all_jsets(params.f):
            rep = envelope.vbar_layers(params, mu, J)
            got = tuple(Jp for Jp, _ in rep.layer1)
            if got != J.covers():
                yield f"pairings {v}: {J} covers"
            if len(got) != 2 * params.f - J.size():
                yield f"pairings {v}: {J} cover count"
            classes = [c for _, c in rep.layer1]
            if len(set(classes)) != len(classes):
                yield f"pairings {v}: {J} class repeat"
            sub = envelope.v_submodule(params, mu, J)
            slice_labels = tuple(
                sorted(Jp for Jp in sub.jh if Jp.size() == J.size() + 1)
            )
            yield None if slice_labels == got else f"pairings {v}: {J} submodule slice"


@check()
def check_submodule_lattice(params: Params, cfg: SuiteConfig) -> Cases:
    """Generated submodules are ordered by reverse inclusion of labels: the
    constituents generated by a larger label are among those of a smaller."""
    labels = envelope.all_jsets(params.f)
    v = next(iter(pairing_vectors(params, 1)))
    mu = mu_of(v)
    jh = {J: envelope.v_submodule(params, mu, J).jh for J in labels}
    for J1 in labels:
        for J2 in labels:
            if J1.issubset(J2) and not jh[J2] <= jh[J1]:
                yield f"{J1} < {J2}: containment"
        yield None


@functools.cache
def _antichains(f: int) -> tuple[frozenset, ...]:
    points = [envelope.MultiIndex(k) for k in itertools.product((0, 1, 2), repeat=f)]
    out = [frozenset()]
    for subset_bits in range(1, 1 << len(points)):
        chosen = [points[i] for i in range(len(points)) if subset_bits >> i & 1]
        if all(
            not (a != b and a.leq(b)) for a in chosen for b in chosen
        ):
            out.append(frozenset(chosen))
    return tuple(out)


def _min_prune(indices) -> frozenset:
    return frozenset(
        k for k in indices if not any(o != k and o.leq(k) for o in indices)
    )


@check(when=lambda p, f: f <= 3)
def check_filtration_lattice(params: Params, cfg: SuiteConfig) -> Cases:
    """Closure identity for intersections of filtration sums: exhaustive
    over antichain pairs for f <= 2, seeded samples at f = 3."""
    f = params.f
    if f <= 2:
        pool = _antichains(f)
        pairs = itertools.product(pool, pool)
    else:
        rng = _rng(cfg, params, 5)
        points = [envelope.MultiIndex(k) for k in itertools.product((0, 1, 2), repeat=f)]
        pairs = []
        for _ in range(min(cfg.cases, 10**4)):
            s1 = _min_prune(frozenset(k for k in points if rng.random() < 0.2))
            s2 = _min_prune(frozenset(k for k in points if rng.random() < 0.2))
            pairs.append((s1, s2))
    for i1, i2 in pairs:
        got = envelope.fil_index_intersect(i1, i2)
        if got != _min_prune(got):
            yield f"{sorted(i1)}, {sorted(i2)}: not an antichain"
        lhs = envelope.upward_closure(got, f)
        rhs = envelope.upward_closure(i1, f) & envelope.upward_closure(i2, f)
        yield None if lhs == rhs else f"{sorted(i1)}, {sorted(i2)}: closure mismatch"


@check()
def check_hom_span(params: Params, cfg: SuiteConfig) -> Cases:
    """Hom multiplicities count labels with equal lattice points and
    partition the 4^f labels; the base class is hit 2^f times."""
    labels = envelope.all_jsets(params.f)
    labels_at = Counter(J.omega() for J in labels)
    e = eta(params.f)
    for v in pairing_vectors(params, 1):
        mu = mu_of(v)
        cls = {J: envelope.sigma_label(params, mu, J) for J in labels}
        total = 0
        for sigma in sorted(set(cls.values())):
            count, found = envelope.hom_dim(params, mu, sigma)
            if count != labels_at[found[0].omega()]:
                yield f"pairings {v}: class {sigma}"
            total += count
        if total != 4**params.f:
            yield f"pairings {v}: total {total}"
        base, _ = envelope.hom_dim(params, mu, lattice.serre_class(params, mu - e))
        yield None if base == 1 << params.f else f"pairings {v}: base count {base}"


# --- D0 checks ---


def _block_shape(rep) -> str | None:
    f = rep.param.params.f
    for block in rep.blocks:
        if len(block.constituents) != 1 << f:
            return f"block {block.sigma}: size"
        if block.cosocle != block.sigma:
            return f"block {block.sigma}: cosocle"
        for layer in range(f + 1):
            n = sum(1 for _, _, l in block.constituents if l == layer)
            if n != math.comb(f, layer):
                return f"block {block.sigma}: layer {layer} count {n}"
    return None


@check()
def check_d0_multiplicity_one(params: Params, cfg: SuiteConfig) -> Cases:
    """Global multiplicity one with 4^f constituents, block shapes, cosocles
    enumerating the predicted set, and the two label-level consistency
    checks, over the feasible generic sweep."""
    for t in feasible_generic_params(params):
        tag = f"{t.mu.pairings()} w={t.w.flags}"
        try:
            rep = d0_mod.d0_full(t)
        except (MultiplicityError, PresentationError) as exc:
            yield f"{tag}: {exc}"
        if len(rep.all_constituents) != 4**params.f:
            yield f"{tag}: {len(rep.all_constituents)} constituents"
        if tuple(sorted(b.cosocle for b in rep.blocks)) != weights_mod.w_question(t):
            yield f"{tag}: cosocles"
        shape = _block_shape(rep)
        if shape:
            yield f"{tag}: {shape}"
        if not d0_mod.radical_disjointness_check(rep):
            yield f"{tag}: radical disjointness"
        if not d0_mod.upperbound_consistency(rep):
            yield f"{tag}: upper bound consistency"
        yield None


@check(when=lambda p, f: f <= 2)
def check_d0_presentation_independence(params: Params, cfg: SuiteConfig) -> Cases:
    """Recomputing the blocks from any recentred presentation yields the
    same cosocle-to-constituents map; pairwise at f <= 2."""
    for t in feasible_generic_params(params):
        rep = d0_mod.d0_full(t)
        base = {
            b.cosocle: frozenset(c for _, c, _ in b.constituents) for b in rep.blocks
        }
        for pres in weights_mod.presentations(t):
            other = weights_mod.TameParam(pres.w_sigma, pres.lam, params)
            if not weights_mod.is_one_generic(other):
                # an all-2 style presentation is not an admissible input
                continue
            rep2 = d0_mod.d0_full(other)
            alt = {
                b.cosocle: frozenset(c for _, c, _ in b.constituents)
                for b in rep2.blocks
            }
            if alt != base:
                yield f"{t.mu.pairings()} w={t.w.flags}: label {pres.label}"
        yield None


@check()
def check_d0_central_twist(params: Params, cfg: SuiteConfig) -> Cases:
    """Shifting mu by a central character twists every constituent residue
    uniformly and preserves everything else."""
    shift = lattice.central_shift_vector((1,) + (0,) * (params.f - 1))
    for t in feasible_generic_params(params):
        tag = f"{t.mu.pairings()} w={t.w.flags}"
        rep = d0_mod.d0_full(t)
        twisted = weights_mod.TameParam(t.w, t.mu + shift, params)
        rep2 = d0_mod.d0_full(twisted)
        for b1, b2 in zip(rep.blocks, rep2.blocks):
            for (j1, c1, l1), (j2, c2, l2) in zip(b1.constituents, b2.constituents):
                if j1 != j2 or l1 != l2 or c1.r != c2.r:
                    yield f"{tag}: labels moved"
                if (c2.d - c1.d) % (params.q - 1) != 1:
                    yield f"{tag}: residue shift at {j1}"
        yield None


def run_suite(cfg: SuiteConfig) -> list[SuiteOutcome]:
    """Run every check over the configuration grid; outcomes come back in
    registry order, then (p, f) order."""
    out: list[SuiteOutcome] = []
    for _name, fn in CHECKS:
        for p in cfg.p_list:
            for f in cfg.f_list:
                out.extend(fn(Params(p, f), cfg))
    return out


def format_outcomes(outcomes: list[SuiteOutcome]) -> str:
    name_w = max([len(o.name) for o in outcomes] + [len("check")])
    conf_w = max([len(o.config) for o in outcomes] + [len("config")])
    lines = [f"{'check'.ljust(name_w)}  {'config'.ljust(conf_w)}  status  counterexample"]
    for o in outcomes:
        ce = o.counterexample or "-"
        lines.append(f"{o.name.ljust(name_w)}  {o.config.ljust(conf_w)}  {o.status:6}  {ce}")
    failed = sum(1 for o in outcomes if not o.passed)
    if failed:
        lines.append(f"{failed} of {len(outcomes)} checks FAILED")
    else:
        lines.append(f"all {len(outcomes)} checks passed")
    return "\n".join(lines) + "\n"
