import itertools
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from swlab.errors import NotRestricted, PreconditionViolation
from swlab.graph import (
    adjacent,
    decompose,
    embed_graph_point,
    enumerate_graph,
    ext1_dim,
    graph_dot,
    graph_json,
    in_graph,
    omega_element,
    recenter_check,
    t_mu,
    t_mu_raw,
)
from swlab.lattice import (
    ExtAffineElement,
    LambdaWElement,
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
    central_residue,
    central_shift_vector,
    eta,
    in_p_minus_pi_central,
    serre_class,
    stabilizes_base_alcove,
)

P71 = Params(7, 1)
P51 = Params(5, 1)
MU4 = Weight(((4, 0),))


def lam(*coeffs):
    return LambdaWElement(tuple(coeffs))


def test_decompose():
    assert decompose(lam(0)).J == 0
    assert decompose(lam(0)).nu == lam(0)
    dec = decompose(lam(-1))
    assert dec.J == 1 and dec.nu == lam(-2)
    dec = decompose(lam(3, -2))
    assert dec.J == 1 and dec.nu == lam(2, -2)


@given(st.tuples(st.integers(-9, 9), st.integers(-9, 9), st.integers(-9, 9)))
def test_decompose_reconstructs(coeffs):
    w = LambdaWElement(coeffs)
    dec = decompose(w)
    omega = tuple(1 if dec.J >> i & 1 else 0 for i in range(3))
    assert tuple(a + b for a, b in zip(omega, dec.nu.coeffs)) == coeffs
    assert all(c % 2 == 0 for c in dec.nu.coeffs)


def test_embedding_splits_by_decomposition():
    # coefficient -1 = omega + (-alpha): (1,0) + (-1,1) = (0,1)
    assert embed_graph_point(lam(-1)) == Weight(((0, 1),))
    # even coefficients embed with trivial central character
    assert embed_graph_point(lam(2)) == Weight(((1, -1),))
    assert embed_graph_point(lam(1)) == Weight(((1, 0),))


def test_omega_element_f1():
    assert omega_element(P71, 0) == ExtAffineElement.identity(1)
    g = omega_element(P71, 1)
    assert g == ExtAffineElement(Weight(((0, -1),)), WeylElement((True,)))


def searched_omega_element(params, J):
    """The base-alcove stabilisers among the 2^f candidates
    w . t_{-pi^-1 omega_J}, found by search: the reference form."""
    f = params.f
    shifted = LambdaWElement(tuple(J >> i & 1 for i in range(f))).frobenius_inverse()
    nu = -embed_graph_point(shifted)
    cands = [
        ExtAffineElement.from_right_translation(WeylElement(flags), nu)
        for flags in itertools.product((False, True), repeat=f)
    ]
    return [g for g in cands if stabilizes_base_alcove(params, g)]


def test_omega_element_closed_form():
    masks = 0
    for p in (5, 7, 11, 13):
        for f in range(1, 5):
            params = Params(p, f)
            for mask in range(1 << f):
                assert searched_omega_element(params, mask) == [omega_element(params, mask)]
                masks += 1
    assert masks == 120


def test_t_mu_raw_values():
    assert t_mu_raw(P71, MU4, lam(0)) == MU4 - eta(1)
    assert t_mu_raw(P71, MU4, lam(1)) == Weight(((-1, -2),))
    assert t_mu_raw(P71, MU4, lam(-1)) == Weight(((0, -3),))


def test_t_mu_values():
    assert t_mu(P71, MU4, lam(0)) == SerreWeightClass((3,), 0)
    assert t_mu(P71, MU4, lam(1)) == SerreWeightClass((1,), 4)
    assert t_mu(P71, MU4, lam(-1)) == SerreWeightClass((3,), 3)


def test_t_mu_f2_fixture():
    # frozen from the closed-form pairing evaluation at p=5, pairings (3,3)
    params = Params(5, 2)
    mu = Weight(((3, 0), (3, 0)))
    assert t_mu(params, mu, lam(1, 0)) == SerreWeightClass((3, 1), 14)


def test_in_graph():
    assert in_graph(P71, MU4, lam(0))
    assert in_graph(P71, MU4, lam(1))
    mu = Weight(((3, 0),))
    members = [c for c in range(-4, 5) if in_graph(P51, mu, lam(c))]
    assert members == [-2, -1, 0, 1]
    assert not in_graph(P51, mu, lam(3))


def test_t_mu_boundary_raises():
    # depth-1 boundary: pairing vector (2,), coefficient -2 lands at pairing -1
    mu = Weight(((2, 0),))
    assert in_graph(P51, mu, lam(-2))
    with pytest.raises(NotRestricted):
        t_mu(P51, mu, lam(-2))


def composed_t_mu_raw(params, mu, w):
    """t_mu_raw as composed Weight arithmetic through decompose and
    embed_graph_point, the reference form."""
    g = omega_element(params, decompose(w).J)
    e = eta(params.f)
    base = mu + embed_graph_point(w) - e
    return g.translation.scale(params.p) + g.weyl.act(base + e) - e


def _check_against_composed(params, mu, w):
    """Compare t_mu_raw, in_graph and t_mu with the reference; returns
    whether the point is a graph member whose class construction fails."""
    ref = composed_t_mu_raw(params, mu, w)
    assert t_mu_raw(params, mu, w) == ref
    pairings = ref.pairings()
    assert in_graph(params, mu, w) == all(-1 <= m < params.p - 1 for m in pairings)
    if all(0 <= m <= params.p - 1 for m in pairings):
        assert t_mu(params, mu, w) == serre_class(params, ref)
        return False
    with pytest.raises(NotRestricted):
        t_mu(params, mu, w)
    return in_graph(params, mu, w)


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_t_mu_raw_matches_composed_formula(p):
    rng = random.Random(1000 + p)
    boundary = 0
    for f in range(1, 5):
        params = Params(p, f)
        for _ in range(150):
            mu = Weight(
                tuple(
                    (m + b, b)
                    for m, b in ((rng.randint(1, p - 1), rng.randint(-3, 3)) for _ in range(f))
                )
            )
            w = LambdaWElement(tuple(rng.randint(-7, 7) for _ in range(f)))
            boundary += _check_against_composed(params, mu, w)
    if p <= 11:
        # the sample reaches members whose image has a pairing of -1
        assert boundary > 0


def test_t_mu_raw_negative_odd_coefficients():
    # odd negative coefficients split as 1 + 2m with m = (c - 1) // 2 < 0
    for f in (1, 2, 3):
        params = Params(7, f)
        mu = Weight(tuple((4 + i, i) for i in range(f)))
        for coeffs in itertools.product((-7, -5, -3, -1, 1), repeat=f):
            _check_against_composed(params, mu, LambdaWElement(coeffs))


def test_t_mu_not_restricted_boundary():
    # at p = 5 the images reach pairing -1 (a member, class fails), 4 = p - 1
    # (restricted, not a member) and 5 = p (class fails, not a member)
    seen = set()
    for m in range(1, 5):
        mu = Weight(((m, 0),))
        for c in range(-6, 7):
            _check_against_composed(P51, mu, lam(c))
            seen.add(composed_t_mu_raw(P51, mu, lam(c)).pairings()[0])
    assert {-1, 4, 5} <= seen


def test_adjacent():
    assert adjacent(lam(0, 0), lam(1, 0))
    assert not adjacent(lam(0, 0), lam(1, 1))
    assert not adjacent(lam(1, 0), lam(1, 0))
    assert adjacent(lam(2), lam(3))
    assert not adjacent(lam(0), lam(2))


def test_ext1_dim():
    mu = Weight(((4, 0), (3, 0)))
    params = Params(7, 2)
    assert ext1_dim(params, mu, lam(0, 0), lam(0, 1)) == 1
    assert ext1_dim(params, mu, lam(0, 0), lam(1, 1)) == 0
    assert ext1_dim(params, mu, lam(0, 0), lam(0, 0)) == 0
    # distance two, at a weight deep enough for both images to stay generic
    assert ext1_dim(P71, Weight(((3, 0),)), lam(0), lam(2)) == 0


def test_ext1_dim_precondition():
    # pairing 2 at the base: the image + eta of the minus point is not generic
    mu = Weight(((2, 0),))
    with pytest.raises(PreconditionViolation):
        ext1_dim(P71, mu, lam(0), lam(-1))
    with pytest.raises(PreconditionViolation):
        ext1_dim(P71, MU4, lam(4), lam(3))


def test_recenter_check():
    assert recenter_check(P71, MU4, lam(0), lam(1))
    assert recenter_check(P71, MU4, lam(1), lam(1))
    mu = Weight(((4, 0), (4, 0)))
    params = Params(7, 2)
    for a in itertools.product((-1, 0, 1), repeat=2):
        for b in itertools.product((-1, 0, 1), repeat=2):
            assert recenter_check(params, mu, LambdaWElement(a), LambdaWElement(b))


def test_enumerate_graph_radius0():
    enum = enumerate_graph(P71, MU4, 0)
    assert len(enum.vertices) == 1
    assert enum.vertices[0][1] == SerreWeightClass((3,), 0)
    assert enum.edges == ()


def test_enumerate_graph_radius1():
    enum = enumerate_graph(P71, MU4, 1)
    assert [w.coeffs for w, _ in enum.vertices] == [(-1,), (0,), (1,)]
    assert enum.edges == ((0, 1), (1, 2))
    classes = [c for _, c in enum.vertices]
    assert len(set(classes)) == 3


def test_enumerate_graph_boundary():
    enum = enumerate_graph(P51, Weight(((2, 0),)), 2)
    assert (-2,) in [w.coeffs for w in enum.boundary]
    assert all(w.coeffs != (-2,) for w, _ in enum.vertices)


def test_enumerate_graph_rejects_negative_radius():
    with pytest.raises(PreconditionViolation):
        enumerate_graph(P71, MU4, -1)


def test_enumerate_graph_requires_dominant():
    with pytest.raises(PreconditionViolation):
        enumerate_graph(P71, Weight(((0, 0),)), 1)


def test_central_residue_kernel_and_boundary():
    # the residue is unchanged by a central shift exactly when the shift lies
    # in (p - pi)X0(T)
    rng = random.Random(2016)
    congruent = 0
    for p in (5, 7):
        for f in (1, 2, 3):
            params = Params(p, f)
            for _ in range(200):
                w = Weight(tuple((rng.randint(-9, 9), rng.randint(-9, 9)) for _ in range(f)))
                if rng.random() < 0.5:
                    m = [rng.randint(-3, 3) for _ in range(f)]
                    c = tuple(p * m[i] - m[(i - 1) % f] for i in range(f))
                else:
                    c = tuple(rng.randint(-p, p) for _ in range(f))
                shifted = w + central_shift_vector(c)
                same = central_residue(params, shifted) == central_residue(params, w)
                assert same == in_p_minus_pi_central(params, c), (p, f, w, c)
                congruent += same
    assert 0 < congruent < 1200
    # the depth-1 boundary point has pairing -1, yet its raw image still gets
    # the complete invariant (pairings, central residue)
    x = t_mu_raw(P51, Weight(((2, 0),)), lam(-2))
    assert x.pairings() == (-1,)
    assert 0 <= central_residue(P51, x) < 4


def test_graph_json_and_dot():
    enum = enumerate_graph(P71, MU4, 1)
    blob = graph_json(enum)
    assert set(blob) == {"vertices", "edges", "boundary"}
    assert blob["vertices"][0] == {"coeffs": [-1], "r": [3], "d": 3}
    assert blob["edges"] == [[0, 1], [1, 2]]
    dot = graph_dot(enum)
    assert dot.startswith("graph extension_graph {")
    assert 'v0 [label="-1 | r=3, d=3"];' in dot
    assert "v0 -- v1;" in dot
