import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swlab.errors import NotRegular, NotRestricted, PreconditionViolation
from swlab.lattice import (
    ExtAffineElement,
    LambdaWElement,
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
    central_shift_vector,
    dim_serre,
    eta,
    herzig_reflect,
    herzig_reflect_inv,
    in_p_minus_pi_central,
    is_deep,
    is_generic_char,
    is_regular,
    p_dot,
    require_one_deep,
    restricted_lift,
    serre_class,
    stabilizes_base_alcove,
    weight_from_str,
    weight_to_str,
    weyl_from_str,
    weyl_to_str,
)

P71 = Params(7, 1)
P51 = Params(5, 1)
P52 = Params(5, 2)


def weights_st(f, bound=8):
    pair = st.tuples(st.integers(-bound, bound), st.integers(-bound, bound))
    return st.tuples(*[pair] * f).map(Weight)


def ext_st(f):
    flags = st.tuples(*[st.booleans()] * f)
    return st.tuples(weights_st(f, 4), flags).map(
        lambda t: ExtAffineElement(t[0], WeylElement(t[1]))
    )


def test_params_validation():
    with pytest.raises(PreconditionViolation):
        Params(4, 1)
    with pytest.raises(PreconditionViolation):
        Params(3, 1)
    with pytest.raises(PreconditionViolation):
        Params(7, 0)
    assert Params(7, 2).q == 49


def test_pairing():
    assert all(eta(3).pairing(i) == 1 for i in range(3))
    assert Weight(((4, 0),)).pairing(0) == 4
    assert Weight(((0, 0),)).pairing(0) == 0
    with pytest.raises(IndexError):
        Weight(((4, 0),)).pairing(1)


def test_frobenius():
    w = Weight(((2, 5),))
    assert w.frobenius() == w
    w2 = Weight(((1, 0), (0, 0)))
    assert w2.frobenius() == Weight(((0, 0), (1, 0)))


@given(weights_st(3))
def test_frobenius_order_three(w):
    out = w
    for _ in range(3):
        out = out.frobenius()
    assert out == w
    assert w.frobenius().frobenius_inverse() == w


def test_p_dot_fixture():
    # direct evaluation: 7*(0,-1) + swap((4,0)+(1,0)) - (1,0)
    g = ExtAffineElement(Weight(((0, -1),)), WeylElement((True,)))
    swapped = (5, 0)[::-1]
    expected = (0 + swapped[0] - 1, -7 + swapped[1] - 0)
    assert expected == (-1, -2)
    assert p_dot(P71, g, Weight(((4, 0),))) == Weight((expected,))


def test_p_dot_identity():
    w = Weight(((3, -2), (0, 5)))
    assert p_dot(Params(7, 2), ExtAffineElement.identity(2), w) == w


@given(ext_st(2), ext_st(2), weights_st(2))
@settings(max_examples=200)
def test_p_dot_left_action(g, h, x):
    params = Params(7, 2)
    assert p_dot(params, g * h, x) == p_dot(params, g, p_dot(params, h, x))


@given(ext_st(2), ext_st(2), ext_st(2))
@settings(max_examples=200)
def test_ext_affine_group_law(g, h, k):
    assert (g * h) * k == g * (h * k)
    ident = ExtAffineElement.identity(2)
    assert g * g.inverse() == ident
    assert g.inverse() * g == ident


def _swap_at(flags, pairs):
    return tuple((b, a) if s else (a, b) for s, (a, b) in zip(flags, pairs))


def _add(u, v):
    return tuple((a + c, b + d) for (a, b), (c, d) in zip(u, v))


def _rand_plain(rng, f):
    """A group element as plain tuples: (translation pairs, Weyl flags)."""
    translation = tuple((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(f))
    return translation, tuple(rng.random() < 0.5 for _ in range(f))


@pytest.mark.parametrize("f", [1, 2, 3, 4])
def test_group_law_matches_plain_tuple_formulas(f):
    """Reference forms on plain tuples: (t_a v)(t_b w) = t_{a + v(b)} (vw),
    (t_a v)^-1 = t_{-v(a)} v, and t_a v sends x to a + v(x)."""
    rng = random.Random(f)
    for _ in range(300):
        (a, v), (b, w) = _rand_plain(rng, f), _rand_plain(rng, f)
        x = tuple((rng.randint(-6, 6), rng.randint(-6, 6)) for _ in range(f))
        g = ExtAffineElement(Weight(a), WeylElement(v))
        h = ExtAffineElement(Weight(b), WeylElement(w))
        gh = g * h
        assert gh.translation.coords == _add(a, _swap_at(v, b))
        assert gh.weyl.flags == tuple(s != t for s, t in zip(v, w))
        inv = g.inverse()
        assert inv.translation.coords == _swap_at(v, tuple((-c, -d) for c, d in a))
        assert inv.weyl.flags == v
        assert g.act(Weight(x)).coords == _add(a, _swap_at(v, x))
        assert WeylElement(v).act(Weight(x)).coords == _swap_at(v, x)
        assert (Weight(a) + Weight(x)).coords == _add(a, x)
        assert (Weight(a) - Weight(x)).coords == tuple(
            (c - e, d - k) for (c, d), (e, k) in zip(a, x)
        )
        assert (-Weight(a)).coords == tuple((-c, -d) for c, d in a)


def composed_p_dot(params, g, w):
    """The p-dot action as composed Weight arithmetic, the reference form."""
    e = eta(w.f)
    return g.translation.scale(params.p) + g.weyl.act(w + e) - e


@pytest.mark.parametrize("p", [5, 7, 11, 101])
def test_p_dot_matches_composed_formula(p):
    rng = random.Random(p)
    for f in range(1, 5):
        params = Params(p, f)
        for _ in range(200):
            g = ExtAffineElement(
                Weight(tuple((rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(f))),
                WeylElement(tuple(rng.random() < 0.5 for _ in range(f))),
            )
            bound = 3 * p
            w = Weight(tuple((rng.randint(-bound, bound), rng.randint(-bound, bound)) for _ in range(f)))
            assert p_dot(params, g, w) == composed_p_dot(params, g, w)


def test_from_right_translation():
    w0 = WeylElement((True,))
    g = ExtAffineElement.from_right_translation(w0, Weight(((-1, 0),)))
    assert g == ExtAffineElement(Weight(((0, -1),)), w0)


def test_is_deep():
    assert is_deep(P71, Weight(((3, 0),)), 1)
    assert is_deep(P71, Weight(((1, 0),)), 1)
    assert not is_deep(P71, Weight(((1, 0),)), 2)
    # shifted pairing 5 is on a wall mod 5
    assert not is_deep(P52, Weight(((4, 0), (2, 0))), 0)
    assert is_deep(P71, Weight(((1, 0),)), -1)


def test_is_deep_below_zero_is_always_true():
    # every residue y mod p lies in (n, p - n) once n < 0, walls included
    rng = random.Random(20161)
    for p, f in ((5, 1), (7, 2), (11, 3), (5, 4)):
        params = Params(p, f)
        for _ in range(200):
            w = Weight(tuple((rng.randint(-3 * p, 3 * p), rng.randint(-p, p)) for _ in range(f)))
            assert all(is_deep(params, w, n) for n in (-1, -2, -p, -p - 3))
    assert is_deep(P52, Weight(((4, 0), (-1, 0))), -1)  # both shifted pairings on a wall


def _require_one_deep_oracle(params, mu):
    """The composed form: build mu - eta and ask is_deep, with the message
    require_one_deep has always raised."""
    if not is_deep(params, mu - eta(params.f), 1):
        raise PreconditionViolation(
            f"mu - eta must be 1-deep, pairings of mu are {mu.pairings()}"
        )


def _outcome(check, params, mu):
    try:
        check(params, mu)
    except Exception as exc:  # the type and the message are both pinned
        return type(exc), str(exc)
    return None


def test_require_one_deep_matches_composed_oracle():
    """require_one_deep tests mu.pairings() directly, since the pairings of
    (mu - eta) + eta are those of mu; the verdict, the exception type and the
    message all match the oracle, on pairings outside [0, p], negative ones
    and seeded central shifts, at f <= 4."""
    rng = random.Random(20161)
    seen = {None: 0, "raised": 0}
    for p in (5, 7, 11):
        for f in (1, 2, 3, 4):
            params = Params(p, f)
            box = range(-p - 2, 2 * p + 3)
            if f <= 2:
                vectors = list(itertools.product(box, repeat=f))
            else:
                vectors = [tuple(rng.choice(box) for _ in range(f)) for _ in range(400)]
            for pairings in vectors:
                shifts = [rng.randint(-p, p) for _ in range(f)]
                mu = Weight(tuple((m + b, b) for m, b in zip(pairings, shifts)))
                got = _outcome(require_one_deep, params, mu)
                assert got == _outcome(_require_one_deep_oracle, params, mu), (params, mu)
                seen[None if got is None else "raised"] += 1
    assert seen[None] > 0 and seen["raised"] > 0


def test_is_generic_char():
    assert is_generic_char(P71, Weight(((4, 0),)))
    assert is_generic_char(P51, Weight(((2, 0),)))
    assert not is_generic_char(P51, Weight(((4, 0),)))
    assert not is_generic_char(P71, Weight(((1, 0),)))


def test_is_regular():
    assert is_regular(P71, Weight(((5, 0),)))
    assert not is_regular(P71, Weight(((6, 0),)))
    assert is_regular(P71, Weight(((0, 0),)))
    assert not is_regular(P52, Weight(((4, 0), (2, 0))))


def test_serre_class_values():
    assert serre_class(P71, Weight(((3, 0),))) == SerreWeightClass((3,), 0)
    # (-1,-2) has pairing 1, hence is p-restricted despite negative entries;
    # two routes to its class agree: direct, and via the shift by (6,6)
    assert serre_class(P71, Weight(((-1, -2),))) == SerreWeightClass((1,), 4)
    assert serre_class(P71, Weight(((5, 4),))) == SerreWeightClass((1,), 4)
    assert serre_class(P52, Weight(((3, 1), (2, 0)))) == SerreWeightClass((2, 2), 1)
    for bad in (Weight(((-1, 0),)), Weight(((7, 0),))):
        with pytest.raises(NotRestricted):
            serre_class(P71, bad)


@given(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.tuples(st.integers(-6, 6), st.integers(-6, 6)),
    st.tuples(st.integers(-3, 3), st.integers(-3, 3)),
)
def test_serre_class_orbit_invariance(r, b, m):
    w = Weight(tuple((ri + bi, bi) for ri, bi in zip(r, b)))
    shift = tuple(5 * m[i] - m[(i - 1) % 2] for i in range(2))
    w2 = w + central_shift_vector(shift)
    assert serre_class(P52, w) == serre_class(P52, w2)


def test_serre_class_injective_small():
    seen = {}
    for r in itertools.product(range(5), repeat=2):
        for b in itertools.product(range(5), repeat=2):
            w = Weight(tuple((ri + bi, bi) for ri, bi in zip(r, b)))
            c = serre_class(P52, w)
            if c in seen:
                diff = tuple(x - y for x, y in zip(b, seen[c]))
                assert in_p_minus_pi_central(P52, diff)
            else:
                seen[c] = b


def test_in_p_minus_pi_central():
    assert in_p_minus_pi_central(P71, (6,))
    assert not in_p_minus_pi_central(P71, (5,))
    # (p - pi) applied to m = (1, 0): (5*1 - 0, 0 - 1)
    assert in_p_minus_pi_central(P52, (5, -1))
    assert not in_p_minus_pi_central(P52, (1, 0))


@pytest.mark.parametrize("p", [5, 7, 11])
def test_in_p_minus_pi_central_matches_sum_of_powers(p):
    rng = random.Random(p)
    for f in range(1, 5):
        params, q = Params(p, f), p**f
        seen = set()
        for _ in range(200):
            if rng.random() < 0.5:
                # (p - pi)m lies in the sublattice by construction
                m = [rng.randint(-9, 9) for _ in range(f)]
                c = tuple(p * m[i] - m[(i - 1) % f] for i in range(f))
            else:
                c = tuple(rng.randint(-3 * q, 3 * q) for _ in range(f))
            expected = all(
                sum(p ** (f - 1 - j) * c[(i - j) % f] for j in range(f)) % (q - 1) == 0
                for i in range(f)
            )
            assert in_p_minus_pi_central(params, c) == expected, (p, f, c)
            seen.add(expected)
        assert seen == {True, False}


def test_dim_serre():
    assert dim_serre(SerreWeightClass((0, 0), 0)) == 1
    assert dim_serre(SerreWeightClass((6,), 0)) == 7
    assert dim_serre(SerreWeightClass((3,), 5)) == 4


def test_herzig_reflect_fixture():
    # oracle: p_dot of w0.t_{-eta} at the lift (3,0) gives (-1,-3), class (2, 3)
    g = ExtAffineElement(Weight(((0, -1),)), WeylElement((True,)))
    image = p_dot(P71, g, Weight(((3, 0),)))
    assert image == Weight(((-1, -3),))
    frozen = serre_class(P71, image)
    assert frozen == SerreWeightClass((2,), 3)
    assert herzig_reflect(P71, SerreWeightClass((3,), 0)) == frozen


def test_herzig_round_trip_and_bijection():
    classes = [
        SerreWeightClass((r,), d) for r in range(6) for d in range(6)
    ]
    images = set()
    for c in classes:
        image = herzig_reflect(P71, c)
        assert herzig_reflect_inv(P71, image) == c
        assert herzig_reflect(P71, herzig_reflect_inv(P71, c)) == c
        images.add(image)
    assert len(images) == len(classes)


def test_herzig_rejects_irregular():
    with pytest.raises(NotRegular):
        herzig_reflect(P71, SerreWeightClass((6,), 0))
    with pytest.raises(NotRegular):
        herzig_reflect_inv(P71, SerreWeightClass((6,), 0))


def test_restricted_lift():
    c = SerreWeightClass((2, 4), 11)
    lifted = restricted_lift(P52, c)
    assert serre_class(P52, lifted) == c


def test_stabilizes_base_alcove():
    assert stabilizes_base_alcove(P71, ExtAffineElement.identity(1))
    g = ExtAffineElement(Weight(((0, -1),)), WeylElement((True,)))
    assert stabilizes_base_alcove(P71, g)
    bad = ExtAffineElement(Weight(((1, 0),)), WeylElement((False,)))
    assert not stabilizes_base_alcove(P71, bad)


def test_weight_codec():
    w = weight_from_str("3,1;2,0", 2)
    assert w == Weight(((3, 1), (2, 0)))
    assert weight_to_str(w) == "3,1;2,0"
    assert weight_from_str("-4,0", 1) == Weight(((-4, 0),))
    for bad in ("4;0", "4,0;1", "a,b", "4"):
        with pytest.raises(ValueError):
            weight_from_str(bad, 1)


def test_weyl_codec():
    w = weyl_from_str("es", 2)
    assert w == WeylElement((False, True))
    assert weyl_to_str(w) == "es"
    for bad in ("e", "x", "ess"):
        with pytest.raises(ValueError):
            weyl_from_str(bad, 2)


def test_weyl_composition_is_xor():
    a = WeylElement((True, False))
    b = WeylElement((True, True))
    assert a * b == WeylElement((False, True))
    assert a.act(Weight(((1, 2), (3, 4)))) == Weight(((2, 1), (3, 4)))
    assert a.act_lambda(LambdaWElement((5, 7))) == LambdaWElement((-5, 7))
