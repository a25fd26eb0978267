import itertools
import random

import pytest

from swlab import graph, lattice, weights
from swlab.errors import PresentationError, PreconditionViolation
from swlab.lattice import (
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
    eta,
    herzig_reflect,
    is_deep,
    is_generic_char,
)
from swlab.weights import (
    TameParam,
    _recentred_pairings,
    hypercube_point,
    is_one_generic,
    is_one_generic_pair,
    jh_dl_reduction,
    presentation,
    presentations,
    presentations_feasible,
    s_w,
    w_question,
    weights_report,
)

P71 = Params(7, 1)
P72 = Params(7, 2)
MU4 = Weight(((4, 0),))
W_ID = WeylElement((False,))
W_S = WeylElement((True,))


def test_tame_param_depth_check():
    with pytest.raises(PreconditionViolation):
        TameParam(W_ID, Weight(((1, 0),)), P71)
    with pytest.raises(PreconditionViolation):
        TameParam(W_ID, Weight(((6, 0),)), P71)
    TameParam(W_ID, Weight(((2, 0),)), P71)


def test_is_one_generic():
    assert is_one_generic(TameParam(W_ID, MU4, P71))
    p52 = Params(5, 2)
    two_two = TameParam(WeylElement((False, False)), Weight(((2, 0), (2, 0))), p52)
    assert not is_one_generic(two_two)
    mixed = TameParam(WeylElement((False, False)), Weight(((2, 0), (5, 0))), P72)
    assert is_one_generic(mixed)


def presentation_weights(t):
    """The 2^f recentred weights t_mu_raw(hypercube point) + eta, one per
    hypercube label in label order: the composed oracle for the closed form
    _recentred_pairings and the two predicates that read it."""
    signs = s_w(t.w)
    e = eta(t.params.f)
    return tuple(
        graph.t_mu_raw(t.params, t.mu, hypercube_point(signs, label)) + e
        for label in range(1 << t.params.f)
    )


def _oracle_grid():
    """Every TameParam of the grid: p in {5, 7, 11, 13} at f <= 2 with
    pairings in [-p-1, 2p+1] (in [-2, p+2] at p >= 11, f = 2) and seeded
    central shifts, f = 3 at p in {5, 7, 11} and f = 4 at p in {5, 7} with
    pairings in [0, p]."""
    rng = random.Random(20161)
    grid = [(p, 1, range(-p - 1, 2 * p + 2)) for p in (5, 7, 11, 13)]
    grid += [(p, 2, range(-p - 1, 2 * p + 2)) for p in (5, 7)]
    grid += [(p, 2, range(-2, p + 3)) for p in (11, 13)]
    grid += [(p, 3, range(p + 1)) for p in (5, 7, 11)]
    grid += [(p, 4, range(p + 1)) for p in (5, 7)]
    for p, f, box in grid:
        params = Params(p, f)
        for pairings in itertools.product(box, repeat=f):
            shifts = [rng.randint(-p, p) if f <= 2 else 0 for _ in range(f)]
            mu = Weight(tuple((m + b, b) for m, b in zip(pairings, shifts)))
            try:
                TameParam(WeylElement((False,) * f), mu, params)
            except PreconditionViolation:
                continue  # mu - eta is not 1-deep, whatever w is
            for flags in itertools.product((False, True), repeat=f):
                yield TameParam(WeylElement(flags), mu, params)


def test_recentred_pairings_match_composed_oracle():
    seen = {"params": 0, "feasible": 0, "pair": 0}
    degrees = set()
    for t in _oracle_grid():
        p, f = t.params.p, t.params.f
        lams = presentation_weights(t)
        ys = tuple(l.pairings() for l in lams)
        assert _recentred_pairings(t) == ys
        e = eta(f)
        feasible = all(is_deep(t.params, l - e, 1) for l in lams)
        pair = all(is_generic_char(t.params, l) for l in lams)
        pair = pair and (2,) * f not in ys and (p - 2,) * f not in ys
        assert presentations_feasible(t) == feasible
        assert is_one_generic_pair(t) == pair
        # the docstring's ordering claim: pair genericity implies feasibility
        assert feasible or not pair
        seen["params"] += 1
        seen["feasible"] += feasible
        seen["pair"] += pair
        degrees.add(f)
    assert seen["params"] > seen["feasible"] > seen["pair"] > 0
    assert degrees == {1, 2, 3, 4}


def test_predicates_take_no_graph_images(monkeypatch):
    calls = {"t_mu_raw": 0, "p_dot": 0, "_recentred_pairings": 0}

    def spy(module, name):
        real = getattr(module, name)

        def counted(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counted)

    spy(graph, "t_mu_raw")
    spy(lattice, "p_dot")
    spy(weights, "_recentred_pairings")
    params = Params(7, 3)
    ts = [
        TameParam(WeylElement(flags), Weight(tuple((m, 0) for m in pairings)), params)
        for pairings in itertools.product(range(2, 6), repeat=3)
        for flags in itertools.product((False, True), repeat=3)
    ]
    for t in ts:
        presentations_feasible(t)  # the per-coordinate reduction: no vectors
    assert calls == {"t_mu_raw": 0, "p_dot": 0, "_recentred_pairings": 0}
    for t in ts:
        is_one_generic_pair(t)  # the all-2/all-(p-2) clause needs the vectors
    assert calls == {"t_mu_raw": 0, "p_dot": 0, "_recentred_pairings": len(ts)}
    presentation_weights(ts[-1])  # the spies do see the composed form
    assert calls == {"t_mu_raw": 8, "p_dot": 8, "_recentred_pairings": len(ts)}


# Feasible generic parameters with pairings in [2, p-2], over every w, by
# (p, f): the populations of ROADMAP item 6 and of the d0_sweep benchmark.
FEASIBLE_GENERIC_COUNTS = {
    (7, 1): 4,
    (11, 1): 12,
    (5, 2): 2,
    (7, 2): 34,
    (11, 2): 194,
    (5, 3): 6,
    (7, 3): 214,
    (11, 3): 2742,
}


@pytest.mark.parametrize("p, f", sorted(FEASIBLE_GENERIC_COUNTS))
def test_feasible_generic_counts_are_pinned(p, f):
    params = Params(p, f)
    count = 0
    for pairings in itertools.product(range(2, p - 1), repeat=f):
        mu = Weight(tuple((m, 0) for m in pairings))
        for flags in itertools.product((False, True), repeat=f):
            t = TameParam(WeylElement(flags), mu, params)
            count += is_one_generic(t) and presentations_feasible(t)
    assert count == FEASIBLE_GENERIC_COUNTS[p, f]


def test_is_one_generic_pair_counterexample():
    # pairings (2,5) are fine at mu but the (s,e) parameter recentres to a
    # weight with pairings (1,2), which is not even 1-deep
    mu = Weight(((2, 0), (5, 0)))
    bad = TameParam(WeylElement((True, False)), mu, P72)
    assert is_one_generic(bad)
    assert not is_one_generic_pair(bad)
    assert not presentations_feasible(bad)
    lams = presentation_weights(bad)
    assert (1, 2) in [l.pairings() for l in lams]
    good = TameParam(WeylElement((False, True)), mu, P72)
    assert is_one_generic_pair(good)
    assert presentations_feasible(good)


def test_feasible_but_not_pair_generic():
    # w = e at pairing 4, f = 1: the second presentation is the all-2 vector,
    # excluded by strict pair genericity but still 1-deep
    t = TameParam(W_ID, MU4, P71)
    assert is_one_generic(t)
    assert presentations_feasible(t)
    assert not is_one_generic_pair(t)


def test_s_w():
    assert s_w(WeylElement((False, False))) == (1, 1)
    assert s_w(W_S) == (-1,)
    w = WeylElement((True, False))
    flipped = s_w(WeylElement((False, True)))
    assert tuple(-x for x in s_w(w)) == flipped


def test_w_question_f1_split():
    got = w_question(TameParam(W_ID, MU4, P71))
    # classical split pair: Sym^r and Sym^(p-3-r) x det^(r+1) with r = 3
    r = 3
    expected = {
        SerreWeightClass((r,), 0),
        SerreWeightClass((7 - 3 - r,), (r + 1) % 6),
    }
    assert set(got) == expected


def test_w_question_f1_nonsplit():
    got = w_question(TameParam(W_S, MU4, P71))
    # classical companion pair: Sym^r and Sym^(p-1-r) x det^r with r = 3
    r = 3
    expected = {
        SerreWeightClass((r,), 0),
        SerreWeightClass((7 - 1 - r,), r % 6),
    }
    assert set(got) == expected


def test_w_question_cardinality():
    for w_flags in itertools.product((False, True), repeat=2):
        t = TameParam(WeylElement(w_flags), Weight(((4, 0), (3, 0))), P72)
        assert len(w_question(t)) == 4


def test_jh_dl_reduction_round_trip():
    t = TameParam(W_ID, MU4, P71)
    jh = jh_dl_reduction(t)
    assert len(jh) == 2
    assert tuple(sorted(herzig_reflect(P71, c) for c in jh)) == w_question(t)
    # principal-series shape: the partner of Sym^a det^b is Sym^(p-1-a) det^(a+b)
    (a1, d1), (a2, d2) = sorted((c.r[0], c.d) for c in jh)
    assert a2 == 7 - 1 - a1 and d2 == (a1 + d1) % 6


def test_jh_members_regular():
    t = TameParam(W_S, MU4, P71)
    for c in jh_dl_reduction(t):
        assert all(0 <= x <= 5 for x in c.r)


def test_presentations_f1():
    t = TameParam(W_S, MU4, P71)
    pres = presentations(t)
    assert len(pres) == 2
    assert pres[0].lam == MU4 and pres[0].w_sigma == W_S
    assert pres[0].sigma == SerreWeightClass((3,), 0)
    assert pres[1].lam == Weight(((1, -3),))
    assert pres[1].w_sigma == W_S
    assert pres[1].sigma == SerreWeightClass((3,), 3)
    assert len({p.sigma for p in pres}) == 2
    for p in pres:
        alt = TameParam(p.w_sigma, p.lam, P71)
        assert is_one_generic(alt)
        assert w_question(alt) == w_question(t)


def test_presentations_requires_generic():
    p52 = Params(5, 2)
    t = TameParam(WeylElement((True, True)), Weight(((3, 0), (3, 0))), p52)
    assert not is_one_generic(t)
    with pytest.raises(PreconditionViolation):
        presentations(t)


def _search_per_candidate(t):
    """Presentations by exhaustive search over the 2^f Weyl candidates,
    calling w_question once per candidate: the oracle for the closed form."""
    target = w_question(t)
    out = []
    for label, point_lam in enumerate(presentation_weights(t)):
        matches = []
        for flags in itertools.product((False, True), repeat=t.params.f):
            try:
                cand = TameParam(WeylElement(flags), point_lam, t.params)
            except PreconditionViolation:
                continue
            if w_question(cand) == target:
                matches.append(cand.w)
        if len(matches) != 1:
            return None
        out.append((label, point_lam, matches[0]))
    return out


def test_presentations_match_per_candidate_search():
    checked = 0
    for f in (1, 2, 3):
        params = Params(7, f)
        for pairings in itertools.product(range(2, 6), repeat=f):
            mu = Weight(tuple((m, 0) for m in pairings))
            for flags in itertools.product((False, True), repeat=f):
                t = TameParam(WeylElement(flags), mu, params)
                if not is_one_generic(t):
                    continue
                want = _search_per_candidate(t)
                if want is None:
                    with pytest.raises(PresentationError):
                        presentations(t)
                    continue
                pres = presentations(t)
                assert [(p.label, p.lam, p.w_sigma) for p in pres] == want
                assert [presentation(t, label) for label in range(1 << f)] == list(pres)
                checked += 1
    assert checked > 0


def test_presentations_not_feasible_raises():
    # the (s,e) parameter at pairings (2,5): label 0b1 recentres to pairings
    # (1,2), which is not 1-deep, so no candidate can be formed over it
    t = TameParam(WeylElement((True, False)), Weight(((2, 0), (5, 0))), P72)
    with pytest.raises(PresentationError, match="label 0b1: 0 Weyl candidates"):
        presentations(t)
    with pytest.raises(PresentationError):
        presentation(t, 1)
    assert presentation(t, 0).lam == t.mu


def test_presentation_label_range():
    with pytest.raises(PreconditionViolation):
        presentation(TameParam(W_S, MU4, P71), 2)


def test_weights_report_schema():
    rep = weights_report(TameParam(W_ID, MU4, P71))
    assert set(rep) == {"param", "one_generic", "w_question", "jh_dl", "presentations"}
    assert rep["param"] == {"w": "e", "mu": "4,0"}
    assert rep["one_generic"] is True
    assert {tuple(c["r"]) for c in rep["w_question"]} == {(3,), (1,)}
    assert len(rep["presentations"]) == 2
    assert rep["presentations"][0]["label"] == []
    assert rep["presentations"][1]["label"] == [0]
