import itertools

import pytest

from swlab.d0 import (
    D0Report,
    D0SigmaReport,
    d0_dot,
    d0_full,
    d0_report_json,
    d0_sigma,
    radical_disjointness_check,
    upperbound_consistency,
)
from swlab.envelope import JSet
from swlab.errors import PreconditionViolation
from swlab.lattice import Params, SerreWeightClass, Weight, WeylElement
from swlab.weights import TameParam, is_one_generic, presentations_feasible, w_question

P71 = Params(7, 1)
P72 = Params(7, 2)
MU4 = Weight(((4, 0),))
W_ID = WeylElement((False,))
W_S = WeylElement((True,))


def t_irred():
    return TameParam(W_S, MU4, P71)


def test_d0_sigma_base_block():
    block = d0_sigma(t_irred(), 0)
    assert block.lam == MU4 and block.w_sigma == W_S
    assert block.cosocle == SerreWeightClass((3,), 0)
    got = {(J, c, layer) for J, c, layer in block.constituents}
    assert got == {
        (JSet(0, 0, 1), SerreWeightClass((3,), 0), 0),
        (JSet(1, 0, 1), SerreWeightClass((1,), 4), 1),
    }


def test_d0_sigma_label_range():
    with pytest.raises(PreconditionViolation):
        d0_sigma(t_irred(), 2)


def test_d0_sigma_matches_full_blocks():
    checked = 0
    for pairings in itertools.product(range(2, 6), repeat=2):
        mu = Weight(tuple((m, 0) for m in pairings))
        for flags in itertools.product((False, True), repeat=2):
            t = TameParam(WeylElement(flags), mu, P72)
            if not (is_one_generic(t) and presentations_feasible(t)):
                continue
            rep = d0_full(t)
            for label in range(4):
                assert d0_sigma(t, label) == rep.blocks[label]
            checked += 1
    assert checked > 0


def test_d0_full_f1_irreducible():
    rep = d0_full(t_irred())
    assert len(rep.blocks) == 2
    assert all(len(b.constituents) == 2 for b in rep.blocks)
    assert set(rep.all_constituents) == {
        SerreWeightClass((3,), 0),
        SerreWeightClass((1,), 4),
        SerreWeightClass((3,), 3),
        SerreWeightClass((1,), 1),
    }
    assert tuple(sorted(b.cosocle for b in rep.blocks)) == w_question(t_irred())


def test_d0_full_f1_split():
    rep = d0_full(TameParam(W_ID, MU4, P71))
    assert len(rep.all_constituents) == 4
    assert radical_disjointness_check(rep)
    assert upperbound_consistency(rep)


def test_d0_blocks_avoid_signed_set():
    from swlab.weights import s_w

    t = TameParam(WeylElement((True, False)), Weight(((3, 0), (4, 0))), P72)
    for block in d0_full(t).blocks:
        signs = s_w(block.w_sigma)
        for J, _, _ in block.constituents:
            for i, sign in enumerate(signs):
                if sign == 1:
                    assert not J.plus >> i & 1
                else:
                    assert not J.minus >> i & 1


def test_d0_layer_counts():
    t = TameParam(WeylElement((True, True)), Weight(((3, 0), (3, 0))), P72)
    rep = d0_full(t)
    assert len(rep.blocks) == 4
    assert len(rep.all_constituents) == 16
    for block in rep.blocks:
        by_layer = {}
        for _, _, layer in block.constituents:
            by_layer[layer] = by_layer.get(layer, 0) + 1
        assert by_layer == {0: 1, 1: 2, 2: 1}


def test_d0_rejects_non_generic():
    p52 = Params(5, 2)
    t = TameParam(WeylElement((True, True)), Weight(((3, 0), (3, 0))), p52)
    with pytest.raises(PreconditionViolation):
        d0_full(t)


def test_d0_presentation_independence_f1():
    from swlab.weights import presentations

    t = t_irred()
    base = {
        b.cosocle: frozenset(c for _, c, _ in b.constituents)
        for b in d0_full(t).blocks
    }
    for pres in presentations(t):
        other = TameParam(pres.w_sigma, pres.lam, P71)
        alt = {
            b.cosocle: frozenset(c for _, c, _ in b.constituents)
            for b in d0_full(other).blocks
        }
        assert alt == base


def test_d0_central_twist():
    t = t_irred()
    rep = d0_full(t)
    shifted = TameParam(W_S, MU4 + Weight(((1, 1),)), P71)
    rep2 = d0_full(shifted)
    for b1, b2 in zip(rep.blocks, rep2.blocks):
        for (j1, c1, l1), (j2, c2, l2) in zip(b1.constituents, b2.constituents):
            assert (j1, l1) == (j2, l2)
            assert c1.r == c2.r
            assert (c2.d - c1.d) % 6 == 1


def _synthetic_report(duplicate_in_radical: bool) -> D0Report:
    sigma_a = SerreWeightClass((3,), 0)
    sigma_b = SerreWeightClass((3,), 3)
    filler = SerreWeightClass((1,), 4)
    block_a = D0SigmaReport(
        sigma=sigma_a,
        lam=MU4,
        w_sigma=W_S,
        constituents=(
            (JSet(0, 0, 1), sigma_a, 0),
            (JSet(1, 0, 1), sigma_b if duplicate_in_radical else filler, 1),
        ),
        cosocle=sigma_a,
    )
    block_b = D0SigmaReport(
        sigma=sigma_b,
        lam=MU4,
        w_sigma=W_S,
        constituents=(
            (JSet(0, 0, 1), sigma_b, 0),
            (JSet(1, 0, 1), SerreWeightClass((1,), 1), 1),
        ),
        cosocle=sigma_b,
    )
    return D0Report(param=t_irred(), blocks=(block_a, block_b), all_constituents=())


def test_radical_disjointness_negative_fixture():
    assert radical_disjointness_check(_synthetic_report(False))
    assert not radical_disjointness_check(_synthetic_report(True))


def test_upperbound_negative_fixture():
    assert upperbound_consistency(_synthetic_report(False))
    assert not upperbound_consistency(_synthetic_report(True))


def test_upperbound_empty_report():
    empty = D0Report(param=t_irred(), blocks=(), all_constituents=())
    assert upperbound_consistency(empty)
    assert radical_disjointness_check(empty)


def test_d0_f2_nonsplit_sixteen():
    # the all-swap parameter at pairings (3,3): sixteen distinct constituents
    t = TameParam(WeylElement((True, True)), Weight(((3, 0), (3, 0))), P72)
    rep = d0_full(t)
    assert len(set(rep.all_constituents)) == 16
    assert radical_disjointness_check(rep)
    assert upperbound_consistency(rep)


def test_d0_report_json_schema():
    rep = d0_full(t_irred())
    blob = d0_report_json(rep)
    assert set(blob) == {"param", "assumptions", "blocks", "multiplicity_free", "checks"}
    assert blob["param"] == {"w": "s", "mu": "4,0"}
    assert blob["assumptions"] == ["V_J_exact"]
    assert blob["multiplicity_free"] is True
    assert blob["checks"] == {"radical_disjoint": True, "upperbound_consistent": True}
    assert len(blob["blocks"]) == 2
    block = blob["blocks"][0]
    assert set(block) == {"sigma", "lambda", "w_sigma", "constituents"}
    assert block["constituents"][0]["layer"] == 0


def test_d0_dot_output():
    dot = d0_dot(d0_full(t_irred()))
    assert dot.startswith("digraph d0 {")
    assert "subgraph cluster_0" in dot and "subgraph cluster_1" in dot
    assert "->" in dot
