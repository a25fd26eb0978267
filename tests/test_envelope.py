import itertools
import random

import pytest

from swlab.envelope import (
    JSet,
    MultiIndex,
    all_jsets,
    envelope_report,
    extension_witness,
    fil_index_intersect,
    fil_meet,
    graded_pieces,
    hom_dim,
    k_of,
    sigma_label,
    tensor_translate,
    upward_closure,
    v_submodule,
    vbar_layers,
)
from swlab.errors import NotRestricted, PreconditionViolation
from swlab.lattice import Params, SerreWeightClass, Weight, dim_serre, eta, serre_class

P71 = Params(7, 1)
P52 = Params(5, 2)
MU4 = Weight(((4, 0),))
MU33 = Weight(((3, 0), (3, 0)))


def test_jset_basics():
    J = JSet(0b01, 0b01, 2)
    assert J.size() == 2
    assert J.omega().coeffs == (0, 0)
    assert JSet(0b01, 0, 2).issubset(J)
    assert not J.issubset(JSet(0b01, 0, 2))
    assert len(all_jsets(2)) == 16
    assert len(all_jsets(3)) == 64


def test_k_of():
    assert k_of(JSet(0, 0, 2)) == MultiIndex((0, 0))
    # both signs at coordinate 0 drive the filtration level of factor f-1
    assert k_of(JSet(0b01, 0b01, 2)) == MultiIndex((0, 2))
    assert k_of(JSet(0b01, 0, 1)) == MultiIndex((1,))
    for J in all_jsets(2):
        assert k_of(J).total() == J.size()


def test_sigma_label_values():
    assert sigma_label(P71, MU4, JSet(0, 0, 1)) == SerreWeightClass((3,), 0)
    assert sigma_label(P71, MU4, JSet(1, 1, 1)) == SerreWeightClass((3,), 0)
    assert sigma_label(P71, MU4, JSet(1, 0, 1)) == SerreWeightClass((1,), 4)


def test_graded_pieces_f1():
    rep = graded_pieces(P71, MU4)
    zero = MultiIndex((0,))
    assert rep.by_index[zero] == ((JSet(0, 0, 1), SerreWeightClass((3,), 0)),)
    assert rep.dims[zero] == 4
    assert rep.dims[MultiIndex((1,))] == 2 * (7 - 4)
    assert rep.dims[MultiIndex((2,))] == 4
    assert sum(rep.dims.values()) == 14


def test_graded_counts_match_middle_slots():
    rep = graded_pieces(P52, Weight(((3, 0), (2, 0))))
    for k, entries in rep.by_index.items():
        delta = sum(1 for x in k.k if x == 1)
        assert len(entries) == 2**delta
    assert sum(rep.dims.values()) == 100


def test_graded_pieces_depth_gate():
    with pytest.raises(PreconditionViolation):
        graded_pieces(P71, Weight(((1, 0),)))


def test_fil_meet():
    assert fil_meet(MultiIndex((0, 0)), MultiIndex((1, 2))) == MultiIndex((1, 2))
    assert fil_meet(MultiIndex((1, 0)), MultiIndex((0, 2))) == MultiIndex((1, 2))
    k = MultiIndex((2, 1))
    assert fil_meet(k, k) == k


def _closure(indices, f):
    return upward_closure(indices, f)


def _closure_by_filter(indices, f):
    """Brute-force upward closure on plain tuples."""
    return {
        k
        for k in itertools.product((0, 1, 2), repeat=f)
        if any(all(a <= b for a, b in zip(i, k)) for i in indices)
    }


def _is_antichain(indices):
    return not any(
        i != k and all(a <= b for a, b in zip(i, k)) for i in indices for k in indices
    )


@pytest.mark.parametrize("f", [1, 2])
def test_upward_closure_every_antichain(f):
    points = list(itertools.product((0, 1, 2), repeat=f))
    antichains = [
        chosen
        for n in range(len(points) + 1)
        for chosen in itertools.combinations(points, n)
        if _is_antichain(chosen)
    ]
    assert len(antichains) == {1: 4, 2: 20}[f]
    for chosen in antichains:
        got = upward_closure([MultiIndex(k) for k in chosen], f)
        assert {k.k for k in got} == _closure_by_filter(chosen, f)


def test_upward_closure_seeded_sets_f3():
    rng = random.Random(3)
    points = list(itertools.product((0, 1, 2), repeat=3))
    for _ in range(500):
        chosen = [k for k in points if rng.random() < 0.2]
        got = upward_closure([MultiIndex(k) for k in chosen], 3)
        assert {k.k for k in got} == _closure_by_filter(chosen, 3)
        for i in chosen:
            for k in points:
                assert MultiIndex(i).leq(MultiIndex(k)) == all(a <= b for a, b in zip(i, k))


def test_fil_index_intersect_small():
    f = 2
    zero = MultiIndex((0, 0))
    points = [MultiIndex(k) for k in itertools.product((0, 1, 2), repeat=f)]
    i2 = {MultiIndex((1, 0)), MultiIndex((0, 2)), MultiIndex((1, 2))}
    got = fil_index_intersect({zero}, i2)
    assert _closure(got, f) == _closure(i2, f)
    # pruned generators form an antichain
    assert all(not (a != b and a.leq(b)) for a in got for b in got)
    # exhaustive over singleton pairs
    for k1 in points:
        for k2 in points:
            got = fil_index_intersect({k1}, {k2})
            assert got == {fil_meet(k1, k2)}


def test_fil_index_intersect_idempotent():
    i1 = {MultiIndex((1, 0)), MultiIndex((0, 1))}
    assert _closure(fil_index_intersect(i1, i1), 2) == _closure(i1, 2)


def test_tensor_translate():
    up, down = tensor_translate(P71, SerreWeightClass((3,), 0), 0)
    assert up == SerreWeightClass((4,), 0)
    assert down == SerreWeightClass((2,), 1)
    assert dim_serre(up) + dim_serre(down) == 2 * dim_serre(SerreWeightClass((3,), 0))
    with pytest.raises(NotRestricted):
        tensor_translate(P71, SerreWeightClass((0,), 0), 0)
    with pytest.raises(NotRestricted):
        tensor_translate(P71, SerreWeightClass((6,), 0), 0)


def test_extension_witness():
    wit = extension_witness(P71, MU4, JSet(0, 0, 1), JSet(1, 0, 1))
    assert wit.ext1 == 1
    assert wit.k == MultiIndex((0,)) and wit.kp == MultiIndex((1,))
    assert wit.extension_of == SerreWeightClass((3,), 0)
    assert wit.extension_by == SerreWeightClass((1,), 4)
    # adding the opposite sign: omega drops back to zero but stays adjacent
    wit2 = extension_witness(P71, MU4, JSet(1, 0, 1), JSet(1, 1, 1))
    assert wit2.ext1 == 1
    with pytest.raises(PreconditionViolation):
        extension_witness(
            Params(7, 2),
            Weight(((4, 0), (4, 0))),
            JSet(0, 0, 2),
            JSet(0b11, 0, 2),
        )


def test_vbar_layers():
    rep = vbar_layers(P71, MU4, JSet(0, 0, 1))
    assert [J for J, _ in rep.layer1] == [JSet(0, 1, 1), JSet(1, 0, 1)]
    rep2 = vbar_layers(P52, MU33, JSet(0b01, 0, 2))
    assert len(rep2.layer1) == 3
    classes = [c for _, c in rep2.layer1]
    assert len(set(classes)) == 3


def test_v_submodule():
    sub = v_submodule(P71, MU4, JSet(0, 0, 1))
    assert len(sub.jh) == 4
    sub2 = v_submodule(P71, MU4, JSet(1, 0, 1))
    assert sub2.jh == frozenset({JSet(1, 0, 1), JSet(1, 1, 1)})
    assert all(sub2.layer_of[J] == k_of(J) for J in sub2.jh)


def test_v_submodule_dims():
    total = (2 * 7) ** 1
    for J in all_jsets(1):
        sub = v_submodule(P71, MU4, J)
        dims = sum(dim_serre(sigma_label(P71, MU4, Jp)) for Jp in sub.jh)
        if J.size() == 0:
            assert dims == total
        else:
            assert dims < total


def test_hom_dim():
    count, labels = hom_dim(P71, MU4, serre_class(P71, MU4 - eta(1)))
    assert count == 2
    assert set(labels) == {JSet(0, 0, 1), JSet(1, 1, 1)}
    count, labels = hom_dim(P71, MU4, SerreWeightClass((1,), 4))
    assert count == 1 and labels == (JSet(1, 0, 1),)
    total = sum(
        hom_dim(P71, MU4, sigma)[0]
        for sigma in {sigma_label(P71, MU4, J) for J in all_jsets(1)}
    )
    assert total == 4


def test_envelope_report_schema():
    rep = envelope_report(P71, MU4)
    assert set(rep) == {"mu", "assumptions", "graded", "total_dim", "lattice_edges"}
    assert rep["assumptions"] == ["mu_minus_eta_1_deep", "V_J_exact"]
    assert rep["total_dim"] == 14
    assert len(rep["graded"]) == 3
    labels = [e for g in rep["graded"] for e in g["labels"]]
    assert len(labels) == 4
    rep2 = envelope_report(P52, Weight(((2, 0), (3, 0))))
    assert rep2["total_dim"] == 100
    assert sum(len(g["labels"]) for g in rep2["graded"]) == 16
