"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every criterion is exact (integer equalities over exhaustive or pinned
sweeps); the two runtime-bounded sweeps assert their wall-clock budgets.
"""

import dataclasses
import time

import pytest

import swlab.lattice as lattice
from swlab import d0, envelope, graph
from swlab.lattice import (
    ExtAffineElement,
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
)
from swlab.verify import (
    SuiteConfig,
    check_d0_multiplicity_one,
    check_envelope_dimensions,
    check_filtration_lattice,
    check_graded_multiplicity_free,
    check_graph_injectivity,
    check_graph_symmetry,
    check_submodule_lattice,
    check_wq_cardinality,
    run_suite,
)
from swlab.weights import TameParam, w_question
from swlab.d0 import d0_full

CFG = SuiteConfig()


def _report(n, label, outcomes, empty=()):
    """Every row passes and examined at least one case, except the configs
    listed in ``empty``, whose sweeps hold no case: p=5 f=1 has no 1-generic
    parameter."""
    failed = [o for o in outcomes if not o.passed]
    status = "FAIL" if failed else "PASS"
    print(f"ACCEPTANCE {n} {label}: {status}")
    assert not failed, failed
    assert outcomes, "empty sweep"
    for o in outcomes:
        if o.config in empty:
            assert o.status == "empty", o
        else:
            assert o.cases > 0, o


def test_criterion_01_injectivity():
    t0 = time.time()
    outcomes = []
    for p in (5, 7):
        for f in (1, 2, 3):
            outcomes += check_graph_injectivity(Params(p, f), CFG)
    elapsed = time.time() - t0
    _report(1, "graph injectivity (radius 2, all 1-deep weights)", outcomes)
    assert elapsed < 60, f"injectivity sweep took {elapsed:.1f}s"


def test_criterion_02_hypercube_size():
    outcomes = []
    for p in (5, 7, 11):
        for f in (1, 2, 3):
            outcomes += check_wq_cardinality(Params(p, f), CFG)
    _report(2, "predicted weight sets have 2^f elements", outcomes, empty={"p=5 f=1"})


def test_criterion_03_dimension_identity():
    outcomes = []
    for p in (5, 7):
        for f in (1, 2, 3):
            outcomes += check_envelope_dimensions(Params(p, f), CFG)
    _report(3, "total dim (2p)^f and factor dims per coordinate", outcomes)


def test_criterion_04_graded_multiplicity_free():
    outcomes = []
    for p in (5, 7):
        for f in (1, 2, 3):
            outcomes += check_graded_multiplicity_free(Params(p, f), CFG)
    _report(4, "graded pieces and successor windows multiplicity free", outcomes)


def test_criterion_05_submodule_lattice():
    outcomes = []
    for f in (1, 2, 3):
        outcomes += check_submodule_lattice(Params(5, f), CFG)
    _report(5, "submodule lattice respects reverse label inclusion", outcomes)


def test_criterion_06_filtration_lemmas():
    outcomes = []
    for f in (1, 2, 3):
        outcomes += check_filtration_lattice(Params(5, f), CFG)
    _report(6, "filtration intersection closure identity", outcomes)


def test_criterion_07_d0_multiplicity_one():
    t0 = time.time()
    outcomes = []
    for p in (5, 7, 11):
        for f in (1, 2, 3):
            outcomes += check_d0_multiplicity_one(Params(p, f), CFG)
    elapsed = time.time() - t0
    _report(7, "D0 multiplicity one across the generic sweep", outcomes, empty={"p=5 f=1"})
    assert elapsed < 300, f"D0 sweep took {elapsed:.1f}s"


def test_criterion_08_f1_classical_cross_check():
    params = Params(7, 1)
    mu = Weight(((4, 0),))
    split = w_question(TameParam(WeylElement((False,)), mu, params))
    assert set(split) == {SerreWeightClass((3,), 0), SerreWeightClass((1,), 4)}
    nonsplit = w_question(TameParam(WeylElement((True,)), mu, params))
    assert set(nonsplit) == {SerreWeightClass((3,), 0), SerreWeightClass((3,), 3)}
    rep = d0_full(TameParam(WeylElement((True,)), mu, params))
    assert [len(b.constituents) for b in rep.blocks] == [2, 2]
    assert len(set(rep.all_constituents)) == 4
    print("ACCEPTANCE 8 f=1 classical weight pairs and D0 length: PASS")


def test_criterion_09_symmetry():
    outcomes = []
    for f in (1, 2):
        outcomes += check_graph_symmetry(Params(7, f), CFG)
    _report(9, "recentring symmetry over all hypercube pairs", outcomes)


def test_criterion_10_fault_sensitivity(monkeypatch):
    params = Params(7, 1)
    assert check_graph_injectivity(params, CFG)[0].passed

    original = lattice.p_dot

    def flipped(prm, g, w):
        return original(prm, ExtAffineElement(-g.translation, g.weyl), w)

    monkeypatch.setattr(lattice, "p_dot", flipped)
    outcome = check_graph_injectivity(params, CFG)[0]
    monkeypatch.undo()

    assert not outcome.passed
    assert outcome.counterexample
    print(
        "ACCEPTANCE 10 flipped p-dot translation fails criterion 1 "
        f"(counterexample: {outcome.counterexample}): PASS"
    )


# Criterion 10 grown into a table of seeded mutations.  Each mutation below
# must make the suite report at least one FAIL row on a small grid; one that
# no check kills is marked xfail(strict=True), so that the oracle that
# finally kills it has to remove the mark.


def _k_of_unrotated(original):
    # the filtration level of factor i read from the signs at i, not i+1
    def k_of(J):
        return envelope.MultiIndex(
            tuple((J.plus >> i & 1) + (J.minus >> i & 1) for i in range(J.f))
        )

    return k_of


def _block_keeps_own_sign(original):
    # each block kills the opposite of the parameter's signed element
    def block(params, pres):
        flipped = WeylElement(tuple(not s for s in pres.w_sigma.flags))
        rep = original(params, dataclasses.replace(pres, w_sigma=flipped))
        return dataclasses.replace(rep, w_sigma=pres.w_sigma)

    return block


def _omega_flags_unrotated(original):
    # Weyl flags read from the mask itself, not from its Frobenius rotation
    def omega_element(params, J):
        g = original(params, J)
        flags = tuple(bool(J >> i & 1) for i in range(params.f))
        return ExtAffineElement(g.translation, WeylElement(flags))

    return omega_element


def _serre_residue_unweighted(original):
    # the residue sums the b_i without their weights p^i
    def serre_class(params, w):
        d = sum(b for _, b in w.coords) % (params.q - 1)
        return SerreWeightClass(original(params, w).r, d)

    return serre_class


def _reflection_translation_negated(original):
    # w0 . t_{+eta} in place of w0 . t_{-eta}
    def reflection_element(f):
        g = original(f)
        return ExtAffineElement(-g.translation, g.weyl)

    return reflection_element


def _reflection_translation_central_shift(original):
    # the translation moved by the central character (1, 1) at every
    # coordinate; the inverse reflection is derived from the same element
    def reflection_element(f):
        g = original(f)
        return ExtAffineElement(g.translation + Weight(((1, 1),) * f), g.weyl)

    return reflection_element


MUTATION_GRID = SuiteConfig(p_list=(7,), f_list=(1, 2), cases=300)


@pytest.mark.parametrize(
    "module, attr, mutate",
    [
        pytest.param(envelope, "k_of", _k_of_unrotated, id="k_of-rotation"),
        pytest.param(d0, "_block", _block_keeps_own_sign, id="block-sign"),
        pytest.param(graph, "omega_element", _omega_flags_unrotated, id="omega-flags"),
        pytest.param(lattice, "serre_class", _serre_residue_unweighted, id="serre-residue"),
        pytest.param(
            lattice,
            "_reflection_element",
            _reflection_translation_negated,
            id="herzig-translation",
        ),
        pytest.param(
            lattice,
            "_reflection_element",
            _reflection_translation_central_shift,
            id="herzig-central-shift",
            marks=pytest.mark.xfail(
                strict=True,
                reason="every check compares the reflection with its own inverse",
            ),
        ),
    ],
)
def test_criterion_10_seeded_mutations(monkeypatch, module, attr, mutate):
    monkeypatch.setattr(module, attr, mutate(getattr(module, attr)))
    # the cached inverse reflection is derived from _reflection_element: let
    # it follow a mutation, as an edit of the source would, and not outlive it
    lattice._reflection_inverse.cache_clear()
    try:
        killed_by = [(o.name, o.config) for o in run_suite(MUTATION_GRID) if not o.passed]
    finally:
        monkeypatch.undo()
        lattice._reflection_inverse.cache_clear()
    print(f"ACCEPTANCE 10 mutation of {module.__name__}.{attr} killed by {killed_by}")
    assert killed_by
