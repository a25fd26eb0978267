import hashlib
import random

import pytest

import swlab.lattice as lattice
from swlab import cli, verify
from swlab.errors import NotRegular
from swlab.lattice import ExtAffineElement, Params
from swlab.verify import (
    SuiteConfig,
    _draws,
    check_graph_injectivity,
    check_graph_symmetry,
    check_herzig_bijection,
    format_outcomes,
    run_suite,
)

FAST = SuiteConfig(p_list=(5, 7), f_list=(1, 2), cases=300)


def test_default_suite_passes():
    outcomes = run_suite(FAST)
    failed = [o for o in outcomes if not o.passed]
    assert not failed, failed
    assert len(outcomes) > 80


def test_suite_deterministic():
    first = run_suite(FAST)
    second = run_suite(FAST)
    assert first == second
    assert format_outcomes(first) == format_outcomes(second)


def test_format_outcomes_table():
    out = format_outcomes(run_suite(SuiteConfig(p_list=(5,), f_list=(1,), cases=50)))
    assert out.splitlines()[0].startswith("check")
    assert "all" in out.splitlines()[-1]


def _flipped_p_dot(original):
    def bad(params, g, w):
        mirrored = ExtAffineElement(-g.translation, g.weyl)
        return original(params, mirrored, w)

    return bad


def test_fault_injection_breaks_injectivity(monkeypatch):
    # a sign flip in the p-dot translation must make the injectivity check
    # fail with a reported counterexample, guarding against vacuous passes
    params = Params(7, 1)
    cfg = SuiteConfig(p_list=(7,), f_list=(1,))
    good = check_graph_injectivity(params, cfg)
    assert good[0].status == "pass"

    monkeypatch.setattr(lattice, "p_dot", _flipped_p_dot(lattice.p_dot))
    bad = check_graph_injectivity(params, cfg)
    assert not bad[0].passed
    assert bad[0].counterexample is not None
    assert 1 <= bad[0].cases <= good[0].cases


def test_fault_injection_counterexample_is_stable(monkeypatch):
    params = Params(7, 1)
    cfg = SuiteConfig(p_list=(7,), f_list=(1,))
    monkeypatch.setattr(lattice, "p_dot", _flipped_p_dot(lattice.p_dot))
    first = check_graph_injectivity(params, cfg)
    second = check_graph_injectivity(params, cfg)
    assert first == second


# the sweeps of these checks hold no parameter at p=5 f=1: none is 1-generic
EMPTY_AT_P5_F1 = [
    "wq_cardinality",
    "wq_genericity",
    "jh_roundtrip",
    "presentations_valid",
    "d0_multiplicity_one",
    "d0_presentation_independence",
    "d0_central_twist",
]


def test_empty_rows_are_reported_not_failed(capsys):
    outcomes = run_suite(SuiteConfig(p_list=(5,), f_list=(1,), cases=50))
    assert [o.name for o in outcomes if o.status == "empty"] == EMPTY_AT_P5_F1
    assert all(o.cases > 0 for o in outcomes if o.status != "empty")

    assert cli.main(["verify", "--p", "5", "--f", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert [r.split()[0] for r in rows if r.split()[3] == "empty"] == EMPTY_AT_P5_F1
    assert rows[-1] == f"all {len(outcomes)} checks passed"


# off the default grid some sweeps are structurally empty, and their rows are
# left empty rather than widened: no parameter is pair-generic at p=5 f=3,
# and no pairing vector is depth-deep when p <= 2 * depth + 1
OFF_GRID_EMPTY = [
    (SuiteConfig(p_list=(5,), f_list=(3,), cases=50), ["wq_genericity"]),
    (SuiteConfig(p_list=(5,), f_list=(2,), depth=2, cases=50), ["graph_injectivity"]),
    (SuiteConfig(p_list=(7,), f_list=(1,), depth=3, cases=50), ["graph_injectivity"]),
]


@pytest.mark.parametrize("cfg, empty", OFF_GRID_EMPTY, ids=["p5f3", "p5f2-depth2", "p7f1-depth3"])
def test_off_grid_empty_rows_are_pinned(cfg, empty):
    outcomes = run_suite(cfg)
    assert [o.name for o in outcomes if o.status == "empty"] == empty
    assert all(o.passed for o in outcomes)


def test_case_counts_match_the_sweeps():
    outcomes = run_suite(SuiteConfig(p_list=(5,), f_list=(2,), cases=50))
    counts = {o.name: o.cases for o in outcomes}
    assert counts["p_dot_action"] == 50  # one per sampled draw
    assert counts["frobenius_order"] == 200  # a fixed sample size
    assert counts["omega_uniqueness"] == 4  # one per mask
    assert counts["graph_injectivity"] == 4  # one per 1-deep pairing vector
    assert counts["wq_cardinality"] == 8  # one per 1-generic parameter
    assert counts["d0_multiplicity_one"] == 2  # one per feasible parameter
    assert counts["ext_affine_group"] == 50  # one per sampled draw
    assert counts["serre_class_orbit"] == 50  # one per sampled draw
    assert counts["serre_class_injective"] == 7500  # 25 profiles x C(25, 2) pairs
    assert counts["filtration_lattice"] == 400  # all pairs of the 20 antichains
    assert counts["sigma_iff_omega"] == 480  # 4 pairing vectors x C(16, 2) labels
    assert counts["hom_span"] == 4  # one per 1-deep pairing vector


def test_check_outside_its_predicate_gives_no_row():
    cfg = SuiteConfig(p_list=(5,), f_list=(1,), cases=50)
    assert check_graph_symmetry(Params(5, 1), cfg) == []
    assert check_graph_symmetry(Params(7, 1), cfg)[0].status == "pass"
    assert "graph_symmetry" not in {o.name for o in run_suite(cfg)}


def test_model_error_in_a_case_is_its_counterexample(monkeypatch):
    def broken(params, c):
        raise NotRegular(f"class {c}")

    monkeypatch.setattr(lattice, "herzig_reflect", broken)
    (outcome,) = check_herzig_bijection(Params(5, 1), SuiteConfig(cases=50))
    assert outcome.status == "FAIL"
    assert outcome.cases == 1
    assert outcome.counterexample == "NotRegular: class SerreWeightClass(r=(0,), d=0)"

    monkeypatch.setattr(lattice, "herzig_reflect", lambda params, c: 1 / 0)
    with pytest.raises(ZeroDivisionError):
        check_herzig_bijection(Params(5, 1), SuiteConfig(cases=50))


def test_run_suite_reads_the_registry(monkeypatch):
    # the perfbench tracer times each check by replacing verify.CHECKS
    seen = []

    def spy(name, fn):
        def wrapped(params, cfg):
            seen.append(name)
            return fn(params, cfg)

        return wrapped

    names = [name for name, _ in verify.CHECKS]
    assert names == [fn.__name__.removeprefix("check_") for _, fn in verify.CHECKS]
    assert len(set(names)) == len(names) == 28
    monkeypatch.setattr(verify, "CHECKS", tuple((n, spy(n, fn)) for n, fn in verify.CHECKS))
    run_suite(SuiteConfig(p_list=(5,), f_list=(1,), cases=10))
    assert seen == names


# SHA-256 of the stdout of `swlab verify --p 7 --f 1,2 --cases 300`, recorded
# from the table the hand-written checks printed before they became case
# generators.  That grid has no empty row, so any change to a row's name,
# order, status or counterexample shows here.
GOLDEN_P7_TABLE = "17785413e7c81093c086e439f34092b87e08ce098674b93f1e77959f0faaf50d"


def test_verify_table_matches_golden_digest(capsys):
    assert cli.main(["verify", "--p", "7", "--f", "1,2", "--cases", "300"]) == 0
    out = capsys.readouterr().out
    assert "empty" not in out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_P7_TABLE


# every (lo, hi) that verify draws from (serre_class_orbit's (0, p - 1) at the
# primes of the default grid and beyond), then ranges of sizes 1, 2, 8, 9, 16
# and 17, around the powers of two where the rejection rule changes
DRAW_RANGES = [(-6, 6), (-4, 4), (0, 1), (-8, 8), (-3, 3)]
DRAW_RANGES += [(0, p - 1) for p in (5, 7, 11, 13)]
DRAW_RANGES += [(-2, -2 + size - 1) for size in (1, 2, 8, 9, 16, 17)]


def test_draws_replay_the_randint_stream():
    # the checks switch ranges draw by draw, so the state after each call matters
    for seed in range(120):
        rng, ref = random.Random(seed), random.Random(seed)
        for lo, hi in DRAW_RANGES:
            for n in (1, 2, 4, 7):
                expected = [ref.randint(lo, hi) for _ in range(n)]
                assert _draws(rng, lo, hi, n) == expected, (seed, lo, hi, n)
        assert rng.getstate() == ref.getstate()


def _mul_without_weyl_twist(self, other):
    # (t_a v)(t_b w) read as t_{a + b} (vw): v no longer acts on b
    return ExtAffineElement(self.translation + other.translation, self.weyl * other.weyl)


def _shift_first_coefficient(original):
    # the central vector moved by (1, 1) at coordinate 0
    return lambda coefficients: original((coefficients[0] + 1,) + tuple(coefficients[1:]))


# The first counterexample of a seeded fault at p=5 f=2 seed 0, recorded
# before the sampled checks drew through _draws: the draws are the same
# cases, in the same order, and the exhaustive sweep keeps its pair order.
SEEDED_FAULTS = [
    pytest.param(
        "ext_affine_group",
        ExtAffineElement,
        "inverse",
        lambda original: lambda self: self,
        1,
        "inverse: ExtAffineElement(translation=Weight(coords=((1, -4), (3, -1))), "
        "weyl=WeylElement(flags=(True, True)))",
        id="inverse-is-self",
    ),
    pytest.param(
        "p_dot_action",
        ExtAffineElement,
        "__mul__",
        lambda original: _mul_without_weyl_twist,
        1,
        "g=ExtAffineElement(translation=Weight(coords=((2, 4), (2, 0))), "
        "weyl=WeylElement(flags=(True, False))), "
        "h=ExtAffineElement(translation=Weight(coords=((3, 4), (1, 3))), "
        "weyl=WeylElement(flags=(False, False))), x=((6, 0), (-3, 2))",
        id="mul-without-twist",
    ),
    pytest.param(
        "serre_class_orbit",
        lattice,
        "central_shift_vector",
        _shift_first_coefficient,
        1,
        "w=((7, 6), (1, -2)), shift=(5, -1)",
        id="central-shift-off-by-one",
    ),
    pytest.param(
        "serre_class_injective",
        lattice,
        "in_p_minus_pi_central",
        lambda original: lambda params, coefficients: not any(coefficients),
        24,
        "r=(0, 0), b1=(0, 0), b2=(4, 4)",
        id="only-zero-congruent",
    ),
]


@pytest.mark.parametrize("name, target, attr, mutate, cases, counterexample", SEEDED_FAULTS)
def test_seeded_fault_first_counterexample_is_pinned(
    monkeypatch, name, target, attr, mutate, cases, counterexample
):
    check = dict(verify.CHECKS)[name]
    params, cfg = Params(5, 2), SuiteConfig(p_list=(5,), f_list=(2,), seed=0)
    assert check(params, cfg)[0].status == "pass"
    monkeypatch.setattr(target, attr, mutate(getattr(target, attr)))
    (outcome,) = check(params, cfg)
    assert (outcome.status, outcome.cases, outcome.counterexample) == (
        "FAIL",
        cases,
        counterexample,
    )
