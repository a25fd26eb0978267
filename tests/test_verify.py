import swlab.lattice as lattice
from swlab.lattice import ExtAffineElement, Params
from swlab.verify import (
    SuiteConfig,
    check_graph_injectivity,
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
    assert good[0].passed

    monkeypatch.setattr(lattice, "p_dot", _flipped_p_dot(lattice.p_dot))
    bad = check_graph_injectivity(params, cfg)
    assert not bad[0].passed
    assert bad[0].counterexample is not None


def test_fault_injection_counterexample_is_stable(monkeypatch):
    params = Params(7, 1)
    cfg = SuiteConfig(p_list=(7,), f_list=(1,))
    monkeypatch.setattr(lattice, "p_dot", _flipped_p_dot(lattice.p_dot))
    first = check_graph_injectivity(params, cfg)
    second = check_graph_injectivity(params, cfg)
    assert first == second
