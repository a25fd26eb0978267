import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import swlab
from swlab.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_graph_json(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--p", "7", "--f", "1", "--mu", "4,0", "--radius", "1",
        "--format", "json",
    )
    assert code == 0
    blob = json.loads(out)
    assert len(blob["vertices"]) == 3
    assert len(blob["edges"]) == 2


def test_graph_radius_zero(capsys):
    code, out, _ = run_cli(capsys, "graph", "--p", "7", "--f", "1", "--mu", "4,0", "--radius", "0")
    assert code == 0
    assert len(json.loads(out)["vertices"]) == 1


def test_graph_rejects_negative_radius(capsys):
    code, out, err = run_cli(capsys, "graph", "--p", "7", "--f", "1", "--mu", "4,0", "--radius", "-3")
    assert code == 2
    assert out == ""
    assert "radius" in err


def test_graph_dot(capsys):
    code, out, _ = run_cli(
        capsys, "graph", "--p", "7", "--f", "1", "--mu", "4,0", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("graph extension_graph {")


def test_graph_malformed_mu(capsys):
    code, _, err = run_cli(capsys, "graph", "--p", "7", "--f", "1", "--mu", "4;0")
    assert code == 2
    assert "coordinate" in err


def test_graph_depth_violation(capsys):
    code, _, err = run_cli(capsys, "graph", "--p", "7", "--f", "1", "--mu", "0,0")
    assert code == 2
    assert "dominant" in err


def test_graph_bad_prime(capsys):
    code, _, err = run_cli(capsys, "graph", "--p", "9", "--f", "1", "--mu", "4,0")
    assert code == 2
    assert "prime" in err


def test_weights_report(capsys):
    code, out, _ = run_cli(capsys, "weights", "--p", "7", "--f", "1", "--w", "s", "--mu", "4,0")
    assert code == 0
    blob = json.loads(out)
    assert len(blob["w_question"]) == 2


def test_weights_w_dependence(capsys):
    _, out_e, _ = run_cli(capsys, "weights", "--p", "7", "--f", "1", "--w", "e", "--mu", "4,0")
    _, out_s, _ = run_cli(capsys, "weights", "--p", "7", "--f", "1", "--w", "s", "--mu", "4,0")
    got_e = {(tuple(c["r"]), c["d"]) for c in json.loads(out_e)["w_question"]}
    got_s = {(tuple(c["r"]), c["d"]) for c in json.loads(out_s)["w_question"]}
    # the base class is shared; the companion differs
    assert got_e != got_s
    assert len(got_e & got_s) == 1
    assert ((3,), 0) in got_e & got_s


def test_weights_rejects_all_two(capsys):
    code, _, err = run_cli(
        capsys, "weights", "--p", "5", "--f", "2", "--w", "ee", "--mu", "2,0;2,0"
    )
    assert code == 2
    assert "not 1-generic" in err


def test_weights_rejects_shallow(capsys):
    code, _, err = run_cli(capsys, "weights", "--p", "7", "--f", "1", "--w", "e", "--mu", "1,0")
    assert code == 2
    assert "1-deep" in err


def test_weights_rejects_bad_presentation(capsys):
    # generic at mu, but one recentred presentation fails depth
    code, _, err = run_cli(
        capsys, "weights", "--p", "7", "--f", "2", "--w", "se", "--mu", "2,0;5,0"
    )
    assert code == 2
    assert "recentred presentation" in err


def test_weights_accepts_depth_boundary(capsys):
    # w = e at pairing 4: one presentation is the all-2 vector, still 1-deep
    code, out, _ = run_cli(capsys, "weights", "--p", "7", "--f", "1", "--w", "e", "--mu", "4,0")
    assert code == 0
    assert len(json.loads(out)["w_question"]) == 2


def test_envelope_report(capsys):
    code, out, _ = run_cli(capsys, "envelope", "--p", "7", "--f", "1", "--mu", "4,0")
    assert code == 0
    blob = json.loads(out)
    assert blob["total_dim"] == 14
    code, out, _ = run_cli(capsys, "envelope", "--p", "5", "--f", "2", "--mu", "3,0;2,0")
    assert code == 0
    assert json.loads(out)["total_dim"] == 100


def test_envelope_rejects_shallow(capsys):
    code, _, err = run_cli(capsys, "envelope", "--p", "7", "--f", "1", "--mu", "1,0")
    assert code == 2
    assert "1-deep" in err


def test_envelope_has_no_dot(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["envelope", "--p", "7", "--f", "1", "--mu", "4,0", "--format", "dot"])
    assert exc.value.code == 2


def test_d0_report(capsys):
    code, out, _ = run_cli(capsys, "d0", "--p", "7", "--f", "1", "--w", "s", "--mu", "4,0")
    assert code == 0
    blob = json.loads(out)
    constituents = [c for b in blob["blocks"] for c in b["constituents"]]
    assert len(constituents) == 4
    assert blob["multiplicity_free"] is True


def test_d0_dot(capsys):
    code, out, _ = run_cli(
        capsys, "d0", "--p", "7", "--f", "1", "--w", "s", "--mu", "4,0", "--format", "dot"
    )
    assert code == 0
    assert out.startswith("digraph d0 {")


def test_d0_central_shift_stability(capsys):
    _, out1, _ = run_cli(capsys, "d0", "--p", "7", "--f", "1", "--w", "s", "--mu", "4,0")
    _, out2, _ = run_cli(capsys, "d0", "--p", "7", "--f", "1", "--w", "s", "--mu", "5,1")
    blocks1, blocks2 = json.loads(out1)["blocks"], json.loads(out2)["blocks"]
    for b1, b2 in zip(blocks1, blocks2):
        for c1, c2 in zip(b1["constituents"], b2["constituents"]):
            assert c1["r"] == c2["r"]
            assert (c2["d"] - c1["d"]) % 6 == 1


def test_d0_rejects_extreme_constant(capsys):
    code, _, err = run_cli(
        capsys, "d0", "--p", "5", "--f", "2", "--w", "ss", "--mu", "3,0;3,0"
    )
    assert code == 2
    assert "not 1-generic" in err


def test_verify_single_config(capsys):
    code, out, _ = run_cli(capsys, "verify", "--p", "7", "--f", "1", "--cases", "200")
    assert code == 0
    assert "all" in out.splitlines()[-1]


def test_verify_deterministic(capsys):
    code1, out1, _ = run_cli(capsys, "verify", "--p", "5", "--f", "1", "--cases", "100")
    code2, out2, _ = run_cli(capsys, "verify", "--p", "5", "--f", "1", "--cases", "100")
    assert code1 == code2 == 0
    assert out1 == out2


def test_python_dash_m_swlab_runs_the_cli(capsys):
    argv = ["verify", "--p", "5", "--f", "1"]
    env = {**os.environ, "PYTHONPATH": str(Path(swlab.__file__).resolve().parents[1])}
    run = subprocess.run(
        [sys.executable, "-m", "swlab", *argv], capture_output=True, text=True, env=env
    )
    code, out, err = run_cli(capsys, *argv)
    assert (run.returncode, run.stdout, run.stderr) == (code, out, err)
    assert code == 0


def test_verify_bad_list(capsys):
    code, _, err = run_cli(capsys, "verify", "--p", "5;7", "--f", "1")
    assert code == 2
    assert "comma-separated" in err


@pytest.mark.parametrize(
    "flag, value", [("--cases", "0"), ("--cases", "-5"), ("--radius", "-1")]
)
def test_verify_rejects_vacuous_sweep(capsys, flag, value):
    code, out, err = run_cli(capsys, "verify", "--p", "5", "--f", "1", flag, value)
    assert code == 2
    assert out == ""
    assert flag[2:] in err
