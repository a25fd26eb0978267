"""Self-tests of the benchmark: the output check is not vacuous, shifted
passes compare equal to the reference, traced counts repeat exactly, and the
metric names match BENCHMARK.json.

Run from the repository root:

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import unittest

import run
import spans
import workloads

W = workloads.WORKLOADS


def run_ops(name: str, n_ops: int, seed: int = 7, corrupt=None) -> run.Phase:
    """Set up once, optionally corrupt the program, and run ``n_ops``."""
    wl = W[name]
    gauge = run.SpeedGauge()
    _elapsed, sw, population = run.setup(wl, gauge)
    if corrupt is not None:
        corrupt(sw)
    ref = json.loads(run.REFERENCE.read_text())[name]["digests"]
    return run.measure(wl, sw, population, seed, ref.__getitem__, 0.0, n_ops, gauge)


def _bump_first_residue(report: dict) -> dict:
    report = json.loads(json.dumps(report))
    report["blocks"][0]["constituents"][0]["d"] += 1
    return report


class OutputCheck(unittest.TestCase):
    def test_d0_sweep(self):
        self.assertEqual(run_ops("d0_sweep", 5).failed, 0)

        def corrupt(sw):
            build = sw.d0.d0_report_json
            sw.d0.d0_report_json = lambda rep: _bump_first_residue(build(rep))

        phase = run_ops("d0_sweep", 5, corrupt=corrupt)
        self.assertEqual(phase.failed, len(phase.latencies))

    def test_graph_enum(self):
        self.assertEqual(run_ops("graph_enum", 10).failed, 0)

        def corrupt(sw):
            build = sw.graph.graph_json
            sw.graph.graph_json = lambda enum: {**build(enum), "edges": build(enum)["edges"][1:]}

        phase = run_ops("graph_enum", 10, corrupt=corrupt)
        self.assertEqual(phase.failed, len(phase.latencies))

    def test_envelope_sweep_label_ops(self):
        self.assertEqual(run_ops("envelope_sweep", 1).failed, 0)

        def corrupt(sw):
            hom_dim = sw.envelope.hom_dim
            sw.envelope.hom_dim = lambda params, mu, sigma: hom_dim(params, mu, sigma)[:1]

        # the 64 label operations share a digest; the report operation passes
        self.assertEqual(run_ops("envelope_sweep", 1, corrupt=corrupt).failed, 64)

    def test_verify_grid_flipped_row(self):
        def corrupt(sw):
            fmt = sw.verify.format_outcomes
            sw.verify.format_outcomes = lambda outcomes: fmt(outcomes).replace(" pass ", " FAIL ", 1)

        phase = run_ops("verify_grid", 1, corrupt=corrupt)
        self.assertEqual((len(phase.latencies), phase.failed), (1, 1))

    def test_verify_rows_ignore_status_renames_and_new_columns(self):
        table = (
            "check     config   status  counterexample\n"
            "p_dot     p=5 f=1  pass    -\n"
            "jh_trip   p=5 f=1  pass    -\n"
            "all 2 checks passed\n"
        )
        renamed = (
            "check     config   status  cases  counterexample\n"
            "p_dot     p=5 f=1  pass    1000   -\n"
            "jh_trip   p=5 f=1  empty   0      -\n"
            "all 2 checks passed\n"
        )
        failing = table.replace("pass    -\nall", "FAIL    x=1\nall")
        self.assertEqual(workloads.verify_rows(table), workloads.verify_rows(renamed))
        self.assertNotEqual(workloads.verify_rows(table), workloads.verify_rows(failing))


class ShiftedPasses(unittest.TestCase):
    """Later passes shift every weight centrally; shifted back, their
    outputs must equal the reference of the unshifted item."""

    def check(self, name: str, indices, k: int = 3):
        wl = W[name]
        sw = workloads.load_swlab()
        population = wl.population(sw)
        ref = json.loads(run.REFERENCE.read_text())[name]["digests"]
        for index in indices:
            got = []
            for call, canon in wl.ops(sw, population, (index, k)):
                q = wl.q(population, (index, k))
                got.append(workloads.digest(workloads.untwist(canon(call()), k, q)))
            self.assertEqual(run.mismatches(wl.segments, got, ref[index]), 0, (name, index))

    def test_d0_sweep(self):
        self.check("d0_sweep", (0, 1371, 2741))

    def test_envelope_sweep(self):
        self.check("envelope_sweep", (0, 511))

    def test_graph_enum(self):
        self.check("graph_enum", (0, 300, 639))


class ExactCounts(unittest.TestCase):
    """Two traced runs with one seed give identical counts and ratios."""

    def check(self, name: str):
        exact = [
            n for n in spans.metric_names() if n.endswith(".calls_per_op") or n in spans.RATIOS
        ]
        first, second = (run.run(name, 11, 0.0, True)["result"]["metrics"] for _ in range(2))
        self.assertEqual({n: first[n] for n in exact}, {n: second[n] for n in exact})
        self.assertGreater(sum(first[n]["value"] for n in exact), 0)

    def test_d0_sweep(self):
        self.check("d0_sweep")

    def test_envelope_sweep(self):
        self.check("envelope_sweep")

    def test_graph_enum(self):
        self.check("graph_enum")

    def test_verify_grid(self):
        self.check("verify_grid")


class MetricNames(unittest.TestCase):
    def test_benchmark_json_lists_what_run_reports(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]}, run.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            {n: run.layer_unit(n) for n in spans.metric_names()},
        )
        self.assertEqual([w["name"] for w in spec["workloads"]], list(W))


if __name__ == "__main__":
    unittest.main()
