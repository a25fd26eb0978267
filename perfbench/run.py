"""Benchmark of the swlab package: one client in a closed loop.

Run from the repository root:

    python3 perfbench/run.py --workload d0_sweep --seed 1 --seconds 10 --trace 0

Everything runs in this one process and one thread; each operation starts
after the previous one finishes.  The end-to-end run (``--trace 0``) is
untraced.  The traced run (``--trace 1``) first repeats the untraced loop for
half the time, then installs the wrappers of ``spans.py`` and runs the same
operations again for the other half; the difference between the two loops'
throughput is the tracing overhead.  Every operation's output is compared
with the reference digests in ``reference.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
stamp the environment and summarise the run.  ``SWLAB_THREADS`` is removed
from the environment, so ``swlab verify`` runs serially, and its original
value is stamped.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"

sys.path.insert(0, str(SRC))

import spans  # noqa: E402
import workloads  # noqa: E402

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith(".calls_per_op"):
        return "count"
    if name.endswith(".self_us_per_call"):
        return "us"
    if name.endswith(".s"):
        return "s"
    return "ratio"


def calibration_kernel() -> int:
    """Fixed pure-Python work, about 1 ms on a quiet 2-core x86-64 box."""
    acc = 0
    seen = {}
    for i in range(2000):
        t = (i, i + 1, i * 3)
        seen[t] = i
        acc += sum(t) % 7 + seen[(i, i + 1, i * 3)]
    return acc


class SpeedGauge:
    """Tracks how fast the machine runs Python right now.

    On a shared host the speed of this process drifts between states up to
    1.8x apart, each lasting from seconds to minutes, which no run length can
    average out.  The gauge times ``calibration_kernel`` after every
    ``INTERVAL_S`` of operation time (after a long operation, up to
    ``WINDOW`` times in a row); ``scale`` converts a time measured now into
    reference time, the time it would take when the kernel takes
    ``REFERENCE_S``.
    """

    REFERENCE_S = 1e-3
    INTERVAL_S = 0.05
    WINDOW = 5

    def __init__(self):
        self._recent = deque(maxlen=self.WINDOW)
        self._since = 0.0
        for _ in range(self.WINDOW):
            self.sample()

    def sample(self) -> None:
        start = time.perf_counter()
        calibration_kernel()
        self._recent.append(time.perf_counter() - start)

    def tick(self, op_seconds: float) -> None:
        """Account for one operation; sample when the interval is up."""
        self._since += op_seconds
        for _ in range(min(self.WINDOW, int(self._since / self.INTERVAL_S))):
            self.sample()
        if self._since >= self.INTERVAL_S:
            self._since = 0.0

    def scale(self) -> float:
        return self.REFERENCE_S / statistics.median(self._recent)

    def convert(self, seconds: float, before: float) -> float:
        """Account for ``seconds`` of work begun at scale ``before``, and
        return them in reference time at the mean scale before and after."""
        self.tick(seconds)
        return seconds * (before + self.scale()) / 2


@dataclass
class Phase:
    """One timed loop: per-operation latencies, measured and in reference
    time, and failures."""

    latencies: list[float] = field(default_factory=list)
    reference: list[float] = field(default_factory=list)
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    @property
    def busy(self) -> float:
        return sum(self.latencies)

    @property
    def ops_per_s(self) -> float:
        return len(self.reference) / sum(self.reference)


def setup(wl, gauge: SpeedGauge):
    """Import, input generation and one warm-up operation; returns the
    set-up time in reference time."""
    before = gauge.scale()
    start = time.perf_counter()
    sw = workloads.load_swlab()
    population = wl.population(sw)
    wl.warm_up(sw, population)
    return gauge.convert(time.perf_counter() - start, before), sw, population


def mismatches(segments, got: list, want: list) -> int:
    """Operations whose output differs from the reference; a segment of
    several operations shares one digest and fails as a whole."""
    failed = 0
    i = 0
    for n, expected in zip(segments, want):
        part = got[i : i + n]
        i += n
        actual = part[0] if n == 1 else workloads.fold_digests(part)
        if actual is None or actual != expected:
            failed += n
    return failed


def measure(wl, sw, population, seed, want, seconds, min_ops, gauge, tracer=None) -> Phase:
    """Run operations from the start of the seeded stream until ``seconds``
    of operation time have passed and at least ``min_ops`` operations are
    done."""
    phase = Phase()
    for item in workloads.shuffled_passes(len(population), seed):
        q = wl.q(population, item)
        got = []
        for call, canon in wl.ops(sw, population, item):
            counted = len(phase.latencies) < wl.trace_prefix
            before = gauge.scale()
            start = time.perf_counter()
            try:
                result = call()
                ok = True
            except Exception:
                ok = False
                phase.errors.append(traceback.format_exc())
            elapsed = time.perf_counter() - start
            if tracer is not None:
                tracer.fold(elapsed, counted)
            phase.latencies.append(elapsed)
            phase.reference.append(gauge.convert(elapsed, before))
            got.append(None)
            if ok:
                try:
                    got[-1] = workloads.digest(workloads.untwist(canon(result), item[1], q))
                except Exception:
                    phase.errors.append(traceback.format_exc())
        phase.failed += mismatches(wl.segments, got, want(item[0]))
        if phase.busy >= seconds and len(phase.latencies) >= min_ops:
            return phase


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def p90(latencies: list[float]) -> float:
    return statistics.quantiles(latencies, n=10, method="inclusive")[8]


def run(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One benchmark run; returns the result object and a summary.  An
    end-to-end run sets up ``wl.setups`` times and reports the median; a
    traced run sets up once."""
    threads = os.environ.pop("SWLAB_THREADS", None)
    wl = workloads.WORKLOADS[name]
    reference = json.loads(REFERENCE.read_text())[name]
    gauge = SpeedGauge()
    setup_times = []
    for _ in range(1 if trace else wl.setups):
        elapsed, sw, population = setup(wl, gauge)
        setup_times.append(elapsed)
    if workloads.digest(wl.keys(population)) == reference["fingerprint"]:
        want = reference["digests"].__getitem__
    else:
        # the population itself changed: nothing can be checked, all fail
        want = lambda _index: [None] * len(wl.segments)  # noqa: E731

    if trace:
        phases = [measure(wl, sw, population, seed, want, seconds / 2, wl.trace_prefix, gauge)]
        tracer = spans.Tracer()
        tracer.install(sw)
        try:
            phases.append(measure(wl, sw, population, seed, want, seconds / 2, wl.trace_prefix, gauge, tracer))
        finally:
            tracer.remove()
        metrics = tracer.metrics()
        metrics["trace.overhead_share"] = 1 - phases[1].ops_per_s / phases[0].ops_per_s
        units = {k: layer_unit(k) for k in metrics}
    else:
        phases = [measure(wl, sw, population, seed, want, seconds, wl.min_ops, gauge)]
        lat = phases[0].reference
        metrics = {
            "setup_s": statistics.median(setup_times),
            "ops_per_s": phases[0].ops_per_s,
            "latency_p50_ms": statistics.median(lat) * 1e3,
            "latency_p90_ms": p90(lat) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    attempted = sum(len(p.latencies) for p in phases)
    failed = sum(p.failed for p in phases)
    lat = phases[0].latencies
    return {
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        },
        "summary": {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "fail_ratio": failed / attempted,
            "samples": len(lat),
            "beyond_p90": sum(x > p90(lat) for x in lat) if len(lat) > 1 else 0,
            "setup_runs_s": setup_times,
            "ops_per_s_by_phase": [p.ops_per_s for p in phases],
            "measured_ops_per_s": len(lat) / sum(lat),
            "measured_latency_p50_ms": statistics.median(lat) * 1e3,
        },
        "env": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "platform": platform.platform(),
            "git_sha": git_sha(),
            "SWLAB_THREADS": threads,
        },
        "errors": [e for p in phases for e in p.errors],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "swlab" / "__init__.py").is_file() or not REFERENCE.is_file():
        sys.stderr.write(f"error: run from a checkout with src/swlab and {REFERENCE.name}\n")
        return 2
    out = run(args.workload, args.seed, args.seconds, bool(args.trace))
    for err in out["errors"][:3]:
        sys.stderr.write(err)
    print("# env " + json.dumps(out["env"]))
    print("# summary " + json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
