"""The four benchmark workloads and the canonical form of their outputs.

Each workload draws its operations from a fixed population whose reference
digests were recorded from the seed commit (``reference.json``, written by
``record.py``).  The workload seed only chooses the order, so every run with
the same seed does the same list of operations.  Once a run has used the
whole population it starts another pass in a new order, with every weight
shifted by the central character ``k * (1,1)`` at coordinate 0 on pass ``k``:
the inputs stay fresh, so a cache cannot win by replaying an earlier pass,
and the output is shifted back before it is compared (``verify_grid`` takes
no weight and is not shifted).  The shift is exact,
since it moves every class residue by ``k`` and leaves everything else alone
(the ``d0_central_twist`` check of ``swlab verify`` tests the same identity).

An operation is a pair ``(call, canon)``: ``call`` is what gets timed and
``canon`` turns its result into plain JSON data outside the timed region.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import importlib
import io
import itertools
import json
import random
import re
import sys
from types import SimpleNamespace

MODULES = ("errors", "lattice", "graph", "weights", "envelope", "d0", "verify", "cli")


def load_swlab() -> SimpleNamespace:
    """Import the package afresh, so that each set-up pays the import and
    starts with empty module-level caches."""
    for name in [m for m in sys.modules if m == "swlab" or m.startswith("swlab.")]:
        del sys.modules[name]
    importlib.import_module("swlab")
    return SimpleNamespace(**{m: importlib.import_module(f"swlab.{m}") for m in MODULES})


# --- canonical outputs ---


def plain(obj):
    """JSON data for a result: dataclasses become dicts of their fields,
    sets become sorted lists, and dicts with non-string keys become sorted
    lists of key/value pairs."""
    if dataclasses.is_dataclass(obj):
        return {f.name: plain(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if isinstance(obj, dict):
        if all(isinstance(k, str) for k in obj):
            return {k: plain(v) for k, v in obj.items()}
        return sorted(([plain(k), plain(v)] for k, v in obj.items()), key=_dumps)
    if isinstance(obj, (set, frozenset)):
        return sorted((plain(x) for x in obj), key=_dumps)
    if isinstance(obj, (list, tuple)):
        return [plain(x) for x in obj]
    return obj


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj) -> str:
    return hashlib.sha256(_dumps(obj).encode()).hexdigest()[:16]


def fold_digests(digests) -> str:
    """One digest for a run of per-operation digests (None marks a raise)."""
    return digest([d or "raised" for d in digests])


def _shift_weight_str(s: str, k: int) -> str:
    pairs = [tuple(int(x) for x in part.split(",")) for part in s.split(";")]
    a, b = pairs[0]
    pairs[0] = (a + k, b + k)
    return ";".join(f"{a},{b}" for a, b in pairs)


def untwist(obj, k: int, q: int):
    """Undo a central shift by ``k`` at coordinate 0: residues ``d`` of every
    class move back by ``k`` modulo ``q - 1``, weight strings lose ``(k, k)``
    on their first pair."""
    if k == 0:
        return obj
    if isinstance(obj, dict):
        out = {
            key: _shift_weight_str(v, -k) if key in ("mu", "lambda") else untwist(v, k, q)
            for key, v in obj.items()
        }
        if "r" in out and "d" in out:
            out["d"] = (out["d"] - k) % (q - 1)
        return out
    if isinstance(obj, list):
        return [untwist(x, k, q) for x in obj]
    return obj


def central_twist(sw, mu, k: int):
    f = mu.f
    return mu + sw.lattice.Weight(((k, k),) + ((0, 0),) * (f - 1))


def verify_rows(table: str) -> list[list[str]]:
    """The (check, config, pass/fail, counterexample) rows of a verify table.

    Columns are found by their header names, so an added column is ignored.
    Any status other than FAIL counts as a pass: a vacuous row may be given
    a status of its own without that reading as a failure.
    """
    lines = table.splitlines()
    cols = re.split(r"\s{2,}", lines[0].strip())
    rows = []
    for line in lines[1:]:
        fields = re.split(r"\s{2,}", line.strip(), maxsplit=len(cols) - 1)
        if len(fields) != len(cols):
            continue  # the summary line
        rec = dict(zip(cols, fields))
        status = "FAIL" if rec["status"] == "FAIL" else "pass"
        rows.append([rec["check"], rec["config"], status, rec.get("counterexample", "-")])
    return rows


# --- workloads ---


def shuffled_passes(n: int, seed: int):
    """Endless (index, pass) stream: each pass is a fresh seeded order."""
    rng = random.Random(seed)
    for k in itertools.count():
        order = list(range(n))
        rng.shuffle(order)
        for i in order:
            yield i, k


class Workload:
    """Common shape: a fixed population, one unit of operations per item.

    ``segments`` splits a unit's operations into runs that share one
    reference digest; a run ends only between units.  ``min_ops`` is the
    fewest operations a timed run makes, ``trace_prefix`` how many
    operations of a traced run are counted exactly, and ``setups`` how many
    times an end-to-end run sets up.
    """

    name = ""
    segments = (1,)
    min_ops = 100
    trace_prefix = 20
    setups = 9
    p, f = 11, 3

    def params(self, sw):
        return sw.lattice.Params(self.p, self.f)

    def population(self, sw) -> list:
        """Input generation, timed as part of set-up."""
        raise NotImplementedError

    def keys(self, population) -> list[str]:
        """One string per item, fingerprinting the population."""
        raise NotImplementedError

    def warm_up(self, sw, population):
        """The warm-up operation ends set-up.  It is the same for every seed,
        so that set-up time does not depend on the seed."""
        call, _canon = self.ops(sw, population, (0, 0))[0]
        call()

    def ops(self, sw, population, item) -> list:
        raise NotImplementedError

    def q(self, population, item) -> int:
        return self.p ** self.f


class D0Sweep(Workload):
    name = "d0_sweep"
    setups = 5  # each enumerates the 2742 parameters, about 1 s

    def population(self, sw):
        lat, wts = sw.lattice, sw.weights
        params = self.params(sw)
        out = []
        for m in itertools.product(range(2, self.p - 1), repeat=self.f):
            mu = lat.Weight(tuple((x, 0) for x in m))
            for flags in itertools.product((False, True), repeat=self.f):
                t = wts.TameParam(lat.WeylElement(flags), mu, params)
                if wts.is_one_generic(t) and wts.presentations_feasible(t):
                    out.append(t)
        return out

    def keys(self, population):
        return [f"{t.w.flags}|{t.mu.coords}" for t in population]

    def ops(self, sw, population, item):
        index, k = item
        base = population[index]
        t = sw.weights.TameParam(base.w, central_twist(sw, base.mu, k), base.params)
        d0 = sw.d0

        def call():
            rep = d0.d0_full(t)
            return (
                d0.radical_disjointness_check(rep),
                d0.upperbound_consistency(rep),
                d0.d0_report_json(rep),
            )

        def canon(out):
            return {"radical": out[0], "upper": out[1], "report": out[2]}

        return [(call, canon)]


class EnvelopeSweep(Workload):
    name = "envelope_sweep"
    segments = (1, 64)
    min_ops = 130
    trace_prefix = 130

    def population(self, sw):
        return [
            sw.lattice.Weight(tuple((x, 0) for x in m))
            for m in itertools.product(range(2, self.p - 1), repeat=self.f)
        ]

    def keys(self, population):
        return [str(mu.coords) for mu in population]

    def ops(self, sw, population, item):
        index, k = item
        params = self.params(sw)
        mu = central_twist(sw, population[index], k)
        env = sw.envelope
        skip = sw.errors.PreconditionViolation
        labels = sorted(env.JSet(a, b, self.f) for a in range(1 << self.f) for b in range(1 << self.f))

        def label_op(J):
            def call():
                vb = env.vbar_layers(params, mu, J)
                sub = env.v_submodule(params, mu, J)
                witnesses = []
                for Jp in J.covers():
                    try:
                        witnesses.append(env.extension_witness(params, mu, J, Jp))
                    except skip:
                        witnesses.append(None)
                return vb, sub, witnesses, env.hom_dim(params, mu, vb.layer0[1])

            return call, plain

        return [(lambda: env.envelope_report(params, mu), plain)] + [label_op(J) for J in labels]


class GraphEnum(Workload):
    name = "graph_enum"
    trace_prefix = 40
    # (p, f, radii); the mu pool is fixed so that every query has a reference
    GRID = ((11, 2, range(2, 9)), (11, 3, range(1, 4)), (101, 2, range(2, 9)), (101, 3, range(1, 4)))
    MUS_PER_FIELD = 32
    POOL_SEED = 20160826

    def population(self, sw):
        rng = random.Random(self.POOL_SEED)
        out = []
        for p, f, radii in self.GRID:
            params = sw.lattice.Params(p, f)
            for _ in range(self.MUS_PER_FIELD):
                pairings = [rng.randint(1, p - 1) for _ in range(f)]
                centre = [rng.randint(-2, 2) for _ in range(f)]
                mu = sw.lattice.Weight(tuple((m + b, b) for m, b in zip(pairings, centre)))
                out.extend((params, mu, r) for r in radii)
        return out

    def keys(self, population):
        return [f"{params.p},{params.f}|{mu.coords}|{r}" for params, mu, r in population]

    def q(self, population, item):
        return population[item[0]][0].q

    def ops(self, sw, population, item):
        index, k = item
        params, mu, radius = population[index]
        mu = central_twist(sw, mu, k)
        graph = sw.graph
        return [(lambda: graph.graph_json(graph.enumerate_graph(params, mu, radius)), plain)]


class VerifyGrid(Workload):
    """``swlab verify --p 5 --f 2`` through ``cli.main``, one seeded
    ``--seed`` per operation.

    One config per operation, the same for every operation: the whole
    default grid takes 2-4 s, which leaves a run too few samples for a
    steady p90, and cycling over its four configs puts the median on the
    boundary between two of their latency clusters.  p=5 f=2, about 0.3 s,
    is the cheapest config of the default grid whose parameter sweeps are
    not empty (8 one-generic parameters, 2 of them feasible; p=5 f=1 has
    none).
    """

    name = "verify_grid"
    min_ops = 3
    trace_prefix = 4
    SEEDS = 16

    def population(self, sw):
        return list(range(self.SEEDS))

    def keys(self, population):
        return [str(s) for s in population]

    def warm_up(self, sw, population):
        """The cheapest config, p=5 f=1."""
        _run_cli(sw, ["verify", "--p", "5", "--f", "1"])

    def ops(self, sw, population, item):
        argv = ["verify", "--p", "5", "--f", "2", "--seed", str(population[item[0]])]

        def call():
            return _run_cli(sw, argv)

        def canon(result):
            return {"exit": result[0], "rows": verify_rows(result[1])}

        return [(call, canon)]


def _run_cli(sw, argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = sw.cli.main(argv)
    return code, out.getvalue()


WORKLOADS = {w.name: w for w in (D0Sweep(), EnvelopeSweep(), GraphEnum(), VerifyGrid())}
