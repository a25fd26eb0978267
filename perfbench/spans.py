"""Per-layer tracing from outside the package.

``Tracer.install`` replaces module attributes of ``swlab`` with timing
wrappers by ``setattr``.  Python looks a global name up in its module's
namespace at call time, so every call that goes through a module attribute
is caught: calls from other modules (``lattice.p_dot(...)``) and calls within
the module (``t_mu`` calling ``t_mu_raw``) alike.  A name bound by
``from ... import`` keeps the original function and is not caught; for
example ``eta``, which ``graph``, ``weights`` and ``envelope`` import
directly, and the names re-exported by ``swlab/__init__.py``.  The verify
checks are reached through the ``verify.CHECKS`` table, so that table is
replaced by one holding wrapped checks.

Each call records a span ``(name, start, end, parent, outcome)``.  Spans are
kept for one operation at a time; after each operation they are folded into
per-function call counts, self time (duration minus the time covered by
child spans) and inclusive time, and then dropped, so memory stays flat.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

LAYERS = {
    "lattice": ("p_dot", "serre_class", "herzig_reflect", "herzig_reflect_inv"),
    "graph": ("t_mu", "t_mu_raw", "in_graph", "omega_element", "adjacent", "enumerate_graph", "ext1_dim"),
    "weights": ("w_question", "presentations", "presentations_feasible", "is_one_generic_pair"),
    "envelope": (
        "sigma_label",
        "graded_pieces",
        "extension_witness",
        "vbar_layers",
        "v_submodule",
        "hom_dim",
        "envelope_report",
    ),
    "d0": ("d0_full", "d0_report_json", "radical_disjointness_check", "upperbound_consistency"),
}

# the checks of swlab.verify.CHECKS at the seed commit; a check added later
# is timed but not reported, a check removed later reads 0
VERIFY_CHECKS = (
    "p_dot_action",
    "ext_affine_group",
    "frobenius_order",
    "serre_class_orbit",
    "serre_class_injective",
    "deepness_monotone",
    "generic_implies_deep",
    "omega_uniqueness",
    "graph_injectivity",
    "graph_symmetry",
    "ext_predictor",
    "herzig_bijection",
    "wq_cardinality",
    "wq_genericity",
    "jh_roundtrip",
    "presentations_valid",
    "envelope_dimensions",
    "graded_multiplicity_free",
    "sigma_iff_omega",
    "tensor_translate",
    "extension_witnesses",
    "vbar_layers",
    "submodule_lattice",
    "filtration_lattice",
    "hom_span",
    "d0_multiplicity_one",
    "d0_presentation_independence",
    "d0_central_twist",
)

STATS = ("calls_per_op", "self_us_per_call", "self_share")

# name: (numerator, denominator), both counted over the exact prefix
RATIOS = {
    "graph.edge_hit_ratio": (("true", "graph.adjacent"), ("calls", "graph.adjacent")),
    "graph.member_ratio": (("true", "graph.in_graph"), ("calls", "graph.in_graph")),
    "weights.candidate_hit_ratio": (
        ("size", "weights.presentations"),
        ("calls", "weights.w_question<weights.presentations"),
    ),
    "envelope.witness_skip_ratio": (
        ("raised", "envelope.extension_witness:PreconditionViolation"),
        ("calls", "envelope.extension_witness"),
    ),
}


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = [f"{mod}.{fn}.{stat}" for mod, fns in LAYERS.items() for fn in fns for stat in STATS]
    names += [f"verify.{check}.s" for check in VERIFY_CHECKS]
    names.append("cli.main.self_us_per_call")
    names += list(RATIOS)
    names.append("trace.overhead_share")
    return names


def _outcome(result):
    if type(result) is bool:
        return result
    if type(result) is tuple:
        return len(result)
    return None


class Tracer:
    """Span recorder and per-function aggregates for one traced phase."""

    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._saved: list = []
        self.calls: Counter = Counter()  # exact, over the counted operations
        self.true: Counter = Counter()
        self.size: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_s: Counter = Counter()  # over every traced operation
        self.incl_s: Counter = Counter()
        self.timed_calls: Counter = Counter()
        self.ops = 0
        self.counted_ops = 0
        self.op_seconds = 0.0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx] = (name, start, clock(), parent, type(exc).__name__)
                raise
            finally:
                stack.pop()
            spans[idx] = (name, start, clock(), parent, _outcome(result))
            return result

        return traced

    def install(self, sw) -> None:
        for mod, fns in LAYERS.items():
            for fn in fns:
                self._replace(getattr(sw, mod), fn, f"{mod}.{fn}")
        self._replace(sw.cli, "main", "cli.main")
        self._saved.append((sw.verify, "CHECKS", sw.verify.CHECKS))
        sw.verify.CHECKS = tuple((name, self._wrap(f"verify.{name}", fn)) for name, fn in sw.verify.CHECKS)

    def _replace(self, module, attr: str, name: str) -> None:
        original = getattr(module, attr)
        self._saved.append((module, attr, original))
        setattr(module, attr, self._wrap(name, original))

    def remove(self) -> None:
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def fold(self, op_seconds: float, counted: bool) -> None:
        """Fold the spans of the operation just finished into the totals."""
        spans = self.spans
        child = [0.0] * len(spans)
        for _name, start, end, parent, _outcome in spans:
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, outcome) in enumerate(spans):
            dur = end - start
            self.timed_calls[name] += 1
            self.self_s[name] += dur - child[i]
            self.incl_s[name] += dur
            if not counted:
                continue
            self.calls[name] += 1
            if outcome is True:
                self.true[name] += 1
            elif type(outcome) is int:
                self.size[name] += outcome
            elif type(outcome) is str:
                self.raised[f"{name}:{outcome}"] += 1
            if parent >= 0:
                self.calls[f"{name}<{spans[parent][0]}"] += 1
        spans.clear()
        self.ops += 1
        self.counted_ops += counted
        self.op_seconds += op_seconds

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics, without the tracing overhead."""
        out = {}
        counters = {"calls": self.calls, "true": self.true, "size": self.size, "raised": self.raised}
        for mod, fns in LAYERS.items():
            for fn in fns:
                name = f"{mod}.{fn}"
                out[f"{name}.calls_per_op"] = self.calls[name] / max(self.counted_ops, 1)
                out[f"{name}.self_us_per_call"] = _per(self.self_s[name] * 1e6, self.timed_calls[name])
                out[f"{name}.self_share"] = _per(self.self_s[name], self.op_seconds)
        for check in VERIFY_CHECKS:
            out[f"verify.{check}.s"] = _per(self.incl_s[f"verify.{check}"], self.ops)
        out["cli.main.self_us_per_call"] = _per(self.self_s["cli.main"] * 1e6, self.timed_calls["cli.main"])
        for ratio, ((num_kind, num), (den_kind, den)) in RATIOS.items():
            out[ratio] = _per(counters[num_kind][num], counters[den_kind][den])
        return out


def _per(num: float, den: float) -> float:
    return num / den if den else 0.0
