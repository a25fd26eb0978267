"""Command-line surface.

Exit codes: 0 on success, 1 when a structural theorem or internal check is
violated, 2 on malformed input or a precondition failure.  JSON is the
canonical machine format; DOT is render-only.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import d0 as d0_mod
from . import envelope, graph, lattice, verify, weights
from .errors import MultiplicityError, PresentationError, PreconditionViolation, SwlabError
from .lattice import Params


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swlab",
        description="Exact Serre-weight combinatorics for GL2 over F_q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, mu=True, w=False, radius=False, fmt=("json",)):
        sp.add_argument("--p", type=int, required=True, help="prime p >= 5")
        sp.add_argument("--f", type=int, required=True, help="degree f >= 1")
        if mu:
            sp.add_argument("--mu", required=True, help="weight, e.g. '4,0' or '3,1;2,0'")
        if w:
            sp.add_argument("--w", required=True, help="Weyl element over {e,s}, e.g. 'es'")
        if radius:
            sp.add_argument("--radius", type=int, default=2)
        sp.add_argument("--format", choices=list(fmt), default="json")

    sp = sub.add_parser("graph", help="enumerate the extension graph around mu")
    common(sp, radius=True, fmt=("json", "dot"))

    sp = sub.add_parser("weights", help="predicted weight set of a tame parameter")
    common(sp, w=True)

    sp = sub.add_parser("envelope", help="graded pieces of the projective envelope model")
    common(sp)

    sp = sub.add_parser("d0", help="blockwise multiplicity-free report")
    common(sp, w=True, fmt=("json", "dot"))

    sp = sub.add_parser("verify", help="run the verification suite")
    sp.add_argument("--p", default="5,7", help="comma-separated primes, default 5,7")
    sp.add_argument("--f", default="1,2", help="comma-separated degrees, default 1,2")
    sp.add_argument("--depth", type=int, default=1)
    sp.add_argument("--radius", type=int, default=2)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--cases", type=int, default=10000)
    return parser


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, indent=2) + "\n")


def _fail_input(message: str) -> int:
    sys.stderr.write(f"error: {message}\n")
    return 2


def _parse_context(args) -> tuple[Params, lattice.Weight]:
    params = Params(args.p, args.f)
    mu = lattice.weight_from_str(args.mu, args.f)
    return params, mu


def _cmd_graph(args) -> int:
    params, mu = _parse_context(args)
    enum = graph.enumerate_graph(params, mu, args.radius)
    if args.format == "dot":
        sys.stdout.write(graph.graph_dot(enum))
    else:
        _emit(graph.graph_json(enum))
    return 0


def _generic_param(args) -> weights.TameParam:
    """The tame parameter (w, mu) of the arguments, which must be 1-generic
    and 1-deep at every recentred presentation."""
    params, mu = _parse_context(args)
    w = lattice.weyl_from_str(args.w, args.f)
    t = weights.TameParam(w, mu, params)
    if not weights.is_one_generic(t):
        raise PreconditionViolation("not 1-generic")
    if not weights.presentations_feasible(t):
        raise PreconditionViolation("not 1-deep at every recentred presentation")
    return t


def _cmd_weights(args) -> int:
    _emit(weights.weights_report(_generic_param(args)))
    return 0


def _cmd_envelope(args) -> int:
    params, mu = _parse_context(args)
    _emit(envelope.envelope_report(params, mu))
    return 0


def _cmd_d0(args) -> int:
    t = _generic_param(args)
    try:
        rep = d0_mod.d0_full(t)
    except (MultiplicityError, PresentationError) as exc:
        sys.stderr.write(f"model violation: {exc}\n")
        return 1
    if args.format == "dot":
        sys.stdout.write(d0_mod.d0_dot(rep))
    else:
        _emit(d0_mod.d0_report_json(rep))
    if not (d0_mod.radical_disjointness_check(rep) and d0_mod.upperbound_consistency(rep)):
        return 1
    return 0


def _parse_int_list(raw: str, what: str) -> tuple[int, ...]:
    try:
        values = tuple(int(x) for x in raw.split(",") if x.strip())
    except ValueError:
        raise ValueError(f"{what} must be a comma-separated list of integers") from None
    if not values:
        raise ValueError(f"{what} list is empty")
    return values


def _cmd_verify(args) -> int:
    cfg = verify.SuiteConfig(
        p_list=_parse_int_list(args.p, "--p"),
        f_list=_parse_int_list(args.f, "--f"),
        depth=args.depth,
        radius=args.radius,
        cases=args.cases,
        seed=args.seed,
    )
    for p in cfg.p_list:
        for f in cfg.f_list:
            Params(p, f)
    outcomes = verify.run_suite(cfg)
    sys.stdout.write(verify.format_outcomes(outcomes))
    return 0 if all(o.passed for o in outcomes) else 1


_COMMANDS = {
    "graph": _cmd_graph,
    "weights": _cmd_weights,
    "envelope": _cmd_envelope,
    "d0": _cmd_d0,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, PreconditionViolation) as exc:
        return _fail_input(str(exc))
    except SwlabError as exc:
        sys.stderr.write(f"model violation: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
