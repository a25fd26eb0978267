"""Blockwise assembly of the multiplicity-free representation attached to a
tame parameter.

Each predicted weight heads one block: recentre the parameter at that
weight, quotient the envelope model by the submodules generated in the
direction of the parameter's signed set, and what remains are the labels
disjoint from it, graded by their size.  The blocks' label data is the whole
output; the dual object would carry the same labels with layers reversed,
so no separate structure is computed for it.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import envelope, lattice, weights
from .errors import MultiplicityError
from .lattice import Params, SerreWeightClass, Weight, WeylElement
from .weights import Presentation, TameParam

ASSUMPTIONS = ("V_J_exact",)


@dataclass(frozen=True)
class D0SigmaReport:
    """One block: constituents are the labels disjoint from the recentred
    signed set, graded by label size, with the empty label as cosocle."""

    sigma: SerreWeightClass
    lam: Weight
    w_sigma: WeylElement
    constituents: tuple[tuple[envelope.JSet, SerreWeightClass, int], ...]
    cosocle: SerreWeightClass


@dataclass(frozen=True)
class D0Report:
    param: TameParam
    blocks: tuple[D0SigmaReport, ...]
    all_constituents: tuple[SerreWeightClass, ...]


def _block(params: Params, pres: Presentation) -> D0SigmaReport:
    signs = weights.s_w(pres.w_sigma)
    f = params.f
    constituents = []
    for mask in range(1 << f):
        plus = 0
        minus = 0
        for i in range(f):
            if mask >> i & 1:
                # the signed element at i belonging to the parameter's set is
                # killed; only its opposite may appear
                if signs[i] == 1:
                    minus |= 1 << i
                else:
                    plus |= 1 << i
        J = envelope.JSet(plus, minus, f)
        constituents.append((J, envelope.sigma_label(params, pres.lam, J), J.size()))
    constituents.sort(key=lambda e: (e[2], e[0]))
    return D0SigmaReport(
        sigma=pres.sigma,
        lam=pres.lam,
        w_sigma=pres.w_sigma,
        constituents=tuple(constituents),
        cosocle=constituents[0][1],
    )


def d0_sigma(t: TameParam, label: int) -> D0SigmaReport:
    """The block attached to one hypercube label of the parameter."""
    return _block(t.params, weights.presentation(t, label))


def d0_full(t: TameParam) -> D0Report:
    """All blocks, with the global multiplicity check.  A repeated class
    anywhere is a model or implementation failure and raises; it is never
    silently accepted."""
    blocks = tuple(_block(t.params, pres) for pres in weights.presentations(t))
    seen: dict[SerreWeightClass, tuple[int, envelope.JSet]] = {}
    for b_idx, block in enumerate(blocks):
        for J, cls, _layer in block.constituents:
            if cls in seen:
                raise MultiplicityError(
                    f"class {cls} appears in block {seen[cls][0]} at {seen[cls][1]} "
                    f"and in block {b_idx} at {J}"
                )
            seen[cls] = (b_idx, J)
    return D0Report(param=t, blocks=blocks, all_constituents=tuple(sorted(seen)))


def radical_disjointness_check(rep: D0Report) -> bool:
    """No constituent strictly below a cosocle may itself be a cosocle."""
    cosocles = {block.cosocle for block in rep.blocks}
    for block in rep.blocks:
        for _J, cls, layer in block.constituents:
            if layer >= 1 and cls in cosocles:
                return False
    return True


def upperbound_consistency(rep: D0Report) -> bool:
    """Label-level surjectivity hypotheses: within each block its own
    cosocle occurs exactly once, every other predicted weight not at all,
    and no predicted weight occurs twice in any block."""
    wq = {block.cosocle for block in rep.blocks}
    for block in rep.blocks:
        classes = [cls for _J, cls, _layer in block.constituents]
        for kappa in wq:
            count = classes.count(kappa)
            if kappa == block.cosocle:
                if count != 1:
                    return False
            elif count != 0:
                return False
    return True


def d0_report_json(rep: D0Report) -> dict:
    return {
        "param": {
            "w": lattice.weyl_to_str(rep.param.w),
            "mu": lattice.weight_to_str(rep.param.mu),
        },
        "assumptions": list(ASSUMPTIONS),
        "blocks": [
            {
                "sigma": lattice.class_to_json(block.sigma),
                "lambda": lattice.weight_to_str(block.lam),
                "w_sigma": lattice.weyl_to_str(block.w_sigma),
                "constituents": [
                    {**envelope.jset_json(J), "r": list(c.r), "d": c.d, "layer": layer}
                    for J, c, layer in block.constituents
                ],
            }
            for block in rep.blocks
        ],
        # d0_full raises on a repeated class, so every report is free
        "multiplicity_free": True,
        "checks": {
            "radical_disjoint": radical_disjointness_check(rep),
            "upperbound_consistent": upperbound_consistency(rep),
        },
    }


def d0_dot(rep: D0Report) -> str:
    """Layered digraph, one cluster per block, edges along label covers."""
    lines = ["digraph d0 {", "  node [shape=box];", "  rankdir=BT;"]
    for b_idx, block in enumerate(rep.blocks):
        rs = ",".join(str(x) for x in block.sigma.r)
        lines.append(f"  subgraph cluster_{b_idx} {{")
        lines.append(f'    label="block r={rs}, d={block.sigma.d}";')
        names = {}
        for c_idx, (J, cls, layer) in enumerate(block.constituents):
            names[J] = f"b{b_idx}c{c_idx}"
            jr = ",".join(str(x) for x in cls.r)
            tag = "+".join(
                [f"+{i}" for i in range(J.f) if J.plus >> i & 1]
                + [f"-{i}" for i in range(J.f) if J.minus >> i & 1]
            ) or "0"
            lines.append(
                f'    {names[J]} [label="{tag} | r={jr}, d={cls.d}, layer {layer}"];'
            )
        for J, _cls, _layer in block.constituents:
            for Jp in J.covers():
                if Jp in names:
                    lines.append(f"    {names[J]} -> {names[Jp]};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"
