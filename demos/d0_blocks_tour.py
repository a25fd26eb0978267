#!/usr/bin/env python3
"""Blockwise assembly attached to a tame parameter.

One block per predicted weight: quotient the envelope model at the
recentred weight by the submodules pointing into the parameter's signed
set.  What survives are the labels disjoint from it, graded by size, and
across all blocks every class shows up exactly once.
"""

from swlab import Params, TameParam, Weight, WeylElement
from swlab.d0 import d0_dot, d0_full, radical_disjointness_check, upperbound_consistency

params = Params(7, 1)
t = TameParam(WeylElement((True,)), Weight(((4, 0),)), params)

rep = d0_full(t)
print(f"parameter w=s, mu=(4,0) over p=7: {len(rep.blocks)} blocks")
for block in rep.blocks:
    print(f"  block with cosocle r={block.sigma.r}, d={block.sigma.d}:")
    for J, cls, layer in block.constituents:
        print(f"    layer {layer}: r={cls.r}, d={cls.d}")
print()
print("multiplicity free:", len(rep.all_constituents) == 4 ** params.f)
print("radical avoids the cosocles:", radical_disjointness_check(rep))
print("hom-dimension bounds hold:", upperbound_consistency(rep))
print()

# a two-coordinate parameter: 4 blocks x 4 constituents, all distinct
params2 = Params(7, 2)
t2 = TameParam(WeylElement((True, True)), Weight(((3, 0), (3, 0))), params2)
rep2 = d0_full(t2)
classes = {(c.r, c.d) for c in rep2.all_constituents}
print(f"f = 2 all-swap parameter: {len(rep2.blocks)} blocks, {len(classes)} distinct classes")
print()
print(d0_dot(rep))
