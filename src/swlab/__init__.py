"""Exact Serre-weight combinatorics for GL2 over F_q.

A calculator for the extension graph on Serre weights, the filtration model
of generic projective envelopes, predicted weight sets of tame parameters,
and the blockwise multiplicity-free assembly attached to them, together
with an exhaustive small-case verification harness.
"""

from .errors import (
    CardinalityError,
    MultiplicityError,
    NotRegular,
    NotRestricted,
    PresentationError,
    PreconditionViolation,
    SwlabError,
)
from .lattice import (
    ExtAffineElement,
    LambdaWElement,
    Params,
    SerreWeightClass,
    Weight,
    WeylElement,
    dim_serre,
    eta,
    herzig_reflect,
    herzig_reflect_inv,
    is_deep,
    is_generic_char,
    is_regular,
    p_dot,
    serre_class,
    stabilizes_base_alcove,
)
from .graph import (
    EDecomposition,
    GraphEnumeration,
    adjacent,
    decompose,
    enumerate_graph,
    ext1_dim,
    in_graph,
    omega_element,
    recenter_check,
    t_mu,
    t_mu_raw,
)
from .weights import (
    Presentation,
    TameParam,
    is_one_generic,
    is_one_generic_pair,
    jh_dl_reduction,
    presentation,
    presentations,
    presentations_feasible,
    s_w,
    w_question,
)
from .envelope import (
    GradedReport,
    JSet,
    MultiIndex,
    SubmoduleLabel,
    extension_witness,
    fil_index_intersect,
    fil_meet,
    graded_pieces,
    hom_dim,
    k_of,
    sigma_label,
    tensor_translate,
    v_submodule,
    vbar_layers,
)
from .d0 import (
    D0Report,
    D0SigmaReport,
    d0_full,
    d0_sigma,
    radical_disjointness_check,
    upperbound_consistency,
)

__version__ = "0.1.0"
