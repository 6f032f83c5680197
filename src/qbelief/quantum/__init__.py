"""Quantum constructions over the simulator, each backed by a classical oracle."""

from .meob import (
    BACKENDS,
    MEoBConfig,
    decode_eigenvalue,
    meob_apply,
)
from .pipelines import (
    belief_functions_qc,
    ccr_qc,
    dcr_qc,
    dempster_qc,
    evolve_mass,
    fb_inner_product_qc,
    fidelity_qc,
    ppt_qc,
    ptm_qc,
)
from .prepare import (
    PreparationTree,
    build_preparation_tree,
    encode_state,
    prepare_bba_state,
)
from .query import BeliefQuery, belief_query_circuit, estimate_belief
from .swap import swap_test

__all__ = [
    "PreparationTree",
    "build_preparation_tree",
    "prepare_bba_state",
    "encode_state",
    "BeliefQuery",
    "belief_query_circuit",
    "estimate_belief",
    "MEoBConfig",
    "meob_apply",
    "decode_eigenvalue",
    "BACKENDS",
    "swap_test",
    "evolve_mass",
    "belief_functions_qc",
    "ccr_qc",
    "dcr_qc",
    "dempster_qc",
    "ppt_qc",
    "ptm_qc",
    "fb_inner_product_qc",
    "fidelity_qc",
]
