"""Classical Dempster-Shafer engine.

Standalone library and the brute-force oracle every quantum pipeline in
:mod:`qbelief.quantum` is validated against.
"""

from .combine import combine_conjunctive, combine_dempster, combine_disjunctive
from .entropy import fb_entropy, js_entropy
from .frame import Frame, popcounts, singleton_indices
from .mass import BeliefVector, MassFunction, require_same_frame, validate_bba
from .matrices import transform_matrix
from .operators import transform_operator
from .probability import bet_m, betp, pl_p
from .similarity import (
    classical_fidelity,
    euclidean_distance,
    fb_inner_product,
    inner_bba,
    jousselme_distance,
)
from .transforms import (
    b_from_mass,
    bel_from_mass,
    fbba,
    mass_from_q,
    pl_from_mass,
    q_from_mass,
    subset_sum,
    subset_sum_inverse,
    superset_sum,
    superset_sum_inverse,
)

__all__ = [
    "Frame",
    "MassFunction",
    "BeliefVector",
    "validate_bba",
    "require_same_frame",
    "popcounts",
    "singleton_indices",
    "bel_from_mass",
    "b_from_mass",
    "pl_from_mass",
    "q_from_mass",
    "mass_from_q",
    "fbba",
    "subset_sum",
    "subset_sum_inverse",
    "superset_sum",
    "superset_sum_inverse",
    "transform_matrix",
    "transform_operator",
    "combine_conjunctive",
    "combine_disjunctive",
    "combine_dempster",
    "betp",
    "bet_m",
    "pl_p",
    "fb_entropy",
    "js_entropy",
    "jousselme_distance",
    "inner_bba",
    "euclidean_distance",
    "classical_fidelity",
    "fb_inner_product",
]
