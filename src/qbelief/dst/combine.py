"""Evidence combination rules."""

from __future__ import annotations

import numpy as np

from ..errors import TotalConflict
from .mass import MassFunction, require_same_frame
from .transforms import (
    b_from_mass,
    q_from_mass,
    subset_sum_inverse,
    superset_sum_inverse,
)

_CONFLICT_TOL = 1e-12


def combine_conjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Conjunctive rule: mass flows to intersections of focal sets.

    m(F) = sum over G & H = F of m1(G) * m2(H).  Computed as the
    commonality product q1 * q2 followed by inversion, which is the same
    sum in O(n 2^n).  The result may be subnormal (conflict mass on the
    empty set).
    """
    require_same_frame(m1, m2)
    q = q_from_mass(m1).values * q_from_mass(m2).values
    masses = superset_sum_inverse(q)
    masses[np.abs(masses) < 1e-15] = 0.0  # cancellation dust from the signed sum
    return MassFunction(m1.frame, masses)


def combine_disjunctive(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Disjunctive rule: mass flows to unions, via the b-product identity."""
    require_same_frame(m1, m2)
    b = b_from_mass(m1).values * b_from_mass(m2).values
    masses = subset_sum_inverse(b)
    masses[np.abs(masses) < 1e-15] = 0.0
    return MassFunction(m1.frame, masses)


def combine_dempster(m1: MassFunction, m2: MassFunction) -> MassFunction:
    """Dempster's rule: conjunctive combination renormalized off the empty set.

    Raises :class:`TotalConflict` when the conjunctive conflict reaches 1,
    i.e. the two inputs share no compatible focal sets.
    """
    cap = combine_conjunctive(m1, m2)
    return MassFunction(m1.frame, renormalize_conflict(cap, _CONFLICT_TOL))


def renormalize_conflict(cap: MassFunction, tol: float) -> np.ndarray:
    """Masses of a conjunctive combination divided by 1 - m({}), with the
    empty set zeroed.  Raises :class:`TotalConflict` when the conflict
    m({}) is within ``tol`` of 1."""
    conflict = float(cap.masses[0])
    if conflict >= 1.0 - tol:
        raise TotalConflict(f"conjunctive conflict {conflict} leaves nothing to renormalize")
    masses = cap.masses / (1.0 - conflict)
    masses[0] = 0.0
    return masses


__all__ = ["combine_conjunctive", "combine_disjunctive", "combine_dempster", "renormalize_conflict"]
