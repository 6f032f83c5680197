"""Probability transforms: pignistic spread and normalized plausibilities."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateEmptyMass, ZeroPlausibility
from .frame import membership, singleton_indices
from .mass import BeliefVector, MassFunction
from .transforms import subset_sum

_EMPTY_TOL = 1e-12


def betp(m: MassFunction) -> np.ndarray:
    """Pignistic probabilities over the n elements.

    Each focal set spreads its mass uniformly over its elements; any
    empty-set mass is discarded by renormalizing with 1 / (1 - m({})).
    Runs over the focal list in O(|F| n).
    """
    empty = float(m.masses[0])
    if empty >= 1.0 - _EMPTY_TOL:
        raise DegenerateEmptyMass("all mass on the empty set; nothing to spread")
    focal = m.focal[m.focal != 0]
    cards = np.bitwise_count(focal).astype(np.float64)
    shares = m.masses[focal] / (cards * (1.0 - empty))
    return shares @ membership(focal, m.frame.n)


def bet_m(m: MassFunction) -> BeliefVector:
    """Pignistic spread extended to every subset (additive over elements)."""
    on_singletons = np.zeros(m.frame.size)
    on_singletons[singleton_indices(m.frame.n)] = betp(m)
    return BeliefVector(m.frame, "BetM", subset_sum(on_singletons))


def pl_p(m: MassFunction) -> np.ndarray:
    """Normalized singleton plausibilities (the transform commuting with
    Dempster combination).  Pl({k}) is the mass of the focal sets holding
    k, summed over the focal list in O(|F| n)."""
    pl = m.masses[m.focal] @ membership(m.focal, m.frame.n)
    total = float(pl.sum())
    if total <= _EMPTY_TOL:
        raise ZeroPlausibility("every singleton has zero plausibility")
    return pl / total


__all__ = ["betp", "bet_m", "pl_p"]
