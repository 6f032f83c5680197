"""Probability transforms: pignistic spread and normalized plausibilities."""

from __future__ import annotations

import numpy as np

from ..errors import DegenerateEmptyMass, ZeroPlausibility
from .frame import popcounts, singleton_indices
from .mass import BeliefVector, MassFunction
from .transforms import pl_from_mass, subset_sum, superset_sum

_EMPTY_TOL = 1e-12


def betp(m: MassFunction) -> np.ndarray:
    """Pignistic probabilities over the n elements.

    Each focal set spreads its mass uniformly over its elements; any
    empty-set mass is discarded by renormalizing with 1 / (1 - m({})).
    """
    empty = float(m.masses[0])
    if empty >= 1.0 - _EMPTY_TOL:
        raise DegenerateEmptyMass("all mass on the empty set; nothing to spread")
    n = m.frame.n
    pc = popcounts(n).astype(np.float64)
    shares = np.zeros(m.frame.size)
    shares[1:] = m.masses[1:] / (pc[1:] * (1.0 - empty))
    return superset_sum(shares)[singleton_indices(n)]


def bet_m(m: MassFunction) -> BeliefVector:
    """Pignistic spread extended to every subset (additive over elements)."""
    on_singletons = np.zeros(m.frame.size)
    on_singletons[singleton_indices(m.frame.n)] = betp(m)
    return BeliefVector(m.frame, "BetM", subset_sum(on_singletons))


def pl_p(m: MassFunction) -> np.ndarray:
    """Normalized singleton plausibilities (the transform commuting with
    Dempster combination)."""
    pl = pl_from_mass(m).values[singleton_indices(m.frame.n)]
    total = float(pl.sum())
    if total <= _EMPTY_TOL:
        raise ZeroPlausibility("every singleton has zero plausibility")
    return pl / total


__all__ = ["betp", "bet_m", "pl_p"]
