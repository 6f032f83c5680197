"""End-to-end quantum pipelines, each validated against the classical engine.

Every pipeline is a chain of matrix evolutions on an amplitude-encoded
mass function.  A leading diag(sqrt(m)) step turns the sqrt-amplitude
encoding into the mass vector itself (normalized), after which transform
matrices act on masses exactly as in the classical engine.  Outputs are
normalized states; where the classical target has a known total (mass
vectors and pignistic spreads sum to one) the scale is recovered from
measured magnitudes.

Each stage is built by :func:`~qbelief.dst.operators.transform_operator`:
the oracle backend applies it through its lattice sweeps and closed-form
norm, so no 2^n x 2^n matrix is built; the circuit backend evolves its
dense matrix.
"""

from __future__ import annotations

import numpy as np

from ..dst.combine import renormalize_conflict
from ..dst.frame import singleton_indices
from ..dst.mass import MassFunction, require_same_frame
from ..dst.operators import transform_operator
from ..dst.transforms import b_from_mass, q_from_mass
from ..errors import (
    DegenerateEmptyMass,
    ValidationError,
    ZeroPlausibility,
)
from ..qsim.state import StateVector
from .meob import MEoBConfig, meob_apply
from .prepare import encode_state, prepare_bba_state
from .query import BeliefQuery, _estimate_prepared
from .swap import swap_test


def _chain(
    m: MassFunction, matrices, config: MEoBConfig
) -> tuple[StateVector, float]:
    """Run consecutive evolutions starting from the encoded state.

    Returns the final state and the product of all postselection
    probabilities down the chain.
    """
    state = encode_state(m)
    success = 1.0
    for matrix in matrices:
        state, p = meob_apply(matrix, state, config)
        success *= p
    return state, success


def evolve_mass(m: MassFunction, matrix, config: MEoBConfig) -> tuple[StateVector, float]:
    """Apply a transform to the mass *vector*: diag(sqrt(m)), then ``matrix``
    (an operator or an ndarray, as :func:`meob_apply` takes).

    Output amplitudes are matrix @ masses, normalized.
    """
    n = m.frame.n
    diag = transform_operator("diag", n, np.sqrt(m.masses))
    return _chain(m, [diag, matrix], config)


_TRANSFORM_MATRIX = {"bel": "bel", "pl": "pl", "q": "q", "fbba": "fractal", "betm": "bet"}


def belief_functions_qc(m: MassFunction, kind: str, config: MEoBConfig) -> StateVector:
    """Normalized belief, plausibility, commonality, fractal-reallocation
    (``fbba``) or cardinality-spread (``betm``) vector as a quantum state.

    The result is meant for further quantum processing only: the vector's
    total is not an observable, so the classical scale cannot be
    recovered from measurements.
    """
    if kind not in _TRANSFORM_MATRIX:
        raise ValidationError(f"kind must be one of {sorted(_TRANSFORM_MATRIX)}, got {kind!r}")
    state, _ = evolve_mass(m, transform_operator(_TRANSFORM_MATRIX[kind], m.frame.n), config)
    return state


def _combination_chain(
    m1: MassFunction, m2: MassFunction, kind: str, lattice, config: MEoBConfig
) -> MassFunction:
    """Chain diag(sqrt(m1)) -> M -> diag(lattice(m2)) -> M^-1 with M the
    ``kind`` transform; the surviving magnitudes are proportional to the
    combined masses, whose true total is 1, so dividing by the measured
    sum recovers the combination."""
    require_same_frame(m1, m2)
    n = m1.frame.n
    ops = [
        transform_operator("diag", n, np.sqrt(m1.masses)),
        transform_operator(kind, n),
        transform_operator("diag", n, lattice(m2).values),
        transform_operator(kind + "_inv", n),
    ]
    state, _ = _chain(m1, ops, config)
    mags = np.abs(state.amps)
    mags[mags < 1e-9] = 0.0  # measurement floor: drop numerically dark states
    return MassFunction(m1.frame, mags / mags.sum())


def ccr_qc(m1: MassFunction, m2: MassFunction, config: MEoBConfig) -> MassFunction:
    """Conjunctive combination by matrix evolution over the q-transform
    (possibly with conflict mass on the empty set)."""
    return _combination_chain(m1, m2, "q", q_from_mass, config)


def dcr_qc(m1: MassFunction, m2: MassFunction, config: MEoBConfig) -> MassFunction:
    """Disjunctive combination by the mirrored chain over the b-transform."""
    return _combination_chain(m1, m2, "b", b_from_mass, config)


def dempster_qc(m1: MassFunction, m2: MassFunction, config: MEoBConfig) -> MassFunction:
    """Dempster's rule: quantum conjunctive combination, then the classical
    renormalization step (the normalization itself has no unitary form)."""
    masses = renormalize_conflict(ccr_qc(m1, m2, config), 1e-9)
    return MassFunction(m1.frame, masses / masses.sum())


def ppt_qc(m: MassFunction, config: MEoBConfig) -> np.ndarray:
    """Pignistic probabilities via the cardinality-spread matrix.

    Requires a normal input (no empty-set mass): the spread matrix has no
    empty-set handling, and the 1/(1 - m({})) factor would otherwise be a
    classical correction.
    """
    if float(m.masses[0]) > 1e-12:
        raise DegenerateEmptyMass("pignistic evolution needs m({}) = 0")
    state, _ = evolve_mass(m, transform_operator("bet", m.frame.n), config)
    mags = np.abs(state.amps)[singleton_indices(m.frame.n)]
    return mags / mags.sum()


def ptm_qc(m: MassFunction, shots: int | None = None, seed: int | None = None) -> np.ndarray:
    """Normalized singleton plausibilities from n extraction circuits, all
    run on one prepared state.

    Each plausibility is read exactly, or, when ``shots`` is given, from
    ``shots`` samples seeded ``seed + 2 j`` for singleton j.
    """
    n = m.frame.n
    probs = prepare_bba_state(m).probabilities()
    values = np.empty(n)
    for j in range(n):
        shot_seed = None if seed is None else seed + 2 * j
        values[j] = _estimate_prepared(probs, BeliefQuery("pl", 1 << j), shots, shot_seed)
    total = values.sum()
    if total <= 1e-12:
        raise ZeroPlausibility("every singleton has zero plausibility")
    return values / total


def fb_inner_product_qc(m1: MassFunction, m2: MassFunction, config: MEoBConfig) -> float:
    """Fractal-reallocation similarity via the swap test.

    Each input runs diag(sqrt(m_i)) then the fractal matrix, with all four
    evolution ancillas postselected before the swap test; the test yields
    the squared cosine, and the square root is the similarity (both
    vectors are non-negative).
    """
    require_same_frame(m1, m2)
    n = m1.frame.n
    mf = transform_operator("fractal", n)
    s1, _ = evolve_mass(m1, mf, config)
    s2, _ = evolve_mass(m2, mf, config)
    estimate = swap_test(s1, s2)
    return float(np.sqrt(max(estimate, 0.0)))


__all__ = [
    "evolve_mass",
    "belief_functions_qc",
    "ccr_qc",
    "dcr_qc",
    "dempster_qc",
    "ppt_qc",
    "ptm_qc",
    "fb_inner_product_qc",
]
