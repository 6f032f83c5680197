"""Swap-test overlap estimation.

Hadamard on an ancilla, one controlled SWAP per qubit pair, Hadamard
again: the ancilla reads 0 with

    Pr(0) = 1/2 (||s1||^2 ||s2||^2 + |<s1|s2>|^2)

(Buhrman, Cleve, Watrous and de Wolf, "Quantum fingerprinting",
quant-ph/0102001), so 2 Pr(0) - 1 estimates the squared overlap of two
unit states.  ``swap_test`` computes that closed form from the two
2^k-amplitude vectors in O(2^k): the overlap and both squared norms are
numpy pairwise sums of elementwise products, so no BLAS reduction enters
the read.  The 2k + 1-qubit register is never built, so nothing of its
4^k amplitudes needs a dense budget; the tests replay it gate by gate
(``tests/oracles.py``) and hold the read to the exact rational value of
the same amplitudes.  A sampled read draws the register's own stream:
a draw reads the ancilla as 0 when it falls below the closed-form
Pr(0), the CDF of the register at its half boundary.
"""

from __future__ import annotations

import numpy as np

from ..errors import QubitCountMismatch
from ..qsim.state import StateVector, read_top_qubit


def swap_test(
    s1: StateVector, s2: StateVector, shots: int | None = None, seed: int | None = None
) -> float:
    """Squared-overlap estimate 2 Pr(ancilla=0) - 1 of two equal-size states.

    Pr(ancilla=0) is exact, or, when ``shots`` is given, the fraction of
    ``shots`` samples drawn from ``seed`` that read 0.  The arithmetic
    follows the states' dtype: real when both states are real (every
    prepared state is), complex otherwise.
    """
    if s1.k != s2.k:
        raise QubitCountMismatch(f"register sizes differ: {s1.k} vs {s2.k}")
    a, b = s1.amps, s2.amps
    overlap = np.sum(np.conj(a) * b)
    norms = np.sum(np.conj(a) * a).real * np.sum(np.conj(b) * b).real
    p0 = 0.5 * (norms + (overlap.real * overlap.real + overlap.imag * overlap.imag))
    # the ancilla-0 half as one entry: its sum and its CDF are Pr(0)
    return 2.0 * read_top_qubit(np.array([p0]), None, 0, shots, seed) - 1.0


__all__ = ["swap_test"]
