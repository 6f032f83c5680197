"""Swap-test overlap estimation.

Hadamard on an ancilla, one controlled SWAP per qubit pair, Hadamard
again: Pr(ancilla = 0) = 1/2 + 1/2 |<s1|s2>|^2, so 2 Pr(0) - 1 estimates
the squared overlap.  The informative outcome is ancilla 0; the |1>
branch carries the antisymmetrized remainder.

On the (ancilla, s2, s1) = (2, 2^k, 2^k) view of the joint register the
k controlled SWAPs together exchange the two registers wherever the
ancilla reads 1, which is one transpose of that (2^k, 2^k) block.  Both
ancilla halves start as the (s2, s1) outer product, so the ancilla-0
half after the second Hadamard is h00 h00 P + h01 (h10 P)^T, and that
half alone decides the read.  ``swap_test`` computes only it, with the
Hadamard entries applied in the gate's order: it builds neither the
ancilla-1 half nor the 2k + 1-qubit register, and its exact and sampled
reads are byte-identical to the read of the register that
``swap_test_state`` replays gate by gate.  The register is still refused
before anything is allocated when its amplitudes would exceed the dense
budget, so the refusal does not depend on which of the two runs.
"""

from __future__ import annotations

import numpy as np

from ..errors import QubitCountMismatch, check_dense_budget
from ..qsim.gates import H
from ..qsim.state import StateVector, new_state, product_state, read_top_qubit


def _check_pair(s1: StateVector, s2: StateVector) -> None:
    if s1.k != s2.k:
        raise QubitCountMismatch(f"register sizes differ: {s1.k} vs {s2.k}")
    k = s1.k
    check_dense_budget(16 << (2 * k + 1), f"the {2 * k + 1}-qubit swap-test register")


def swap_test_state(s1: StateVector, s2: StateVector) -> StateVector:
    """The joint state the swap test leaves on |s1>|s2>|0>: registers
    [0, k) and [k, 2k), ancilla 2k."""
    _check_pair(s1, s2)
    k = s1.k
    joint = product_state([s1, s2, new_state(1, 0)])
    joint.apply(H(), 2 * k)
    swapped = joint.amps.reshape(2, 1 << k, 1 << k)[1]
    swapped[...] = swapped.T.copy()
    return joint.apply(H(), 2 * k)


def swap_test(
    s1: StateVector, s2: StateVector, shots: int | None = None, seed: int | None = None
) -> float:
    """Squared-overlap estimate 2 Pr(ancilla=0) - 1 of two equal-size states.

    Pr(ancilla=0) is exact, or, when ``shots`` is given, the fraction of
    ``shots`` samples drawn from ``seed`` that read 0.  The arithmetic
    follows the states' dtype, as the register's does: real when both
    states are real (every prepared state is), complex otherwise.
    """
    _check_pair(s1, s2)
    u = H().matrix()
    kept = np.outer(s2.amps, s1.amps)
    swapped = kept.T.copy()
    kept *= u[0, 0]  # in place, in the gates' order: h00 (h00 P) + h01 (h10 P^T)
    kept *= u[0, 0]
    swapped *= u[1, 0]
    swapped *= u[0, 1]
    kept += swapped
    del swapped  # the two blocks are all that is alive at once
    low = np.abs(kept)
    low **= 2
    return 2.0 * read_top_qubit(low.reshape(-1), None, 0, shots, seed) - 1.0


__all__ = ["swap_test", "swap_test_state"]
