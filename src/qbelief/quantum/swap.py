"""Swap-test overlap estimation.

Hadamard on an ancilla, one controlled SWAP per qubit pair, Hadamard
again: Pr(ancilla = 0) = 1/2 + 1/2 |<s1|s2>|^2, so 2 Pr(0) - 1 estimates
the squared overlap.  The informative outcome is ancilla 0; the |1>
branch carries the antisymmetrized remainder.

``swap_test`` runs the circuit as register operators on the
(ancilla, s2, s1) = (2, 2^k, 2^k) view of the amplitudes: the k
controlled SWAPs together exchange the two registers wherever the
ancilla reads 1, which is one transpose of that (2^k, 2^k) block.  The
two Hadamards are applied as the gate itself, so the state, and every
estimate and sampled count drawn from it, is bit-identical to the
circuit replayed gate by gate (``tests/oracles.py::swap_test_circuit``).
The 2k + 1-qubit register is refused before it is allocated when its
amplitudes would exceed the dense budget.
"""

from __future__ import annotations

from ..errors import QubitCountMismatch, check_dense_budget
from ..qsim.gates import H
from ..qsim.state import StateVector, new_state, product_state, read_qubit


def swap_test_state(s1: StateVector, s2: StateVector) -> StateVector:
    """The joint state the swap test leaves on |s1>|s2>|0>: registers
    [0, k) and [k, 2k), ancilla 2k."""
    if s1.k != s2.k:
        raise QubitCountMismatch(f"register sizes differ: {s1.k} vs {s2.k}")
    k = s1.k
    check_dense_budget(16 << (2 * k + 1), f"the {2 * k + 1}-qubit swap-test register")
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
    ``shots`` samples drawn from ``seed`` that read 0.
    """
    joint = swap_test_state(s1, s2)
    return 2.0 * read_qubit(joint, 2 * s1.k, 0, shots, seed) - 1.0


__all__ = ["swap_test", "swap_test_state"]
