"""Amplitude encoding of mass functions.

The target state puts amplitude +sqrt(m(F_i)) on basis state |i> with
the focal-set bitmask as basis index.  A binary tree of mass sums drives
one multi-controlled Y-rotation per node: level l (0-based from the
root) splits on qubit n-1-l, the |0> branch is the "left" child, and
leaf order therefore equals focal-index order.  The exported circuit
keeps exactly 2^n - 1 native controlled rotations, 2^{l} of them at
level l; the simulator applies each level as one multiplexed RY (one
angle per control pattern) from the same angles, amplitude for
amplitude the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dst.mass import MassFunction
from ..qsim.circuit import Circuit
from ..qsim.gates import RY
from ..qsim.state import StateVector, new_state


@dataclass(frozen=True)
class PreparationTree:
    """Subtree mass sums and RY angles, leaves in focal-index order.

    ``values[l][p]`` is the total mass of the focal sets whose top ``l``
    index bits equal ``p``; ``angles[l][p]`` is the RY angle
    2 arctan(sqrt(right/left)) applied for the split below that node,
    with angle 0 where both children are empty.
    """

    n: int
    values: tuple[np.ndarray, ...]
    angles: tuple[np.ndarray, ...]

    @property
    def root_value(self) -> float:
        return float(self.values[0][0])

    def node_value(self, level: int, path: int) -> float:
        return float(self.values[level][path])

    def node_angle(self, level: int, path: int) -> float:
        return float(self.angles[level][path])


def build_preparation_tree(m: MassFunction) -> PreparationTree:
    """Aggregate masses bottom-up and derive one RY angle per node.

    Starting from |0...0>, the |0>/|1> split of qubit n-1-level becomes
    cos(a/2) / sin(a/2), reproducing each node's left/right mass ratio.
    """
    n = m.frame.n
    values = [np.empty(0)] * (n + 1)
    values[n] = m.masses.copy()
    for level in range(n - 1, -1, -1):
        child = values[level + 1]
        values[level] = child[0::2] + child[1::2]

    angles = tuple(
        2.0 * np.arctan2(np.sqrt(child[1::2]), np.sqrt(child[0::2])) for child in values[1:]
    )
    return PreparationTree(n, tuple(values), angles)


def synthesize_preparation_circuit(tree: PreparationTree) -> Circuit:
    """One multi-controlled RY per tree node, for export.

    Controls pin the already-prepared higher qubits to the node's path.
    Empty subtrees still emit their (identity-angle) gates so the gate
    count stays exactly 2^n - 1.
    """
    n = tree.n
    circ = Circuit(n)
    for level in range(n):
        for path, alpha in enumerate(tree.angles[level]):
            controls = [
                (n - 1 - j, (path >> (level - 1 - j)) & 1) for j in range(level)
            ]
            circ.append(RY(alpha), n - 1 - level, controls)
    return circ


def prepare_bba_state(m: MassFunction) -> StateVector:
    """Apply the tree level by level; amplitudes come out as +sqrt(mass).

    Level l is one multiplexed RY on qubit n-1-l, controlled by the
    higher qubits n-l..n-1 whose pattern is the node's path.
    """
    tree = build_preparation_tree(m)
    n = tree.n
    state = new_state(n, 0)
    for level in range(n):
        state.apply_multiplexed_ry(tree.angles[level], n - 1 - level, range(n - level, n))
    return state


def encode_state(m: MassFunction) -> StateVector:
    """Direct amplitude write-down of sqrt(m), bypassing the circuit.

    Used by oracle backends; the circuit route must agree with this
    exactly and tests enforce it.
    """
    return StateVector(m.frame.n, np.sqrt(m.masses).astype(np.complex128))


__all__ = [
    "PreparationTree",
    "build_preparation_tree",
    "synthesize_preparation_circuit",
    "prepare_bba_state",
    "encode_state",
]
