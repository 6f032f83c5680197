"""Amplitude encoding of mass functions.

The target state puts amplitude +sqrt(m(F_i)) on basis state |i> with
the focal-set bitmask as basis index.  A binary tree of mass sums drives
one Y-rotation per node: level l (0-based from the root) splits on
qubit n-1-l, the |0> branch is the "left" child, and leaf order
therefore equals focal-index order.  ``PreparationTree.levels`` is the
one statement of that layout: each level is one uniformly controlled RY
with an angle per control pattern.  QASM export writes it as one
Gray-code multiplexor, and circuit JSON spells it out as 2^l native
controlled rotations, 2^n - 1 in all.

``prepare_bba_state`` runs no gate.  Before level l only the 2^l
amplitudes on the prepared prefix (every lower qubit at |0>) can be
non-zero, so it doubles them level by level: node p's amplitude a becomes
cos(angle/2) a and sin(angle/2) a on paths 2p and 2p + 1, 2^(n+1) - 2
products in all.  Every factor is non-negative and the target qubit's
amplitudes are +0 before its level, so the multiplexed RY computes the
same real products and its additions of +-0 leave them unchanged: the
state, real like every amplitude encoding, is byte-identical to |0...0>
with each level applied by ``StateVector.apply_multiplexed_ry``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

import numpy as np

from ..dst.mass import MassFunction
from ..qsim.circuit import Circuit, CircuitOp
from ..qsim.gates import RY
from ..qsim.state import StateVector


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

    def levels(self) -> list[tuple[int, tuple[int, ...], np.ndarray]]:
        """One ``(target, controls, angles)`` per level, root first.

        Level l rotates qubit n-1-l by ``angles[p]`` wherever the higher
        qubits n-l..n-1 read the node path p, ``controls[b]`` being bit b
        of p.
        """
        n = self.n
        return [
            (n - 1 - level, tuple(range(n - level, n)), angles)
            for level, angles in enumerate(self.angles)
        ]


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
    """One multi-controlled RY per tree node, for circuit JSON.

    Controls pin the already-prepared higher qubits to the node's path,
    highest qubit first.  Empty subtrees still emit their (identity-angle)
    gates so the gate count stays exactly 2^n - 1.  The levels are valid
    by construction, so the ops are built as they are, without the checks
    of ``Circuit.append``.
    """
    ops = [
        CircuitOp(RY(alpha), (target,), tuple(zip(controls[::-1], path)))
        for target, controls, angles in tree.levels()
        # the paths in index order, highest control bit first
        for alpha, path in zip(angles.tolist(), product((0, 1), repeat=len(controls)))
    ]
    return Circuit(tree.n, ops)


def prepare_bba_state(m: MassFunction) -> StateVector:
    """Double the amplitudes level by level, root first, in O(2^n); they
    come out as +sqrt(mass), in the bytes of the tree's circuit."""
    tree = build_preparation_tree(m)
    amps = np.ones(1)
    for angles in tree.angles:
        half = angles / 2.0
        doubled = np.empty((amps.size, 2))  # row p holds paths 2p and 2p + 1
        np.multiply(np.cos(half), amps, out=doubled[:, 0])
        np.multiply(np.sin(half), amps, out=doubled[:, 1])
        amps = doubled.reshape(-1)
    return StateVector(tree.n, amps)


def encode_state(m: MassFunction) -> StateVector:
    """Direct amplitude write-down of sqrt(m), bypassing the circuit.

    Used by oracle backends.  The amplitudes are real, stored float64 as
    the prepared ones are.  ``prepare_bba_state`` agrees with it to
    rounding, not bit for bit: the tests hold the prepared amplitudes to
    sqrt(m) within 1e-10.
    """
    return StateVector(m.frame.n, np.sqrt(m.masses))


__all__ = [
    "PreparationTree",
    "build_preparation_tree",
    "synthesize_preparation_circuit",
    "prepare_bba_state",
    "encode_state",
]
