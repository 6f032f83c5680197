"""Amplitude encoding of mass functions.

The target state puts amplitude +sqrt(m(F_i)) on basis state |i> with
the focal-set bitmask as basis index.  A binary tree of mass sums drives
one Y-rotation per node: level l (0-based from the root) splits on
qubit n-1-l, the |0> branch is the "left" child, and leaf order
therefore equals focal-index order.  ``PreparationTree.levels`` is the
one statement of that layout: each level is one uniformly controlled RY
with an angle per control pattern.  Both exports in ``qasm`` print the
levels without building a gate: QASM writes each as one Gray-code
multiplexor, and circuit JSON spells it out as 2^l native controlled
rotations, 2^n - 1 in all.

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

import numpy as np

from ..dst.mass import MassFunction
from ..qsim.state import StateVector


@dataclass(frozen=True)
class PreparationTree:
    """Subtree mass sums and RY angles, leaves in focal-index order.

    ``values[l][p]`` is the total mass of the focal sets whose top ``l``
    index bits equal ``p``; ``angles[l][p]`` is the RY angle
    2 arctan(sqrt(right/left)) applied for the split below that node,
    with angle 0 where both children are empty.  Each level is a view of
    one heap array (see ``_heaps``).
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


def _heaps(m: MassFunction) -> tuple[np.ndarray, np.ndarray]:
    """The node sums and the RY half-angles, each one heap array with
    level l at [2^l - 1, 2^(l+1) - 1), so node i has children 2i + 1 and
    2i + 2.

    The sums are added bottom-up, one level at a time; the half-angles
    come from one ``sqrt`` of every child sum, written as the contiguous
    rows of left and right children (``arctan2`` runs about a third slower
    on strided input), and one ``arctan2`` of those rows.  A node's RY
    angle is twice its half-angle h, and as scaling by 2 is exact, h is
    bit for bit the angle halved.
    """
    n = m.frame.n
    sums = np.empty((2 << n) - 1)
    sums[(1 << n) - 1:] = m.masses
    for level in range(n - 1, -1, -1):
        child = sums[(2 << level) - 1:(4 << level) - 1]
        np.add(child[0::2], child[1::2], out=sums[(1 << level) - 1:(2 << level) - 1])
    roots = np.empty((2, (1 << n) - 1))
    np.sqrt(sums[1:].reshape(-1, 2).T, out=roots)
    return sums, np.arctan2(roots[1], roots[0])


def _levels(heap: np.ndarray, count: int) -> tuple[np.ndarray, ...]:
    """The first ``count`` levels of a heap, root first, as views."""
    return tuple(heap[(1 << level) - 1:(2 << level) - 1] for level in range(count))


def build_preparation_tree(m: MassFunction) -> PreparationTree:
    """Aggregate masses bottom-up and derive one RY angle per node.

    Starting from |0...0>, the |0>/|1> split of qubit n-1-level becomes
    cos(a/2) / sin(a/2), reproducing each node's left/right mass ratio.
    """
    n = m.frame.n
    sums, half = _heaps(m)
    return PreparationTree(n, _levels(sums, n + 1), _levels(2.0 * half, n))


def prepare_bba_state(m: MassFunction) -> StateVector:
    """Double the amplitudes level by level, root first, in O(2^n); they
    come out as +sqrt(mass), in the bytes of the tree's circuit."""
    n = m.frame.n
    half = _heaps(m)[1]  # the sums are not kept
    cos = _levels(np.cos(half), n)
    sin = _levels(np.sin(half, out=half), n)
    amps = np.ones(1)
    for c, s in zip(cos, sin):
        doubled = np.empty((amps.size, 2))  # row p holds paths 2p and 2p + 1
        np.multiply(c, amps, out=doubled[:, 0])
        np.multiply(s, amps, out=doubled[:, 1])
        amps = doubled.reshape(-1)
    return StateVector(n, amps)


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
    "prepare_bba_state",
    "encode_state",
]
