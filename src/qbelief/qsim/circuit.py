"""Replayable circuits: ordered gate applications with control polarities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from ..errors import IndexOutOfRange, IndexOverlap, ValidationError
from .gates import Gate
from .state import StateVector, new_state


@dataclass(frozen=True)
class CircuitOp:
    """One application of a named gate on listed targets."""

    gate: Gate
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()

    def qubits(self) -> tuple[int, ...]:
        return self.targets + tuple(q for q, _ in self.controls)


@dataclass
class Circuit:
    k: int
    ops: list[CircuitOp] = field(default_factory=list)

    def append(
        self,
        gate: Gate,
        target: int | Sequence[int],
        controls: Iterable[tuple[int, int]] = (),
    ) -> "Circuit":
        targets = (target,) if isinstance(target, (int, np.integer)) else tuple(target)
        self._check(targets, controls := tuple(controls))
        self.ops.append(CircuitOp(gate, targets, controls))
        return self

    def append_circuit(self, other: "Circuit", qubit_map: Sequence[int] | None = None) -> "Circuit":
        """Splice another circuit in, wire j of ``other`` -> qubit_map[j]."""
        if qubit_map is None:
            qubit_map = list(range(other.k))
        for op in other.ops:
            targets = tuple(qubit_map[q] for q in op.targets)
            controls = tuple((qubit_map[q], pol) for q, pol in op.controls)
            self._check(targets, controls)
            self.ops.append(CircuitOp(op.gate, targets, controls))
        return self

    def _check(self, targets: tuple[int, ...], controls: tuple[tuple[int, int], ...]) -> None:
        used = list(targets) + [q for q, _ in controls]
        for q in used:
            if not 0 <= q < self.k:
                raise IndexOutOfRange(f"qubit {q} out of range for k={self.k}")
        if len(set(used)) != len(used):
            raise IndexOverlap(f"overlapping qubits in {targets} / {controls}")
        for q, pol in controls:
            if pol not in (0, 1):
                raise ValidationError(f"control polarity must be 0 or 1, got {pol} on qubit {q}")

    # --- metadata ---

    @property
    def gate_count(self) -> int:
        return len(self.ops)

    @property
    def depth(self) -> int:
        """Greedy wire-levelling depth."""
        level = [0] * self.k
        depth = 0
        for op in self.ops:
            qs = op.qubits()
            lvl = 1 + max(level[q] for q in qs)
            for q in qs:
                level[q] = lvl
            depth = max(depth, lvl)
        return depth

    # --- execution ---

    def run(self, state: StateVector) -> StateVector:
        """Replay onto an existing state, mutating it."""
        for op in self.ops:
            state.apply(op.gate, op.targets if len(op.targets) > 1 else op.targets[0], op.controls)
        return state

    def simulate(self, basis_index: int = 0) -> StateVector:
        return self.run(new_state(self.k, basis_index))

    def inverse(self) -> "Circuit":
        """Adjoint circuit: reversed order, conjugated parameters."""
        inv = Circuit(self.k)
        for op in reversed(self.ops):
            inv.ops.append(CircuitOp(_inverse_gate(op.gate), op.targets, op.controls))
        return inv


def _inverse_gate(gate: Gate) -> Gate:
    if gate.kind in ("x", "h", "swap"):
        return gate
    if gate.kind == "ry":
        return Gate("ry", (-gate.params[0],))
    if gate.kind == "rz":
        return Gate("rz", (-gate.params[0],))
    if gate.kind == "u3":
        theta, phi, lam = gate.params
        return Gate("u3", (-theta, -lam, -phi))
    raise ValueError(f"no inverse rule for {gate.kind}")


__all__ = ["Circuit", "CircuitOp"]
