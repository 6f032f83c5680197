"""Replayable circuits: ordered gate applications with control polarities."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from ..errors import IndexOutOfRange, IndexOverlap, ValidationError
from .gates import Gate
from .state import StateVector, new_state


@dataclass(frozen=True)
class CircuitOp:
    """One application of a named gate on listed targets."""

    gate: Gate
    targets: tuple[int, ...]
    controls: tuple[tuple[int, int], ...] = ()


@dataclass
class Circuit:
    k: int
    ops: list[CircuitOp] = field(default_factory=list)

    def append(
        self, gate: Gate, target: int, controls: Iterable[tuple[int, int]] = ()
    ) -> "Circuit":
        controls = tuple(controls)
        used = [target] + [q for q, _ in controls]
        for q in used:
            if not 0 <= q < self.k:
                raise IndexOutOfRange(f"qubit {q} out of range for k={self.k}")
        if len(set(used)) != len(used):
            raise IndexOverlap(f"overlapping qubits in {target} / {controls}")
        for q, pol in controls:
            if pol not in (0, 1):
                raise ValidationError(f"control polarity must be 0 or 1, got {pol} on qubit {q}")
        self.ops.append(CircuitOp(gate, (target,), controls))
        return self

    @property
    def gate_count(self) -> int:
        return len(self.ops)

    # --- execution ---

    def run(self, state: StateVector) -> StateVector:
        """Replay onto an existing state, mutating it."""
        for op in self.ops:
            state.apply(op.gate, op.targets[0], op.controls)
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
    if gate.kind in ("x", "h"):
        return gate
    if gate.kind == "ry":
        return Gate("ry", (-gate.params[0],))
    raise ValueError(f"no inverse rule for {gate.kind}")


__all__ = ["Circuit", "CircuitOp"]
