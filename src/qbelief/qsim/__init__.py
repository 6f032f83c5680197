"""Deterministic dense state-vector simulator."""

from .circuit import Circuit, CircuitOp
from .gates import RY, Gate, H, X, gate_matrix
from .state import (
    ControlSpec,
    MeasurementRecord,
    StateVector,
    new_state,
    product_state,
    read_top_qubit,
)

__all__ = [
    "Gate",
    "X",
    "H",
    "RY",
    "gate_matrix",
    "StateVector",
    "new_state",
    "product_state",
    "read_top_qubit",
    "ControlSpec",
    "MeasurementRecord",
    "Circuit",
    "CircuitOp",
]
