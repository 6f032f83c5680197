"""Deterministic dense state-vector simulator."""

from .circuit import Circuit, CircuitOp
from .gates import RY, RZ, SWAP, U3, Gate, H, X, gate_matrix
from .linalg import hermiticity_defect, hermitian_eigh, matrix_exponential
from .qft import inverse_qft_circuit, qft_circuit
from .state import (
    ControlSpec,
    MeasurementRecord,
    StateVector,
    new_state,
    product_state,
    read_qubit,
)

__all__ = [
    "Gate",
    "X",
    "H",
    "RY",
    "RZ",
    "U3",
    "SWAP",
    "gate_matrix",
    "StateVector",
    "new_state",
    "product_state",
    "read_qubit",
    "ControlSpec",
    "MeasurementRecord",
    "Circuit",
    "CircuitOp",
    "qft_circuit",
    "inverse_qft_circuit",
    "hermitian_eigh",
    "matrix_exponential",
    "hermiticity_defect",
]
