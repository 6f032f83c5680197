"""OpenQASM 2.0 emission and circuit JSON serialization.

QASM output is restricted to the {x, ry, rz, h, cx} subset of qelib1, so
multi-controlled ops are decomposed first.  Circuit JSON keeps the
native multi-controlled form and round-trips losslessly.
"""

from __future__ import annotations

import json

from .errors import ValidationError
from .qsim.circuit import Circuit
from .qsim.decompose import decompose_circuit
from .qsim.gates import Gate

QASM_GATES = {"x", "ry", "rz", "h"}


def circuit_to_qasm(circuit: Circuit) -> str:
    """Decompose and print a circuit as OpenQASM 2.0 text."""
    flat = decompose_circuit(circuit)
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{circuit.k}];",
        f"creg c[{circuit.k}];",
    ]
    for op in flat.ops:
        kind = op.gate.kind
        if kind == "x" and len(op.controls) == 1:
            (ctrl, pol) = op.controls[0]
            if pol != 1:
                raise ValidationError("decomposition left an open control")
            lines.append(f"cx q[{ctrl}],q[{op.targets[0]}];")
            continue
        if op.controls:
            raise ValidationError(f"decomposition left controls on {kind}")
        if kind not in QASM_GATES:
            raise ValidationError(f"gate {kind} not in the QASM subset")
        args = f"({','.join(f'{p:.15g}' for p in op.gate.params)})" if op.gate.params else ""
        lines.append(f"{kind}{args} q[{op.targets[0]}];")
    return "\n".join(lines) + "\n"


def circuit_to_json(circuit: Circuit) -> str:
    ops = [
        {
            "gate": op.gate.kind,
            "params": list(op.gate.params),
            "targets": list(op.targets),
            "controls": [[q, pol] for q, pol in op.controls],
        }
        for op in circuit.ops
    ]
    return json.dumps({"schema": "qbelief/circuit-v1", "qubits": circuit.k, "ops": ops}, indent=2) + "\n"


def circuit_from_json(text: str) -> Circuit:
    doc = json.loads(text)
    if doc.get("schema") != "qbelief/circuit-v1":
        raise ValidationError(f"unknown circuit schema {doc.get('schema')!r}")
    circ = Circuit(int(doc["qubits"]))
    for op in doc["ops"]:
        gate = Gate(op["gate"], tuple(float(p) for p in op["params"]))
        targets = tuple(int(q) for q in op["targets"])
        controls = [(int(q), int(pol)) for q, pol in op["controls"]]
        circ.append(gate, targets if len(targets) > 1 else targets[0], controls)
    return circ


__all__ = ["QASM_GATES", "circuit_to_qasm", "circuit_to_json", "circuit_from_json"]
