"""OpenQASM 2.0 emission and circuit JSON serialization.

QASM is written straight from the preparation tree: each level, one
uniformly controlled RY, becomes the Gray-code multiplexor of Möttönen
et al. (quant-ph/0407010), 2^k ``ry`` lines interleaved with 2^k ``cx``
lines for k controls, with no cap on k.  A preparation on n qubits thus
prints 2^n - 1 ``ry`` and 2^n - 2 ``cx`` lines.  Circuit JSON keeps the
native multi-controlled form; the tests read it back with
``tests/oracles.py::circuit_from_json`` and check that the round trip is
lossless.
"""

from __future__ import annotations

import json

import numpy as np

from .qsim.circuit import Circuit
from .quantum.prepare import PreparationTree


def circuit_to_qasm(tree: PreparationTree) -> str:
    """Print a preparation tree as OpenQASM 2.0 text, one multiplexor per level."""
    lines = [
        "OPENQASM 2.0;",
        'include "qelib1.inc";',
        f"qreg q[{tree.n}];",
        f"creg c[{tree.n}];",
    ]
    for target, controls, angles in tree.levels():
        lines.extend(_multiplexed_ry(angles, target, controls))
    return "\n".join(lines) + "\n"


def _multiplexed_ry(angles: np.ndarray, target: int, controls: tuple[int, ...]) -> list[str]:
    """QASM lines of RY(angles[p]) on ``target`` wherever the controls read
    pattern p, controls[b] being bit b of p.

    Step i rotates by theta_i = WHT(angles)[gray(i)] / 2^k, then flips the
    target with a CX on the wire whose Gray bit flips next (the top wire
    on the wrap-around).  Before step i the target has been flipped on
    the wires of gray(i), so pattern p sees the sign
    (-1)^popcount(p & gray(i)) and the steps sum to angles[p].
    """
    k = len(controls)
    if k == 0:
        return [f"ry({angles[0]:.15g}) q[{target}];"]
    wht = np.array(angles, dtype=np.float64)
    for b in range(k):
        pairs = wht.reshape(-1, 2, 1 << b)
        low = pairs[:, 0].copy()
        pairs[:, 0] += pairs[:, 1]
        pairs[:, 1] = low - pairs[:, 1]
    steps = np.arange(1 << k)
    gray = steps ^ (steps >> 1)
    thetas = wht[gray] / (1 << k)
    flips = gray ^ np.roll(gray, -1)
    lines = []
    for theta, flip in zip(thetas.tolist(), flips.tolist()):
        lines.append(f"ry({theta:.15g}) q[{target}];")
        lines.append(f"cx q[{controls[flip.bit_length() - 1]}],q[{target}];")
    return lines


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


__all__ = ["circuit_to_qasm", "circuit_to_json"]
