"""OpenQASM 2.0 and circuit JSON, both written from the preparation tree.

QASM writes each level, one uniformly controlled RY, as the Gray-code
multiplexor of Möttönen et al. (quant-ph/0407010): 2^k ``ry`` lines
interleaved with 2^k ``cx`` lines for k controls, with no cap on k.  A
preparation on n qubits thus prints 2^n - 1 ``ry`` and 2^n - 2 ``cx``
lines.  Circuit JSON keeps the native multi-controlled form, one RY per
tree node, and is written to the output as it is made, a block of ops at
a time, from templates of the layout that ``json.dumps(..., indent=2)``
gives, so its memory does not grow with its text; no gate object is
built for either.  The tests read the JSON back with
``tests/oracles.py::circuit_from_json`` and hold its text to a
``json.dumps`` reference byte for byte.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

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


_HEAD = '{\n  "schema": "qbelief/circuit-v1",\n  "qubits": %d,\n  "ops": [\n'
_OP = ('    {\n      "gate": "ry",\n      "params": [\n        %r\n      ],\n'
       '      "targets": [\n        %d\n      ],\n      "controls": [%s%s]\n    }')
_PAIR = '\n        [\n          %d,\n          %d\n        ]'
_CLOSE = "\n      "  # before the ] of a control list that is not empty
_TAIL = "\n  ]\n}\n"


def preparation_to_json(tree: PreparationTree, write: Callable[[str], object]) -> None:
    """Write a preparation tree as circuit JSON to ``write``: 2^n - 1
    multi-controlled RYs, in the bytes of ``json.dumps(..., indent=2)`` of
    their dicts, one block at a time.

    Level l has one op per node path p, in index order, controlled on the
    l higher qubits, highest first, each paired with its bit of p.  Path
    ``hi * 2^k + lo``, with k = floor(l/2), lists the high run of ``hi``
    and then the low run of ``lo``; each list of runs is made by
    :func:`_control_runs`, and the 2^k ops of one high run are joined and
    written together, so no text of a whole level is held.  Angles are
    written by ``float.__repr__``, as ``json`` does.
    """
    write(_HEAD % tree.n)
    sep = ""
    for target, controls, angles in tree.levels():
        k = len(controls) // 2
        lows = _control_runs(controls[:k])
        close = _CLOSE if controls else ""
        for hi, high in enumerate(_control_runs(controls[k:])):
            block = angles[hi << k:(hi + 1) << k].tolist()
            write(sep + ",\n".join([_OP % (angle, target, high[1:] + low, close)
                                     for angle, low in zip(block, lows)]))
            sep = ",\n"
    write(_TAIL)


def _control_runs(controls: tuple[int, ...]) -> list[str]:
    """The control pairs of each pattern of ``controls``, in index order,
    ``controls[b]`` reading bit b: each pair with a comma before it, the
    highest control first.  Made by doubling: the runs of one more, lower
    control are those before, each followed by its pair at 0 and then at 1."""
    runs = [""]
    for qubit in reversed(controls):
        pairs = ["," + _PAIR % (qubit, bit) for bit in (0, 1)]
        runs = [run + pair for run in runs for pair in pairs]
    return runs


__all__ = ["circuit_to_qasm", "preparation_to_json"]
