"""OpenQASM 2.0 and circuit JSON, both written from the preparation tree.

QASM writes each level, one uniformly controlled RY, as the Gray-code
multiplexor of Möttönen et al. (quant-ph/0407010): 2^k ``ry`` lines
interleaved with 2^k ``cx`` lines for k controls, with no cap on k.  A
preparation on n qubits thus prints 2^n - 1 ``ry`` and 2^n - 2 ``cx``
lines.  Circuit JSON keeps the native multi-controlled form, one RY per
tree node, and is printed from templates of the layout that
``json.dumps(..., indent=2)`` gives; no gate object is built for either.
The tests read the JSON back with ``tests/oracles.py::circuit_from_json``
and hold its text to a ``json.dumps`` reference byte for byte.
"""

from __future__ import annotations

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


def preparation_to_json(tree: PreparationTree) -> str:
    """Print a preparation tree as circuit JSON: 2^n - 1 multi-controlled
    RYs, in the bytes of ``json.dumps(..., indent=2)`` of their dicts.

    Level l has one op per node path p, in index order, controlled on the
    l higher qubits, highest first, each paired with its bit of p.  Those
    control lists are written by doubling: the paths of level l + 1 are
    the paths of level l, each followed by the new lowest control at 0 and
    then at 1.  Angles are written by ``float.__repr__``, as ``json`` does.
    """
    ops: list[str] = []
    runs, close = [""], ""
    for target, controls, angles in tree.levels():
        if controls:
            sep = "," if runs[0] else ""
            pairs = [sep + _PAIR % (controls[0], bit) for bit in (0, 1)]
            runs = [run + pair for run in runs for pair in pairs]
            close = _CLOSE
        ops += [_OP % (angle, target, run, close) for angle, run in zip(angles.tolist(), runs)]
    # the header and the tail join the first and last ops, so the text is
    # copied once, by the join
    ops[0] = _HEAD % tree.n + ops[0]
    ops[-1] += _TAIL
    return ",\n".join(ops)


def circuit_json_floor(n: int) -> int:
    """A lower bound on the length of :func:`preparation_to_json`'s text on
    ``n`` qubits, from ``n`` alone: its layout with every number written as
    one character.

    Level l has 2^l ops with l control pairs each.  The ops are joined by
    a comma and a newline.  Each op but the root closes its control list
    on a line of its own and joins its pairs by commas, one fewer than
    it has pairs.
    """
    ops, pairs = (1 << n) - 1, ((n - 2) << n) + 2  # pairs: the sum of l 2^l
    return (len(_HEAD % 0 + _TAIL) - len(",\n") + ops * len(_OP % (0, 0, "", "") + ",\n")
            + pairs * len(_PAIR % (0, 0) + ",") + (ops - 1) * (len(_CLOSE) - len(",")))


__all__ = ["circuit_to_qasm", "preparation_to_json", "circuit_json_floor"]
