"""Decomposition of multi-controlled gates into a basic gate library.

Everything reduces to single-qubit {x, h, ry, rz} plus CNOT (an ``x``
with one closed control).  Open controls become X-conjugation of the
control wire.  Closed-controlled rotations expand by the gray-code
multiplexed-rotation construction: 2^k target rotations of +/- angle/2^k
interleaved with CNOTs walking the gray code of the controls.  Phase
gates additionally recurse a half-angle phase onto the control set
(the alternating rotation angles sum to zero, so substituting phase
gates for true z-rotations costs no global factor).  The expansion is
exponential in the control count and capped at 8 controls.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from ..errors import TooManyControls, ValidationError
from .circuit import Circuit, CircuitOp
from .gates import RY, RZ, Gate, H, X

MAX_CONTROLS = 8

_Op = tuple[Gate, tuple[int, ...], tuple[tuple[int, int], ...]]


def decompose_multicontrolled(
    gate: Gate, target: int | Sequence[int], controls: Sequence[tuple[int, int]]
) -> list[CircuitOp]:
    """Rewrite a controlled gate over the {x, h, ry, rz, cx} library.

    Returns circuit ops acting identically to the original multi-controlled
    gate on every basis state (verified exhaustively in tests).
    """
    controls = tuple(controls)
    if len(controls) > MAX_CONTROLS:
        raise TooManyControls(
            f"{len(controls)} controls; decomposition capped at {MAX_CONTROLS}"
        )
    targets = (target,) if isinstance(target, (int, np.integer)) else tuple(target)
    ops: list[_Op] = []

    open_wires = [q for q, pol in controls if pol == 0]
    closed = tuple(q for q, _ in controls)
    for q in open_wires:
        ops.append((X(), (q,), ()))
    _emit(ops, gate, targets, closed)
    for q in open_wires:
        ops.append((X(), (q,), ()))
    return [CircuitOp(g, t, c) for g, t, c in ops]


def decompose_circuit(circuit: Circuit) -> Circuit:
    """Map every op of a circuit through the basic-library decomposition."""
    worst = max((len(op.controls) for op in circuit.ops), default=0)
    if worst > MAX_CONTROLS:
        raise TooManyControls(
            f"{worst} controls; decomposition capped at {MAX_CONTROLS}"
        )
    out = Circuit(circuit.k)
    for op in circuit.ops:
        tgt = op.targets if len(op.targets) > 1 else op.targets[0]
        out.ops.extend(decompose_multicontrolled(op.gate, tgt, op.controls))
    return out


def _trailing_ones(i: int) -> int:
    count = 0
    while i & 1:
        count += 1
        i >>= 1
    return count


def _emit_multiplexed(
    ops: list[_Op], kind: str, angle: float, target: int, controls: tuple[int, ...]
) -> None:
    """Rotate ``target`` by ``angle`` exactly when every control is 1.

    Gray-code walk: rotation i carries sign (-1)^{popcount(gray(i))} and
    magnitude angle / 2^k; the CNOT after step i is controlled by the
    wire whose gray bit flips next (the top wire on the wrap-around).
    """
    k = len(controls)
    n_steps = 1 << k
    base = angle / n_steps
    for i in range(n_steps):
        gray = i ^ (i >> 1)
        sign = -1.0 if bin(gray).count("1") % 2 else 1.0
        ops.append((Gate(kind, (sign * base,)), (target,), ()))
        wire = controls[_trailing_ones(i)] if i != n_steps - 1 else controls[k - 1]
        ops.append((X(), (target,), ((wire, 1),)))


def _emit(ops: list[_Op], gate: Gate, targets: tuple[int, ...], controls: tuple[int, ...]) -> None:
    kind = gate.kind
    if kind == "swap":
        a, b = targets
        ops.append((X(), (a,), ((b, 1),)))
        _emit(ops, X(), (b,), controls + (a,))
        ops.append((X(), (a,), ((b, 1),)))
        return

    (t,) = targets
    if kind == "u3":
        theta, phi, lam = gate.params
        _emit(ops, RZ(lam), targets, controls)
        _emit(ops, RY(theta), targets, controls)
        _emit(ops, RZ(phi), targets, controls)
        return
    if kind == "h":
        _emit(ops, RZ(np.pi), targets, controls)
        _emit(ops, RY(np.pi / 2.0), targets, controls)
        return
    if kind == "x":
        if len(controls) == 0:
            ops.append((X(), targets, ()))
        elif len(controls) == 1:
            ops.append((X(), targets, ((controls[0], 1),)))
        else:
            ops.append((H(), targets, ()))
            _emit(ops, RZ(np.pi), targets, controls)
            ops.append((H(), targets, ()))
        return
    if kind == "ry":
        (angle,) = gate.params
        if controls:
            _emit_multiplexed(ops, "ry", angle, t, controls)
        else:
            ops.append((RY(angle), targets, ()))
        return
    if kind == "rz":
        (angle,) = gate.params
        if controls:
            # phase iff target AND all controls are 1: multiplexed
            # z-rotation plus the half-angle phase on the control set
            _emit_multiplexed(ops, "rz", angle, t, controls)
            _emit(ops, RZ(angle / 2.0), (controls[-1],), controls[:-1])
        else:
            ops.append((RZ(angle), targets, ()))
        return
    raise ValidationError(f"no decomposition rule for gate {kind!r}")


__all__ = ["MAX_CONTROLS", "decompose_multicontrolled", "decompose_circuit"]
