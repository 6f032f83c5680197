"""Gate definitions.

The program's gates are the single-qubit X, H and RY, with the
convention RY(a) = [[cos a/2, -sin a/2], [sin a/2, cos a/2]], so ``ry``
lines emitted to OpenQASM 2.0 reproduce the same matrix under qelib1.inc.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_SQRT2 = np.sqrt(2.0)


@dataclass(frozen=True)
class Gate:
    kind: str
    params: tuple[float, ...] = field(default=())

    def matrix(self) -> np.ndarray:
        return gate_matrix(self.kind, self.params)

    def __repr__(self) -> str:
        if self.params:
            return f"{self.kind}({', '.join(f'{p:.6g}' for p in self.params)})"
        return self.kind


def X() -> Gate:
    return Gate("x")


def H() -> Gate:
    return Gate("h")


def RY(theta: float) -> Gate:
    return Gate("ry", (float(theta),))


def gate_matrix(kind: str, params: tuple[float, ...] = ()) -> np.ndarray:
    if kind == "x":
        return np.array([[0.0, 1.0], [1.0, 0.0]])
    if kind == "h":
        return np.array([[1.0, 1.0], [1.0, -1.0]]) / _SQRT2
    if kind == "ry":
        (theta,) = params
        c, s = np.cos(theta / 2.0), np.sin(theta / 2.0)
        return np.array([[c, -s], [s, c]])
    raise ValueError(f"unknown gate kind {kind!r}")


__all__ = ["Gate", "X", "H", "RY", "gate_matrix"]
