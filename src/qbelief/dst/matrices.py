"""Explicit transform matrices over the power-set basis.

Dense 2^n x 2^n matrices with rows indexed by F and columns by G.  These
are the reference implementations the fast lattice transforms and the
operators of :mod:`qbelief.dst.operators` are tested against, and the
matrices the circuit evolution backend evolves.
"""

from __future__ import annotations

import numpy as np

from ..errors import DimensionMismatch, check_dense_budget
from .frame import Frame, popcounts

#: the kinds the evolution pipelines evolve, each also a transform operator
KINDS = ("diag", "q", "q_inv", "b", "b_inv", "bel", "pl", "fractal", "bet")

#: per-element 2x2 blocks (rows: element in F, columns: element in G) whose
#: n-fold Kronecker powers are the lattice matrices; ``pl`` is 1 minus the
#: power of ``disjoint``
_BLOCKS = {
    "q": [[1, 1], [0, 1]],
    "q_inv": [[1, -1], [0, 1]],
    "b": [[1, 0], [1, 1]],
    "b_inv": [[1, 0], [-1, 1]],
    "disjoint": [[1, 1], [1, 0]],
}


def _kron_power(block: str, n: int) -> np.ndarray:
    # integer products, so no -0.0 entries reach the float matrix; the
    # broadcast product is np.kron(factor, out) without its call overhead
    factor = np.array(_BLOCKS[block], dtype=np.int8)
    out = np.ones((1, 1), dtype=np.int8)
    for _ in range(n):
        size = 2 * out.shape[0]
        out = (factor[:, None, :, None] * out[None, :, None, :]).reshape(size, size)
    return out.astype(np.float64)


def transform_matrix(kind: str, frame_or_n: Frame | int, v: np.ndarray | None = None) -> np.ndarray:
    """Build the named transform matrix for an n-element frame.

    kind:
      - ``bel``: 1 iff G is a non-empty subset of F (maps masses to Bel)
      - ``b``:   1 iff G is a subset of F (maps masses to b)
      - ``pl``:  1 iff F and G intersect (maps masses to Pl)
      - ``q``:   1 iff F is a subset of G (maps masses to q)
      - ``q_inv``: inverse of ``q``, (-1)^|G - F| iff F is a subset of G
      - ``b_inv``: inverse of ``b``, (-1)^|F - G| iff G is a subset of F
      - ``fractal``: fractal reallocation; identity on the empty set,
        1/(2^|G| - 1) on non-empty F <= G
      - ``bet``: pignistic spread, |F & G| / |G| with a zero column on the
        empty set
      - ``diag``: diagonal of the supplied vector ``v``

    ``q``, ``b``, their inverses, ``bel``, ``pl`` and ``fractal`` are built
    from n-fold Kronecker powers of 2x2 blocks, one factor per element.
    """
    n = frame_or_n.n if isinstance(frame_or_n, Frame) else int(frame_or_n)
    check_dense_budget(8 << 2 * n, f"the {kind} matrix at n={n}")
    size = 1 << n
    if kind == "diag":
        if v is None:
            raise DimensionMismatch("diag kind needs a vector")
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (size,):
            raise DimensionMismatch(f"diag vector has shape {v.shape}, expected ({size},)")
        return np.diag(v)

    if kind in ("q", "q_inv", "b", "b_inv"):
        return _kron_power(kind, n)
    if kind == "bel":
        out = _kron_power("b", n)
        out[:, 0] = 0.0
        return out
    if kind == "pl":
        out = _kron_power("disjoint", n)
        return np.subtract(1.0, out, out=out)
    if kind == "fractal":
        pc = popcounts(n)
        weights = np.ones(size)
        weights[1:] = 1.0 / (np.exp2(pc[1:]) - 1.0)
        out = _kron_power("q", n)
        out *= weights
        out[0, 1:] = 0.0
        return out
    if kind == "bet":
        inv_card = np.zeros(size)
        inv_card[1:] = 1.0 / popcounts(n)[1:]
        idx = np.arange(size, dtype=np.uint16)  # n <= 12 under the dense budget
        out = np.bitwise_count(idx[:, None] & idx).astype(np.float64)
        out *= inv_card
        return out
    raise DimensionMismatch(f"unknown matrix kind {kind!r}; known kinds: {KINDS}")


__all__ = ["KINDS", "transform_matrix"]
