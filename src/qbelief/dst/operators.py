"""Transform matrices as operators: their action on a vector and their norm.

The oracle evolution backend uses a matrix A only through A x and its
spectral norm ||A||_2, as phase-estimation linear solvers do (Harrow,
Hassidim and Lloyd, arXiv:0811.3171).  :func:`transform_operator` gives
both for the transform kinds the pipelines evolve, without the 2^n x 2^n
matrix:

- ``matvec`` runs the O(n 2^n) lattice sweeps of
  :mod:`qbelief.dst.transforms` (the fast Moebius transforms of Kennes,
  IEEE T-SMC 1992), an elementwise product for ``diag``, and two sweeps
  around a singleton scatter for ``bet``.  The sweeps are real, so a
  complex vector goes through as its real and imaginary parts.
- ``norm`` is closed form: max|v| for ``diag``; for every other kind the
  largest singular value of the (n+1) x (n+1) cardinality quotient (see
  :func:`_quotient_norm`).
- ``dense()`` is :func:`~qbelief.dst.matrices.transform_matrix`, under
  its dense budget.

:func:`as_operator` puts an explicit matrix behind the same interface;
its norm is then the SVD's.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

import numpy as np

from ..errors import DimensionMismatch, ValidationError
from .frame import popcounts, singleton_indices
from .matrices import KINDS, transform_matrix
from .transforms import subset_sum, subset_sum_inverse, superset_sum, superset_sum_inverse


class TransformOperator:
    """The ``kind`` transform matrix of an n-element frame, by its action."""

    def __init__(self, kind: str, n: int, v: np.ndarray | None = None):
        size = 1 << n
        if kind not in KINDS:
            raise DimensionMismatch(f"no operator for kind {kind!r}; known kinds: {KINDS}")
        if kind == "diag":
            if v is None:
                raise DimensionMismatch("diag kind needs a vector")
            v = np.asarray(v, dtype=np.float64)
            if v.shape != (size,):
                raise DimensionMismatch(f"diag vector has shape {v.shape}, expected ({size},)")
            if not np.isfinite(v).all():
                raise ValidationError("matrix entries must be finite")
        self.kind, self.n, self.v = kind, n, v
        self.shape = (size, size)

    @cached_property
    def norm(self) -> float:
        """The spectral norm ||A||_2, in closed form."""
        if self.kind == "diag":
            return float(np.abs(self.v).max())
        return _quotient_norm(self.kind, self.n)

    def dense(self) -> np.ndarray:
        """The explicit matrix, refused over the dense budget."""
        return transform_matrix(self.kind, self.n, self.v)

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """A @ x for a real or complex vector x."""
        x = np.asarray(x)
        if not np.iscomplexobj(x):
            return self._apply(x)
        out = self._apply(x.real).astype(np.complex128)
        out.imag = self._apply(x.imag)
        return out

    def _apply(self, x: np.ndarray) -> np.ndarray:
        kind = self.kind
        if kind == "diag":
            return self.v * x
        if kind == "q":
            return superset_sum(x)
        if kind == "q_inv":
            return superset_sum_inverse(x)
        if kind == "b":
            return subset_sum(x)
        if kind == "b_inv":
            return subset_sum_inverse(x)
        if kind == "bel":
            x = x.copy()
            x[0] = 0.0  # the empty set is no part of any belief
            return subset_sum(x)
        if kind == "pl":
            # Pl(F) = total - sum over the subsets of ~F, and ~F is index 2^n - 1 - F
            return x.sum() - subset_sum(x)[::-1]
        if kind == "fractal":
            out = superset_sum(_fractal_weights(self.n) * x)
            out[0] = x[0]  # the empty set keeps its own mass, as in fractal_masses
            return out
        # bet[F, G] = |F & G| / |G|: s_i = sum of x[G] / |G| over G holding i,
        # then out[F] = sum of s_i over i in F
        y = x / np.maximum(popcounts(self.n), 1)
        y[0] = 0.0
        e = np.zeros(y.size)
        singles = singleton_indices(self.n)
        e[singles] = superset_sum(y)[singles]
        return subset_sum(e)


class MatrixOperator:
    """An explicit square matrix behind the operator interface, stored
    float64 when its entries are real and complex128 when they are not."""

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=np.complex128 if np.iscomplexobj(matrix) else np.float64)
        if not np.isfinite(a).all():
            raise ValidationError("matrix entries must be finite")
        self.shape = a.shape
        self._a = a

    @cached_property
    def norm(self) -> float:
        """The spectral norm ||A||_2, from a full SVD."""
        return float(np.linalg.norm(self._a, 2))

    def dense(self) -> np.ndarray:
        return self._a

    def matvec(self, x: np.ndarray) -> np.ndarray:
        return self._a @ x


def transform_operator(kind: str, n: int, v: np.ndarray | None = None) -> TransformOperator:
    """The ``kind`` transform of an n-element frame as an operator.

    Kinds: ``diag`` (of the vector ``v``), ``q``, ``q_inv``, ``b``,
    ``b_inv``, ``bel``, ``pl``, ``fractal`` and ``bet``, with the matrices
    of :func:`~qbelief.dst.matrices.transform_matrix`.
    """
    return TransformOperator(kind, int(n), v)


def as_operator(matrix) -> TransformOperator | MatrixOperator:
    """``matrix`` itself if it is an operator, else the ndarray wrapped as one."""
    if isinstance(matrix, (TransformOperator, MatrixOperator)):
        return matrix
    return MatrixOperator(matrix)


@lru_cache(maxsize=None)
def _fractal_weights(n: int) -> np.ndarray:
    """1 / (2^|G| - 1) on each non-empty G, 1 on the empty set."""
    w = np.ones(1 << n)
    w[1:] = 1.0 / (np.exp2(popcounts(n)[1:]) - 1.0)
    w.flags.writeable = False
    return w


@lru_cache(maxsize=None)
def _quotient_norm(kind: str, n: int) -> float:
    """||A||_2 of a transform matrix from its cardinality quotient.

    Each kind but ``diag`` is nonnegative and commutes with every
    permutation of the frame's elements (``q_inv`` and ``b_inv`` up to the
    sign similarity P = diag((-1)^|F|): P A^-1 P = A, so they share the
    norm of ``q`` and ``b``).  So A^T A has a nonnegative top eigenvector
    (Perron-Frobenius), and averaging it over the permutations leaves one
    that depends on |F| alone.  ||A||_2 is therefore the largest singular
    value of A on the level vectors e_c = 1{|F| = c} / sqrt(C(n, c)):
    Q[c, d] = S[c, d] / sqrt(C(n, c) C(n, d)), with S[c, d] the sum of
    A[F, G] over |F| = c, |G| = d, counted here in closed form.
    """
    comb = np.array([[math.comb(a, b) for b in range(n + 1)] for a in range(n + 1)], dtype=float)
    levels = comb[n]
    c = np.arange(n + 1)[:, None]
    d = np.arange(n + 1)[None, :]
    if kind in ("q", "q_inv"):  # F <= G
        s = levels[d] * comb[d, c]
    elif kind in ("b", "b_inv", "bel"):  # G <= F, with no empty column for bel
        s = levels[c] * comb[c, d]
        if kind == "bel":
            s[:, 0] = 0.0
    elif kind == "pl":  # F and G meet
        s = levels[c] * (levels[d] - comb[n - c, d])
    elif kind == "fractal":  # F <= G weighted 1 / (2^|G| - 1); row 0 is e_0
        s = levels[d] * comb[d, c] / np.maximum(np.exp2(d) - 1.0, 1.0)
        s[0, 1:] = 0.0
    else:  # bet: sum of |F & G| = n C(n-1, c-1) C(n-1, d-1), over |G|
        s = np.zeros((n + 1, n + 1))
        inner = comb[n - 1, :n]
        s[1:, 1:] = n * np.outer(inner, inner) / np.arange(1, n + 1)
    q = s / np.sqrt(np.outer(levels, levels))
    return float(np.linalg.norm(q, 2))


__all__ = ["TransformOperator", "MatrixOperator", "transform_operator", "as_operator"]
