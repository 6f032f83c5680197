"""Matrix exponentials for Hamiltonian-style evolution."""

from __future__ import annotations

import numpy as np

from ..errors import NotHermitian

_HERMITIAN_TOL = 1e-9


def hermiticity_defect(h: np.ndarray) -> float:
    h = np.asarray(h)
    return float(np.abs(h - h.conj().T).max())


def hermitian_eigh(h: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Ascending eigenvalues and the eigenvector columns of a Hermitian h.

    Raises :class:`NotHermitian` when h deviates from its adjoint by
    more than 1e-9.
    """
    h = np.asarray(h, dtype=np.complex128)
    defect = hermiticity_defect(h)
    if defect > _HERMITIAN_TOL:
        raise NotHermitian(f"matrix deviates from Hermiticity by {defect:.3g}")
    return np.linalg.eigh(h)


def matrix_exponential(h: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(i h t) for Hermitian h, via eigendecomposition.

    A scalar t gives one d x d matrix; a 1-D array of times gives one
    matrix per time, stacked along a leading axis, from a single
    diagonalization.  Diagonalizing once keeps repeated powers
    exp(i h t 2^j) free of the error accumulation a squared-product
    scheme would introduce.
    """
    evals, evecs = hermitian_eigh(h)
    phases = np.exp(1j * np.multiply.outer(t, evals))
    return (evecs * phases[..., None, :]) @ evecs.conj().T


__all__ = ["hermitian_eigh", "matrix_exponential", "hermiticity_defect"]
