"""Similarity and distance measures between mass functions."""

from __future__ import annotations

import numpy as np

from ..errors import ZeroVector
from .mass import MassFunction, require_same_frame
from .transforms import fbba

#: rows of the focal-pair Jaccard block held at once
_JACCARD_ROWS = 512


def _jaccard_form(f: np.ndarray, g: np.ndarray, wf: np.ndarray, wg: np.ndarray) -> float:
    """Bilinear form wf @ J[f][:, g] @ wg of the Jaccard kernel
    J(F, G) = |F & G| / |F | G| (J(empty, empty) = 1) on the subsets
    listed in ``f`` and ``g``, from popcounts, with no 4^n matrix."""
    total = 0.0
    for lo in range(0, f.size, _JACCARD_ROWS):
        rows = f[lo:lo + _JACCARD_ROWS, None]
        union = np.bitwise_count(rows | g)
        jac = np.bitwise_count(rows & g) / np.maximum(union, 1)
        jac[union == 0] = 1.0
        total += float(wf[lo:lo + _JACCARD_ROWS] @ jac @ wg)
    return total


def jousselme_distance(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-kernel quadratic distance, in [0, 1] with d(m, m) = 0.

    Computed over the union of the two focal lists in O(|F|^2)."""
    require_same_frame(m1, m2)
    union = np.flatnonzero((m1.masses != 0.0) | (m2.masses != 0.0))
    d = m1.masses[union] - m2.masses[union]
    quad = _jaccard_form(union, union, d, d)
    return float(np.sqrt(max(0.5 * quad, 0.0)))


def inner_bba(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-kernel inner product of the raw mass vectors, over the two
    focal lists."""
    require_same_frame(m1, m2)
    f1 = np.flatnonzero(m1.masses)
    f2 = np.flatnonzero(m2.masses)
    return _jaccard_form(f1, f2, m1.masses[f1], m2.masses[f2])


def euclidean_distance(m1: MassFunction, m2: MassFunction) -> float:
    """L2 distance scaled by 1/sqrt(2) so two disjoint certainties are 1 apart."""
    require_same_frame(m1, m2)
    return float(np.linalg.norm(m1.masses - m2.masses) / np.sqrt(2.0))


def classical_fidelity(m1: MassFunction, m2: MassFunction) -> float:
    """Bhattacharyya overlap of the two mass vectors: sum of sqrt(m1 * m2)."""
    require_same_frame(m1, m2)
    return float(np.sqrt(m1.masses * m2.masses).sum())


def fb_inner_product(m1: MassFunction, m2: MassFunction) -> float:
    """Cosine of the angle between the two fractal reallocations, in [0, 1]."""
    require_same_frame(m1, m2)
    f1 = fbba(m1).masses
    f2 = fbba(m2).masses
    n1 = float(np.linalg.norm(f1))
    n2 = float(np.linalg.norm(f2))
    if n1 == 0.0 or n2 == 0.0:
        # unreachable for valid mass functions, whose reallocations sum to 1
        raise ZeroVector("fractal reallocation is the zero vector")
    return float(np.clip(f1 @ f2 / (n1 * n2), 0.0, 1.0))


__all__ = [
    "jousselme_distance",
    "inner_bba",
    "euclidean_distance",
    "classical_fidelity",
    "fb_inner_product",
]
