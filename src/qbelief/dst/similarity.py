"""Similarity and distance measures between mass functions."""

from __future__ import annotations

import numpy as np

from ..errors import ZeroVector
from .mass import MassFunction, require_same_frame
from .transforms import fractal_masses

#: rows of the focal-pair Jaccard block held at once
_JACCARD_ROWS = 512


def _focal_union(m1: MassFunction, m2: MassFunction) -> np.ndarray:
    """Sorted union of the two focal lists.  (``np.union1d`` would import
    ``numpy.ma`` on first use, about 15 ms of a cold CLI request.)"""
    both = np.sort(np.concatenate((m1.focal, m2.focal)))
    return both[np.concatenate(([True], both[1:] != both[:-1]))]


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
    union = _focal_union(m1, m2)
    d = m1.masses[union] - m2.masses[union]
    quad = _jaccard_form(union, union, d, d)
    return float(np.sqrt(max(0.5 * quad, 0.0)))


def inner_bba(m1: MassFunction, m2: MassFunction) -> float:
    """Jaccard-kernel inner product of the raw mass vectors, over the two
    focal lists."""
    require_same_frame(m1, m2)
    f1, f2 = m1.focal, m2.focal
    return _jaccard_form(f1, f2, m1.masses[f1], m2.masses[f2])


def euclidean_distance(m1: MassFunction, m2: MassFunction) -> float:
    """L2 distance scaled by 1/sqrt(2) so two disjoint certainties are 1 apart,
    over the union of the two focal lists."""
    require_same_frame(m1, m2)
    union = _focal_union(m1, m2)
    return float(np.linalg.norm(m1.masses[union] - m2.masses[union]) / np.sqrt(2.0))


def classical_fidelity(m1: MassFunction, m2: MassFunction) -> float:
    """Bhattacharyya overlap of the two mass vectors: sum of sqrt(m1 * m2),
    over the focal list of m1."""
    require_same_frame(m1, m2)
    f = m1.focal
    return float(np.sqrt(m1.masses[f] * m2.masses[f]).sum())


def fb_inner_product(m1: MassFunction, m2: MassFunction) -> float:
    """Cosine of the angle between the two fractal reallocations, in [0, 1]."""
    require_same_frame(m1, m2)
    f1 = fractal_masses(m1)
    f2 = fractal_masses(m2)
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
