"""Total-uncertainty measures, in bits (all logarithms base 2)."""

from __future__ import annotations

import numpy as np

from .mass import MassFunction
from .probability import pl_p
from .transforms import fractal_masses


def _shannon(p: np.ndarray) -> float:
    """Shannon entropy with the 0 * log 0 = 0 convention."""
    nz = p[p > 0]
    return float(-(nz * np.log2(nz)).sum())


def fb_entropy(m: MassFunction) -> float:
    """Shannon entropy of the fractal reallocation of ``m``.

    For a vacuous input over n elements this is log2(2^n - 1), strictly
    above the log2(n) of a uniform distribution for n >= 2.
    """
    return _shannon(fractal_masses(m))


def js_entropy(m: MassFunction) -> float:
    """Discord plus non-specificity: entropy of the normalized singleton
    plausibilities plus the mass-weighted log-cardinality term, both over
    the focal list."""
    discord = _shannon(pl_p(m))
    focal = m.focal[m.focal != 0]
    cards = np.bitwise_count(focal).astype(np.float64)  # uint8 would log2 in float16
    non_specificity = float((m.masses[focal] * np.log2(cards)).sum())
    return discord + non_specificity


__all__ = ["fb_entropy", "js_entropy"]
