"""Fast set-function transforms over the subset lattice.

All transforms run in O(n * 2^n) by sweeping one element (bit) at a
time, which matches the explicit 2^n x 2^n matrix products to within
floating-point rounding; the equivalence is part of the test suite.
"""

from __future__ import annotations

import numpy as np

from ..errors import InverseNotBBA
from .frame import popcounts
from .mass import BeliefVector, MassFunction


def _nbits(size: int) -> int:
    n = size.bit_length() - 1
    if 1 << n != size:
        raise ValueError(f"vector length {size} is not a power of two")
    return n


def _sweep(values: np.ndarray, upward: bool, sign: int) -> np.ndarray:
    """Add (sign +1) or subtract (sign -1) one half of every bit's pair into
    the other: the bit-clear half into the bit-set half when ``upward``
    (subset direction), the bit-set half into the bit-clear half otherwise.

    Bit k of an index is the middle axis of the (-1, 2, 2^k) view, so each
    pass is one in-place whole-array operation on two strided halves.
    """
    out = np.asarray(values, dtype=np.float64).copy()
    op = np.add if sign > 0 else np.subtract
    for k in range(_nbits(out.size)):
        view = out.reshape(-1, 2, 1 << k)
        src, dst = (view[:, 0], view[:, 1]) if upward else (view[:, 1], view[:, 0])
        op(dst, src, out=dst)
    return out


def subset_sum(values: np.ndarray) -> np.ndarray:
    """out[F] = sum of values[G] over G contained in F (zeta transform)."""
    return _sweep(values, upward=True, sign=1)


def subset_sum_inverse(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`subset_sum` (Moebius transform on subsets)."""
    return _sweep(values, upward=True, sign=-1)


def superset_sum(values: np.ndarray) -> np.ndarray:
    """out[F] = sum of values[G] over G containing F."""
    return _sweep(values, upward=False, sign=1)


def superset_sum_inverse(values: np.ndarray) -> np.ndarray:
    """Inverse of :func:`superset_sum` (alternating-sign superset sum)."""
    return _sweep(values, upward=False, sign=-1)


# --- belief / plausibility / commonality ------------------------------------


def bel_from_mass(m: MassFunction) -> BeliefVector:
    """Belief: total mass of the non-empty subsets of each set.

    Bel(F) = sum_{0 != G <= F} m(G), so Bel({}) = 0 even for subnormal
    inputs where the plain subset sum would return m({}).
    """
    b = subset_sum(m.masses)
    return BeliefVector(m.frame, "Bel", b - m.masses[0])


def b_from_mass(m: MassFunction) -> BeliefVector:
    """Implicability b(F) = Bel(F) + m({}), the unrestricted subset sum."""
    return BeliefVector(m.frame, "b", subset_sum(m.masses))


def pl_from_mass(m: MassFunction) -> BeliefVector:
    """Plausibility: total mass of the subsets meeting each set.

    Computed through the complement identity Pl(F) = 1 - m({}) - Bel(~F);
    reversing the dense Bel vector walks F -> ~F because the full-set
    index is 2^n - 1.
    """
    bel = subset_sum(m.masses) - m.masses[0]
    pl = (1.0 - m.masses[0]) - bel[::-1]
    pl[pl < 0] = 0.0  # clip float dust; Pl is non-negative by definition
    return BeliefVector(m.frame, "Pl", pl)


def q_from_mass(m: MassFunction) -> BeliefVector:
    """Commonality q(F) = total mass of the supersets of F; q({}) = 1."""
    return BeliefVector(m.frame, "q", superset_sum(m.masses))


def mass_from_q(q: BeliefVector) -> MassFunction:
    """Recover the mass function from a commonality vector.

    Raises :class:`InverseNotBBA` when the alternating-sign superset sum
    produces an entry below -1e-9, i.e. the input was not the commonality
    of any mass function.
    """
    masses = superset_sum_inverse(q.values)
    if masses.min() < -1e-9:
        raise InverseNotBBA(
            f"commonality inversion yields negative mass {masses.min():.3g}"
        )
    return MassFunction(q.frame, masses)


# --- fractal reallocation -----------------------------------------------------


def fbba(m: MassFunction) -> MassFunction:
    """Fractal reallocation: split each focal mass over its non-empty subsets.

    Every non-empty G donates m(G) / (2^|G| - 1) to each of its 2^|G| - 1
    non-empty subsets; empty-set mass passes through unchanged (block
    form of the reallocation matrix).  The result is again a valid mass
    function.
    """
    pc = popcounts(m.frame.n)
    w = np.zeros_like(m.masses)
    w[1:] = m.masses[1:] / (np.exp2(pc[1:]) - 1.0)
    out = superset_sum(w)
    out[0] = m.masses[0]
    return MassFunction(m.frame, out)


__all__ = [
    "subset_sum",
    "subset_sum_inverse",
    "superset_sum",
    "superset_sum_inverse",
    "bel_from_mass",
    "b_from_mass",
    "pl_from_mass",
    "q_from_mass",
    "mass_from_q",
    "fbba",
]
