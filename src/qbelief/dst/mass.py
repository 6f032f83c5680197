"""Mass functions (basic belief assignments) over a frame's power set.

A mass function assigns each subset a weight in [0, 1] with the weights
summing to one.  Dense storage over all 2^n subsets, indexed by bitmask,
plus the focal list: the sorted indices of the subsets with non-zero
mass.  Sparse focal-set maps are accepted only at the ingestion boundary
(:func:`validate_bba`), which checks the listed masses alone and hands
the mass function its focal list; a computed vector is checked densely
and finds its focal list on first use.  Queries that need only the focal
sets (pignistic and plausibility transforms, non-specificity, fidelity,
the distances, the document form) run over that list, not over 2^n.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from numbers import Real
from typing import Iterable, Mapping

import numpy as np

from ..errors import (
    DuplicateFocalSet,
    FrameMismatch,
    MassSumViolation,
    NegativeMass,
    ValidationError,
)
from .frame import Frame, popcounts, singleton_indices

#: ingestion tolerance for user-supplied masses; internal identities are
#: held to 1e-10..1e-12 by the test suite
MASS_SUM_TOL = 1e-9


def _frozen(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class MassFunction:
    """Dense vector of subset masses over a frame, with its focal list.

    The vector is validated at construction and then immutable; every
    operation on mass functions is a pure function returning new values.
    :func:`validate_bba` builds one from listed masses, which it checks
    itself, and sets ``focal`` from the same list.
    """

    frame: Frame
    masses: np.ndarray = field(repr=False)

    def __init__(self, frame: Frame, masses: np.ndarray):
        masses = np.asarray(masses, dtype=np.float64)
        if masses.shape != (frame.size,):
            raise ValidationError(
                f"expected {frame.size} masses for n={frame.n}, got shape {masses.shape}"
            )
        if not np.all(np.isfinite(masses)):
            raise ValidationError("masses must be finite")
        if masses.min() < -MASS_SUM_TOL:
            bad = int(masses.argmin())
            raise NegativeMass(f"mass of subset {bad} is negative ({masses.min():.3g})")
        if masses.max() > 1.0 + MASS_SUM_TOL:
            raise ValidationError(f"mass exceeds 1 ({masses.max():.3g})")
        total = float(masses.sum())
        if abs(total - 1.0) > MASS_SUM_TOL:
            raise MassSumViolation(f"masses sum to {total!r}, expected 1")
        masses = masses.copy()
        masses[masses < 0.0] = 0.0  # tolerated dust would make sqrt(m) NaN
        masses.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "masses", masses)

    # --- special-shape flags (testable, derived) ---

    @property
    def subnormal(self) -> bool:
        """True iff some mass sits on the empty set."""
        return float(self.masses[0]) > 0.0

    @property
    def bayesian(self) -> bool:
        """True iff all focal sets are singletons."""
        return bool(np.all(np.bitwise_count(self.focal) == 1))

    @property
    def vacuous(self) -> bool:
        """True iff the whole frame carries mass one."""
        return float(self.masses[-1]) == 1.0

    @property
    def consonant(self) -> bool:
        """True iff the focal sets form a chain under inclusion."""
        support = sorted(self.focal.tolist(), key=int.bit_count)
        return all(a & b == a for a, b in zip(support, support[1:]))

    @cached_property
    def focal(self) -> np.ndarray:
        """Sorted int64 indices of the subsets with non-zero mass."""
        return _frozen(np.flatnonzero(self.masses).astype(np.int64, copy=False))

    @property
    def focal_sets(self) -> list[int]:
        return self.focal.tolist()

    def mass_of(self, focal: Iterable[str] | str | int) -> float:
        idx = focal if isinstance(focal, int) else self.frame.index_of(focal)
        return float(self.masses[idx])

    def __repr__(self) -> str:
        parts = ", ".join(
            f"{self.frame.format_subset(i)}: {self.masses[i]:.6g}" for i in self.focal.tolist()
        )
        return f"MassFunction({parts})"


@dataclass(frozen=True)
class BeliefVector:
    """A derived set function (Bel, Pl, q, b, BetM or a fractal reallocation)."""

    frame: Frame
    kind: str
    values: np.ndarray = field(repr=False)

    def __init__(self, frame: Frame, kind: str, values: np.ndarray):
        values = np.asarray(values, dtype=np.float64)
        if values.shape != (frame.size,):
            raise ValidationError("belief vector has wrong length for frame")
        values = values.copy()
        values.flags.writeable = False
        object.__setattr__(self, "frame", frame)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "values", values)

    def value_of(self, focal: Iterable[str] | str | int) -> float:
        idx = focal if isinstance(focal, int) else self.frame.index_of(focal)
        return float(self.values[idx])


def validate_bba(frame: Frame, focal_masses: Mapping) -> MassFunction:
    """Build a :class:`MassFunction` from a sparse focal-set map.

    Keys are subsets given as iterables of element labels (a bare string
    counts as one label) or as bitmasks; values are real masses.  Unlisted
    subsets get mass zero.  Only the listed masses are checked and
    summed, and the result carries its focal list (the listed subsets of
    non-zero mass), so no pass over the 2^n vector follows.  Raises
    :class:`UnknownElement`, :class:`DuplicateFocalSet`,
    :class:`NegativeMass` or :class:`MassSumViolation` on bad input.
    """
    index: list[int] = []
    values: list = []
    size = frame.size
    try:
        for focal, value in focal_masses.items():
            idx = focal if isinstance(focal, int) else frame.index_of(focal)
            if not 0 <= idx < size:
                raise ValidationError(f"subset index {idx} out of range")
            if not isinstance(value, Real):
                raise ValidationError(f"mass of {frame.format_subset(idx)} is not a real number")
            index.append(idx)
            values.append(value)
    except ValidationError as fault:
        raise _first_duplicate(frame, index) or fault from None
    return _from_listed(frame, index, values)


def _first_duplicate(frame: Frame, index: list[int]) -> DuplicateFocalSet | None:
    """The fault for the first subset, in listing order, that ``index`` lists
    twice, if any.  A listing that stops at a later entry's fault reports
    this one first."""
    seen: set[int] = set()
    for idx in index:
        if idx in seen:
            return DuplicateFocalSet(f"subset {frame.format_subset(idx)} listed twice")
        seen.add(idx)
    return None


def _from_listed(frame: Frame, index: list[int], values: list) -> MassFunction:
    """The mass function of listed subset indices and masses, checked once
    on the arrays: no subset twice, no negative, non-finite or above-one
    mass, and a sum of one.  Each fault names the first offending entry in
    listing order."""
    idx = np.array(index, dtype=np.int64)
    masses = np.array(values, dtype=np.float64)
    ranked = np.sort(idx)
    if np.count_nonzero(ranked[1:] == ranked[:-1]):
        raise _first_duplicate(frame, index)
    negative = masses < 0
    if np.count_nonzero(negative):
        i = int(negative.argmax())
        raise NegativeMass(f"mass of {frame.format_subset(index[i])} is negative ({values[i]})")
    if not np.isfinite(masses).all():
        raise ValidationError("masses must be finite")
    if masses.size and masses.max() > 1.0 + MASS_SUM_TOL:
        raise ValidationError(f"mass exceeds 1 ({masses.max():.3g})")
    total = float(masses.sum())
    if abs(total - 1.0) > MASS_SUM_TOL:
        raise MassSumViolation(f"masses sum to {total!r}, expected 1")
    dense = np.zeros(frame.size)
    dense[idx] = masses
    m = object.__new__(MassFunction)  # checked above; the unlisted masses are zero
    object.__setattr__(m, "frame", frame)
    object.__setattr__(m, "masses", _frozen(dense))
    object.__setattr__(m, "focal", _frozen(np.sort(idx[masses != 0.0])))
    return m


def require_same_frame(m1: MassFunction, m2: MassFunction) -> None:
    if m1.frame != m2.frame:
        raise FrameMismatch(
            f"operands live on different frames: {m1.frame.elements} vs {m2.frame.elements}"
        )


def demo_mass_function() -> MassFunction:
    """The three-element showcase assignment used by the demo command."""
    frame = Frame(["A", "B", "C"])
    ninth = Fraction(1, 9)
    masses = {
        ("A",): Fraction(1, 18),
        ("B",): Fraction(1, 6),
        ("C",): Fraction(1, 6),
        ("A", "B"): ninth,
        ("A", "C"): Fraction(1, 18),
        ("B", "C"): 2 * ninth,
        ("A", "B", "C"): 2 * ninth,
    }
    return validate_bba(frame, {k: float(v) for k, v in masses.items()})


def trend_mass_functions() -> tuple[Frame, list[tuple[str, MassFunction]], MassFunction]:
    """Ten-element trend fixtures: nested variable focal set vs a fixed
    certainty on the first five elements."""
    labels = [f"t{i}" for i in range(1, 11)]
    frame = Frame(labels)
    fixed = validate_bba(frame, {tuple(labels[:5]): 1.0})
    variants = []
    for k in range(1, 11):
        # masses accumulate when the moving set reaches the whole frame
        focal_masses: dict[int, float] = {}
        for focal, mass in [
            (tuple(labels[:k]), 0.8),
            (("t7",), 0.05),
            (("t2", "t3", "t4"), 0.05),
            (tuple(labels), 0.1),
        ]:
            idx = frame.index_of(focal)
            focal_masses[idx] = focal_masses.get(idx, 0.0) + mass
        moving = validate_bba(frame, focal_masses)
        variants.append(("+".join(labels[:k]), moving))
    return frame, variants, fixed


__all__ = [
    "MASS_SUM_TOL",
    "MassFunction",
    "BeliefVector",
    "validate_bba",
    "require_same_frame",
    "demo_mass_function",
    "trend_mass_functions",
    "popcounts",
    "singleton_indices",
]
