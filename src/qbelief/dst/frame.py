"""Frame of discernment and bitmask indexing of its power set.

A frame with elements ``(e1, ..., en)`` indexes every subset by an integer
in ``[0, 2^n)``: bit ``k-1`` is set iff element ``e_k`` belongs to the
subset.  Index 0 is the empty set, index ``2^n - 1`` the whole frame.
This makes the subset index and the basis-state index of an ``n``-qubit
register the same integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..errors import UnknownElement, ValidationError

MAX_ELEMENTS = 20  # dense 2^n storage bound


@dataclass(frozen=True)
class Frame:
    """Ordered collection of mutually exclusive element labels."""

    elements: tuple[str, ...]

    def __init__(self, elements: Iterable[str]):
        elems = tuple(elements)
        if not elems:
            raise ValidationError("frame needs at least one element")
        if len(elems) > MAX_ELEMENTS:
            raise ValidationError(
                f"frame of {len(elems)} elements exceeds the dense-storage cap of {MAX_ELEMENTS}"
            )
        if any(not isinstance(e, str) or not e for e in elems):
            raise ValidationError("element labels must be non-empty strings")
        bit = {e: 1 << k for k, e in enumerate(elems)}
        if len(bit) != len(elems):
            raise ValidationError("element labels must be unique")
        object.__setattr__(self, "elements", elems)
        object.__setattr__(self, "_bit", bit)  # label -> singleton bitmask

    @property
    def n(self) -> int:
        return len(self.elements)

    @property
    def size(self) -> int:
        """Number of subsets, 2^n."""
        return 1 << self.n

    @property
    def full_set(self) -> int:
        return self.size - 1

    def index_of(self, focal: Iterable[str] | str) -> int:
        """Bitmask of a subset given by its element labels.

        A bare string is treated as a single element label; pass an
        iterable (possibly empty) for general subsets.
        """
        if isinstance(focal, str):
            focal = (focal,)
        bits = 0
        for label in focal:
            try:
                bits |= self._bit[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                raise UnknownElement(f"{label!r} is not an element of {self.elements}") from None
        return bits

    def labels_of(self, bits: int) -> tuple[str, ...]:
        """Element labels of the subset with the given bitmask."""
        if not 0 <= bits < self.size:
            raise ValidationError(f"subset index {bits} out of range for n={self.n}")
        return tuple(e for k, e in enumerate(self.elements) if bits >> k & 1)

    def format_subset(self, bits: int) -> str:
        labels = self.labels_of(bits)
        return "{" + ",".join(labels) + "}" if labels else "{}"


def popcounts(n: int) -> np.ndarray:
    """|F| for every subset index of an n-element frame."""
    return np.bitwise_count(np.arange(1 << n, dtype=np.uint32)).astype(np.int64)


def singleton_indices(n: int) -> np.ndarray:
    """Subset indices of the n singletons, in element order."""
    return np.left_shift(1, np.arange(n))


def membership(subsets: np.ndarray, n: int) -> np.ndarray:
    """(len(subsets), n) 0/1 matrix whose row i holds the bits of subsets[i]."""
    return ((subsets[:, None] >> np.arange(n)) & 1).astype(np.float64)
