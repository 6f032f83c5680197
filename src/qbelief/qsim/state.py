"""Dense state vectors and gate application on their tensor view.

Basis-state index bit j corresponds to qubit j (qubit 0 is the least
significant bit), so an n-qubit register prepared from an n-element
frame makes the basis index and the focal-set bitmask the same integer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from ..errors import (
    ImpossibleOutcome,
    IndexOutOfRange,
    IndexOverlap,
    NotUnitary,
    QubitCountMismatch,
    ValidationError,
)
from .gates import Gate

ControlSpec = Sequence[tuple[int, int]]  # (qubit, polarity in {0, 1}) pairs

_MIN_POSTSELECT_PROB = 1e-12
_SAMPLE_CHUNK = 1 << 20  # draws per block: 8 MB of uniforms at a time, whatever the shots


@dataclass
class MeasurementRecord:
    """Counts of computational-basis outcomes from a seeded sampler."""

    shots: int
    seed: int
    counts: dict[int, int]

    def frequency(self, index: int) -> float:
        return self.counts.get(index, 0) / self.shots


class StateVector:
    """Mutable amplitude vector over 2^k basis states, unit L2 norm.

    The amplitudes are float64 when their values are real and complex128
    when they are not: the constructor copies its input once into the one
    or the other, a new state starts real, the X, H and RY gates are real,
    and only ``apply_dense_unitary`` turns a real state complex.  Writing
    complex values into a real state would drop their imaginary part with
    numpy's ``ComplexWarning``, a ``RuntimeWarning``: pytest (through
    ``pyproject.toml``) and the CI entry-point step make that warning an
    error, so a missed promotion fails them rather than passing silently.
    """

    __slots__ = ("k", "amps")

    def __init__(self, k: int, amps: np.ndarray | None = None):
        if k < 1:
            raise ValidationError("need at least one qubit")
        self.k = k
        if amps is None:
            amps = np.zeros(1 << k)
            amps[0] = 1.0
        else:
            # one copy, real values stored real
            amps = np.array(amps, dtype=np.complex128 if np.iscomplexobj(amps) else np.float64)
            if amps.shape != (1 << k,):
                raise QubitCountMismatch(
                    f"amplitude vector of shape {amps.shape} does not fit {k} qubits"
                )
        self.amps = amps

    # --- constructors ---

    def copy(self) -> "StateVector":
        return StateVector(self.k, self.amps)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amps) ** 2

    # --- gate application ---

    def _control_index(self, controls: ControlSpec, targets: tuple[int, ...]) -> list[slice]:
        """Index into the (2,)*k view selecting the control-matching block.

        Qubit q is axis k - 1 - q; a control keeps its axis as a length-1
        slice, so every axis number stays valid in the selected view.
        """
        index = [slice(None)] * self.k
        seen = set(targets)
        for q, pol in controls:
            self._check_qubit(q)
            if q in seen:
                raise IndexOverlap(f"qubit {q} used twice in one operation")
            if pol not in (0, 1):
                raise ValidationError(f"control polarity must be 0 or 1, got {pol}")
            seen.add(q)
            index[self.k - 1 - q] = slice(pol, pol + 1)
        return index

    def _check_qubit(self, q: int) -> None:
        if not 0 <= q < self.k:
            raise IndexOutOfRange(f"qubit {q} out of range for k={self.k}")

    def apply(self, gate: Gate, target: int, controls: ControlSpec = ()) -> "StateVector":
        """Apply a single-qubit gate in place, restricted to control-matching amplitudes."""
        return self._apply_matrix(gate.matrix(), (target,), controls)

    def apply_dense_unitary(
        self, u: np.ndarray, targets: Sequence[int], controls: ControlSpec = ()
    ) -> "StateVector":
        """Apply an explicit unitary on a listed qubit subset.

        targets[j] carries bit j of the unitary's row/column index.  The
        unitary may be complex, so the state is complex from here on.
        """
        u = np.asarray(u, dtype=np.complex128)
        s = len(targets)
        if u.shape != (1 << s, 1 << s):
            raise QubitCountMismatch(f"matrix shape {u.shape} does not fit {s} target qubit(s)")
        err = np.abs(u @ u.conj().T - np.eye(1 << s)).max()
        if err > 1e-9:
            raise NotUnitary(f"matrix deviates from unitarity by {err:.3g}")
        self.amps = self.amps.astype(np.complex128, copy=False)
        return self._apply_matrix(u, tuple(targets), controls)

    def _apply_matrix(self, u: np.ndarray, targets: tuple[int, ...], controls: ControlSpec) -> "StateVector":
        for q in targets:
            self._check_qubit(q)
        if len(set(targets)) != len(targets):
            raise IndexOverlap(f"duplicate target qubits {targets}")
        index = self._control_index(controls, targets)
        view = self.amps.reshape((2,) * self.k)
        axes = [self.k - 1 - q for q in targets]

        if u.shape == (2, 2):
            index[axes[0]] = slice(0, 1)
            a0 = view[tuple(index)]
            index[axes[0]] = slice(1, 2)
            a1 = view[tuple(index)]
            new0 = u[0, 0] * a0 + u[0, 1] * a1
            a1[...] = u[1, 0] * a0 + u[1, 1] * a1
            a0[...] = new0
            return self

        # target j lands on axis -1 - j, so the trailing axes read as the
        # unitary's local index with targets[0] as its lowest bit
        moved = np.moveaxis(view[tuple(index)], axes, [-1 - j for j in range(len(axes))])
        moved[...] = (moved.reshape(-1, u.shape[0]) @ u.T).reshape(moved.shape)
        return self

    def apply_multiplexed_ry(
        self, angles: np.ndarray, target: int, controls: Sequence[int]
    ) -> "StateVector":
        """Uniformly controlled RY, in place: RY(angles[p]) on ``target``
        wherever the control qubits read pattern p, controls[b] being bit b
        of p.

        One pass over the amplitudes does the work of the 2^len(controls)
        controlled RYs it replaces, with the same arithmetic per amplitude.
        The program does not call it: it is the gate-level reference that
        ``prepare_bba_state`` is tested against, byte for byte.
        """
        controls = tuple(controls)
        angles = np.asarray(angles, dtype=np.float64)
        c = len(controls)
        if angles.shape != (1 << c,):
            raise QubitCountMismatch(
                f"{angles.shape} angles do not fit {c} control qubit(s)"
            )
        qubits = (target,) + controls
        for q in qubits:
            self._check_qubit(q)
        if len(set(qubits)) != len(qubits):
            raise IndexOverlap(f"qubit used twice in target {target} / controls {controls}")

        # controls[c-1] leads, so the first c axes read p row-major; the
        # target axis follows them
        view = np.moveaxis(
            self.amps.reshape((2,) * self.k),
            [self.k - 1 - q for q in reversed(controls)] + [self.k - 1 - target],
            range(c + 1),
        )
        a0 = view[(slice(None),) * c + (slice(0, 1),)]
        a1 = view[(slice(None),) * c + (slice(1, 2),)]
        half = angles / 2.0
        cos, sin, neg_sin = (
            x.reshape((2,) * c + (1,) * (self.k - c))
            for x in (np.cos(half), np.sin(half), -np.sin(half))
        )
        new0 = cos * a0 + neg_sin * a1
        a1[...] = sin * a0 + cos * a1
        a0[...] = new0
        return self

    # --- measurement ---

    def probability(self, qubit: int, outcome: int) -> float:
        self._check_qubit(qubit)
        if outcome not in (0, 1):
            raise ValidationError(f"outcome must be 0 or 1, got {outcome}")
        kept = self.amps.reshape(-1, 2, 1 << qubit)[:, outcome]
        return float(np.sum(np.abs(kept) ** 2))

    def postselect(self, qubit: int, outcome: int) -> tuple["StateVector", float]:
        """Project one qubit onto an outcome and renormalize, in place.

        Returns the state and the pre-renormalization probability mass.
        Raises :class:`ImpossibleOutcome` below probability 1e-12.
        """
        p = self.probability(qubit, outcome)
        if p < _MIN_POSTSELECT_PROB:
            raise ImpossibleOutcome(
                f"outcome {outcome} on qubit {qubit} has probability {p:.3g}"
            )
        self.amps.reshape(-1, 2, 1 << qubit)[:, 1 - outcome] = 0.0
        self.amps *= 1.0 / np.sqrt(p)
        return self, p

    def extract_register(self, qubits: Sequence[int], fixed: dict[int, int]) -> "StateVector":
        """Pull out the sub-state on ``qubits`` given every other qubit is
        fixed to a basis value (after postselection).

        qubits[j] carries bit j of the sub-state's index; a qubit in
        neither ``qubits`` nor ``fixed`` reads 0.
        """
        qubits = list(qubits)
        for q in [*qubits, *fixed]:
            self._check_qubit(q)
        if len(set(qubits)) != len(qubits) or set(qubits) & set(fixed):
            raise IndexOverlap(f"qubits {qubits} repeat or overlap fixed {sorted(fixed)}")
        if any(v not in (0, 1) for v in fixed.values()):
            raise ValidationError(f"fixed values must be 0 or 1, got {fixed}")
        m = len(qubits)
        # qubits[m-1] leads, so the first m axes read the local index
        # row-major; the other axes keep their order, highest qubit first
        view = np.moveaxis(
            self.amps.reshape((2,) * self.k),
            [self.k - 1 - q for q in reversed(qubits)],
            range(m),
        )
        rest = sorted(set(range(self.k)) - set(qubits), reverse=True)
        sub = view[(slice(None),) * m + tuple(fixed.get(q, 0) for q in rest)].reshape(-1)
        norm = np.linalg.norm(sub)
        return StateVector(m, sub / norm)

    def sample(self, shots: int, seed: int) -> MeasurementRecord:
        """Seeded inverse-CDF sampling of the basis-state distribution.

        Identical (state, shots, seed) gives identical counts; the draw is
        a single deterministic PCG64 stream folded through searchsorted.
        The stream is drawn in blocks of ``_SAMPLE_CHUNK``, in order, so the
        memory used does not grow with ``shots`` and the counts equal those
        of one draw of all the shots.
        """
        blocks = _uniform_blocks(shots, seed)
        probs = self.probabilities()
        cdf = np.cumsum(probs)
        cdf[-1] = 1.0
        counts = np.zeros(probs.size, dtype=np.int64)
        for draws in blocks:
            outcomes = np.searchsorted(cdf, draws, side="right")
            counts += np.bincount(outcomes, minlength=probs.size)
        seen = np.flatnonzero(counts)
        return MeasurementRecord(
            shots=shots, seed=seed, counts=dict(zip(seen.tolist(), counts[seen].tolist()))
        )


def _uniform_blocks(shots: int, seed: int) -> Iterator[np.ndarray]:
    """The ``shots`` uniform draws of one PCG64 stream seeded ``seed``, in
    blocks of ``_SAMPLE_CHUNK``.  ``shots`` and ``seed`` are checked at the
    call, before anything is drawn."""
    if shots < 1:
        raise ValidationError("shots must be positive")
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, not {seed}")
    rng = np.random.Generator(np.random.PCG64(seed))
    return (
        rng.random(min(_SAMPLE_CHUNK, shots - start)) for start in range(0, shots, _SAMPLE_CHUNK)
    )


def read_top_qubit(
    low: np.ndarray | None,
    high: np.ndarray | None,
    outcome: int,
    shots: int | None = None,
    seed: int | None = None,
) -> float:
    """Pr(the top qubit of a register reads ``outcome``), from the basis
    probabilities of the register's low half (top qubit 0) and high half
    (top qubit 1), each a contiguous array in index order.

    Exact when ``shots`` is None: the sum over the outcome's half, in the
    pairwise order of ``StateVector.probability``.  Otherwise the fraction
    of ``shots`` seeded draws that land in the outcome's half, from the
    stream and blocks of ``StateVector.sample``: a draw lands in the high
    half when it is at or above ``np.cumsum(low)[-1]``, the register's CDF
    at the half boundary, so the counts equal the sampled register's.  An
    exact read uses only the outcome's half and a sampled read only
    ``low``, so a half the read does not use may be None.
    """
    if shots is None:
        return float(np.sum(high if outcome else low))
    if seed is None:
        raise ValidationError("sampling needs an explicit seed")
    blocks = _uniform_blocks(shots, seed)
    boundary = np.cumsum(low)[-1]
    in_high = sum(int(np.count_nonzero(draws >= boundary)) for draws in blocks)
    return (in_high if outcome else shots - in_high) / shots


def new_state(k: int, basis_index: int = 0) -> StateVector:
    """Computational-basis state |basis_index> on k qubits."""
    if not 0 <= basis_index < (1 << k):
        raise IndexOutOfRange(f"basis index {basis_index} out of range for k={k}")
    amps = np.zeros(1 << k)
    amps[basis_index] = 1.0
    return StateVector(k, amps)


def product_state(parts: Iterable[StateVector]) -> StateVector:
    """Join independent registers; the first part occupies the low bits."""
    amps = np.ones(1)
    k = 0
    for part in parts:
        amps = np.kron(part.amps, amps)
        k += part.k
    return StateVector(k, amps)


__all__ = [
    "ControlSpec",
    "MeasurementRecord",
    "StateVector",
    "new_state",
    "product_state",
    "read_top_qubit",
]
