"""Matrix evolution of amplitude-encoded mass functions.

A phase-estimation pipeline applies an arbitrary real matrix A to a
quantum state: estimate the eigenphases of exp(i A t0) into a t-qubit
clock, rotate an ancilla by the decoded eigenvalue, uncompute, and keep
the ancilla-1 branch.  Each surviving eigencomponent is scaled by its
eigenvalue, which is exactly multiplication by A (up to the C constant
absorbed into the success probability).

Two interchangeable backends:

- ``oracle``: computes A psi directly, with success probability
  (C ||A psi||)^2, which is what ideal phase estimation postselects.
  This isolates pipeline correctness from discretization.  It uses A
  only through its action and its spectral norm: a transform operator
  (:mod:`qbelief.dst.operators`) applies its lattice sweeps and takes
  its norm in closed form, so no 2^n x 2^n array is built; an explicit
  matrix is multiplied and its norm taken from an SVD.
- ``circuit``: the full register-level simulation, with each stage of
  phase estimation applied as the exact operator it is on the
  (ancilla, clock, system) view of the amplitudes (Cleve, Ekert,
  Macchiavello and Mosca, quant-ph/9708016).  The clock Hadamard layer
  is H on each clock qubit.  The t controlled powers of exp(i H t0)
  together apply exp(i H t0 x) wherever the clock reads x; in the
  eigenbasis of H, from one ``eigh``, that is the phase
  exp(i t0 x lambda_j).  The inverse Fourier transform is an orthonormal
  FFT along the clock axis.  One multiplexed RY on the ancilla applies
  all 2^t clock-conditioned rotations; the same stages in reverse, with
  conjugate phases, uncompute the clock.  The result is read as one
  postselected block of the register: ancilla 1, clock 0 (and embedding
  bit 1), whose squared norm is the success probability.

Only the circuit backend embeds: it evolves a non-Hermitian matrix
through the block embedding [[0, A^dagger], [A, 0]] with the input
widened as [psi; 0], where the result sits in the embedding-bit-1 half.
The oracle takes the spectral radius as A's spectral norm; the circuit
evolves the operator's dense matrix, under the dense budget, and takes
max|lambda| from the eigendecomposition it evolves with, which is the
same number (an embedding's spectrum is the +/- singular values of
A).  Both backends refuse a success probability below 1e-12.

Eigenvalue decoding is two's-complement: clock values below 2^{t-1} are
positive phases, the rest negative, which covers the +/- singular-value
spectrum of embeddings.  The evolution time is capped so that
|lambda| * t0 < pi, keeping the decoding unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from ..dst.operators import as_operator
from ..errors import (
    BadDimension,
    ClockOverflow,
    NotUnitary,
    PostselectionFailed,
    SingularMatrix,
    ValidationError,
    check_dense_budget,
)
from ..qsim.state import StateVector
from .prepare import encode_state

_HERMITIAN_TOL = 1e-10
_MIN_SUCCESS = 1e-12

BACKENDS = ("oracle", "circuit")


@dataclass(frozen=True)
class MEoBConfig:
    """Knobs of the evolution pipeline.

    t: clock-register width (1..12).  t0: evolution time per unit
    eigenvalue; default 0.9 pi / max|lambda|.  C: rotation constant with
    |C lambda| <= 1; default 0.99 / max|lambda|.  Given t0 and C must be
    finite and positive.
    """

    t: int = 8
    t0: float | None = None
    C: float | None = None
    backend: str = "oracle"

    def __post_init__(self):
        if not 1 <= self.t <= 12:
            raise ValidationError(f"clock width t={self.t} outside [1, 12]")
        if self.backend not in BACKENDS:
            raise ValidationError(f"backend must be one of {BACKENDS}")
        for name in ("t0", "C"):
            value = getattr(self, name)
            if value is not None and not 0.0 < value < np.inf:
                raise ValidationError(f"{name}={value} is not finite and positive")


@dataclass(frozen=True)
class HermitianEmbedding:
    """The Hermitian matrix the circuit evolves, and whether it is a block embedding."""

    embedded: np.ndarray
    was_embedded: bool


def hermitian_embed(matrix: np.ndarray) -> HermitianEmbedding:
    """Embed a square power-of-two matrix as [[0, A^dagger], [A, 0]].

    Matrices already Hermitian (within 1e-10) pass through unchanged.
    """
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise BadDimension(f"matrix shape {shape} is not square")
    d = shape[0]
    if d & (d - 1) or d == 0:
        raise BadDimension(f"dimension {d} is not a power of two")
    check_dense_budget(16 * (2 * d) ** 2, f"the Hermitian embedding of a {d}x{d} matrix")
    a = np.asarray(matrix, dtype=np.complex128)
    if np.abs(a - a.conj().T).max() <= _HERMITIAN_TOL:
        return HermitianEmbedding(a, False)
    zero = np.zeros((d, d), dtype=np.complex128)
    embedded = np.block([[zero, a.conj().T], [a, zero]])
    return HermitianEmbedding(embedded, True)


def _evolution_constants(lam_max: float, config: MEoBConfig) -> tuple[float, float]:
    """The t0 / C constants for a spectral radius ``lam_max``."""
    if lam_max == 0.0:
        raise SingularMatrix("zero matrix cannot be evolved")
    t0 = config.t0 if config.t0 is not None else 0.9 * np.pi / lam_max
    c = config.C if config.C is not None else 0.99 / lam_max
    if t0 * lam_max >= np.pi:
        raise ClockOverflow(
            f"t0 * max|lambda| = {t0 * lam_max:.4g} >= pi; eigenphase signs would alias"
        )
    if c * lam_max > 1.0 + 1e-12:
        raise ValidationError(f"C * max|lambda| = {c * lam_max:.4g} exceeds 1")
    return t0, c


def meob_apply(matrix, state: StateVector, config: MEoBConfig) -> tuple[StateVector, float]:
    """Evolve ``state`` by ``matrix``; returns (normalized output, success probability).

    ``matrix`` is an operator from :func:`~qbelief.dst.operators.transform_operator`
    or an ndarray, which is wrapped by :func:`~qbelief.dst.operators.as_operator`
    (a non-finite entry is refused there with :class:`ValidationError`).
    Each backend yields the unnormalized postselected output and its
    success probability: for the oracle, A psi from the operator's action
    and sum_j beta_j^2 C^2 lambda_j^2 = (C ||A psi||)^2 exactly, computed at
    a scale that neither overflows nor underflows; for the circuit, the
    postselected block of the register that evolves the dense matrix, and
    its squared norm.  Both then share one tail: a success below 1e-12 (or
    NaN) raises :class:`PostselectionFailed`, otherwise the output is
    normalized.
    """
    op = as_operator(matrix)
    d = state.amps.size
    if op.shape != (d, d):
        raise BadDimension(f"matrix shape {op.shape} does not match state dimension {d}")

    if config.backend == "oracle":
        norm = op.norm
        _, c = _evolution_constants(norm, config)
        # the power of two that brings ||A|| into [0.5, 1): scaling by it is
        # exact, so A psi cannot under- or overflow and normalizes unchanged
        scale = math.ldexp(1.0, -math.frexp(norm)[1])
        out = op.matvec(state.amps * scale)
        success = float(np.real(np.vdot(out, out))) * (c / scale) ** 2
    else:
        out = _run_circuit(op.dense(), state.amps, config)
        success = float(np.real(np.vdot(out, out)))
    if not success >= _MIN_SUCCESS:
        raise PostselectionFailed(f"evolution annihilates the state (success {success:.3g})")
    return StateVector(state.k, out / np.linalg.norm(out)), success


def meob(matrix: np.ndarray, m, config: MEoBConfig) -> tuple[StateVector, float]:
    """Evolve the amplitude encoding of a mass function by ``matrix``.

    Prepares |m> (amplitudes sqrt of the masses) and applies the matrix
    to that state.  Evolving the mass *vector* itself is the chained
    pipeline diag(sqrt(m)) followed by the matrix; see
    :func:`qbelief.quantum.pipelines.evolve_mass`.
    """
    return meob_apply(matrix, encode_state(m), config)


def decode_eigenvalue(clock_value, t: int, t0: float):
    """Two's-complement phase decoding of a clock readout.

    Takes an int (returns a float) or an int array (returns an array).
    """
    size = 1 << t
    k = clock_value - size * (clock_value >= size // 2)
    return 2.0 * np.pi * k / (size * t0)


@lru_cache(maxsize=None)
def _sylvester(m: int) -> np.ndarray:
    """H^{(x) m} as a real 2^m x 2^m matrix (m <= 6)."""
    w = np.ones((1, 1))
    for _ in range(m):
        w = np.kron(w, [[1.0, 1.0], [1.0, -1.0]])
    w /= np.sqrt(2.0) ** m
    w.flags.writeable = False
    return w


def _hadamard_clock(view: np.ndarray) -> None:
    """H on every clock qubit of the (2, 2^t, d) amplitude view, in place.

    H^{(x) t} = H^{(x) a} (x) H^{(x) t-a} with a = t // 2 acts on the high
    and the low clock bits in turn, as two real matmuls on the float view
    of the amplitudes (H is real); each factor is at most 64 x 64.
    """
    size = view.shape[1]
    t = size.bit_length() - 1
    a = t // 2
    f = view.view(np.float64)
    high = np.matmul(_sylvester(a), f.reshape(2, 1 << a, -1))
    f[...] = np.matmul(_sylvester(t - a), high.reshape(2 << a, size >> a, -1)).reshape(f.shape)


def _run_circuit(a: np.ndarray, psi: np.ndarray, config: MEoBConfig) -> np.ndarray:
    """Full register-level simulation of the evolution pipeline.

    Register layout, low bits first: evolved register (s qubits: the n
    input qubits, plus the embedding bit s - 1 when A is not Hermitian),
    clock (t qubits, clock qubit j = bit j of the readout), rotation
    ancilla; the amplitudes read as a (2, 2^t, 2^s) array.  Returns the
    postselected block, unnormalized: ancilla 1, clock back at 0 after
    uncomputation, and the embedding bit 1, i.e. ``view[1, 0, 2^s - 2^n:]``.
    Its squared norm is the joint success probability; with exactly
    representable eigenphases the clock projection is lossless.
    """
    emb = hermitian_embed(a)
    # Hermitian to 1e-10, or exactly for a block embedding
    lam, vecs = np.linalg.eigh(emb.embedded)
    defect = np.abs(vecs.conj().T @ vecs - np.eye(lam.size)).max()
    if defect > 1e-9:
        raise NotUnitary(f"eigenbasis deviates from unitarity by {defect:.3g}")
    t0, c = _evolution_constants(float(np.abs(lam).max()), config)
    t = config.t
    s = int(lam.size).bit_length() - 1
    amps = np.zeros(1 << (s + t + 1), dtype=np.complex128)
    amps[: psi.size] = psi  # |psi> on the low qubits, every other qubit |0>
    state = StateVector(s + t + 1, amps)
    view = state.amps.reshape(2, 1 << t, lam.size)

    # exp(i H t0 x) on clock value x, in the eigenbasis of H
    phases = np.exp(1j * t0 * np.multiply.outer(np.arange(1 << t), lam))
    lam_grid = decode_eigenvalue(np.arange(1 << t), t, t0)
    # far grid points can exceed the C window by design headroom; they
    # carry (near-)zero amplitude, so saturating the rotation is safe
    angles = 2.0 * np.arcsin(np.clip(c * lam_grid, -1.0, 1.0))

    _hadamard_clock(view)
    view[...] = view @ vecs.conj()
    view *= phases
    view[...] = np.fft.fft(view, axis=1, norm="ortho")
    state.apply_multiplexed_ry(angles, s + t, range(s, s + t))
    view[...] = np.fft.ifft(view, axis=1, norm="ortho")
    view *= phases.conj()
    view[...] = view @ vecs.T
    _hadamard_clock(view)
    return view[1, 0, lam.size - psi.size:]


__all__ = [
    "BACKENDS",
    "MEoBConfig",
    "HermitianEmbedding",
    "hermitian_embed",
    "meob",
    "meob_apply",
    "decode_eigenvalue",
]
