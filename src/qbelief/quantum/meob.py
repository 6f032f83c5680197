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
- ``circuit``: the phase-estimation circuit simulated stage by stage
  (Cleve, Ekert, Macchiavello and Mosca, quant-ph/9708016), on the one
  branch of the (ancilla, clock, system) register that is kept: ancilla
  1.  That branch is a (2^t, 2^s) block, clock by eigen-index of H, from
  one ``eigh``.  The Hadamard layer on the |0> clock fills every clock
  row with the input's eigencomponents / sqrt(2^t).  The t controlled
  powers of exp(i H t0) together apply the phase exp(i t0 x lambda_j)
  wherever the clock reads x.  The inverse Fourier transform is an
  orthonormal FFT along the clock axis.  The ancilla RY from |0> scales
  clock row x by sin(theta_x / 2), the amplitude it sends to ancilla 1.
  The same stages in reverse, with conjugate phases, uncompute the
  clock, and reading the clock at 0 after the last Hadamard layer sums
  its rows / sqrt(2^t).  The result (with embedding bit 1) is the
  postselected output, and its squared norm the success probability.

Only the circuit backend embeds: it evolves a non-Hermitian matrix
through the block embedding [[0, A^dagger], [A, 0]] with the input
widened as [psi; 0], where the result sits in the embedding-bit-1 half.
It evolves the operator's dense matrix, under the dense budget, in the
matrix's own dtype: a real A gets the real symmetric ``eigh``, and
complex arithmetic starts at the clock phases.  Both backends take t0
and C from one spectral radius, A's spectral norm, and refuse a success
probability below 1e-12.

Eigenvalue decoding is two's-complement: clock values below 2^{t-1} are
positive phases, the rest negative, which covers the +/- singular-value
spectrum of embeddings.  The evolution time is capped so that
|lambda| * t0 < pi, keeping the decoding unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def hermitian_embed(matrix: np.ndarray) -> np.ndarray:
    """The Hermitian matrix the circuit evolves: a square power-of-two
    matrix A as the block embedding [[0, A^dagger], [A, 0]].

    Matrices already Hermitian (within 1e-10) pass through unchanged, so
    a (2d, 2d) result for a (d, d) input means A was embedded.  The
    result keeps the input's dtype, so a real A gives a real symmetric
    matrix.
    """
    shape = np.shape(matrix)
    if len(shape) != 2 or shape[0] != shape[1]:
        raise BadDimension(f"matrix shape {shape} is not square")
    d = shape[0]
    if d & (d - 1) or d == 0:
        raise BadDimension(f"dimension {d} is not a power of two")
    check_dense_budget(16 * (2 * d) ** 2, f"the Hermitian embedding of a {d}x{d} matrix")
    a = np.asarray(matrix)
    if np.abs(a - a.conj().T).max() <= _HERMITIAN_TOL:
        return a
    zero = np.zeros((d, d), dtype=a.dtype)
    return np.block([[zero, a.conj().T], [a, zero]])


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
    kept branch of the phase-estimation circuit on the dense matrix, read
    at clock 0, and its squared norm.  Both then share one tail: a success
    below 1e-12 (or NaN) raises :class:`PostselectionFailed`, otherwise
    the output is normalized.
    """
    op = as_operator(matrix)
    d = state.amps.size
    if op.shape != (d, d):
        raise BadDimension(f"matrix shape {op.shape} does not match state dimension {d}")

    t0, c = _evolution_constants(op.norm, config)
    if config.backend == "oracle":
        # the power of two that brings ||A|| into [0.5, 1): scaling by it is
        # exact, so A psi cannot under- or overflow and normalizes unchanged
        scale = math.ldexp(1.0, -math.frexp(op.norm)[1])
        out = op.matvec(state.amps * scale)
        success = float(np.real(np.vdot(out, out))) * (c / scale) ** 2
    else:
        out = _run_circuit(op.dense(), state.amps, config.t, t0, c)
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


def _run_circuit(a: np.ndarray, psi: np.ndarray, t: int, t0: float, c: float) -> np.ndarray:
    """The evolution pipeline, evolving only the branch it keeps.

    The register is rotation ancilla, clock (t qubits, clock qubit j = bit
    j of the readout) and evolved register (s qubits: the n input qubits,
    plus the embedding bit s - 1 when A is not Hermitian).  Only its
    ancilla-1 half is read, and that half is zero until the RY, so the
    state is one (2^t, 2^s) block, clock by eigen-index of H.  The clock
    starts at |0> and is read at <0|, so its Hadamard layers are a
    broadcast and a sum.  Returns the postselected amplitudes,
    unnormalized: ancilla 1, clock 0 after uncomputation, embedding bit 1.
    Their squared norm is the joint success probability; with exactly
    representable eigenphases the clock projection is lossless.  ``t0``
    and ``c`` are the evolution constants of :func:`meob_apply`.
    """
    h = hermitian_embed(a)
    # Hermitian to 1e-10, or exactly for a block embedding
    lam, vecs = np.linalg.eigh(h)
    defect = np.abs(vecs.conj().T @ vecs - np.eye(lam.size)).max()
    if defect > 1e-9:
        raise NotUnitary(f"eigenbasis deviates from unitarity by {defect:.3g}")
    size = 1 << t
    # 16 * 2^(t + s) bytes per block pass the dense budget only at s >= 13
    # when t <= 12, and hermitian_embed refuses those matrices first

    # exp(i H t0 x) on clock value x, in the eigenbasis of H
    phases = np.exp(1j * t0 * np.multiply.outer(np.arange(size), lam))
    lam_grid = decode_eigenvalue(np.arange(size), t, t0)
    # far grid points can exceed the C window by design headroom; they
    # carry (near-)zero amplitude, so saturating the rotation is safe
    angles = 2.0 * np.arcsin(np.clip(c * lam_grid, -1.0, 1.0))

    # Hadamard layer on |0>: every clock row is vecs^dagger [psi; 0] / sqrt(2^t)
    block = np.broadcast_to(psi @ vecs[: psi.size].conj() / math.sqrt(size), phases.shape)
    block = block * phases  # controlled powers
    block = np.fft.fft(block, axis=0, norm="ortho")  # inverse QFT
    # RY from ancilla |0>: its (1, 0) entry is the ancilla-1 amplitude
    block *= np.sin(angles / 2.0)[:, None]
    block = np.fft.ifft(block, axis=0, norm="ortho")
    block *= phases.conj()
    # Hadamard layer, then clock 0
    kept = block.sum(axis=0) / math.sqrt(size)
    return (vecs @ kept)[lam.size - psi.size:]


__all__ = [
    "BACKENDS",
    "MEoBConfig",
    "hermitian_embed",
    "meob",
    "meob_apply",
    "decode_eigenvalue",
]
