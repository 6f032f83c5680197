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
- ``circuit``: the phase-estimation circuit (Cleve, Ekert, Macchiavello
  and Mosca, quant-ph/9708016) on the one branch of the (ancilla, clock,
  system) register that is kept: ancilla 1, clock 0.  The stages act on
  each eigencomponent of the evolved Hermitian matrix H alone, so the
  kept branch is g(H) psi, with g(lambda) the clock filter of one
  eigenvalue (:func:`_clock_filter`).  The forward pass is simulated:
  the Hadamard layer on the |0> clock, the t controlled powers of
  exp(i H t0) (the phase exp(i t0 lambda x) wherever the clock reads x)
  and the inverse Fourier transform as an FFT leave the clock state
  alpha.  The ancilla RY from |0> keeps s_x = sin(theta_x / 2) on
  ancilla 1 at clock value x, and the adjoint of the forward pass read
  at clock 0 is <alpha| diag(s) |alpha>, read in closed form: g(lambda)
  = sum_x s_x |alpha_x|^2 is real.  A Hermitian A is evolved from one
  ``eigh``.  A non-Hermitian A enters the circuit through the block
  embedding [[0, A^dagger], [A, 0]] on [psi; 0], whose eigenvectors are
  [v; +/-u] / sqrt(2) at +/-sigma for each singular triple (sigma, u, v)
  of A; its kept half is therefore U diag((g(sigma) - g(-sigma)) / 2)
  V^dagger psi, from one SVD of A, and the embedding is never built.
  The squared norm of the output is the success probability.

The circuit backend evolves the operator's dense matrix, under the
dense budget, in the matrix's own dtype: a real A gets the real
``eigh`` or SVD and, since g is real, a real output.  Complex
arithmetic stays inside the filter.

Only the backend is chosen.  The clock is ``CLOCK_BITS`` = 8 qubits
wide, and both backends take t0 = 0.9 pi / ||A|| and C = 0.99 / ||A||
from A's spectral norm, as HHL (arXiv:0811.3171) takes them from the
spectrum; both refuse a success probability below 1e-12.

Eigenvalue decoding is two's-complement: clock values below 2^{t-1} are
positive phases, the rest negative, which covers the +/- singular values
of an embedded A.  |lambda| * t0 <= 0.9 pi < pi keeps the decoding
unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ..dst.operators import as_operator
from ..errors import (
    BadDimension,
    NotUnitary,
    PostselectionFailed,
    SingularMatrix,
    ValidationError,
    check_dense_budget,
)
from ..qsim.state import StateVector

_HERMITIAN_TOL = 1e-10
_MIN_SUCCESS = 1e-12

BACKENDS = ("oracle", "circuit")
CLOCK_BITS = 8


@dataclass(frozen=True)
class MEoBConfig:
    """The evolution backend, ``oracle`` or ``circuit``.

    Nothing else is chosen: the clock is ``CLOCK_BITS`` wide and t0 and
    C follow from the spectral norm (:func:`_evolution_constants`).
    """

    backend: str = "oracle"

    def __post_init__(self):
        if self.backend not in BACKENDS:
            raise ValidationError(f"backend must be one of {BACKENDS}")


def _evolution_constants(lam_max: float) -> tuple[float, float]:
    """The evolution time t0 and rotation constant C for a spectral radius ``lam_max``.

    t0 = 0.9 pi / lam_max keeps every |lambda| t0 below pi, and
    C = 0.99 / lam_max every |C lambda| below 1.  A zero norm, one so
    small (under about 1.6e-308) that t0 overflows, and one that overflowed
    to inf (t0 and C would be 0) are refused.
    """
    if not 0.0 < lam_max < np.inf or 0.9 * np.pi / lam_max == np.inf:
        raise SingularMatrix(f"a matrix of norm {lam_max:.3g} cannot be evolved")
    return 0.9 * np.pi / lam_max, 0.99 / lam_max


def meob_apply(matrix, state: StateVector, config: MEoBConfig) -> tuple[StateVector, float]:
    """Evolve ``state`` by ``matrix``; returns (normalized output, success probability).

    ``matrix`` is an operator from :func:`~qbelief.dst.operators.transform_operator`
    or an ndarray, which is wrapped by :func:`~qbelief.dst.operators.as_operator`
    (a non-finite entry is refused there with :class:`ValidationError`).
    ``config`` chooses the backend; t0 and C come from the operator's
    spectral norm.  Each backend yields the unnormalized postselected
    output and its success probability: for the oracle, A psi from the
    operator's action and sum_j beta_j^2 C^2 lambda_j^2 = (C ||A psi||)^2
    exactly, computed at a scale that neither overflows nor underflows;
    for the circuit, the kept branch of the phase-estimation circuit with
    a ``CLOCK_BITS`` clock on the dense matrix, read at clock 0, and its
    squared norm (a matrix whose evolution does not fit the dense budget
    is refused before it is built).  Both then share one tail: a success
    below 1e-12 (or NaN) raises :class:`PostselectionFailed`, otherwise
    the output is normalized.
    """
    op = as_operator(matrix)
    d = state.amps.size
    if op.shape != (d, d):
        raise BadDimension(f"matrix shape {op.shape} does not match state dimension {d}")

    t0, c = _evolution_constants(op.norm)
    if config.backend == "oracle":
        # the power of two that brings ||A|| into [0.5, 1): scaling by it is
        # exact, so A psi cannot under- or overflow and normalizes unchanged
        scale = math.ldexp(1.0, -math.frexp(op.norm)[1])
        out = op.matvec(state.amps * scale)
        success = float(np.real(np.vdot(out, out))) * (c / scale) ** 2
    else:
        # at most four d x d float64 arrays are alive at once (the matrix, the
        # two factors of its decomposition, and the unitarity check's Gram
        # matrix), or three beside the filter's complex (d, 2^t) clock, its
        # float modulus and that modulus squared, 32 bytes per clock entry.
        # LAPACK's workspace is not counted: tracemalloc does not see it (the
        # SVD peaks at its outputs)
        check_dense_budget(
            32 * d * (d + (1 << CLOCK_BITS)), f"the circuit evolution of a {d}x{d} matrix"
        )
        out = _run_circuit(op.dense(), state.amps, CLOCK_BITS, t0, c)
        success = float(np.real(np.vdot(out, out)))
    if not success >= _MIN_SUCCESS:
        raise PostselectionFailed(f"evolution annihilates the state (success {success:.3g})")
    return StateVector(state.k, out / np.linalg.norm(out)), success


def decode_eigenvalue(clock_value, t: int, t0: float):
    """Two's-complement phase decoding of a clock readout.

    Takes an int (returns a float) or an int array (returns an array).
    Dividing by 2^t before t0 keeps a huge t0 from overflowing the grid.
    """
    size = 1 << t
    k = clock_value - size * (clock_value >= size // 2)
    return 2.0 * np.pi * k / size / t0


def _clock_filter(lam: np.ndarray, t: int, t0: float, c: float) -> np.ndarray:
    """The kept amplitude g(lambda) of one unit eigencomponent, per eigenvalue.

    The forward pass on the clock vector of each eigenvalue, one row per
    eigenvalue: the Hadamard layer on |0> gives every clock value
    1 / sqrt(2^t), the controlled powers multiply clock value x by
    exp(i (t0 lambda) x), and the inverse QFT is an FFT, so clock value y
    holds alpha_y = sum_x exp(i (t0 lambda) x) exp(-2 pi i x y / 2^t) / 2^t.
    The ancilla RY scales each alpha_y by s_y = sin(theta_y / 2) =
    clip(C lambda_y, -1, 1), and the adjoint of the forward pass read at
    clock 0 is <alpha| diag(s) |alpha>, so g(lambda) = sum_y s_y |alpha_y|^2,
    a real number.  t0 lambda is formed before it meets x, and C lambda_y
    as (C / t0) (2 pi k / 2^t), k the two's-complement value of y: no
    product overflows for any norm whose t0 and C are finite.
    """
    size = 1 << t
    # far grid points can exceed the C window by design headroom; they
    # carry (near-)zero amplitude, so saturating the rotation is safe
    rotation = np.clip((c / t0) * decode_eigenvalue(np.arange(size), t, 1.0), -1.0, 1.0)
    # the phases are exponentiated and transformed in place: the only
    # complex array is this (lam.size, 2^t) one, and it stays in here
    clock = np.multiply.outer(1j * t0 * lam, np.arange(size))
    np.exp(clock, out=clock)
    np.fft.fft(clock, norm="forward", out=clock)  # inverse QFT
    return np.abs(clock) ** 2 @ rotation


def _check_unitary(basis: np.ndarray) -> None:
    """Refuse a basis whose Gram matrix is more than 1e-9 from the identity."""
    gram = basis.conj().T @ basis
    gram.flat[:: gram.shape[0] + 1] -= 1.0
    defect = np.abs(gram, out=gram).max()
    if defect > 1e-9:
        raise NotUnitary(f"basis deviates from unitarity by {defect:.3g}")


def _run_circuit(a: np.ndarray, psi: np.ndarray, t: int, t0: float, c: float) -> np.ndarray:
    """The kept branch of the evolution circuit: ancilla 1 and clock 0
    after uncomputation, unnormalized.

    A Hermitian ``a`` (within 1e-10) is g(A) psi from one ``eigh``.  Any
    other ``a`` is the embedding-bit-1 half of g(H) [psi; 0], H the
    embedding [[0, A^dagger], [A, 0]]: from one SVD A = U S V^dagger,
    U ((g(S) - g(-S)) / 2) V^dagger psi.  The squared norm of the result
    is the joint success probability; with exactly representable
    eigenphases the clock projection is lossless.  :func:`meob_apply`
    passes ``t`` = ``CLOCK_BITS`` and the evolution constants ``t0`` and ``c``.
    """
    if np.abs(a - a.conj().T).max() <= _HERMITIAN_TOL:
        lam, vecs = np.linalg.eigh(a)
        _check_unitary(vecs)
        return vecs @ (_clock_filter(lam, t, t0, c) * (vecs.conj().T @ psi))
    u, sigma, vh = np.linalg.svd(a)
    _check_unitary(u)
    _check_unitary(vh)
    gain = (_clock_filter(sigma, t, t0, c) - _clock_filter(-sigma, t, t0, c)) / 2.0
    return u @ (gain * (vh @ psi))


__all__ = [
    "BACKENDS",
    "CLOCK_BITS",
    "MEoBConfig",
    "meob_apply",
    "decode_eigenvalue",
]
