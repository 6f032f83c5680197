"""Matrix evolution of amplitude-encoded mass functions.

A phase-estimation pipeline applies an arbitrary real matrix A to a
quantum state: estimate the eigenphases of exp(i A t0) into a t-qubit
clock, rotate an ancilla by the decoded eigenvalue, uncompute, and keep
the ancilla-1 branch.  Each surviving eigencomponent is scaled by its
eigenvalue, which is exactly multiplication by A (up to the C constant
absorbed into the success probability).

Two interchangeable backends:

- ``oracle``: exact linear algebra on the amplitudes, with the success
  probability evaluated from the spectrum.  This isolates pipeline
  correctness from discretization.
- ``circuit``: the full register-level simulation (Hadamards, controlled
  evolution powers, inverse Fourier transform, clock-conditioned
  rotations, uncomputation, postselection).

Non-Hermitian matrices are evolved through the block embedding
[[0, A^T], [A, 0]] with the input padded as [psi; 0]; the result then
sits in the embedding-bit-1 half and is postselected out.

Eigenvalue decoding is two's-complement: clock values below 2^{t-1} are
positive phases, the rest negative, which covers the +/- singular-value
spectrum of embeddings.  The evolution time is capped so that
|lambda| * t0 < pi, keeping the decoding unambiguous.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    BadDimension,
    ClockOverflow,
    ImpossibleOutcome,
    PostselectionFailed,
    SingularMatrix,
    ValidationError,
)
from ..qsim.circuit import Circuit
from ..qsim.gates import RY, H
from ..qsim.linalg import hermiticity_defect
from ..qsim.qft import qft_circuit
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
    |C lambda| <= 1; default 0.99 / max|lambda|.
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


@dataclass(frozen=True)
class HermitianEmbedding:
    """A matrix together with its Hermitian block embedding, if one was needed."""

    original: np.ndarray
    embedded: np.ndarray
    was_embedded: bool


def hermitian_embed(matrix: np.ndarray) -> HermitianEmbedding:
    """Embed a square power-of-two matrix as [[0, A^dagger], [A, 0]].

    Matrices already Hermitian (within 1e-10) pass through unchanged.
    """
    a = np.asarray(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise BadDimension(f"matrix shape {a.shape} is not square")
    d = a.shape[0]
    if d & (d - 1) or d == 0:
        raise BadDimension(f"dimension {d} is not a power of two")
    if hermiticity_defect(a) <= _HERMITIAN_TOL:
        return HermitianEmbedding(a, a, False)
    zero = np.zeros((d, d), dtype=np.complex128)
    embedded = np.block([[zero, a.conj().T], [a, zero]])
    return HermitianEmbedding(a, embedded, True)


def _spectral_setup(matrix: np.ndarray, config: MEoBConfig):
    """Embedding, optional spectrum, and the t0 / C constants.

    The embedded spectrum is the +/- singular values of the original, so
    max|lambda| equals the original's spectral norm; the oracle backend
    gets away without the full eigendecomposition.
    """
    emb = hermitian_embed(matrix)
    if config.backend == "circuit":
        evals, evecs = np.linalg.eigh(emb.embedded)
        lam_max = float(np.abs(evals).max())
    else:
        evals = evecs = None
        lam_max = float(np.linalg.norm(emb.original, 2))
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
    return emb, evals, evecs, t0, c


def _pad_input(state: StateVector, emb: HermitianEmbedding) -> np.ndarray:
    d = emb.original.shape[0]
    if state.amps.size != d:
        raise BadDimension(
            f"state dimension {state.amps.size} does not match matrix dimension {d}"
        )
    if not emb.was_embedded:
        return state.amps.copy()
    return np.concatenate([state.amps, np.zeros(d, dtype=np.complex128)])


def meob_apply(
    matrix: np.ndarray, state: StateVector, config: MEoBConfig
) -> tuple[StateVector, float]:
    """Evolve ``state`` by ``matrix``; returns (normalized output, success probability).

    The success probability is the product of every postselection the
    pipeline performs; for the oracle backend it equals
    sum_j beta_j^2 C^2 lambda_j^2 = C^2 ||A psi||^2 exactly.
    """
    matrix = np.asarray(matrix, dtype=np.complex128)
    emb, evals, evecs, t0, c = _spectral_setup(matrix, config)
    padded = _pad_input(state, emb)

    if config.backend == "oracle":
        out = emb.embedded @ padded
        success = float(c * c * np.real(np.vdot(out, out)))
        if success < _MIN_SUCCESS:
            raise PostselectionFailed(
                f"evolution annihilates the state (success {success:.3g})"
            )
        out = out / np.linalg.norm(out)
    else:
        out, success = _run_circuit(emb.embedded, padded, evals, evecs, t0, c, config.t)

    if emb.was_embedded:
        d = emb.original.shape[0]
        bot = out[d:]
        p_half = float(np.real(np.vdot(bot, bot)))
        if p_half < _MIN_SUCCESS:
            raise PostselectionFailed("no amplitude in the embedded output half")
        out = bot / np.sqrt(p_half)
        success *= p_half
    n_out = int(out.size).bit_length() - 1
    return StateVector(n_out, out), success


def meob(matrix: np.ndarray, m, config: MEoBConfig) -> tuple[StateVector, float]:
    """Evolve the amplitude encoding of a mass function by ``matrix``.

    Prepares |m> (amplitudes sqrt of the masses) and applies the matrix
    to that state.  Evolving the mass *vector* itself is the chained
    pipeline diag(sqrt(m)) followed by the matrix; see
    :func:`qbelief.quantum.pipelines.evolve_mass`.
    """
    return meob_apply(matrix, encode_state(m), config)


def decode_eigenvalue(clock_value: int, t: int, t0: float) -> float:
    """Two's-complement phase decoding of a clock readout."""
    size = 1 << t
    k = clock_value if clock_value < size // 2 else clock_value - size
    return 2.0 * np.pi * k / (size * t0)


def _run_circuit(
    h_eff: np.ndarray,
    padded: np.ndarray,
    evals: np.ndarray,
    evecs: np.ndarray,
    t0: float,
    c: float,
    t: int,
) -> tuple[np.ndarray, float]:
    """Full register-level simulation of the evolution pipeline.

    Register layout, low bits first: input (s qubits), clock (t qubits,
    clock qubit j = bit j of the readout), rotation ancilla.  The clock
    is postselected back to |0> after uncomputation so the returned
    output is a pure state on the input register; with exactly
    representable eigenphases that projection is lossless.
    """
    s = int(h_eff.shape[0]).bit_length() - 1
    k = s + t + 1
    anc = s + t

    amps = np.zeros(1 << k, dtype=np.complex128)
    amps[: 1 << s] = padded
    state = StateVector(k, amps)

    circ = Circuit(k)
    for j in range(t):
        circ.append(H(), s + j)
    powers = []
    for j in range(t):
        u = (evecs * np.exp(1j * evals * t0 * (1 << j))) @ evecs.conj().T
        powers.append(u)
        circ.append_unitary(u, list(range(s)), [(s + j, 1)], label=f"evo^{1 << j}")
    circ.append_circuit(qft_circuit(t).inverse(), [s + j for j in range(t)])

    for kv in range(1 << t):
        lam = decode_eigenvalue(kv, t, t0)
        # far grid points can exceed the C window by design headroom; they
        # carry (near-)zero amplitude, so saturating the rotation is safe
        angle = 2.0 * np.arcsin(np.clip(c * lam, -1.0, 1.0))
        controls = [(s + j, (kv >> j) & 1) for j in range(t)]
        circ.append(RY(angle), anc, controls)

    circ.append_circuit(qft_circuit(t), [s + j for j in range(t)])
    for j in reversed(range(t)):
        circ.append_unitary(powers[j].conj().T, list(range(s)), [(s + j, 1)])
    for j in range(t):
        circ.append(H(), s + j)

    circ.run(state)

    try:
        state, p_anc = state.postselect(anc, 1)
        success = p_anc
        for j in range(t):
            state, p_clk = state.postselect(s + j, 0)
            success *= p_clk
    except ImpossibleOutcome as exc:
        raise PostselectionFailed(str(exc)) from exc

    fixed = {anc: 1, **{s + j: 0 for j in range(t)}}
    out = state.extract_register(list(range(s)), fixed)
    return out.amps, success


__all__ = [
    "BACKENDS",
    "MEoBConfig",
    "HermitianEmbedding",
    "hermitian_embed",
    "meob",
    "meob_apply",
    "decode_eigenvalue",
]
