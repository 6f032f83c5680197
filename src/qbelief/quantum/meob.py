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
  eigenvalue (:func:`_clock_filter`): each stage is one filter between
  two bases, U (g(lambda) * (V^dagger psi)).  The forward pass (the
  Hadamard layer on the |0> clock, the t controlled powers of exp(i H
  t0), the phase exp(i t0 lambda x) wherever the clock reads x, and the
  inverse Fourier transform) leaves the clock state alpha, whose
  |alpha_x|^2 is the Fejer kernel of t0 lambda about clock value x.  The
  ancilla RY from |0> keeps s_x = sin(theta_x / 2) on ancilla 1 at clock
  value x, and the adjoint of the forward pass read at clock 0 is
  <alpha| diag(s) |alpha>, read in closed form: g(lambda) = sum_x s_x
  |alpha_x|^2 is real.  Summed over the clock, g is a fixed
  trigonometric polynomial of phi = t0 lambda, a sine series plus one
  Fejer term, whose coefficients depend only on t and C / t0 and are
  computed once (:func:`_series`); no clock vector is simulated, and the
  filter costs one short series per eigenvalue.  A ``diag`` operator
  is evolved on the identity basis, as g(v) psi, with g evaluated once
  per distinct entry of v, and no matrix is built.  Every other transform
  operator is a fixed matrix of (kind, n), so its stage (U, g(lambda),
  V^dagger) is decomposed and filtered once per (kind, n) and kept, read
  only, up to d = 2^8 (:func:`_transform_stage`).  A Hermitian A is
  evolved from one ``eigh``.  A non-Hermitian A enters the circuit
  through the block embedding [[0, A^dagger], [A, 0]] on [psi; 0], whose
  eigenvectors are [v; +/-u] / sqrt(2) at +/-sigma for each singular
  triple (sigma, u, v) of A; its kept half is therefore
  U diag((g(sigma) - g(-sigma)) / 2) V^dagger psi, from one SVD of A,
  and the embedding is never built.  That odd part is one filter on
  sigma: the clock values that decode to +/-k mirror each other, so
  g(-sigma) reads the same |alpha|^2 with negated weights, except at the
  clock value 2^(t-1), its own mirror, whose weight is set to 0: the
  sine series without its Fejer term.  The squared norm of the output is
  the success probability.

Every operator but ``diag`` is evolved from its dense matrix, under the
dense budget, in the matrix's own dtype: a real A gets the real ``eigh``
or SVD and, since g is real, a real output.  No complex array is built.

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

import functools
import math
from dataclasses import dataclass

import numpy as np

from ..dst.operators import TransformOperator, as_operator
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

#: the largest n whose transform stages :func:`_transform_stage` keeps: a
#: stage holds at most two d x d float64 bases, 1 MiB at d = 2^8, and the
#: eight transform kinds at n = 1..8 hold under 12 MB in all
_STAGE_MEMO_MAX_N = 8
#: the kept transform stages (u, g, vh), by (kind, n, clock bits)
_STAGES: dict[tuple[str, int, int], tuple[np.ndarray, np.ndarray, np.ndarray]] = {}


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
    a ``CLOCK_BITS`` clock, read at clock 0, and its squared norm: a
    ``diag`` operator is evolved from its vector ``v`` on the identity
    basis, every other operator from its dense matrix (an evolution that
    does not fit the dense budget is refused before anything is built),
    a transform operator's up to n = 8 decomposed once per (kind, n).
    Both then share one tail: a success below 1e-12 (or NaN) raises
    :class:`PostselectionFailed`, otherwise the output is normalized.
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
        # matrix), or three beside the filter's (d, 2^t - 1) sine table, 8
        # of the 32 bytes per clock entry that the figure allows. LAPACK's
        # workspace is not counted: tracemalloc does not see it (the SVD
        # peaks at its outputs). A diagonal stage holds no d x d array
        # but is held to the same figure, so every chain is refused at its
        # first stage, before anything is built
        check_dense_budget(
            32 * d * (d + (1 << CLOCK_BITS)), f"the circuit evolution of a {d}x{d} matrix"
        )
        if not isinstance(op, TransformOperator):
            out = _run_circuit(op.dense(), state.amps, CLOCK_BITS, t0, c)
        elif op.kind == "diag":
            out = _run_circuit(op.v, state.amps, CLOCK_BITS, t0, c)
        else:
            u, g, vh = _transform_stage(op, t0, c)
            out = u @ (g * (vh @ state.amps))
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


@functools.cache
def _series(t: int, ratio: float) -> tuple[np.ndarray, float]:
    """The clock filter's sine coefficients b_1..b_(N-1) and its weight
    s_(N/2), for a ``t``-bit clock (N = 2^t) and C / t0 = ``ratio``.

    The rotation weights are s_y = clip(ratio (2 pi k / N), -1, 1), k the
    two's-complement value of clock value y.  With s_(N/2) set to 0 they
    are odd, s_(N-y) = -s_y, so their DFT S is imaginary, and
    b_j = -2 (N - j) Im S_j / N^2.  The weights depend on ``t`` and
    ``ratio`` alone, so each pair is computed once, on first use.
    """
    size = 1 << t
    # far grid points can exceed the C window by design headroom; they
    # carry (near-)zero amplitude, so saturating the rotation is safe
    weights = np.clip(ratio * decode_eigenvalue(np.arange(size), t, 1.0), -1.0, 1.0)
    mid = float(weights[size // 2])
    weights[size // 2] = 0.0
    j = np.arange(1, size)
    b = -2.0 * (size - j) * np.fft.fft(weights).imag[1:] / size**2
    b.flags.writeable = False
    return b, mid


def _clock_filter(phi: np.ndarray, t: int, ratio: float, odd: bool) -> np.ndarray:
    """The kept amplitude g of one unit eigencomponent, per phase phi =
    t0 lambda, on a ``t``-bit clock (N = 2^t) with C / t0 = ``ratio``.

    The forward pass leaves clock value y holding alpha_y = sum_x exp(i phi
    x) exp(-2 pi i x y / N) / N (the Hadamard layer, the controlled powers
    and the inverse QFT), the ancilla RY scales it by s_y, and the adjoint
    of the forward pass read at clock 0 is g(phi) = sum_y s_y |alpha_y|^2.
    Each |alpha_y|^2 is the Fejer kernel F(phi - 2 pi y / N), F(delta) =
    (sin(N delta / 2) / (N sin(delta / 2)))^2 = sum_|m|<N (N - |m|)
    exp(i m delta) / N^2, so g is a fixed trigonometric polynomial:

        g(phi) = sum_(j=1..N-1) b_j sin(j phi) + s_(N/2) F(phi - pi)

    with the coefficients of :func:`_series`.  The sine series is the odd
    weight set, s_(N/2) = 0, which the SVD route (``odd``) evolves; the
    full weight set adds the one Fejer term of clock value N/2 (s_(N/2) =
    -1 whenever C / t0 > 1 / pi), whose F is 1 on the grid point phi = pi.
    """
    b, mid = _series(t, ratio)
    table = np.multiply.outer(phi, np.arange(1.0, 1 << t))
    g = np.sin(table, out=table) @ b
    if not odd:
        # F(phi - pi) = (sin(N phi / 2) / (N cos(phi / 2)))^2, since N pi / 2
        # is a multiple of pi; cos never returns 0 for a float, and near
        # phi = pi the ratio tends to 1
        half = 0.5 * phi
        g += mid * (np.sin((1 << t) * half) / ((1 << t) * np.cos(half))) ** 2
    return g


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

    Every stage is one clock filter between two bases, U (g(lambda) *
    (V^dagger psi)), g the trigonometric polynomial of
    :func:`_clock_filter` at phi = t0 lambda, whose coefficients depend on
    ``t`` and C / t0 alone.  A 1-D ``a`` is the diagonal of a diagonal
    matrix, whose eigenbasis is the identity: g(a) psi, with g evaluated
    once per distinct entry.  A 2-D ``a`` is decomposed by
    :func:`_circuit_stage`.  The squared norm of the result is the joint
    success probability; with exactly representable eigenphases the clock
    projection is lossless.  :func:`meob_apply` passes ``t`` =
    ``CLOCK_BITS`` and the evolution constants ``t0`` and ``c``.
    """
    if a.ndim == 1:
        # the sorted distinct entries and each entry's index among them, as
        # np.unique gives them, from one sort and without its set-up
        ordered = np.sort(a)
        first = np.empty(a.size, dtype=bool)
        first[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
        values = ordered[first]
        g = _clock_filter(t0 * values, t, c / t0, odd=False)
        return g[np.searchsorted(values, a)] * psi
    u, g, vh = _circuit_stage(a, t, t0, c)
    return u @ (g * (vh @ psi))


def _circuit_stage(a: np.ndarray, t: int, t0: float, c: float) -> tuple[np.ndarray, ...]:
    """The stage of a square ``a`` as read-only (U, g, V^dagger): the
    kept branch of psi is U (g * (V^dagger psi)).

    An ``a`` whose asymmetry |A - A^dagger| is within 1e-10 of its largest
    |entry| is Hermitian: V g(Lambda) V^dagger from one ``eigh``.  Any
    other ``a`` is the embedding-bit-1 half of g(H) [psi; 0], H the
    embedding [[0, A^dagger], [A, 0]]: from one SVD A = U S V^dagger,
    U ((g(S) - g(-S)) / 2) V^dagger.  Clock values y and 2^t - y decode
    to +/-k, so |alpha_y(-sigma)|^2 = |alpha_(2^t - y)(sigma)|^2 and
    s_(2^t - y) = -s_y, except at y = 2^(t-1), which is its own mirror:
    the odd part (g(S) - g(-S)) / 2 is the filter of the odd weight set,
    the sine series alone.  Both bases are checked for unitarity.  t0
    lambda is formed before it meets the series' frequencies, so no
    product overflows for any norm whose t0 is finite.
    """
    odd = np.abs(a - a.conj().T).max() > _HERMITIAN_TOL * np.abs(a).max()
    if odd:
        u, lam, vh = np.linalg.svd(a)
        _check_unitary(vh)
    else:
        lam, u = np.linalg.eigh(a)
        vh = u.conj().T
    _check_unitary(u)
    stage = (u, _clock_filter(t0 * lam, t, c / t0, odd), vh)
    for part in stage:
        part.flags.writeable = False
    return stage


def _transform_stage(op: TransformOperator, t0: float, c: float) -> tuple[np.ndarray, ...]:
    """:func:`_circuit_stage` of a transform operator other than ``diag``,
    at ``CLOCK_BITS``.  Its matrix, and with it t0 and c, depend on (kind,
    n) alone, so a stage up to n = ``_STAGE_MEMO_MAX_N`` is decomposed on
    its first evolution and kept in ``_STAGES``; a larger one is
    decomposed on every call."""
    key = (op.kind, op.n, CLOCK_BITS)
    stage = _STAGES.get(key)
    if stage is None:
        stage = _circuit_stage(op.dense(), CLOCK_BITS, t0, c)
        if op.n <= _STAGE_MEMO_MAX_N:
            _STAGES[key] = stage
    return stage


__all__ = [
    "BACKENDS",
    "CLOCK_BITS",
    "MEoBConfig",
    "meob_apply",
    "decode_eigenvalue",
]
