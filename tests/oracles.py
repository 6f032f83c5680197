"""Definition-level reference implementations.

Everything here is a direct transcription of the defining sums, written
with explicit loops over the power set.  Deliberately slow and entirely
independent of the library's fast transforms, so the two sides of every
comparison cannot share a bug.

``inputs_digest_oracle`` is the input digest composed the long way:
every mass function dumped to its document form by a scan of its dense
vector, then the whole tuple rounded value by value before hashing.
``dumps_result_oracle`` is a result document written the same way:
rounded value by value, then ``json.dumps(indent=2, sort_keys=True)``.

The ``*_sweep_oracle`` and ``*_dense_oracle`` functions are the dense
formulas the library used before it ran these queries over the focal
list: one O(n 2^n) lattice sweep (written here bit by bit with fancy
indexing) or one pass over all 2^n masses.  They reach n = 20, where the
definition-level loops cannot.

The phase-estimation references are the closed form of the circuit
(``fejer_meob_oracle``) and the circuit itself replayed gate by gate on
the simulator (``phase_estimation_replay``); the library applies the
same circuit as fused register operators.  The gate-level pieces the
program does not run live here: the QFT circuit (``qft_circuit``), with
its ``rz`` controlled phases and ``swap`` layer, the matrix exponentials
of the controlled evolution powers (``matrix_exponential``) and the
swap-test circuit (``swap_test_circuit``).  Each such circuit is a list
of steps replayed through ``StateVector.apply_dense_unitary``, which
reaches the same gate kernel as the library's own gates.

``read_qubit`` reads one qubit of a whole register, exactly or from the
register's seeded samples.  ``estimate_prepared_oracle`` and
``swap_test_oracle`` are the belief query and the swap test read that
way: the query's circuit run on the prepared state widened by an
ancilla, and the swap test's whole register from ``swap_test_state``.
The library reads only the half of the register its ancilla read needs.

``circuit_from_json`` reads exported circuit JSON back into a circuit,
so the tests can check that the export round-trips losslessly.

``conjunctive_matrix`` and ``disjunctive_matrix`` write each combination
rule as one matrix product, Mq^-1 diag(q) Mq and Mb^-1 diag(b) Mb, from
the library's transform matrices and lattice transforms.

``qasm_replay`` reads exported OpenQASM 2.0 text line by line and applies
each gate as its 2x2 matrix, with no use of the library's simulator.
"""

from __future__ import annotations

import hashlib
import json
import math
import re

import numpy as np

from qbelief.dst import MassFunction, b_from_mass, q_from_mass, transform_matrix
from qbelief.errors import ValidationError
from qbelief.qsim import Circuit, Gate, H, StateVector, new_state, product_state
from qbelief.quantum import BeliefQuery, belief_query_circuit
from qbelief.quantum.swap import swap_test_state


def popcount(x: int) -> int:
    return bin(x).count("1")


def bel_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for f in range(1 << n):
        out[f] = sum(masses[g] for g in range(1, 1 << n) if g | f == f)
    return out


def pl_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for f in range(1 << n):
        out[f] = sum(masses[g] for g in range(1 << n) if g & f != 0)
    return out


def q_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for f in range(1 << n):
        out[f] = sum(masses[g] for g in range(1 << n) if g & f == f)
    return out


def b_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for f in range(1 << n):
        out[f] = sum(masses[g] for g in range(1 << n) if g | f == f)
    return out


def mass_from_q_oracle(q: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for f in range(1 << n):
        out[f] = sum(
            (-1) ** (popcount(g) - popcount(f)) * q[g]
            for g in range(1 << n)
            if g & f == f
        )
    return out


def conjunctive_oracle(m1: np.ndarray, m2: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for g in range(1 << n):
        for h in range(1 << n):
            out[g & h] += m1[g] * m2[h]
    return out


def disjunctive_oracle(m1: np.ndarray, m2: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for g in range(1 << n):
        for h in range(1 << n):
            out[g | h] += m1[g] * m2[h]
    return out


def conjunctive_matrix(m: MassFunction) -> np.ndarray:
    """Matrix S with S @ m2 = conjunctive combination of m and m2.

    S = Mq^-1 @ diag(q) @ Mq, the commonality-product rule written as a
    single operator.
    """
    n = m.frame.n
    mq = transform_matrix("q", n)
    mq_inv = transform_matrix("q_inv", n)
    return mq_inv @ np.diag(q_from_mass(m).values) @ mq


def disjunctive_matrix(m: MassFunction) -> np.ndarray:
    """Matrix G with G @ m2 = disjunctive combination of m and m2.

    G = Mb^-1 @ diag(b) @ Mb, the implicability-product rule.
    """
    n = m.frame.n
    mb = transform_matrix("b", n)
    mb_inv = transform_matrix("b_inv", n)
    return mb_inv @ np.diag(b_from_mass(m).values) @ mb


def betp_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    scale = 1.0 - masses[0]
    out = np.zeros(n)
    for i in range(n):
        for f in range(1, 1 << n):
            if f >> i & 1:
                out[i] += masses[f] / (popcount(f) * scale)
    return out


def fbba_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    out = np.zeros(1 << n)
    for f in range(1, 1 << n):
        out[f] = sum(
            masses[g] / (2 ** popcount(g) - 1)
            for g in range(1, 1 << n)
            if g & f == f
        )
    out[0] = masses[0]
    return out


def shannon_oracle(p) -> float:
    return -sum(x * math.log2(x) for x in p if x > 0)


def shannon_fsum_oracle(p) -> float:
    """``shannon_oracle`` with an exactly rounded sum, for 2^20-term vectors."""
    return -math.fsum(x * math.log2(x) for x in p if x > 0)


def jaccard_oracle(n: int) -> np.ndarray:
    size = 1 << n
    out = np.empty((size, size))
    for f in range(size):
        for g in range(size):
            union = popcount(f | g)
            out[f, g] = popcount(f & g) / union if union else 1.0
    return out


def jousselme_oracle(m1: np.ndarray, m2: np.ndarray, n: int) -> float:
    d = m1 - m2
    return math.sqrt(max(0.5 * d @ jaccard_oracle(n) @ d, 0.0))


def round_payload_oracle(value):
    """Every real rounded to 12 significant digits, walking the whole value."""
    if isinstance(value, (float, np.floating)):
        return float(f"{float(value):.12g}")
    if isinstance(value, (int, np.integer, str, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [round_payload_oracle(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [round_payload_oracle(v) for v in value]
    if isinstance(value, dict):
        return {str(k): round_payload_oracle(v) for k, v in value.items()}
    raise TypeError(f"cannot round a value of type {type(value)}")


def dumps_result_oracle(doc: dict) -> str:
    """A result document as ``json.dumps`` writes it: the whole document
    rounded by ``round_payload_oracle``, keys sorted, indent 2."""
    return json.dumps(round_payload_oracle(doc), indent=2, sort_keys=True) + "\n"


def sample_counts_oracle(state: StateVector, shots: int, seed: int) -> dict[int, int]:
    """Counts of one draw of all ``shots`` uniforms from PCG64(``seed``),
    folded through the CDF by searchsorted and tallied by ``np.unique``."""
    cdf = np.cumsum(state.probabilities())
    cdf[-1] = 1.0
    draws = np.random.Generator(np.random.PCG64(seed)).random(shots)
    values, freq = np.unique(np.searchsorted(cdf, draws, side="right"), return_counts=True)
    return {int(v): int(c) for v, c in zip(values, freq)}


def dump_bba_oracle(m: MassFunction) -> dict:
    """Document form of a mass function, read off its dense vector: every
    non-zero mass with the labels of its subset's set bits, masses unrounded."""
    labels = m.frame.elements
    return {
        "frame": list(labels),
        "masses": [
            {"focal": [labels[k] for k in range(len(labels)) if i >> k & 1],
             "mass": float(m.masses[i])}
            for i in range(m.masses.size)
            if m.masses[i] != 0.0
        ],
    }


def inputs_digest_oracle(*parts) -> str:
    """Digest of the inputs with each mass function dumped to its document
    and the parts rounded by ``round_payload_oracle``."""
    docs = [dump_bba_oracle(p) if isinstance(p, MassFunction) else p for p in parts]
    canon = json.dumps(round_payload_oracle(docs), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


def _lattice_sum(values: np.ndarray, upward: bool, sign: int = 1) -> np.ndarray:
    """Subset sum (``upward``) or superset sum of a dense set function, one
    bit at a time: every index with bit k clear is paired with its k-set
    partner by fancy indexing.  ``sign`` -1 subtracts instead of adding,
    which gives the Moebius inverse of either sum."""
    out = np.array(values, dtype=np.float64)
    index = np.arange(out.size)
    for k in range(out.size.bit_length() - 1):
        clear = index[(index >> k & 1) == 0]
        dst, src = (clear | 1 << k, clear) if upward else (clear, clear | 1 << k)
        out[dst] += sign * out[src]
    return out


def _dense_popcounts(n: int) -> np.ndarray:
    index = np.arange(1 << n)
    return sum((index >> k & 1 for k in range(n)), np.zeros(1 << n))


def betp_sweep_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    """Each subset's share m(F) / (|F| (1 - m({}))), superset-summed onto the
    singletons."""
    shares = np.zeros(1 << n)
    shares[1:] = masses[1:] / (_dense_popcounts(n)[1:] * (1.0 - masses[0]))
    return _lattice_sum(shares, upward=False)[1 << np.arange(n)]


def pl_p_sweep_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    """Normalised singleton plausibilities through Pl(F) = 1 - m({}) - Bel(~F)."""
    bel = _lattice_sum(masses, upward=True) - masses[0]
    pl = (1.0 - masses[0]) - bel[::-1]
    pl[pl < 0] = 0.0
    pl = pl[1 << np.arange(n)]
    return pl / pl.sum()


def nonspecificity_dense_oracle(masses: np.ndarray, n: int) -> float:
    """The non-specificity half of the JS entropy, sum m(F) log2 |F|, over
    all 2^n subsets."""
    pc = _dense_popcounts(n)
    nz = (masses > 0) & (pc > 0)
    return float((masses[nz] * np.log2(pc[nz])).sum())


def fbba_sweep_oracle(masses: np.ndarray, n: int) -> np.ndarray:
    """Fractal reallocation: dense weights m(G) / (2^|G| - 1), superset-summed."""
    w = np.zeros(1 << n)
    w[1:] = masses[1:] / (np.exp2(_dense_popcounts(n)[1:]) - 1.0)
    out = _lattice_sum(w, upward=False)
    out[0] = masses[0]
    return out


def fidelity_dense_oracle(m1: np.ndarray, m2: np.ndarray) -> float:
    return float(np.sqrt(m1 * m2).sum())


def euclidean_dense_oracle(m1: np.ndarray, m2: np.ndarray) -> float:
    return float(np.linalg.norm(m1 - m2) / np.sqrt(2.0))


def cosine_oracle(f1: np.ndarray, f2: np.ndarray) -> float:
    return float(f1 @ f2 / (np.linalg.norm(f1) * np.linalg.norm(f2)))


def extract_register_oracle(amps: np.ndarray, qubits, fixed: dict[int, int]) -> np.ndarray:
    """Sub-state on ``qubits`` with every other qubit fixed, one basis index
    at a time: local bit j sets qubit qubits[j] on top of the fixed bits."""
    base = 0
    for q, v in fixed.items():
        base |= v << q
    sub = np.zeros(1 << len(qubits), dtype=np.complex128)
    for local in range(sub.size):
        g = base
        for j, q in enumerate(qubits):
            if local >> j & 1:
                g |= 1 << q
        sub[local] = amps[g]
    return sub / np.linalg.norm(sub)


def _embedding(a: np.ndarray) -> tuple[np.ndarray, bool]:
    a = np.asarray(a, dtype=np.complex128)
    if np.abs(a - a.conj().T).max() <= 1e-10:
        return a, False
    zero = np.zeros_like(a)
    return np.block([[zero, a.conj().T], [a, zero]]), True


def fejer_meob_oracle(
    a: np.ndarray, psi: np.ndarray, t: int, t0: float, c: float
) -> tuple[np.ndarray, float]:
    """Closed form of the phase-estimation evolution: (normalized output,
    success probability).

    An eigenvector of H with eigenvalue lambda leaves the t-qubit clock
    reading k with probability given by the Fejer kernel
    sin^2(N th / 2) / (N sin(th / 2))^2, th = lambda t0 - 2 pi k / N,
    N = 2^t (Cleve et al., quant-ph/9708016).  The ancilla rotation
    scales readout k by clip(C lambda_k), and uncomputing the clock
    averages over readouts, so the kept branch is f(H) v with
    f(lambda) = sum_k fejer(lambda, k) clip(C lambda_k).  A non-Hermitian
    A is embedded as [[0, A^dagger], [A, 0]] with v = [psi; 0]; P keeps the
    lower half, and the success probability is ||P f(H) v||^2.
    """
    h, embedded = _embedding(a)
    d = psi.size
    v = np.concatenate([psi, np.zeros(d)]) if embedded else np.asarray(psi, dtype=complex)
    lam, vecs = np.linalg.eigh(h)
    size = 1 << t
    k = np.arange(size)
    decoded = 2.0 * np.pi * np.where(k < size // 2, k, k - size) / (size * t0)
    half = (lam[:, None] * t0 - 2.0 * np.pi * k[None, :] / size) / 2.0
    den = size * np.sin(half)
    on_grid = np.abs(den) < 1e-12
    fejer = np.where(on_grid, 1.0, np.sin(size * half) ** 2 / np.where(on_grid, 1.0, den) ** 2)
    f = fejer @ np.clip(c * decoded, -1.0, 1.0)
    out = vecs @ (f * (vecs.conj().T @ v))
    if embedded:
        out = out[d:]
    success = float(np.vdot(out, out).real)
    return out / np.sqrt(success), success


#: the two-qubit SWAP, targets[0] carrying the low bit of its index
SWAP = np.eye(4, dtype=np.complex128)[[0, 2, 1, 3]]


def step_matrix(kind: str, angle: float) -> np.ndarray:
    """The unitary of one circuit step: ``h``, ``swap``, or ``rz``, the
    phase diag(1, e^{i angle}) on |1>."""
    if kind == "h":
        return H().matrix()
    if kind == "rz":
        return np.array([[1, 0], [0, np.exp(1j * angle)]], dtype=np.complex128)
    assert kind == "swap", kind
    return SWAP


def replay(steps, state: StateVector) -> StateVector:
    """Apply ``(kind, angle, targets, controls)`` steps in order, in place."""
    for kind, angle, targets, controls in steps:
        state.apply_dense_unitary(step_matrix(kind, angle), targets, controls)
    return state


def inverse_circuit(steps) -> list:
    """The adjoint steps: reversed order, phases negated."""
    return [(kind, -angle, targets, controls) for kind, angle, targets, controls in reversed(steps)]


def qft_circuit(t: int, wires=None) -> list:
    """QFT|x> = 2^{-t/2} sum_y exp(2 pi i x y / 2^t) |y> on ``wires``
    (default 0..t-1), wires[j] holding bit j of x: Hadamards and controlled
    phase rotations, then a swap layer restoring bit order."""
    w = list(range(t)) if wires is None else list(wires)
    steps = []
    for i in range(t - 1, -1, -1):
        steps.append(("h", 0.0, (w[i],), ()))
        for j in range(i - 1, -1, -1):
            steps.append(("rz", 2.0 * np.pi / (1 << (i - j + 1)), (w[i],), ((w[j], 1),)))
    for i in range(t // 2):
        steps.append(("swap", 0.0, (w[i], w[t - 1 - i]), ()))
    return steps


def swap_test_circuit(k: int) -> list:
    """The swap test on 2k + 1 qubits: registers [0, k) and [k, 2k), ancilla
    2k; H, one SWAP per register pair under the ancilla, H."""
    anc = 2 * k
    swaps = [("swap", 0.0, (j, k + j), ((anc, 1),)) for j in range(k)]
    return [("h", 0.0, (anc,), ()), *swaps, ("h", 0.0, (anc,), ())]


def matrix_exponential(h: np.ndarray, t: float | np.ndarray) -> np.ndarray:
    """exp(i h t) for Hermitian h, via eigendecomposition.

    A scalar t gives one d x d matrix; a 1-D array of times gives one
    matrix per time, stacked along a leading axis, from a single
    diagonalization.  Diagonalizing once keeps repeated powers
    exp(i h t 2^j) free of the error accumulation a squared-product
    scheme would introduce.  A non-Hermitian h is refused: ``eigh``
    would read only its lower triangle and return a wrong unitary.
    """
    h = np.asarray(h, dtype=np.complex128)
    if np.abs(h - h.conj().T).max() > 1e-9:
        raise ValueError("matrix_exponential needs a Hermitian matrix")
    evals, evecs = np.linalg.eigh(h)
    phases = np.exp(1j * np.multiply.outer(t, evals))
    return (evecs * phases[..., None, :]) @ evecs.conj().T


def read_qubit(
    state: StateVector, qubit: int, outcome: int, shots: int | None = None, seed: int | None = None
) -> float:
    """Pr(``qubit`` reads ``outcome``): exact when ``shots`` is None, otherwise
    the fraction of ``shots`` seeded samples of the state that read it."""
    if shots is None:
        return state.probability(qubit, outcome)
    if seed is None:
        raise ValidationError("sampling needs an explicit seed")
    record = state.sample(shots, seed)
    return sum(c for idx, c in record.counts.items() if (idx >> qubit & 1) == outcome) / shots


def estimate_prepared_oracle(
    prepared: StateVector, query: BeliefQuery, shots: int | None = None, seed: int | None = None
) -> float:
    """A belief query on the widened register: the prepared state joined
    with an ancilla (qubit n), the query circuit run on it, the ancilla
    read; a ``bel`` query is the b-query minus the empty-set query, the
    second seeded ``seed + 1``."""
    if query.kind == "bel":
        b_val = estimate_prepared_oracle(prepared, BeliefQuery("b", query.focal), shots, seed)
        seed2 = None if seed is None else seed + 1
        return b_val - estimate_prepared_oracle(prepared, BeliefQuery("b", 0), shots, seed2)
    n = prepared.k
    full = product_state([prepared, new_state(1)])
    belief_query_circuit(query, n).run(full)
    return read_qubit(full, n, 1, shots, seed)


def swap_test_oracle(
    s1: StateVector, s2: StateVector, shots: int | None = None, seed: int | None = None
) -> float:
    """2 Pr(ancilla = 0) - 1, read from the whole 2k + 1-qubit register."""
    return 2.0 * read_qubit(swap_test_state(s1, s2), 2 * s1.k, 0, shots, seed) - 1.0


def circuit_from_json(text: str) -> Circuit:
    """Circuit JSON read back into a circuit, through ``Circuit.append``."""
    doc = json.loads(text)
    if doc.get("schema") != "qbelief/circuit-v1":
        raise ValidationError(f"unknown circuit schema {doc.get('schema')!r}")
    circ = Circuit(int(doc["qubits"]))
    for op in doc["ops"]:
        gate = Gate(op["gate"], tuple(float(p) for p in op["params"]))
        (target,) = op["targets"]
        circ.append(gate, int(target), [(int(q), int(pol)) for q, pol in op["controls"]])
    return circ


def phase_estimation_replay(
    a: np.ndarray, psi: np.ndarray, t0: float, c: float, t: int
) -> tuple[np.ndarray, float]:
    """The evolution pipeline replayed gate by gate on the simulator.

    Phase estimation ``pe`` puts H on each clock qubit, applies
    exp(i H t0 2^j) to the evolved register under clock qubit j, and ends
    with the inverse QFT; one multiplexed RY on the ancilla follows, then
    the adjoint of ``pe`` (its gates inverted, in reverse order), then
    postselection of the ancilla to 1, the clock to 0 and, for an
    embedded A, the embedding bit to 1.
    """
    h, embedded = _embedding(a)
    n = int(psi.size).bit_length() - 1
    s = int(h.shape[0]).bit_length() - 1
    k = s + t + 1
    anc = s + t
    clock = range(s, s + t)
    state = product_state([StateVector(n, psi), new_state(k - n)])

    system = list(range(s))
    powers = matrix_exponential(h, t0 * 2.0 ** np.arange(t))
    iqft = inverse_circuit(qft_circuit(t, clock))

    size = 1 << t
    x = np.arange(size)
    lam = 2.0 * np.pi * (x - size * (x >= size // 2)) / (size * t0)
    angles = 2.0 * np.arcsin(np.clip(c * lam, -1.0, 1.0))

    for j in clock:
        state.apply(H(), j)
    for j in range(t):
        state.apply_dense_unitary(powers[j], system, [(s + j, 1)])
    replay(iqft, state)
    state.apply_multiplexed_ry(angles, anc, clock)
    replay(inverse_circuit(iqft), state)
    for j in reversed(range(t)):
        state.apply_dense_unitary(powers[j].conj().T, system, [(s + j, 1)])
    for j in reversed(clock):
        state.apply(H(), j)

    fixed = {anc: 1, **{j: 0 for j in clock}}
    if embedded:
        fixed[s - 1] = 1
    success = 1.0
    for q, v in fixed.items():
        state, p = state.postselect(q, v)
        success *= p
    out = extract_register_oracle(state.amps, list(range(n)), fixed)
    return out, success


_QASM_REG = re.compile(r"qreg q\[(\d+)\];")
_QASM_OP = re.compile(r"(x|h|ry|rz|cx)(?:\(([^)]*)\))? q\[(\d+)\](?:,q\[(\d+)\])?;")


def _qasm_matrix(kind: str, param: str | None) -> np.ndarray:
    if kind in ("x", "cx"):
        return np.array([[0, 1], [1, 0]], dtype=np.complex128)
    if kind == "h":
        return np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)
    a = float(param)
    if kind == "ry":
        c, s = math.cos(a / 2.0), math.sin(a / 2.0)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    return np.array([[1, 0], [0, complex(math.cos(a), math.sin(a))]])  # rz: phase on |1>


def qasm_replay(text: str, basis_index: int = 0) -> np.ndarray:
    """Amplitudes after running OpenQASM 2.0 text of x/h/ry/rz/cx lines on
    the basis state |basis_index>; qubit q is bit q of the basis index."""
    lines = text.splitlines()
    assert lines[:2] == ["OPENQASM 2.0;", 'include "qelib1.inc";'], lines[:2]
    k = int(_QASM_REG.fullmatch(lines[2])[1])
    assert lines[3] == f"creg c[{k}];", lines[3]
    amps = np.zeros(1 << k, dtype=np.complex128)
    amps[basis_index] = 1.0
    view = amps.reshape((2,) * k)  # qubit q is axis k - 1 - q
    for line in lines[4:]:
        match = _QASM_OP.fullmatch(line)
        assert match is not None, f"unparsed QASM line {line!r}"
        kind, param, first, second = match.groups()
        u = _qasm_matrix(kind, param)
        index: list = [slice(None)] * k
        if kind == "cx":
            index[k - 1 - int(first)] = 1
            target = int(second)
        else:
            target = int(first)
        index[k - 1 - target] = 0
        i0 = tuple(index)
        index[k - 1 - target] = 1
        i1 = tuple(index)
        a0, a1 = view[i0].copy(), view[i1].copy()
        view[i0] = u[0, 0] * a0 + u[0, 1] * a1
        view[i1] = u[1, 0] * a0 + u[1, 1] * a1
    return amps
