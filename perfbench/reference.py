"""Independent expected results and the check applied to every response.

Nothing in this module imports ``qbelief``.  Classical values are sums
over the sparse focal list of each document; they never use the subset
lattice sweeps, so a fast but wrong sweep kernel fails the check.
Quantum-oracle values are the same quantities, normalised the way the
pipelines normalise them.  Quantum-circuit values of the matrix-evolution
(MEoB) pipelines come from the closed form of the phase-estimation
circuit: with t clock qubits, postselecting the rotation ancilla on 1 and
the clock on 0 applies f(H) to the input, where

    f(lam) = sum_k |alpha_k(lam)|^2 * clip(C * lam_k, -1, 1),
    alpha_k(lam) = 2^-t * sum_x exp(i x (lam t0 - 2 pi k / 2^t)),

lam_k is the two's-complement decoding of clock value k, and t0 and C
are the pipeline defaults 0.9 pi / max|lam| and 0.99 / max|lam|.  The
transform matrices are built here from their set definitions.  Sampled
results are checked statistically.

``make_check(request)`` computes the reference once, at set-up, and
returns a function ``check(exit_code, stdout, stderr) -> str | None``
that gives ``None`` for a correct response and a reason otherwise.
"""

from __future__ import annotations

import json
import math
import re
from typing import Callable

import numpy as np

from workloads import Doc, Request

#: result documents round reals to 12 significant digits
CLASSICAL_RTOL = 1e-10
CLASSICAL_ATOL = 1e-12
#: oracle and exact-statevector results, and circuit results against the
#: closed-form phase-estimation filter
QUANTUM_ATOL = 1e-8
#: sampled estimates: a 3-sigma bound would flag about one correct estimate
#: in 370, and a run checks thousands, so the bound is 6 sigma (about 2e-9
#: false alarms per estimate)
SAMPLE_Z = 6.0
#: clock width the CLI uses for every MEoB pipeline
MEOB_T = 8
#: measurement floor of the combination pipelines
MAG_FLOOR = 1e-9

Check = Callable[[int, str, str], "str | None"]


# --- classical reference over the sparse focal list ---------------------------


def popcount(x) -> np.ndarray:
    x = np.asarray(x, dtype=np.int64)
    out = np.zeros_like(x)
    for k in range(int(x.max(initial=0)).bit_length()):
        out += (x >> k) & 1
    return out


def _bits(doc: Doc) -> np.ndarray:
    """K x n membership matrix of the focal sets."""
    return ((doc.focal[:, None] >> np.arange(doc.n)[None, :]) & 1).astype(np.float64)


def _empty_mass(doc: Doc) -> float:
    return float(doc.mass[doc.focal == 0].sum())


def _shannon(p: np.ndarray) -> float:
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def pl_singletons(doc: Doc) -> np.ndarray:
    return doc.mass @ _bits(doc)


def pl_p(doc: Doc) -> np.ndarray:
    pl = pl_singletons(doc)
    return pl / pl.sum()


def betp(doc: Doc) -> np.ndarray:
    nz = doc.focal != 0
    shares = doc.mass[nz] / popcount(doc.focal[nz])
    return shares @ _bits(doc)[nz] / (1.0 - _empty_mass(doc))


def js_entropy(doc: Doc) -> float:
    nz = doc.focal != 0
    return _shannon(pl_p(doc)) + float((doc.mass[nz] * np.log2(popcount(doc.focal[nz]))).sum())


def _subsets(f: int) -> np.ndarray:
    """Every subset of bitmask ``f``, the empty set first."""
    out = np.zeros(1 << bin(f).count("1"), dtype=np.int64)
    j = 0
    for k in range(f.bit_length()):
        if f >> k & 1:
            out[1 << j: 2 << j] = out[: 1 << j] | (1 << k)
            j += 1
    return out


def fbba(doc: Doc) -> np.ndarray:
    """Fractal reallocation: each focal mass split evenly over its non-empty
    subsets; empty-set mass stays where it is."""
    size = 1 << doc.n
    out = np.zeros(size)
    idx: list[np.ndarray] = []
    wts: list[np.ndarray] = []
    pending = 0
    for f, m in zip(doc.focal.tolist(), doc.mass.tolist()):
        if f == 0:
            out[0] += m
            continue
        sub = _subsets(f)[1:]
        idx.append(sub)
        wts.append(np.full(sub.size, m / sub.size))
        pending += sub.size
        if pending > 1 << 20:  # bounded memory at n = 20
            out += np.bincount(np.concatenate(idx), np.concatenate(wts), minlength=size)
            idx, wts, pending = [], [], 0
    if idx:
        out += np.bincount(np.concatenate(idx), np.concatenate(wts), minlength=size)
    return out


def dense(doc: Doc) -> np.ndarray:
    v = np.zeros(1 << doc.n)
    v[doc.focal] = doc.mass
    return v


def set_function(doc: Doc, kind: str) -> np.ndarray:
    """Dense set function of a document, summed focal set by focal set.

    ``bel``, ``b``, ``pl``, ``q`` and ``fbba`` as usual; ``betm`` is the
    pignistic spread of the classical engine (renormalised off the empty
    set); ``bet`` is the cardinality-spread matrix applied to the masses
    (no renormalisation), which is what the quantum pipelines evolve by.
    """
    if kind == "fbba":
        return fbba(doc)
    idx = np.arange(1 << doc.n)
    if kind == "betm":
        return ((idx[:, None] >> np.arange(doc.n)[None, :]) & 1) @ betp(doc)
    out = np.zeros(idx.size)
    for f, m in zip(doc.focal.tolist(), doc.mass.tolist()):
        if kind in ("bel", "b"):
            if f or kind == "b":
                out[(idx & f) == f] += m
        elif kind == "pl":
            out[(idx & f) != 0] += m
        elif kind == "q":
            out[(idx & f) == idx] += m
        elif kind == "bet":
            if f:
                out += m * popcount(idx & f) / bin(f).count("1")
        else:
            raise ValueError(kind)
    return out


def combine(d1: Doc, d2: Doc, rule: str) -> np.ndarray:
    """Conjunctive (``ccr``) or disjunctive (``dcr``) combination by pairs of
    focal sets, or Dempster's rule; ``None`` on total conflict."""
    op = np.bitwise_or if rule == "dcr" else np.bitwise_and
    out = np.zeros(1 << d1.n)
    np.add.at(out, op.outer(d1.focal, d2.focal).ravel(), np.outer(d1.mass, d2.mass).ravel())
    if rule == "dempster":
        conflict = out[0]
        if conflict >= 1.0 - 1e-12:
            return None
        out = out / (1.0 - conflict)
        out[0] = 0.0
    return out


def _jaccard_form(d1: Doc, d2: Doc, w1: np.ndarray, w2: np.ndarray) -> float:
    inter = popcount(np.bitwise_and.outer(d1.focal, d2.focal)).astype(np.float64)
    union = popcount(np.bitwise_or.outer(d1.focal, d2.focal)).astype(np.float64)
    both_empty = union == 0
    union[both_empty] = 1.0
    jac = inter / union
    jac[both_empty] = 1.0
    return float(w1 @ jac @ w2)


def similarity(d1: Doc, d2: Doc, measure: str) -> float:
    if measure == "fb-inner":
        f1, f2 = fbba(d1), fbba(d2)
        return float(np.clip(f1 @ f2 / (np.linalg.norm(f1) * np.linalg.norm(f2)), 0.0, 1.0))
    if measure == "inner-bba":
        return _jaccard_form(d1, d2, d1.mass, d2.mass)
    # the remaining measures act on the union of the two focal lists
    union = np.union1d(d1.focal, d2.focal)
    u = Doc(d1.n, union, np.zeros(union.size))
    m1 = np.zeros(union.size)
    m2 = np.zeros(union.size)
    m1[np.searchsorted(union, d1.focal)] = d1.mass
    m2[np.searchsorted(union, d2.focal)] = d2.mass
    if measure == "fidelity":
        return float(np.sqrt(m1 * m2).sum())
    if measure == "euclidean":
        return float(np.linalg.norm(m1 - m2) / math.sqrt(2.0))
    if measure == "jousselme":
        d = m1 - m2
        return math.sqrt(max(0.5 * _jaccard_form(u, u, d, d), 0.0))
    raise ValueError(measure)


# --- closed-form matrix evolution ---------------------------------------------


def transform_matrix(kind: str, n: int) -> np.ndarray:
    idx = np.arange(1 << n)
    F, G = idx[:, None], idx[None, :]
    sub = (F & G) == F  # F is a subset of G
    sup = (F & G) == G  # G is a subset of F
    pc = popcount(idx).astype(np.float64)
    if kind == "q":
        return sub.astype(np.float64)
    if kind == "q_inv":
        return sub * (-1.0) ** popcount(F ^ G)
    if kind == "b":
        return sup.astype(np.float64)
    if kind == "b_inv":
        return sup * (-1.0) ** popcount(F ^ G)
    if kind == "fractal":
        w = np.zeros(idx.size)
        w[1:] = 1.0 / (np.exp2(pc[1:]) - 1.0)
        out = (sub & (F != 0)) * w[None, :]
        out[0, 0] = 1.0
        return out
    if kind == "bet":
        inv = np.zeros(idx.size)
        inv[1:] = 1.0 / pc[1:]
        return popcount(F & G) * inv[None, :]
    raise ValueError(kind)


def qpe_apply(a: np.ndarray, psi: np.ndarray, t: int = MEOB_T) -> np.ndarray:
    """Normalised output of the phase-estimation pipeline on ``psi``.

    Non-Hermitian matrices go through the block embedding
    [[0, A^dagger], [A, 0]] with input [psi; 0], and the output is the
    normalised lower half.
    """
    a = np.asarray(a, dtype=np.complex128)
    d = a.shape[0]
    embedded = np.abs(a - a.conj().T).max() > 1e-10
    if embedded:
        zero = np.zeros((d, d))
        h = np.block([[zero, a.conj().T], [a, zero]])
        v = np.concatenate([psi, np.zeros(d)])
    else:
        h, v = a, psi
    lam, vecs = np.linalg.eigh(h)
    lam_max = np.abs(lam).max()
    t0, c = 0.9 * np.pi / lam_max, 0.99 / lam_max
    size = 1 << t
    k = np.arange(size)
    decoded = 2.0 * np.pi * np.where(k < size // 2, k, k - size) / (size * t0)
    # |alpha_k|^2 is the Fejer kernel sin^2(N th / 2) / (N sin(th / 2))^2, th = lam t0 - 2 pi k / N
    half = (lam[:, None] * t0 - 2.0 * np.pi * k[None, :] / size) / 2.0
    den = size * np.sin(half)
    on_grid = np.abs(den) < 1e-12
    fejer = np.where(on_grid, 1.0, np.sin(size * half) ** 2 / np.where(on_grid, 1.0, den) ** 2)
    f = fejer @ np.clip(c * decoded, -1.0, 1.0)
    out = vecs @ (f * (vecs.conj().T @ v))
    out /= np.linalg.norm(out)
    if embedded:
        out = out[d:] / np.linalg.norm(out[d:])
    return out


def _evolve_mass(m: np.ndarray, matrix: np.ndarray, backend: str) -> np.ndarray:
    """diag(sqrt m) then ``matrix`` on the encoding sqrt(m): normalised matrix @ m."""
    if backend == "quantum-oracle":
        out = matrix @ m
        return out / np.linalg.norm(out)
    psi = qpe_apply(np.diag(np.sqrt(m)), np.sqrt(m))
    return qpe_apply(matrix, psi)


def _chain_combination(d1: Doc, d2: Doc, rule: str, backend: str) -> np.ndarray:
    """Masses recovered by the quantum combination pipelines."""
    base = "dcr" if rule == "dcr" else "ccr"
    if backend == "quantum-oracle":
        v = combine(d1, d2, base)
        mags = v / np.linalg.norm(v)
    else:
        n = d1.n
        fwd, back, prod = ("b", "b_inv", "b") if base == "dcr" else ("q", "q_inv", "q")
        m1 = dense(d1)
        psi = np.sqrt(m1)
        for mat in (np.diag(np.sqrt(m1)), transform_matrix(fwd, n),
                    np.diag(set_function(d2, prod)), transform_matrix(back, n)):
            psi = qpe_apply(mat, psi)
        mags = np.abs(psi)
    mags[mags < MAG_FLOOR] = 0.0
    out = mags / mags.sum()
    if rule == "dempster":
        out = out / (1.0 - out[0])
        out[0] = 0.0
        out = out / out.sum()
    return out


# --- simulators for exported circuits -----------------------------------------


def _apply_1q(psi: np.ndarray, n: int, u: np.ndarray, target: int, controls=()) -> None:
    t = psi.reshape((2,) * n)
    index: list = [slice(None)] * n
    for q, pol in controls:
        index[n - 1 - q] = pol
    i0, i1 = list(index), list(index)
    i0[n - 1 - target] = 0
    i1[n - 1 - target] = 1
    a0, a1 = t[tuple(i0)].copy(), t[tuple(i1)].copy()
    t[tuple(i0)] = u[0, 0] * a0 + u[0, 1] * a1
    t[tuple(i1)] = u[1, 0] * a0 + u[1, 1] * a1


_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
_H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2.0)


def _gate(kind: str, params: list[float]) -> np.ndarray:
    if kind == "x":
        return _X
    if kind == "h":
        return _H
    (a,) = params
    if kind == "ry":
        c, s = math.cos(a / 2), math.sin(a / 2)
        return np.array([[c, -s], [s, c]], dtype=np.complex128)
    if kind == "rz":
        return np.array([[1, 0], [0, complex(math.cos(a), math.sin(a))]])
    raise ValueError(f"gate {kind!r}")


_QASM_LINE = re.compile(r"^(\w+)(?:\(([^)]*)\))? q\[(\d+)\](?:,q\[(\d+)\])?;$")


def _run_qasm(text: str, n: int) -> np.ndarray:
    lines = text.splitlines()
    header = ["OPENQASM 2.0;", 'include "qelib1.inc";', f"qreg q[{n}];", f"creg c[{n}];"]
    if lines[:4] != header:
        raise ValueError("unexpected QASM header")
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    for line in lines[4:]:
        m = _QASM_LINE.match(line)
        if m is None:
            raise ValueError(f"unparsed QASM line {line!r}")
        kind, params, q1, q2 = m.groups()
        if kind == "cx":
            _apply_1q(psi, n, _X, int(q2), [(int(q1), 1)])
        else:
            values = [float(p) for p in params.split(",")] if params else []
            _apply_1q(psi, n, _gate(kind, values), int(q1))
    return psi


def _run_circuit_json(doc: dict, n: int) -> np.ndarray:
    if doc.get("schema") != "qbelief/circuit-v1" or doc.get("qubits") != n:
        raise ValueError("unexpected circuit document header")
    if len(doc["ops"]) != (1 << n) - 1:
        raise ValueError(f"{len(doc['ops'])} ops, expected 2^n - 1 = {(1 << n) - 1}")
    psi = np.zeros(1 << n, dtype=np.complex128)
    psi[0] = 1.0
    for op in doc["ops"]:
        (target,) = op["targets"]
        _apply_1q(psi, n, _gate(op["gate"], op["params"]), target, op["controls"])
    return psi


# --- response checks ----------------------------------------------------------


def _close(got, want, rtol: float, atol: float, what: str) -> str | None:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape}, expected {want.shape}"
    err = np.abs(got - want) - (atol + rtol * np.abs(want))
    if err.size and err.max() > 0:
        i = int(err.argmax())
        return f"{what}: {got.flat[i]!r} vs reference {want.flat[i]!r}"
    return None


def _labels(n: int) -> list[str]:
    names = [f"e{k}" for k in range(n)]
    return ["{" + ",".join(names[k] for k in range(n) if i >> k & 1) + "}" for i in range(1 << n)]


def _json_check(operation: str, backend: str | None, payload_check, **extra) -> Check:
    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        doc = json.loads(out)
        if doc.get("schema") != "qbelief/result-v1" or doc.get("operation") != operation:
            return f"unexpected header {doc.get('schema')!r} {doc.get('operation')!r}"
        if doc.get("backend") != backend:
            return f"backend {doc.get('backend')!r}, expected {backend!r}"
        for key, value in extra.items():
            if doc.get(key) != value:
                return f"{key} {doc.get(key)!r}, expected {value!r}"
        return payload_check(doc["payload"])
    return check


def _scalar(key: str, want: float, rtol: float, atol: float, squared: bool = False):
    """``squared`` compares v^2: the swap test measures the squared overlap,
    and the square root amplifies rounding near zero."""
    def payload_check(p):
        got = p[key]
        if squared:
            return _close(got * got, want * want, rtol, atol, key + "^2")
        return _close(got, want, rtol, atol, key)
    return payload_check


def _vector(key: str, want: np.ndarray, rtol: float, atol: float, label_key: str | None = None,
            labels: list[str] | None = None, **flags):
    def payload_check(p):
        if label_key is not None and p[label_key] != labels:
            return f"{label_key} do not match the frame"
        for k, v in flags.items():
            if p.get(k) != v:
                return f"payload {k} is {p.get(k)!r}"
        return _close(p[key], want, rtol, atol, key)
    return payload_check


def _samples_check(doc: Doc, shots: int):
    p = dense(doc)
    labels = _labels(doc.n)
    index = {lab: i for i, lab in enumerate(labels)}

    def payload_check(payload):
        counts = {index[k]: v for k, v in payload["counts"].items()}
        if sum(counts.values()) != shots:
            return f"counts sum to {sum(counts.values())}, expected {shots}"
        for i, c in counts.items():
            if p[i] == 0.0:
                return f"outcome {labels[i]} has mass 0 but was sampled {c} times"
            if abs(payload["frequencies"][labels[i]] - c / shots) > 1e-12:
                return f"frequency of {labels[i]} disagrees with its count"
        for i in np.flatnonzero(p):
            c = counts.get(int(i), 0)
            sigma = math.sqrt(shots * p[i] * (1.0 - p[i]))
            if abs(c - shots * p[i]) > SAMPLE_Z * sigma + 1.0:
                return f"count of {labels[i]} is {c}, expected {shots * p[i]:.1f} +- {sigma:.1f}"
        return None
    return payload_check


def _ptm_shots_check(doc: Doc, shots: int):
    """Normalised plausibilities from n independently sampled extractions.

    Delta method: p_j = v_j / S with v_i ~ Binomial(shots, pl_i) / shots.
    """
    pl = pl_singletons(doc)
    total = pl.sum()
    want = pl / total
    var_v = pl * (1.0 - pl) / shots
    jac = (np.eye(doc.n) - want[:, None]) / total
    sigma = np.sqrt((jac ** 2) @ var_v)
    tol = SAMPLE_Z * sigma + 2.0 / (shots * total)

    def payload_check(payload):
        got = np.asarray(payload["probabilities"])
        if payload["elements"] != doc.labels or got.shape != want.shape:
            return "elements do not match the frame"
        bad = np.abs(got - want) > tol
        if bad.any():
            j = int(np.argmax(bad))
            return f"probability of e{j} is {got[j]}, expected {want[j]} +- {tol[j]:.3g}"
        return None
    return payload_check


def _error_check(code: int, error: str) -> Check:
    def check(got: int, out: str, err: str) -> str | None:
        if got != code:
            return f"exit code {got}, expected {code}"
        diag = json.loads(err.strip().splitlines()[-1])
        if diag.get("error") != error:
            return f"diagnostic {diag!r}, expected error {error}"
        return None
    return check


_VALIDATE = re.compile(r"^valid, (\d+) focal sets, (.+) \(mass sum ([^,]+), n=(\d+)\)\n$")


def _validate_check(doc: Doc) -> Check:
    cards = popcount(doc.focal)
    by_size = doc.focal[np.argsort(cards, kind="stable")].tolist()
    flags = [name for name, on in [
        ("subnormal", _empty_mass(doc) > 0),
        ("bayesian", bool(np.all(cards == 1))),
        ("vacuous", doc.focal.size == 1 and doc.focal[0] == (1 << doc.n) - 1),
        ("consonant", all(a & b == a for a, b in zip(by_size, by_size[1:]))),
    ] if on]
    shape = ", ".join(flags) if flags else "normal"

    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        m = _VALIDATE.match(out)
        if m is None:
            return f"unexpected output {out[:200]!r}"
        if (int(m[1]), m[2], int(m[4])) != (doc.focal.size, shape, doc.n):
            return f"reported {m.groups()}, expected {doc.focal.size} / {shape} / n={doc.n}"
        return _close(float(m[3]), doc.mass.sum(), CLASSICAL_RTOL, CLASSICAL_ATOL, "mass sum")
    return check


def _circuit_text_check(doc: Doc, emit: str) -> Check:
    want = dense(doc)

    def check(code: int, out: str, err: str) -> str | None:
        if code != 0:
            return f"exit code {code}: {err.strip()[:200]}"
        try:
            if emit == "qasm":
                psi = _run_qasm(out, doc.n)
            else:
                psi = _run_circuit_json(json.loads(out), doc.n)
        except (ValueError, KeyError) as exc:
            return f"{emit}: {exc}"
        return _close(np.abs(psi) ** 2, want, 0.0, QUANTUM_ATOL, f"{emit} probabilities")
    return check


def make_check(req: Request) -> Check:
    """Reference result of ``req``, computed now; returns its checker."""
    docs = req.docs
    if req.expect_exit == 1:
        return _error_check(1, "MassSumViolation")
    if req.expect_exit == 2:
        if combine(docs[0], docs[1], "dempster") is not None:
            raise ValueError("conflict request whose inputs do not conflict")
        return _error_check(2, "TotalConflict")
    if req.cmd == "validate":
        return _validate_check(docs[0])
    if req.cmd == "prepare":
        if req.emit is not None:
            return _circuit_text_check(docs[0], req.emit)
        return _json_check("prepare.sample", "quantum-circuit",
                           _samples_check(docs[0], req.shots), shots=req.shots, seed=req.seed)

    op = f"{req.cmd}.{req.choice}"
    backend = req.backend or "classical"
    quantum = backend != "classical"
    rtol, atol = (0.0, QUANTUM_ATOL) if quantum else (CLASSICAL_RTOL, CLASSICAL_ATOL)
    d = docs[0]

    if req.cmd == "entropy":
        want = js_entropy(d) if req.choice == "js" else _shannon(fbba(d))
        return _json_check(op, None, _scalar("bits", want, rtol, atol))

    if req.cmd == "prob":
        extra = {"shots": req.shots, "seed": req.seed} if req.shots is not None else {}
        if req.shots is not None:
            return _json_check(op, backend, _ptm_shots_check(d, req.shots), **extra)
        if req.choice == "ptm":
            want = pl_p(d)
        elif backend == "quantum-circuit":
            mags = np.abs(_evolve_mass(dense(d), transform_matrix("bet", d.n), backend))
            want = mags[1 << np.arange(d.n)]
            want = want / want.sum()
        else:
            want = betp(d)
        return _json_check(op, backend, _vector("probabilities", want, rtol, atol,
                                                "elements", d.labels))

    if req.cmd == "similarity":
        squared = quantum  # swap-test estimates are squared overlaps
        if backend == "quantum-circuit" and req.choice == "fb-inner":
            fr = transform_matrix("fractal", d.n)
            s1 = _evolve_mass(dense(docs[0]), fr, backend)
            s2 = _evolve_mass(dense(docs[1]), fr, backend)
            want = abs(np.vdot(s1, s2))
        else:
            want = similarity(docs[0], docs[1], req.choice)
        return _json_check(op, backend, _scalar("value", want, rtol, atol, squared))

    labels = _labels(d.n)
    if req.cmd == "transform":
        if not quantum:
            return _json_check(op, backend, _vector("values", set_function(d, req.choice),
                                                    rtol, atol, "subsets", labels))
        if backend == "quantum-circuit":
            mat = transform_matrix("fractal" if req.choice == "fbba" else req.choice, d.n)
            want = np.abs(_evolve_mass(dense(d), mat, backend))
        else:
            v = set_function(d, "bet" if req.choice == "betm" else req.choice)
            want = np.abs(v) / np.linalg.norm(v)
        return _json_check(op, backend, _vector("values", want, rtol, atol, "subsets", labels,
                                                normalized_only=True))

    if req.cmd == "combine":
        if quantum:
            want = _chain_combination(docs[0], docs[1], req.choice, backend)
        else:
            want = combine(docs[0], docs[1], req.choice)
        return _json_check(op, backend, _vector("masses", want, rtol, atol, "subsets", labels))

    raise ValueError(f"no reference for {req.kind}")
