"""Seeded inputs and fixed request lists for the three benchmark workloads.

A workload is a *template*: the commands, options, frame sizes and focal
counts are fixed, and the seed only draws the focal sets, the masses and
the sampling seeds.  Per-request cost therefore depends on the template,
not on the seed, which keeps the run-to-run spread of the end-to-end
metrics small.  The program only ever sees the generated JSON documents.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

WORKLOADS = ("lattice", "circuit", "service")

#: option that carries each command's selector value
CHOICE_FLAG = {
    "transform": "--kind",
    "entropy": "--kind",
    "combine": "--rule",
    "similarity": "--measure",
    "prob": "--method",
}


@dataclass
class Doc:
    """A sparse mass-function document: focal bitmasks and their masses."""

    n: int
    focal: np.ndarray  # int64 bitmasks, distinct
    mass: np.ndarray  # float64, sums to one unless the document is meant to fail
    path: str = ""

    @property
    def labels(self) -> list[str]:
        return [f"e{i}" for i in range(self.n)]

    def to_json(self) -> dict:
        labels = self.labels
        return {
            "frame": labels,
            "masses": [
                {"focal": [labels[k] for k in range(self.n) if f >> k & 1], "mass": float(m)}
                for f, m in zip(self.focal.tolist(), self.mass.tolist())
            ],
        }


@dataclass
class Request:
    """One CLI invocation and what it must return."""

    cmd: str
    docs: tuple[Doc, ...]
    choice: str | None = None
    backend: str | None = None
    emit: str | None = None
    shots: int | None = None
    seed: int | None = None
    expect_exit: int = 0

    def argv(self) -> list[str]:
        args = [self.cmd]
        if self.choice is not None:
            args += [CHOICE_FLAG[self.cmd], self.choice]
        if self.backend is not None:
            args += ["--backend", self.backend]
        if self.emit is not None:
            args += ["--emit", self.emit]
        if self.shots is not None:
            args += ["--shots", str(self.shots), "--seed", str(self.seed)]
        return args + [d.path for d in self.docs]

    @property
    def kind(self) -> str:
        parts = [self.cmd, self.choice, self.backend, self.emit]
        if self.shots is not None:
            parts.append("shots")
        if self.expect_exit:
            parts.append(f"exit{self.expect_exit}")
        return ".".join(p for p in parts if p)


@dataclass
class Workload:
    name: str
    requests: list[Request]  # one lap, in order
    warmups: list[Request]  # one request per kind, on tiny documents
    tiny: Doc  # a small valid document, for the cold-start requests


# --- document generators ------------------------------------------------------


def _random_focal(rng, n: int, k: int, max_card: int, exclude: set[int]) -> list[int]:
    out: list[int] = []
    seen = set(exclude)
    while len(out) < k:
        card = int(rng.integers(1, max_card + 1))
        bits = rng.choice(n, size=card, replace=False)
        f = int(np.bitwise_or.reduce(np.left_shift(1, bits)))
        if f not in seen:
            seen.add(f)
            out.append(f)
    return out


def random_doc(rng, n: int, k: int, max_card: int | None = None, empty: float = 0.0,
               share_with: Doc | None = None) -> Doc:
    """``k`` focal sets of cardinality 1..max_card with exponential weights.

    ``empty`` puts that mass on the empty set; ``share_with`` reuses half of
    another document's focal sets so that overlap measures stay away from 0.
    """
    max_card = n if max_card is None else min(max_card, n)
    focal: list[int] = []
    if share_with is not None:
        pool = [f for f in share_with.focal.tolist() if f != 0]
        take = min(len(pool), k // 2)
        focal = [pool[i] for i in sorted(rng.choice(len(pool), size=take, replace=False))]
    room = (1 << n) - 1 - len(focal)
    focal += _random_focal(rng, n, min(k - len(focal), room), max_card, set(focal) | {0})
    weights = rng.exponential(size=len(focal))
    weights *= (1.0 - empty) / weights.sum()
    if empty > 0.0:
        focal = [0] + focal
        weights = np.concatenate([[empty], weights])
    return Doc(n, np.array(focal, dtype=np.int64), np.asarray(weights, dtype=np.float64))


def bad_sum_doc(rng, n: int) -> Doc:
    """Masses summing to 0.9: validation must refuse it with exit code 1."""
    d = random_doc(rng, n, 3)
    return Doc(n, d.focal, d.mass * 0.9)


def conflict_pair(rng, n: int) -> tuple[Doc, Doc]:
    """Two documents on disjoint halves of the frame: Dempster's rule meets
    total conflict and must exit with code 2."""
    half = n // 2
    lo = random_doc(rng, half, 3)
    hi = random_doc(rng, n - half, 3)
    return Doc(n, lo.focal, lo.mass), Doc(n, hi.focal << half, hi.mass)


# --- workload templates -------------------------------------------------------


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def _tiny(rng) -> dict:
    """Documents for the warm-up pass, which runs every request kind once."""
    a = random_doc(rng, 3, 4)
    return {
        "a": a,
        "b": random_doc(rng, 3, 4, share_with=a),
        "bad": bad_sum_doc(rng, 3),
        "conflict": conflict_pair(rng, 4),
    }


def _warmups(requests: list[Request], tiny: dict) -> list[Request]:
    out: dict[str, Request] = {}
    for r in requests:
        if r.kind in out:
            continue
        if r.expect_exit == 1:
            docs = (tiny["bad"],)
        elif r.expect_exit == 2:
            docs = tiny["conflict"]
        else:
            docs = (tiny["a"], tiny["b"])[: len(r.docs)]
        out[r.kind] = replace(r, docs=docs)
    return list(out.values())


def _lattice(rng, smoke: bool) -> list[Request]:
    """Classical engine at the frame cap, sparse inputs, short outputs."""
    # (n, focal count of a, focal count of b); b carries empty-set mass
    sizes = [(6, 12, 8), (7, 16, 12)] if smoke else [
        (18, 256, 256), (18, 512, 512), (18, 1024, 1024), (20, 4096, 1024)]
    reqs: list[Request] = []
    for i, (n, ka, kb) in enumerate(sizes):
        a = random_doc(rng, n, ka, max_card=12)
        b = random_doc(rng, n, kb, max_card=12, empty=0.05, share_with=a)
        one, other = (a, b) if i % 2 == 0 else (b, a)
        reqs += [
            Request("entropy", (one,), "js"),
            Request("entropy", (other,), "fb"),
            Request("prob", (one,), "ppt"),
            Request("prob", (other,), "ptm"),
            Request("similarity", (a, b), "fb-inner"),
            Request("similarity", (a, b), "fidelity"),
            Request("similarity", (a, b), "euclidean"),
        ]
    # one tiny export per lap, so every layer has a measured self time here
    reqs.append(Request("prepare", (random_doc(rng, 3, 4),), emit="qasm"))
    return reqs


def _circuit(rng, smoke: bool) -> list[Request]:
    """Quantum-circuit backend: preparation, extraction, MEoB, swap test."""
    qc = "quantum-circuit"
    seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    prep_n = (4, 5) if smoke else (10, 11)
    meob_n = (2, 3) if smoke else (3, 4)
    swap_n = (3, 4) if smoke else (8, 9)
    qasm_n = 3 if smoke else 7
    shots = 256 if smoke else 4096
    reqs: list[Request] = []
    for n in prep_n:
        for _ in range(2):
            reqs.append(Request("prepare", (random_doc(rng, n, 24),), shots=shots, seed=seed()))
    ptm_doc = random_doc(rng, prep_n[0], 24)
    reqs += [
        Request("prob", (ptm_doc,), "ptm", qc),
        Request("prob", (random_doc(rng, prep_n[0], 24),), "ptm", qc, shots=shots, seed=seed()),
    ]
    small, big = meob_n
    s_a = random_doc(rng, small, 5, empty=0.1)
    s_b = random_doc(rng, small, 5, share_with=s_a)
    b_a = random_doc(rng, big, 6)
    b_b = random_doc(rng, big, 6, share_with=b_a)
    reqs += [
        Request("transform", (b_a,), "q", qc),
        Request("transform", (s_a,), "fbba", qc),
        Request("combine", (s_a, s_b), "ccr", qc),
        Request("combine", (s_a, s_b), "dcr", qc),
        Request("combine", (b_a, b_b), "ccr", qc),
        Request("prob", (b_b,), "ppt", qc),
        Request("similarity", (s_a, s_b), "fb-inner", qc),
        Request("similarity", (b_a, b_b), "fb-inner", qc),
    ]
    for n in (swap_n[0], swap_n[0], swap_n[1]):
        a = random_doc(rng, n, 12)
        reqs.append(Request("similarity", (a, random_doc(rng, n, 12, share_with=a)), "fidelity", qc))
    for _ in range(2):
        reqs.append(Request("prepare", (random_doc(rng, qasm_n, 16),), emit="qasm"))
    return reqs


def _service(rng, smoke: bool) -> list[Request]:
    """Many cheap requests: every command on the classical and oracle backends."""
    qo = "quantum-oracle"
    ns = [3, 4, 5, 6, 7, 8]
    docs = {}
    for n in ns:
        a = random_doc(rng, n, min(2**n - 1, 3 * n))
        docs[n] = (a, random_doc(rng, n, min(2**n - 1, 3 * n), empty=0.05, share_with=a))
    dense_n = (5, 6) if smoke else (12, 13)
    seed = lambda: int(rng.integers(0, 2**31))  # noqa: E731
    reqs: list[Request] = []
    for n in ns:
        reqs.append(Request("validate", (docs[n][n % 2],)))
    for n in (4, 6, 8):
        reqs += [Request("entropy", (docs[n][1],), "js"), Request("entropy", (docs[n][0],), "fb")]
    for kind, n in zip(("bel", "pl", "q", "fbba", "betm"), (5, 6, 7, 8, 6)):
        reqs.append(Request("transform", (docs[n][1],), kind))
    for kind, n in zip(("bel", "pl", "q", "fbba", "betm"), (3, 4, 5, 6, 4)):
        # the pignistic spread matrix has no empty-set column: use the normal document
        reqs.append(Request("transform", (docs[n][0],), kind, qo))
    for rule in ("ccr", "dcr", "dempster"):
        for n in (4, 8):
            reqs.append(Request("combine", docs[n], rule))
        for n in (3, 6):
            reqs.append(Request("combine", docs[n], rule, qo))
    for measure, n in zip(("jousselme", "fb-inner", "fidelity", "euclidean", "inner-bba"), ns[1:]):
        reqs.append(Request("similarity", docs[n], measure))
    reqs.append(Request("similarity", docs[8], "jousselme"))
    for measure, n in (("fb-inner", 4), ("fb-inner", 7), ("fidelity", 5), ("fidelity", 8)):
        reqs.append(Request("similarity", docs[n], measure, qo))
    reqs += [
        Request("prob", (docs[5][1],), "ppt"),
        Request("prob", (docs[7][1],), "ptm"),
        Request("prob", (docs[5][0],), "ppt", qo),
        Request("prob", (docs[6][0],), "ptm", qo),
        Request("prob", (docs[4][0],), "ptm", qo, shots=1024, seed=seed()),
        Request("prepare", (docs[4][0],), emit="circuit-json"),
        Request("prepare", (docs[3][1],), emit="qasm"),
        Request("prepare", (docs[5][1],), shots=1024, seed=seed()),
    ]
    big_a = random_doc(rng, dense_n[1], 40)
    big_b = random_doc(rng, dense_n[1], 40, empty=0.05, share_with=big_a)
    reqs += [
        Request("combine", (big_a, big_b), "ccr"),
        Request("transform", (random_doc(rng, dense_n[0], 40),), "pl"),
        Request("validate", (bad_sum_doc(rng, 5),), expect_exit=1),
        Request("combine", conflict_pair(rng, 6), "dempster", expect_exit=2),
    ]
    return reqs


_TEMPLATES = {"lattice": _lattice, "circuit": _circuit, "service": _service}


def build(workload: str, seed: int, workdir: Path, smoke: bool = False) -> Workload:
    """Generate the workload's documents, write them under ``workdir`` and
    return its request lap and warm-up requests."""
    rng = _rng(workload, seed)
    requests = _TEMPLATES[workload](rng, smoke)
    tiny = _tiny(rng)
    warmups = _warmups(requests, tiny)
    docs: dict[int, Doc] = {}
    for r in requests + warmups:
        for d in r.docs:
            docs[id(d)] = d
    workdir.mkdir(parents=True, exist_ok=True)
    for i, d in enumerate(docs.values()):
        d.path = str(workdir / f"doc{i:03d}-n{d.n}.json")
        with open(d.path, "w", encoding="utf-8") as fh:
            json.dump(d.to_json(), fh)
    return Workload(workload, requests, warmups, tiny["a"])
