"""Belief extraction from an amplitude-encoded mass function.

One ancilla and one multi-controlled NOT per query.  Which amplitudes the
flip selects is everything:

- ``b``:  open controls on every qubit outside F -> flips exactly the
  basis states of subsets of F, so Pr(ancilla=1) = b(F) = Bel(F) + m({}).
- ``q``:  closed controls on every qubit inside F -> supersets of F,
  Pr(ancilla=1) = q(F).
- ``pl``: open controls on every qubit inside F, then X on the ancilla
  -> complements the F-avoiding mass, Pr(ancilla=1) = Pl(F).
- ``bel``: no single control pattern selects "non-empty subset of F";
  evaluated as the b-query minus the empty-set query (b with F = {}),
  combined classically.

``belief_query_circuit`` is the circuit of a query.  ``estimate_belief``
does not run it: the flip moves each selected amplitude, unchanged, to
the ancilla-1 half of the widened register, so Pr(ancilla=1) is read from
|prepared|^2 split by the query's selection into a selected half and an
unselected half.  No widened register is built, and the exact and sampled
reads are byte-identical to the read of the register the circuit leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..dst.mass import MassFunction
from ..errors import EmptyFocal, IndexOutOfRange, ValidationError
from ..qsim.circuit import Circuit
from ..qsim.gates import X
from ..qsim.state import read_top_qubit
from .prepare import prepare_bba_state

KINDS = ("bel", "pl", "q", "b")


@dataclass(frozen=True)
class BeliefQuery:
    kind: str
    focal: int

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValidationError(f"query kind must be one of {KINDS}, got {self.kind!r}")
        if self.focal < 0:
            raise IndexOutOfRange("focal bitmask must be non-negative")
        if self.kind in ("bel", "pl", "q") and self.focal == 0:
            raise EmptyFocal(f"{self.kind} query needs a non-empty focal set")


def belief_query_circuit(query: BeliefQuery, n: int) -> Circuit:
    """Extraction circuit on n register qubits plus the ancilla (qubit n).

    Supports kinds ``b``, ``q`` and ``pl``; a ``bel`` query is two ``b``
    circuits and lives in :func:`estimate_belief`.
    """
    _check_focal(query, n)
    circ = Circuit(n + 1)
    member = [j for j in range(n) if query.focal >> j & 1]
    outside = [j for j in range(n) if not query.focal >> j & 1]
    if query.kind == "b":
        circ.append(X(), n, [(j, 0) for j in outside])
    elif query.kind == "q":
        circ.append(X(), n, [(j, 1) for j in member])
    elif query.kind == "pl":
        circ.append(X(), n, [(j, 0) for j in member])
        circ.append(X(), n)
    else:
        raise ValidationError("bel queries have no single-circuit form; use estimate_belief")
    return circ


def _check_focal(query: BeliefQuery, n: int) -> None:
    if query.focal >= (1 << n):
        raise IndexOutOfRange(f"focal {query.focal} out of range for n={n}")


def estimate_belief(
    m: MassFunction, query: BeliefQuery, shots: int | None = None, seed: int | None = None
) -> float:
    """Evaluate one belief query against a prepared state.

    Reads the exact ancilla-1 probability, or, when ``shots`` is given,
    samples the ancilla ``shots`` times from ``seed`` and returns the count
    ratio.  A ``bel`` query reads the b-query and the empty-set query from
    one prepared state and subtracts.
    """
    return _estimate_prepared(prepare_bba_state(m).probabilities(), query, shots, seed)


def _estimate_prepared(
    probs: np.ndarray, query: BeliefQuery, shots: int | None, seed: int | None
) -> float:
    """:func:`estimate_belief` on the basis probabilities of an
    already-prepared register."""
    if query.kind == "bel":
        b_val = _estimate_prepared(probs, BeliefQuery("b", query.focal), shots, seed)
        seed2 = None if seed is None else seed + 1
        empty = _estimate_prepared(probs, BeliefQuery("b", 0), shots, seed2)
        return b_val - empty

    n = probs.size.bit_length() - 1
    _check_focal(query, n)
    sets, focal = np.arange(1 << n), query.focal
    if query.kind == "b":
        selected = (sets & ~focal) == 0  # the subsets of F
    elif query.kind == "q":
        selected = (sets & focal) == focal  # the supersets of F
    else:
        selected = (sets & focal) != 0  # the sets that meet F
    low = np.where(selected, 0.0, probs)
    high = np.where(selected, probs, 0.0)
    return read_top_qubit(low, high, 1, shots, seed)


__all__ = ["KINDS", "BeliefQuery", "belief_query_circuit", "estimate_belief"]
