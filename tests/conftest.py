import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qbelief.dst import Frame, MassFunction, validate_bba


@pytest.fixture
def frame3() -> Frame:
    return Frame(["A", "B", "C"])


@pytest.fixture
def frame2() -> Frame:
    return Frame(["A", "B"])


@pytest.fixture
def showcase(frame3) -> MassFunction:
    """Seven-focal assignment over {A, B, C} with Pl(C) = 2/3, q(BC) = 4/9."""
    return validate_bba(
        frame3,
        {
            ("A",): 1 / 18,
            ("B",): 1 / 6,
            ("C",): 1 / 6,
            ("A", "B"): 1 / 9,
            ("A", "C"): 1 / 18,
            ("B", "C"): 2 / 9,
            ("A", "B", "C"): 2 / 9,
        },
    )


SHOWCASE_DENSE = np.array(
    [
        0,
        Fraction(1, 18),
        Fraction(1, 6),
        Fraction(1, 9),
        Fraction(1, 6),
        Fraction(1, 18),
        Fraction(2, 9),
        Fraction(2, 9),
    ],
    dtype=np.float64,
)


def random_mass_function(
    frame: Frame,
    rng: np.random.Generator,
    allow_empty: bool = False,
    max_focal: int | None = None,
) -> MassFunction:
    """Random mass function, for tests and fixtures.

    Draws a random support (optionally excluding the empty set) and
    exponential weights normalized to one.
    """
    lo = 0 if allow_empty else 1
    candidates = np.arange(lo, frame.size)
    k = int(rng.integers(1, len(candidates) + 1))
    if max_focal is not None:
        k = min(k, max_focal)
    support = rng.choice(candidates, size=k, replace=False)
    weights = rng.exponential(size=k)
    dense = np.zeros(frame.size)
    dense[support] = weights / weights.sum()
    return MassFunction(frame, dense)


def make_frame(n: int) -> Frame:
    return Frame([f"e{i}" for i in range(n)])


def random_bbas(count: int, n: int, seed: int, allow_empty: bool = False):
    frame = make_frame(n)
    rng = np.random.default_rng(seed)
    return [random_mass_function(frame, rng, allow_empty=allow_empty) for _ in range(count)]


@pytest.fixture
def rng() -> np.random.Generator:
    return np.random.default_rng(20240817)


@pytest.fixture
def preparation_calls(monkeypatch) -> list:
    """Records every prepare_bba_state call made through the quantum modules."""
    from qbelief.quantum import pipelines, prepare, query

    calls = []
    original = prepare.prepare_bba_state

    def counted(m):
        calls.append(m)
        return original(m)

    for module in (prepare, query, pipelines):
        if hasattr(module, "prepare_bba_state"):
            monkeypatch.setattr(module, "prepare_bba_state", counted)
    return calls


def _count_methods(monkeypatch, cls, names, counts=None) -> dict:
    """Counts calls of the named methods of ``cls``."""
    counts = {} if counts is None else counts
    for name in names:
        counts[name] = 0
        original = getattr(cls, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(cls, name, counted)
    return counts


def _count_functions(monkeypatch, module, names, counts=None) -> dict:
    """Counts calls of the named functions of ``module``, in every qbelief
    module, and in ``oracles``, that binds them by name."""
    counts = {} if counts is None else counts
    for name in names:
        counts[name] = 0
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for modname, bound in list(sys.modules.items()):
            if (modname.startswith("qbelief") or modname == "oracles") and (
                getattr(bound, name, None) is original
            ):
                monkeypatch.setattr(bound, name, counted)
    return counts


def _count_state_methods(monkeypatch, names) -> dict:
    """Counts calls of the named ``StateVector`` methods."""
    from qbelief.qsim.state import StateVector

    return _count_methods(monkeypatch, StateVector, names)


@pytest.fixture
def gate_calls(monkeypatch) -> dict:
    """Counts calls of the gate kernel and of the dense-unitary entry point."""
    return _count_state_methods(monkeypatch, ("_apply_matrix", "apply_dense_unitary"))


@pytest.fixture
def readout_calls(monkeypatch) -> dict:
    """Counts calls of the per-qubit postselection and the register extraction."""
    return _count_state_methods(monkeypatch, ("postselect", "extract_register"))


@pytest.fixture
def register_calls(monkeypatch) -> dict:
    """Counts the whole-register steps of an ancilla read on a widened
    register: ``StateVector.sample``, ``Circuit.run`` and ``product_state``."""
    from qbelief.qsim import circuit, state

    counts = _count_state_methods(monkeypatch, ("sample",))
    _count_methods(monkeypatch, circuit.Circuit, ("run",), counts)
    return _count_functions(monkeypatch, state, ("product_state",), counts)


SWEEPS = ("subset_sum", "subset_sum_inverse", "superset_sum", "superset_sum_inverse")


@pytest.fixture
def sweep_calls(monkeypatch) -> dict:
    """Counts calls of the four O(n 2^n) lattice sweeps, in every qbelief
    module that binds them by name."""
    from qbelief.dst import transforms

    return _count_functions(monkeypatch, transforms, SWEEPS)


@pytest.fixture
def nonzero_scans(monkeypatch) -> list:
    """Records the length of every array that ``np.flatnonzero`` scans."""
    sizes = []
    original = np.flatnonzero

    def recorded(a):
        sizes.append(np.size(a))
        return original(a)

    monkeypatch.setattr(np, "flatnonzero", recorded)
    return sizes
