import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from qbelief.dst import Frame, MassFunction, random_mass_function, validate_bba


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


@pytest.fixture
def gate_calls(monkeypatch) -> dict:
    """Counts calls of the gate kernel and of the dense-unitary entry point."""
    from qbelief.qsim.state import StateVector

    counts = {"_apply_matrix": 0, "apply_dense_unitary": 0}
    for name in counts:
        original = getattr(StateVector, name)

        def counted(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(StateVector, name, counted)
    return counts


SWEEPS = ("subset_sum", "subset_sum_inverse", "superset_sum", "superset_sum_inverse")


@pytest.fixture
def sweep_calls(monkeypatch) -> dict:
    """Counts calls of the four O(n 2^n) lattice sweeps, in every qbelief
    module that binds them by name."""
    from qbelief.dst import transforms

    counts = dict.fromkeys(SWEEPS, 0)
    for name in SWEEPS:
        original = getattr(transforms, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        for modname, module in list(sys.modules.items()):
            if modname.startswith("qbelief") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, counted)
    return counts


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
