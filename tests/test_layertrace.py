"""The benchmark's layer trace keys its counters on qualified function
names; a rename in the package must not silently zero a counter."""

import importlib.util
import math
from pathlib import Path

import pytest

import qbelief.cli  # noqa: F401  (loads every module the trace wraps)
from conftest import random_bbas
from qbelief.quantum import BACKENDS, MEoBConfig, ccr_qc

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


@pytest.fixture
def layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_counter_hook_wraps_a_function(layertrace):
    trace = layertrace.LayerTrace()
    trace.install()
    trace.uninstall()
    assert set(layertrace._HOOKS) <= set(trace.names)


def test_meob_hook_counts_each_backend(layertrace):
    # ccr's four stages (diag, q, diag, q_inv) per backend, each with the
    # backend read from meob_apply's config and a finite success
    m1, m2 = random_bbas(2, 2, seed=4207)
    trace = layertrace.LayerTrace()
    trace.install()
    try:
        for backend in BACKENDS:
            ccr_qc(m1, m2, MEoBConfig(backend=backend))
    finally:
        trace.uninstall()
    assert trace.counts["quantum.meob_oracle_calls"] == 4
    assert trace.counts["quantum.meob_circuit_calls"] == 4
    assert len(trace.success_log10) == 8
    assert all(math.isfinite(x) for x in trace.success_log10)
