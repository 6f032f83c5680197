"""The benchmark's layer trace keys its counters on qualified function
names; a rename in the package must not silently zero a counter."""

import importlib.util
from pathlib import Path

import qbelief.cli  # noqa: F401  (loads every module the trace wraps)

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def test_every_counter_hook_wraps_a_function():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    layertrace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layertrace)
    trace = layertrace.LayerTrace()
    trace.install()
    trace.uninstall()
    assert set(layertrace._HOOKS) <= set(trace.names)
