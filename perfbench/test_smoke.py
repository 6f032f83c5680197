"""Tests of the benchmark itself.

Run from the repository root with ``python -m pytest perfbench``.  The
smoke run executes every workload once at minimal size with the checks on
and no timing bound; the other tests make sure a wrong answer fails its
check.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402


def test_smoke_run_passes_every_check():
    proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--smoke"],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] > 0


@pytest.fixture(scope="module")
def cli():
    sys.path.insert(0, str(HERE.parent / "src"))
    from qbelief import cli

    return cli


def _first(workload: str, kind: str, tmp_path: Path) -> workloads.Request:
    wl = workloads.build(workload, 5, tmp_path, smoke=True)
    return next(r for r in wl.requests if r.kind == kind)


@pytest.mark.parametrize("workload, kind, key", [
    ("lattice", "entropy.fb", "bits"),
    ("service", "combine.ccr", "masses"),
    ("service", "transform.q.quantum-oracle", "values"),
    ("circuit", "combine.dcr.quantum-circuit", "masses"),
    ("circuit", "similarity.fb-inner.quantum-circuit", "value"),
])
def test_perturbed_result_fails_its_check(cli, tmp_path, workload, kind, key):
    import run

    req = _first(workload, kind, tmp_path)
    check = reference.make_check(req)
    _, code, out, err = run.call(cli.main, req.argv(), run.Capture())
    assert check(code, out, err) is None
    doc = json.loads(out)
    value = doc["payload"][key]
    if isinstance(value, list):
        value[0] += 1e-6
    else:
        doc["payload"][key] = value + 1e-6
    assert check(code, json.dumps(doc), err) is not None


def test_expected_error_needs_its_exit_code(cli, tmp_path):
    import run

    req = _first("service", "combine.dempster.exit2", tmp_path)
    check = reference.make_check(req)
    _, code, out, err = run.call(cli.main, req.argv(), run.Capture())
    assert code == 2 and check(code, out, err) is None
    assert check(1, out, err) is not None
