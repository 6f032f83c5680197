#!/usr/bin/env python3
"""End-to-end benchmark of the qbelief command line, with a layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload lattice|circuit|service --seed N \\
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One client sends each workload's fixed request list through
``qbelief.cli.main(argv)`` in this process, closed loop: the next request
goes out when the previous one has returned.  Whole laps of the list run
until the requests have taken ``--seconds`` of wall time.  Every response
is checked against the independent reference in ``reference.py`` before
it counts.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
alternates untraced and traced laps and reports the per-layer metrics of
``layertrace.py``.  ``--smoke`` runs every workload once at minimal size,
with the checks on and no timing.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Inputs are written
under ``.perfbench-work/`` and removed at exit; span arrays of traced runs
go to ``.perfbench-out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# Single-threaded BLAS, here and in every child process.  On a small shared
# host, two-thread OpenBLAS made the times of one request bimodal (1.2 ms or
# 7 ms for the same oracle combination), which swamped every other effect.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import workloads  # noqa: E402
from layertrace import LAYERS, LayerTrace  # noqa: E402

ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"
OUT = ROOT / ".perfbench-out"

SETUP_SAMPLES = 3  # this process plus two fresh interpreters
COLD_SAMPLES = 7
MIN_TIMED = 100  # so that at least ten requests lie beyond p90
IMPORT_SAMPLES = 3
CHILD_TIMEOUT_S = 60

COUNTERS = {
    "dst": ("sweeps", "sweep_elems", "matrix_builds", "matrix_bytes"),
    "qsim": ("gate_apps", "dense_unitary_apps", "amp_visits", "shots", "postselects"),
    "quantum": ("meob_oracle_calls", "meob_circuit_calls", "preparations", "prep_rotations",
                "postselect_failed"),
    "documents": ("bytes_in", "bytes_out"),
    "qasm": ("ops_emitted", "cx_emitted"),
}
_BYTES = ("matrix_bytes", "bytes_in", "bytes_out")


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env


class Capture:
    """Reused stdout/stderr buffers.  click caches a wrapper per stream object
    and keeps every stream it has seen alive, so a fresh buffer per request
    would pile up every response in memory."""

    def __init__(self) -> None:
        self.out, self.err = io.StringIO(), io.StringIO()


def call(main, argv: list[str], cap: Capture) -> tuple[float, int, str, str]:
    """One in-process CLI request: (wall seconds, exit code, stdout, stderr)."""
    out, err = cap.out, cap.err
    for buf in (out, err):
        buf.seek(0)
        buf.truncate()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = time.perf_counter()
        try:
            main(argv)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed request, not a failed benchmark
            code = -1
            err.write(traceback.format_exc())
        wall = time.perf_counter() - t0
    return wall, code, out.getvalue(), err.getvalue()


def setup(workload: str, seed: int, workdir: Path, smoke: bool = False):
    """Import the program, generate and write the inputs, warm every request
    kind up once on tiny documents.  Returns (workload, cli module, seconds)."""
    t0 = time.perf_counter()
    cli = importlib.import_module("qbelief.cli")
    wl = workloads.build(workload, seed, workdir, smoke)
    cap = Capture()
    for req in wl.warmups:
        call(cli.main, req.argv(), cap)
    return wl, cli, time.perf_counter() - t0


class Loop:
    """Closed-loop client over one workload's request lap, with checks."""

    def __init__(self, wl, cli):
        self.cli = cli  # ``cli.main`` is looked up per call, so the trace sees it
        self.cap = Capture()
        self.requests = wl.requests
        self.argv = [r.argv() for r in wl.requests]
        self.checks = [reference.make_check(r) for r in wl.requests]
        self.passed: list[set[bytes]] = [set() for _ in wl.requests]
        self.latencies: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def lap(self, trace: LayerTrace | None = None) -> float:
        wall_sum = 0.0
        for i, argv in enumerate(self.argv):
            if trace is not None:
                trace.request = self.attempted
            wall, code, out, err = call(self.cli.main, argv, self.cap)
            wall_sum += wall
            self.attempted += 1
            if trace is None:
                self.latencies.append(wall)
            self._check(i, code, out, err)
        return wall_sum

    def _check(self, i: int, code: int, out: str, err: str) -> None:
        # identical responses are checked once; the program is deterministic
        key = hashlib.sha1(f"{code}\0{out}\0{err}".encode()).digest()
        if key in self.passed[i]:
            return
        try:
            reason = self.checks[i](code, out, err)
        except Exception as exc:  # an unparsable response fails its check
            reason = f"{type(exc).__name__}: {exc}"
        if reason is None:
            self.passed[i].add(key)
        else:
            self.failures.append(f"{self.requests[i].kind} {' '.join(self.argv[i])}: {reason}")


def _probe(argv: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    t0 = time.perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=_child_env(), capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S)
    return time.perf_counter() - t0, proc


def cold_start(doc: workloads.Doc, loop: Loop) -> float:
    """Seconds of a fresh interpreter running one small ``validate`` request
    the way the installed ``qbelief`` entry point does."""
    code = "import sys; from qbelief.cli import main; main(sys.argv[1:])"
    wall, proc = _probe([sys.executable, "-c", code, "validate", doc.path])
    loop.attempted += 1
    reason = reference.make_check(workloads.Request("validate", (doc,)))(
        proc.returncode, proc.stdout, proc.stderr)
    if reason is not None:
        loop.failures.append(f"cold validate: {reason}")
    return wall


def import_cost() -> tuple[float, float]:
    """Median seconds and module count of ``import qbelief.cli`` in fresh
    interpreters."""
    code = ("import sys, time; n = len(sys.modules); t = time.perf_counter(); "
            "import qbelief.cli; print(time.perf_counter() - t, len(sys.modules) - n)")
    samples = []
    for _ in range(IMPORT_SAMPLES):
        _, proc = _probe([sys.executable, "-c", code])
        if proc.returncode != 0:
            raise RuntimeError(f"import probe failed: {proc.stderr.strip()[-500:]}")
        seconds, modules = proc.stdout.split()
        samples.append((float(seconds), int(modules)))
    return statistics.median(s for s, _ in samples), statistics.median(m for _, m in samples)


def setup_probes(workload: str, seed: int) -> list[float]:
    out = []
    for _ in range(SETUP_SAMPLES - 1):
        _, proc = _probe([sys.executable, str(HERE / "run.py"), "--setup-probe",
                          "--workload", workload, "--seed", str(seed)])
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.split()[-1]))
    return out


def environment() -> dict:
    from importlib.metadata import version

    blas = {}
    with contextlib.suppress(KeyError, TypeError):  # older NumPy has no "dicts" mode
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: cfg.get(k) for k in ("name", "version")}
    head = ROOT / ".git" / "HEAD"
    sha = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        sha = target.read_text().strip() if target and target.is_file() else ref
    return {
        "python": sys.version.split()[0], "numpy": np.__version__, "scipy": version("scipy"),
        "click": version("click"), "blas": blas,
        "threads": {k: os.environ.get(k) for k in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)), "git_sha": sha,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def layer_metrics(trace: LayerTrace, requests: int, traced_wall: float,
                  untraced_wall: float) -> dict:
    per_req = 1.0 / requests
    own = trace.self_times()
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = _metric(own[layer] * per_req, "s/req")
        out[f"{layer}.share"] = _metric(own[layer] / traced_wall, "1")
        for name in COUNTERS.get(layer, ()):
            unit = "B/req" if name in _BYTES else "count/req"
            out[f"{layer}.{name}"] = _metric(trace.counts[f"{layer}.{name}"] * per_req, unit)
    visits = trace.counts["qsim.amp_visits"]
    out["qsim.bytes_computed"] = _metric(32.0 * visits * per_req, "B/req")
    logs = trace.success_log10
    out["quantum.success_p_log10"] = _metric(sum(logs) / len(logs) if logs else 0.0, "log10")
    out["trace.unattributed_share"] = _metric(1.0 - sum(own.values()) / traced_wall, "1")
    out["trace.overhead_frac"] = _metric(traced_wall / untraced_wall - 1.0, "1")
    return out


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    workdir = WORK / f"{workload}-{seed}-{os.getpid()}"
    try:
        wl, cli, setup_s = setup(workload, seed, workdir)
        loop = Loop(wl, cli)
        if not traced:
            setup_all = [setup_s] + setup_probes(workload, seed)
            walls: list[float] = []
            busy = 0.0
            while busy < seconds or len(loop.latencies) < MIN_TIMED:
                busy += loop.lap()
                # cold starts spread over the run average out the host's drift
                while len(walls) < COLD_SAMPLES and busy >= len(walls) * seconds / COLD_SAMPLES:
                    walls.append(cold_start(wl.tiny, loop))
            while len(walls) < COLD_SAMPLES:
                walls.append(cold_start(wl.tiny, loop))
            lat_ms = np.asarray(loop.latencies) * 1e3
            p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
            metrics = {
                "req_per_s": _metric(lat_ms.size / busy, "1/s"),
                "latency_p50_ms": _metric(statistics.median(lat_ms), "ms"),
                "latency_p90_ms": _metric(p90, "ms"),
                "ok_frac": _metric(1.0 - len(loop.failures) / loop.attempted, "1"),
                "setup_s": _metric(statistics.median(setup_all), "s"),
                "peak_rss_mb": _metric(
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
                "cold_start_ms": _metric(statistics.median(walls) * 1e3, "ms"),
            }
            print(f"# {workload}: {lat_ms.size} requests in {busy:.2f} s busy; "
                  f"set-up samples {[round(s, 3) for s in setup_all]}")
        else:
            trace = LayerTrace()
            plain = timed = 0.0
            laps = 0
            while plain + timed < seconds or laps == 0:
                plain += loop.lap()
                trace.install()
                try:
                    timed += loop.lap(trace)
                finally:
                    trace.uninstall()
                laps += 1
            import_s, modules = import_cost()
            metrics = layer_metrics(trace, laps * len(wl.requests), timed, plain)
            metrics["import.cli_s"] = _metric(import_s, "s")
            metrics["import.modules"] = _metric(modules, "count")
            trace.write(OUT / f"spans-{workload}-seed{seed}.npz")
            print(f"# {workload}: {laps} traced laps, {len(trace.start)} spans")
        print("# env " + json.dumps(environment()))
        for reason in loop.failures[:20]:
            print("# FAILED " + reason)
        return {"correct": not loop.failures, "attempted": loop.attempted,
                "failed": len(loop.failures), "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def smoke() -> dict:
    """Every workload at minimal size: one plain and one traced lap, checked."""
    attempted = failed = 0
    metrics = {}
    for name in workloads.WORKLOADS:
        workdir = WORK / f"smoke-{name}-{os.getpid()}"
        try:
            wl, cli, _ = setup(name, 1, workdir, smoke=True)
            loop = Loop(wl, cli)
            plain = loop.lap()
            trace = LayerTrace()
            trace.install()
            try:
                timed = loop.lap(trace)
            finally:
                trace.uninstall()
            shares = layer_metrics(trace, len(wl.requests), timed, plain)
            for layer in LAYERS:
                metrics[f"{name}.{layer}.share"] = shares[f"{layer}.share"]
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        for reason in loop.failures:
            print(f"# FAILED {name}: {reason}")
        attempted += loop.attempted
        failed += len(loop.failures)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="minimal sizes, checks only")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if not (SRC / "qbelief" / "cli.py").is_file():
        print(f"error: no qbelief sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.smoke:
        result = smoke()
    elif args.workload is None:
        ap.error("--workload is required")
    elif args.setup_probe:
        workdir = WORK / f"probe-{args.workload}-{os.getpid()}"
        try:
            print(setup(args.workload, args.seed, workdir)[2])
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0
    else:
        print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
