"""Outside-in layer trace of the ``qbelief`` package.

``LayerTrace.install()`` replaces, from outside the package, every public
function of every loaded ``qbelief`` module with a timing wrapper, in
every module namespace that binds it: ``cli`` imports
``load_bba_document`` by name and ``pipelines`` imports ``meob_apply``
by name, so wrapping only the defining module would miss those calls.
The public methods of ``StateVector`` and ``Circuit`` are wrapped too.
``uninstall()`` puts the originals back.

Each call becomes a span (name, start, end, parent span, request id),
kept in compact arrays in memory and written out at the end.  A layer is
the package module a function is defined in; its self time is the sum of
its spans' durations minus the time covered by their child spans.  The
run is one thread with no queue, so there is no wait time to record.
Counters are taken at the same boundaries, from arguments and results.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import os
import sys
import time
from array import array
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("cli", "documents", "dst", "qsim", "quantum", "qasm")

_METHODS = {
    ("qbelief.qsim.state", "StateVector"): (
        "apply", "apply_dense_unitary", "probability", "probabilities", "postselect",
        "extract_register", "sample", "copy", "norm",
    ),
    ("qbelief.qsim.circuit", "Circuit"): ("run", "simulate", "inverse"),
}


def _layer(module: str) -> str | None:
    parts = module.split(".")
    if parts[0] != "qbelief" or len(parts) < 2:
        return None
    return parts[1] if parts[1] in LAYERS else None


class LayerTrace:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_layer: list[int] = []
        self.name_id: array = array("l")
        self.start: array = array("d")
        self.end: array = array("d")
        self.parent: array = array("l")
        self.req: array = array("l")
        self.request = -1
        self.counts: dict[str, float] = defaultdict(float)
        self.success_log10: list[float] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # --- installation ---

    def install(self) -> None:
        wrapped: dict[object, object] = {}
        for modname, module in list(sys.modules.items()):
            if modname != "qbelief" and _layer(modname) is None:
                continue
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = _layer(obj.__module__)
                if layer is None:
                    continue
                if obj not in wrapped:
                    wrapped[obj] = self._wrap(obj, layer, f"{obj.__module__}.{obj.__qualname__}")
                self._patch(module, attr, wrapped[obj])
        for (modname, clsname), methods in _METHODS.items():
            cls = getattr(sys.modules[modname], clsname)
            for meth in methods:
                fn = vars(cls)[meth]
                self._patch(cls, meth, self._wrap(fn, "qsim", f"{modname}.{clsname}.{meth}"))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _wrap(self, fn, layer: str, name: str):
        nid = len(self.names)
        self.names.append(name)
        self.name_layer.append(LAYERS.index(layer))
        hook = _HOOKS.get(name)
        stack, clock = self._stack, time.perf_counter
        name_id, start_a, end_a = self.name_id, self.start, self.end
        parent_a, req_a = self.parent, self.req

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(start_a)
            name_id.append(nid)
            parent_a.append(stack[-1] if stack else -1)
            req_a.append(self.request)
            start_a.append(0.0)
            end_a.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if hook is not None:
                    hook(self, args, kwargs, None, exc)
                raise
            finally:
                end_a[sid] = clock()
                start_a[sid] = t0
                stack.pop()
            if hook is not None:
                hook(self, args, kwargs, result, None)
            return result

        return traced

    # --- summaries ---

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer over every recorded span."""
        if not len(self.start):
            return {layer: 0.0 for layer in LAYERS}
        dur = np.asarray(self.end) - np.asarray(self.start)
        parent = np.asarray(self.parent, dtype=np.int64)
        child = np.bincount(parent + 1, weights=dur, minlength=dur.size + 1)[1:]
        own = dur - child
        layer = np.asarray(self.name_layer)[np.asarray(self.name_id, dtype=np.int64)]
        per = np.bincount(layer, weights=own, minlength=len(LAYERS))
        return {name: float(per[i]) for i, name in enumerate(LAYERS)}

    def write(self, path: Path) -> None:
        """Spans as compressed arrays plus the name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            name_id=np.asarray(self.name_id, dtype=np.int32),
            start=np.asarray(self.start), end=np.asarray(self.end),
            parent=np.asarray(self.parent, dtype=np.int64),
            request=np.asarray(self.req, dtype=np.int64),
            names=np.asarray(json.dumps(self.names)),
            layers=np.asarray(json.dumps([LAYERS[i] for i in self.name_layer])),
        )


# --- counters, keyed by the wrapped function's qualified name -----------------


def _sweep(tr, args, kwargs, result, exc):
    if exc is None:
        size = int(np.asarray(args[0]).size)
        tr.counts["dst.sweeps"] += 1
        tr.counts["dst.sweep_elems"] += (size.bit_length() - 1) * size


def _matrix(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["dst.matrix_builds"] += 1
        tr.counts["dst.matrix_bytes"] += 8 * result.shape[0] * result.shape[1]


def _gate(dense: bool):
    def hook(tr, args, kwargs, result, exc):
        tr.counts["qsim.gate_apps"] += 1
        tr.counts["qsim.amp_visits"] += 1 << args[0].k
        if dense:
            tr.counts["qsim.dense_unitary_apps"] += 1
    return hook


def _sample(tr, args, kwargs, result, exc):
    tr.counts["qsim.shots"] += args[1] if len(args) > 1 else kwargs["shots"]


def _postselect(tr, args, kwargs, result, exc):
    tr.counts["qsim.postselects"] += 1


def _meob(tr, args, kwargs, result, exc):
    config = args[2] if len(args) > 2 else kwargs["config"]
    tr.counts[f"quantum.meob_{config.backend}_calls"] += 1
    if exc is not None:
        if type(exc).__name__ == "PostselectionFailed":
            tr.counts["quantum.postselect_failed"] += 1
    elif result[1] > 0:
        tr.success_log10.append(math.log10(result[1]))


def _synthesis(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["quantum.preparations"] += 1
        tr.counts["quantum.prep_rotations"] += len(result.ops)


def _load(tr, args, kwargs, result, exc):
    path = args[0] if args else kwargs["path"]
    tr.counts["documents.bytes_in"] += os.path.getsize(path)


def _dumps(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["documents.bytes_out"] += len(result)


def _qasm(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["qasm.ops_emitted"] += result.count("\n") - 4  # four header lines
        tr.counts["qasm.cx_emitted"] += result.count("\ncx ")


def _circuit_json(tr, args, kwargs, result, exc):
    if exc is None:
        tr.counts["qasm.ops_emitted"] += len(args[0].ops)


_SV = "qbelief.qsim.state.StateVector."
_HOOKS = {
    "qbelief.dst.transforms.subset_sum": _sweep,
    "qbelief.dst.transforms.subset_sum_inverse": _sweep,
    "qbelief.dst.transforms.superset_sum": _sweep,
    "qbelief.dst.transforms.superset_sum_inverse": _sweep,
    "qbelief.dst.matrices.transform_matrix": _matrix,
    _SV + "apply": _gate(False),
    _SV + "apply_dense_unitary": _gate(True),
    _SV + "sample": _sample,
    _SV + "postselect": _postselect,
    "qbelief.quantum.meob.meob_apply": _meob,
    "qbelief.quantum.prepare.synthesize_preparation_circuit": _synthesis,
    "qbelief.documents.load_bba_document": _load,
    "qbelief.documents.dumps_result": _dumps,
    "qbelief.qasm.circuit_to_qasm": _qasm,
    "qbelief.qasm.circuit_to_json": _circuit_json,
}
