"""JSON document schemas for the command-line surface.

Input documents list a frame and sparse focal masses.  A parsed document
is checked on its listed masses alone and carries its focal list (sorted
subset indices of non-zero mass), so neither parsing, nor the document
form, nor the input digest scans the 2^n mass vector.  Result documents
carry the operation name, an input digest, the backend and a numeric
payload.  All reals are rounded to 12 significant digits at
serialization, which keeps equal inputs byte-identical on disk while
staying far below internal tolerances.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path
from typing import Any

import numpy as np

from .dst.frame import Frame
from .dst.mass import MassFunction, validate_bba
from .errors import DuplicateFocalSet, ValidationError

RESULT_SCHEMA = "qbelief/result-v1"


def _round_real(x: float) -> float:
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError("payload contains a non-finite value")
    return float(f"{x:.12g}")


def _round_payload(value: Any) -> Any:
    if isinstance(value, (float, np.floating)):
        return _round_real(value)
    if isinstance(value, (int, np.integer, str, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        return [_round_payload(v) for v in value.tolist()]
    if isinstance(value, (list, tuple)):
        return [_round_payload(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _round_payload(v) for k, v in value.items()}
    raise ValidationError(f"cannot serialize payload value of type {type(value)}")


def load_bba_document(path: str | Path) -> MassFunction:
    """Read and validate a mass-function document.

    Schema: ``{"frame": [labels...], "masses": [{"focal": [labels...],
    "mass": real}, ...]}``.
    """
    with open(path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    return parse_bba_document(doc)


def parse_bba_document(doc: dict) -> MassFunction:
    """Validate a decoded mass-function document into a :class:`MassFunction`
    that carries its focal list.

    ``frame`` and ``masses`` must be lists, each ``focal`` a list of labels
    or one label, each ``mass`` a real number (not a bool or a string).
    """
    if not isinstance(doc, dict) or "frame" not in doc or "masses" not in doc:
        raise ValidationError('document must have "frame" and "masses" keys')
    if not isinstance(doc["frame"], list) or not isinstance(doc["masses"], list):
        raise ValidationError('"frame" and "masses" must be lists')
    frame = Frame(doc["frame"])
    focal_masses: dict[int, float] = {}
    for entry in doc["masses"]:
        if not isinstance(entry, dict) or "focal" not in entry or "mass" not in entry:
            raise ValidationError('each mass entry needs "focal" and "mass"')
        focal, mass = entry["focal"], entry["mass"]
        if not isinstance(focal, (list, str)):
            raise ValidationError(f'"focal" must be a list of labels or one label, not {focal!r}')
        if isinstance(mass, bool) or not isinstance(mass, (int, float)):
            raise ValidationError(f'"mass" must be a real number, not {mass!r}')
        idx = frame.index_of(focal)
        if idx in focal_masses:
            raise DuplicateFocalSet(f"subset {frame.format_subset(idx)} listed twice")
        try:
            focal_masses[idx] = float(mass)
        except OverflowError:  # an integer beyond the float range
            raise ValidationError(f'"mass" {mass} is not a finite real') from None
    return validate_bba(frame, focal_masses)


def _members(labels, focal: np.ndarray) -> list[list]:
    """For each subset index in ``focal``, the ``labels`` of its set bits in
    frame order, gathered one bit at a time over the whole list."""
    out: list[list] = [[] for _ in range(focal.size)]
    for k, label in enumerate(labels):
        for j in np.flatnonzero(focal >> k & 1).tolist():
            out[j].append(label)
    return out


def dump_bba_document(m: MassFunction) -> dict:
    return {
        "frame": list(m.frame.elements),
        "masses": [
            {"focal": labels, "mass": _round_real(v)}
            for labels, v in zip(_members(m.frame.elements, m.focal), m.masses[m.focal].tolist())
        ],
    }


def _canonical_bba(m: MassFunction) -> str:
    """``json.dumps(dump_bba_document(m), sort_keys=True, separators=(",", ":"))``,
    written straight from the focal list: each label is encoded once, and
    each mass is the repr of its 12-digit rounding, as ``json`` writes it."""
    labels = [json.dumps(e) for e in m.frame.elements]
    entries = ",".join(
        '{"focal":[' + ",".join(members) + '],"mass":' + repr(float(f"{v:.12g}")) + "}"
        for members, v in zip(_members(labels, m.focal), m.masses[m.focal].tolist())
    )
    return '{"frame":[' + ",".join(labels) + '],"masses":[' + entries + "]}"


def inputs_digest(*parts: str | int | MassFunction | None) -> str:
    """Stable digest of the operation inputs: names, flags, seeds and mass
    functions, each mass function in its canonical document form.

    The canonical text is the compact, key-sorted JSON of the parts, with
    each mass function written straight from its focal list.
    """
    canon = []
    for part in parts:
        if isinstance(part, MassFunction):
            canon.append(_canonical_bba(part))
        elif part is None or isinstance(part, (str, int)):
            canon.append(json.dumps(part))
        else:
            raise ValidationError(f"cannot digest an input part of type {type(part)}")
    text = "[" + ",".join(canon) + "]"
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def result_document(
    operation: str,
    digest: str,
    backend: str | None,
    payload: Any,
    shots: int | None = None,
    seed: int | None = None,
    wall_time_s: float | None = None,
) -> dict:
    """Assemble a result document; payload reals get 12 significant digits,
    and a non-finite one is refused.

    Timing is optional: identical inputs must serialize byte-identically,
    so wall time is only attached when explicitly requested.
    """
    payload = _round_payload(payload)
    doc: dict[str, Any] = {
        "schema": RESULT_SCHEMA,
        "operation": operation,
        "inputs_digest": digest,
        "backend": backend,
        "payload": payload,
    }
    if shots is not None:
        doc["shots"] = shots
        doc["seed"] = seed
    if wall_time_s is not None:
        doc["wall_time_s"] = _round_real(wall_time_s)
    return doc


def dumps_result(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


__all__ = [
    "RESULT_SCHEMA",
    "load_bba_document",
    "parse_bba_document",
    "dump_bba_document",
    "inputs_digest",
    "result_document",
    "dumps_result",
]
