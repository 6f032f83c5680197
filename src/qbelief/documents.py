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
import sys
from pathlib import Path
from typing import Any

import numpy as np

from .dst.frame import Frame
from .dst.mass import MassFunction, _first_duplicate, _from_listed
from .errors import ValidationError

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
    One loop checks each entry's shape and types and gathers its subset
    index and mass; the mass checks then run once on the gathered arrays.
    """
    if not isinstance(doc, dict) or "frame" not in doc or "masses" not in doc:
        raise ValidationError('document must have "frame" and "masses" keys')
    if not isinstance(doc["frame"], list) or not isinstance(doc["masses"], list):
        raise ValidationError('"frame" and "masses" must be lists')
    frame = Frame(doc["frame"])
    bit = frame._bit
    index: list[int] = []
    masses: list[float] = []
    try:
        for entry in doc["masses"]:
            if not isinstance(entry, dict) or "focal" not in entry or "mass" not in entry:
                raise ValidationError('each mass entry needs "focal" and "mass"')
            focal, mass = entry["focal"], entry["mass"]
            if not isinstance(focal, (list, str)):
                raise ValidationError(
                    f'"focal" must be a list of labels or one label, not {focal!r}'
                )
            if type(mass) is not float and (
                isinstance(mass, bool) or not isinstance(mass, (int, float))
            ):
                raise ValidationError(f'"mass" must be a real number, not {mass!r}')
            try:
                if isinstance(focal, str):
                    idx = bit[focal]
                else:
                    idx = 0
                    for label in focal:
                        idx |= bit[label]
            except (KeyError, TypeError):  # TypeError: an unhashable label
                frame.index_of(focal)  # raises UnknownElement naming the label
            index.append(idx)
            try:
                masses.append(float(mass))
            except OverflowError:  # an integer beyond the float range
                raise ValidationError(f'"mass" {mass} is not a finite real') from None
    except ValidationError as fault:
        raise _first_duplicate(frame, index) or fault from None
    return _from_listed(frame, index, masses)


def dump_bba_document(m: MassFunction) -> dict:
    return {
        "frame": list(m.frame.elements),
        "masses": [
            {"focal": list(m.frame.labels_of(f)), "mass": _round_real(v)}
            for f, v in zip(m.focal.tolist(), m.masses[m.focal].tolist())
        ],
    }


_CHUNK = 7  # label bits per lookup table: 3 tables of 2^7 runs at the frame cap


def _label_runs(labels: list[str], focal: np.ndarray) -> list[str]:
    """For each subset index in ``focal``, its ``labels`` in frame order, each
    followed by a comma.  The index is read in chunks of ``_CHUNK`` bits,
    each looked up in a table of that chunk's 2^_CHUNK label runs."""
    runs = np.full(focal.size, "", dtype=object)
    for lo in range(0, len(labels), _CHUNK):
        table = [""]
        for label in labels[lo : lo + _CHUNK]:
            table += [run + label + "," for run in table]
        runs += np.array(table, dtype=object)[focal >> lo & (1 << _CHUNK) - 1]
    return runs.tolist()


def _mass_texts(values: np.ndarray) -> list[str]:
    """``repr(float(f"{v:.12g}"))`` for each value, as ``json`` writes the
    12-digit rounding.  For a normal float below 0.5 the ``.12g`` text is
    already that repr (12 digits tell doubles apart, and it has a point or
    an exponent), so only subnormal values and values from 0.5 up, which can
    round to an integer such as ``1``, take the repr round trip."""
    texts = ("%.12g\n" * values.size % tuple(values.tolist())).split("\n")[:-1]
    for i in np.flatnonzero(~((values >= sys.float_info.min) & (values < 0.5))).tolist():
        texts[i] = repr(float(texts[i]))
    return texts


def _canonical_bba(m: MassFunction) -> str:
    """``json.dumps(dump_bba_document(m), sort_keys=True, separators=(",", ":"))``,
    written straight from the focal list: each label is encoded once, label
    runs come from per-chunk tables, and the masses are formatted in one pass."""
    labels = [json.dumps(e) for e in m.frame.elements]
    entries = ",".join([
        f'{{"focal":[{run[:-1]}],"mass":{text}}}'
        for run, text in zip(_label_runs(labels, m.focal), _mass_texts(m.masses[m.focal]))
    ])
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
