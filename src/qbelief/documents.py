"""JSON document schemas for the command-line surface.

Input documents list a frame and sparse focal masses.  A parsed document
is checked on its listed masses alone and carries its focal list (sorted
subset indices of non-zero mass), so neither parsing, nor the document
form, nor the input digest scans the 2^n mass vector.  Result documents
carry the operation name, an input digest, the backend and a numeric
payload.  All reals are rounded to 12 significant digits at
serialization, which keeps equal inputs byte-identical on disk while
staying far below internal tolerances.  A dense vector of the payload,
and the subset labels that go with it, are held as the JSON texts of
their items, made in one pass each, and written one text per line into
the indent-2 layout, so none of their values is rounded or encoded alone.
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


class JsonTexts:
    """A JSON array held as the texts of its items, which :func:`dumps_result`
    writes one per line.  It is not a list, so ``json.dumps`` refuses it
    rather than writing the texts as quoted strings."""

    __slots__ = ("texts",)

    def __init__(self, texts: list[str]):
        self.texts = texts


def _round_payload(value: Any) -> Any:
    if isinstance(value, (float, np.floating)):
        return _round_real(value)
    if isinstance(value, (int, np.integer, str, bool)) or value is None:
        return value
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f":
            if not np.isfinite(value).all():
                raise ValidationError("payload contains a non-finite value")
            return JsonTexts(_mass_texts(value))
        return [_round_payload(v) for v in value.tolist()]
    if isinstance(value, JsonTexts):
        return value
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


def subset_labels(frame: Frame, subsets: np.ndarray) -> list[str]:
    """``frame.format_subset(i)`` for each index ``i`` in ``subsets``."""
    return ["{" + run[:-1] + "}" for run in _label_runs(list(frame.elements), subsets)]


def dense_subset_labels(frame: Frame) -> JsonTexts:
    """The labels of all 2^n subsets in index order, as JSON string texts
    built from the JSON-escaped element labels."""
    labels = [json.dumps(e)[1:-1] for e in frame.elements]
    runs = _label_runs(labels, np.arange(frame.size))
    return JsonTexts(['"{' + run[:-1] + '}"' for run in runs])


def _mass_texts(values: np.ndarray) -> list[str]:
    """``repr(float(f"{v:.12g}"))`` for each value, as ``json`` writes the
    12-digit rounding.  Zeros are written as ``0.0`` and ``-0.0`` in one
    pass; the other values take one ``%.12g`` pass.  For a normal float that
    text already is the repr (12 digits tell doubles apart) but for two
    layouts, which only a magnitude from 0.5 up can take: an integer such
    as ``1``, which gets ``.0``, and an exponent from ``e+12`` up, which
    repr writes out in full below ``1e16``.  Only those exponent texts and
    subnormal values take the repr round trip."""
    nonzero = np.flatnonzero(values)
    part = values[nonzero]
    texts = ("%.12g\n" * part.size % tuple(part.tolist())).split("\n")[:-1]
    size = np.abs(part)
    for i in np.flatnonzero(size < sys.float_info.min).tolist():
        texts[i] = repr(float(texts[i]))
    for i in np.flatnonzero(size >= 0.5).tolist():
        text = texts[i]
        if "e+" in text:
            texts[i] = repr(float(text))
        elif "." not in text:
            texts[i] = text + ".0"
    if part.size == values.size:
        return texts
    out = np.full(values.size, "0.0", dtype=object)
    out[np.signbit(values) & (values == 0)] = "-0.0"
    out[nonzero] = texts
    return out.tolist()


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
    and a non-finite one is refused before anything is written.  A 1-D
    float array is checked in one pass and becomes :class:`JsonTexts`.

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
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"``, with each
    :class:`JsonTexts` array written as its texts, one per line."""
    pieces: list[str] = []
    _lay_out(doc, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


def _lay_out(value: Any, newline: str, pieces: list[str]) -> None:
    """Append ``value`` to ``pieces`` in the key-sorted indent-2 layout;
    ``newline`` starts each of its lines after the first.  :class:`JsonTexts`
    and the dicts that hold them are laid out here, so that each dense array
    text is built once and copied once, by the document's one ``"".join``.
    Any other value is one ``json.dumps`` call: a container is re-indented
    (a JSON text holds no raw newline, so each one in the output starts a
    line), and a scalar is one line in either layout."""
    inner = newline + "  "
    if isinstance(value, JsonTexts):
        if value.texts:
            pieces += ("[", inner, ("," + inner).join(value.texts), newline, "]")
        else:
            pieces.append("[]")
    elif _holds_texts(value):
        opening = "{"
        for k, v in sorted(value.items()):
            pieces += (opening, inner, json.dumps(k), ": ")
            _lay_out(v, inner, pieces)
            opening = ","
        pieces += (newline, "}")
    elif isinstance(value, (dict, list, tuple)):
        pieces.append(json.dumps(value, indent=2, sort_keys=True).replace("\n", newline))
    else:
        pieces.append(json.dumps(value))


def _holds_texts(value: Any) -> bool:
    """Whether ``value`` is a dict with a :class:`JsonTexts` at any depth."""
    return isinstance(value, dict) and any(
        isinstance(v, JsonTexts) or _holds_texts(v) for v in value.values()
    )


__all__ = [
    "RESULT_SCHEMA",
    "load_bba_document",
    "parse_bba_document",
    "dump_bba_document",
    "inputs_digest",
    "result_document",
    "dumps_result",
    "JsonTexts",
    "subset_labels",
    "dense_subset_labels",
]
