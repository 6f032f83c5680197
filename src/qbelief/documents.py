"""JSON document schemas for the command-line surface.

Input documents list a frame and sparse focal masses.  A parsed document
is checked on its listed masses alone and carries its focal list (sorted
subset indices of non-zero mass), so neither parsing, nor the document
form, nor the input digest scans the 2^n mass vector.  Result documents
carry the operation name, an input digest, the backend and a numeric
payload.  All reals are rounded to 12 significant digits as the
document is laid out, which keeps equal inputs byte-identical on disk
while staying far below internal tolerances.  A dense vector of the
payload is written there too, its values formatted once per distinct
value; the subset labels that go with it are held as one block, the
JSON texts of the labels, one per line, already joined in the indent-2
layout, so the document copies it once.  The labels of all 2^n subsets
are joined from the label runs of the low and the high half of the
frame, each list built by doubling, with no string per subset.
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


#: the separator of a payload array's items in the result layout: a comma,
#: then a line indented to the array's depth under ``"payload"``
_ITEM_SEP = ",\n      "


class JsonTexts:
    """A JSON array held as one block: the texts of its items joined by
    ``_ITEM_SEP``, which :func:`dumps_result` writes as they are.  It is not
    a list, so ``json.dumps`` refuses it rather than writing the block as a
    quoted string."""

    __slots__ = ("block",)

    def __init__(self, block: str):
        self.block = block


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
    """The document form of ``m``: its frame and its focal sets in index
    order, each with its mass rounded to 12 significant digits."""
    return json.loads(_canonical_bba(m))


_CHUNK = 7  # the widest label chunk: 3 tables of 2^7 runs at the frame cap


def _runs(pieces: list[str]) -> list[str]:
    """The concatenated ``pieces`` of each subset of them, in index order, by
    doubling: the runs of the first k + 1 pieces are those of the first k,
    then each of them with the next piece added."""
    runs = [""]
    for piece in pieces:
        runs += [run + piece for run in runs]
    return runs


def _label_runs(labels: list[str], focal: np.ndarray) -> list[str]:
    """For each subset index in ``focal``, its ``labels`` in frame order, each
    followed by a comma.  The index is read in chunks of bits, each looked up
    in a table of that chunk's label runs.  A chunk is as wide as the focal
    count's bit length, at most ``_CHUNK``, so no table has more runs than
    twice the number of indices it serves."""
    width = max(1, min(focal.size.bit_length(), _CHUNK))
    runs = np.full(focal.size, "", dtype=object)
    for lo in range(0, len(labels), width):
        table = _runs([label + "," for label in labels[lo : lo + width]])
        runs += np.array(table, dtype=object)[focal >> lo & (1 << width) - 1]
    return runs.tolist()


def subset_labels(frame: Frame, subsets: np.ndarray) -> list[str]:
    """``frame.format_subset(i)`` for each index ``i`` in ``subsets``."""
    return ["{" + run[:-1] + "}" for run in _label_runs(list(frame.elements), subsets)]


def dense_subset_labels(frame: Frame) -> JsonTexts:
    """The labels of all 2^n subsets in index order, as one block of JSON
    string texts.  Index ``hi * 2^m + lo``, with m = ceil(n/2), splits the
    labels into a low run of the first m elements and a high run of the
    rest, each list made by :func:`_runs` from the JSON-escaped element
    labels, each with a comma before it.  The lines of one high run are the
    low runs joined by a glue that ends each line with that high run, so
    the block is 2^(n-m) joins of 2^m runs and no line is a string of its
    own."""
    labels = ["," + json.encoder.encode_basestring_ascii(e)[1:-1] for e in frame.elements]
    m = len(labels) - len(labels) // 2
    low = [run[1:] for run in _runs(labels[:m])[1:]]
    blocks = []
    for high in _runs(labels[m:]):
        glue = high + '}"' + _ITEM_SEP + '"{'
        blocks.append('"{' + high[1:] + '}"' + _ITEM_SEP + '"{' + glue.join(low) + high + '}"')
    return JsonTexts(_ITEM_SEP.join(blocks))


def _real_texts(values: np.ndarray) -> list[str]:
    """``repr(float(f"{v:.12g}"))`` for each non-zero value, as ``json``
    writes the 12-digit rounding, in one ``%.12g`` pass.  For a normal float
    that text already is the repr (12 digits tell doubles apart) but for two
    layouts, which only a magnitude from 0.5 up can take: an integer such
    as ``1``, which gets ``.0``, and an exponent from ``e+12`` up, which
    repr writes out in full below ``1e16``.  Only those exponent texts and
    subnormal values take the repr round trip."""
    texts = ("%.12g\n" * values.size % tuple(values.tolist())).split("\n")[:-1]
    size = np.abs(values)
    for i in np.flatnonzero(size < sys.float_info.min).tolist():
        texts[i] = repr(float(texts[i]))
    for i in np.flatnonzero(size >= 0.5).tolist():
        text = texts[i]
        if "e+" in text:
            texts[i] = repr(float(text))
        elif "." not in text:
            texts[i] = text + ".0"
    return texts


def _dense_texts(values: np.ndarray) -> list[str]:
    """:func:`_real_texts` of a dense vector, with its zeros written as
    ``0.0`` and ``-0.0``: one gather from a table of texts that holds each
    distinct non-zero value once.  A vector with a non-finite value is
    refused."""
    if not np.isfinite(values).all():
        raise ValidationError("payload contains a non-finite value")
    nonzero = np.flatnonzero(values)
    distinct, inverse = np.unique(values[nonzero], return_inverse=True)
    index = np.signbit(values).astype(np.intp)  # zeros: 0 for 0.0, 1 for -0.0
    index[nonzero] = inverse + 2
    return np.array(["0.0", "-0.0", *_real_texts(distinct)], dtype=object)[index].tolist()


def _canonical_bba(m: MassFunction) -> str:
    """The compact, key-sorted JSON text of ``m``'s document form, written
    straight from the focal list: each label is encoded once, label runs
    come from per-chunk tables, and the masses, nearly all distinct, are
    formatted in one pass."""
    labels = [json.encoder.encode_basestring_ascii(e) for e in m.frame.elements]
    entries = ",".join([
        f'{{"focal":[{run[:-1]}],"mass":{text}}}'
        for run, text in zip(_label_runs(labels, m.focal), _real_texts(m.masses[m.focal]))
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
    """Assemble a result document, which :func:`dumps_result` writes.

    Timing is optional: identical inputs must serialize byte-identically,
    so wall time is only attached when explicitly requested.
    """
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
        doc["wall_time_s"] = wall_time_s
    return doc


def dumps_result(doc: dict) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True) + "\\n"`` with every real
    rounded to 12 significant digits and every key made a string; each
    :class:`JsonTexts` array is written as its block.  A non-finite real,
    or a value of another type than ``json``'s own, numpy arrays and
    numpy numbers, is refused before any text is returned."""
    pieces: list[str] = []
    _lay_out(doc, "\n", pieces)
    pieces.append("\n")
    return "".join(pieces)


_CONTAINERS = (np.ndarray, JsonTexts, dict, list, tuple)


def _lay_out(value: Any, newline: str, pieces: list[str]) -> None:
    """Append the container ``value`` to ``pieces`` in the key-sorted
    indent-2 layout; ``newline`` starts each of its lines after the first.
    Every container is laid out here, so that each :class:`JsonTexts`
    block is copied once, by the document's one ``"".join``; a block at
    another depth than the payload's arrays has its separators re-indented
    first.  A 1-D float array is written by :func:`_dense_texts`, any other
    array as its ``tolist()``; a scalar is written by :func:`_scalar`."""
    inner = newline + "  "
    if isinstance(value, np.ndarray):
        if value.ndim == 1 and value.dtype.kind == "f":
            texts = _dense_texts(value)
            pieces += ("[", inner, ("," + inner).join(texts), newline, "]") if texts else ("[]",)
        else:
            _lay_out(value.tolist(), newline, pieces)
    elif isinstance(value, JsonTexts):
        # a JSON text holds no raw newline, so _ITEM_SEP only ever separates items
        sep = "," + inner
        block = value.block if sep == _ITEM_SEP else value.block.replace(_ITEM_SEP, sep)
        pieces += ("[", inner, block, newline, "]") if block else ("[]",)
    elif isinstance(value, dict):
        opening = "{"
        for k, v in sorted({str(k): v for k, v in value.items()}.items()):
            pieces += (opening, inner, json.encoder.encode_basestring_ascii(k), ": ")
            if isinstance(v, _CONTAINERS):
                _lay_out(v, inner, pieces)
            else:
                pieces.append(_scalar(v))
            opening = ","
        pieces += (newline, "}") if value else ("{}",)
    else:
        opening = "["
        for v in value:
            pieces += (opening, inner)
            if isinstance(v, _CONTAINERS):
                _lay_out(v, inner, pieces)
            else:
                pieces.append(_scalar(v))
            opening = ","
        pieces += (newline, "]") if value else ("[]",)


def _scalar(value: Any) -> str:
    """``json.dumps(value)`` of a scalar, from the encoders ``json``'s C
    writer uses: a string, ``None``, a bool, an int or a numpy integer, or
    a real or a numpy real, rounded by :func:`_round_real`."""
    if isinstance(value, str):
        return json.encoder.encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return int.__repr__(int(value))
    if isinstance(value, (float, np.floating)):
        return float.__repr__(_round_real(value))
    raise ValidationError(f"cannot serialize payload value of type {type(value)}")


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
