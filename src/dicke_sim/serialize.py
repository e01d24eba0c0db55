"""JSON and CSV writers; `spec` reads these formats back.

Complex numbers travel as [re, im] pairs.  Floats are emitted with repr
(shortest exact round-trip, at most 17 significant digits), so identical
in-memory values always produce identical bytes.  The trace lines of
`harness.run_ensemble` (trace_lines) fill one % template per block of trials
from float_texts, which formats each distinct magnitude once.
"""

from __future__ import annotations

import json
import math
from itertools import chain

import numpy as np

from .errors import ConfigError
from .measure import SingleQubitPVM
from .states import SymmetricDensity, SymmetricKet

SCHEMA_VERSION = 1


def _pairs(arr: np.ndarray) -> list:
    """arr as nested lists with each complex entry an [re, im] pair of Python floats."""
    return np.stack((arr.real, arr.imag), -1).tolist()


def state_to_json(state) -> dict:
    if isinstance(state, SymmetricKet):
        return {"n": state.n, "amps": _pairs(state.amps)}
    if isinstance(state, SymmetricDensity):
        return {"n": state.n, "alpha": _pairs(state.alpha)}
    raise ConfigError(f"not a compact state: {type(state).__name__}")


def measurement_to_json(measurement) -> dict:
    if isinstance(measurement, SingleQubitPVM):
        return {"type": "pvm_kappa", "kappa": _pairs(measurement.kappa)}
    if isinstance(measurement, list):
        return {"type": "kraus", "matrices": [_pairs(k.matrix) for k in measurement]}
    raise ConfigError(f"not a measurement: {type(measurement).__name__}")


def float_texts(values) -> np.ndarray:
    """json's text of every float in values, as an object array of str of the same shape.

    Each distinct magnitude is written once, by repr, and its sign put back
    from np.signbit, so -0.0 reads "-0.0".  NaN and inf raise ValueError:
    json.dumps would write NaN or Infinity, which JSON does not have.
    """
    values = np.asarray(values, dtype=float)
    if not np.isfinite(values).all():
        raise ValueError("cannot write a non-finite float as JSON")
    magnitudes, which = np.unique(np.abs(values), return_inverse=True)
    texts = [repr(x) for x in magnitudes.tolist()]
    signed = np.array(texts + ["-" + text for text in texts], dtype=object)
    return signed[which.reshape(values.shape) + len(texts) * np.signbit(values)]


def _pairs_template(shape: tuple) -> str:
    """The text json.dumps writes for _pairs of a complex array of this shape, with %s for each float."""
    text = "[%s, %s]"
    for size in reversed(shape):
        text = "[" + ", ".join([text] * size) + "]"
    return text


_LOST = '{"kind": "lose", "label": null, "phi": null, "probability": null, "step": %d, "theta": null}'
_MEASURED = '{"kind": "measure", "label": %%s, "phi": %%s, "probability": %%s, "step": %d, "theta": %%s}'


def trace_lines(trial_ids, seeds, events, thetas, phis, labels, probs, finals) -> list[str]:
    """The newline-terminated JSON line of each trial of a block, trial_ids their trial numbers.

    The arguments are harness._trial_block's arrays: events the schedule's
    kinds ("measure" or "lose"), thetas, phis, labels and probs of shape
    (T, m) with one column per measurement, and finals the final kets
    (T, n+1) or densities (T, d, d).  Each line has the bytes of
    json.dumps(doc, sort_keys=True) of
    {"trial": t, "seed": seed, "events": [the TraceEvent fields of each event],
    "final_state": {"kind": "ket" or "density", "n": n, "amps" or "alpha": [re, im] pairs}}.
    The trials of a block differ only in labels and floats: one % template
    writes every line, and float_texts formats all their floats at once.
    """
    count, m = labels.shape
    key, kind = ("amps", "ket") if finals.ndim == 2 else ("alpha", "density")
    steps = ", ".join((_LOST if ev == "lose" else _MEASURED) % step for step, ev in enumerate(events))
    state = '{"%s": %s, "kind": "%s", "n": %d}' % (key, _pairs_template(finals.shape[1:]), kind,
                                                     finals.shape[-1] - 1)
    template = '{"events": [' + steps + '], "final_state": ' + state + ', "seed": %s, "trial": %s}\n'
    texts = float_texts(np.concatenate(
        (np.stack((phis, probs, thetas), axis=-1).reshape(count, 3 * m),
         np.ascontiguousarray(finals).view(float).reshape(count, -1)), axis=1))
    args = np.empty((count, m + texts.shape[1] + 2), dtype=object)  # the template's fields
    columns = np.arange(4 * m).reshape(m, 4)  # of each measurement: label, phi, probability, theta
    args[:, columns[:, 0]] = labels
    args[:, columns[:, 1:].ravel()] = texts[:, :3 * m]
    args[:, 4 * m:-2] = texts[:, 3 * m:]
    args[:, -2:] = list(zip(seeds, trial_ids))
    return [template % tuple(row) for row in args.tolist()]


def dumps_json(obj) -> str:
    """Deterministic JSON: sorted keys, repr floats, two-space indent, trailing newline.

    The bytes of json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)
    + "\n", without its encoder: given an indent, json.dumps runs a
    pure-Python encoder that yields every token through a chain of
    generators.
    """
    parts: list[str] = []
    _indented(obj, "\n", parts)
    parts.append("\n")
    return "".join(parts)


def _indented(obj, newline: str, parts: list) -> None:
    """Append obj as indented JSON to parts; newline is a line break plus obj's own indent.

    Every level writes into the one list, which dumps_json joins once.  Dicts
    with str keys and lists are written here, nested float lists in bulk
    (_float_array), scalars of exact types by _SCALARS.  A subclass of a
    JSON type, or a dict with other keys, goes to json.dumps whole, its lines
    indented to obj's depth; any other object is first made JSON-ready by
    _jsonable, as json.dumps would.
    """
    kind = type(obj)
    inner = newline + "  "
    if kind in _SCALARS:
        parts.append(_SCALARS[kind](obj))
    elif kind is dict and all(type(key) is str for key in obj):
        opening = "{" + inner
        for key, value in sorted(obj.items()):
            parts += (opening, _encode_str(key), ": ")
            _indented(value, inner, parts)
            opening = "," + inner
        parts.append(newline + "}" if obj else "{}")
    elif kind is list or kind is tuple:
        if obj and (depth := _float_array_depth(obj)):
            _float_array(obj, depth, newline, parts)
        else:
            opening = "[" + inner
            for item in obj:
                parts.append(opening)
                _indented(item, inner, parts)
                opening = "," + inner
            parts.append(newline + "]" if obj else "[]")
    elif isinstance(obj, (dict, list, tuple, str, int, float)):  # a subclass, or non-str keys
        parts.append(json.dumps(obj, sort_keys=True, indent=2, default=_jsonable).replace("\n", newline))
    else:
        _indented(_jsonable(obj), newline, parts)


_encode_str = json.encoder.encode_basestring_ascii
_SCALARS = {  # json's text of each exact scalar type
    str: _encode_str,
    int: int.__repr__,
    float: lambda x: repr(x) if math.isfinite(x) else json.dumps(x),
    bool: lambda b: "true" if b else "false",
    type(None): lambda _: "null",
}


def _float_array_depth(obj) -> int:
    """d when obj is lists or tuples nested d deep, none empty, with floats at depth d; else 0."""
    level, depth = [obj], 0
    while True:
        kinds = set(map(type, level))
        if kinds == {float}:
            return depth
        if not kinds <= {list, tuple} or not all(level):
            return 0
        level, depth = list(chain.from_iterable(level)), depth + 1


def _float_array(obj, depth: int, newline: str, parts: list) -> None:
    """Append a _float_array_depth array to parts, from json.dumps's compact text.

    Between two floats, k lists close and k reopen, so "]" * k + "," + "[" * k
    is a separator of its own, replaced by its indented form: first every
    k >= 1 separator by the placeholder chr(k), then the plain commas.
    """
    lines = [newline + "  " * j for j in range(depth + 1)]  # the line start at each depth

    def close(k):
        return "".join(lines[depth - i] + "]" for i in range(1, k + 1))

    def reopen(k):
        return "".join(lines[j] + "[" for j in range(depth - k, depth)) + lines[depth]

    body = json.dumps(obj, separators=(",", ":"))[depth:-depth]
    for k in range(depth - 1, 0, -1):
        body = body.replace("]" * k + "," + "[" * k, chr(k))
    body = body.replace(",", "," + lines[depth])
    for k in range(1, depth):
        body = body.replace(chr(k), close(k) + "," + reopen(k))
    parts += ("[" + reopen(depth - 1), body, close(depth))


def _jsonable(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def rows_to_csv(rows: list[dict], columns: list[str]) -> str:
    """Minimal CSV writer: repr for floats, plain str otherwise."""

    def cell(v) -> str:
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"
