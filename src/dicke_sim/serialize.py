"""JSON and CSV writers; `spec` reads these formats back.

Complex numbers travel as [re, im] pairs.  Floats are emitted with repr
(shortest exact round-trip, at most 17 significant digits), so identical
in-memory values always produce identical bytes.
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


def dumps_json(obj) -> str:
    """Deterministic JSON: sorted keys, repr floats, two-space indent, trailing newline.

    The bytes of json.dumps(obj, sort_keys=True, indent=2, default=_jsonable)
    + "\n", without its encoder: given an indent, json.dumps runs a
    pure-Python encoder that yields every token through a chain of
    generators.
    """
    return _indented(obj, "\n") + "\n"


def _indented(obj, newline: str) -> str:
    """obj as indented JSON; newline is a line break plus obj's own indent.

    Dicts with str keys and lists are written here, nested float lists in
    bulk (_float_array), scalars of exact types by _SCALARS.  A subclass of a
    JSON type, or a dict with other keys, goes to json.dumps whole, its lines
    indented to obj's depth; any other object is first made JSON-ready by
    _jsonable, as json.dumps would.
    """
    kind = type(obj)
    if kind in _SCALARS:
        return _SCALARS[kind](obj)
    inner = newline + "  "
    if kind is dict and all(type(key) is str for key in obj):
        if not obj:
            return "{}"
        items = [f"{_encode_str(key)}: {_indented(value, inner)}" for key, value in sorted(obj.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if kind is list or kind is tuple:
        if not obj:
            return "[]"
        depth = _float_array_depth(obj)
        if depth:
            return _float_array(obj, depth, newline)
        return "[" + inner + ("," + inner).join([_indented(item, inner) for item in obj]) + newline + "]"
    if isinstance(obj, (dict, list, tuple, str, int, float)):  # a subclass, or non-str keys
        return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable).replace("\n", newline)
    return _indented(_jsonable(obj), newline)


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


def _float_array(obj, depth: int, newline: str) -> str:
    """A _float_array_depth array, from json.dumps's compact text.

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
    return "[" + reopen(depth - 1) + body + close(depth)


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
