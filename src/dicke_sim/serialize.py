"""JSON and CSV writers; `spec` reads these formats back.

Complex numbers travel as [re, im] pairs.  Floats are emitted with repr
(shortest exact round-trip, at most 17 significant digits), so identical
in-memory values always produce identical bytes.
"""

from __future__ import annotations

import json

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
    """Deterministic JSON: sorted keys, repr floats, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, default=_jsonable) + "\n"


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
