"""JSON and CSV writers; `spec` reads these formats back.

Complex numbers travel as [re, im] pairs.  Floats are emitted with repr
(shortest exact round-trip, at most 17 significant digits), so identical
in-memory values always produce identical bytes.  The trace lines of
`harness.run_ensemble` (trace_lines) fill one % template per block of trials
from float_texts, which formats each distinct magnitude once.
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
    texts = np.array(list(map(repr, magnitudes.tolist())), dtype=object)[which.reshape(values.shape)]
    return np.add("-", texts, out=texts, where=np.signbit(values))  # "-" + text on the negative entries


def _pairs_template(length: int) -> str:
    """The text json.dumps writes for _pairs of a ket of `length` amplitudes, with %s for each float."""
    return "[" + ", ".join(["[%s, %s]"] * length) + "]"


_LOST = '{"kind": "lose", "label": null, "phi": null, "probability": null, "step": %d, "theta": null}'
_MEASURED = '{"kind": "measure", "label": %%s, "phi": %%s, "probability": %%s, "step": %d, "theta": %%s}'


def trace_lines(trial_ids, seeds, events, thetas, phis, labels, probs, kets) -> list[str]:
    """The newline-terminated JSON line of each trial of a block, trial_ids their trial numbers.

    The arguments are harness._trial_block's arrays: events the schedule's
    kinds ("measure" or "lose"), thetas, phis, labels and probs of shape
    (T, m) with one column per measurement, and the final kets (T, N+1),
    N = n - m.  Each line has the bytes of json.dumps(doc, sort_keys=True) of
    {"trial": t, "seed": seed, "events": [the TraceEvent fields of each event],
    "final_state": {"kind": "ket", "n": N, "amps": [re, im] pairs}}; when the
    schedule loses k > 0 qubits, {"kind": "ket_with_losses", "lost": k, ...}:
    its density is states._final_states(ket[None], k)[0], as
    spec.state_from_json reads it.  The trials of a block differ only in
    labels and floats: one % template writes every line, and float_texts
    formats all their floats at once.
    """
    count, m = labels.shape
    lost = events.count("lose")
    kind = '"ket_with_losses", "lost": %d' % lost if lost else '"ket"'
    steps = ", ".join((_LOST if ev == "lose" else _MEASURED) % step for step, ev in enumerate(events))
    state = '{"amps": %s, "kind": %s, "n": %d}' % (_pairs_template(kets.shape[-1]), kind, kets.shape[-1] - 1)
    template = '{"events": [' + steps + '], "final_state": ' + state + ', "seed": %s, "trial": %s}\n'
    texts = float_texts(np.concatenate(
        (np.stack((phis, probs, thetas), axis=-1).reshape(count, 3 * m),
         np.ascontiguousarray(kets).view(float).reshape(count, -1)), axis=1))
    args = np.empty((count, m + texts.shape[1] + 2), dtype=object)  # the template's fields
    columns = np.arange(4 * m).reshape(m, 4)  # of each measurement: label, phi, probability, theta
    args[:, columns[:, 0]] = labels
    args[:, columns[:, 1:].ravel()] = texts[:, :3 * m]
    args[:, 4 * m:-2] = texts[:, 3 * m:]
    args[:, -2:] = list(zip(seeds, trial_ids))
    return [template % tuple(row) for row in args.tolist()]


def dumps_json(obj) -> str:
    """Deterministic JSON: sorted keys, repr floats, two-space indent, trailing newline."""
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
