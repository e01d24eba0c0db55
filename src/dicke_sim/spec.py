"""The one reader of outside input, and the experiment types it builds.

Configs, state and measurement documents and the CLI's shorthand specs
(`dicke:3,1` is {"type": "dicke", "n": 3, "nu": 1}) become library objects
here.  Every field goes through one converter, `convert`, and every file
through one loader, `load_document`, so malformed input raises ConfigError;
well-typed but unphysical values (an unnormalized ket, a NaN angle) reach
the constructors, which raise DomainError.
"""

from __future__ import annotations

import json
import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError
from .measure import SingleQubitKraus, SingleQubitPVM, pvm_from_bloch
from .states import SymmetricDensity, SymmetricKet, _final_states, basis_state, make_ket, require_state_entries


def _require_finite(what: str, *values: float) -> None:
    if not all(map(math.isfinite, values)):
        raise DomainError(f"{what} must be finite, got {', '.join(map(str, values))}")


@dataclass(frozen=True)
class PhaseChannel:
    """Unitary single-qubit channel diag(1, e^{i phi}); phi is the unknown."""

    phi: float

    def __post_init__(self):
        _require_finite("channel phase", self.phi)

    def unitary(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * self.phi)]], dtype=complex)


class Policy(ABC):
    """Chooses each trial's next detector basis from its measurement history."""

    @abstractmethod
    def next_settings(self, labels: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Bloch angles (theta[T], phi[T]) of the next detector PVM of T trials.

        labels[T, m] holds each trial's outcomes of its m measurements so far.
        """


@dataclass(frozen=True)
class FixedPolicy(Policy):
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _require_finite("fixed policy angles", self.theta, self.phi)

    def next_settings(self, labels):
        return np.full(len(labels), self.theta), np.full(len(labels), self.phi)


@dataclass(frozen=True)
class RoundRobinPolicy(Policy):
    settings: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.settings:
            raise ConfigError("round-robin policy needs at least one basis")
        _require_finite("round-robin policy angles", *(angle for basis in self.settings for angle in basis))

    def next_settings(self, labels):
        theta, phi = self.settings[labels.shape[1] % len(self.settings)]
        return np.full(len(labels), theta), np.full(len(labels), phi)


@dataclass(frozen=True)
class FeedbackPolicy(Policy):
    """Equatorial detector phase nudged by delta/m after the m-th outcome.

    Outcome 0 steps the phase up, outcome 1 steps it down.
    """

    delta: float
    theta: float = math.pi / 2.0
    initial_phi: float = 0.0

    def __post_init__(self):
        _require_finite("feedback policy settings", self.delta, self.theta, self.initial_phi)

    def next_settings(self, labels):
        trials, m = labels.shape
        step = self.delta / np.arange(1, m + 1)
        nudges = np.where(labels == 0, step, -step)
        # summed left to right from initial_phi, one column per outcome
        with np.errstate(over="ignore"):  # an overflow is refused below, in one line
            phase = np.add.accumulate(np.column_stack([np.full(trials, self.initial_phi), nudges]), axis=1)
        _require_finite(f"feedback policy phase after {m} outcomes", float(np.abs(phase[:, -1]).max(initial=0.0)))
        return np.full(trials, self.theta), phase[:, -1]


@dataclass(frozen=True)
class LossSchedule:
    """Time-ordered measure/lose events; each consumes one fresh qubit."""

    events: tuple[str, ...]

    def __post_init__(self):
        bad = [e for e in self.events if e not in ("measure", "lose")]
        if bad:
            raise ConfigError(f"unknown schedule events: {bad}")

    @classmethod
    def lossless(cls, measurements: int) -> LossSchedule:
        return cls(("measure",) * measurements)

    @classmethod
    def random(cls, length: int, loss_rate: float, seed: int) -> LossSchedule:
        """Bernoulli(loss_rate) loss at each step, fixed by the seed."""
        if not 0.0 <= loss_rate <= 1.0:
            raise ConfigError(f"loss rate must lie in [0, 1], got {loss_rate}")
        rng = np.random.default_rng(seed)
        return cls(tuple("lose" if rng.random() < loss_rate else "measure" for _ in range(length)))

    def measurement_count(self) -> int:
        return sum(1 for e in self.events if e == "measure")


def load_document(path: str):
    """The JSON document in a file; an unreadable or malformed file is a ConfigError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise ConfigError(f"cannot read {path!r}: {exc}") from None


def convert(kind, value, what: str, lo=None, shape: tuple = ()):
    """value as kind, or a ConfigError naming the field.

    kind is int, float, bool or complex, a complex being an [re, im] pair.  A
    shape reads nested lists of that shape (None: any length) into an array.
    A boolean is no number, and int() would truncate a non-integral number,
    so both are refused; so is a number below lo (NaN too).
    """
    if shape:
        if not isinstance(value, list) or shape[0] not in (None, len(value)):
            raise ConfigError(f"{what} must be nested lists of shape {shape}")
        return np.array([convert(kind, v, what, lo, shape[1:]) for v in value], dtype=kind)
    if kind is complex:
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{what} must hold [re, im] pairs, got {value!r}")
        return complex(convert(float, value[0], what), convert(float, value[1], what))
    if kind is bool or isinstance(value, bool):
        if kind is bool and isinstance(value, bool):
            return value
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}")
    try:
        if kind is int and isinstance(value, float) and not value.is_integer():
            raise ValueError
        out = kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(f"{what} must be {kind.__name__}, got {value!r}") from None
    if lo is not None and not out >= lo:
        raise ConfigError(f"{what} must be >= {lo}, got {value!r}")
    return out


def _qubit_count(value, what: str, lo: int) -> int:
    """A qubit count n whose n + 1 amplitudes stay within MAX_STATE_ENTRIES."""
    n = convert(int, value, what, lo=lo)
    require_state_entries(n + 1, f"a state of {n} qubits")
    return n


def _reject_unknown(doc: dict, allowed: set, what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")


def _typed(doc, what: str) -> str:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConfigError(f"{what} must be an object with a 'type' field")
    return doc["type"]


_STATE_SPECS = {"dicke": ("dicke", ("n", "nu")), "noon": ("noon", ("n",)), "uniform": ("uniform", ("n",))}
_MEASUREMENT_SPECS = {"bloch": ("pvm", ("theta", "phi"))}
_NAMED_MEASUREMENTS = {"computational": {"type": "pvm"}, "hadamard": {"type": "pvm", "theta": math.pi / 2.0}}


def _spec_document(spec: str, kinds: dict, what: str):
    """The document a `kind:v1,v2` or `file:path` spec stands for."""
    kind, colon, rest = spec.partition(":")
    if kind == "file" and colon:
        return load_document(rest)
    if kind not in kinds or not colon:
        raise ConfigError(f"unknown {what} spec {spec!r}")
    doc_type, fields = kinds[kind]
    values = rest.split(",")
    if len(values) != len(fields):
        raise ConfigError(f"expected {kind}:{','.join(fields)}, got {spec!r}")
    return {"type": doc_type, **dict(zip(fields, values))}


def state_from_spec(spec: str) -> SymmetricKet | SymmetricDensity:
    """dicke:n,nu | noon:n | uniform:n | file:path"""
    return state_from_json(_spec_document(spec, _STATE_SPECS, "state"))


def measurement_from_spec(spec: str) -> SingleQubitPVM | list[SingleQubitKraus]:
    """computational | hadamard | bloch:theta,phi | file:path"""
    doc = _NAMED_MEASUREMENTS.get(spec) or _spec_document(spec, _MEASUREMENT_SPECS, "measurement")
    return measurement_from_json(doc)


def state_from_json(doc) -> SymmetricKet | SymmetricDensity:
    """{"n", "amps"} or {"n", "alpha"} coefficients, or an input kind with its "n".

    "kind", if given, is "ket", "density" or "ket_with_losses": a lossy trace line's ket, read as the
    density it leaves after "lost" losses (states._final_states).
    """
    if not isinstance(doc, dict):
        raise ConfigError("a state document must be an object")
    if "type" in doc:
        n = _qubit_count(doc.get("n"), "state 'n'", lo=1)
        return input_from_config({k: v for k, v in doc.items() if k != "n"}, n)
    n = _qubit_count(doc.get("n"), "state 'n'", lo=0)
    if doc.get("kind") not in (None, "ket", "density", "ket_with_losses"):
        raise ConfigError(f"unknown state kind {doc['kind']!r}")
    if doc.get("kind") == "ket_with_losses":
        lost = convert(int, doc.get("lost"), "state 'lost'", lo=0)
        if lost > n:
            raise ConfigError(f"state 'lost' must be at most n = {n}, got {lost}")
        require_state_entries(max((lost + 1) * (n + 1), (n - lost + 1) ** 2), "the loss table or density")
        ket = SymmetricKet(n, convert(complex, doc.get("amps"), "state 'amps'", shape=(n + 1,)))
        return SymmetricDensity(n - lost, _final_states(ket.amps[None], lost)[0]) if lost else ket
    if "amps" in doc:
        return SymmetricKet(n, convert(complex, doc["amps"], "state 'amps'", shape=(n + 1,)))
    if "alpha" in doc:
        return SymmetricDensity(n, convert(complex, doc["alpha"], "state 'alpha'", shape=(n + 1, n + 1)))
    raise ConfigError("state document needs 'amps' or 'alpha'")


def measurement_from_json(doc) -> SingleQubitPVM | list[SingleQubitKraus]:
    """{"type": "pvm", "theta", "phi"}, {"type": "pvm_kappa", "kappa"} or {"type": "kraus", "matrices"}."""
    kind = _typed(doc, "measurement document")
    if kind == "pvm":
        angles = (convert(float, doc.get(key, 0.0), f"pvm {key!r}") for key in ("theta", "phi"))
        return pvm_from_bloch(*angles)
    if kind == "pvm_kappa":
        return SingleQubitPVM(convert(complex, doc.get("kappa"), "pvm_kappa 'kappa'", shape=(2, 2)))
    if kind == "kraus":
        matrices = convert(complex, doc.get("matrices"), "kraus 'matrices'", shape=(None, 2, 2))
        if not len(matrices):
            raise ConfigError("kraus measurement needs at least one matrix")
        return [SingleQubitKraus(i, m) for i, m in enumerate(matrices)]
    raise ConfigError(f"unknown measurement type {kind!r}")


_INPUT_KEYS = {"type", "nu", "amps"}
_POLICY_KEYS = {"type", "theta", "phi", "bases", "delta", "initial_phi"}
_CONFIG_KEYS = {"schema_version", "input", "n", "phi", "policy", "schedule", "trials", "seed", "estimate"}


def input_from_config(doc, n: int) -> SymmetricKet:
    kind = _typed(doc, "input")
    _reject_unknown(doc, _INPUT_KEYS, "input")
    if kind == "dicke":
        return basis_state(n, convert(int, doc.get("nu"), "dicke 'nu'"))
    if kind == "noon":
        amps = np.zeros(n + 1, dtype=complex)
        amps[0] = amps[n] = 1.0
        return make_ket(n, amps)
    if kind == "uniform":
        return make_ket(n, np.ones(n + 1, dtype=complex))
    if kind == "custom":
        return make_ket(n, convert(complex, doc.get("amps"), "custom 'amps'", shape=(n + 1,)))
    raise ConfigError(f"unknown input type {kind!r}")


def policy_from_config(doc) -> Policy:
    kind = _typed(doc, "policy")
    _reject_unknown(doc, _POLICY_KEYS, "policy")

    def angle(owner: dict, key: str, default: float) -> float:
        return convert(float, owner.get(key, default), f"policy {key!r}")

    if kind == "fixed":
        return FixedPolicy(angle(doc, "theta", 0.0), angle(doc, "phi", 0.0))
    if kind == "round_robin":
        bases = doc.get("bases")
        if not bases or not isinstance(bases, list) or not all(isinstance(b, dict) for b in bases):
            raise ConfigError("round_robin policy needs 'bases', a list of objects")
        for basis in bases:
            _reject_unknown(basis, {"theta", "phi"}, "round_robin basis")
        return RoundRobinPolicy(tuple((angle(b, "theta", 0.0), angle(b, "phi", 0.0)) for b in bases))
    if kind == "feedback":
        return FeedbackPolicy(
            convert(float, doc.get("delta"), "policy 'delta'"),
            angle(doc, "theta", math.pi / 2.0),
            angle(doc, "initial_phi", 0.0),
        )
    raise ConfigError(f"unknown policy type {kind!r}")


def schedule_from_config(doc, n: int) -> LossSchedule:
    """An event list or a {"length", "loss_rate", "seed"} generator, at most n events."""
    if isinstance(doc, dict):
        _reject_unknown(doc, {"length", "loss_rate", "seed"}, "schedule")
        length = convert(int, doc.get("length"), "schedule 'length'", lo=0)
    elif isinstance(doc, list):
        length = len(doc)
    else:
        raise ConfigError("schedule must be a list of events or a generator object")
    if length > n:  # checked before a generator runs
        raise ConfigError("schedule longer than the number of input qubits")
    if isinstance(doc, list):
        return LossSchedule(tuple(doc))
    rate = convert(float, doc.get("loss_rate"), "schedule 'loss_rate'")
    return LossSchedule.random(length, rate, convert(int, doc.get("seed"), "schedule 'seed'", lo=0))


def parse_config(config) -> dict:
    """Validate an experiment configuration document."""
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(config, _CONFIG_KEYS, "config")
    for key in ("input", "n", "phi", "policy", "schedule", "trials", "seed"):
        if key not in config:
            raise ConfigError(f"missing config field {key!r}")
    n = _qubit_count(config["n"], "config 'n'", lo=1)
    trials = convert(int, config["trials"], "config 'trials'", lo=1)
    parsed = {
        "input": input_from_config(config["input"], n),
        "n": n,
        "channel": PhaseChannel(convert(float, config["phi"], "config 'phi'")),
        "policy": policy_from_config(config["policy"]),
        "schedule": schedule_from_config(config["schedule"], n),
        "trials": trials,
        "seed": convert(int, config["seed"], "config 'seed'", lo=0),
    }
    events = parsed["schedule"].events
    if "lose" in events:  # the trials end in densities of the qubits no event reached
        require_state_entries((n - len(events) + 1) ** 2, "the final density")
    feedback = isinstance(parsed["policy"], FeedbackPolicy)
    parsed["estimate"] = convert(bool, config.get("estimate", feedback), "config 'estimate'")
    return parsed
