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
from .serialize import SCHEMA_VERSION
from .states import (SymmetricDensity, SymmetricKet, _final_states, _require_finite, basis_state, make_ket,
                     require_state_entries)

ESTIMATE_GRID = 1024  # candidate phases of harness.ml_phase_estimate


@dataclass(frozen=True)
class PhaseChannel:
    """Unitary single-qubit channel diag(1, e^{i phi}); phi is the unknown."""

    phi: float

    def __post_init__(self):
        _require_finite(self.phi, "channel phase")

    def unitary(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * self.phi)]], dtype=complex)


class Policy(ABC):
    """Chooses each trial's next detector basis from its measurement history."""

    @abstractmethod
    def next_settings(self, labels: np.ndarray, previous) -> tuple[np.ndarray, np.ndarray]:
        """Bloch angles (theta[T], phi[T]) of the next detector PVM of T trials.

        labels[T, j]: the j outcomes so far; previous: this method's own result for labels[:, :j-1],
        None at j = 0.  Call it once per measurement, in order; a policy may step from previous.
        """


@dataclass(frozen=True)
class FixedPolicy(Policy):
    theta: float = 0.0
    phi: float = 0.0

    def __post_init__(self):
        _require_finite((self.theta, self.phi), "fixed policy angles")

    def next_settings(self, labels, previous):
        return np.full(len(labels), self.theta), np.full(len(labels), self.phi)


@dataclass(frozen=True)
class RoundRobinPolicy(Policy):
    settings: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.settings:
            raise ConfigError("round-robin policy needs at least one basis")
        _require_finite(self.settings, "round-robin policy angles")

    def next_settings(self, labels, previous):
        theta, phi = self.settings[labels.shape[1] % len(self.settings)]
        return np.full(len(labels), theta), np.full(len(labels), phi)


@dataclass(frozen=True)
class FeedbackPolicy(Policy):
    """Equatorial detector phase nudged by delta/j after the j-th outcome.

    Outcome 0 steps the previous phase up, outcome 1 steps it down; phi_0 = initial_phi.
    """

    delta: float
    theta: float = math.pi / 2.0
    initial_phi: float = 0.0

    def __post_init__(self):
        _require_finite((self.delta, self.theta, self.initial_phi), "feedback policy settings")

    def next_settings(self, labels, previous):
        trials, j = labels.shape
        if not j:
            return np.full(trials, self.theta), np.full(trials, self.initial_phi)
        if previous is None:
            raise DomainError(f"feedback policy needs its settings after {j - 1} outcomes to step after {j}")
        with np.errstate(over="ignore"):  # an overflow is refused below, in one line
            phase = previous[1] + np.where(labels[:, -1] == 0, self.delta / j, -(self.delta / j))
        _require_finite(phase, f"feedback policy phase after {j} outcomes")
        return np.full(trials, self.theta), phase


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


def _typed(doc, what: str, fields: dict) -> str:
    """doc's "type", a key of fields; doc may hold "type" and the fields of that type, nothing else."""
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConfigError(f"{what} must be an object with a 'type' field")
    kind = doc["type"]
    if not isinstance(kind, str) or kind not in fields:
        raise ConfigError(f"unknown {what} type {kind!r}")
    _reject_unknown(doc, {"type", *fields[kind]}, f"{kind} {what}")
    return kind


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


_STATE_FIELDS = {"ket": {"n", "kind", "amps"}, "density": {"n", "kind", "alpha"},
                 "ket_with_losses": {"n", "kind", "amps", "lost"}}


def state_from_json(doc) -> SymmetricKet | SymmetricDensity:
    """{"n", "amps"} or {"n", "alpha"} coefficients, or an input type with its "n".

    "kind", if given, is "ket", "density" or "ket_with_losses": a lossy trace line's ket, read as the
    density it leaves after "lost" losses (states._final_states).
    """
    if not isinstance(doc, dict):
        raise ConfigError("a state document must be an object")
    if "type" in doc:
        n = _qubit_count(doc.get("n"), "state 'n'", lo=1)
        return input_from_config({k: v for k, v in doc.items() if k != "n"}, n)
    n = _qubit_count(doc.get("n"), "state 'n'", lo=0)
    kind = doc.get("kind")
    if kind is None and "amps" not in doc and "alpha" not in doc:
        raise ConfigError("state document needs 'amps' or 'alpha'")
    if kind is None:
        kind = "density" if "alpha" in doc else "ket"
    if not isinstance(kind, str) or kind not in _STATE_FIELDS:
        raise ConfigError(f"unknown state kind {kind!r}")
    _reject_unknown(doc, _STATE_FIELDS[kind], f"{kind} state")
    if kind == "density":
        return SymmetricDensity(n, convert(complex, doc.get("alpha"), "state 'alpha'", shape=(n + 1, n + 1)))
    lost = 0
    if kind == "ket_with_losses":
        lost = convert(int, doc.get("lost"), "state 'lost'", lo=0)
        if lost > n:
            raise ConfigError(f"state 'lost' must be at most n = {n}, got {lost}")
    ket = SymmetricKet(n, convert(complex, doc.get("amps"), "state 'amps'", shape=(n + 1,)))
    return SymmetricDensity(n - lost, _final_states(ket.amps[None], lost)[0]) if lost else ket


_MEASUREMENT_FIELDS = {"pvm": {"theta", "phi"}, "pvm_kappa": {"kappa"}, "kraus": {"matrices"}}


def measurement_from_json(doc) -> SingleQubitPVM | list[SingleQubitKraus]:
    """{"type": "pvm", "theta", "phi"}, {"type": "pvm_kappa", "kappa"} or {"type": "kraus", "matrices"}."""
    kind = _typed(doc, "measurement", _MEASUREMENT_FIELDS)
    if kind == "pvm":
        angles = (convert(float, doc.get(key, 0.0), f"pvm {key!r}") for key in ("theta", "phi"))
        return pvm_from_bloch(*angles)
    if kind == "pvm_kappa":
        return SingleQubitPVM(convert(complex, doc.get("kappa"), "pvm_kappa 'kappa'", shape=(2, 2)))
    matrices = convert(complex, doc.get("matrices"), "kraus 'matrices'", shape=(None, 2, 2))
    if not len(matrices):
        raise ConfigError("kraus measurement needs at least one matrix")
    return [SingleQubitKraus(i, m) for i, m in enumerate(matrices)]


_INPUT_FIELDS = {"dicke": {"nu"}, "noon": set(), "uniform": set(), "custom": {"amps"}}
_POLICY_FIELDS = {"fixed": {"theta", "phi"}, "round_robin": {"bases"}, "feedback": {"delta", "theta", "initial_phi"}}
_CONFIG_KEYS = {"schema_version", "input", "n", "phi", "policy", "schedule", "trials", "seed", "estimate"}


def input_from_config(doc, n: int) -> SymmetricKet:
    kind = _typed(doc, "input", _INPUT_FIELDS)
    if kind == "dicke":
        return basis_state(n, convert(int, doc.get("nu"), "dicke 'nu'"))
    if kind == "noon":
        amps = np.zeros(n + 1, dtype=complex)
        amps[0] = amps[n] = 1.0
        return make_ket(n, amps)
    if kind == "uniform":
        return make_ket(n, np.ones(n + 1, dtype=complex))
    return make_ket(n, convert(complex, doc.get("amps"), "custom 'amps'", shape=(n + 1,)))


def policy_from_config(doc) -> Policy:
    kind = _typed(doc, "policy", _POLICY_FIELDS)

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
    return FeedbackPolicy(
        convert(float, doc.get("delta"), "policy 'delta'"),
        angle(doc, "theta", math.pi / 2.0),
        angle(doc, "initial_phi", 0.0),
    )


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
    version = config.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:  # True == 1 and 1.0 == 1 are no version
        raise ConfigError(f"config 'schema_version' must be {SCHEMA_VERSION}, got {version!r}")
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
    feedback = isinstance(parsed["policy"], FeedbackPolicy)
    parsed["estimate"] = convert(bool, config.get("estimate", feedback), "config 'estimate'")
    if parsed["estimate"]:  # harness._joint_log_likelihoods' coefficients C[k, nu']
        require_state_entries(min(n + 1, ESTIMATE_GRID) * (n + 1), "the estimator's coefficient array")
    return parsed
