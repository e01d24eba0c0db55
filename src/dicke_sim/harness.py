"""Adaptive-measurement experiments on symmetric input states.

One qubit at a time passes through a fixed unitary phase channel and is
measured by a detector PVM chosen by a feedback policy; loss events may be
interleaved.  Trials are driven by explicit event schedules so that loss
transparency can be asserted deterministically, and every trial is
reproducible from its seed.

Losses are deferred: a loss changes no later measurement probability and a
partial trace commutes with a measurement on another qubit, so trials, forced
replays and the likelihood measure the pure ket at every step (through
`measure.pvm_branches`) and trace the lost qubits out of the final ket once.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, DomainError
from .measure import (
    ZERO_PROB_EPS,
    SingleQubitPVM,
    lose_qubit,
    measure_pure,
    pvm_branches,
    pvm_from_bloch,
    sample_outcome,
)
from .serialize import state_to_json
from .states import SymmetricDensity, SymmetricKet, basis_state, make_ket, to_density

ESTIMATE_GRID = 1024
TIE_TOL = 1e-10  # log-likelihood slack of a tie; below the 1e-9 of perfbench's grid-maximum check


@dataclass(frozen=True)
class PhaseChannel:
    """Unitary single-qubit channel diag(1, e^{i phi}); phi is the unknown."""

    phi: float

    def __post_init__(self):
        if not math.isfinite(self.phi):
            raise DomainError(f"channel phase must be finite, got {self.phi}")

    def unitary(self) -> np.ndarray:
        return np.array([[1.0, 0.0], [0.0, np.exp(1j * self.phi)]], dtype=complex)


def combined_pvm(channel: PhaseChannel, detector: SingleQubitPVM) -> SingleQubitPVM:
    """Channel followed by detector, folded into one PVM.

    kappa'[ell, b] = sum_c kappa[ell, c] U[c, b]; rows stay orthonormal since
    U is unitary.
    """
    return SingleQubitPVM(detector.kappa @ channel.unitary())


@dataclass(frozen=True)
class TraceEvent:
    step: int
    kind: str  # "measure" or "lose"
    theta: float | None = None
    phi: float | None = None
    label: int | None = None
    probability: float | None = None


class Policy(ABC):
    """Chooses the next detector basis from the measurement history."""

    @abstractmethod
    def next_setting(self, measured: list[TraceEvent]) -> tuple[float, float]:
        """Bloch angles (theta, phi) of the next detector PVM."""


@dataclass(frozen=True)
class FixedPolicy(Policy):
    theta: float = 0.0
    phi: float = 0.0

    def next_setting(self, measured):
        return (self.theta, self.phi)


@dataclass(frozen=True)
class RoundRobinPolicy(Policy):
    settings: tuple[tuple[float, float], ...]

    def __post_init__(self):
        if not self.settings:
            raise ConfigError("round-robin policy needs at least one basis")

    def next_setting(self, measured):
        return self.settings[len(measured) % len(self.settings)]


@dataclass(frozen=True)
class FeedbackPolicy(Policy):
    """Equatorial detector phase nudged by delta/m after the m-th outcome.

    Outcome 0 steps the phase up, outcome 1 steps it down.
    """

    delta: float
    theta: float = math.pi / 2.0
    initial_phi: float = 0.0

    def next_setting(self, measured):
        phase = self.initial_phi
        for m, ev in enumerate(measured, start=1):
            phase += self.delta / m if ev.label == 0 else -self.delta / m
        return (self.theta, phase)


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


@dataclass(frozen=True)
class ExperimentTrace:
    seed: int
    events: tuple[TraceEvent, ...]
    final_state: SymmetricKet | SymmetricDensity

    def outcome_labels(self) -> tuple[int, ...]:
        return tuple(ev.label for ev in self.events if ev.kind == "measure")


def _trace_out(ket: SymmetricKet, k: int) -> SymmetricKet | SymmetricDensity:
    """The k deferred losses, applied once to the final ket; k = 0 keeps it pure."""
    if k == 0:
        return ket
    state = to_density(ket)
    for _ in range(k):
        state = lose_qubit(state)
    return state


def run_trial(
    input_state: SymmetricKet,
    channel: PhaseChannel,
    policy: Policy,
    schedule: LossSchedule,
    seed: int,
) -> ExperimentTrace:
    """Execute one trial: deterministic for fixed (inputs, seed).

    Measurements act on the pure ket and `lose` events are only recorded; the
    final state is that ket, or a density matrix once the lost qubits are
    traced out of it.
    """
    if len(schedule.events) > input_state.n:
        raise DomainError(
            f"schedule has {len(schedule.events)} events but only {input_state.n} qubits"
        )
    rng = np.random.default_rng(seed)
    ket = input_state
    events: list[TraceEvent] = []
    measured: list[TraceEvent] = []
    for step, kind in enumerate(schedule.events):
        if kind == "lose":
            events.append(TraceEvent(step, "lose"))
            continue
        theta, phi = policy.next_setting(measured)
        outcomes = measure_pure(ket, combined_pvm(channel, pvm_from_bloch(theta, phi)))
        label = sample_outcome(outcomes, rng)
        chosen = outcomes[label]
        ket = chosen.require_post_state()
        ev = TraceEvent(step, "measure", theta, phi, label, chosen.probability)
        events.append(ev)
        measured.append(ev)
    return ExperimentTrace(seed, tuple(events), _trace_out(ket, len(events) - len(measured)))


def evaluate_sequence(
    input_state: SymmetricKet,
    channel: PhaseChannel,
    steps: list,
) -> tuple[list[float], SymmetricKet | SymmetricDensity]:
    """Replay a fixed event sequence and return each conditional probability.

    steps: ("lose",) or ("measure", (theta, phi), label).  No sampling takes
    place; the recorded labels are forced, and one below ZERO_PROB_EPS raises
    ZeroProbabilityError.  Losses are deferred as in run_trial.
    """
    ket = input_state
    probs: list[float] = []
    for step in steps:
        if step[0] == "lose":
            continue
        _, (theta, phi), label = step
        chosen = measure_pure(ket, combined_pvm(channel, pvm_from_bloch(theta, phi)))[label]
        probs.append(chosen.probability)
        ket = chosen.require_post_state()
    return probs, _trace_out(ket, len(steps) - len(probs))


def grid_log_likelihoods(
    input_state: SymmetricKet,
    trace: ExperimentTrace,
    grid_size: int = ESTIMATE_GRID,
) -> np.ndarray:
    """Log-likelihood of the trace's labels at each phase 2 pi g / grid_size.

    One replay of the recorded settings and labels over a (grid_size, n+1)
    batch of kets, one row per candidate phase, skipping losses.  A row whose
    forced label falls below ZERO_PROB_EPS reads -inf; its ket is left
    unnormalized, so no NaN reaches later steps.
    """
    phis = 2.0 * math.pi * np.arange(grid_size) / grid_size
    # the channel diag(1, e^{i phi}) folded into the detector, as in combined_pvm
    channels = np.stack([np.ones(grid_size), np.exp(1j * phis)], axis=-1)[:, None, :]
    kets = np.broadcast_to(input_state.amps, (grid_size, input_state.n + 1))
    ll = np.zeros(grid_size)
    for ev in trace.events:
        if ev.kind == "lose":
            continue
        kappas = pvm_from_bloch(ev.theta, ev.phi).kappa[[ev.label]] * channels  # forced row only
        branch = pvm_branches(kets, kappas)[:, 0]
        p = (branch.real**2 + branch.imag**2).sum(axis=-1)
        alive = p >= ZERO_PROB_EPS
        p = np.where(alive, p, 1.0)
        ll = np.where(alive, ll + np.log(p), -math.inf)
        kets = branch / np.sqrt(p)[:, None]
    return ll


def ml_phase_estimate(
    input_state: SymmetricKet,
    trace: ExperimentTrace,
    grid_size: int = ESTIMATE_GRID,
) -> float:
    """Maximum-likelihood phase over a uniform grid of candidate phases.

    Ties resolve to the smallest grid point within TIE_TOL of the maximum
    log-likelihood, so a flat likelihood (Dicke inputs, NOON with fewer than n
    measurements) gives 0.0 and exact ties (NOON with n measurements) give the
    smallest maximum, whatever the rounding.  All points impossible: 0.0.
    """
    ll = grid_log_likelihoods(input_state, trace, grid_size)
    g = int(np.argmax(ll >= ll.max() - TIE_TOL))  # all -inf: every point ties, g = 0
    return 2.0 * math.pi * g / grid_size


# --- ensemble configuration -------------------------------------------------

_INPUT_KEYS = {"type", "nu", "amps"}
_POLICY_KEYS = {"type", "theta", "phi", "bases", "delta", "initial_phi"}
_CONFIG_KEYS = {
    "schema_version",
    "input",
    "n",
    "phi",
    "policy",
    "schedule",
    "trials",
    "seed",
    "estimate",
}


def _reject_unknown(doc: dict, allowed: set, what: str) -> None:
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {what} fields: {sorted(unknown)}")


def input_from_config(doc: dict, n: int) -> SymmetricKet:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConfigError("input must be an object with a 'type' field")
    _reject_unknown(doc, _INPUT_KEYS, "input")
    kind = doc["type"]
    if kind == "dicke":
        if "nu" not in doc:
            raise ConfigError("dicke input needs 'nu'")
        return basis_state(n, int(doc["nu"]))
    if kind == "noon":
        amps = np.zeros(n + 1, dtype=complex)
        amps[0] = amps[n] = 1.0
        return make_ket(n, amps)
    if kind == "uniform":
        return make_ket(n, np.ones(n + 1, dtype=complex))
    if kind == "custom":
        if "amps" not in doc:
            raise ConfigError("custom input needs 'amps'")
        amps = np.array([complex(re, im) for re, im in doc["amps"]])
        return make_ket(n, amps)
    raise ConfigError(f"unknown input type {kind!r}")


def policy_from_config(doc: dict) -> Policy:
    if not isinstance(doc, dict) or "type" not in doc:
        raise ConfigError("policy must be an object with a 'type' field")
    _reject_unknown(doc, _POLICY_KEYS, "policy")
    kind = doc["type"]
    if kind == "fixed":
        return FixedPolicy(float(doc.get("theta", 0.0)), float(doc.get("phi", 0.0)))
    if kind == "round_robin":
        bases = doc.get("bases")
        if not bases:
            raise ConfigError("round_robin policy needs 'bases'")
        return RoundRobinPolicy(
            tuple((float(b.get("theta", 0.0)), float(b.get("phi", 0.0))) for b in bases)
        )
    if kind == "feedback":
        if "delta" not in doc:
            raise ConfigError("feedback policy needs 'delta'")
        return FeedbackPolicy(
            float(doc["delta"]),
            float(doc.get("theta", math.pi / 2.0)),
            float(doc.get("initial_phi", 0.0)),
        )
    raise ConfigError(f"unknown policy type {kind!r}")


def schedule_from_config(doc) -> LossSchedule:
    if isinstance(doc, list):
        return LossSchedule(tuple(doc))
    if isinstance(doc, dict):
        _reject_unknown(doc, {"length", "loss_rate", "seed"}, "schedule")
        try:
            return LossSchedule.random(int(doc["length"]), float(doc["loss_rate"]), int(doc["seed"]))
        except KeyError as exc:
            raise ConfigError(f"schedule generator needs {exc.args[0]!r}") from None
    raise ConfigError("schedule must be a list of events or a generator object")


def parse_config(config: dict) -> dict:
    """Validate an experiment configuration document."""
    if not isinstance(config, dict):
        raise ConfigError("configuration must be a JSON object")
    _reject_unknown(config, _CONFIG_KEYS, "config")
    for key in ("input", "n", "phi", "policy", "schedule", "trials", "seed"):
        if key not in config:
            raise ConfigError(f"missing config field {key!r}")
    n = int(config["n"])
    if n < 1:
        raise ConfigError("n must be >= 1")
    trials = int(config["trials"])
    if trials < 1:
        raise ConfigError("trials must be >= 1")
    parsed = {
        "input": input_from_config(config["input"], n),
        "n": n,
        "channel": PhaseChannel(float(config["phi"])),
        "policy": policy_from_config(config["policy"]),
        "schedule": schedule_from_config(config["schedule"]),
        "trials": trials,
        "seed": int(config["seed"]),
        "estimate": bool(
            config.get("estimate", config["policy"].get("type") == "feedback")
        ),
    }
    if len(parsed["schedule"].events) > n:
        raise ConfigError("schedule longer than the number of input qubits")
    return parsed


def _trace_document(trial: int, trace: ExperimentTrace) -> dict:
    return {
        "trial": trial,
        "seed": trace.seed,
        "events": [dict(vars(ev)) for ev in trace.events],  # TraceEvent fields are the keys
        "final_state": {
            "kind": "ket" if isinstance(trace.final_state, SymmetricKet) else "density",
            **state_to_json(trace.final_state),
        },
    }


def _run_trial_block(config: dict, start: int, count: int, keep_traces: bool = False) -> list[dict]:
    parsed = parse_config(config)
    results = []
    for t in range(start, start + count):
        trace = run_trial(
            parsed["input"],
            parsed["channel"],
            parsed["policy"],
            parsed["schedule"],
            parsed["seed"] + t,
        )
        entry: dict = {
            "trial": t,
            "labels": "".join(str(b) for b in trace.outcome_labels()),
        }
        if parsed["estimate"]:
            entry["phi_hat"] = ml_phase_estimate(parsed["input"], trace)
        if keep_traces:
            entry["trace"] = _trace_document(t, trace)
        results.append(entry)
    return results


def run_ensemble(config: dict, workers: int = 1, trace_sink=None) -> dict:
    """Run `trials` independent trials with seeds base, base+1, ...

    The report is a JSON-ready dict: per-outcome-sequence frequencies, and
    (when estimation is on) the phase-estimate distribution and the sharpness
    |<e^{i(phi_hat - phi)}>| over trials.  Identical (config, seed) give a
    byte-identical report.  trace_sink, if given, receives one JSON line per
    trial (in trial order).
    """
    parsed = parse_config(config)
    trials = parsed["trials"]
    want_traces = trace_sink is not None
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        chunk = -(-trials // workers)
        blocks = [(s, min(chunk, trials - s)) for s in range(0, trials, chunk)]
        with ProcessPoolExecutor(max_workers=workers) as pool:
            futures = [
                pool.submit(_run_trial_block, config, s, c, want_traces) for s, c in blocks
            ]
            entries = [e for f in futures for e in f.result()]
        entries.sort(key=lambda e: e["trial"])
    else:
        entries = _run_trial_block(config, 0, trials, want_traces)

    if trace_sink is not None:
        import json as _json

        for e in entries:
            trace_sink.write(_json.dumps(e["trace"], sort_keys=True) + "\n")
    for e in entries:
        e.pop("trace", None)

    counts: dict[str, int] = {}
    for e in entries:
        counts[e["labels"]] = counts.get(e["labels"], 0) + 1
    report = {
        "schema_version": 1,
        "config": config,
        "trials": trials,
        "measurements_per_trial": parsed["schedule"].measurement_count(),
        "outcome_sequences": {
            labels: {"count": c, "frequency": c / trials}
            for labels, c in sorted(counts.items())
        },
    }
    if parsed["estimate"]:
        phi_true = parsed["channel"].phi
        estimates = [e["phi_hat"] for e in entries]
        mean = sum(complex(math.cos(e - phi_true), math.sin(e - phi_true)) for e in estimates)
        dist: dict[str, int] = {}
        for e in estimates:
            key = f"{e:.10f}"
            dist[key] = dist.get(key, 0) + 1
        report["estimation"] = {
            "grid_size": ESTIMATE_GRID,
            "sharpness": abs(mean) / trials,
            "estimate_distribution": dict(sorted(dist.items())),
        }
    return report


# --- fast cascade kernel for benchmarking ------------------------------------


@dataclass
class CascadeResult:
    outcomes: list[int]
    probabilities: list[float]
    state_entries: int = field(default=0)


def run_pvm_cascade(
    n: int,
    kappa: np.ndarray,
    initial_amps,
    uniforms,
) -> CascadeResult:
    """Measure all n qubits with a fixed combined PVM, in O(n^2) total time.

    This is the performance path behind the scaling benchmark; it computes
    exactly the same branch amplitudes as measure_pure (checked by tests) but
    avoids per-step array dispatch, which would otherwise dominate at small
    n.  The running state is a plain list holding at most n+1 complex
    amplitudes; normalization is folded into the tracked squared norm and the
    state is rescaled only when the norm leaves a wide safety window.
    """
    if len(initial_amps) != n + 1:
        raise DomainError(f"initial state must have {n + 1} amplitudes")
    (k00, k01), (k10, k11) = (
        (complex(kappa[0][0]), complex(kappa[0][1])),
        (complex(kappa[1][0]), complex(kappa[1][1])),
    )
    psi = [complex(z) for z in initial_amps]
    state_entries = len(psi)
    sq = [math.sqrt(i) for i in range(n + 1)]
    # weight tables laid out so that step m uses an aligned tail/prefix:
    # wa*[n-m+j] = kappa[.,0]*sqrt(m-j), wb*[j] = kappa[.,1]*sqrt(j+1)
    wa0 = [k00 * sq[n - i] for i in range(n)]
    wb0 = [k01 * sq[j + 1] for j in range(n)]
    wa1 = [k10 * sq[n - i] for i in range(n)]
    wb1 = [k11 * sq[j + 1] for j in range(n)]
    outcomes: list[int] = []
    probs: list[float] = []
    norm2 = sum(abs(z) ** 2 for z in psi)
    for m in range(n, 0, -1):
        off = n - m
        tail = psi[1:]
        b0 = [a * x + c * y for a, x, c, y in zip(wa0[off:], psi, wb0, tail)]
        raw0 = sum(abs(z) ** 2 for z in b0)
        total = m * norm2
        p0 = raw0 / total
        if uniforms[off] < p0:
            outcomes.append(0)
            probs.append(p0)
            psi, norm2 = b0, raw0
        else:
            outcomes.append(1)
            probs.append(1.0 - p0)
            psi = [a * x + c * y for a, x, c, y in zip(wa1[off:], psi, wb1, tail)]
            norm2 = total - raw0
        if not 1e-120 < norm2 < 1e120:
            scale = 1.0 / math.sqrt(norm2)
            psi = [z * scale for z in psi]
            norm2 = 1.0
    return CascadeResult(outcomes, probs, state_entries)
