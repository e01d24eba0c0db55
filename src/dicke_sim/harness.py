"""Adaptive-measurement experiments on symmetric input states.

One qubit at a time passes through a fixed unitary phase channel and is
measured by a detector PVM chosen by a feedback policy; loss events may be
interleaved.  Trials are driven by explicit event schedules so that loss
transparency can be asserted deterministically, and every trial is
reproducible from its seed.

Losses are deferred: a loss changes no later measurement probability and a
partial trace commutes with a measurement on another qubit, so trials (through
`measure.pvm_branches`), forced replays and the likelihood measure the pure
ket at every step and trace the lost qubits out of the final ket once, in one
product through the split coefficients (`_final_states`).

Trials run in blocks (`run_trials`): the T kets of a block advance as one
(T, n+1) array, with one vectorized measurement step per `measure` event.
The block size follows from n, so that a block's largest array, its
(T, n+1, n+1) final densities, stays within BLOCK_BYTES.  A trial's outcome
does not depend on its block.  Forced replays (`evaluate_sequence`) and the
likelihood grid (`grid_log_likelihoods`) share one loop, `_forced_replay`,
which holds its kets phase-major, kets[nu, g].
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add, mul

import numpy as np

from .errors import DomainError, ZeroProbabilityError
from .measure import (
    ZERO_PROB_EPS,
    SingleQubitPVM,
    bloch_kappas,
    measure_pure_batch,
    require_pvm_rows,
)
from .serialize import state_to_json
from .spec import LossSchedule, PhaseChannel, Policy, parse_config
from .states import SymmetricDensity, SymmetricKet, general_split

BLOCK_BYTES = 1 << 22  # memory budget of a trial block's (T, n+1, n+1) densities
ESTIMATE_GRID = 1024
TIE_TOL = 1e-10  # log-likelihood slack of a tie; below the 1e-9 of perfbench's grid-maximum check


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


@dataclass(frozen=True)
class ExperimentTrace:
    seed: int
    events: tuple[TraceEvent, ...]
    final_state: SymmetricKet | SymmetricDensity

    def outcome_labels(self) -> tuple[int, ...]:
        return tuple(ev.label for ev in self.events if ev.kind == "measure")

    def steps(self) -> list[tuple]:
        """The replay encoding of each event: ("measure", (theta, phi), label) or ("lose",)."""
        return [("lose",) if ev.kind == "lose" else ("measure", (ev.theta, ev.phi), ev.label)
                for ev in self.events]


def _final_states(kets: np.ndarray, k: int) -> list[SymmetricKet | SymmetricDensity]:
    """The k deferred losses, traced out of every final ket kets[T] in one product.

    Splitting the k lost qubits off |nu> of the N left leaves j ones among
    them with amplitude Xi(k, N; j, nu), so alpha = sum_j c_j c_j^dag with
    c_j[mu] = psi[mu + j] Xi(k, N; j, mu + j), from one general_split table
    per call.  k = 0 keeps the kets pure.
    """
    n = kets.shape[-1] - 1
    if k == 0:
        return [SymmetricKet(n, ket) for ket in kets]
    xi = np.zeros((k + 1, n + 1))
    for nu in range(n + 1):
        for c in general_split(n, nu, k):
            xi[c.mu, nu] = c.value
    nus = np.arange(k + 1)[:, None] + np.arange(n - k + 1)  # nus[j, mu] = mu + j
    c = kets[:, nus] * np.take_along_axis(xi, nus, axis=1)  # c[T, j, mu]
    # summed over j in order, elementwise: the same bytes in any block, exactly Hermitian
    alpha = sum(cj[:, :, None] * cj.conj()[:, None, :] for cj in c.swapaxes(0, 1))
    return [SymmetricDensity(n - k, a) for a in alpha]


def run_trials(
    input_state: SymmetricKet,
    channel: PhaseChannel,
    policy: Policy,
    schedule: LossSchedule,
    seeds,
) -> list[ExperimentTrace]:
    """Execute one block of trials, one per seed, all at once.

    Trial t is deterministic for fixed (inputs, seeds[t]) and does not depend
    on the rest of the block.  Its uniforms come up front from
    default_rng(seeds[t]), one per measurement in schedule order.  The kets
    advance as one (T, n+1) array: each `measure` event builds every trial's
    detector from policy.next_settings with the channel folded in, and takes
    one measure_pure_batch step.  `lose` events are only recorded; the lost
    qubits are traced out of the final kets once.  Only the final states are
    built as validated SymmetricKet / SymmetricDensity objects.
    """
    if len(schedule.events) > input_state.n:
        raise DomainError(
            f"schedule has {len(schedule.events)} events but only {input_state.n} qubits"
        )
    trials, m = len(seeds), schedule.measurement_count()
    uniforms = np.array([np.random.default_rng(s).random(m) for s in seeds]).reshape(trials, m)
    fold = np.diagonal(channel.unitary())  # kappa @ U for the diagonal channel U
    kets = np.tile(input_state.amps, (trials, 1))
    labels = np.zeros((trials, m), dtype=int)
    thetas, phis, probs = np.zeros((3, trials, m))
    for j in range(m):  # the j-th measurement; losses wait for the end
        thetas[:, j], phis[:, j] = policy.next_settings(labels[:, :j])
        kappas = bloch_kappas(thetas[:, j], phis[:, j]) * fold
        labels[:, j], probs[:, j], kets = measure_pure_batch(kets, kappas, uniforms[:, j])
    finals = _final_states(kets, len(schedule.events) - m)
    per_trial = zip(thetas.tolist(), phis.tolist(), labels.tolist(), probs.tolist())
    traces = []
    for seed, final, rows in zip(seeds, finals, per_trial):
        measured = zip(*rows)  # (theta, phi, label, probability) of each measurement
        events = tuple(
            TraceEvent(step, "lose") if kind == "lose" else TraceEvent(step, "measure", *next(measured))
            for step, kind in enumerate(schedule.events)
        )
        traces.append(ExperimentTrace(seed, events, final))
    return traces


def run_trial(input_state: SymmetricKet, channel: PhaseChannel, policy: Policy,
              schedule: LossSchedule, seed: int) -> ExperimentTrace:
    """Execute one trial: run_trials on a block of one, the same as in any block."""
    return run_trials(input_state, channel, policy, schedule, [seed])[0]


def _forced_replay(input_state: SymmetricKet, measured: list, folds: np.ndarray):
    """Forced labels on G copies of the input, copy g through the channel diag(folds[g]).

    measured: ((theta, phi), label) of each measurement, in order.  Every
    detector is built and checked once; each step applies only its forced
    row, with copy g's channel folded in.  The kets are held phase-major, as
    kets[nu, g], so every elementwise loop runs over the G phases.  A
    branch's probability sums its float view down each column, one weight
    after another, and then adds the real and imaginary halves: the same
    order for any G, so copy g gets the same bits alone as in a batch.  A
    copy whose label falls below ZERO_PROB_EPS is left unrescaled, so no NaN
    reaches later steps.  Returns probs[G, m] and the final kets[G, n+1-m].
    """
    n, grid = input_state.n, len(folds)
    probs = np.empty((len(measured), grid))
    detectors = bloch_kappas(*np.reshape([angles for angles, _ in measured], (-1, 2)).T)
    require_pvm_rows(detectors)
    forced = detectors[np.arange(len(measured)), [label for _, label in measured]]
    rows = forced[:, :, None] * folds.T  # rows[j, b, g]: step j's row, copy g's channel folded in
    nus = np.arange(n)[:, None]
    # every step writes into these three buffers: a fresh (m, G) array per
    # operation made the allocator map and fault in new pages on most steps
    kets, branch, scratch = np.empty((3, n + 1, grid), dtype=complex)
    kets[:] = input_state.amps[:, None]
    for j, (row0, row1) in enumerate(rows):
        m = n - j  # kets[:m + 1] is live; split_last_qubit's weights scale its rows
        b, t = branch[:m], scratch[:m]
        np.multiply(kets[:m], np.sqrt((m - nus[:m]) / m), out=b)
        b *= row0
        np.multiply(kets[1:m + 1], np.sqrt((nus[:m] + 1) / m), out=t)
        t *= row1
        b += t
        x = b.view(float)  # (m, 2G): at least two columns, so summed row after row
        s = np.multiply(x, x, out=t.view(float)).sum(axis=0)
        p = probs[j] = s[0::2] + s[1::2]
        b *= 1.0 / np.sqrt(np.where(p >= ZERO_PROB_EPS, p, 1.0))
        kets, branch = branch, kets
    return probs.T, kets[:n + 1 - len(measured)].T


def evaluate_sequence(
    input_state: SymmetricKet, channel: PhaseChannel, steps: list
) -> tuple[list[float], SymmetricKet | SymmetricDensity]:
    """Replay a fixed event sequence and return each conditional probability.

    steps: ("lose",) or ("measure", (theta, phi), label), as in
    ExperimentTrace.steps().  The one-row case of _forced_replay: no sampling
    takes place, and a forced label below ZERO_PROB_EPS raises
    ZeroProbabilityError.  Losses are deferred as in run_trials.
    """
    measured = [step[1:] for step in steps if step[0] != "lose"]
    probs, kets = _forced_replay(input_state, measured, np.diagonal(channel.unitary())[None])
    if not (probs >= ZERO_PROB_EPS).all():
        raise ZeroProbabilityError(
            f"a forced label has probability {probs.min():.3e} below {ZERO_PROB_EPS}")
    return probs[0].tolist(), _final_states(kets, len(steps) - len(measured))[0]


def grid_log_likelihoods(
    input_state: SymmetricKet,
    trace: ExperimentTrace,
    grid_size: int = ESTIMATE_GRID,
) -> np.ndarray:
    """Log-likelihood of the trace's labels at each phase 2 pi g / grid_size.

    The grid_size-row case of _forced_replay, one row per candidate phase,
    skipping losses.  Logs are summed in step order; a row whose forced label
    falls below ZERO_PROB_EPS reads -inf.
    """
    phis = 2.0 * math.pi * np.arange(grid_size) / grid_size
    folds = np.stack([np.ones(grid_size), np.exp(1j * phis)], axis=-1)  # diag(1, e^{i phi})
    measured = [step[1:] for step in trace.steps() if step[0] == "measure"]
    probs, _ = _forced_replay(input_state, measured, folds)
    alive = probs >= ZERO_PROB_EPS
    logs = np.where(alive, np.log(np.where(alive, probs, 1.0)), -math.inf)
    return sum(logs.T, np.zeros(grid_size))


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


def _run_trial_block(parsed: dict, start: int, count: int, keep_traces: bool = False) -> list[dict]:
    """Trials start, ..., start + count - 1 of a parsed config, one run_trials call per block.

    A block holds as many trials as fit their (n+1, n+1) densities into
    BLOCK_BYTES, and at least one.
    """
    size = max(1, BLOCK_BYTES // (16 * (parsed["n"] + 1) ** 2))
    results = []
    for first in range(start, start + count, size):
        trial_ids = range(first, min(first + size, start + count))
        traces = run_trials(
            parsed["input"],
            parsed["channel"],
            parsed["policy"],
            parsed["schedule"],
            [parsed["seed"] + t for t in trial_ids],
        )
        for t, trace in zip(trial_ids, traces):
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

    Each worker takes a contiguous range of trials and runs it in blocks
    through run_trials; a trial's outcome depends on neither, so the report is
    the same for any worker count.  The report is a JSON-ready dict:
    per-outcome-sequence frequencies, and (when estimation is on) the
    phase-estimate distribution and the sharpness |<e^{i(phi_hat - phi)}>|
    over trials.  Identical (config, seed) give a
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
                pool.submit(_run_trial_block, parsed, s, c, want_traces) for s, c in blocks
            ]
            entries = [e for f in futures for e in f.result()]
        entries.sort(key=lambda e: e["trial"])
    else:
        entries = _run_trial_block(parsed, 0, trials, want_traces)

    if trace_sink is not None:
        for e in entries:
            trace_sink.write(json.dumps(e["trace"], sort_keys=True) + "\n")
    for e in entries:
        e.pop("trace", None)

    counts = Counter(e["labels"] for e in entries)
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
        dist = Counter(f"{e:.10f}" for e in estimates)
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


def _norm2(amps: list[complex]) -> float:
    """Squared norm of a list of complex amplitudes, summed with C-level maps."""
    return sum(map(mul, amps, map(complex.conjugate, amps))).real


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
    n; branches and norms are built with `map` over the weight tables, so the
    inner loops run in C while the kernel stays quadratic.  The running state
    is a plain list holding at most n+1 complex amplitudes; normalization is folded into the tracked squared norm and the
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
    norm2 = _norm2(psi)
    for m in range(n, 0, -1):
        off = n - m
        tail = psi[1:]
        b0 = list(map(add, map(mul, wa0[off:], psi), map(mul, wb0, tail)))
        raw0 = _norm2(b0)
        total = m * norm2
        p0 = raw0 / total
        if uniforms[off] < p0:
            outcomes.append(0)
            probs.append(p0)
            psi, norm2 = b0, raw0
        else:
            outcomes.append(1)
            probs.append(1.0 - p0)
            psi = list(map(add, map(mul, wa1[off:], psi), map(mul, wb1, tail)))
            norm2 = total - raw0
        if not 1e-120 < norm2 < 1e120:
            scale = 1.0 / math.sqrt(norm2)
            psi = [z * scale for z in psi]
            norm2 = 1.0
    return CascadeResult(outcomes, probs, state_entries)
