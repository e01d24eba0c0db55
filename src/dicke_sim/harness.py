"""Adaptive-measurement experiments on symmetric input states.

One qubit at a time passes through a fixed unitary phase channel and is
measured by a detector PVM chosen by a feedback policy; loss events may be
interleaved.  Trials are driven by explicit event schedules so that loss
transparency can be asserted deterministically, and every trial is
reproducible from its seed.

Losses are deferred: a loss changes no later measurement probability and a
partial trace commutes with a measurement on another qubit, so trials (through
`measure.pvm_branches`), forced replays and the likelihood measure the pure
ket at every step.  The final ket and the k losses fix the final density,
which only readers that ask for one trace out (`states._final_states`).

Trials run in blocks (`_trial_block`): the T kets of a block advance as one
(T, n+1) array, one policy step and one two-outcome draw per `measure` event,
and the block returns arrays: settings, labels and probabilities (T, m) and
the final kets (T, n+1-m).  `run_trials` wraps them as one ExperimentTrace
per trial with its final state.  An ensemble builds no density: its labels,
trace lines and estimator traces (with no final state) come from the arrays.
Its blocks are sized from the arrays a trial adds (`_trial_bytes`), within
BLOCK_BYTES; a trial's outcome does not depend on its block.  An ensemble
(`run_ensemble`) is one ordered list of blocks for any worker count.  Its
trace lines are written per block, in trial order, as soon as the block and
every block before it are done, so on an error the trace holds the lines of
the blocks finished before it.

Forced replays (`evaluate_sequence`) and the likelihood grid
(`grid_log_likelihoods`) share one loop, `_forced_replay`.  It and the ML
estimate's replay take each step's forced row from `_forced_rows` and step
with `measure.pvm_branches`, the kernel of trials and `measure_pure`, so a
replay of a trial's own labels gives back the trial's bits.

The ML estimate (`ml_phase_estimate`) needs no phase in its replay: the
channel diag(1, e^{i phi}) on every qubit multiplies |nu> by e^{i nu phi}, so
every amplitude of a forced branch is a polynomial in e^{i phi} with
phase-free coefficients.  `_joint_log_likelihoods` replays the trace once on
those coefficients and evaluates them at every grid phase with one FFT.  When
the best of those joint probabilities is below e ZERO_PROB_EPS, the estimate
reads the stepwise `grid_log_likelihoods` instead, which is also the referee.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from operator import add, mul

import numpy as np

from .errors import DomainError, ZeroProbabilityError
from .measure import (
    ZERO_PROB_EPS,
    SingleQubitPVM,
    bloch_kappas,
    measure_pure_batch,
    pvm_branches,
)
from .serialize import SCHEMA_VERSION, trace_lines
from .spec import ESTIMATE_GRID, LossSchedule, PhaseChannel, Policy, parse_config
from .states import SymmetricDensity, SymmetricKet, _final_states, require_kets

BLOCK_BYTES = 1 << 22  # memory budget of a trial block's arrays (_trial_bytes)
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
    final_state: SymmetricKet | SymmetricDensity | None  # None in the ensemble's estimator traces

    def outcome_labels(self) -> tuple[int, ...]:
        return tuple(ev.label for ev in self.events if ev.kind == "measure")

    def steps(self) -> list[tuple]:
        """The replay encoding of each event: ("measure", (theta, phi), label) or ("lose",)."""
        return [("lose",) if ev.kind == "lose" else ("measure", (ev.theta, ev.phi), ev.label)
                for ev in self.events]


def _as_state(final: np.ndarray) -> SymmetricKet | SymmetricDensity:
    """One row of _final_states as a SymmetricKet or SymmetricDensity."""
    n = final.shape[-1] - 1
    return SymmetricKet(n, final) if final.ndim == 1 else SymmetricDensity(n, final)


def _trial_block(input_state: SymmetricKet, channel: PhaseChannel, policy: Policy,
                 schedule: LossSchedule, seeds) -> tuple[np.ndarray, ...]:
    """run_trials' arithmetic, returning arrays instead of traces.

    Returns thetas, phis, labels and probs of shape (T, m), one column per
    measurement in schedule order, and the final kets (T, n+1-m), checked once
    (require_kets), before the losses: no density (_final_states) is built.
    """
    if len(schedule.events) > input_state.n:
        raise DomainError(
            f"schedule has {len(schedule.events)} events but only {input_state.n} qubits"
        )
    trials, m = len(seeds), schedule.measurement_count()
    uniforms = np.array([np.random.Generator(np.random.PCG64(s)).random(m) for s in seeds]).reshape(trials, m)
    fold = np.diagonal(channel.unitary())  # kappa @ U for the diagonal channel U
    kets = np.tile(input_state.amps, (trials, 1))
    labels = np.zeros((trials, m), dtype=int)
    thetas, phis, probs = np.zeros((3, trials, m))
    settings = None
    for j in range(m):  # the j-th measurement; losses wait for the end
        settings = thetas[:, j], phis[:, j] = policy.next_settings(labels[:, :j], settings)
        kappas = bloch_kappas(*settings)
        kappas *= fold
        labels[:, j], probs[:, j], kets = measure_pure_batch(kets, kappas, uniforms[:, j])
    require_kets(kets, "ket")
    return thetas, phis, labels, probs, kets


def _traces(schedule: LossSchedule, seeds, thetas, phis, labels, probs, finals):
    """A _trial_block's arrays as one ExperimentTrace per trial, lazily; a None final state stays None."""
    per_trial = zip(thetas.tolist(), phis.tolist(), labels.tolist(), probs.tolist())
    for seed, final, rows in zip(seeds, finals, per_trial):
        measured = zip(*rows)  # (theta, phi, label, probability) of each measurement
        events = tuple(
            TraceEvent(step, "lose") if kind == "lose" else TraceEvent(step, "measure", *next(measured))
            for step, kind in enumerate(schedule.events)
        )
        yield ExperimentTrace(seed, events, None if final is None else _as_state(final))


def run_trials(
    input_state: SymmetricKet,
    channel: PhaseChannel,
    policy: Policy,
    schedule: LossSchedule,
    seeds,
) -> list[ExperimentTrace]:
    """Execute one block of trials, one per seed, all at once.

    Trial t is deterministic for fixed (inputs, seeds[t]) and does not depend
    on the rest of the block.  Its uniforms come up front from PCG64(seeds[t]),
    default_rng's stream, one per measurement in schedule order.  The kets
    advance as one (T, n+1) array: each `measure` event steps the policy once
    from its previous settings, folds the channel into every trial's detector
    and takes one measure_pure_batch step; the final kets are checked once.  `lose`
    events are only recorded; the lost qubits are traced out of them once (_final_states).
    The block runs as arrays (_trial_block); only then is each trial wrapped
    as an ExperimentTrace with a SymmetricKet / SymmetricDensity final state.
    """
    *arrays, kets = _trial_block(input_state, channel, policy, schedule, seeds)
    return list(_traces(schedule, seeds, *arrays, _final_states(kets, schedule.events.count("lose"))))


def run_trial(input_state: SymmetricKet, channel: PhaseChannel, policy: Policy,
              schedule: LossSchedule, seed: int) -> ExperimentTrace:
    """Execute one trial: run_trials on a block of one, the same as in any block."""
    return run_trials(input_state, channel, policy, schedule, [seed])[0]


def _forced_rows(n: int, steps: list) -> np.ndarray:
    """The forced row kappa[label] of each measurement, as rows[m, 1, 2].

    steps: ("lose",) or ("measure", (theta, phi), label), as in
    ExperimentTrace.steps(); each consumes a qubit, but losses are skipped,
    since they are deferred.  Every detector is built once.  The (1, 2) row
    is a one-label PVM for pvm_branches, which then forms the forced branch alone.
    """
    if len(steps) > n:
        raise DomainError(f"{len(steps)} events but only {n} qubits")
    measured = [step[1:] for step in steps if step[0] != "lose"]
    detectors = bloch_kappas(*np.reshape([angles for angles, _ in measured], (-1, 2)).T)
    return detectors[np.arange(len(measured)), [label for _, label in measured], None]


def _forced_replay(input_state: SymmetricKet, steps: list, phases: np.ndarray):
    """Forced labels on G copies of the input, copy g through the channel diag(1, phases[g]).

    steps as in _forced_rows.  The G kets advance as one (G, n+1) array, one
    pvm_branches call per measurement, with copy g's channel folded into the
    forced row as _trial_block folds it into the detector; a branch's
    probability and its renormalization are measure_pure_batch's.  So a copy
    replaying a trial's labels at the trial's phase gets the trial's bits,
    and copy g gets the same bits alone as in a batch.  A copy whose label
    falls below ZERO_PROB_EPS is left unrescaled, so no NaN reaches later
    steps.  Returns probs[G, m] and the final kets[G, n+1-m].
    """
    folds = np.stack([np.ones_like(phases), phases], axis=-1)[:, None]  # diag(1, phases[g]) as (G, 1, 2)
    kets = np.tile(input_state.amps, (len(phases), 1))
    probs = []
    for row in _forced_rows(input_state.n, steps):
        branch = pvm_branches(kets, row * folds)[:, 0]
        p = (branch.real**2 + branch.imag**2).sum(axis=-1)
        probs.append(p)
        kets = branch / np.sqrt(np.where(p >= ZERO_PROB_EPS, p, 1.0))[:, None]
    return np.reshape(probs, (-1, len(phases))).T, kets


def evaluate_sequence(
    input_state: SymmetricKet, channel: PhaseChannel, steps: list
) -> tuple[list[float], SymmetricKet | SymmetricDensity]:
    """Replay a fixed event sequence and return each conditional probability.

    steps: ("lose",) or ("measure", (theta, phi), label), as in
    ExperimentTrace.steps().  The one-row case of _forced_replay: no sampling
    takes place, and a forced label below ZERO_PROB_EPS raises
    ZeroProbabilityError.  Losses are deferred as in run_trials.
    """
    probs, kets = _forced_replay(input_state, steps, np.diagonal(channel.unitary())[1:])
    if not (probs >= ZERO_PROB_EPS).all():
        raise ZeroProbabilityError(
            f"a forced label has probability {probs.min():.3e} below {ZERO_PROB_EPS}")
    return probs[0].tolist(), _as_state(_final_states(kets, len(steps) - probs.shape[1])[0])


def _require_grid_size(grid_size) -> None:
    if isinstance(grid_size, bool) or not isinstance(grid_size, (int, np.integer)) or grid_size < 1:
        raise DomainError(f"grid_size must be an int >= 1, got {grid_size!r}")


def grid_log_likelihoods(
    input_state: SymmetricKet,
    trace: ExperimentTrace,
    grid_size: int = ESTIMATE_GRID,
) -> np.ndarray:
    """Log-likelihood of the trace's labels at each phase 2 pi g / grid_size.

    The grid_size-row case of _forced_replay, one row per candidate phase,
    skipping losses.  Logs are summed in step order; a row whose forced label
    falls below ZERO_PROB_EPS reads -inf.  This is the referee of
    _joint_log_likelihoods and ml_phase_estimate's fallback.
    """
    _require_grid_size(grid_size)
    phis = 2.0 * math.pi * np.arange(grid_size) / grid_size
    probs, _ = _forced_replay(input_state, trace.steps(), np.exp(1j * phis))
    alive = probs >= ZERO_PROB_EPS
    logs = np.where(alive, np.log(np.where(alive, probs, 1.0)), -math.inf)
    return sum(logs.T, np.zeros(grid_size))


def _joint_log_likelihoods(input_state: SymmetricKet, steps: list, grid_size: int) -> np.ndarray:
    """log P(g), the joint probability of the forced labels at each phase 2 pi g / grid_size.

    diag(1, z) on every qubit, z = e^{i phi}, multiplies psi_nu by z^nu, so
    each amplitude of the forced branch is a polynomial in z.  The replay runs
    once, with no phase, on its coefficients C[k, nu'] (power z^k, amplitude
    of |nu'>), one pvm_branches call with the forced row per measurement.  The
    rows fold mod grid_size, since z^grid_size = 1 at every grid phase.  Each
    step applies the forced row without renormalizing, so
    sum_nu' |sum_k C[k, nu'] z_g^k|^2 is the joint probability P(g), and one
    inverse FFT over k evaluates it at every grid phase.  By Parseval over the
    grid, sum |C|^2 = mean_g P(g) <= 1, so C needs no rescaling; a row with
    P(g) = 0 reads -inf.  ml_phase_estimate decides whether P(g) can stand
    for the stepwise likelihood.
    """
    n = input_state.n
    nus = np.arange(n + 1)
    coeffs = np.zeros((min(n + 1, grid_size), n + 1), dtype=complex)
    coeffs[nus % len(coeffs), nus] = input_state.amps
    for row in _forced_rows(n, steps):
        coeffs = pvm_branches(coeffs, row)[:, 0]
    amps = np.fft.ifft(coeffs, grid_size, axis=0, norm="forward")  # amps[g, nu'] = sum_k C z_g^k
    probs = (amps.real**2 + amps.imag**2).sum(axis=1)
    logs = np.full(grid_size, -math.inf)
    np.log(probs, out=logs, where=probs > 0.0)
    return logs


def ml_phase_estimate(
    input_state: SymmetricKet,
    trace: ExperimentTrace,
    grid_size: int = ESTIMATE_GRID,
) -> float:
    """Maximum-likelihood phase over a uniform grid of candidate phases.

    The log-likelihoods are the joint ones of _joint_log_likelihoods when
    their maximum is at least log(e ZERO_PROB_EPS).  Each conditional p_j is
    at least the joint P(g), so then no row near the maximum has a forced
    label below ZERO_PROB_EPS, and the joint log equals the stepwise sum of
    logs there.  Below that floor (about 45 or more measurements) they come
    from the stepwise grid_log_likelihoods, which reads -inf for such a row.
    Ties resolve to the smallest grid point within TIE_TOL of the maximum
    log-likelihood, so a flat likelihood (Dicke inputs, NOON with fewer than
    n measurements) gives 0.0 and exact ties (NOON with n measurements) give
    the smallest maximum, whatever the rounding.  All points impossible: 0.0.
    """
    _require_grid_size(grid_size)
    ll = _joint_log_likelihoods(input_state, trace.steps(), grid_size)
    if ll.max() < math.log(ZERO_PROB_EPS) + 1.0:
        ll = grid_log_likelihoods(input_state, trace, grid_size)
    g = int(np.argmax(ll >= ll.max() - TIE_TOL))  # all -inf: every point ties, g = 0
    return 2.0 * math.pi * g / grid_size


def _ordered_map(fn, workers: int, tasks: list):
    """fn over tasks, lazily and in order, in at most `workers` processes.

    The processes number min(workers, len(tasks), os.cpu_count() or 1):
    under the fork start method a pool launches all of them at the first
    submit, and processes beyond the tasks or the CPUs would only wait.  At
    one process this is builtin map, above it ProcessPoolExecutor.map; either
    way a result is yielded as soon as it and every result before it are done.
    """
    processes = min(workers, len(tasks), os.cpu_count() or 1)
    if processes <= 1:
        yield from map(fn, tasks)
        return
    from concurrent.futures import ProcessPoolExecutor  # here, so that no CLI start pays for it

    with ProcessPoolExecutor(max_workers=processes) as pool:
        yield from pool.map(fn, tasks)


def _run_trial_block(parsed: dict, trial_ids: range, keep_traces: bool):
    """Trials trial_ids of a parsed config in one _trial_block call.

    Returns their outcome labels, their phase estimates (none when estimation
    is off) and their trace lines (none unless keep_traces), in trial order.
    The block stays arrays: only the estimator gets ExperimentTraces, one at a time, with no final state.
    """
    seeds = [parsed["seed"] + t for t in trial_ids]
    block = _trial_block(parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"], seeds)
    labels = ["".join(map(str, row)) for row in block[2].tolist()]
    estimates = []
    if parsed["estimate"]:
        estimates = [ml_phase_estimate(parsed["input"], trace)
                     for trace in _traces(parsed["schedule"], seeds, *block[:4], [None] * len(seeds))]
    lines = trace_lines(trial_ids, seeds, parsed["schedule"].events, *block) if keep_traces else []
    return labels, estimates, lines


def _trial_bytes(n: int, m: int, keep_traces: bool) -> int:
    """About the bytes a trial adds to a block: its (n+1) ket and (2, n) branches, 5 m floats, its line."""
    text = 160 * (2 * n + 2 + m) if keep_traces else 0  # its 3 m + 2 (n + 1 - m) floats; 106 to 149 measured
    return 48 * n + 16 + 40 * m + text


def run_ensemble(config: dict, workers: int = 1, trace_sink=None) -> dict:
    """Run `trials` independent trials with seeds base, base+1, ...

    The trials run as one ordered list of blocks (_run_trial_block) over
    `workers` processes.  A block holds as many trials as fit the arrays they
    build (_trial_bytes) into BLOCK_BYTES, at most ceil(trials / workers), at
    least one.  A trial's outcome does not depend on its block, so the report
    is the same for any worker count.  The report is a JSON-ready dict:
    per-outcome-sequence frequencies, and (when estimation is on) the
    phase-estimate distribution and the sharpness |<e^{i(phi_hat - phi)}>|
    over trials.  Identical (config, seed) give a byte-identical report.
    trace_sink, if given, receives one JSON line per trial
    (serialize.trace_lines), in trial order, written as soon as the block and
    every block before it are done: on an error it holds the lines of those
    blocks.
    """
    parsed = parse_config(config)
    trials = parsed["trials"]
    if workers < 1:
        raise DomainError(f"workers must be >= 1, got {workers}")
    per_trial = _trial_bytes(parsed["n"], parsed["schedule"].measurement_count(), trace_sink is not None)
    size = max(1, min(BLOCK_BYTES // per_trial, -(-trials // workers)))
    blocks = [range(s, min(s + size, trials)) for s in range(0, trials, size)]
    counts: Counter = Counter()
    estimates: list[float] = []
    block_results = partial(_run_trial_block, parsed, keep_traces=trace_sink is not None)
    for labels, phi_hats, lines in _ordered_map(block_results, workers, blocks):
        counts.update(labels)
        estimates += phi_hats
        if trace_sink is not None:
            trace_sink.writelines(lines)

    report = {
        "schema_version": SCHEMA_VERSION,
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
