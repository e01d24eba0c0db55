"""The four benchmark workloads: inputs from a seed, one repetition, output checks.

Each workload builds its inputs from the seed alone and runs one repetition
of its work with `run()`.  An operation is one trial, one cascade or one
verify property.  The first repetition of a run, the untimed `warmup()`, is
the reference: its outputs get the full checks.  Timed repetitions keep only
a digest of their outputs, which must equal the reference's, so memory does
not grow with the number of repetitions.

Program calls go through module attributes (`harness.run_ensemble`, not a
name imported into this file), so the tracer's wrappers see them.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from dicke_sim import harness, measure, serialize, states, verify
from dicke_sim.errors import DomainError

from tracing import Patches

PROB_TOL = 1e-10  # recorded label probability vs forced replay
LL_TOL = 1e-9  # log-likelihood slack of the grid-maximum check
PHI = 1.1  # true phase of both ensemble workloads
CASCADE_SIZES = (512, 1024, 2048)
CASCADE_REPLAY_STEPS = 64  # leading cascade steps replayed with measure_pure at n = 512
PROPERTIES = (  # the verify suite as it stood when the benchmark was defined
    "worked_example_split",
    "xi_completeness_and_support",
    "split_reconstruction",
    "basis_characterization",
    "residual_symmetry_after_channels",
    "measurement_oracle_equivalence",
    "loss_independence",
    "pure_state_sufficiency",
    "ordering_independence",
    "trace_povm_commutation",
    "loss_mechanism_irrelevance",
    "permutation_group_law",
    "pvm_update_specialization",
)


@dataclass
class Rep:
    """One repetition: its headline time, its operation count and an output digest."""

    headline_s: float  # one trial, the n = 2048 cascade, or the whole suite
    ops: int  # operations attempted
    units: int  # trials, cascade passes or suites: the per-layer denominator
    digest: object  # equal to the warm-up's when the outputs are
    work: dict = field(default_factory=dict)  # counts and times for per-layer rows
    kernel_s: float = math.nan  # the reference kernel's time beside it (reference.py)


def _digest(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()


class Workload:
    """A repetition whose outputs must match the warm-up's, op for op."""

    def _execute(self) -> tuple[Rep, object]:
        raise NotImplementedError

    def output_digest(self, outputs) -> object:
        raise NotImplementedError

    def failures(self, outputs) -> int:
        raise NotImplementedError

    def run(self) -> Rep:
        return self._execute()[0]

    def warmup(self) -> tuple[Rep, object]:
        return self._execute()

    def failed_ops(self, outputs, reps: list[Rep]) -> int:
        """Failed ops of the reference, for each repetition that matches it; all ops otherwise."""
        reference = self.output_digest(outputs)
        bad = self.failures(outputs)
        return sum(bad if r.digest == reference else r.ops for r in reps)


def _random_amps(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)


def _report_failure(what: str) -> None:
    print(f"operation failed: {what}", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


# --- ensembles -------------------------------------------------------------------


class Ensemble(Workload):
    """`run_ensemble` plus `dumps_json`, traces written to an in-memory sink."""

    def __init__(self, seed: int, n: int, schedule: list[str], estimate: bool, trials: int):
        rng = np.random.default_rng(seed)
        amps = _random_amps(rng, n)
        self.ket = states.make_ket(n, amps)
        self.trials = trials
        self.config = {
            "input": {"type": "custom", "amps": [[z.real, z.imag] for z in amps.tolist()]},
            "n": n,
            "phi": PHI,
            "policy": {"type": "feedback", "delta": 0.8},
            "schedule": schedule,
            "trials": trials,
            "seed": int(rng.integers(0, 2**31)),
            "estimate": estimate,
        }

    def _execute(self) -> tuple[Rep, tuple]:
        sink = io.StringIO()
        start = time.perf_counter()
        try:
            report = harness.run_ensemble(self.config, workers=1, trace_sink=sink)
            text = serialize.dumps_json(report)
        except Exception:
            _report_failure("run_ensemble")
            text = None
        elapsed = time.perf_counter() - start
        traces = sink.getvalue()
        rep = Rep(elapsed / self.trials, self.trials, self.trials,
                  self.output_digest((text, traces)), {"trace_bytes": len(traces.encode())})
        return rep, (text, traces, {})

    def output_digest(self, outputs) -> str:
        return _digest(outputs[0], outputs[1])

    def warmup(self) -> tuple[Rep, tuple]:
        """One untimed repetition that also records each trial's phi_hat."""
        estimates: dict[int, float] = {}
        original = harness.ml_phase_estimate

        def recording(input_state, trace, *args, **kwargs):
            phi_hat = original(input_state, trace, *args, **kwargs)
            estimates[trace.seed] = phi_hat
            return phi_hat

        patches = Patches()
        patches.replace_everywhere(original, recording)
        try:
            rep, (text, traces, _) = self._execute()
        finally:
            patches.restore()
        return rep, (text, traces, estimates)

    def failures(self, outputs) -> int:
        return len(self.check_outputs(*outputs))

    def check_outputs(self, text, traces: str, estimates: dict) -> set[int]:
        """Indices of trials whose outputs fail a check (all of them on a global failure)."""
        everyone = set(range(self.trials))
        if text is None:
            return everyone
        report = json.loads(text)
        sequences = report["outcome_sequences"]
        docs = [json.loads(line) for line in traces.splitlines()]
        if (
            abs(sum(s["frequency"] for s in sequences.values()) - 1.0) > 1e-12
            or sum(s["count"] for s in sequences.values()) != self.trials
            or len(docs) != self.trials
            or Counter(_labels(d) for d in docs) != {k: s["count"] for k, s in sequences.items()}
        ):
            return everyone
        bad = {d["trial"] for d in docs if not self.trace_replays(d)}
        if self.config["estimate"]:
            grid = report["estimation"]["grid_size"]
            histogram = Counter(f"{estimates.get(d['seed'], math.nan):.10f}" for d in docs)
            if histogram != report["estimation"]["estimate_distribution"]:
                return everyone
            bad |= {
                d["trial"]
                for d in docs
                if not self.estimate_is_grid_max(d, estimates.get(d["seed"]), grid)
            }
        return bad

    def trace_replays(self, doc: dict) -> bool:
        """Each recorded label probability equals a forced evaluate_sequence replay."""
        recorded = [ev["probability"] for ev in doc["events"] if ev["kind"] == "measure"]
        try:
            probs, _ = harness.evaluate_sequence(self.ket, harness.PhaseChannel(PHI), _steps(doc))
        except DomainError:
            return False
        return len(probs) == len(recorded) and all(
            abs(p - q) <= PROB_TOL for p, q in zip(probs, recorded)
        )

    def estimate_is_grid_max(self, doc: dict, phi_hat, grid: int) -> bool:
        """phi_hat is a grid point whose log-likelihood is not beaten by its two
        neighbours, nor by the two grid points that bracket the true phase.

        The true phase itself is off the grid, so its own likelihood may exceed
        every grid point's; the bracketing points are what a grid maximum must beat.
        """
        if phi_hat is None:
            return False
        g = round(phi_hat * grid / (2.0 * math.pi))
        if not 0 <= g < grid or abs(phi_hat - 2.0 * math.pi * g / grid) > 1e-12:
            return False
        steps = _steps(doc)
        best = self.log_likelihood(steps, phi_hat)
        below = math.floor(PHI * grid / (2.0 * math.pi))
        rivals = {(g - 1) % grid, (g + 1) % grid, below % grid, (below + 1) % grid}
        return all(
            best >= self.log_likelihood(steps, 2.0 * math.pi * r / grid) - LL_TOL for r in rivals
        )

    def log_likelihood(self, steps: list, phi: float) -> float:
        try:
            probs, _ = harness.evaluate_sequence(self.ket, harness.PhaseChannel(phi), steps)
        except DomainError:
            return -math.inf
        if any(p <= 0.0 for p in probs):
            return -math.inf
        return sum(math.log(p) for p in probs)


def _labels(doc: dict) -> str:
    return "".join(str(ev["label"]) for ev in doc["events"] if ev["kind"] == "measure")


def _steps(doc: dict) -> list:
    return [
        ("lose",) if ev["kind"] == "lose" else ("measure", (ev["theta"], ev["phi"]), ev["label"])
        for ev in doc["events"]
    ]


def tamper_first_probability(traces: str, delta: float = 1e-6) -> str:
    """Negative control: shift the first recorded label probability by `delta`."""
    lines = traces.splitlines()
    doc = json.loads(lines[0])
    first = next(ev for ev in doc["events"] if ev["kind"] == "measure")
    first["probability"] += delta
    lines[0] = json.dumps(doc, sort_keys=True)
    return "\n".join(lines) + "\n"


# --- cascade ---------------------------------------------------------------------


class Cascade(Workload):
    """`run_pvm_cascade` at n = 512, 1024, 2048 with the `cli.bench_compact` PVM.

    The kernel builds the second branch only when outcome 1 is drawn, and a
    random ket settles on one outcome for most of its steps, so one ket's cost
    depends on the seed by up to 1.6x.  Each size therefore runs a balanced
    pair: the seed's ket with uniforms u, and its image under Z on every qubit
    (amplitude nu times (-1)^nu) with uniforms 1 - u.  Z swaps the two
    equatorial outcomes, so the pair draws complementary outcomes and does the
    same work for every seed.  Times are per cascade, the mean of the pair.
    """

    def __init__(self, seed: int):
        rng = np.random.default_rng(seed)
        detector = measure.pvm_from_bloch(math.pi / 2.0, 0.0)
        self.kappa = harness.combined_pvm(harness.PhaseChannel(0.7), detector).kappa
        self.cases = []  # (n, amplitudes, uniforms), two per size
        for n in CASCADE_SIZES:
            amps = _random_amps(rng, n)
            amps /= np.linalg.norm(amps)
            uniforms = rng.random(n)
            mirrored = amps * (-1.0) ** np.arange(n + 1)
            self.cases.append((n, amps.tolist(), uniforms.tolist()))
            self.cases.append((n, mirrored.tolist(), (1.0 - uniforms).tolist()))

    def _execute(self) -> tuple[Rep, list]:
        results, times = [], dict.fromkeys(CASCADE_SIZES, 0.0)
        for n, amps, uniforms in self.cases:
            start = time.perf_counter()
            try:
                results.append(harness.run_pvm_cascade(n, self.kappa, amps, uniforms))
            except Exception:
                _report_failure(f"run_pvm_cascade(n={n})")
                results.append(None)
            times[n] += (time.perf_counter() - start) / 2.0
        madds = sum(self.madds(case[0], res.outcomes)
                    for case, res in zip(self.cases, results) if res is not None)
        rep = Rep(times[CASCADE_SIZES[-1]], len(self.cases), 1, self.output_digest(results),
                  {"madds": madds, "size_s": times})
        return rep, results

    def output_digest(self, results) -> str:
        return _digest([None if r is None else (r.outcomes, r.probabilities, r.state_entries)
                        for r in results])

    def failures(self, results) -> int:
        return sum(not self.result_ok(case, res) for case, res in zip(self.cases, results))

    def result_ok(self, case, res) -> bool:
        n, amps, _ = case
        if res is None or res.state_entries != n + 1 or len(res.outcomes) != n:
            return False
        if not all(0.0 < p <= 1.0 for p in res.probabilities):
            return False
        if n != CASCADE_SIZES[0]:
            return True
        ket = states.make_ket(n, np.array(amps))
        pvm = measure.SingleQubitPVM(self.kappa)
        for label, p in list(zip(res.outcomes, res.probabilities))[:CASCADE_REPLAY_STEPS]:
            chosen = measure.measure_pure(ket, pvm)[label]
            if abs(chosen.probability - p) > PROB_TOL:
                return False
            ket = chosen.require_post_state()
        return True

    @staticmethod
    def madds(n: int, outcomes: list[int]) -> int:
        """Complex multiply-adds the kernel performs, computed from n and the outcomes.

        Step m builds branch 0 from m pairs (2 madds each) and branch 1 only
        when outcome 1 is drawn.
        """
        return sum(2 * m * (1 + b) for m, b in zip(range(n, 0, -1), outcomes))


# --- verify ----------------------------------------------------------------------


class OracleVerify(Workload):
    """The fixed property list, each run by name with `SuiteParams` defaults.

    `SuiteParams` carries its own seeds, so the workload seed changes nothing
    here.  The digest of a repetition is the tuple of properties that did not
    pass.
    """

    def __init__(self, params=None, names=PROPERTIES):
        self.params = params if params is not None else verify.SuiteParams()
        self.order = tuple(names)

    def _execute(self) -> tuple[Rep, tuple]:
        passed, times = {}, {}
        for name in self.order:
            start = time.perf_counter()
            try:
                passed[name] = verify.PROPERTY_BUILDERS[name](self.params).passed is True
            except Exception:
                _report_failure(f"verify property {name}")
                passed[name] = False
            times[name] = time.perf_counter() - start
        failing = tuple(name for name in self.order if not passed[name])
        rep = Rep(sum(times.values()), len(self.order), 1, failing, {"property_s": times})
        return rep, failing

    def failed_ops(self, outputs, reps: list[Rep]) -> int:
        return sum(len(r.digest) for r in reps)


# --- registry ----------------------------------------------------------------------

LOSSY_SCHEDULE = ["measure", "measure", "measure", "lose"] * 12
ADAPTIVE_SCHEDULE = ["measure", "measure", "lose", "measure", "measure", "measure",
                     "lose", "measure", "measure", "measure"]

WORKLOADS = {
    "lossy-ensemble": lambda seed, smoke: (
        Ensemble(seed, 8, LOSSY_SCHEDULE[:8], False, 4) if smoke
        else Ensemble(seed, 64, LOSSY_SCHEDULE, False, 30)
    ),
    "adaptive-estimate": lambda seed, smoke: (
        Ensemble(seed, 4, ["measure", "lose", "measure"], True, 2) if smoke
        else Ensemble(seed, 12, ADAPTIVE_SCHEDULE, True, 1)
    ),
    "cascade": lambda seed, smoke: Cascade(seed),
    "oracle-verify": lambda seed, smoke: OracleVerify(
        verify.SuiteParams(max_n=3, seeds=2) if smoke else None
    ),
}


def build(name: str, seed: int, smoke: bool = False):
    return WORKLOADS[name](seed, smoke)
