"""The golden corpus: named `simulate` configs and a seeded set of ML estimates, pinned by SHA-256.

golden_corpus.json holds the data.  Each entry of "configs" is a config
document with a worker count and the SHA-256 of its `dumps_json` report, of
its `--trace-out` text, and of that text as it read when a lossy line's final
state was its density (`density_lines`).  "ml_estimates" and
"ml_estimates_wide" each hold the recipe of a seeded set of traces
(`estimate_traces`), the SHA-256 of their `ml_phase_estimate` results and
how many of those read the stepwise grid because the joint probability's
maximum fell below e ZERO_PROB_EPS.  tests/test_golden_corpus.py
recomputes every digest.  A change that moves an output on purpose rewrites
them with

    PYTHONPATH=src python tests/golden_corpus.py

and lists each digest that moved, and why, in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from dicke_sim import harness
from dicke_sim.harness import ExperimentTrace, TraceEvent, run_ensemble, run_trials
from dicke_sim.serialize import dumps_json
from dicke_sim.spec import FeedbackPolicy, FixedPolicy, LossSchedule, PhaseChannel, RoundRobinPolicy
from dicke_sim.states import SymmetricKet, _final_states, basis_state, make_ket

CORPUS = Path(__file__).with_name("golden_corpus.json")


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def density_lines(text: str) -> str:
    """Trace text as it read when a lossy line's final state was its density.

    Each "ket_with_losses" final state {"amps", "lost", "n"} becomes
    {"alpha", "kind": "density", "n": n - lost}, alpha being
    _final_states(ket[None], lost)[0], and its line is written again as
    json.dumps(doc, sort_keys=True).  Other lines are left as they are.
    """
    lines = []
    for line in text.splitlines(keepends=True):
        doc = json.loads(line)
        final = doc["final_state"]
        if final["kind"] == "ket_with_losses":
            ket = np.array([complex(re, im) for re, im in final["amps"]])
            alpha = _final_states(ket[None], final["lost"])[0]
            doc["final_state"] = {"alpha": np.stack((alpha.real, alpha.imag), -1).tolist(),
                                  "kind": "density", "n": final["n"] - final["lost"]}
            line = json.dumps(doc, sort_keys=True) + "\n"
        lines.append(line)
    return "".join(lines)


def config_digests(entry: dict) -> dict:
    """The SHA-256 of the entry's report (dumps_json), of its trace-out text and of density_lines of it."""
    sink = io.StringIO()
    report = run_ensemble(entry["config"], workers=entry["workers"], trace_sink=sink)
    return {"report_sha256": _sha256(dumps_json(report)), "trace_sha256": _sha256(sink.getvalue()),
            "density_trace_sha256": _sha256(density_lines(sink.getvalue()))}


def _input(kind: int, n: int, rng) -> SymmetricKet:
    if kind == 0:
        return make_ket(n, rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1))
    if kind == 1:
        return make_ket(n, np.eye(n + 1)[0] + np.eye(n + 1)[n])  # NOON
    if kind == 2:
        return basis_state(n, int(rng.integers(0, n + 1)))  # Dicke
    return make_ket(n, np.ones(n + 1))


def _policy(kind: int, rng):
    a = [float(x) for x in rng.uniform(0.0, math.pi, 4)]
    return (FixedPolicy(a[0], a[1]), RoundRobinPolicy(((a[0], a[1]), (a[2], a[3]))),
            FeedbackPolicy(a[0], a[1], a[2]))[kind]


def _near_impossible(n: int, rng) -> tuple:
    """a|0..0> + b|1..1> with |a| < 0.8 |b|, and two labels 1 at detectors within 1e-7 of theta = 0 and pi.

    The second label's conditional stays below ZERO_PROB_EPS at every phase.
    """
    b = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    a = 0.8 * rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    ket = make_ket(n, a * np.eye(n + 1)[0] + b * np.eye(n + 1)[n])
    thetas = rng.uniform(0.0, 1e-7, 2) * [1.0, -1.0] + [0.0, math.pi]
    events = tuple(TraceEvent(j, "measure", float(theta), float(rng.uniform(0.0, 2.0 * math.pi)), 1, 0.0)
                   for j, theta in enumerate(thetas))
    return ket, ExperimentTrace(0, events, ket)


def estimate_traces(recipe: dict):
    """(input, trace) pairs from the recipe's seed, in a fixed order; a group the recipe does not name has none.

    "blocks" run_trials blocks of "block_trials" lossy trials each, n from 2
    to "max_n", over random, NOON, Dicke and uniform inputs and fixed,
    round-robin and feedback policies; "long" lossless feedback trials with n
    from 56 to 64 and at least 54 measurements, whose joint probability falls
    below e ZERO_PROB_EPS; and "near_impossible" two-label traces on n from 2
    to 8 (_near_impossible); and "wide" feedback trials with n from 100 to
    256 and 20 to 40 measurements, every other one with up to 20 losses
    mixed in, on random and uniform inputs: wide blocks of unmeasured qubits,
    above the floor.
    """
    seed = recipe["seed"]
    for i in range(recipe.get("blocks", 0)):
        rng = np.random.default_rng([seed, 0, i])
        n = int(rng.integers(2, recipe["max_n"] + 1))
        ket = _input(i % 4, n, rng)
        schedule = LossSchedule.random(int(rng.integers(0, n + 1)), 0.25, int(rng.integers(0, 2**31)))
        channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
        seeds = [int(s) for s in rng.integers(0, 2**31, recipe["block_trials"])]
        for trace in run_trials(ket, channel, _policy(i % 3, rng), schedule, seeds):
            yield ket, trace
    for i in range(recipe.get("long", 0)):
        rng = np.random.default_rng([seed, 1, i])
        n = int(rng.integers(56, 65))
        ket = _input(0, n, rng)
        schedule = LossSchedule.lossless(int(rng.integers(54, n + 1)))
        channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
        yield ket, run_trials(ket, channel, _policy(2, rng), schedule, [i])[0]
    for i in range(recipe.get("near_impossible", 0)):
        rng = np.random.default_rng([seed, 2, i])
        yield _near_impossible(int(rng.integers(2, 9)), rng)
    for i in range(recipe.get("wide", 0)):
        rng = np.random.default_rng([seed, 3, i])
        n, m = int(rng.integers(100, 257)), int(rng.integers(20, 41))
        ket = _input(3 * (i % 4 // 2), n, rng)
        events = ["measure"] * m + ["lose"] * (int(rng.integers(1, 21)) if i % 2 else 0)
        channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
        yield ket, run_trials(ket, channel, _policy(2, rng), LossSchedule(tuple(rng.permutation(events))), [i])[0]


def estimate_digest(recipe: dict) -> dict:
    """The SHA-256 of the recipe's estimates (repr, one a line) and how many read the grid."""
    fallbacks = []
    grid = harness.grid_log_likelihoods

    def counted(*args, **kwargs):
        fallbacks.append(1)
        return grid(*args, **kwargs)

    harness.grid_log_likelihoods = counted  # ml_phase_estimate reads it from the module
    try:
        estimates = [harness.ml_phase_estimate(ket, trace) for ket, trace in estimate_traces(recipe)]
    finally:
        harness.grid_log_likelihoods = grid
    return {"traces": len(estimates), "fallbacks": len(fallbacks),
            "sha256": _sha256("".join(f"{e!r}\n" for e in estimates))}


def load() -> dict:
    return json.loads(CORPUS.read_text(encoding="utf-8"))


def main() -> None:
    corpus = load()
    for entry in corpus["configs"]:
        entry.update(config_digests(entry))
    for group in ("ml_estimates", "ml_estimates_wide"):
        corpus[group].update(estimate_digest(corpus[group]["recipe"]))
    CORPUS.write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
