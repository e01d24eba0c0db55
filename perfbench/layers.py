"""Per-layer metrics from a traced run.

Counts and `.self_s` times are per unit of work: per trial on the ensemble
workloads, per pass over the three sizes on `cascade`, per suite on
`oracle-verify`.  `.ms`, `.self_ms` and `.self_us` times are per call.  A
metric of a layer that the workload does not reach reads 0.

Rows that a workload times itself (each verify property, each cascade size)
and the estimator's time come from the untraced half, so they carry no
tracing overhead.  Self times and call counts need spans and come from the
traced half.
"""

from __future__ import annotations

import statistics

import reference
import workloads
from tracing import LAYERS

ORACLE_FUNCTIONS = ("expand", "expand_density", "apply_kraus_at", "apply_kraus_outcomes_at",
                    "partial_trace", "apply_permutation", "compress")
MEASURE_FUNCTIONS = ("measure_pure", "measure_mixed", "lose_qubit")
ESTIMATOR = "harness.ml_phase_estimate"


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def _per(total: float, count: int) -> float:
    return total / count if count else 0.0


def per_layer_metrics(workload: str, tracer, plain: list, traced: list,
                      estimator_s: list[float]) -> tuple[dict, list[str]]:
    """`estimator_s` holds the durations of the estimator calls in the untraced half."""
    st = tracer.stats()
    units = sum(r.units for r in traced)
    # an ensemble repetition's headline is its time per trial, so this is its run time
    plain_run_s = sum(r.headline_s * r.units for r in plain)
    m: dict[str, float] = {}

    for layer in LAYERS:
        m[f"{layer}.calls"] = st.layer_calls(layer) / units
        m[f"{layer}.self_s"] = st.layer_self_s(layer) / units

    calls = st.calls("harness.run_trial")
    m["harness.run_trial.calls"] = calls / units
    m["harness.run_trial.self_ms"] = _per(st.self_s("harness.run_trial"), calls) * 1e3
    estimates = st.calls(ESTIMATOR)
    m["harness.ml_phase_estimate.calls"] = estimates / units
    m["harness.ml_phase_estimate.ms"] = _per(sum(estimator_s), len(estimator_s)) * 1e3
    m["harness.ml_phase_estimate.share_pct"] = _per(sum(estimator_s), plain_run_s) * 100.0
    m["harness.evaluate_sequence.calls_per_estimate"] = _per(
        st.calls_under("harness.evaluate_sequence", ESTIMATOR), estimates
    )
    m["harness.trace_bytes_per_trial"] = sum(r.work.get("trace_bytes", 0) for r in traced) / units

    sizes = workloads.CASCADE_SIZES
    s = {n: _median(r.work["size_s"][n] for r in plain if "size_s" in r.work) for n in sizes}
    for n in sizes:
        m[f"harness.run_pvm_cascade.s_{n}"] = s[n]
    m["harness.run_pvm_cascade.ratio_1024_512"] = _per(s[1024], s[512])
    m["harness.run_pvm_cascade.ratio_2048_1024"] = _per(s[2048], s[1024])
    madds = sum(r.work.get("madds", 0) for r in plain)
    # size_s holds per-cascade times and each size runs twice per repetition
    cascade_s = sum(2.0 * sum(r.work["size_s"].values()) for r in plain if "size_s" in r.work)
    m["harness.run_pvm_cascade.madds_per_s"] = _per(madds, cascade_s)

    for fn in MEASURE_FUNCTIONS:
        name = f"measure.{fn}"
        m[f"{name}.calls"] = st.calls(name) / units
        m[f"{name}.self_us"] = _per(st.self_s(name), st.calls(name)) * 1e6
    m["measure.sample_outcome.calls"] = st.calls("measure.sample_outcome") / units
    used = st.calls("measure.MeasurementOutcome.require_post_state")
    m["measure.branches_kept_ratio"] = _per(used, tracer.posts_built)
    m["measure.SingleQubitPVM.builds"] = st.calls("measure.SingleQubitPVM") / units
    m["states.SymmetricKet.builds"] = st.calls("states.SymmetricKet") / units
    m["states.SymmetricDensity.builds"] = st.calls("states.SymmetricDensity") / units
    m["states.general_split.self_s"] = st.self_s("states.general_split") / units
    m["serialize.dumps_json.self_s"] = st.self_s("serialize.dumps_json") / units

    for fn in ORACLE_FUNCTIONS:
        name = f"oracle.{fn}"
        m[f"{name}.calls"] = st.calls(name) / units
        m[f"{name}.self_s"] = st.self_s(name) / units
    for prop in workloads.PROPERTIES:
        m[f"verify.{prop}.s"] = _median(
            r.work["property_s"][prop] for r in plain if prop in r.work.get("property_s", {})
        )

    plain_op = _median(reference.scaled(r.headline_s, r.kernel_s) for r in plain)
    traced_op = _median(reference.scaled(r.headline_s, r.kernel_s) for r in traced)
    m["trace.overhead_pct"] = (traced_op / plain_op - 1.0) * 100.0
    m["trace.spans_per_unit"] = tracer.span_count() / units
    return m, structure_notes(workload, m)


def structure_notes(workload: str, m: dict) -> list[str]:
    """How the seed code is built; a later change may alter this on purpose.

    These lines describe, they do not decide `correct`.
    """
    expected = []
    if workload == "adaptive-estimate":
        share = m["harness.ml_phase_estimate.share_pct"]
        per = m["harness.evaluate_sequence.calls_per_estimate"]
        expected = [
            (share >= 95.0, f"ml_phase_estimate with its children is {share:.2f} % of the run (>= 95)"),
            (per == 1024, f"evaluate_sequence calls per estimate: {per:g} (== 1024)"),
        ]
    elif workload == "lossy-ensemble":
        calls = m["harness.ml_phase_estimate.calls"]
        expected = [(calls == 0, f"ml_phase_estimate calls per trial: {calls:g} (== 0)")]
    return [f"structure {'as at seed' if ok else 'CHANGED'}: {text}" for ok, text in expected]
