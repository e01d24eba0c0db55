"""Acceptance gate: every criterion at its stated tolerance.

Each test prints (and records for the terminal summary) one pass/fail line.
Parameters and tolerances are pinned here, not configurable.
"""

import math
import time

from conftest import record_acceptance
from dicke_sim.harness import run_ensemble
from dicke_sim.serialize import dumps_json
from dicke_sim.states import general_split, xi_coefficient
from dicke_sim.verify import (
    SuiteParams,
    check_basis_characterization,
    check_loss_independence,
    check_measurement_oracle,
    check_pure_state_sufficiency,
    check_residual_symmetry,
    check_xi_completeness,
)


def _record(number: int, passed: bool, detail: str) -> None:
    status = "PASS" if passed else "FAIL"
    record_acceptance(f"[{status}] criterion {number}: {detail}")


def test_criterion_1_worked_example_reproduction():
    coeffs = general_split(3, 1, 1)
    worst = max(
        abs(coeffs[0] - math.sqrt(2 / 3)),
        abs(coeffs[1] - math.sqrt(1 / 3)),
        abs(xi_coefficient(1, 3, 1, 1) - math.sqrt(1 / 3)),
        abs(xi_coefficient(1, 3, 0, 1) - math.sqrt(2 / 3)),
    )
    general_split(3, 1, 1)  # warm-up
    runtime = min(
        _timed(lambda: general_split(3, 1, 1)) for _ in range(5)
    )
    passed = worst <= 1e-15 and runtime < 1e-3
    _record(1, passed, f"worked example: worst dev {worst:.2e} (tol 1e-15), runtime {runtime*1e6:.0f} us (< 1 ms)")
    assert worst <= 1e-15
    assert runtime < 1e-3


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def test_criterion_2_measurement_oracle_equivalence():
    start = time.perf_counter()
    result = check_measurement_oracle(SuiteParams(max_n=10, seeds=50))
    elapsed = time.perf_counter() - start
    passed = result.passed and elapsed < 120.0
    _record(
        2,
        passed,
        f"oracle equivalence: {result.cases} cases, worst {result.worst_residual:.2e} "
        f"(tol 1e-10), {elapsed:.1f}s (< 120s)",
    )
    assert result.passed, result
    assert elapsed < 120.0


def test_criterion_3_loss_independence():
    result = check_loss_independence(SuiteParams(max_n=10, seeds=50))
    _record(
        3,
        result.passed,
        f"loss independence: {result.cases} cases, worst {result.worst_residual:.2e} (tol 1e-10)",
    )
    assert result.passed, result


def test_criterion_4_residual_symmetry():
    result = check_residual_symmetry(SuiteParams(max_n=8, seeds=50))
    _record(4, result.passed, f"residual symmetry: {result.cases} random cases at 1e-10; {result.note or 'all symmetric'}")
    assert result.passed, result


def test_criterion_5_basis_characterization():
    result = check_basis_characterization(SuiteParams(max_n=8, seeds=50))
    _record(
        5,
        result.passed,
        f"basis characterization: {result.cases} cases (50 symmetric at 1e-12, "
        f"100 non-symmetric with residual > 1e-6); worst {result.worst_residual:.2e}",
    )
    assert result.passed, result


def test_criterion_6_xi_completeness_and_support():
    result = check_xi_completeness(SuiteParams(max_n=30))
    _record(
        6,
        result.passed,
        f"xi completeness: all (k, nu) with n <= 30, worst {result.worst_residual:.2e} "
        f"(tol 1e-12), Theta support exactly zero",
    )
    assert result.passed, result


def test_criterion_7_pure_state_sufficiency():
    result = check_pure_state_sufficiency(SuiteParams(max_n=10, seeds=50))
    _record(
        7,
        result.passed,
        f"pure-state sufficiency: {result.cases} cases, worst fidelity defect "
        f"{result.worst_residual:.2e} (tol 1e-10)",
    )
    assert result.passed, result


def _timed_cascades(sizes=(512, 1024, 2048), repetitions=7, seed=20_260_808):
    """Interleaved rounds so scheduler noise hits every size equally."""
    import numpy as np
    import statistics
    from dicke_sim.harness import combined_pvm, run_pvm_cascade
    from dicke_sim.measure import pvm_from_bloch
    from dicke_sim.spec import PhaseChannel
    from dicke_sim.verify import random_symmetric_ket

    kappa = combined_pvm(PhaseChannel(0.7), pvm_from_bloch(math.pi / 2, 0.0)).kappa
    initials = {
        n: [complex(z) for z in random_symmetric_ket(n, np.random.default_rng(seed)).amps]
        for n in sizes
    }
    uniforms = {
        n: [np.random.default_rng(seed + r).random(n).tolist() for r in range(repetitions)]
        for n in sizes
    }
    entries = {}
    for n in sizes:  # warm-up
        entries[n] = run_pvm_cascade(n, kappa, initials[n], uniforms[n][0]).state_entries
    times = {n: [] for n in sizes}
    for r in range(repetitions):
        for n in sizes:
            start = time.perf_counter()
            run_pvm_cascade(n, kappa, initials[n], uniforms[n][r])
            times[n].append(time.perf_counter() - start)
    return {n: statistics.median(times[n]) for n in sizes}, entries


def test_criterion_8_scaling():
    # wall-clock measurement: allow one remeasure if scheduler noise distorts it
    for attempt in range(2):
        medians, entries = _timed_cascades()
        t512, t1024, t2048 = (medians[n] for n in (512, 1024, 2048))
        r1, r2 = t1024 / t512, t2048 / t1024
        if t2048 < 1.0 and 3.0 <= r1 <= 6.0 and 3.0 <= r2 <= 6.0:
            break
    entries_ok = all(entries[n] == n + 1 for n in entries)
    passed = t2048 < 1.0 and 3.0 <= r1 <= 6.0 and 3.0 <= r2 <= 6.0 and entries_ok
    _record(
        8,
        passed,
        f"scaling: t(2048) = {t2048*1000:.0f} ms (< 1000), ratios {r1:.2f}, {r2:.2f} "
        f"(within [3, 6]), state entries n+1: {entries_ok}",
    )
    assert t2048 < 1.0
    assert 3.0 <= r1 <= 6.0, (t512, t1024, t2048)
    assert 3.0 <= r2 <= 6.0, (t512, t1024, t2048)
    assert entries_ok


def test_warm_ml_estimate_at_n256():
    # ROADMAP item 2's bound: one warm estimate at n = 256 with 40 measurements in under 5 ms
    import numpy as np
    from dicke_sim.harness import ml_phase_estimate, run_trial
    from dicke_sim.spec import FeedbackPolicy, LossSchedule, PhaseChannel
    from dicke_sim.verify import random_symmetric_ket

    ket = random_symmetric_ket(256, np.random.default_rng(7))
    trace = run_trial(ket, PhaseChannel(0.7), FeedbackPolicy(0.9, 1.3, 0.2), LossSchedule.lossless(40), 5)
    ml_phase_estimate(ket, trace)  # warm-up: fills the (256, 40) split table
    runtime = min(_timed(lambda: ml_phase_estimate(ket, trace)) for _ in range(5))
    status = "PASS" if runtime < 5e-3 else "FAIL"
    record_acceptance(f"[{status}] ML estimate: one warm estimate at n = 256 with 40 measurements, "
                      f"{runtime*1e3:.2f} ms (< 5 ms)")
    assert runtime < 5e-3


def test_criterion_9_deterministic_reproducibility():
    config = {
        "input": {"type": "noon"},
        "n": 5,
        "phi": 0.77,
        "policy": {"type": "feedback", "delta": 0.5},
        "schedule": ["measure", "lose", "measure", "measure"],
        "trials": 12,
        "seed": 4242,
    }
    first = dumps_json(run_ensemble(config)).encode()
    second = dumps_json(run_ensemble(config)).encode()
    passed = first == second
    _record(9, passed, f"reproducibility: two consecutive runs byte-identical ({len(first)} bytes)")
    assert passed
