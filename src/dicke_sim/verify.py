"""Property suite cross-checking the compact modules against the dense oracle.

Each property draws randomized cases, records its worst residual, and passes
iff that residual stays within the property's tolerance.  The CLI `verify`
subcommand runs the whole suite and emits a JSON report; the acceptance tests
call the same functions with their pinned parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial

import numpy as np

from .errors import (DickeSimError, DomainError, NotSymmetricError, ResourceLimitError,
                     ZeroProbabilityError)
from .harness import (TIE_TOL, ExperimentTrace, TraceEvent, _ordered_map, _trial_block, combined_pvm,
                      evaluate_sequence, grid_log_likelihoods, ml_phase_estimate, run_trial, run_trials)
from .measure import (
    ZERO_PROB_EPS,
    SingleQubitKraus,
    SingleQubitPVM,
    lose_qubit,
    measure_mixed,
    measure_pure,
    measure_state,
    pvm_from_bloch,
)
from .oracle import (
    DenseDensity,
    DenseKet,
    Permutation,
    _sandwich_at,
    apply_kraus_at,
    apply_kraus_outcomes_at,
    apply_matrix_at_ket,
    apply_permutation,
    compress,
    density_cap,
    expand,
    expand_density,
    is_symmetric_over,
    partial_trace,
    partial_trace_raw,
)
from .serialize import trace_lines
from .spec import (FeedbackPolicy, FixedPolicy, LossSchedule, PhaseChannel, RoundRobinPolicy,
                   input_from_config, state_from_json)
from .states import (
    SymmetricDensity,
    SymmetricKet,
    basis_state,
    general_split,
    make_ket,
    split_last_qubit,
    to_density,
    xi_coefficient,
)

# --- random case generators ---------------------------------------------------


def random_symmetric_ket(n: int, rng: np.random.Generator) -> SymmetricKet:
    amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
    return make_ket(n, amps)


def random_symmetric_density(n: int, rng: np.random.Generator, rank: int = 3) -> SymmetricDensity:
    weights = rng.random(rank) + 0.1
    weights /= weights.sum()
    alpha = np.zeros((n + 1, n + 1), dtype=complex)
    for w in weights:
        ket = random_symmetric_ket(n, rng)
        alpha += w * np.outer(ket.amps, ket.amps.conj())
    return SymmetricDensity(n, alpha)


def random_dense_density(n: int, rng: np.random.Generator) -> DenseDensity:
    d = 2**n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return DenseDensity(n, m / m.trace())


def random_pvm(rng: np.random.Generator) -> SingleQubitPVM:
    g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
    q, r = np.linalg.qr(g)
    q = q * (np.diag(r) / np.abs(np.diag(r)))
    return SingleQubitPVM(q.conj().T)


def random_kraus_pair(rng: np.random.Generator) -> list[SingleQubitKraus]:
    g = rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2))
    q, _ = np.linalg.qr(g)  # 4x2 isometry: sum of K^dag K is the identity
    return [SingleQubitKraus(0, q[:2, :]), SingleQubitKraus(1, q[2:, :])]


def random_permutation(n: int, rng: np.random.Generator) -> Permutation:
    return Permutation(tuple(int(i) + 1 for i in rng.permutation(n)))


# --- dense sequence runner ------------------------------------------------------


class DenseRunner:
    """Applies position-explicit measurements and losses to a dense density.

    Qubits keep their original position labels across partial traces.
    """

    def __init__(self, rho: DenseDensity):
        self.rho = rho
        self.live = list(range(1, rho.n + 1))

    def _pos(self, original: int) -> int:
        return self.live.index(original) + 1

    def measure(self, original: int, kraus_set: list[SingleQubitKraus], label: int) -> float:
        results = apply_kraus_outcomes_at(self.rho, self._pos(original), kraus_set)
        p, cond = results[label]
        if cond is None:
            raise DomainError(f"conditioning on zero-probability outcome {label}")
        self.rho = cond
        return p

    def lose(self, original: int) -> None:
        self.rho = partial_trace(self.rho, {self._pos(original)})
        self.live.remove(original)


def dense_pure_pvm_sequence(
    dense: DenseKet, steps: list[tuple[int, SingleQubitPVM, int]]
) -> tuple[float, np.ndarray]:
    """Joint probability of a PVM outcome sequence on a pure dense state.

    Measured qubits stay in the state, collapsed onto their basis vector.
    Returns (joint probability, final normalized dense amplitudes).
    """
    amps = np.array(dense.amps)
    joint = 1.0
    for position, pvm, label in steps:
        proj = np.outer(pvm.kappa[label].conj(), pvm.kappa[label])
        new = apply_matrix_at_ket(amps, dense.n, position, proj)
        p = float(np.linalg.norm(new) ** 2)
        if p < ZERO_PROB_EPS:
            return 0.0, new
        joint *= p
        amps = new / math.sqrt(p)
    return joint, amps


def compact_sequence_prob(state, steps) -> tuple[float, list[float], object]:
    """Forced labels on the compact representation, one step at a time.

    steps: ("measure_pvm", pvm, label) | ("measure_kraus", kraus_set, label)
    | ("lose",).  Each loss is applied where it occurs, so the state turns
    mixed there; this is the reference for the deferred-loss replays.
    Returns (joint probability, probability of each measurement, final state).
    """
    joint = 1.0
    probs = []
    for step in steps:
        if step[0] == "lose":
            state = lose_qubit(state if isinstance(state, SymmetricDensity) else to_density(state))
            continue
        _, measurement, label = step
        chosen = measure_state(state, measurement)[label]
        joint *= chosen.probability
        probs.append(chosen.probability)
        state = chosen.require_post_state()
    return joint, probs, state


def _reference_steps(steps, channel: PhaseChannel) -> list:
    """compact_sequence_prob steps for evaluate_sequence / ExperimentTrace.steps() steps."""
    return [
        step if step[0] == "lose"
        else ("measure_pvm", combined_pvm(channel, pvm_from_bloch(*step[1])), step[2])
        for step in steps
    ]


def _coefficient_gap(a, b) -> float:
    """Largest coefficient difference of two compact states of the same kind."""
    if type(a) is not type(b) or a.n != b.n:
        return math.inf
    if isinstance(a, SymmetricKet):
        return float(np.max(np.abs(a.amps - b.amps)))
    return float(np.max(np.abs(a.alpha - b.alpha)))


def embed_qubit(rest_amps: np.ndarray, qubit: np.ndarray, position: int, n: int) -> np.ndarray:
    """Dense product state with `qubit` at `position` and `rest_amps` elsewhere."""
    a = np.arange(2**n)
    bit = (a >> (position - 1)) & 1
    low = a & ((1 << (position - 1)) - 1)
    rest_idx = ((a >> position) << (position - 1)) | low
    return qubit[bit] * rest_amps[rest_idx]


# --- properties -----------------------------------------------------------------


@dataclass
class PropertyResult:
    name: str
    cases: int
    worst_residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def __post_init__(self):
        # numpy scalars sneak in through reductions; keep the report plain
        self.cases = int(self.cases)
        self.worst_residual = float(self.worst_residual)
        self.tolerance = float(self.tolerance)
        self.passed = bool(self.passed)

    def to_dict(self) -> dict:
        """The report entry; JSON has no token for a NaN or infinite worst_residual, so it is None."""
        finite = math.isfinite(self.worst_residual)
        return {**asdict(self), "worst_residual": self.worst_residual if finite else None}


def _worst(worst: float, *residuals: float) -> float:
    """The largest of worst and residuals, NaN once any of them is NaN.

    max(worst, x) keeps worst when x is NaN, so a NaN residual would pass
    its property.
    """
    for x in residuals:
        if x > worst or x != x:
            worst = x
    return worst


def _safe_label(outcomes, rng) -> int:
    """Random outcome label, avoiding branches with (near-)zero probability."""
    label = int(rng.integers(0, len(outcomes)))
    if outcomes[label].probability < 1e-6:
        label = max(range(len(outcomes)), key=lambda i: outcomes[i].probability)
    return label


def check_worked_example(tol: float = 1e-15) -> PropertyResult:
    """The single-qubit split of |1> on three qubits: sqrt(2/3) and sqrt(1/3)."""
    coeffs = general_split(3, 1, 1)
    worst = _worst(abs(coeffs[0].value - math.sqrt(2.0 / 3.0)),
                   abs(coeffs[1].value - math.sqrt(1.0 / 3.0)),
                   abs(xi_coefficient(1, 3, 1, 1) - math.sqrt(1.0 / 3.0)),
                   abs(xi_coefficient(1, 3, 0, 1) - math.sqrt(2.0 / 3.0)))
    return PropertyResult("worked_example_split", 4, worst, tol, worst <= tol)


def check_xi_completeness(max_n: int = 30, tol: float = 1e-12) -> PropertyResult:
    """sum_mu Xi^2 = 1 for every (k, nu) with n <= max_n; exact zeros outside."""
    worst = 0.0
    cases = 0
    for n in range(1, max_n + 1):
        for k in range(n + 1):
            for nu in range(n + 1):
                total = sum(c.value**2 for c in general_split(n, nu, k))
                worst = _worst(worst, abs(total - 1.0))
                cases += 1
    support_ok = True
    for n, k, mu, nu in [(5, 2, 2, 1), (5, 2, 0, 4), (8, 3, 3, 2), (8, 3, 0, 6), (30, 10, 9, 8)]:
        if xi_coefficient(k, n, mu, nu) != 0.0:
            support_ok = False
        cases += 1
    passed = worst <= tol and support_ok
    note = "" if support_ok else "nonzero value outside Theta support"
    return PropertyResult("xi_completeness_and_support", cases, worst, tol, passed, note)


def check_split_vs_oracle(
    max_n: int = 12, seeds: int = 20, tol: float = 1e-12, corrupt_xi: bool = False
) -> PropertyResult:
    """Split coefficients and branch reconstruction against dense expansion.

    corrupt_xi flips the sign of one coefficient; it exists so the negative
    control in the CLI tests can watch this property fail by name.
    """
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(1000 + seed)
        n = int(rng.integers(2, max_n + 1))
        nu = int(rng.integers(0, n + 1))
        k = int(rng.integers(1, n))
        # coefficients vs dense bipartite inner products (block = low k qubits)
        dense = expand(basis_state(n, nu)).amps.reshape(2 ** (n - k), 2**k)
        coeffs = {c.mu: c.value for c in general_split(n, nu, k)}
        if corrupt_xi and coeffs:
            first = min(coeffs)
            coeffs[first] = -coeffs[first]
        for mu in range(k + 1):
            want = coeffs.get(mu, 0.0)
            if 0 <= nu - mu <= n - k:
                lhs = expand(basis_state(n - k, nu - mu)).amps
                rhs = expand(basis_state(k, mu)).amps
                got = float(np.real(lhs @ dense @ rhs))
                worst = _worst(worst, abs(got - want))
                cases += 1
        # branch reconstruction of a random ket
        ket = random_symmetric_ket(n, rng)
        c0, c1 = split_last_qubit(ket.amps)
        recon = np.zeros(2**n, dtype=complex)
        for b, branch in enumerate((c0, c1)):
            sub = _branch_dense(branch, n - 1)
            idx = (np.arange(2 ** (n - 1)) << 1) | b
            recon[idx] += sub
        worst = _worst(worst, float(np.max(np.abs(recon - expand(ket).amps))))
        cases += 1
    return PropertyResult("split_reconstruction", cases, worst, tol, worst <= tol)


def _branch_dense(branch: np.ndarray, n: int) -> np.ndarray:
    """Dense amplitudes of an unnormalized compact branch vector."""
    if n == 0:
        return branch.astype(complex)
    norm = np.linalg.norm(branch)
    if norm < 1e-300:
        return np.zeros(2**n, dtype=complex)
    return expand(SymmetricKet(n, branch / norm)).amps * norm


def check_basis_characterization(
    max_n: int = 8, seeds: int = 50, fwd_tol: float = 1e-12, rev_residual: float = 1e-6
) -> PropertyResult:
    """Theorem: symmetric coefficients <=> invariance under all permutations."""
    worst = 0.0
    cases = 0
    fail = ""
    for seed in range(seeds):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(2, max_n + 1))
        rho = random_symmetric_density(n, rng)
        dense = expand_density(rho)
        if not is_symmetric_over(dense, range(1, n + 1), fwd_tol):
            fail = f"expanded symmetric density failed invariance (seed {seed})"
        back = compress(dense, tol=1e-10)
        worst = _worst(worst, float(np.max(np.abs(back.alpha - rho.alpha))))
        cases += 1
    for seed in range(2 * seeds):
        rng = np.random.default_rng(3000 + seed)
        n = int(rng.integers(2, max_n + 1))
        try:
            compress(random_dense_density(n, rng), tol=1e-10)
            fail = f"random non-symmetric density compressed (seed {seed})"
        except NotSymmetricError as exc:
            if exc.residual <= rev_residual:
                fail = f"non-symmetric residual only {exc.residual:.3e} (seed {seed})"
        cases += 1
    passed = not fail and worst <= fwd_tol
    return PropertyResult("basis_characterization", cases, worst, fwd_tol, passed, fail)


def check_residual_symmetry(max_n: int = 8, cases: int = 200, tol: float = 1e-10) -> PropertyResult:
    """Channels on a subset S leave the state symmetric over the complement."""
    fail = ""
    done = 0
    hi = max(max_n, 3)  # needs a nonempty subset and a nontrivial complement
    for seed in range(cases):
        rng = np.random.default_rng(4000 + seed)
        n = int(rng.integers(3, hi + 1))
        rho = expand_density(random_symmetric_density(n, rng))
        size = int(rng.integers(1, n - 1))
        touched = [int(p) + 1 for p in rng.choice(n, size=size, replace=False)]
        for position in touched:
            rho = apply_kraus_at(rho, position, random_kraus_pair(rng))
        complement = sorted(set(range(1, n + 1)) - set(touched))
        if not is_symmetric_over(rho, complement, tol):
            fail = f"complement symmetry broken (seed {seed}, touched {sorted(touched)})"
        done += 1
    return PropertyResult("residual_symmetry_after_channels", done, 0.0, tol, not fail, fail)


def check_measurement_oracle(max_n: int = 10, seeds: int = 50, tol: float = 1e-10) -> PropertyResult:
    """Compact joint outcome probabilities match the dense oracle.

    Pure states with PVM sequences and mixed states with general POVM
    sequences, at random injective qubit positions.
    """
    worst = 0.0
    cases = 0
    per_n = max(1, seeds // max_n)
    for n in range(1, max_n + 1):
        for s in range(per_n):
            rng = np.random.default_rng(5000 + 97 * n + s)
            m = int(rng.integers(1, n + 1))
            positions = [int(p) + 1 for p in rng.choice(n, size=m, replace=False)]
            # pure input, PVM sequence
            ket = random_symmetric_ket(n, rng)
            state = ket
            compact_steps = []
            dense_steps = []
            for pos in positions:
                pvm = random_pvm(rng)
                outcomes = measure_pure(state, pvm)
                label = _safe_label(outcomes, rng)
                state = outcomes[label].require_post_state()
                compact_steps.append(("measure_pvm", pvm, label))
                dense_steps.append((pos, pvm, label))
            p_compact, _, _ = compact_sequence_prob(ket, compact_steps)
            p_dense, _ = dense_pure_pvm_sequence(expand(ket), dense_steps)
            worst = _worst(worst, abs(p_compact - p_dense))
            cases += 1
            # mixed input, general Kraus sequence
            rho = random_symmetric_density(n, rng)
            runner = DenseRunner(expand_density(rho))
            compact_state = rho
            p_compact = 1.0
            p_dense = 1.0
            for pos in positions:
                kraus = random_kraus_pair(rng)
                outcomes = measure_mixed(compact_state, kraus)
                label = _safe_label(outcomes, rng)
                p_compact *= outcomes[label].probability
                compact_state = outcomes[label].require_post_state()
                p_dense *= runner.measure(pos, kraus, label)
            worst = _worst(worst, abs(p_compact - p_dense))
            cases += 1
    return PropertyResult("measurement_oracle_equivalence", cases, worst, tol, worst <= tol)


def check_loss_independence(max_n: int = 10, seeds: int = 50, tol: float = 1e-10) -> PropertyResult:
    """Loss events change no measurement probability.

    (a) compact probabilities after k losses equal the original state's;
    (b) the deferred-loss evaluate_sequence vs compact_sequence_prob, which
        loses each qubit where the loss occurs: probabilities at `tol`, the
        final state at 1e-12;
    (c) dense interleavings that also trace out already-measured qubits.
    """
    state_tol = 1e-12
    worst = 0.0
    state_worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(6000 + seed)
        n = int(rng.integers(2, max_n + 1))
        rho = random_symmetric_density(n, rng)
        kraus = random_kraus_pair(rng)
        base = [o.probability for o in measure_mixed(rho, kraus)]
        reduced = rho
        for _ in range(1, n):
            reduced = lose_qubit(reduced)
            probs = [o.probability for o in measure_mixed(reduced, kraus)]
            worst = _worst(worst, *(abs(a - b) for a, b in zip(base, probs)))
            cases += 1
        # (b) interleaved losses: deferred replay vs losses where they occur
        ket = random_symmetric_ket(n, rng)
        m = int(rng.integers(1, n))
        steps = [
            ("measure", (float(rng.uniform(0, math.pi)), float(rng.uniform(0, 2 * math.pi))), int(rng.integers(0, 2)))
            for _ in range(m)
        ]
        channel = PhaseChannel(float(rng.uniform(0, 2 * math.pi)))
        lossy = []
        budget = n - m
        for step in steps:
            while budget > 0 and rng.random() < 0.4:
                lossy.append(("lose",))
                budget -= 1
            lossy.append(step)
        try:
            p_deferred, final_deferred = evaluate_sequence(ket, channel, lossy)
            _, p_stepwise, final_stepwise = compact_sequence_prob(ket, _reference_steps(lossy, channel))
        except ZeroProbabilityError:
            continue  # a forced label hit a zero-probability branch
        worst = _worst(worst, *(abs(a - b) for a, b in zip(p_deferred, p_stepwise)))
        state_worst = _worst(state_worst, _coefficient_gap(final_deferred, final_stepwise))
        cases += 1
        # (c) dense PVM run: random interleaved losses of never-measured spares
        # and of already-measured qubits, vs the compact lossless reference
        if n >= 3:
            ket = random_symmetric_ket(n, rng)
            m = int(rng.integers(2, min(n, 4) + 1))
            order = [int(q) + 1 for q in rng.permutation(n)]
            meas_pos, spare = order[:m], order[m:]
            pvms = [random_pvm(rng) for _ in range(m)]
            state, labels, p_ref = ket, [], 1.0
            for pvm in pvms:
                outcomes = measure_pure(state, pvm)
                label = _safe_label(outcomes, rng)
                labels.append(label)
                p_ref *= outcomes[label].probability
                state = outcomes[label].require_post_state()
            runner = DenseRunner(expand_density(to_density(ket)))
            p_dense = 1.0
            lost: set[int] = set()
            measured_done: list[int] = []
            for pos, pvm, label in zip(meas_pos, pvms, labels):
                while rng.random() < 0.5 and len(lost) < n - 1:
                    candidates = [q for q in spare + measured_done if q not in lost]
                    if not candidates:
                        break
                    q = candidates[int(rng.integers(0, len(candidates)))]
                    runner.lose(q)
                    lost.add(q)
                p_dense *= runner.measure(pos, pvm.kraus_pair(), label)
                measured_done.append(pos)
            worst = _worst(worst, abs(p_dense - p_ref))
            cases += 1
    passed = worst <= tol and state_worst <= state_tol
    note = "" if state_worst <= state_tol else f"final states differ by {state_worst:.3e}"
    worst = _worst(worst, state_worst)
    return PropertyResult("loss_independence", cases, worst, tol, passed, note)


def unlikely_noon_trace(max_n: int, seed: int) -> tuple[SymmetricKet, ExperimentTrace]:
    """A NOON-like input and forced labels that no phase makes possible.

    a|0..0> + b|1..1> on n = 2 to max_n qubits, |a| < 0.8 |b|, all measured:
    a detector within 1e-7 of theta = 0 reads 1, one within 1e-7 of
    theta = pi reads 1, and n - 2 detectors with theta in [pi/4, 3pi/4] read
    random labels.  The second conditional stays below
    ((1 + 0.8) 1e-7 / 2)^2 < ZERO_PROB_EPS at every phase, so every row of
    grid_log_likelihoods reads -inf and the estimate is 0.0.  Both branches
    end on the vacuum and interfere, so the joint probability, below
    e ZERO_PROB_EPS, peaks at a phase set by the detector phases.
    """
    rng = np.random.default_rng(13_500 + seed)
    n = int(rng.integers(2, max_n + 1))
    amps = np.zeros(n + 1, dtype=complex)
    amps[0] = 0.8 * rng.uniform() * np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    amps[n] = np.exp(1j * rng.uniform(0.0, 2.0 * math.pi))
    thetas = [rng.uniform(0.0, 1e-7), math.pi - rng.uniform(0.0, 1e-7),
              *rng.uniform(math.pi / 4.0, 3.0 * math.pi / 4.0, n - 2)]
    labels = [1, 1, *rng.integers(0, 2, n - 2)]
    events = tuple(TraceEvent(j, "measure", float(theta), rng.uniform(0.0, 2.0 * math.pi), int(label))
                   for j, (theta, label) in enumerate(zip(thetas, labels)))
    ket = make_ket(n, amps)
    return ket, ExperimentTrace(seed, events, ket)


def check_estimator_replay(max_n: int = 10, seeds: int = 20, tol: float = 1e-10) -> PropertyResult:
    """Grid log-likelihoods match the step-by-step lossy replay; the estimate reads them.

    On lossy feedback traces from random, NOON and Dicke inputs (in turn),
    and on one unlikely_noon_trace per seed, grid_log_likelihoods must equal,
    at every candidate phase of a small grid, the log of
    compact_sequence_prob's joint probability, which applies each loss where
    it occurs.  ml_phase_estimate, which evaluates a phase-free replay by FFT,
    must give exactly the tie-rule argmax of grid_log_likelihoods, on that
    grid and on a grid of 2 to n points, where the powers of e^{i phi} fold.
    On the unlikely traces that holds only if the estimate falls back to the
    grid below the joint replay's floor.
    """
    grid = 16  # small, so that the suite stays cheap
    worst = 0.0
    cases = 0
    moved = 0
    for seed in range(seeds):
        rng = np.random.default_rng(13_000 + seed)
        n = int(rng.integers(2, max_n + 1))
        if seed % 3 == 0:
            ket = random_symmetric_ket(n, rng)
        elif seed % 3 == 1:
            ket = input_from_config({"type": "noon"}, n)
        else:
            ket = basis_state(n, int(rng.integers(0, n + 1)))  # a Dicke state
        schedule = LossSchedule.random(n, 0.3, int(rng.integers(0, 2**31)))
        policy = FeedbackPolicy(*(float(x) for x in rng.uniform(0.0, math.pi, 3)))
        channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
        trace = run_trial(ket, channel, policy, schedule, int(rng.integers(0, 2**31)))
        for ket, trace in ((ket, trace), unlikely_noon_trace(max_n, seed)):
            got = grid_log_likelihoods(ket, trace, grid)
            for g in range(grid):
                steps = _reference_steps(trace.steps(), PhaseChannel(2.0 * math.pi * g / grid))
                try:
                    want = math.log(compact_sequence_prob(ket, steps)[0])
                except ZeroProbabilityError:
                    want = -math.inf  # a forced label below ZERO_PROB_EPS
                worst = _worst(worst, 0.0 if want == got[g] else abs(want - got[g]))
                cases += 1
            folded = int(rng.integers(2, ket.n + 1))
            for size, ll in ((grid, got), (folded, grid_log_likelihoods(ket, trace, folded))):
                tie_rule = 2.0 * math.pi * int(np.argmax(ll >= ll.max() - TIE_TOL)) / size
                moved += ml_phase_estimate(ket, trace, size) != tie_rule
    note = f"{moved} estimates differ from the grid's tie-rule argmax" if moved else ""
    passed = worst <= tol and not moved
    return PropertyResult("estimator_replay_equivalence", cases, worst, tol, passed, note)


def _exactly_hermitian(alpha: np.ndarray) -> bool:
    """The real part bitwise symmetric, the imaginary part antisymmetric, its diagonal +0.0."""
    return (alpha.real.tobytes() == alpha.real.T.tobytes()
            and np.array_equal(alpha.imag, -alpha.imag.T)
            and not np.signbit(np.diagonal(alpha.imag)).any())


def check_batched_trials(max_n: int = 10, seeds: int = 20, tol: float = 1e-10) -> PropertyResult:
    """A block of trials equals each trial run alone and the stepwise lossy replay.

    On random inputs, policies (fixed, round-robin, feedback) and lossy
    schedules that leave one qubit (so a final density is at least 2x2),
    run_trials runs one block of four seeds.  Each trial's labels,
    probabilities and final state must equal run_trial on its seed alone,
    exactly, and so must its trace line's final state, read back by
    spec.state_from_json; a final density must be exactly Hermitian
    (_exactly_hermitian); evaluate_sequence, forcing the trial's labels, must
    return its recorded probabilities and final state exactly, since a pure
    step is one kernel;
    compact_sequence_prob, replaying the trial with each loss applied where it
    occurs, must give the same probabilities at `tol` and the same final state
    at 1e-12.
    """
    state_tol = 1e-12
    worst = 0.0
    state_worst = 0.0
    mismatched = 0
    not_hermitian = 0
    not_replayed = 0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(14_000 + seed)
        n = int(rng.integers(2, max_n + 1))
        ket = random_symmetric_ket(n, rng)
        a = [float(x) for x in rng.uniform(0.0, math.pi, 4)]
        policy = (FixedPolicy(a[0], a[1]), RoundRobinPolicy(((a[0], a[1]), (a[2], a[3]))),
                  FeedbackPolicy(a[0], a[1], a[2]))[seed % 3]
        schedule = LossSchedule.random(n - 1, 0.3, int(rng.integers(0, 2**31)))
        channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
        block = [int(s) for s in rng.integers(0, 2**31, 4)]
        lines = trace_lines(range(4), block, schedule.events, *_trial_block(ket, channel, policy, schedule, block))
        for trace, line in zip(run_trials(ket, channel, policy, schedule, block), lines):
            alone = run_trial(ket, channel, policy, schedule, trace.seed)
            read_back = state_from_json(json.loads(line)["final_state"])
            if alone.events != trace.events or _coefficient_gap(alone.final_state, trace.final_state) != 0.0 \
                    or _coefficient_gap(read_back, trace.final_state) != 0.0:
                mismatched += 1
            if isinstance(trace.final_state, SymmetricDensity) and not _exactly_hermitian(trace.final_state.alpha):
                not_hermitian += 1
            recorded = [ev.probability for ev in trace.events if ev.kind == "measure"]
            replayed, replay_final = evaluate_sequence(ket, channel, trace.steps())
            not_replayed += replayed != recorded or _coefficient_gap(replay_final, trace.final_state) != 0.0
            try:
                _, probs, final = compact_sequence_prob(ket, _reference_steps(trace.steps(), channel))
            except ZeroProbabilityError:  # a drawn label the reference cannot condition on
                probs, final = [math.inf], None
            worst = _worst(worst, *(abs(p - q) for p, q in zip(probs, recorded)))
            state_worst = _worst(state_worst, _coefficient_gap(trace.final_state, final))
            cases += 1
    passed = not (mismatched or not_hermitian or not_replayed) and worst <= tol and state_worst <= state_tol
    notes = []
    if mismatched:
        notes.append(f"{mismatched} trials differ from run_trial alone or from their trace line")
    if not_replayed:
        notes.append(f"{not_replayed} trials differ from their forced evaluate_sequence replay")
    if not_hermitian:
        notes.append(f"{not_hermitian} final densities not exactly Hermitian")
    if not state_worst <= state_tol:
        notes.append(f"final states differ by {state_worst:.3e}")
    return PropertyResult("batched_trial_equivalence", cases, _worst(worst, state_worst), tol, passed,
                          "; ".join(notes))


def check_pure_state_sufficiency(max_n: int = 10, seeds: int = 50, tol: float = 1e-10) -> PropertyResult:
    """Dense post-PVM state = |l'> at the measured spot (x) compact rest."""
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(7000 + seed)
        n = int(rng.integers(2, max_n + 1))
        ket = random_symmetric_ket(n, rng)
        pvm = random_pvm(rng)
        position = int(rng.integers(1, n + 1))
        outcomes = measure_pure(ket, pvm)
        label = _safe_label(outcomes, rng)
        post = outcomes[label].require_post_state()
        p_dense, amps = dense_pure_pvm_sequence(expand(ket), [(position, pvm, label)])
        product = embed_qubit(expand(post).amps, pvm.basis_ket(label), position, n)
        fidelity = abs(np.vdot(product, amps)) ** 2
        worst = _worst(worst, abs(1.0 - fidelity), abs(p_dense - outcomes[label].probability))
        cases += 1
    return PropertyResult("pure_state_sufficiency", cases, worst, tol, worst <= tol)


def check_ordering_independence(max_n: int = 10, seeds: int = 30, tol: float = 1e-10) -> PropertyResult:
    """Joint PVM probabilities agree for any two injective position choices."""
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(8000 + seed)
        n = int(rng.integers(2, max_n + 1))
        m = int(rng.integers(1, n + 1))
        ket = expand(random_symmetric_ket(n, rng))
        pvms = [random_pvm(rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        pos_a = [int(p) + 1 for p in rng.choice(n, size=m, replace=False)]
        pos_b = [int(p) + 1 for p in rng.choice(n, size=m, replace=False)]
        pa, _ = dense_pure_pvm_sequence(ket, list(zip(pos_a, pvms, labels)))
        pb, _ = dense_pure_pvm_sequence(ket, list(zip(pos_b, pvms, labels)))
        worst = _worst(worst, abs(pa - pb))
        cases += 1
    return PropertyResult("ordering_independence", cases, worst, tol, worst <= tol)


def check_trace_povm_commutation(max_n: int = 10, seeds: int = 30, tol: float = 1e-10) -> PropertyResult:
    """Partial trace and a measurement on another qubit commute."""
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(9000 + seed)
        n = int(rng.integers(2, max_n + 1))
        rho = random_symmetric_density(n, rng)
        kraus = random_kraus_pair(rng)
        # compact: measure-then-lose vs lose-then-measure
        first = measure_mixed(rho, kraus)
        after = measure_mixed(lose_qubit(rho), kraus)
        for o_a, o_b in zip(first, after):
            worst = _worst(worst, abs(o_a.probability - o_b.probability))
        if n >= 3:
            label = _safe_label(first, rng)
            a = lose_qubit(first[label].require_post_state())
            b = after[label].require_post_state()
            # equal probabilities and equal reduced coefficient matrices
            worst = _worst(worst, float(np.max(np.abs(a.alpha - b.alpha))))
        cases += 1
        # dense identity tr_j(K_i rho K_i^dag) = K_i tr_j(rho) K_i^dag
        if n >= 2 and n <= 8:
            dense = expand_density(rho).matrix
            k = random_kraus_pair(rng)[0].matrix
            lhs = partial_trace_raw(_sandwich_at(dense, n, 2, k), n, {1})
            rhs = _sandwich_at(partial_trace_raw(dense, n, {1}), n - 1, 1, k)
            worst = _worst(worst, float(np.max(np.abs(lhs - rhs))))
            cases += 1
    return PropertyResult("trace_povm_commutation", cases, worst, tol, worst <= tol)


def check_loss_mechanism_irrelevance(max_n: int = 8, seeds: int = 30, tol: float = 1e-12) -> PropertyResult:
    """A pre-loss channel on the lost qubit never changes the reduced state."""
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(10_000 + seed)
        n = int(rng.integers(2, max_n + 1))
        rho = expand_density(random_symmetric_density(n, rng))
        j = int(rng.integers(1, n + 1))
        mangled = apply_kraus_at(rho, j, random_kraus_pair(rng))
        a = partial_trace(mangled, {j})
        b = partial_trace(rho, {j})
        worst = _worst(worst, float(np.max(np.abs(a.matrix - b.matrix))))
        cases += 1
    return PropertyResult("loss_mechanism_irrelevance", cases, worst, tol, worst <= tol)


def check_permutation_group(max_n: int = 8, seeds: int = 30, tol: float = 0.0) -> PropertyResult:
    """P is a unitary representation: group law, inverses, basis invariance.

    Permutation operators are pure index relabelings, so these identities
    hold exactly, with zero tolerance.
    """
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(11_000 + seed)
        n = int(rng.integers(2, max_n + 1))
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        ket = DenseKet(n, amps / np.linalg.norm(amps))
        p1, p2 = random_permutation(n, rng), random_permutation(n, rng)
        lhs = apply_permutation(ket, p1.compose(p2))
        rhs = apply_permutation(apply_permutation(ket, p2), p1)
        worst = _worst(worst, float(np.max(np.abs(lhs.amps - rhs.amps))))
        back = apply_permutation(apply_permutation(ket, p1), p1.inverse())
        worst = _worst(worst, float(np.max(np.abs(back.amps - ket.amps))))
        sym = expand(basis_state(n, int(rng.integers(0, n + 1))))
        moved = apply_permutation(sym, p1)
        worst = _worst(worst, float(np.max(np.abs(moved.amps - sym.amps))))
        cases += 3
    return PropertyResult("permutation_group_law", cases, worst, tol, worst <= tol)


def check_remark12_specialization(max_n: int = 8, seeds: int = 30, tol: float = 1e-12) -> PropertyResult:
    """measure_mixed with projectors reproduces the PVM coefficient update."""
    worst = 0.0
    cases = 0
    for seed in range(seeds):
        rng = np.random.default_rng(12_000 + seed)
        n = int(rng.integers(1, max_n + 1))
        rho = random_symmetric_density(n, rng)
        pvm = random_pvm(rng)
        got = measure_mixed(rho, pvm.kraus_pair())
        for ell in (0, 1):
            raw = _pvm_update_transcription(rho.alpha, n, pvm.kappa, ell)
            p = raw.trace().real
            worst = _worst(worst, abs(p - got[ell].probability))
            if got[ell].post_state is not None and p > 1e-12:
                worst = _worst(worst, float(np.max(np.abs(raw / p - got[ell].post_state.alpha))))
            cases += 1
        pure = random_symmetric_ket(n, rng)
        a = [o.probability for o in measure_pure(pure, pvm)]
        b = [o.probability for o in measure_mixed(to_density(pure), pvm.kraus_pair())]
        worst = _worst(worst, *(abs(x - y) for x, y in zip(a, b)))
        cases += 1
    return PropertyResult("pvm_update_specialization", cases, worst, tol, worst <= tol)


def _pvm_update_transcription(alpha: np.ndarray, n: int, kappa: np.ndarray, ell: int) -> np.ndarray:
    """Elementwise transcription of the mixed-state PVM coefficient update."""
    out = np.zeros((n, n), dtype=complex)
    k = kappa[ell]
    for nu in range(n):
        for mu in range(n):
            acc = alpha[nu, mu] * math.sqrt((n - nu) * (n - mu)) * k[0] * k[0].conjugate()
            acc += alpha[nu, mu + 1] * math.sqrt((n - nu) * (mu + 1)) * k[0] * k[1].conjugate()
            acc += alpha[nu + 1, mu] * math.sqrt((nu + 1) * (n - mu)) * k[1] * k[0].conjugate()
            acc += alpha[nu + 1, mu + 1] * math.sqrt((nu + 1) * (mu + 1)) * k[1] * k[1].conjugate()
            out[nu, mu] = acc / n
    return out


# --- suite runner ---------------------------------------------------------------


@dataclass
class SuiteParams:
    max_n: int = 8
    seeds: int = 20
    tolerance: float = 1e-10
    corrupt_xi: bool = False


PROPERTY_BUILDERS = {
    "worked_example_split": lambda p: check_worked_example(),
    "xi_completeness_and_support": lambda p: check_xi_completeness(max(p.max_n, 30)),
    "split_reconstruction": lambda p: check_split_vs_oracle(
        min(p.max_n + 2, 12), p.seeds, corrupt_xi=p.corrupt_xi
    ),
    "basis_characterization": lambda p: check_basis_characterization(min(p.max_n, 8), p.seeds),
    "residual_symmetry_after_channels": lambda p: check_residual_symmetry(
        min(p.max_n, 8), 4 * p.seeds, p.tolerance
    ),
    "measurement_oracle_equivalence": lambda p: check_measurement_oracle(
        p.max_n, p.seeds, p.tolerance
    ),
    "loss_independence": lambda p: check_loss_independence(p.max_n, p.seeds, p.tolerance),
    "pure_state_sufficiency": lambda p: check_pure_state_sufficiency(p.max_n, p.seeds, p.tolerance),
    "ordering_independence": lambda p: check_ordering_independence(p.max_n, p.seeds, p.tolerance),
    "trace_povm_commutation": lambda p: check_trace_povm_commutation(p.max_n, p.seeds, p.tolerance),
    "loss_mechanism_irrelevance": lambda p: check_loss_mechanism_irrelevance(
        min(p.max_n, 8), p.seeds
    ),
    "permutation_group_law": lambda p: check_permutation_group(min(p.max_n, 8), p.seeds),
    "pvm_update_specialization": lambda p: check_remark12_specialization(min(p.max_n, 8), p.seeds),
    "estimator_replay_equivalence": lambda p: check_estimator_replay(p.max_n, p.seeds, p.tolerance),
    "batched_trial_equivalence": lambda p: check_batched_trials(p.max_n, p.seeds, p.tolerance),
}


def run_suite(
    max_n: int = 8,
    seeds: int = 20,
    tolerance: float = 1e-10,
    corrupt_xi: bool = False,
    workers: int = 1,
) -> dict:
    """Run every property; the report is JSON-ready.

    `tolerance` applies to the oracle-comparison properties; identities the
    theorems pin tighter (1e-12 sums, exact zeros) keep their own tolerance.
    """
    if max_n > density_cap():
        raise ResourceLimitError(f"max_n {max_n} exceeds dense density cap {density_cap()}")
    if max_n < 2 or min(seeds, workers) < 1:
        raise DomainError(
            f"max_n must be >= 2 and seeds and workers >= 1, got {max_n}, {seeds} and {workers}")
    params = SuiteParams(max_n, seeds, tolerance, corrupt_xi)
    results = list(_ordered_map(partial(_run_one_property, params=params), workers,
                                list(PROPERTY_BUILDERS)))
    return {
        "schema_version": 1,
        "parameters": {
            "max_n": max_n,
            "seeds": seeds,
            "tolerance": tolerance,
            "corrupt_xi": corrupt_xi,
        },
        "properties": [r.to_dict() for r in results],
        "all_passed": all(r.passed for r in results),
    }


def _run_one_property(name: str, params: SuiteParams) -> PropertyResult:
    """One property; a library error it raises fails it instead of the suite."""
    try:
        return PROPERTY_BUILDERS[name](params)
    except DickeSimError as exc:
        return PropertyResult(name, 0, math.inf, params.tolerance, False,
                              f"raised {type(exc).__name__}: {exc}")
