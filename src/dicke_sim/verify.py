"""Property suite cross-checking the compact modules against the dense oracle.

Each property draws randomized cases and reports through one _Tally: it
passes iff its worst residual, over every residual it measures, is within
its tolerance and every requirement it states held.  Every property reads
one SuiteParams and derives its sizes from it.  The CLI `verify`
subcommand runs the whole suite and emits a JSON report; the acceptance tests
call the same functions with SuiteParams of their own.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass
from functools import partial
from itertools import product

import numpy as np

from .errors import (DickeSimError, DomainError, NotSymmetricError, ResourceLimitError,
                     ZeroProbabilityError)
from .harness import (TIE_TOL, ExperimentTrace, TraceEvent, _joint_log_likelihoods, _ordered_map, _trial_block,
                      combined_pvm, evaluate_sequence, grid_log_likelihoods, ml_phase_estimate, run_ensemble, run_trial,
                      run_trials)
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
    apply_kraus_outcome_at,
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
from .serialize import SCHEMA_VERSION, trace_lines
from .spec import (FeedbackPolicy, FixedPolicy, LossSchedule, PhaseChannel, RoundRobinPolicy,
                   input_from_config, parse_config, state_from_json)
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


def random_symmetric_density(n: int, rng: np.random.Generator) -> SymmetricDensity:
    weights = rng.random(3) + 0.1
    weights /= weights.sum()
    alpha = np.zeros((n + 1, n + 1), dtype=complex)
    for w in weights:
        ket = random_symmetric_ket(n, rng)
        alpha += w * np.outer(ket.amps, ket.amps.conj())
    return SymmetricDensity(n, alpha)


def random_dense_density(n: int, rng: np.random.Generator) -> DenseDensity:
    """rho = g g^dag / tr, g of shape (2^n, 3): rank 3, as random_symmetric_density, but not symmetric."""
    g = rng.standard_normal((2**n, 3)) + 1j * rng.standard_normal((2**n, 3))
    m = g @ g.conj().T
    return DenseDensity(n, m / m.trace().real)


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
        p, cond = apply_kraus_outcome_at(self.rho, self._pos(original), kraus_set, label)
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


def compact_sequence_prob(state, steps, channel: PhaseChannel) -> tuple[float, list[float], object]:
    """Forced labels on the compact representation, one step at a time.

    steps: ("measure", (theta, phi), label) or ("lose",), as in
    evaluate_sequence, whose referee this is; each detector is
    combined_pvm(channel, pvm_from_bloch(theta, phi)).  Each loss is applied
    where it occurs, so the state turns mixed there.  A forced label below
    ZERO_PROB_EPS raises ZeroProbabilityError.
    Returns (joint probability, probability of each measurement, final state).
    """
    joint = 1.0
    probs = []
    for step in steps:
        if step[0] == "lose":
            state = lose_qubit(state if isinstance(state, SymmetricDensity) else to_density(state))
            continue
        _, angles, label = step
        chosen = measure_state(state, combined_pvm(channel, pvm_from_bloch(*angles)))[label]
        joint *= chosen.probability
        probs.append(chosen.probability)
        state = chosen.require_post_state()
    return joint, probs, state


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

WORKED_EXAMPLE_TOL = 1e-15  # closed forms of three-qubit coefficients: a last-bit error at most
IDENTITY_TOL = 1e-12  # identities the theorems pin tighter than the oracle comparisons' tolerance
EXACT_TOL = 0.0  # permutation operators are pure index relabelings
REV_RESIDUAL = 1e-6  # a random dense density misses permutation symmetry by more than this
BORN_TRIALS = 4000  # trials of each born_rule_sampling case
FALSE_ALARM = 1e-6  # g_test_ratio's false-alarm rate


@dataclass
class SuiteParams:
    """The suite's settings; each property derives its sizes from them.

    `tolerance` applies to the oracle-comparison properties; identities the
    theorems pin tighter (1e-12 sums, exact zeros) keep their own tolerance.
    """

    max_n: int = 8
    seeds: int = 20
    tolerance: float = 1e-10
    corrupt_xi: bool = False


@dataclass
class PropertyResult:
    name: str
    cases: int
    worst_residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        """The report entry; JSON has no token for a NaN or infinite worst_residual, so it is None."""
        finite = math.isfinite(self.worst_residual)
        return {**asdict(self), "worst_residual": self.worst_residual if finite else None}


class _Tally:
    """A property's case count, worst residual and failed requirements.

    The property passes iff its worst residual is within its tolerance and
    every requirement held; its note is the failed requirements' notes, in
    order, joined by "; ".  The worst residual is NaN once any residual is
    NaN: max(worst, x) keeps worst when x is NaN, so a NaN residual would
    pass its property.
    """

    def __init__(self):
        self.cases = 0
        self.worst = 0.0
        self.failed: list[str] = []

    def add(self, *residuals: float, cases: int = 1) -> None:
        for x in residuals:
            if x > self.worst or x != x:
                self.worst = x
        self.cases += cases

    def require(self, ok: bool, note: str) -> None:
        if not ok:
            self.failed.append(note)

    def result(self, name: str, tol: float) -> PropertyResult:
        """The property's report, in plain Python values: numpy scalars come in through reductions."""
        worst = float(self.worst)
        return PropertyResult(name, int(self.cases), worst, float(tol), bool(worst <= tol and not self.failed),
                              "; ".join(self.failed))


def _cases(base: int, count: int, lo: int, hi: int):
    """(seed, rng, n) of each of `count` cases: rng = default_rng(base + seed), whose first draw is n in [lo, hi]."""
    for seed in range(count):
        rng = np.random.default_rng(base + seed)
        yield seed, rng, int(rng.integers(lo, hi + 1))


def _safe_label(outcomes, rng) -> int:
    """Random outcome label, avoiding branches with (near-)zero probability."""
    label = int(rng.integers(0, len(outcomes)))
    if outcomes[label].probability < 1e-6:
        label = max(range(len(outcomes)), key=lambda i: outcomes[i].probability)
    return label


def check_worked_example(params: SuiteParams) -> PropertyResult:
    """The single-qubit split of |1> on three qubits: sqrt(2/3) and sqrt(1/3)."""
    coeffs = general_split(3, 1, 1)
    tally = _Tally()
    tally.add(abs(coeffs[0] - math.sqrt(2.0 / 3.0)),
              abs(coeffs[1] - math.sqrt(1.0 / 3.0)),
              abs(xi_coefficient(1, 3, 1, 1) - math.sqrt(1.0 / 3.0)),
              abs(xi_coefficient(1, 3, 0, 1) - math.sqrt(2.0 / 3.0)), cases=4)
    return tally.result("worked_example_split", WORKED_EXAMPLE_TOL)


def check_xi_completeness(params: SuiteParams) -> PropertyResult:
    """sum_mu Xi^2 = 1 for every (k, nu) with n <= max(max_n, 30); exact zeros outside."""
    tally = _Tally()
    for n in range(1, max(params.max_n, 30) + 1):
        for k in range(n + 1):
            for nu in range(n + 1):
                tally.add(abs(sum(x**2 for x in general_split(n, nu, k).values()) - 1.0))
    support = [(5, 2, 2, 1), (5, 2, 0, 4), (8, 3, 3, 2), (8, 3, 0, 6), (30, 10, 9, 8)]
    tally.add(cases=len(support))
    tally.require(all(xi_coefficient(k, n, mu, nu) == 0.0 for n, k, mu, nu in support),
                  "nonzero value outside Theta support")
    return tally.result("xi_completeness_and_support", IDENTITY_TOL)


def check_split_vs_oracle(params: SuiteParams) -> PropertyResult:
    """Split coefficients and branch reconstruction against dense expansion, n <= min(max_n + 2, 12).

    corrupt_xi flips the sign of one coefficient; it exists so the negative
    control in the CLI tests can watch this property fail by name.
    """
    tally = _Tally()
    for _, rng, n in _cases(1000, params.seeds, 2, min(params.max_n + 2, 12)):
        nu = int(rng.integers(0, n + 1))
        k = int(rng.integers(1, n))
        # coefficients vs dense bipartite inner products (block = low k qubits)
        dense = expand(basis_state(n, nu)).amps.reshape(2 ** (n - k), 2**k)
        coeffs = general_split(n, nu, k)
        if params.corrupt_xi and coeffs:
            first = min(coeffs)
            coeffs[first] = -coeffs[first]
        for mu in range(k + 1):
            want = coeffs.get(mu, 0.0)
            if 0 <= nu - mu <= n - k:
                lhs = expand(basis_state(n - k, nu - mu)).amps
                rhs = expand(basis_state(k, mu)).amps
                got = float(np.real(lhs @ dense @ rhs))
                tally.add(abs(got - want))
        # branch reconstruction of a random ket
        ket = random_symmetric_ket(n, rng)
        c0, c1 = split_last_qubit(ket.amps)
        recon = np.zeros(2**n, dtype=complex)
        for b, branch in enumerate((c0, c1)):
            sub = _branch_dense(branch, n - 1)
            idx = (np.arange(2 ** (n - 1)) << 1) | b
            recon[idx] += sub
        tally.add(float(np.max(np.abs(recon - expand(ket).amps))))
    return tally.result("split_reconstruction", IDENTITY_TOL)


def _branch_dense(branch: np.ndarray, n: int) -> np.ndarray:
    """Dense amplitudes of an unnormalized compact branch vector."""
    if n == 0:
        return branch.astype(complex)
    norm = np.linalg.norm(branch)
    if norm < 1e-300:
        return np.zeros(2**n, dtype=complex)
    return expand(SymmetricKet(n, branch / norm)).amps * norm


def check_basis_characterization(params: SuiteParams) -> PropertyResult:
    """Theorem: symmetric coefficients <=> invariance under all permutations, n <= min(max_n, 8).

    `seeds` symmetric densities and twice as many random dense ones.
    """
    max_n = min(params.max_n, 8)
    tally = _Tally()
    for seed, rng, n in _cases(2000, params.seeds, 2, max_n):
        rho = random_symmetric_density(n, rng)
        dense = expand_density(rho)
        tally.require(is_symmetric_over(dense, range(1, n + 1), IDENTITY_TOL),
                      f"expanded symmetric density failed invariance (seed {seed})")
        back = compress(dense)
        tally.add(float(np.max(np.abs(back.alpha - rho.alpha))))
    for seed, rng, n in _cases(3000, 2 * params.seeds, 2, max_n):
        try:
            compress(random_dense_density(n, rng))
            tally.require(False, f"random non-symmetric density compressed (seed {seed})")
        except NotSymmetricError as exc:
            tally.require(exc.residual > REV_RESIDUAL,
                          f"non-symmetric residual only {exc.residual:.3e} (seed {seed})")
        tally.add()
    return tally.result("basis_characterization", IDENTITY_TOL)


def check_residual_symmetry(params: SuiteParams) -> PropertyResult:
    """Channels on a subset S leave the state symmetric over the complement.

    4 * seeds cases on n = 3 to max(min(max_n, 8), 3) qubits; the residual is always 0.0.
    """
    tally = _Tally()
    # n >= 3: a nonempty subset and a nontrivial complement
    for seed, rng, n in _cases(4000, 4 * params.seeds, 3, max(min(params.max_n, 8), 3)):
        rho = expand_density(random_symmetric_density(n, rng))
        size = int(rng.integers(1, n - 1))
        touched = [int(p) + 1 for p in rng.choice(n, size=size, replace=False)]
        for position in touched:
            rho = apply_kraus_at(rho, position, random_kraus_pair(rng))
        complement = sorted(set(range(1, n + 1)) - set(touched))
        tally.require(is_symmetric_over(rho, complement, params.tolerance),
                      f"complement symmetry broken (seed {seed}, touched {sorted(touched)})")
        tally.add()
    return tally.result("residual_symmetry_after_channels", params.tolerance)


def check_measurement_oracle(params: SuiteParams) -> PropertyResult:
    """Compact joint outcome probabilities match the dense oracle.

    Pure states with PVM sequences and mixed states with general POVM
    sequences, at random injective qubit positions: max(1, seeds // max_n)
    cases at each n from 1 to max_n.
    """
    tally = _Tally()
    per_n = max(1, params.seeds // params.max_n)
    for n in range(1, params.max_n + 1):
        for s in range(per_n):
            rng = np.random.default_rng(5000 + 97 * n + s)
            m = int(rng.integers(1, n + 1))
            positions = [int(p) + 1 for p in rng.choice(n, size=m, replace=False)]
            # pure input, PVM sequence
            ket = random_symmetric_ket(n, rng)
            state = ket
            p_compact = 1.0
            dense_steps = []
            for pos in positions:
                pvm = random_pvm(rng)
                outcomes = measure_pure(state, pvm)
                label = _safe_label(outcomes, rng)
                p_compact *= outcomes[label].probability
                state = outcomes[label].require_post_state()
                dense_steps.append((pos, pvm, label))
            p_dense, _ = dense_pure_pvm_sequence(expand(ket), dense_steps)
            tally.add(abs(p_compact - p_dense))
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
            tally.add(abs(p_compact - p_dense))
    return tally.result("measurement_oracle_equivalence", params.tolerance)


def check_loss_independence(params: SuiteParams) -> PropertyResult:
    """Loss events change no measurement probability.

    (a) compact probabilities after k losses equal the original state's;
    (b) the deferred-loss evaluate_sequence vs compact_sequence_prob, which
        loses each qubit where the loss occurs: probabilities at `tolerance`,
        the final state at min(IDENTITY_TOL, `tolerance`);
    (c) dense interleavings that also trace out already-measured qubits.
    """
    tally, states = _Tally(), _Tally()
    for _, rng, n in _cases(6000, params.seeds, 2, params.max_n):
        rho = random_symmetric_density(n, rng)
        kraus = random_kraus_pair(rng)
        base = [o.probability for o in measure_mixed(rho, kraus)]
        reduced = rho
        for _ in range(1, n):
            reduced = lose_qubit(reduced)
            probs = [o.probability for o in measure_mixed(reduced, kraus)]
            tally.add(*(abs(a - b) for a, b in zip(base, probs)))
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
            _, p_stepwise, final_stepwise = compact_sequence_prob(ket, lossy, channel)
        except ZeroProbabilityError:
            continue  # a forced label hit a zero-probability branch
        tally.add(*(abs(a - b) for a, b in zip(p_deferred, p_stepwise)))
        states.add(_coefficient_gap(final_deferred, final_stepwise), cases=0)
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
            tally.add(abs(p_dense - p_ref))
    tally.require(states.worst <= IDENTITY_TOL, f"final states differ by {states.worst:.3e}")
    tally.add(states.worst, cases=0)
    return tally.result("loss_independence", params.tolerance)


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
    [(_, rng, n)] = _cases(13_500 + seed, 1, 2, max_n)
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


def check_estimator_replay(params: SuiteParams) -> PropertyResult:
    """Grid log-likelihoods match the step-by-step lossy replay; the estimate reads them.

    On lossy feedback traces from random, NOON and Dicke inputs (in turn),
    and on one unlikely_noon_trace per seed, grid_log_likelihoods must equal,
    at every candidate phase of a small grid, the log of
    compact_sequence_prob's joint probability, which applies each loss where
    it occurs.  On that grid and on one of 2 to n points, where the powers of
    e^{i phi} fold, ml_phase_estimate must give exactly the tie-rule argmax
    of grid_log_likelihoods, and where either is above the floor the best
    closed-form joint log-likelihood (_joint_log_likelihoods: a block split
    with Xi, then one FFT of its lags) must equal the grid's.  On the unlikely
    traces the estimate holds only if it falls back to the grid below it.
    """
    grid = 16  # small, so that the suite stays cheap
    tally = _Tally()
    moved = 0
    for seed, rng, n in _cases(13_000, params.seeds, 2, params.max_n):
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
        for ket, trace in ((ket, trace), unlikely_noon_trace(params.max_n, seed)):
            got, steps = grid_log_likelihoods(ket, trace, grid), trace.steps()
            for g in range(grid):
                try:
                    want = math.log(compact_sequence_prob(ket, steps, PhaseChannel(2.0 * math.pi * g / grid))[0])
                except ZeroProbabilityError:
                    want = -math.inf  # a forced label below ZERO_PROB_EPS
                tally.add(0.0 if want == got[g] else abs(want - got[g]))
            folded = int(rng.integers(2, ket.n + 1))
            for size, ll in ((grid, got), (folded, grid_log_likelihoods(ket, trace, folded))):
                tie_rule = 2.0 * math.pi * int(np.argmax(ll >= ll.max() - TIE_TOL)) / size
                moved += ml_phase_estimate(ket, trace, size) != tie_rule
                joint = _joint_log_likelihoods(ket, steps, size).max()
                if max(joint, ll.max()) >= math.log(ZERO_PROB_EPS) + 1.0:  # then both maxima are log P there
                    tally.add(abs(joint - ll.max()))
    tally.require(not moved, f"{moved} estimates differ from the grid's tie-rule argmax")
    return tally.result("estimator_replay_equivalence", params.tolerance)


def _exactly_hermitian(alpha: np.ndarray) -> bool:
    """The real part bitwise symmetric, the imaginary part antisymmetric, its diagonal +0.0."""
    return (alpha.real.tobytes() == alpha.real.T.tobytes()
            and np.array_equal(alpha.imag, -alpha.imag.T)
            and not np.signbit(np.diagonal(alpha.imag)).any())


def check_batched_trials(params: SuiteParams) -> PropertyResult:
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
    occurs, must give the same probabilities at `tolerance` and the same final
    state at min(IDENTITY_TOL, `tolerance`).
    """
    tally, states = _Tally(), _Tally()
    mismatched = 0
    not_hermitian = 0
    not_replayed = 0
    for seed, rng, n in _cases(14_000, params.seeds, 2, params.max_n):
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
                _, probs, final = compact_sequence_prob(ket, trace.steps(), channel)
            except ZeroProbabilityError:  # a drawn label the reference cannot condition on
                probs, final = [math.inf], None
            tally.add(*(abs(p - q) for p, q in zip(probs, recorded)))
            states.add(_coefficient_gap(trace.final_state, final), cases=0)
    tally.require(not mismatched, f"{mismatched} trials differ from run_trial alone or from their trace line")
    tally.require(not not_replayed, f"{not_replayed} trials differ from their forced evaluate_sequence replay")
    tally.require(not not_hermitian, f"{not_hermitian} final densities not exactly Hermitian")
    tally.require(states.worst <= IDENTITY_TOL, f"final states differ by {states.worst:.3e}")
    tally.add(states.worst, cases=0)
    return tally.result("batched_trial_equivalence", params.tolerance)


def g_test_ratio(counts: dict, probs: dict) -> float:
    """The G statistic of counts against the exact probs, over its chi^2 quantile at false-alarm rate FALSE_ALARM.

    counts[s] and probs[s] per outcome string s.  G = 2 sum O ln(O / E) over
    the cells, E = N p with N the total count; cells expecting fewer than 5
    draws are pooled into one, where the chi^2 approximation of G would fail.
    A pool still expecting fewer than 5 joins the regular cell expecting the
    fewest draws (it stands alone only when there is no regular cell).
    The quantile of chi^2 with k = cells - 1 degrees of freedom is
    Wilson-Hilferty's k (1 - 2/(9k) + z sqrt(2/(9k)))^3, z the standard
    normal quantile at 1 - FALSE_ALARM.  A ratio above 1 refuses the counts;
    a string drawn at probability 0 gives inf, and a single cell gives 0.0.
    """
    trials = sum(counts.values())
    cells, pooled = [], np.zeros(2)
    for s, p in probs.items():
        observed, expected = counts.get(s, 0), trials * p
        if observed and not expected > 0.0:
            return math.inf
        if expected < 5.0:
            pooled += observed, expected
        else:
            cells.append((observed, expected))
    if 0.0 < pooled[1] < 5.0 and cells:
        i = min(range(len(cells)), key=lambda c: cells[c][1])
        cells[i] = (cells[i][0] + pooled[0], cells[i][1] + pooled[1])
    elif pooled[1] > 0.0:
        cells.append(tuple(pooled))
    k = len(cells) - 1
    if k < 1:
        return 0.0
    from statistics import NormalDist  # here, so that no CLI start pays for it

    g = 2.0 * sum(o * math.log(o / e) for o, e in cells if o)
    z = NormalDist().inv_cdf(1.0 - FALSE_ALARM)
    return g / (k * (1.0 - 2.0 / (9 * k) + z * math.sqrt(2.0 / (9 * k))) ** 3)


def exact_label_distribution(parsed: dict) -> dict:
    """The exact probability of every label string of a parsed config's trials, by the stepwise referee.

    All 2^m strings of its m measurements run through the policy as one
    batch, so each prefix gets the detector a trial would get after it; each
    string's joint probability is compact_sequence_prob's, which applies each
    loss where it occurs, and 0.0 for a string with a forced label below
    ZERO_PROB_EPS.
    """
    schedule = parsed["schedule"]
    m = schedule.measurement_count()
    labels = np.array(list(product((0, 1), repeat=m)), dtype=int).reshape(-1, m)
    settings, detectors = None, []
    for j in range(m):
        settings = parsed["policy"].next_settings(labels[:, :j], settings)
        detectors.append(settings)
    probs = {}
    for row, string in enumerate(labels.tolist()):
        measured = iter([("measure", (float(theta[row]), float(phi[row])), label)
                         for (theta, phi), label in zip(detectors, string)])
        steps = [("lose",) if ev == "lose" else next(measured) for ev in schedule.events]
        try:
            p = compact_sequence_prob(parsed["input"], steps, parsed["channel"])[0]
        except ZeroProbabilityError:
            p = 0.0
        probs["".join(map(str, string))] = p
    return probs


def check_born_rule_sampling(params: SuiteParams) -> PropertyResult:
    """Trials draw each label string with its Born-rule probability.

    Each of ceil(seeds / 2) cases is a random ket on n = 3 to max(max_n, 3)
    qubits, a fixed, round-robin or feedback policy (in turn), a random phase
    and a schedule of at most 6 measurements among random losses.
    run_ensemble runs BORN_TRIALS trials of it from a fixed seed, and
    g_test_ratio compares the counts of its label strings with
    exact_label_distribution's.  The seeds are fixed, so the result is
    deterministic.  Over random seeds, a correct sampler would fail a case
    with probability about FALSE_ALARM (1e-6), and the property at most
    cases * FALSE_ALARM: 1e-5 for the 10 cases at the suite defaults
    (2.5e-5 at --seeds 50).  No other property samples, so that is also the
    suite's false-alarm rate.  The residual is the worst ratio, against a
    tolerance of 1.0.
    """
    tally = _Tally()
    for case, rng, n in _cases(15_000, -(-params.seeds // 2), 3, max(params.max_n, 3)):
        m = int(rng.integers(1, min(n, 6) + 1))
        events = ["measure"] * m + ["lose"] * int(rng.integers(0, n - m + 1))
        a = [float(x) for x in rng.uniform(0.0, math.pi, 4)]
        amps = random_symmetric_ket(n, rng).amps
        config = {
            "input": {"type": "custom", "amps": [[z.real, z.imag] for z in amps.tolist()]},
            "n": n,
            "phi": float(rng.uniform(0.0, 2.0 * math.pi)),
            "policy": ({"type": "fixed", "theta": a[0], "phi": a[1]},
                       {"type": "round_robin", "bases": [{"theta": a[0], "phi": a[1]}, {"theta": a[2], "phi": a[3]}]},
                       {"type": "feedback", "delta": a[0], "theta": a[1], "initial_phi": a[2]})[case % 3],
            "schedule": [str(ev) for ev in rng.permutation(events)],
            "trials": BORN_TRIALS,
            "seed": int(rng.integers(0, 2**31)),
            "estimate": False,
        }
        counts = {s: c["count"] for s, c in run_ensemble(config)["outcome_sequences"].items()}
        tally.add(g_test_ratio(counts, exact_label_distribution(parse_config(config))))
    return tally.result("born_rule_sampling", 1.0)


def check_pure_state_sufficiency(params: SuiteParams) -> PropertyResult:
    """Dense post-PVM state = |l'> at the measured spot (x) compact rest."""
    tally = _Tally()
    for _, rng, n in _cases(7000, params.seeds, 2, params.max_n):
        ket = random_symmetric_ket(n, rng)
        pvm = random_pvm(rng)
        position = int(rng.integers(1, n + 1))
        outcomes = measure_pure(ket, pvm)
        label = _safe_label(outcomes, rng)
        post = outcomes[label].require_post_state()
        p_dense, amps = dense_pure_pvm_sequence(expand(ket), [(position, pvm, label)])
        product = embed_qubit(expand(post).amps, pvm.basis_ket(label), position, n)
        fidelity = abs(np.vdot(product, amps)) ** 2
        tally.add(abs(1.0 - fidelity), abs(p_dense - outcomes[label].probability))
    return tally.result("pure_state_sufficiency", params.tolerance)


def check_ordering_independence(params: SuiteParams) -> PropertyResult:
    """Joint PVM probabilities agree for any two injective position choices."""
    tally = _Tally()
    for _, rng, n in _cases(8000, params.seeds, 2, params.max_n):
        m = int(rng.integers(1, n + 1))
        ket = expand(random_symmetric_ket(n, rng))
        pvms = [random_pvm(rng) for _ in range(m)]
        labels = [int(rng.integers(0, 2)) for _ in range(m)]
        pos_a = [int(p) + 1 for p in rng.choice(n, size=m, replace=False)]
        pos_b = [int(p) + 1 for p in rng.choice(n, size=m, replace=False)]
        pa, _ = dense_pure_pvm_sequence(ket, list(zip(pos_a, pvms, labels)))
        pb, _ = dense_pure_pvm_sequence(ket, list(zip(pos_b, pvms, labels)))
        tally.add(abs(pa - pb))
    return tally.result("ordering_independence", params.tolerance)


def check_trace_povm_commutation(params: SuiteParams) -> PropertyResult:
    """Partial trace and a measurement on another qubit commute."""
    tally = _Tally()
    for _, rng, n in _cases(9000, params.seeds, 2, params.max_n):
        rho = random_symmetric_density(n, rng)
        kraus = random_kraus_pair(rng)
        # compact: measure-then-lose vs lose-then-measure
        first = measure_mixed(rho, kraus)
        after = measure_mixed(lose_qubit(rho), kraus)
        residuals = [abs(o_a.probability - o_b.probability) for o_a, o_b in zip(first, after)]
        if n >= 3:
            label = _safe_label(first, rng)
            a = lose_qubit(first[label].require_post_state())
            b = after[label].require_post_state()
            # equal probabilities and equal reduced coefficient matrices
            residuals.append(float(np.max(np.abs(a.alpha - b.alpha))))
        tally.add(*residuals)
        # dense identity tr_j(K_i rho K_i^dag) = K_i tr_j(rho) K_i^dag
        if n >= 2 and n <= 8:
            dense = expand_density(rho).matrix
            k = random_kraus_pair(rng)[0].matrix
            lhs = partial_trace_raw(_sandwich_at(dense, n, 2, k), n, {1})
            rhs = _sandwich_at(partial_trace_raw(dense, n, {1}), n - 1, 1, k)
            tally.add(float(np.max(np.abs(lhs - rhs))))
    return tally.result("trace_povm_commutation", params.tolerance)


def check_loss_mechanism_irrelevance(params: SuiteParams) -> PropertyResult:
    """A pre-loss channel on the lost qubit never changes the reduced state, n <= min(max_n, 8)."""
    tally = _Tally()
    for _, rng, n in _cases(10_000, params.seeds, 2, min(params.max_n, 8)):
        rho = expand_density(random_symmetric_density(n, rng))
        j = int(rng.integers(1, n + 1))
        mangled = apply_kraus_at(rho, j, random_kraus_pair(rng))
        a = partial_trace(mangled, {j})
        b = partial_trace(rho, {j})
        tally.add(float(np.max(np.abs(a.matrix - b.matrix))))
    return tally.result("loss_mechanism_irrelevance", IDENTITY_TOL)


def check_permutation_group(params: SuiteParams) -> PropertyResult:
    """P is a unitary representation: group law, inverses, basis invariance, n <= min(max_n, 8).

    Permutation operators are pure index relabelings, so these identities
    hold exactly, with zero tolerance.
    """
    tally = _Tally()
    for _, rng, n in _cases(11_000, params.seeds, 2, min(params.max_n, 8)):
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        ket = DenseKet(n, amps / np.linalg.norm(amps))
        p1, p2 = random_permutation(n, rng), random_permutation(n, rng)
        lhs = apply_permutation(ket, p1.compose(p2))
        rhs = apply_permutation(apply_permutation(ket, p2), p1)
        back = apply_permutation(apply_permutation(ket, p1), p1.inverse())
        sym = expand(basis_state(n, int(rng.integers(0, n + 1))))
        moved = apply_permutation(sym, p1)
        tally.add(float(np.max(np.abs(lhs.amps - rhs.amps))), float(np.max(np.abs(back.amps - ket.amps))),
                  float(np.max(np.abs(moved.amps - sym.amps))), cases=3)
    return tally.result("permutation_group_law", EXACT_TOL)


def check_remark12_specialization(params: SuiteParams) -> PropertyResult:
    """measure_mixed with projectors reproduces the PVM coefficient update, n <= min(max_n, 8)."""
    tally = _Tally()
    for _, rng, n in _cases(12_000, params.seeds, 1, min(params.max_n, 8)):
        rho = random_symmetric_density(n, rng)
        pvm = random_pvm(rng)
        got = measure_mixed(rho, pvm.kraus_pair())
        for ell in (0, 1):
            raw = _pvm_update_transcription(rho.alpha, n, pvm.kappa, ell)
            p = raw.trace().real
            tally.add(abs(p - got[ell].probability))
            if got[ell].post_state is not None and p > 1e-12:
                tally.add(float(np.max(np.abs(raw / p - got[ell].post_state.alpha))), cases=0)
        pure = random_symmetric_ket(n, rng)
        a = [o.probability for o in measure_pure(pure, pvm)]
        b = [o.probability for o in measure_mixed(to_density(pure), pvm.kraus_pair())]
        tally.add(*(abs(x - y) for x, y in zip(a, b)))
    return tally.result("pvm_update_specialization", IDENTITY_TOL)


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


PROPERTY_BUILDERS = {
    "worked_example_split": check_worked_example,
    "xi_completeness_and_support": check_xi_completeness,
    "split_reconstruction": check_split_vs_oracle,
    "basis_characterization": check_basis_characterization,
    "residual_symmetry_after_channels": check_residual_symmetry,
    "measurement_oracle_equivalence": check_measurement_oracle,
    "loss_independence": check_loss_independence,
    "pure_state_sufficiency": check_pure_state_sufficiency,
    "ordering_independence": check_ordering_independence,
    "trace_povm_commutation": check_trace_povm_commutation,
    "loss_mechanism_irrelevance": check_loss_mechanism_irrelevance,
    "permutation_group_law": check_permutation_group,
    "pvm_update_specialization": check_remark12_specialization,
    "estimator_replay_equivalence": check_estimator_replay,
    "batched_trial_equivalence": check_batched_trials,
    "born_rule_sampling": check_born_rule_sampling,
}


def run_suite(params: SuiteParams, workers: int) -> dict:
    """Run every property; the report is JSON-ready."""
    if params.max_n > density_cap():
        raise ResourceLimitError(f"max_n {params.max_n} exceeds dense density cap {density_cap()}")
    if params.max_n < 2 or min(params.seeds, workers) < 1:
        raise DomainError(f"max_n must be >= 2 and seeds and workers >= 1, "
                          f"got {params.max_n}, {params.seeds} and {workers}")
    results = list(_ordered_map(partial(_run_one_property, params=params), workers,
                                list(PROPERTY_BUILDERS)))
    return {
        "schema_version": SCHEMA_VERSION,
        "parameters": asdict(params),
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
