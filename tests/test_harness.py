"""Unit tests for the adaptive-measurement harness."""

import math

import numpy as np
import pytest

from dicke_sim.errors import ConfigError, DomainError, ResourceLimitError, ZeroProbabilityError
from dicke_sim.harness import (
    ExperimentTrace,
    TIE_TOL,
    TraceEvent,
    _norm2,
    combined_pvm,
    evaluate_sequence,
    grid_log_likelihoods,
    ml_phase_estimate,
    run_ensemble,
    run_pvm_cascade,
    run_trial,
    run_trials,
)
from dicke_sim.measure import (
    ZERO_PROB_EPS,
    SingleQubitPVM,
    bloch_kappas,
    measure_pure,
    measure_pure_batch,
    pvm_from_bloch,
)
from dicke_sim.spec import (
    FeedbackPolicy,
    FixedPolicy,
    LossSchedule,
    PhaseChannel,
    RoundRobinPolicy,
    input_from_config,
    parse_config,
)
from dicke_sim.states import SymmetricDensity, SymmetricKet, basis_state, general_split, make_ket
from dicke_sim.verify import (
    IDENTITY_TOL,
    PROPERTY_BUILDERS,
    SuiteParams,
    _coefficient_gap,
    _run_one_property,
    _Tally,
    check_batched_trials,
    check_born_rule_sampling,
    check_estimator_replay,
    compact_sequence_prob,
    exact_label_distribution,
    g_test_ratio,
    random_pvm,
    random_symmetric_ket,
    unlikely_noon_trace,
)


class TestCombinedPvm:
    def test_identity_channel(self):
        detector = pvm_from_bloch(math.pi / 2, 0)
        out = combined_pvm(PhaseChannel(0.0), detector)
        assert np.array_equal(out.kappa, detector.kappa)

    def test_pi_phase_on_hadamard(self):
        out = combined_pvm(PhaseChannel(math.pi), pvm_from_bloch(math.pi / 2, 0))
        s = 1 / math.sqrt(2)
        assert np.allclose(out.kappa[0], [s, -s], atol=1e-15)
        assert np.allclose(out.kappa @ out.kappa.conj().T, np.eye(2), atol=1e-14)

    def test_matches_dense_two_step(self):
        from dicke_sim.oracle import DenseKet, apply_matrix_at_ket, expand
        from dicke_sim.verify import dense_pure_pvm_sequence

        rng = np.random.default_rng(3)
        n, phi = 6, 1.3
        ket = random_symmetric_ket(n, rng)
        detector = pvm_from_bloch(1.1, 0.4)
        channel = PhaseChannel(phi)
        outcomes = measure_pure(ket, combined_pvm(channel, detector))
        for position in (2, 5):
            rotated = apply_matrix_at_ket(expand(ket).amps, n, position, channel.unitary())
            dense = DenseKet(n, rotated)
            for out in outcomes:
                p, _ = dense_pure_pvm_sequence(dense, [(position, detector, out.label)])
                assert out.probability == pytest.approx(p, abs=1e-10)


class TestPolicies:
    def test_fixed(self):
        assert _setting(FixedPolicy(0.1, 0.2), []) == (0.1, 0.2)

    def test_round_robin_cycles(self):
        policy = RoundRobinPolicy(((0.0, 0.0), (1.0, 1.0)))
        hist = []
        assert _setting(policy, hist) == (0.0, 0.0)
        hist.append(0)
        assert _setting(policy, hist) == (1.0, 1.0)
        hist.append(1)
        assert _setting(policy, hist) == (0.0, 0.0)

    def test_round_robin_empty_rejected(self):
        with pytest.raises(ConfigError):
            RoundRobinPolicy(())

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("build", [
        lambda x: FixedPolicy(x, 0.2), lambda x: FixedPolicy(0.1, x),
        lambda x: RoundRobinPolicy(((0.3, 0.4), (0.5, x))), lambda x: RoundRobinPolicy(((x, 0.4),)),
        lambda x: FeedbackPolicy(x), lambda x: FeedbackPolicy(0.5, x), lambda x: FeedbackPolicy(0.5, 1.0, x),
    ])
    def test_non_finite_settings_rejected_when_built(self, build, bad):
        with pytest.raises(DomainError, match="must be finite"):
            build(bad)

    def test_feedback_steps_by_delta_over_m(self):
        policy = FeedbackPolicy(delta=0.6, initial_phi=1.0)
        hist = []
        assert _setting(policy, hist)[1] == pytest.approx(1.0)
        hist.append(0)
        assert _setting(policy, hist)[1] == pytest.approx(1.0 + 0.6)
        hist.append(1)
        assert _setting(policy, hist)[1] == pytest.approx(1.0 + 0.6 - 0.3)

    def test_feedback_step_needs_previous_settings(self):
        with pytest.raises(DomainError, match="needs its settings after 1 outcomes"):
            FeedbackPolicy(delta=0.4).next_settings(np.zeros((3, 2), dtype=int), None)

    def test_feedback_pure_function_of_history(self):
        policy = FeedbackPolicy(delta=0.4)
        hist = [1, 0, 1]
        assert _setting(policy, hist) == _setting(policy, list(hist))

    def test_feedback_batch_equals_running_sum_loop(self):
        # the per-trial loop the batched method replaced, as the exact reference
        policy = FeedbackPolicy(delta=0.7, theta=1.1, initial_phi=0.25)
        labels = np.random.default_rng(4).integers(0, 2, size=(6, 40))
        settings = None
        for m in range(41):
            thetas, phis = settings = policy.next_settings(labels[:, :m], settings)
            for t in range(6):
                phase = policy.initial_phi
                for j, label in enumerate(labels[t, :m].tolist(), start=1):
                    phase += policy.delta / j if label == 0 else -policy.delta / j
                assert (thetas[t], phis[t]) == (policy.theta, phase)


def _outcome_labels(trace: ExperimentTrace) -> tuple[int, ...]:
    """The label of each measurement in the trace, in order."""
    return tuple(ev.label for ev in trace.events if ev.kind == "measure")


def _setting(policy, labels):
    """(theta, phi) for one trial with these labels so far, stepping the batched method once per label."""
    history = np.array([labels], dtype=int).reshape(1, len(labels))
    settings = None
    for j in range(len(labels) + 1):
        settings = policy.next_settings(history[:, :j], settings)
    return (float(settings[0][0]), float(settings[1][0]))


class TestLossSchedule:
    def test_validates_events(self):
        with pytest.raises(ConfigError):
            LossSchedule(("measure", "evaporate"))

    def test_random_generator_deterministic(self):
        a = LossSchedule.random(10, 0.3, seed=4)
        b = LossSchedule.random(10, 0.3, seed=4)
        assert a.events == b.events
        assert set(a.events) <= {"measure", "lose"}

    def test_rate_edges(self):
        assert LossSchedule.random(5, 0.0, 1).events == ("measure",) * 5
        assert LossSchedule.random(5, 1.0, 1).events == ("lose",) * 5


class TestRunTrial:
    def test_huge_lossy_schedule_refused_before_the_density(self):
        # the trial holds 20001 amplitudes; its 19998-qubit final density would hold 19999**2 entries
        ket = input_from_config({"type": "uniform"}, 20000)
        schedule, message = LossSchedule(("measure", "lose")), "the loss table or final density needs 399960001 "
        with pytest.raises(ResourceLimitError, match=message):
            run_trial(ket, PhaseChannel(0.3), FixedPolicy(), schedule, seed=1)
        with pytest.raises(ResourceLimitError, match=message):
            evaluate_sequence(ket, PhaseChannel(0.3), [("measure", (0.0, 0.0), 0), ("lose",)])

    def test_all_lose_schedule(self):
        trace = run_trial(
            basis_state(4, 2), PhaseChannel(0.3), FixedPolicy(), LossSchedule(("lose",) * 3), seed=1
        )
        assert _outcome_labels(trace) == ()
        assert isinstance(trace.final_state, SymmetricDensity)
        assert trace.final_state.n == 1
        assert trace.final_state.alpha.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_hamming_weight_conservation(self):
        # computational-basis cascade on |nu>: labels carry exactly nu ones
        for seed in range(8):
            trace = run_trial(
                basis_state(6, 2),
                PhaseChannel(0.0),
                FixedPolicy(0.0, 0.0),
                LossSchedule.lossless(6),
                seed=seed,
            )
            assert sum(_outcome_labels(trace)) == 2

    def test_deterministic_given_seed(self):
        cfgs = (basis_state(5, 3), PhaseChannel(1.7), FeedbackPolicy(0.5), LossSchedule.lossless(5))
        a = run_trial(*cfgs, seed=123)
        b = run_trial(*cfgs, seed=123)
        assert a.events == b.events
        assert np.array_equal(a.final_state.amps, b.final_state.amps)

    def test_purity_preserved_without_loss(self):
        trace = run_trial(
            basis_state(5, 3), PhaseChannel(0.8), FeedbackPolicy(0.3), LossSchedule.lossless(5), seed=9
        )
        assert isinstance(trace.final_state, SymmetricKet)
        assert trace.final_state.n == 0

    def test_density_after_first_loss(self):
        trace = run_trial(
            basis_state(4, 1),
            PhaseChannel(0.8),
            FixedPolicy(0.3, 0.1),
            LossSchedule(("measure", "lose", "measure")),
            seed=2,
        )
        assert isinstance(trace.final_state, SymmetricDensity)
        assert len(trace.events) == 3

    def test_final_state_matches_stepwise_mixed_replay(self):
        # losses are deferred to the end; the stepwise referee loses each qubit
        # where the schedule says and measures the mixed state from then on
        rng = np.random.default_rng(41)
        ket = random_symmetric_ket(10, rng)
        channel, policy = PhaseChannel(0.9), FeedbackPolicy(0.7, 1.2, 0.4)
        schedule = LossSchedule.random(10, 0.4, seed=8)
        assert 0 < schedule.events.count("lose") < 10
        trace = run_trial(ket, channel, policy, schedule, seed=17)
        _, probs, state = compact_sequence_prob(ket, trace.steps(), channel)
        recorded = [ev.probability for ev in trace.events if ev.kind == "measure"]
        assert probs == pytest.approx(recorded, abs=1e-12)
        assert isinstance(trace.final_state, SymmetricDensity) and isinstance(state, SymmetricDensity)
        assert np.max(np.abs(trace.final_state.alpha - state.alpha)) < 1e-12

    def test_schedule_too_long(self):
        with pytest.raises(DomainError):
            run_trial(
                basis_state(2, 1), PhaseChannel(0), FixedPolicy(), LossSchedule.lossless(3), seed=0
            )


class TestBatchedTrials:
    def _lossy_feedback_config(self, trials):
        rng = np.random.default_rng(31)
        amps = rng.standard_normal(9) + 1j * rng.standard_normal(9)
        return {
            "input": {"type": "custom", "amps": [[z.real, z.imag] for z in amps.tolist()]},
            "n": 8,
            "phi": 1.4,
            "policy": {"type": "feedback", "delta": 0.6, "initial_phi": 0.3},
            "schedule": ["measure", "lose", "measure", "measure", "lose", "measure"],
            "trials": trials,
            "seed": 500,
            "estimate": True,
        }

    def test_uniforms_are_default_rng_streams(self, monkeypatch):
        # the block draws each trial's uniforms from PCG64(seed): default_rng(seed)'s stream, one per measurement
        import dicke_sim.harness as harness

        drawn = []

        def recording(kets, kappas, uniforms):
            drawn.append(uniforms.copy())
            return measure_pure_batch(kets, kappas, uniforms)

        monkeypatch.setattr(harness, "measure_pure_batch", recording)
        # config seeds have no upper bound
        seeds = [0, 1, 2**31 - 1, 2**40, 2**63, 2**64 - 1, 2**100, 12345678901234567890123]
        ket = random_symmetric_ket(7, np.random.default_rng(2))
        schedule = LossSchedule(("measure", "lose") * 3)
        harness._trial_block(ket, PhaseChannel(0.4), FeedbackPolicy(0.5), schedule, seeds)
        want = [np.random.default_rng(seed).random(3) for seed in seeds]
        assert np.array_equal(np.transpose(drawn), want)

    def test_final_kets_norm_checked_once(self, monkeypatch):
        # the steps leave the kets' norms to construction; the block checks its
        # final kets once, with the message SymmetricKet gives for the bad one alone
        import dicke_sim.harness as harness

        returned = []

        def stretching(kets, kappas, uniforms):
            labels, probs, kets = measure_pure_batch(kets, kappas, uniforms)
            kets[1] *= 1.0 + 1e-11  # the next step's probabilities still sum to 1 within PROB_SUM_TOL
            returned.append(kets)
            return labels, probs, kets

        monkeypatch.setattr(harness, "measure_pure_batch", stretching)
        ket = random_symmetric_ket(6, np.random.default_rng(4))
        with pytest.raises(DomainError) as whole:
            harness._trial_block(ket, PhaseChannel(0.4), FeedbackPolicy(0.5), LossSchedule.lossless(3), [5, 6, 7])
        assert len(returned) == 3  # no step refused the stretched ket
        with pytest.raises(DomainError) as alone:
            SymmetricKet(3, returned[-1][1])
        assert str(whole.value) == str(alone.value) == "ket is not normalized: |norm - 1| = 1.000e-11"

    def test_detectors_off_unitarity_refused_by_the_sum_rule(self, monkeypatch):
        # no step re-derives the detectors' orthonormality; one 1e-6 off shows in p0 + p1
        import dicke_sim.harness as harness

        def skewed(theta, phi):
            kappas = bloch_kappas(theta, phi)
            kappas[..., 1, 0] *= 1.0 + 1e-6
            return kappas

        monkeypatch.setattr(harness, "bloch_kappas", skewed)
        ket = random_symmetric_ket(6, np.random.default_rng(5))
        with pytest.raises(DomainError, match="outcome probabilities do not sum to 1"):
            harness._trial_block(ket, PhaseChannel(0.4), FixedPolicy(0.7, 0.3), LossSchedule.lossless(3), [1, 2])

    def test_blocks_match_trial_by_trial(self, monkeypatch):
        import dicke_sim.harness as harness

        config = self._lossy_feedback_config(10)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 4 * harness._trial_bytes(8, 4, False))  # blocks of 4, 4 and 2
        sizes = []
        batched = harness._trial_block

        def recording(*args):
            sizes.append(len(args[-1]))
            return batched(*args)

        monkeypatch.setattr(harness, "_trial_block", recording)
        report = run_ensemble(config)
        assert sizes == [4, 4, 2]
        parsed = parse_config(config)
        args = (parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"])
        counts, estimates = {}, {}
        for t in range(10):
            trace = run_trial(*args, parsed["seed"] + t)
            labels = "".join(str(b) for b in _outcome_labels(trace))
            counts[labels] = counts.get(labels, 0) + 1
            key = f"{ml_phase_estimate(parsed['input'], trace):.10f}"
            estimates[key] = estimates.get(key, 0) + 1
        assert {k: v["count"] for k, v in report["outcome_sequences"].items()} == counts
        assert report["estimation"]["estimate_distribution"] == estimates

    def test_block_size_counts_kets_not_densities(self, monkeypatch):
        import io

        import dicke_sim.harness as harness

        # n = 600: a (n+1, n+1) density is 5.8 MB, over BLOCK_BYTES, but no ensemble block builds one
        config = {"input": {"type": "uniform"}, "n": 600, "phi": 0.5, "policy": {"type": "fixed", "theta": 1.0},
                  "schedule": ["measure", "measure", "lose"], "trials": 40, "seed": 4}
        sizes = []
        batched = harness._trial_block
        monkeypatch.setattr(harness, "_trial_block", lambda *args: sizes.append(len(args[-1])) or batched(*args))
        run_ensemble(config)
        assert sizes == [40]
        sizes.clear()
        run_ensemble(config, trace_sink=io.StringIO())  # the trace text counts too: 18 trials a block
        per_trial = harness._trial_bytes(600, 2, True)
        assert sizes == [18, 18, 4] and 18 * per_trial <= harness.BLOCK_BYTES < 19 * per_trial

    def test_split_table_is_kept_read_only(self):
        from dicke_sim.states import _split_table, general_split

        nus, xi = _split_table(9, 3)
        assert _split_table(9, 3)[1] is xi  # the run_trials blocks of one (n, k) share it
        assert not nus.flags.writeable and not xi.flags.writeable
        for j in range(4):
            for mu in range(7):
                want = general_split(9, mu + j, 3).get(j, 0.0)
                assert nus[j, mu] == mu + j and xi[j, mu] == want

    def test_split_table_filled_once_per_ensemble(self):
        from dicke_sim.states import _split_table

        _split_table.cache_clear()
        run_ensemble(self._lossy_feedback_config(50))  # every estimate reads the (8, 4) table
        assert _split_table.cache_info().misses == 1
        parsed = parse_config(self._lossy_feedback_config(1))
        args = (parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"])
        for seeds in ([1, 2, 3], [4, 5]):  # final densities read (4, 2), their estimates (8, 4)
            for trace in run_trials(*args, seeds):
                ml_phase_estimate(parsed["input"], trace)
        assert _split_table.cache_info().misses == 2

    def test_trial_does_not_depend_on_its_block(self):
        parsed = parse_config(self._lossy_feedback_config(1))
        args = (parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"])
        block = run_trials(*args, [3, 9, 4, 1, 5])
        for trace in block:
            alone = run_trial(*args, trace.seed)
            assert alone.events == trace.events
            assert np.array_equal(alone.final_state.alpha, trace.final_state.alpha)

    def test_workers_match_on_lossy_feedback(self):
        import io

        # an even split, a split that the worker count does not divide, more workers than trials
        for trials, workers in [(9, 2), (7, 3), (2, 3)]:
            config = self._lossy_feedback_config(trials)
            sinks = io.StringIO(), io.StringIO()
            one = run_ensemble(config, workers=1, trace_sink=sinks[0])
            many = run_ensemble(config, workers=workers, trace_sink=sinks[1])
            assert one == many
            assert sinks[0].getvalue() == sinks[1].getvalue()

    def test_nan_setting_rejected(self):
        class NanForSecondTrial(FixedPolicy):
            def next_settings(self, labels, previous):
                theta, phi = super().next_settings(labels, previous)
                phi[1] = math.nan
                return theta, phi

        with pytest.raises(DomainError, match="finite"):
            run_trials(basis_state(3, 1), PhaseChannel(0.2), NanForSecondTrial(), LossSchedule.lossless(2), [1, 2, 3])

    def test_forced_replay_reproduces_trials_exactly(self):
        # trials and forced replays step through one kernel, so forcing a
        # trial's labels gives back its probabilities and final state bit for bit
        for seed in range(30):
            rng = np.random.default_rng(70_000 + seed)
            n = int(rng.integers(2, 81))
            ket = random_symmetric_ket(n, rng)
            a = [float(x) for x in rng.uniform(0.0, math.pi, 4)]
            policy = (FixedPolicy(a[0], a[1]), RoundRobinPolicy(((a[0], a[1]), (a[2], a[3]))),
                      FeedbackPolicy(a[0], a[1], a[2]))[seed % 3]
            schedule = LossSchedule.random(int(rng.integers(1, n)), 0.3, int(rng.integers(0, 2**31)))
            channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
            for trace in run_trials(ket, channel, policy, schedule, [int(s) for s in rng.integers(0, 2**31, 4)]):
                probs, final = evaluate_sequence(ket, channel, trace.steps())
                assert probs == [ev.probability for ev in trace.events if ev.kind == "measure"]
                assert type(final) is type(trace.final_state)
                coefficients = [s.amps if isinstance(s, SymmetricKet) else s.alpha for s in (final, trace.final_state)]
                assert coefficients[0].tobytes() == coefficients[1].tobytes()

    def test_matches_stepwise_lossy_replay(self):
        result = check_batched_trials(SuiteParams(max_n=10, seeds=30))
        assert result.passed, result

    def test_exactly_hermitian_densities_at_twelve_qubits(self):
        # a block-dependent last bit in the final densities showed up only at this size
        result = check_batched_trials(SuiteParams(max_n=12, seeds=200))
        assert result.passed, result


class TestLossTransparency:
    def test_probabilities_identical_with_interleaved_losses(self):
        rng = np.random.default_rng(15)
        ket = random_symmetric_ket(9, rng)
        channel = PhaseChannel(2.1)
        measures = [("measure", (1.2, 0.7), 1), ("measure", (0.4, 2.2), 0), ("measure", (2.0, 4.0), 1)]
        lossless = list(measures)
        lossy = [("lose",), measures[0], ("lose",), ("lose",), measures[1], measures[2], ("lose",)]
        p_clean, final_clean = evaluate_sequence(ket, channel, lossless)
        p_lossy, final_lossy = evaluate_sequence(ket, channel, lossy)
        assert np.allclose(p_clean, p_lossy, atol=1e-10)
        assert isinstance(final_clean, SymmetricKet)
        assert isinstance(final_lossy, SymmetricDensity)

    def test_stepwise_referee_reads_the_replay_steps(self):
        # the referee takes evaluate_sequence's own steps and channel, and
        # loses each qubit where the loss occurs instead of at the end
        losses = 0
        for seed in range(12):
            rng = np.random.default_rng(90_000 + seed)
            n = int(rng.integers(3, 13))
            ket = random_symmetric_ket(n, rng)
            schedule = LossSchedule.random(n - 1, 0.4, int(rng.integers(0, 2**31)))
            policy = FeedbackPolicy(*(float(x) for x in rng.uniform(0.0, math.pi, 3)))
            channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
            steps = run_trial(ket, channel, policy, schedule, seed).steps()
            probs, final = evaluate_sequence(ket, channel, steps)
            joint, stepwise, stepwise_final = compact_sequence_prob(ket, steps, channel)
            assert len(stepwise) == len(probs)
            assert max(abs(p - q) for p, q in zip(probs, stepwise)) <= 1e-12
            assert joint == math.prod(stepwise)
            assert _coefficient_gap(final, stepwise_final) <= IDENTITY_TOL
            losses += schedule.events.count("lose")
        assert losses > 0

    def test_stepwise_referee_refuses_a_label_below_eps(self):
        # |0..0> read by a detector 1e-7 from theta = 0: label 1 has probability 2.5e-15
        steps = [("lose",), ("measure", (1e-7, 0.3), 1)]
        channel = PhaseChannel(0.4)
        assert 0.0 < math.sin(0.5e-7) ** 2 < ZERO_PROB_EPS
        with pytest.raises(ZeroProbabilityError):
            compact_sequence_prob(basis_state(3, 0), steps, channel)
        with pytest.raises(ZeroProbabilityError):
            evaluate_sequence(basis_state(3, 0), channel, steps)


_CORRUPTIONS = pytest.mark.parametrize("corrupt", [
    lambda a: 1.01 * a,  # trace 1.01: the density constructor refuses it
    lambda a: 0.99 * a + 0.01 * np.eye(len(a)) / len(a),  # a valid density 1 % off
], ids=["scaled", "depolarized"])


class TestDeferredTraceOutReferee:
    """A deferred trace-out 1 % off fails its referees instead of being skipped."""

    @staticmethod
    def _corrupted(name, corrupt, monkeypatch):
        import dicke_sim.harness as harness

        monkeypatch.setattr(harness, "SymmetricDensity", lambda n, a: SymmetricDensity(n, corrupt(a)))
        return _run_one_property(name, SuiteParams())

    @_CORRUPTIONS
    def test_loss_independence_fails(self, corrupt, monkeypatch):
        result = self._corrupted("loss_independence", corrupt, monkeypatch)
        assert not result.passed, result

    @_CORRUPTIONS
    def test_batched_trial_equivalence_fails(self, corrupt, monkeypatch):
        # its final densities are at least 2x2, so a depolarized one differs
        result = self._corrupted("batched_trial_equivalence", corrupt, monkeypatch)
        assert not result.passed, result


class TestNanResiduals:
    """A NaN residual fails its property: max(worst, nan) would keep worst."""

    def test_reduction_is_nan_sticky(self):
        tally = _Tally()
        tally.add(1.0, math.nan, 2.0)
        assert math.isnan(tally.worst)
        tally.add(3.0)
        assert math.isnan(tally.worst) and tally.cases == 2
        tally = _Tally()
        tally.add(0.5, 0.25, cases=0)
        tally.add(2.0)
        assert tally.worst == 2.0 and tally.cases == 1

    def test_nan_split_coefficients_fail_completeness(self, monkeypatch):
        import dicke_sim.verify as verify

        def nan_above_25(n, nu, k):
            coeffs = general_split(n, nu, k)
            return coeffs if n <= 25 else dict.fromkeys(coeffs, math.nan)

        monkeypatch.setattr(verify, "general_split", nan_above_25)
        result = _run_one_property("xi_completeness_and_support", SuiteParams())
        assert not result.passed and math.isnan(result.worst_residual), result

    @pytest.mark.parametrize("name", ["residual_symmetry_after_channels", "loss_mechanism_irrelevance"])
    def test_nan_channel_fails(self, name, monkeypatch):
        import dicke_sim.oracle as oracle

        channel_at = oracle._channel_at

        def nan_coherence(matrix, *args):  # NaN in one Hermitian pair of entries, the trace intact
            out = channel_at(matrix, *args)
            out[0, 1] = out[1, 0] = math.nan
            return out

        monkeypatch.setattr(oracle, "_channel_at", nan_coherence)
        result = _run_one_property(name, SuiteParams())
        assert not result.passed, result


class TestTally:
    """A property passes iff its worst residual is within tolerance and every requirement held."""

    def test_failed_requirement_fails_a_zero_residual(self):
        tally = _Tally()
        tally.add(0.0)
        tally.require(False, "broken")
        result = tally.result("p", 1.0)
        assert result.worst_residual == 0.0 and result.passed is False and result.note == "broken"

    def test_notes_join_in_order(self):
        tally = _Tally()
        tally.require(False, "first")
        tally.require(True, "held")
        tally.require(False, "second")
        assert tally.result("p", 1.0).note == "first; second"
        held = _Tally()
        held.require(True, "held")
        assert held.result("p", 1.0).note == "" and held.result("p", 1.0).passed is True

    def test_nan_stays_sticky(self):
        tally = _Tally()
        tally.add(math.nan)
        tally.add(0.5, 2.0)
        tally.require(True, "held")
        result = tally.result("p", math.inf)
        assert math.isnan(result.worst_residual) and result.passed is False and result.note == ""

    def test_result_is_plain_python(self):
        tally = _Tally()
        tally.add(np.float64(0.25), cases=np.int64(3))
        result = tally.result("p", np.float64(0.5))
        assert (type(result.cases), type(result.worst_residual), type(result.tolerance), type(result.passed)) \
            == (int, float, float, bool)


class TestSuiteVerdicts:
    """Every property reports plain values and passes only within its tolerance."""

    @pytest.mark.parametrize("params", [SuiteParams(max_n=3, seeds=2), SuiteParams(max_n=3, seeds=2, tolerance=4e-16)],
                             ids=["smoke", "tight"])
    def test_every_property(self, params):
        for name, builder in PROPERTY_BUILDERS.items():
            self._check(name, builder(params))

    @pytest.mark.parametrize("name", ["loss_independence", "batched_trial_equivalence"])
    def test_final_states_within_a_tight_tolerance(self, name):
        # their final states are held to IDENTITY_TOL and count toward the worst residual too
        self._check(name, PROPERTY_BUILDERS[name](SuiteParams(tolerance=4e-16)))

    @staticmethod
    def _check(name, r):
        assert (type(r.passed), type(r.cases), type(r.worst_residual)) == (bool, int, float), r
        assert not r.passed or r.worst_residual <= r.tolerance, r
        assert r.name == name

    def test_every_check_is_registered(self):
        import dicke_sim.verify as verify

        checks = {f for name, f in vars(verify).items() if name.startswith("check_") and callable(f)}
        assert checks and checks <= set(PROPERTY_BUILDERS.values())


class TestBornRuleSampling:
    """verify's born_rule_sampling: label-string counts against the exact distribution by a G-test."""

    def test_fixed_seed_passes(self):
        result = check_born_rule_sampling(SuiteParams(max_n=6, seeds=5))
        assert result.passed and result.cases == 3, result

    def test_wrong_distribution_fails(self):
        amps = random_symmetric_ket(5, np.random.default_rng(3)).amps
        config = {"input": {"type": "custom", "amps": [[z.real, z.imag] for z in amps.tolist()]}, "n": 5,
                  "phi": 0.7, "policy": {"type": "fixed", "theta": 1.1, "phi": 0.4},
                  "schedule": ["measure", "lose", "measure", "measure"], "trials": 4000, "seed": 8}
        counts = {s: c["count"] for s, c in run_ensemble(config)["outcome_sequences"].items()}
        exact = exact_label_distribution(parse_config(config))
        assert sorted(exact) == ["000", "001", "010", "011", "100", "101", "110", "111"]
        assert g_test_ratio(counts, exact) <= 1.0
        reversed_labels = {s.translate(str.maketrans("01", "10")): p for s, p in exact.items()}
        assert g_test_ratio(counts, reversed_labels) > 1.0
        # hand-made counts of a fair coin: 7.5 % off fails, 1 % off passes, a drawn impossible label is inf
        assert g_test_ratio({"0": 2300, "1": 1700}, {"0": 0.5, "1": 0.5}) > 1.0
        assert g_test_ratio({"0": 2040, "1": 1960}, {"0": 0.5, "1": 0.5}) < 1.0
        assert g_test_ratio({"0": 3999, "1": 1}, {"0": 1.0, "1": 0.0}) == math.inf

    def test_tiny_pool_joins_a_regular_cell(self):
        # two draws where 1e-4 are expected would add about 40 to G as a cell of their own
        probs = {"00": 0.5, "01": 0.5 - 2e-8, "10": 1e-8, "11": 1e-8}
        assert g_test_ratio({"00": 2000, "01": 1998, "10": 1, "11": 1}, probs) < 1.0
        assert g_test_ratio({"00": 2000, "01": 1998, "10": 2}, probs) < 1.0


class TestRunEnsemble:
    def _config(self, **overrides):
        config = {
            "input": {"type": "dicke", "nu": 1},
            "n": 3,
            "phi": 0.9,
            "policy": {"type": "fixed", "theta": 0.4, "phi": 0.2},
            "schedule": ["measure", "measure"],
            "trials": 5,
            "seed": 11,
        }
        config.update(overrides)
        return config

    def test_single_trial_report(self):
        report = run_ensemble(self._config(trials=1))
        assert report["trials"] == 1
        assert sum(v["count"] for v in report["outcome_sequences"].values()) == 1

    def test_born_rule_frequency(self):
        # |+> through phi = pi/2, computational detector: outcome 0 half the time
        config = {
            "input": {"type": "uniform"},
            "n": 1,
            "phi": math.pi / 2,
            "policy": {"type": "fixed"},
            "schedule": ["measure"],
            "trials": 100_000,
            "seed": 7,
        }
        report = run_ensemble(config)
        freq0 = report["outcome_sequences"]["0"]["frequency"]
        assert abs(freq0 - 0.5) < 0.01

    def test_loss_prefix_does_not_change_frequencies(self):
        base = {
            "input": {"type": "uniform"},
            "n": 1,
            "phi": math.pi / 2,
            "policy": {"type": "fixed"},
            "schedule": ["measure"],
            "trials": 4000,
            "seed": 21,
        }
        k = 2
        lossy = dict(base)
        lossy["n"] = 1 + k
        lossy["schedule"] = ["lose"] * k + ["measure"]
        a = run_ensemble(base)["outcome_sequences"]["0"]["frequency"]
        b = run_ensemble(lossy)["outcome_sequences"]["0"]["frequency"]
        se = math.sqrt(0.25 / base["trials"])
        assert abs(a - b) <= 3 * (se * math.sqrt(2))

    def test_seeds_are_base_plus_index(self):
        config = self._config(trials=3)
        report = run_ensemble(config)
        parsed = parse_config(config)
        labels = []
        for t in range(3):
            trace = run_trial(
                parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"],
                parsed["seed"] + t,
            )
            labels.append("".join(str(b) for b in _outcome_labels(trace)))
        counts = {}
        for lab in labels:
            counts[lab] = counts.get(lab, 0) + 1
        assert {k: v["count"] for k, v in report["outcome_sequences"].items()} == counts

    def test_unknown_config_key_rejected(self):
        with pytest.raises(ConfigError):
            run_ensemble(self._config(detector="left as an exercise"))

    def test_workers_do_not_change_report(self):
        config = self._config(trials=8)
        assert run_ensemble(config, workers=1) == run_ensemble(config, workers=2)

    def test_estimation_block_for_feedback_policy(self):
        config = self._config(
            policy={"type": "feedback", "delta": 0.7}, trials=4, n=4,
            schedule=["measure", "measure", "measure"],
        )
        report = run_ensemble(config)
        est = report["estimation"]
        assert est["grid_size"] == 1024
        assert 0.0 <= est["sharpness"] <= 1.0
        assert sum(est["estimate_distribution"].values()) == 4


def _trace_document(trial: int, trace: ExperimentTrace, pre_loss: SymmetricKet | None = None) -> dict:
    """The document a --trace-out line holds, built field by field.

    With pre_loss, the trial's ket before its losses, a lossy trial's final
    state is {"kind": "ket_with_losses", "lost": k, ...}; without it, the
    trace's own final state, a density, as a lossy line held it before.
    """
    final = trace.final_state
    key = "amps" if isinstance(final, SymmetricKet) else "alpha"

    def pairs(a):
        return [pairs(row) for row in a] if a.ndim > 1 else [[float(z.real), float(z.imag)] for z in a]

    events = [{"step": ev.step, "kind": ev.kind, "theta": ev.theta, "phi": ev.phi, "label": ev.label,
               "probability": ev.probability} for ev in trace.events]
    state = {"kind": "ket" if key == "amps" else "density", "n": final.n, key: pairs(getattr(final, key))}
    if pre_loss is not None and key == "alpha":
        lost = sum(ev.kind == "lose" for ev in trace.events)
        state = {"kind": "ket_with_losses", "lost": lost, "n": pre_loss.n, "amps": pairs(pre_loss.amps)}
    return {"trial": trial, "seed": trace.seed, "events": events, "final_state": state}


class TestTraceLines:
    """Each --trace-out line has the bytes of json.dumps(document, sort_keys=True).

    A config named "density" ends its trials in densities; its lines hold the
    kets before the losses, and rebuilt as density lines they read as before.
    """

    REAL = {"type": "custom", "amps": [[0.5, -0.0], [-0.5, 0.0], [0.5, -0.0], [-0.5, -0.0]]}
    COMPLEX = {"type": "custom", "amps": [[0.3, -0.2], [0.1, 0.5], [-0.4, 0.0], [0.2, 0.6], [0.0, -0.1],
                                          [0.7, 0.3], [-0.2, -0.2]]}
    CONFIGS = {
        "fixed-ket-signed-zeros": {  # real input, lossless: ket finals; policy phi -0.0
            "input": REAL, "n": 3, "phi": 0.0, "policy": {"type": "fixed", "theta": 1.0, "phi": -0.0},
            "schedule": ["measure", "measure"], "trials": 5, "seed": 3,
        },
        "fixed-density-signed-zeros": {
            "input": REAL, "n": 3, "phi": 0.7, "policy": {"type": "fixed", "theta": 2.0, "phi": -0.0},
            "schedule": ["lose", "measure"], "trials": 5, "seed": 4,
        },
        "round-robin-density": {
            "input": {"type": "dicke", "nu": 3}, "n": 9, "phi": 2.0,
            "policy": {"type": "round_robin", "bases": [{"theta": 1.0, "phi": 0.2}, {"theta": 0.3}]},
            "schedule": ["measure", "lose", "measure", "measure", "lose", "lose"], "trials": 7, "seed": 8,
        },
        "feedback-density": {
            "input": COMPLEX, "n": 6, "phi": 1.1, "policy": {"type": "feedback", "delta": 0.8},
            "schedule": ["measure", "measure", "lose", "measure", "lose"], "trials": 6, "seed": 2024,
            "estimate": True,
        },
        "feedback-ket": {
            "input": COMPLEX, "n": 6, "phi": 0.4, "policy": {"type": "feedback", "delta": 0.5},
            "schedule": ["measure"] * 4, "trials": 3, "seed": 9,
        },
        "losses-only": {
            "input": {"type": "noon"}, "n": 4, "phi": 0.3, "policy": {"type": "fixed", "theta": 0.5},
            "schedule": ["lose", "lose"], "trials": 2, "seed": 0,
        },
    }

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_lines_are_json_dumps_of_the_document(self, name, workers):
        import io
        import json

        from golden_corpus import density_lines

        config = self.CONFIGS[name]
        sink = io.StringIO()
        run_ensemble(config, workers=workers, trace_sink=sink)
        parsed = parse_config(config)
        lines, density_lines_expected = [], []
        for t in range(config["trials"]):
            trace = run_trial(parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"],
                              config["seed"] + t)
            measured = [step for step in trace.steps() if step[0] != "lose"]
            pre_loss = evaluate_sequence(parsed["input"], parsed["channel"], measured)[1]
            lines.append(json.dumps(_trace_document(t, trace, pre_loss), sort_keys=True) + "\n")
            density_lines_expected.append(json.dumps(_trace_document(t, trace), sort_keys=True) + "\n")
        expected = "".join(lines)
        assert sink.getvalue() == expected
        assert density_lines(expected) == "".join(density_lines_expected)
        if "signed-zeros" in name:
            assert '"phi": -0.0' in expected

    def test_lines_do_not_depend_on_the_block(self, monkeypatch):
        import io

        import dicke_sim.harness as harness

        config = self.CONFIGS["round-robin-density"]
        whole, split = io.StringIO(), io.StringIO()
        run_ensemble(config, trace_sink=whole)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 3 * harness._trial_bytes(9, 3, True))  # blocks of 3, 3 and 1
        run_ensemble(config, trace_sink=split)
        assert split.getvalue() == whole.getvalue()

    def test_lines_are_written_as_each_block_finishes(self, monkeypatch):
        import io

        import dicke_sim.harness as harness

        config = self.CONFIGS["round-robin-density"]
        whole = io.StringIO()
        run_ensemble(config, trace_sink=whole)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 3 * harness._trial_bytes(9, 3, True))  # blocks of 3, 3 and 1
        blocks_run = []
        batched = harness._trial_block

        def counting(*args):
            blocks_run.append(len(args[-1]))
            return batched(*args)

        class RecordingSink:  # notes how many blocks had run at each write
            def __init__(self):
                self.parts, self.blocks_run_at_write = [], []

            def write(self, text):
                self.writelines([text])

            def writelines(self, lines):
                self.blocks_run_at_write.append(len(blocks_run))
                self.parts.extend(lines)

        monkeypatch.setattr(harness, "_trial_block", counting)
        sink = RecordingSink()
        run_ensemble(config, trace_sink=sink)
        assert blocks_run == [3, 3, 1]
        assert sink.blocks_run_at_write == [1, 2, 3]
        assert "".join(sink.parts) == whole.getvalue()

        # an error in the third block leaves the lines of the first two
        blocks_run.clear()
        monkeypatch.setattr(harness, "_trial_block",
                            lambda *args: counting(*args) if len(blocks_run) < 2 else 1 / 0)
        sink = RecordingSink()
        with pytest.raises(ZeroDivisionError):
            run_ensemble(config, trace_sink=sink)
        assert "".join(sink.parts) == "".join(whole.getvalue().splitlines(keepends=True)[:6])


class TestMlEstimate:
    def test_estimate_is_grid_argmax(self):
        ket = random_symmetric_ket(6, np.random.default_rng(29))
        trace = run_trial(ket, PhaseChannel(2.2), FeedbackPolicy(0.5), LossSchedule.lossless(6), seed=3)
        est = ml_phase_estimate(ket, trace, grid_size=128)
        steps = [("measure", (ev.theta, ev.phi), ev.label) for ev in trace.events]

        def loglik(phi):
            probs, _ = evaluate_sequence(ket, PhaseChannel(phi), steps)
            return sum(math.log(p) for p in probs)

        best = loglik(est)
        for g in range(128):
            assert best >= loglik(2 * math.pi * g / 128) - 1e-12

    def test_flat_likelihood_gives_zero(self):
        # a Dicke input only picks up a global phase: every grid point ties
        ket = basis_state(6, 2)
        schedule = LossSchedule(("measure", "lose", "measure", "measure"))
        for seed in range(4):
            trace = run_trial(ket, PhaseChannel(1.3), FeedbackPolicy(0.5), schedule, seed=seed)
            assert ml_phase_estimate(ket, trace) == 0.0

    def test_exact_ties_give_smallest_maximum(self):
        # NOON with n measurements is periodic in 2 pi / n: on the 1024-point
        # grid, g and g + 512 tie exactly
        n = 6
        ket = input_from_config({"type": "noon"}, n)
        for seed in range(4):
            trace = run_trial(ket, PhaseChannel(0.9), FeedbackPolicy(0.5), LossSchedule.lossless(n), seed=seed)
            ll = grid_log_likelihoods(ket, trace)
            tied = np.flatnonzero(ll >= ll.max() - TIE_TOL)
            assert len(tied) >= 2
            assert np.allclose(ll[:512], ll[512:], atol=1e-12)
            assert ml_phase_estimate(ket, trace) == 2 * math.pi * tied[0] / 1024
            assert tied[0] < 512

    @pytest.mark.filterwarnings("error")  # no 0/0 or log(0): no NaN reaches later steps
    def test_impossible_labels_read_minus_inf(self):
        # |+>|+> with an equatorial detector: label 0 has probability
        # cos^2(phi/2), below ZERO_PROB_EPS only at phi = pi (g = 512)
        ket = make_ket(2, [0.5, math.sqrt(0.5), 0.5])
        trace = run_trial(ket, PhaseChannel(0.3), FixedPolicy(math.pi / 2, 0.0), LossSchedule.lossless(2), seed=0)
        assert _outcome_labels(trace) == (0, 0)
        ll = grid_log_likelihoods(ket, trace)
        assert ll[512] == -math.inf
        phis = 2 * math.pi * np.arange(1024) / 1024
        want = 2 * np.log(np.cos(phis / 2) ** 2)
        assert np.allclose(np.delete(ll, 512), np.delete(want, 512), rtol=0, atol=1e-9)
        assert ml_phase_estimate(ket, trace) == 0.0
        # a label impossible at every grid point: all -inf, estimate 0.0
        vacuum = basis_state(2, 0)
        never = ExperimentTrace(0, (TraceEvent(0, "measure", 0.0, 0.0, 1, 0.0),), vacuum)
        assert np.all(grid_log_likelihoods(vacuum, never) == -math.inf)
        assert ml_phase_estimate(vacuum, never) == 0.0

    def test_impossible_label_in_one_row_and_in_the_grid(self):
        # evaluate_sequence is the one-row case of the grid's forced replay: at
        # phi = pi (g = 512) the recorded label 0 is impossible for both
        ket = make_ket(2, [0.5, math.sqrt(0.5), 0.5])
        schedule = LossSchedule(("measure", "lose"))
        trace = run_trial(ket, PhaseChannel(0.3), FixedPolicy(math.pi / 2, 0.0), schedule, seed=0)
        assert _outcome_labels(trace) == (0,)
        with pytest.raises(ZeroProbabilityError):
            evaluate_sequence(ket, PhaseChannel(math.pi), trace.steps())
        ll = grid_log_likelihoods(ket, trace)
        assert ll[512] == -math.inf
        probs, final = evaluate_sequence(ket, PhaseChannel(2 * math.pi * 511 / 1024), trace.steps())
        assert ll[511] == math.log(probs[0])
        assert isinstance(final, SymmetricDensity) and final.n == 0

    @pytest.mark.parametrize("kinds", [("measure",) * 3, ("measure",) * 4, ("measure", "lose", "lose")],
                             ids=["3", "4", "1-and-2-losses"])
    def test_more_measurements_than_qubits_rejected(self, kinds):
        # a loss consumes a qubit too, so one measurement and two losses overrun 2 qubits
        ket = basis_state(2, 1)
        events = tuple(TraceEvent(j, "lose") if kind == "lose" else TraceEvent(j, kind, 0.5, 0.1, 0, 0.5)
                       for j, kind in enumerate(kinds))
        trace = ExperimentTrace(0, events, ket)
        for replay in (lambda: evaluate_sequence(ket, PhaseChannel(0.3), trace.steps()),
                       lambda: grid_log_likelihoods(ket, trace), lambda: ml_phase_estimate(ket, trace)):
            with pytest.raises(DomainError, match=f"^{len(kinds)} events but only 2 qubits$"):
                replay()

    def test_grid_matches_stepwise_lossy_replay(self):
        result = check_estimator_replay(SuiteParams(max_n=12, seeds=40))
        assert result.passed, result

    def test_deterministic(self):
        ket = basis_state(4, 2)
        trace = run_trial(ket, PhaseChannel(1.0), FeedbackPolicy(0.4), LossSchedule.lossless(4), seed=5)
        assert ml_phase_estimate(ket, trace, 64) == ml_phase_estimate(ket, trace, 64)


class TestJointLikelihood:
    """ml_phase_estimate's joint probability in closed form, evaluated at every grid phase by one FFT of its lags."""

    @staticmethod
    def joint_and_grid(ket, trace, grid_size):
        from dicke_sim.harness import _joint_log_likelihoods

        return _joint_log_likelihoods(ket, trace.steps(), grid_size), grid_log_likelihoods(ket, trace, grid_size)

    @staticmethod
    def tie_rule(ll, grid_size):
        return 2 * math.pi * int(np.argmax(ll >= ll.max() - TIE_TOL)) / grid_size

    @pytest.mark.parametrize("n, m, grid_size", [(12, 8, 1024), (64, 36, 1024), (40, 20, 16), (96, 42, 1024)])
    def test_joint_matches_stepwise_near_the_maximum(self, n, m, grid_size):
        # (40, 20, 16) aliases: 41 powers of e^{i phi} fold onto 16 columns;
        # (96, 42, 1024) at seed 1 peaks 1.1 above log(e ZERO_PROB_EPS), the
        # edge of the closed form's regime, after 42 measurements
        for seed in range(3):
            rng = np.random.default_rng(seed)
            ket = random_symmetric_ket(n, rng)
            schedule = LossSchedule(tuple(rng.permutation(["measure"] * m + ["lose"] * 3)))
            trace = run_trial(ket, PhaseChannel(1.1), FeedbackPolicy(0.7, 0.3, 0.9), schedule, seed)
            joint, grid = self.joint_and_grid(ket, trace, grid_size)
            near = grid >= grid.max() - 20.0
            assert np.abs(joint[near] - grid[near]).max() <= 1e-12
            assert np.all(joint[~near] < grid.max() - 19.0)
            assert ml_phase_estimate(ket, trace, grid_size) == self.tie_rule(grid, grid_size)

    def test_unlikely_trace_falls_back_to_the_grid(self):
        # 84 measurements at n = 128: the best joint probability is far below
        # e * ZERO_PROB_EPS, so the estimate reads the stepwise grid; here even the
        # bound |ebar|^2 is, so the closed form reads -inf with no split table filled
        from dicke_sim.states import _split_table

        n = 128
        ket = random_symmetric_ket(n, np.random.default_rng(5))
        trace = run_trial(ket, PhaseChannel(1.1), FeedbackPolicy(0.7, 0.3, 0.9), LossSchedule.lossless(84), 5)
        _split_table.cache_clear()
        joint, grid = self.joint_and_grid(ket, trace, 1024)
        assert _split_table.cache_info().misses == 0 and np.all(joint == -math.inf)
        assert grid.max() < math.log(1e-14)
        assert ml_phase_estimate(ket, trace) == self.tie_rule(grid, 1024)

    def test_losses_only_give_zero(self):
        ket = random_symmetric_ket(6, np.random.default_rng(2))
        trace = run_trial(ket, PhaseChannel(1.1), FeedbackPolicy(0.5), LossSchedule(("lose",) * 3), 0)
        joint, grid = self.joint_and_grid(ket, trace, 1024)
        assert np.allclose(joint, 0.0, rtol=0, atol=1e-15) and np.all(grid == 0.0)
        assert ml_phase_estimate(ket, trace) == 0.0

    @pytest.mark.filterwarnings("error")  # no log(0) on the way to the fallback
    def test_impossible_everywhere_gives_zero(self):
        vacuum = basis_state(2, 0)
        never = ExperimentTrace(0, (TraceEvent(0, "measure", 0.0, 0.0, 1, 0.0),), vacuum)
        joint, grid = self.joint_and_grid(vacuum, never, 1024)
        assert np.all(joint == -math.inf) and np.all(grid == -math.inf)
        assert ml_phase_estimate(vacuum, never) == 0.0

    def test_grid_decides_below_the_floor(self):
        # the second label is below ZERO_PROB_EPS at every phase, so every grid
        # row is dead and the referee's estimate is 0.0; the joint probability,
        # below e * ZERO_PROB_EPS, still peaks at g = 2
        ket = make_ket(2, [-0.256 - 0.597j, 0.0, -0.653 - 0.389j])
        events = (TraceEvent(0, "measure", 1.1471598025988573e-08, 4.436938355960884, 1),
                  TraceEvent(1, "measure", 3.1415925900687975, 2.789180998537133, 1))
        trace = ExperimentTrace(0, events, ket)
        joint, grid = self.joint_and_grid(ket, trace, 16)
        assert np.all(grid == -math.inf) and joint.max() < math.log(math.e * ZERO_PROB_EPS)
        assert self.tie_rule(joint, 16) == 2 * math.pi * 2 / 16
        assert ml_phase_estimate(ket, trace, 16) == 0.0

    def test_unlikely_noon_traces_separate_the_tie_rules(self):
        # estimator_replay_equivalence's default cases include unlikely traces
        # whose joint tie rule is not the grid's, so a lost fallback fails it
        params = SuiteParams()
        differ = 0
        for seed in range(params.seeds):
            ket, trace = unlikely_noon_trace(params.max_n, seed)
            joint, grid = self.joint_and_grid(ket, trace, 16)
            assert np.all(grid == -math.inf) and joint.max() < math.log(math.e * ZERO_PROB_EPS)
            assert ml_phase_estimate(ket, trace, 16) == 0.0
            differ += self.tie_rule(joint, 16) != 0.0
        assert differ >= 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_long_likely_trace_needs_no_binomial(self):
        # 1100 labels 0 on |0..0>, detectors within 0.1 of theta = 0: P = prod cos^2(theta_j / 2) >= e^-3
        # at every phase; C(1100, d) overflows a float, the normalized block amplitudes do not
        n, m = 1104, 1100
        rng = np.random.default_rng(11)
        ket = basis_state(n, 0)
        events = tuple(TraceEvent(j, "measure", float(rng.uniform(-0.1, 0.1)), float(rng.uniform(0.0, 2 * math.pi)), 0)
                       for j in range(m))
        trace = ExperimentTrace(0, events, ket)
        joint, grid = self.joint_and_grid(ket, trace, 16)
        assert grid.max() > -3.0 and np.abs(joint - grid).max() <= 1e-12
        assert ml_phase_estimate(ket, trace, 16) == self.tie_rule(grid, 16)

    def test_estimates_equal_the_grid_tie_rule_on_random_lossy_traces(self):
        # 1000 sampled traces: random, NOON and Dicke inputs; fixed, round-robin and feedback
        # policies; grids of 2 to 63 points, where the 2m + 1 lags fold
        traces = 0
        for i in range(125):
            rng = np.random.default_rng([2026, i])
            n = int(rng.integers(2, 17))
            ket = (random_symmetric_ket(n, rng), input_from_config({"type": "noon"}, n),
                   basis_state(n, int(rng.integers(0, n + 1))))[i % 3]
            a = [float(x) for x in rng.uniform(0.0, math.pi, 4)]
            policy = (FixedPolicy(a[0], a[1]), RoundRobinPolicy(((a[0], a[1]), (a[2], a[3]))),
                      FeedbackPolicy(a[0], a[1], a[2]))[i // 3 % 3]
            schedule = LossSchedule.random(n, 0.3, int(rng.integers(0, 2**31)))
            channel = PhaseChannel(float(rng.uniform(0.0, 2.0 * math.pi)))
            for trace in run_trials(ket, channel, policy, schedule, [int(s) for s in rng.integers(0, 2**31, 8)]):
                size = int(rng.integers(2, 64))
                assert ml_phase_estimate(ket, trace, size) == self.tie_rule(grid_log_likelihoods(ket, trace, size), size)
                traces += 1
        assert traces == 1000

    @pytest.mark.parametrize("grid_size", [0, -3, 2.5, True, "8", None])
    def test_bad_grid_size_rejected(self, grid_size):
        ket = basis_state(2, 1)
        trace = run_trial(ket, PhaseChannel(1.0), FixedPolicy(0.5, 0.0), LossSchedule.lossless(1), 0)
        with pytest.raises(DomainError):
            ml_phase_estimate(ket, trace, grid_size)
        with pytest.raises(DomainError):
            grid_log_likelihoods(ket, trace, grid_size)

    def test_one_point_grid(self):
        ket = random_symmetric_ket(3, np.random.default_rng(1))
        trace = run_trial(ket, PhaseChannel(1.0), FeedbackPolicy(0.5), LossSchedule.lossless(2), 0)
        joint, grid = self.joint_and_grid(ket, trace, 1)
        assert abs(joint[0] - grid[0]) <= 1e-12
        assert ml_phase_estimate(ket, trace, 1) == 0.0
        assert ml_phase_estimate(ket, trace, np.int64(4)) == ml_phase_estimate(ket, trace, 4)


class TestGridReplayRows:
    """The grid's forced replay steps one (G, n+1) array of kets; each row keeps the bits it has alone."""

    def test_grid_row_equals_replay_alone_bit_for_bit(self):
        from dicke_sim.harness import _final_states, _forced_replay

        n, grid = 16, 64
        ket = random_symmetric_ket(n, np.random.default_rng(41))
        schedule = LossSchedule(("measure", "lose") * 3 + ("measure",) * 7 + ("lose",) * 3)
        trace = run_trial(ket, PhaseChannel(1.1), FeedbackPolicy(0.6, 0.2, 0.9), schedule, seed=8)
        assert len(_outcome_labels(trace)) == 10
        phis = 2.0 * math.pi * np.arange(grid) / grid
        phases = np.exp(1j * phis)
        probs, kets = _forced_replay(ket, trace.steps(), phases)
        finals = _final_states(kets, len(schedule.events) - len(_outcome_labels(trace)))
        for g in range(grid):
            alone, final = evaluate_sequence(ket, PhaseChannel(2.0 * math.pi * g / grid), trace.steps())
            assert alone == probs[g].tolist()
            assert np.array_equal(final.alpha, finals[g])
            assert np.array_equal(_forced_replay(ket, trace.steps(), phases[[g]])[1], kets[[g]])

    def test_product_state_closed_form_at_n64(self):
        # |+>^64 through diag(1, e^{i phi}) and 36 equatorial detectors, all
        # labels 0: each step has probability cos^2(phi / 2), zero at g = 512.
        # An input off by delta moves sqrt(P) by up to |delta|, so a rounded
        # input pins the joint probability P only to 2 m eps / sqrt(P)
        # relative; the closed form is checked where that is below 1e-9, and
        # elsewhere (P below e^-22) the replay must still read unlikely.
        n, m = 64, 36
        ket = make_ket(n, np.sqrt([float(math.comb(n, nu)) for nu in range(n + 1)]))
        events = tuple(TraceEvent(j, "measure", math.pi / 2, 0.0, 0, 0.5) for j in range(m))
        trace = ExperimentTrace(0, events, ket)
        ll = grid_log_likelihoods(ket, trace)
        assert ll[512] == -math.inf
        phis = 2 * math.pi * np.arange(1024) / 1024
        want = m * np.log(np.cos(phis / 2) ** 2)
        floor = 2 * math.log(2 * m * np.finfo(float).eps / 1e-9)
        pinned = want >= floor
        assert pinned.sum() > 400
        assert np.allclose(ll[pinned], want[pinned], rtol=0, atol=1e-9)
        assert np.all(np.isfinite(np.delete(ll, 512))) and np.all(ll[~pinned] < floor)
        assert ml_phase_estimate(ket, trace) == 0.0


def _walk_measure_pure(ket, kappa, choose):
    """Measure every qubit with measure_pure, drawing label 0 when u < p0.

    choose(previous p0, p0) gives each step's uniform, with previous p0 = 1/2
    at the first step.  Returns the uniforms, the labels and their probabilities.
    """
    pvm = SingleQubitPVM(kappa)
    uniforms, labels, probs, previous = [], [], [], 0.5
    state = ket
    for _ in range(ket.n):
        outcomes = measure_pure(state, pvm)
        p0 = outcomes[0].probability
        uniforms.append(choose(previous, p0))
        labels.append(0 if uniforms[-1] < p0 else 1)
        probs.append(outcomes[labels[-1]].probability)
        state = outcomes[labels[-1]].require_post_state()
        previous = p0
    return uniforms, labels, probs


class TestCascadeKernel:
    def test_matches_measure_pure_stepwise(self):
        # the bench detector, then random detectors, each on several kets and uniform streams
        n = 40
        bench = combined_pvm(PhaseChannel(0.7), pvm_from_bloch(math.pi / 2, 0.0)).kappa
        for seed in range(19, 27):
            rng = np.random.default_rng(seed)
            ket = random_symmetric_ket(n, rng)
            kappa = bench if seed < 23 else random_pvm(rng).kappa
            draws = iter(np.random.default_rng(seed + 72).random(n))
            uniforms, labels, probs = _walk_measure_pure(ket, kappa, lambda previous, p0: next(draws))
            result = run_pvm_cascade(n, kappa, list(ket.amps), uniforms)
            assert result.state_entries == n + 1
            assert result.outcomes == labels
            assert result.probabilities == pytest.approx(probs, rel=0, abs=1e-12)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    def test_every_guess_misses(self, seed, monkeypatch):
        # each uniform lies between the previous step's p0 and this step's, so
        # the branch the kernel builds first is never the one drawn
        import dicke_sim.harness as harness

        n = 40
        rng = np.random.default_rng(seed)
        ket = random_symmetric_ket(n, rng)
        kappa = random_pvm(rng).kappa
        uniforms, labels, probs = _walk_measure_pure(ket, kappa, lambda previous, p0: (previous + p0) / 2)
        norms = []

        def counting(amps):
            norms.append(len(amps))
            return _norm2(amps)

        monkeypatch.setattr(harness, "_norm2", counting)
        result = run_pvm_cascade(n, kappa, list(ket.amps), uniforms)
        assert norms == [n + 1] + [m for m in range(n, 0, -1) for _ in ("guess", "drawn")]
        assert result.outcomes == labels
        assert result.probabilities == pytest.approx(probs, rel=0, abs=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 64])
    def test_basis_states_under_the_computational_pvm(self, n):
        # |nu> holds nu ones: with r ones left among m qubits, outcome 1 has
        # probability r / m, and a forced step (r = 0 or r = m) records at most 1
        for nu in range(n + 1):
            for uniforms in ([0.5] * n, np.random.default_rng(nu).random(n)):
                result = run_pvm_cascade(n, np.eye(2), list(basis_state(n, nu).amps), uniforms)
                assert sum(result.outcomes) == nu
                ones = nu
                for m, label, p in zip(range(n, 0, -1), result.outcomes, result.probabilities):
                    assert p <= 1.0
                    assert p == pytest.approx(ones / m if label else 1 - ones / m, rel=0, abs=1e-15)
                    ones -= label

    def test_norm_rescue_on_long_cascades(self):
        n = 300
        rng = np.random.default_rng(23)
        ket = random_symmetric_ket(n, rng)
        kappa = pvm_from_bloch(0.3, 0.2).kappa
        result = run_pvm_cascade(n, kappa, list(ket.amps), np.random.default_rng(5).random(n))
        assert len(result.outcomes) == n
        assert all(0.0 < p <= 1.0 for p in result.probabilities)


@pytest.mark.parametrize("call, message", [
    (lambda: run_ensemble({"input": {"type": "dicke", "nu": 1}, "n": 3, "phi": 1.1,
                           "policy": {"type": "fixed"}, "schedule": ["measure"], "trials": 2, "seed": 1},
                          workers=0),
     "workers must be >= 1, got 0"),
    (lambda: run_pvm_cascade(3, pvm_from_bloch(0.3, 0.2).kappa, [1.0, 0.0, 0.0, 0.0, 0.0], []),
     "initial state must have 4 amplitudes"),
    (lambda: run_pvm_cascade(2, np.full((2, 2), np.nan), [1.0, 0.0, 0.0], [0.5, 0.5]), "kappa must be finite"),
    (lambda: run_pvm_cascade(2, [[2.0, 0.0], [0.0, 1.0]], [1.0, 0.0, 0.0], [0.5, 0.5]),
     "PVM rows are not orthonormal: max deviation 3.000e+00"),
    (lambda: run_pvm_cascade(2, np.eye(2), [3.0, 0.0, 0.0], [0.5, 0.5]), "ket is not normalized: |norm - 1| = 2.000e+00"),
    (lambda: run_pvm_cascade(2, np.eye(2), [math.nan, 0.0, 0.0], [0.5, 0.5]), "ket must be finite"),
    (lambda: run_pvm_cascade(3, np.eye(2), [1.0, 0.0, 0.0, 0.0], [0.5, 0.5]), "a cascade of 3 qubits needs 3 uniforms, got 2"),
    (lambda: run_pvm_cascade(2, np.eye(2), [1.0, 0.0, 0.0], [math.nan, math.nan]), "uniforms must be finite and lie in [0, 1)"),
    (lambda: run_pvm_cascade(2, np.eye(2), [1.0, 0.0, 0.0], [0.5, math.inf]), "uniforms must be finite and lie in [0, 1)"),
    (lambda: run_pvm_cascade(2, np.eye(2), [1.0, 0.0, 0.0], [1.5, 0.2]), "uniforms must be finite and lie in [0, 1)"),
    (lambda: run_pvm_cascade(2, np.eye(2), [1.0, 0.0, 0.0], [0.5, 1.0]), "uniforms must be finite and lie in [0, 1)"),
    (lambda: run_pvm_cascade(2, np.eye(2), [1.0, 0.0, 0.0], np.array([0.5, -0.25])), "uniforms must be finite and lie in [0, 1)"),
], ids=["ensemble-workers-0", "cascade-n-plus-2-amplitudes", "cascade-nan-kappa", "cascade-non-unitary-kappa",
        "cascade-unnormalized", "cascade-nan-amplitude", "cascade-too-few-uniforms", "cascade-nan-uniforms",
        "cascade-inf-uniform", "cascade-uniform-above-1", "cascade-uniform-1", "cascade-negative-uniform"])
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message
