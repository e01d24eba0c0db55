"""Unit tests for the adaptive-measurement harness."""

import math

import numpy as np
import pytest

from dicke_sim.errors import ConfigError, DomainError, ZeroProbabilityError
from dicke_sim.harness import (
    ExperimentTrace,
    TIE_TOL,
    TraceEvent,
    combined_pvm,
    evaluate_sequence,
    grid_log_likelihoods,
    ml_phase_estimate,
    run_ensemble,
    run_pvm_cascade,
    run_trial,
    run_trials,
)
from dicke_sim.measure import lose_qubit, measure_mixed, measure_pure, pvm_from_bloch
from dicke_sim.spec import (
    FeedbackPolicy,
    FixedPolicy,
    LossSchedule,
    PhaseChannel,
    RoundRobinPolicy,
    input_from_config,
    parse_config,
)
from dicke_sim.states import SymmetricDensity, SymmetricKet, basis_state, make_ket, to_density
from dicke_sim.verify import (
    SuiteParams,
    _run_one_property,
    check_batched_trials,
    check_estimator_replay,
    random_symmetric_ket,
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

    def test_feedback_steps_by_delta_over_m(self):
        policy = FeedbackPolicy(delta=0.6, initial_phi=1.0)
        hist = []
        assert _setting(policy, hist)[1] == pytest.approx(1.0)
        hist.append(0)
        assert _setting(policy, hist)[1] == pytest.approx(1.0 + 0.6)
        hist.append(1)
        assert _setting(policy, hist)[1] == pytest.approx(1.0 + 0.6 - 0.3)

    def test_feedback_pure_function_of_history(self):
        policy = FeedbackPolicy(delta=0.4)
        hist = [1, 0, 1]
        assert _setting(policy, hist) == _setting(policy, list(hist))

    def test_feedback_batch_equals_running_sum_loop(self):
        # the per-trial loop the batched method replaced, as the exact reference
        policy = FeedbackPolicy(delta=0.7, theta=1.1, initial_phi=0.25)
        labels = np.random.default_rng(4).integers(0, 2, size=(6, 40))
        for m in range(41):
            thetas, phis = policy.next_settings(labels[:, :m])
            for t in range(6):
                phase = policy.initial_phi
                for j, label in enumerate(labels[t, :m].tolist(), start=1):
                    phase += policy.delta / j if label == 0 else -policy.delta / j
                assert (thetas[t], phis[t]) == (policy.theta, phase)


def _setting(policy, labels):
    """(theta, phi) for one trial with these labels so far, via the batched method."""
    theta, phi = policy.next_settings(np.array([labels], dtype=int).reshape(1, len(labels)))
    return (float(theta[0]), float(phi[0]))


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
    def test_all_lose_schedule(self):
        trace = run_trial(
            basis_state(4, 2), PhaseChannel(0.3), FixedPolicy(), LossSchedule(("lose",) * 3), seed=1
        )
        assert trace.outcome_labels() == ()
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
            assert sum(trace.outcome_labels()) == 2

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
        # losses are deferred to the end; the reference loses each qubit where
        # the schedule says and measures the mixed state from then on
        rng = np.random.default_rng(41)
        ket = random_symmetric_ket(10, rng)
        channel, policy = PhaseChannel(0.9), FeedbackPolicy(0.7, 1.2, 0.4)
        schedule = LossSchedule.random(10, 0.4, seed=8)
        assert 0 < schedule.events.count("lose") < 10
        trace = run_trial(ket, channel, policy, schedule, seed=17)
        state = ket
        for ev in trace.events:
            if isinstance(state, SymmetricKet) and ev.kind == "lose":
                state = to_density(state)
            if ev.kind == "lose":
                state = lose_qubit(state)
                continue
            pvm = combined_pvm(channel, pvm_from_bloch(ev.theta, ev.phi))
            if isinstance(state, SymmetricKet):
                chosen = measure_pure(state, pvm)[ev.label]
            else:
                chosen = measure_mixed(state, pvm.kraus_pair())[ev.label]
            assert chosen.probability == pytest.approx(ev.probability, abs=1e-12)
            state = chosen.require_post_state()
        assert isinstance(trace.final_state, SymmetricDensity)
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

    def test_blocks_match_trial_by_trial(self, monkeypatch):
        import dicke_sim.harness as harness

        config = self._lossy_feedback_config(10)
        monkeypatch.setattr(harness, "BLOCK_BYTES", 4 * 16 * 9**2)  # blocks of 4, 4 and 2
        sizes = []
        batched = harness.run_trials

        def recording(*args):
            sizes.append(len(args[-1]))
            return batched(*args)

        monkeypatch.setattr(harness, "run_trials", recording)
        report = run_ensemble(config)
        assert sizes == [4, 4, 2]
        parsed = parse_config(config)
        args = (parsed["input"], parsed["channel"], parsed["policy"], parsed["schedule"])
        counts, estimates = {}, {}
        for t in range(10):
            trace = run_trial(*args, parsed["seed"] + t)
            labels = "".join(str(b) for b in trace.outcome_labels())
            counts[labels] = counts.get(labels, 0) + 1
            key = f"{ml_phase_estimate(parsed['input'], trace):.10f}"
            estimates[key] = estimates.get(key, 0) + 1
        assert {k: v["count"] for k, v in report["outcome_sequences"].items()} == counts
        assert report["estimation"]["estimate_distribution"] == estimates

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

        config = self._lossy_feedback_config(9)
        sinks = io.StringIO(), io.StringIO()
        one = run_ensemble(config, workers=1, trace_sink=sinks[0])
        two = run_ensemble(config, workers=2, trace_sink=sinks[1])
        assert one == two
        assert sinks[0].getvalue() == sinks[1].getvalue()

    def test_nan_setting_rejected(self):
        class NanForSecondTrial(FixedPolicy):
            def next_settings(self, labels):
                theta, phi = super().next_settings(labels)
                phi[1] = math.nan
                return theta, phi

        with pytest.raises(DomainError, match="finite"):
            run_trials(basis_state(3, 1), PhaseChannel(0.2), NanForSecondTrial(), LossSchedule.lossless(2), [1, 2, 3])

    def test_matches_stepwise_lossy_replay(self):
        result = check_batched_trials(max_n=10, seeds=30, tol=1e-10)
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
            labels.append("".join(str(b) for b in trace.outcome_labels()))
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
        assert trace.outcome_labels() == (0, 0)
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
        assert trace.outcome_labels() == (0,)
        with pytest.raises(ZeroProbabilityError):
            evaluate_sequence(ket, PhaseChannel(math.pi), trace.steps())
        ll = grid_log_likelihoods(ket, trace)
        assert ll[512] == -math.inf
        probs, final = evaluate_sequence(ket, PhaseChannel(2 * math.pi * 511 / 1024), trace.steps())
        assert ll[511] == math.log(probs[0])
        assert isinstance(final, SymmetricDensity) and final.n == 0

    def test_grid_matches_stepwise_lossy_replay(self):
        result = check_estimator_replay(max_n=12, seeds=40, tol=1e-10)
        assert result.passed, result

    def test_deterministic(self):
        ket = basis_state(4, 2)
        trace = run_trial(ket, PhaseChannel(1.0), FeedbackPolicy(0.4), LossSchedule.lossless(4), seed=5)
        assert ml_phase_estimate(ket, trace, 64) == ml_phase_estimate(ket, trace, 64)


class TestJointLikelihood:
    """ml_phase_estimate's phase-free replay, evaluated at every grid phase by one FFT."""

    @staticmethod
    def joint_and_grid(ket, trace, grid_size):
        from dicke_sim.harness import _joint_log_likelihoods

        measured = [step[1:] for step in trace.steps() if step[0] == "measure"]
        return _joint_log_likelihoods(ket, measured, grid_size), grid_log_likelihoods(ket, trace, grid_size)

    @staticmethod
    def tie_rule(ll, grid_size):
        return 2 * math.pi * int(np.argmax(ll >= ll.max() - TIE_TOL)) / grid_size

    @pytest.mark.parametrize("n, m, grid_size", [(12, 8, 1024), (64, 36, 1024), (40, 20, 16)])
    def test_joint_matches_stepwise_near_the_maximum(self, n, m, grid_size):
        # (40, 20, 16) aliases: 41 powers of e^{i phi} fold onto 16 columns
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
        # e * ZERO_PROB_EPS, so the estimate reads the stepwise grid
        n = 128
        ket = random_symmetric_ket(n, np.random.default_rng(5))
        trace = run_trial(ket, PhaseChannel(1.1), FeedbackPolicy(0.7, 0.3, 0.9), LossSchedule.lossless(84), 5)
        joint, grid = self.joint_and_grid(ket, trace, 1024)
        assert joint is None and grid.max() < math.log(1e-14)
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
        assert joint is None and np.all(grid == -math.inf)
        assert ml_phase_estimate(vacuum, never) == 0.0

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


class TestPhaseMajorReplay:
    """The grid's forced replay holds kets[nu, g]; each row keeps the bits it has alone."""

    def test_grid_row_equals_replay_alone_bit_for_bit(self):
        from dicke_sim.harness import _final_states, _forced_replay

        n, grid = 16, 64
        ket = random_symmetric_ket(n, np.random.default_rng(41))
        schedule = LossSchedule(("measure", "lose") * 3 + ("measure",) * 7 + ("lose",) * 3)
        trace = run_trial(ket, PhaseChannel(1.1), FeedbackPolicy(0.6, 0.2, 0.9), schedule, seed=8)
        assert len(trace.outcome_labels()) == 10
        measured = [step[1:] for step in trace.steps() if step[0] == "measure"]
        phis = 2.0 * math.pi * np.arange(grid) / grid
        folds = np.stack([np.ones(grid), np.exp(1j * phis)], axis=-1)
        probs, kets = _forced_replay(ket, measured, folds)
        finals = _final_states(kets, len(schedule.events) - len(measured))
        for g in range(grid):
            alone, final = evaluate_sequence(ket, PhaseChannel(2.0 * math.pi * g / grid), trace.steps())
            assert alone == probs[g].tolist()
            assert np.array_equal(final.alpha, finals[g].alpha)
            assert np.array_equal(_forced_replay(ket, measured, folds[[g]])[1], kets[[g]])

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


class TestCascadeKernel:
    def test_matches_measure_pure_stepwise(self):
        n = 40
        rng = np.random.default_rng(19)
        ket = random_symmetric_ket(n, rng)
        kappa = combined_pvm(PhaseChannel(0.7), pvm_from_bloch(math.pi / 2, 0.0)).kappa
        uniforms = np.random.default_rng(91).random(n)
        result = run_pvm_cascade(n, kappa, list(ket.amps), uniforms)
        assert result.state_entries == n + 1
        # replay with the production path, same uniforms
        from dicke_sim.measure import SingleQubitPVM

        pvm = SingleQubitPVM(kappa)
        state = ket
        for step in range(n):
            outcomes = measure_pure(state, pvm)
            label = 0 if uniforms[step] < outcomes[0].probability else 1
            assert label == result.outcomes[step]
            assert outcomes[label].probability == pytest.approx(result.probabilities[step], abs=1e-12)
            state = outcomes[label].require_post_state()

    def test_norm_rescue_on_long_cascades(self):
        n = 300
        rng = np.random.default_rng(23)
        ket = random_symmetric_ket(n, rng)
        kappa = pvm_from_bloch(0.3, 0.2).kappa
        result = run_pvm_cascade(n, kappa, list(ket.amps), np.random.default_rng(5).random(n))
        assert len(result.outcomes) == n
        assert all(0.0 < p <= 1.0 + 1e-12 for p in result.probabilities)
