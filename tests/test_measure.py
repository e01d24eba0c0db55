"""Unit tests for single-qubit measurement and loss on compact states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_sim.errors import DomainError, InvalidMeasurementError, ZeroProbabilityError
from dicke_sim.measure import (
    PVM_TOL,
    SingleQubitKraus,
    SingleQubitPVM,
    lose_qubit,
    measure_mixed,
    MeasurementOutcome,
    bloch_kappas,
    measure_pure,
    measure_pure_batch,
    pick_labels,
    pvm_from_bloch,
)
from dicke_sim.harness import _final_states
from dicke_sim.states import (SymmetricDensity, SymmetricKet, basis_state, make_ket, require_densities,
                              to_density)
from dicke_sim.verify import (
    DenseRunner,
    random_kraus_pair,
    random_pvm,
    random_symmetric_density,
    random_symmetric_ket,
)
from dicke_sim.oracle import expand_density
from dicke_sim.spec import PhaseChannel


class TestPvmFromBloch:
    def test_computational(self):
        assert np.allclose(pvm_from_bloch(0, 0).kappa, np.eye(2))

    def test_hadamard_magnitudes(self):
        kappa = pvm_from_bloch(math.pi / 2, 0).kappa
        assert np.allclose(np.abs(kappa), 1 / math.sqrt(2))
        assert np.allclose(kappa[0], [1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_circular_is_unitary(self):
        kappa = pvm_from_bloch(math.pi / 2, math.pi / 2).kappa
        assert np.allclose(kappa @ kappa.conj().T, np.eye(2), atol=1e-15)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(DomainError, match="finite"):
            pvm_from_bloch(bad, 0.0)
        with pytest.raises(DomainError, match="finite"):
            pvm_from_bloch(0.0, bad)
        with pytest.raises(DomainError, match="finite"):
            SingleQubitPVM(np.array([[1, 0], [0, bad]], dtype=complex))
        with pytest.raises(DomainError, match="finite"):
            SingleQubitKraus(0, np.array([[1, 0], [0, bad]], dtype=complex))

    def test_rows_not_orthonormal_rejected(self):
        with pytest.raises(InvalidMeasurementError):
            SingleQubitPVM(np.array([[1, 0], [1, 0]], dtype=complex))

    def test_channel_folded_detectors_are_unitary(self):
        # the guarantee behind the trial step, which checks no PVM rows: a Bloch
        # detector times the phase channel's diagonal has orthonormal rows
        extremes = [0.0, math.pi, -math.pi, 2 * math.pi, 1e3, 1e6]
        grid = np.array(np.meshgrid(extremes, extremes, extremes)).reshape(3, -1)
        rng = np.random.default_rng(71)
        wide = rng.uniform(-1.0, 1.0, (3, 1000)) * 10.0 ** rng.uniform(-3.0, 6.0, (3, 1000))
        for theta, phi, x in np.concatenate([grid, wide], axis=1).T:
            kappa = bloch_kappas(theta, phi) * np.diagonal(PhaseChannel(x).unitary())
            dev = np.abs(kappa @ kappa.conj().T - np.eye(2)).max()
            assert dev <= PVM_TOL, (theta, phi, x, dev)


class TestMeasurePure:
    @pytest.mark.parametrize("n,nu", [(2, 1), (5, 2), (9, 9), (7, 0)])
    def test_basis_state_computational_probabilities(self, n, nu):
        out = measure_pure(basis_state(n, nu), pvm_from_bloch(0, 0))
        assert out[1].probability == pytest.approx(nu / n, abs=1e-13)
        assert out[0].probability == pytest.approx((n - nu) / n, abs=1e-13)

    def test_all_zeros_state(self):
        out = measure_pure(basis_state(6, 0), pvm_from_bloch(0, 0))
        assert out[0].probability == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(out[0].post_state.amps, basis_state(5, 0).amps)
        assert out[1].post_state is None

    def test_noon_hadamard_matches_oracle(self):
        from dicke_sim.verify import dense_pure_pvm_sequence, embed_qubit
        from dicke_sim.oracle import expand

        ket = make_ket(2, [1, 0, 1])
        pvm = pvm_from_bloch(math.pi / 2, 0)
        outcomes = measure_pure(ket, pvm)
        for position in (1, 2):
            for out in outcomes:
                p_dense, amps = dense_pure_pvm_sequence(expand(ket), [(position, pvm, out.label)])
                assert out.probability == pytest.approx(p_dense, abs=1e-12)
                product = embed_qubit(expand(out.post_state).amps, pvm.basis_ket(out.label), position, 2)
                assert abs(np.vdot(product, amps)) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(3)
        for n in (1, 4, 12):
            out = measure_pure(random_symmetric_ket(n, rng), random_pvm(rng))
            assert out[0].probability + out[1].probability == pytest.approx(1.0, abs=1e-12)

    def test_measuring_down_to_empty_string(self):
        state = basis_state(1, 1)
        out = measure_pure(state, pvm_from_bloch(0, 0))
        assert out[1].probability == pytest.approx(1.0)
        assert out[1].post_state.n == 0

    def test_zero_probability_conditioning_raises(self):
        out = measure_pure(basis_state(4, 0), pvm_from_bloch(0, 0))
        with pytest.raises(ZeroProbabilityError):
            out[1].require_post_state()


class TestMeasureMixed:
    def test_pure_state_consistency(self):
        rng = np.random.default_rng(7)
        for n in (1, 3, 8):
            ket = random_symmetric_ket(n, rng)
            pvm = random_pvm(rng)
            pure = measure_pure(ket, pvm)
            mixed = measure_mixed(to_density(ket), pvm.kraus_pair())
            for a, b in zip(pure, mixed):
                assert a.probability == pytest.approx(b.probability, abs=1e-12)
                if a.post_state is not None:
                    want = np.outer(a.post_state.amps, a.post_state.amps.conj())
                    assert np.max(np.abs(want - b.post_state.alpha)) < 1e-12

    def test_maximally_mixed_half(self):
        n = 6
        rho = SymmetricDensity(n, np.eye(n + 1, dtype=complex) / (n + 1))
        out = measure_mixed(rho, pvm_from_bloch(0, 0).kraus_pair())
        assert out[1].probability == pytest.approx(0.5, abs=1e-13)

    def test_random_kraus_vs_oracle_any_position(self):
        rng = np.random.default_rng(21)
        rho = random_symmetric_density(5, rng)
        kraus = random_kraus_pair(rng)
        compact = measure_mixed(rho, kraus)
        for position in range(1, 6):
            runner = DenseRunner(expand_density(rho))
            for out in compact:
                fresh = DenseRunner(expand_density(rho))
                p = fresh.measure(position, kraus, out.label)
                assert out.probability == pytest.approx(p, abs=1e-10)

    def test_incomplete_set_rejected(self):
        half = [SingleQubitKraus(0, np.eye(2) * 0.5)]
        with pytest.raises(InvalidMeasurementError):
            measure_mixed(to_density(basis_state(2, 1)), half)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 9), st.integers(0, 10_000))
    def test_probability_completeness(self, n, seed):
        rng = np.random.default_rng(seed)
        rho = random_symmetric_density(n, rng)
        out = measure_mixed(rho, random_kraus_pair(rng))
        assert sum(o.probability for o in out) == pytest.approx(1.0, abs=1e-10)


class TestLoseQubit:
    def test_product_of_zeros(self):
        rho = to_density(basis_state(4, 0))
        reduced = lose_qubit(rho)
        assert np.max(np.abs(reduced.alpha - to_density(basis_state(3, 0)).alpha)) < 1e-14

    def test_basis_state_weights(self):
        # |1> of 3 qubits loses one: weight 2/3 stays at nu=1, 1/3 drops to nu=0
        reduced = lose_qubit(to_density(basis_state(3, 1)))
        assert np.allclose(np.diag(reduced.alpha).real, [1 / 3, 2 / 3, 0], atol=1e-14)
        from dicke_sim.oracle import compress, expand_density, partial_trace

        oracle = compress(partial_trace(expand_density(to_density(basis_state(3, 1))), {2}))
        assert np.max(np.abs(reduced.alpha - oracle.alpha)) < 1e-12

    def test_noon_coherence_destroyed(self):
        reduced = lose_qubit(to_density(make_ket(2, [1, 0, 1])))
        assert np.allclose(reduced.alpha, np.eye(2) / 2, atol=1e-14)

    def test_trace_preserved(self):
        rng = np.random.default_rng(9)
        rho = random_symmetric_density(7, rng)
        assert lose_qubit(rho).alpha.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_empty_rejected(self):
        rho = lose_qubit(to_density(basis_state(1, 0)))
        assert rho.n == 0
        with pytest.raises(DomainError):
            lose_qubit(rho)


class TestLoseQubitPure:
    """A loss from a pure state; harness._final_states defers it to one product."""

    def test_matches_composition(self):
        rng = np.random.default_rng(13)
        ket = random_symmetric_ket(8, rng)
        a = _final_states(ket.amps[None], 1)[0]
        b = lose_qubit(to_density(ket))
        assert np.max(np.abs(a - b.alpha)) < 1e-14

    def test_basis_state_diagonal(self):
        for n, nu in [(4, 2), (6, 6)]:
            reduced = lose_qubit(to_density(basis_state(n, nu)))
            diag = np.diag(reduced.alpha).real
            want = np.zeros(n)
            if nu <= n - 1:
                want[nu] = (n - nu) / n
            if nu >= 1:
                want[nu - 1] = nu / n
            assert np.allclose(diag, want, atol=1e-13)

    def test_matches_oracle(self):
        from dicke_sim.oracle import compress, expand_density, partial_trace

        rng = np.random.default_rng(17)
        ket = random_symmetric_ket(8, rng)
        oracle = compress(partial_trace(expand_density(to_density(ket)), {5}))
        assert np.max(np.abs(lose_qubit(to_density(ket)).alpha - oracle.alpha)) < 1e-12


def _probabilities(outcomes) -> np.ndarray:
    return np.array([o.probability for o in outcomes])


class TestSampleOutcome:
    """Drawing a measured outcome with pick_labels."""

    def test_certain_outcome(self):
        probs = _probabilities(measure_pure(basis_state(4, 0), pvm_from_bloch(0, 0)))
        rng = np.random.default_rng(0)
        assert all(pick_labels(probs, rng.random()) == 0 for _ in range(100))

    def test_empirical_frequency(self):
        probs = _probabilities(measure_pure(make_ket(1, [1, 1]), pvm_from_bloch(0, 0)))
        rng = np.random.default_rng(42)
        draws = pick_labels(probs, rng.random(100_000)).sum()
        assert abs(draws / 100_000 - 0.5) < 0.01

    def test_seed_determinism(self):
        probs = _probabilities(measure_pure(make_ket(1, [1, 1]), pvm_from_bloch(0, 0)))
        rng1, rng2 = np.random.default_rng(77), np.random.default_rng(77)
        s1 = [int(pick_labels(probs, rng1.random())) for _ in range(50)]
        s2 = [int(pick_labels(probs, rng2.random())) for _ in range(50)]
        assert s1 == s2

    def test_bad_probabilities_rejected(self):
        out = measure_pure(basis_state(3, 1), pvm_from_bloch(0, 0))
        with pytest.raises(DomainError):
            pick_labels(_probabilities([out[0], out[0]]), np.random.default_rng(1).random())  # sums to 4/3

    @pytest.mark.parametrize("shape", [(), (3,), (4, 1), (4, 3)])
    def test_not_two_outcomes_rejected(self, shape):
        with pytest.raises(DomainError, match=r"a PVM has two outcome probabilities per row, got shape"):
            pick_labels(np.full(shape, 0.25), 0.5)


class TestSharedLabelRule:
    """pick_labels, the one label rule of batched trials, for one row or many."""

    @staticmethod
    def scalar_rule(probs, u):
        # a running-sum loop with its most-probable fallback
        acc = 0.0
        for label, p in enumerate(probs):
            acc += p
            if u < acc:
                return label
        return max(range(len(probs)), key=lambda i: probs[i])

    def test_matches_scalar_loop(self):
        rng = np.random.default_rng(8)
        p0 = rng.random(2000)
        p1 = 1.0 - p0
        p1[:500] -= 5e-11  # sums just below 1, inside PROB_SUM_TOL
        p0[500:600] = p1[500:600] = 0.5 - 2e-11  # equal probabilities
        u = rng.random(2000)
        u[:100] = 1.0 - 1e-11  # at or above the total for the short rows: fallback
        u[500:550] = 1.0 - 1e-12  # a tied fallback goes to label 0
        probs = np.stack([p0, p1], axis=-1)
        want = [self.scalar_rule(p.tolist(), x) for p, x in zip(probs, u)]
        assert pick_labels(probs, u).tolist() == want
        assert any(x >= a + b for a, b, x in zip(p0, p1, u))  # the fallback was exercised
        for (a, b), x, label in zip(probs[::20], u[::20], want[::20]):
            outcomes = [MeasurementOutcome(0, float(a), None), MeasurementOutcome(1, float(b), None)]
            assert pick_labels(_probabilities(outcomes), float(x)) == label

    def test_bad_sums_rejected(self):
        for row in ([0.7, 0.7], [math.nan, 0.5], [0.5, math.inf]):
            with pytest.raises(DomainError):
                pick_labels(np.array([[0.5, 0.5], row]), np.array([0.1, 0.1]))


class TestBatchedMeasurement:
    def test_matches_measure_pure(self):
        rng = np.random.default_rng(12)
        kets = [random_symmetric_ket(6, rng) for _ in range(5)]
        thetas, phis = rng.uniform(0, math.pi, 5), rng.uniform(0, 2 * math.pi, 5)
        u = rng.random(5)
        labels, probs, post = measure_pure_batch(
            np.array([k.amps for k in kets]), bloch_kappas(thetas, phis), u
        )
        for t, ket in enumerate(kets):
            outcomes = measure_pure(ket, pvm_from_bloch(thetas[t], phis[t]))
            assert labels[t] == (0 if u[t] < outcomes[0].probability else 1)
            chosen = outcomes[labels[t]]
            assert probs[t] == pytest.approx(chosen.probability, abs=1e-15)
            assert np.max(np.abs(post[t] - chosen.post_state.amps)) < 1e-15

    def test_nan_in_one_row_rejected(self):
        rng = np.random.default_rng(13)
        kets = np.array([random_symmetric_ket(4, rng).amps for _ in range(3)])
        kappas = bloch_kappas(np.full(3, 0.4), np.full(3, 1.1))
        u = np.full(3, 0.5)
        bad_kappas = kappas.copy()
        bad_kappas[1, 0, 1] = math.nan
        with pytest.raises(DomainError, match="do not sum to 1"):  # the step checks no PVM rows: the sum rule fails
            measure_pure_batch(kets, bad_kappas, u)
        bad_kets = kets.copy()
        bad_kets[2, 3] = math.nan
        with pytest.raises(DomainError, match="do not sum to 1"):
            measure_pure_batch(bad_kets, kappas, u)
        with pytest.raises(DomainError, match="alpha must be finite"):
            _final_states(bad_kets, 1)  # the deferred losses of a batch
        with pytest.raises(DomainError):
            bloch_kappas(np.array([0.4, math.nan]), np.zeros(2))

        # _final_states checks its block once, with require_densities; one bad
        # trial must fail it with the message SymmetricDensity gives for that
        # matrix alone.  At k = 0 it returns the kets unchecked: _trial_block's
        # final norm check is SymmetricKet's, and it has run on every final ket.
        good = _final_states(kets, 1)
        hermitian_off, trace_off, nan = good.copy(), good.copy(), good.copy()
        hermitian_off[1, 0, 2] += 1e-11
        trace_off[1, 3, 3] += 1e-11
        nan[1, 2, 0] = math.nan
        messages = ["alpha is not Hermitian: max deviation 1.000e-11",
                    "alpha has trace != 1: deviation 1.000e-11", "alpha must be finite"]
        for block, message in zip((hermitian_off, trace_off, nan), messages):
            with pytest.raises(DomainError) as alone:
                SymmetricDensity(3, block[1])
            with pytest.raises(DomainError) as whole:
                require_densities(block, "alpha")
            assert str(whole.value) == str(alone.value) == message
        long_kets = kets.copy()
        long_kets[1] *= 1.0 + 5e-12  # its density's trace is off by 1e-11
        with pytest.raises(DomainError) as alone:
            SymmetricDensity(3, good[1] * (1.0 + 5e-12) ** 2)
        with pytest.raises(DomainError) as whole:
            _final_states(long_kets, 1)
        assert str(whole.value) == str(alone.value) == "alpha has trace != 1: deviation 1.000e-11"

    def test_drawn_branch_below_eps_rejected(self):
        # p0 = 1e-15 is drawn by u = 0: no conditional state, as in require_post_state
        kets = np.array([[1.0, 0.0], [math.sqrt(1e-15), math.sqrt(1.0 - 1e-15)]], dtype=complex)
        kappas = bloch_kappas(np.zeros(2), np.zeros(2))
        with pytest.raises(ZeroProbabilityError):
            measure_pure_batch(kets, kappas, np.array([0.5, 0.0]))


class TestKrausUpdateFormula:
    def test_matches_direct_transcription(self):
        from dicke_sim.verify import _pvm_update_transcription

        rng = np.random.default_rng(23)
        for n in (1, 2, 6):
            rho = random_symmetric_density(n, rng)
            pvm = random_pvm(rng)
            got = measure_mixed(rho, pvm.kraus_pair())
            for ell in (0, 1):
                raw = _pvm_update_transcription(rho.alpha, n, pvm.kappa, ell)
                p = raw.trace().real
                assert got[ell].probability == pytest.approx(p, abs=1e-13)
                if got[ell].post_state is not None:
                    assert np.max(np.abs(raw / p - got[ell].post_state.alpha)) < 1e-12


@pytest.mark.parametrize("call, message", [
    (lambda: measure_pure(SymmetricKet(0, [1.0]), pvm_from_bloch(0.3, 0.2)), "cannot measure an empty string"),
    (lambda: measure_mixed(SymmetricDensity(0, [[1.0]]), pvm_from_bloch(0.3, 0.2).kraus_pair()),
     "cannot measure an empty string"),
], ids=["pure-n-0", "mixed-n-0"])
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message
