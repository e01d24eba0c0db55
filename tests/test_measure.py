"""Unit tests for single-qubit measurement and loss on compact states."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_sim.errors import DomainError, InvalidMeasurementError, ZeroProbabilityError
from dicke_sim.measure import (
    SingleQubitKraus,
    SingleQubitPVM,
    computational_pvm,
    hadamard_pvm,
    lose_qubit,
    lose_qubit_pure,
    measure_mixed,
    measure_pure,
    pvm_from_bloch,
    sample_outcome,
)
from dicke_sim.states import SymmetricDensity, basis_state, make_ket, to_density
from dicke_sim.verify import (
    DenseRunner,
    random_kraus_pair,
    random_pvm,
    random_symmetric_density,
    random_symmetric_ket,
)
from dicke_sim.oracle import expand_density


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


class TestMeasurePure:
    @pytest.mark.parametrize("n,nu", [(2, 1), (5, 2), (9, 9), (7, 0)])
    def test_basis_state_computational_probabilities(self, n, nu):
        out = measure_pure(basis_state(n, nu), computational_pvm())
        assert out[1].probability == pytest.approx(nu / n, abs=1e-13)
        assert out[0].probability == pytest.approx((n - nu) / n, abs=1e-13)

    def test_all_zeros_state(self):
        out = measure_pure(basis_state(6, 0), computational_pvm())
        assert out[0].probability == pytest.approx(1.0, abs=1e-14)
        assert np.allclose(out[0].post_state.amps, basis_state(5, 0).amps)
        assert out[1].post_state is None

    def test_noon_hadamard_matches_oracle(self):
        from dicke_sim.verify import dense_pure_pvm_sequence, embed_qubit
        from dicke_sim.oracle import expand

        ket = make_ket(2, [1, 0, 1])
        pvm = hadamard_pvm()
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

    def test_post_state_basis_descriptor(self):
        pvm = hadamard_pvm()
        out = measure_pure(basis_state(3, 1), pvm)
        assert out[0].basis is pvm

    def test_measuring_down_to_empty_string(self):
        state = basis_state(1, 1)
        out = measure_pure(state, computational_pvm())
        assert out[1].probability == pytest.approx(1.0)
        assert out[1].post_state.n == 0

    def test_zero_probability_conditioning_raises(self):
        out = measure_pure(basis_state(4, 0), computational_pvm())
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
        out = measure_mixed(rho, computational_pvm().kraus_pair())
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
    def test_matches_composition(self):
        rng = np.random.default_rng(13)
        ket = random_symmetric_ket(8, rng)
        a = lose_qubit_pure(ket)
        b = lose_qubit(to_density(ket))
        assert np.max(np.abs(a.alpha - b.alpha)) < 1e-14

    def test_basis_state_diagonal(self):
        for n, nu in [(4, 2), (6, 6)]:
            reduced = lose_qubit_pure(basis_state(n, nu))
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
        assert np.max(np.abs(lose_qubit_pure(ket).alpha - oracle.alpha)) < 1e-12


class TestSampleOutcome:
    def test_certain_outcome(self):
        out = measure_pure(basis_state(4, 0), computational_pvm())
        rng = np.random.default_rng(0)
        assert all(sample_outcome(out, rng) == 0 for _ in range(100))

    def test_empirical_frequency(self):
        out = measure_pure(make_ket(1, [1, 1]), computational_pvm())
        rng = np.random.default_rng(42)
        draws = sum(sample_outcome(out, rng) for _ in range(100_000))
        assert abs(draws / 100_000 - 0.5) < 0.01

    def test_seed_determinism(self):
        out = measure_pure(make_ket(1, [1, 1]), computational_pvm())
        rng1, rng2 = np.random.default_rng(77), np.random.default_rng(77)
        s1 = [sample_outcome(out, rng1) for _ in range(50)]
        s2 = [sample_outcome(out, rng2) for _ in range(50)]
        assert s1 == s2

    def test_bad_probabilities_rejected(self):
        out = measure_pure(basis_state(3, 1), computational_pvm())
        with pytest.raises(DomainError):
            sample_outcome([out[0], out[0]], np.random.default_rng(1))  # sums to 4/3


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
