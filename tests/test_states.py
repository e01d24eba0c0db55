"""Unit tests for the compact state types and split machinery."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dicke_sim.errors import DegenerateStateError, DomainError
from dicke_sim.states import (
    SymmetricDensity,
    SymmetricKet,
    basis_state,
    general_split,
    hermitian_deviation,
    make_ket,
    split_last_qubit,
    to_density,
    xi_coefficient,
)


def xi_exact(k: int, n: int, mu: int, nu: int) -> float:
    """Independent oracle: exact rational arithmetic, then one sqrt."""
    if mu > nu or nu - mu > n - k:
        return 0.0
    return math.sqrt(Fraction(math.comb(k, mu) * math.comb(n - k, nu - mu), math.comb(n, nu)))


class TestBasisState:
    def test_is_unit_vector(self):
        assert np.allclose(basis_state(3, 1).amps, [0, 1, 0, 0])

    def test_single_qubit_matches_logical_zero(self):
        assert np.allclose(basis_state(1, 0).amps, [1, 0])

    def test_dense_weights_are_uniform(self):
        from dicke_sim.oracle import expand

        dense = expand(basis_state(5, 2)).amps
        hot = dense[np.abs(dense) > 0]
        assert len(hot) == math.comb(5, 2)
        assert np.allclose(hot, 1 / math.sqrt(10))

    def test_range_errors(self):
        with pytest.raises(DomainError):
            basis_state(3, 4)
        with pytest.raises(DomainError):
            basis_state(3, -1)
        with pytest.raises(DomainError):
            basis_state(0, 0)


class TestMakeKet:
    def test_noon_normalization(self):
        ket = make_ket(2, [1, 0, 1])
        assert np.allclose(ket.amps, [1 / math.sqrt(2), 0, 1 / math.sqrt(2)])

    def test_scaling_invariance(self):
        assert np.allclose(make_ket(3, [0, 2, 0, 0]).amps, basis_state(3, 1).amps)

    def test_uniform(self):
        assert np.allclose(make_ket(4, [1, 1, 1, 1, 1]).amps, np.full(5, 1 / math.sqrt(5)))

    def test_all_zero_rejected(self):
        with pytest.raises(DegenerateStateError):
            make_ket(2, [0, 0, 0])

    def test_wrong_length_rejected(self):
        with pytest.raises(DomainError):
            make_ket(2, [1, 0])

    @given(st.lists(st.floats(-5, 5), min_size=3, max_size=9))
    def test_always_normalized(self, values):
        n = len(values) - 1
        if max(abs(v) for v in values) < 1e-100:  # subnormal norms underflow
            return
        ket = make_ket(n, np.array(values, dtype=complex))
        assert abs(np.linalg.norm(ket.amps) - 1.0) < 1e-12

    def test_large_uniform_builds_and_measures(self):
        # a BLAS norm over 2M + 1 terms is off by 2.6e-12, beyond NORM_TOL; pairwise sums are not
        from dicke_sim.measure import measure_pure, pvm_from_bloch

        ket = make_ket(2_000_000, np.ones(2_000_001))
        outcomes = measure_pure(ket, pvm_from_bloch(0.0, 0.0))
        assert [o.post_state.n for o in outcomes] == [1_999_999, 1_999_999]
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)


class TestConstructors:
    def test_ket_requires_normalization(self):
        with pytest.raises(DomainError):
            SymmetricKet(2, np.array([1.0, 1.0, 0.0]))

    def test_density_requires_hermitian(self):
        bad = np.array([[0.5, 1.0], [0.0, 0.5]], dtype=complex)
        with pytest.raises(DomainError):
            SymmetricDensity(1, bad)

    def test_density_requires_unit_trace(self):
        with pytest.raises(DomainError):
            SymmetricDensity(1, np.eye(2, dtype=complex))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_rejected(self, bad):
        # every state and detector type refuses NaN and inf through the checks in states
        from dicke_sim.measure import SingleQubitKraus, SingleQubitPVM
        from dicke_sim.oracle import DenseDensity, DenseKet

        off_diagonal, on_diagonal = np.eye(4, dtype=complex) / 4.0, np.eye(4, dtype=complex) / 4.0
        off_diagonal[0, 1] = on_diagonal[2, 2] = bad
        for build in (lambda: SymmetricKet(1, np.array([1.0, bad])), lambda: make_ket(1, [1.0, bad]),
                      lambda: SymmetricDensity(1, np.array([[1.0, 0.0], [0.0, bad]], dtype=complex)),
                      lambda: DenseKet(2, np.array([0.5, 0.5, 0.5, bad])),
                      lambda: DenseDensity(2, off_diagonal), lambda: DenseDensity(2, on_diagonal),
                      lambda: SingleQubitPVM(np.array([[1.0, 0.0], [0.0, bad]])),
                      lambda: SingleQubitKraus(0, np.array([[bad, 0.0], [0.0, 1.0]]))):
            with pytest.raises(DomainError, match="finite"):
                build()

    @pytest.mark.parametrize("shape", [(1, 1), (2, 2), (7, 7), (256, 256), (257, 257), (300, 300),
                                       (3, 5, 5), (2, 300, 300), (4, 1, 1),
                                       (63, 63), (64, 64), (65, 65), (129, 129), (3, 65, 65),
                                       (128, 128), (192, 192), (2, 129, 129)])
    def test_banded_hermitian_deviation_is_the_whole_matrix_one(self, shape):
        # up to d = 128 one tile is the whole matrix; above it 192 is three whole 64 x 64 tiles a side, and 129,
        # 257 and 300 end in a partial row and column of tiles
        rng = np.random.default_rng(sum(shape))
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        a = a + a.conj().swapaxes(-1, -2) + 1e-9 * rng.standard_normal(shape)
        assert hermitian_deviation(a) == np.abs(a - a.conj().swapaxes(-1, -2)).max()
        a[..., -1, -min(2, shape[-1])] += 1e-3  # now the largest deviation lies in the last, bottom-right tile
        assert hermitian_deviation(a) == np.abs(a - a.conj().swapaxes(-1, -2)).max()

    @pytest.mark.parametrize("n, where, bad", [(7, (100, 3), math.nan), (7, (70, 70), math.inf),
                                               (8, (200, 3), math.nan), (8, (140, 140), math.inf)])
    def test_non_finite_entry_below_the_diagonal_rejected(self, n, where, bad):
        # at d = 256, (200, 3) lies in tile (192, 0), read only as the mirror of tile (0, 192)
        from dicke_sim.oracle import DenseDensity

        a = np.eye(2**n, dtype=complex) / 2**n
        a[where] = bad
        assert math.isnan(hermitian_deviation(a))
        for build in (lambda: DenseDensity(n, a), lambda: SymmetricDensity(2**n - 1, a)):
            with pytest.raises(DomainError, match="must be finite"):
                build()

    def test_amps_are_read_only(self):
        ket = basis_state(2, 0)
        with pytest.raises(ValueError):
            ket.amps[0] = 5.0


class TestToDensity:
    def test_basis_projector(self):
        alpha = to_density(basis_state(2, 1)).alpha
        want = np.zeros((3, 3))
        want[1, 1] = 1.0
        assert np.allclose(alpha, want)

    def test_plus_state(self):
        alpha = to_density(make_ket(1, [1, 1])).alpha
        assert np.allclose(alpha, np.full((2, 2), 0.5))

    def test_noon_corners(self):
        alpha = to_density(make_ket(2, [1, 0, 1])).alpha
        want = np.zeros((3, 3))
        for i in (0, 2):
            for j in (0, 2):
                want[i, j] = 0.5
        assert np.allclose(alpha, want)

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(5)
        for n in (2, 5, 9):
            amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            rho = to_density(make_ket(n, amps))
            assert np.linalg.eigvalsh(rho.alpha).min() >= -1e-10


class TestXiCoefficient:
    def test_paper_worked_example(self):
        assert xi_coefficient(1, 3, 1, 1) == pytest.approx(math.sqrt(1 / 3), abs=1e-15)
        assert xi_coefficient(1, 3, 0, 1) == pytest.approx(math.sqrt(2 / 3), abs=1e-15)

    def test_against_dense_inner_product(self):
        # (2, 4, 1, 2): project expanded |2> of 4 qubits on |1>_{U} (x) |1>_{V}
        from dicke_sim.oracle import expand

        dense = expand(basis_state(4, 2)).amps.reshape(4, 4)
        lhs = expand(basis_state(2, 1)).amps
        got = float(np.real(lhs @ dense @ lhs))
        assert xi_coefficient(2, 4, 1, 2) == pytest.approx(got, abs=1e-14)

    def test_against_exact_rational(self):
        cases = [(3, 10, 2, 5), (7, 20, 3, 9), (50, 200, 20, 90), (100, 2000, 37, 800)]
        for k, n, mu, nu in cases:
            exact = xi_exact(k, n, mu, nu)
            assert abs(xi_coefficient(k, n, mu, nu) - exact) <= 1e-12 * exact

    def test_large_n_small_weight_exact(self):
        n = 10**6
        exact = xi_exact(2, n, 1, 3)
        assert abs(xi_coefficient(2, n, 1, 3) - exact) <= 1e-12 * exact

    def test_large_n_completeness(self):
        n = 10**6
        total = sum(x**2 for x in general_split(n, n // 2, 2).values())
        assert abs(total - 1.0) <= 5e-12

    def test_support_zeros_are_exact(self):
        assert xi_coefficient(2, 5, 2, 1) == 0.0
        assert xi_coefficient(2, 5, 0, 4) == 0.0

    def test_preconditions(self):
        with pytest.raises(DomainError):
            xi_coefficient(6, 5, 0, 0)
        with pytest.raises(DomainError):
            xi_coefficient(2, 5, 3, 3)
        with pytest.raises(DomainError):
            xi_coefficient(2, 5, 0, 6)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 40), st.data())
    def test_completeness_property(self, n, data):
        k = data.draw(st.integers(0, n))
        nu = data.draw(st.integers(0, n))
        total = sum(x**2 for x in general_split(n, nu, k).values())
        assert abs(total - 1.0) <= 1e-12


class TestGeneralSplit:
    def test_paper_worked_example(self):
        coeffs = general_split(3, 1, 1)
        assert list(coeffs) == [0, 1]
        assert coeffs[0] == pytest.approx(math.sqrt(2 / 3), abs=1e-15)
        assert coeffs[1] == pytest.approx(math.sqrt(1 / 3), abs=1e-15)

    def test_vacuum_is_trivial(self):
        assert general_split(5, 0, 2) == {0: 1.0}

    def test_against_dense_oracle(self):
        from dicke_sim.oracle import expand

        n, nu, k = 8, 4, 3
        dense = expand(basis_state(n, nu)).amps.reshape(2 ** (n - k), 2**k)
        for mu, xi in general_split(n, nu, k).items():
            lhs = expand(basis_state(n - k, nu - mu)).amps
            rhs = expand(basis_state(k, mu)).amps
            assert float(np.real(lhs @ dense @ rhs)) == pytest.approx(xi, abs=1e-13)

    def test_recurrence_matches_per_mu_product(self):
        for n in range(1, 41):
            for nu in range(n + 1):
                for k in range(n + 1):
                    coeffs = general_split(n, nu, k)
                    assert list(coeffs) == list(range(max(0, nu - n + k), min(k, nu) + 1))
                    for mu, xi in coeffs.items():
                        assert abs(xi - xi_coefficient(k, n, mu, nu)) <= 1e-15

    @pytest.mark.parametrize("n, nu, k", [(1000, 500, 500), (10**5, 3 * 10**4, 2 * 10**4), (10**6, 5 * 10**5, 2)])
    def test_large_completeness(self, n, nu, k):
        total = sum(x**2 for x in general_split(n, nu, k).values())
        assert abs(total - 1.0) <= 1e-12

    def test_large_split_against_exact_rationals(self):
        # counted from the block's side, C(nu, mu) C(n-nu, k-mu) / C(n, k), the
        # same hypergeometric probability needs only small integers
        n, nu, k = 10**6, 5 * 10**5, 2
        for mu, xi in general_split(n, nu, k).items():
            exact = Fraction(math.comb(nu, mu) * math.comb(n - nu, k - mu), math.comb(n, k))
            assert abs(xi**2 - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("n, nu, k", [(2000, 1000, 1000), (10**6, 5 * 10**5, 2)])
    def test_keys_are_the_support_in_order(self, n, nu, k):
        # n <= 40 is covered by test_recurrence_matches_per_mu_product
        coeffs = general_split(n, nu, k)
        assert list(coeffs) == list(range(max(0, nu - (n - k)), min(k, nu) + 1))
        if n == 2000:  # the tails underflow to 0.0 inside the support and keep their keys
            assert coeffs[0] == coeffs[1000] == 0.0 and coeffs[500] > 0.0

    def test_matches_split_last_qubit_on_basis_states(self):
        for n, nu in [(4, 0), (4, 2), (7, 7), (9, 3)]:
            coeffs = general_split(n, nu, 1)
            c0, c1 = split_last_qubit(basis_state(n, nu).amps)
            if nu <= n - 1:
                assert coeffs.get(0, 0.0) == pytest.approx(abs(c0[nu]), abs=1e-14)
            if nu >= 1:
                assert coeffs.get(1, 0.0) == pytest.approx(abs(c1[nu - 1]), abs=1e-14)


class TestSplitLastQubit:
    def test_paper_worked_example(self):
        c0, c1 = split_last_qubit(basis_state(3, 1).amps)
        assert np.allclose(c0, [0, math.sqrt(2 / 3), 0], atol=1e-15)
        assert np.allclose(c1, [math.sqrt(1 / 3), 0, 0], atol=1e-15)

    def test_all_zeros_has_no_one_branch(self):
        c0, c1 = split_last_qubit(basis_state(5, 0).amps)
        assert np.allclose(c0, np.eye(5)[0])
        assert np.allclose(c1, 0.0)

    def test_branch_norms_sum_to_one(self):
        rng = np.random.default_rng(11)
        for n in (1, 3, 8):
            amps = rng.standard_normal(n + 1) + 1j * rng.standard_normal(n + 1)
            c0, c1 = split_last_qubit(make_ket(n, amps).amps)
            assert np.linalg.norm(c0) ** 2 + np.linalg.norm(c1) ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_dense_reconstruction_roundtrip(self):
        from dicke_sim.oracle import expand

        rng = np.random.default_rng(12)
        amps = rng.standard_normal(7) + 1j * rng.standard_normal(7)
        ket = make_ket(6, amps)
        c0, c1 = split_last_qubit(ket.amps)
        recon = np.zeros(2**6, dtype=complex)
        for b, branch in enumerate((c0, c1)):
            norm = np.linalg.norm(branch)
            sub = expand(SymmetricKet(5, branch / norm)).amps * norm
            recon[(np.arange(2**5) << 1) | b] += sub
        assert np.max(np.abs(recon - expand(ket).amps)) < 1e-12

    def test_empty_string_rejected(self):
        ket = basis_state(1, 0)
        post = SymmetricKet(0, np.array([1.0 + 0j]))
        assert post.n == 0
        with pytest.raises(DomainError):
            split_last_qubit(post.amps)


@pytest.mark.parametrize("call, message", [
    (lambda: SymmetricDensity(2, np.eye(2) / 2.0), "alpha must have shape (3, 3), got shape (2, 2)"),
    (lambda: SymmetricDensity(-1, np.eye(1)), "qubit count must be >= 0, got -1"),
], ids=["density-shape", "density-negative-n"])
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message
