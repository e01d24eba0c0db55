"""Unit tests for the dense brute-force oracle."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from dicke_sim.errors import DomainError, InvalidMeasurementError, NotSymmetricError, ResourceLimitError
from dicke_sim.measure import SingleQubitKraus, pvm_from_bloch
from dicke_sim.oracle import (
    DenseDensity,
    DenseKet,
    Permutation,
    _basis_matrix,
    _sandwich_at,
    apply_kraus_at,
    apply_kraus_outcomes_at,
    apply_permutation,
    compress,
    density_cap,
    expand,
    expand_density,
    is_symmetric_over,
    ket_cap,
    partial_trace,
    partial_trace_raw,
    transposition,
)
from dicke_sim.states import NORM_TOL, SymmetricKet, basis_state, make_ket, to_density
from dicke_sim.verify import (
    REV_RESIDUAL,
    _cases,
    random_dense_density,
    random_kraus_pair,
    random_permutation,
    random_symmetric_density,
    random_symmetric_ket,
)


class TestExpand:
    def test_two_qubit_weight_one(self):
        assert np.allclose(expand(basis_state(2, 1)).amps, [0, 1 / math.sqrt(2), 1 / math.sqrt(2), 0])

    def test_three_qubit_weight_one(self):
        dense = expand(basis_state(3, 1)).amps
        want = np.zeros(8)
        want[[1, 2, 4]] = 1 / math.sqrt(3)
        assert np.allclose(dense, want)

    def test_compress_roundtrip(self):
        rng = np.random.default_rng(31)
        for n in (1, 5, 12):
            ket = random_symmetric_ket(n, rng)
            back = compress(expand(ket))
            assert np.max(np.abs(back.amps - ket.amps)) < 1e-14

    def test_cap_enforced(self):
        amps = np.zeros(22, dtype=complex)
        amps[0] = 1.0
        big = SymmetricKet(21, amps)
        with pytest.raises(ResourceLimitError):
            expand(big)

    def test_density_cap_enforced(self):
        n = density_cap() + 1
        alpha = np.zeros((n + 1, n + 1), dtype=complex)
        alpha[0, 0] = 1.0
        from dicke_sim.states import SymmetricDensity

        with pytest.raises(ResourceLimitError):
            expand_density(SymmetricDensity(n, alpha))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_gathers_equal_the_basis_matrix_definition(self, n):
        """The gathers give, bit for bit, B^T psi and B^T alpha B with B the weight-basis matrix."""
        rng = np.random.default_rng(600 + n)
        b = _basis_matrix(n)
        kets = [random_symmetric_ket(n, rng), basis_state(n, n // 2),
                make_ket(n, [1.0] + [0.0] * (n - 1) + [1.0])]
        for ket in kets:
            assert np.array_equal(expand(ket).amps, b.T @ ket.amps)
        for rho in [random_symmetric_density(n, rng) for _ in range(3)] + [to_density(k) for k in kets]:
            assert np.array_equal(expand_density(rho).matrix, b.T @ rho.alpha @ b)

    def test_memory_at_the_ket_cap(self):
        ket = random_symmetric_ket(ket_cap(), np.random.default_rng(37))
        tracemalloc.start()
        try:
            dense = expand(ket)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert dense.amps.shape == (2**ket_cap(),)
        assert peak <= 64 * 2**20

    def test_density_memory_is_one_matrix(self):
        # the Hermiticity check works in bands of rows, with no second 2^n x 2^n array
        rho = random_symmetric_density(10, np.random.default_rng(38))
        tracemalloc.start()
        try:
            dense = expand_density(rho)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * dense.matrix.nbytes

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv("DICKE_SIM_DENSE_CAP", "5")
        assert density_cap() == 5
        assert ket_cap() == 20
        monkeypatch.setenv("DICKE_SIM_DENSE_CAP", "25")
        assert ket_cap() == 25


class TestApplyPermutation:
    def test_identity(self):
        ket = DenseKet(2, np.array([0, 1, 0, 0], dtype=complex))
        out = apply_permutation(ket, Permutation((1, 2)))
        assert np.array_equal(out.amps, ket.amps)

    def test_swap_01_to_10(self):
        # |01>: qubit 1 (LSB) set -> index 1; swapping positions 1,2 gives |10>
        ket = DenseKet(2, np.array([0, 1, 0, 0], dtype=complex))
        out = apply_permutation(ket, transposition(2, 1, 2))
        assert np.array_equal(out.amps, np.array([0, 0, 1, 0], dtype=complex))

    def test_symmetric_states_invariant(self):
        rng = np.random.default_rng(37)
        for n in (3, 6):
            sym = expand(basis_state(n, 2))
            moved = apply_permutation(sym, random_permutation(n, rng))
            assert np.array_equal(moved.amps, sym.amps)

    def test_group_law_exact(self):
        rng = np.random.default_rng(41)
        n = 5
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        ket = DenseKet(n, amps / np.linalg.norm(amps))
        p1, p2 = random_permutation(n, rng), random_permutation(n, rng)
        lhs = apply_permutation(ket, p1.compose(p2))
        rhs = apply_permutation(apply_permutation(ket, p2), p1)
        assert np.array_equal(lhs.amps, rhs.amps)

    def test_density_sandwich(self):
        rho = expand_density(to_density(basis_state(3, 1)))
        moved = apply_permutation(rho, transposition(3, 1, 3))
        assert np.max(np.abs(moved.matrix - rho.matrix)) == 0.0

    def test_size_mismatch(self):
        ket = DenseKet(2, np.array([1, 0, 0, 0], dtype=complex))
        with pytest.raises(DomainError):
            apply_permutation(ket, Permutation((1, 2, 3)))

    def test_not_a_bijection(self):
        with pytest.raises(DomainError):
            Permutation((1, 1, 3))


class TestIsSymmetricOver:
    def test_expanded_density_full_set(self):
        rng = np.random.default_rng(43)
        rho = expand_density(random_symmetric_density(5, rng))
        assert is_symmetric_over(rho, range(1, 6), 1e-12)

    def test_computational_product_state_fails(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 1.0  # |01><01|
        assert not is_symmetric_over(DenseDensity(2, m), {1, 2}, 1e-10)

    def test_mixture_of_01_and_10_fails_one_sided(self):
        # invariant under rho -> P rho P^dag but not under rho -> P rho
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = m[2, 2] = 0.5
        assert not is_symmetric_over(DenseDensity(2, m), {1, 2}, 1e-10)

    def test_complement_after_channel(self):
        rng = np.random.default_rng(47)
        rho = expand_density(random_symmetric_density(4, rng))
        touched = apply_kraus_at(rho, 2, random_kraus_pair(rng))
        assert is_symmetric_over(touched, {1, 3, 4}, 1e-10)


class TestApplyKrausAt:
    def test_identity_channel(self):
        rho = expand_density(to_density(basis_state(3, 2)))
        ident = [SingleQubitKraus(0, np.eye(2, dtype=complex))]
        out = apply_kraus_at(rho, 2, ident)
        assert np.max(np.abs(out.matrix - rho.matrix)) < 1e-15

    @pytest.mark.parametrize("position", [1, 2, 3, 4, 5])
    def test_computational_pvm_weight_fraction(self, position):
        n, nu = 5, 3
        rho = expand_density(to_density(basis_state(n, nu)))
        results = apply_kraus_outcomes_at(rho, position, pvm_from_bloch(0, 0).kraus_pair())
        assert results[1][0] == pytest.approx(nu / n, abs=1e-12)

    def test_channel_is_trace_preserving(self):
        rng = np.random.default_rng(53)
        rho = expand_density(random_symmetric_density(4, rng))
        out = apply_kraus_at(rho, 3, random_kraus_pair(rng))
        assert out.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_random_channel_keeps_complement_symmetric(self):
        rng = np.random.default_rng(59)
        rho = expand_density(random_symmetric_density(4, rng))
        out = apply_kraus_at(rho, 2, random_kraus_pair(rng))
        assert is_symmetric_over(out, {1, 3, 4}, 1e-10)

    def test_incomplete_set_rejected(self):
        rho = expand_density(to_density(basis_state(2, 1)))
        with pytest.raises(InvalidMeasurementError):
            apply_kraus_at(rho, 1, [SingleQubitKraus(0, np.eye(2) * 0.3)])

    def test_position_out_of_range(self):
        rho = expand_density(to_density(basis_state(2, 1)))
        with pytest.raises(DomainError):
            apply_kraus_at(rho, 3, pvm_from_bloch(0, 0).kraus_pair())


def _at(n: int, position: int, k: np.ndarray) -> np.ndarray:
    """K at the given position, as the full Kronecker product I_L (x) K (x) I_R."""
    return np.kron(np.kron(np.eye(2 ** (n - position)), k), np.eye(2 ** (position - 1)))


def _transposition_matrix(n: int, p: int, q: int) -> np.ndarray:
    """P(p q) column by column, from apply_permutation on the basis kets."""
    eye = np.eye(2**n, dtype=complex)
    return np.stack([apply_permutation(DenseKet(n, e), transposition(n, p, q)).amps for e in eye], axis=1)


class TestKernelsAgainstKronecker:
    """The channel kernels against kron(I_L, K, I_R) rho kron(I_L, K, I_R)^dag.

    The verify suite cannot see a transposed (row bit, column bit) pair on the
    measured qubit: no other qubit's reduced state changes under it.  These
    tests use non-Hermitian K and densities that are not symmetric.
    """

    CASES = [(n, position) for n in range(1, 7) for position in range(1, n + 1)]

    @pytest.mark.parametrize("n, position", CASES)
    def test_sandwich(self, n, position):
        rng = np.random.default_rng(100 * n + position)
        rho = random_dense_density(n, rng).matrix
        k = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
        want = _at(n, position, k) @ rho @ _at(n, position, k).conj().T
        assert np.max(np.abs(_sandwich_at(rho, n, position, k) - want)) < 1e-14

    @pytest.mark.parametrize("n, position", CASES)
    def test_channel_and_outcomes(self, n, position):
        rng = np.random.default_rng(200 * n + position)
        rho = random_dense_density(n, rng)
        kraus = random_kraus_pair(rng)
        raws = [_at(n, position, k.matrix) @ rho.matrix @ _at(n, position, k.matrix).conj().T for k in kraus]
        out = apply_kraus_at(rho, position, kraus)
        assert np.max(np.abs(out.matrix - sum(raws))) < 1e-14
        for (p, cond), raw in zip(apply_kraus_outcomes_at(rho, position, kraus), raws):
            assert abs(p - raw.trace().real) < 1e-14
            assert np.max(np.abs(cond.matrix - raw / raw.trace().real)) < 1e-14


class TestIsSymmetricOverDefinition:
    """is_symmetric_over against P rho = rho and rho P^dag = rho for every pair."""

    @staticmethod
    def _definition(rho: DenseDensity, subset, tol: float) -> bool:
        positions = sorted(subset)
        for i, p in enumerate(positions):
            for q in positions[i + 1:]:
                perm = _transposition_matrix(rho.n, p, q)
                if np.max(np.abs(perm @ rho.matrix - rho.matrix)) > tol:
                    return False
                if np.max(np.abs(rho.matrix @ perm.conj().T - rho.matrix)) > tol:
                    return False
        return True

    def _agree(self, rho: DenseDensity, tol: float = 1e-10) -> list[bool]:
        n = rho.n
        subsets = [range(1, n + 1)] + [
            [p for p in range(1, n + 1) if p != j] for j in range(1, n + 1)
        ] + [[1, n], [j for j in range(1, n + 1) if j % 2]]
        got = [is_symmetric_over(rho, s, tol) for s in subsets]
        assert got == [self._definition(rho, s, tol) for s in subsets]
        return got

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_symmetric(self, n):
        rho = expand_density(random_symmetric_density(n, np.random.default_rng(300 + n)))
        assert all(self._agree(rho))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_symmetric_on_complement_of_a_channel(self, n):
        rng = np.random.default_rng(400 + n)
        rho = expand_density(random_symmetric_density(n, rng))
        touched = apply_kraus_at(rho, 2, random_kraus_pair(rng))
        got = self._agree(touched)
        assert not got[0] and got[2]  # full set fails, complement of position 2 holds

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_random(self, n):
        assert not self._agree(random_dense_density(n, np.random.default_rng(500 + n)))[0]


def _traced_by_kronecker(rho: np.ndarray, n: int, positions) -> np.ndarray:
    """sum_b E_b rho E_b^dag, E_b the Kronecker product of <b_p| at each traced position p and I elsewhere."""
    total = 0.0
    for bits in itertools.product(range(2), repeat=len(positions)):
        rows = dict(zip(sorted(positions), bits))
        e = np.ones((1, 1))
        for p in range(n, 0, -1):
            e = np.kron(e, np.eye(2)[[rows[p]]] if p in rows else np.eye(2))
        total = total + e @ rho @ e.T
    return total


class TestPartialTrace:
    @pytest.mark.parametrize("positions", [{1}, {2}, {3}, {4}, {5}, {2, 5}, {1, 3, 4}, {1, 2, 4, 5}])
    def test_against_kronecker(self, positions):
        rho = random_dense_density(5, np.random.default_rng(sum(2**p for p in positions))).matrix
        want = _traced_by_kronecker(rho, 5, positions)
        assert np.max(np.abs(partial_trace_raw(rho, 5, positions) - want)) < 1e-14

    def test_product_state(self):
        # |psi3> (x) |psi2> (x) |psi1| with position 1 the LSB
        rng = np.random.default_rng(61)
        singles = [rng.standard_normal(2) + 1j * rng.standard_normal(2) for _ in range(3)]
        singles = [s / np.linalg.norm(s) for s in singles]
        amps = np.kron(singles[2], np.kron(singles[1], singles[0]))
        rho = DenseDensity(3, np.outer(amps, amps.conj()))
        reduced = partial_trace(rho, {2})
        want = np.kron(np.outer(singles[2], singles[2].conj()), np.outer(singles[0], singles[0].conj()))
        assert np.max(np.abs(reduced.matrix - want)) < 1e-12

    def test_noon_gives_maximally_mixed(self):
        rho = expand_density(to_density(make_ket(2, [1, 0, 1])))
        reduced = partial_trace(rho, {1})
        assert np.allclose(reduced.matrix, np.eye(2) / 2, atol=1e-14)

    def test_symmetric_state_same_reduction_everywhere(self):
        rng = np.random.default_rng(67)
        rho = expand_density(random_symmetric_density(5, rng))
        reductions = [partial_trace(rho, {j}).matrix for j in range(1, 6)]
        for other in reductions[1:]:
            assert np.max(np.abs(other - reductions[0])) < 1e-13

    def test_trace_preserved(self):
        rng = np.random.default_rng(71)
        rho = expand_density(random_symmetric_density(6, rng))
        reduced = partial_trace(rho, {2, 5})
        assert reduced.matrix.trace().real == pytest.approx(1.0, abs=1e-12)

    def test_tracing_everything_rejected(self):
        rho = expand_density(to_density(basis_state(2, 1)))
        with pytest.raises(DomainError):
            partial_trace(rho, {1, 2})


class TestCompress:
    def test_projector_roundtrip(self):
        rho = expand_density(to_density(basis_state(3, 1)))
        back = compress(rho)
        want = np.zeros((4, 4))
        want[1, 1] = 1.0
        assert np.max(np.abs(back.alpha - want)) < 1e-14

    def test_computational_state_residual_half(self):
        m = np.zeros((4, 4), dtype=complex)
        m[1, 1] = 1.0  # |01><01|
        with pytest.raises(NotSymmetricError) as err:
            compress(DenseDensity(2, m))
        assert err.value.residual == pytest.approx(0.5, abs=1e-12)

    def test_ket_residual_half(self):
        ket = DenseKet(2, np.array([0, 1, 0, 0], dtype=complex))
        with pytest.raises(NotSymmetricError) as err:
            compress(ket)
        assert err.value.residual == pytest.approx(0.5, abs=1e-12)

    def test_untouched_substring_compresses_after_channel(self):
        rng = np.random.default_rng(73)
        rho = expand_density(random_symmetric_density(5, rng))
        touched = apply_kraus_at(rho, 3, random_kraus_pair(rng))
        rest = partial_trace(touched, {3})
        back = compress(rest)
        assert back.n == 4

    def test_random_density_fails_loudly(self):
        rng = np.random.default_rng(79)
        d = 2**4
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        m = g @ g.conj().T
        with pytest.raises(NotSymmetricError) as err:
            compress(DenseDensity(4, m / m.trace()))
        assert err.value.residual > 1e-6


class TestRandomDenseDensity:
    """What basis_characterization's reverse half needs from its random dense densities."""

    def test_the_40_default_cases(self):
        for seed, rng, n in _cases(3000, 40, 2, 8):
            rho = random_dense_density(n, rng).matrix
            assert np.max(np.abs(rho - rho.conj().T)) <= NORM_TOL, seed
            assert abs(rho.trace() - 1.0) <= NORM_TOL, seed
            assert np.linalg.eigvalsh(rho).min() >= -1e-12, seed
            assert np.linalg.matrix_rank(rho) <= 3, seed
            with pytest.raises(NotSymmetricError) as err:
                compress(DenseDensity(n, rho))
            assert err.value.residual > REV_RESIDUAL, seed


class TestDenseConstructors:
    def test_ket_norm_checked(self):
        with pytest.raises(DomainError):
            DenseKet(1, np.array([1.0, 1.0], dtype=complex))

    def test_density_trace_checked(self):
        with pytest.raises(DomainError):
            DenseDensity(1, np.eye(2, dtype=complex))

    def test_nan_ket_rejected(self):
        with pytest.raises(DomainError, match="dense ket must be finite"):
            DenseKet(2, np.array([math.nan, 0.0, 0.0, 0.0], dtype=complex))

    def test_nan_density_rejected(self):
        m = np.eye(4, dtype=complex) / 4.0
        m[0, 1] = math.nan
        with pytest.raises(DomainError, match="dense density must be finite"):
            DenseDensity(2, m)

    def test_density_psd_statistically(self):
        rng = np.random.default_rng(83)
        rho = expand_density(random_symmetric_density(4, rng))
        assert np.linalg.eigvalsh(rho.matrix).min() >= -1e-10


_MIXED = np.eye(4, dtype=complex) / 4.0
_SKEWED = _MIXED.copy()
_SKEWED[0, 1] = 0.1


@pytest.mark.parametrize("call, message", [
    (lambda: DenseKet(2, np.zeros(3)), "dense ket must have shape (4,), got shape (3,)"),
    (lambda: DenseKet(0, np.ones(1)), "a dense state needs n >= 1, got 0"),
    (lambda: DenseDensity(2, np.eye(3)), "dense density must have shape (4, 4), got shape (3, 3)"),
    (lambda: DenseDensity(2, _SKEWED), "dense density is not Hermitian: max deviation 1.000e-01"),
    (lambda: is_symmetric_over(DenseDensity(2, _MIXED), [1, 3], 1e-12), "subset [1, 3] not within 1..2"),
    (lambda: apply_kraus_at(DenseDensity(2, _MIXED), 0, pvm_from_bloch(0.3, 0.2).kraus_pair()),
     "position 0 not within 1..2"),
    (lambda: partial_trace(DenseDensity(2, _MIXED), []), "no positions to trace out"),
    (lambda: partial_trace(DenseDensity(2, _MIXED), {3}), "positions [3] not within 1..2"),
], ids=["ket-shape", "ket-no-qubits", "density-shape", "not-hermitian", "subset-range",
        "kraus-position-0", "trace-nothing", "trace-range"])
def test_malformed_arguments_rejected(call, message):
    with pytest.raises(DomainError) as excinfo:
        call()
    assert str(excinfo.value) == message
