"""Brute-force 2^n reference implementation.

Everything here favours being obviously correct over being fast: flat arrays
indexed by computational-basis bit patterns, explicit qubit positions, and
permutation operators realized as index relabelings.  Qubit position 1 is the
least significant bit of the index, matching the |b_n ... b_1> ordering used
by the compact modules.

The kernels do not spell out that definition: a channel on one qubit is one
4x4 superoperator product over rho reshaped around that qubit's bit, and the
symmetry check compares quarter blocks of the reshaped matrix with their
swaps.  Their reference is the Kronecker definition, kron(I, K, I) rho
kron(I, K, I)^dag and P(pi) built from apply_permutation, which
tests/test_oracle.py compares them with at every position.

Dense work is capped (kets at 20 qubits, densities at 12 by default); the
DICKE_SIM_DENSE_CAP environment variable overrides the density cap.  `expand`
and `expand_density` gather the compact entries by Hamming weight, with no
weight-basis product.  A 20-qubit `expand` peaks at 32 MiB: the 16 MiB ket
and as much again while its norm is checked.  A 12-qubit density is 256 MiB,
and its Hermiticity check (states.hermitian_deviation), which compares
64 x 64 tiles with their mirror tiles, adds about 0.2 MiB.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DomainError, NotSymmetricError, ResourceLimitError
from .measure import ZERO_PROB_EPS, SingleQubitKraus, _check_complete
from .states import SymmetricDensity, SymmetricKet, _complex_array, require_densities, require_kets

DEFAULT_KET_CAP = 20
DEFAULT_DENSITY_CAP = 12
COMPRESS_TOL = 1e-10


def density_cap() -> int:
    env = os.environ.get("DICKE_SIM_DENSE_CAP")
    if not env:
        return DEFAULT_DENSITY_CAP
    try:
        return int(env)
    except ValueError:
        raise ConfigError(f"DICKE_SIM_DENSE_CAP must be an integer, got {env!r}") from None


def ket_cap() -> int:
    return max(DEFAULT_KET_CAP, density_cap())


@dataclass(frozen=True)
class DenseKet:
    """Full 2^n amplitude vector."""

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"a dense state needs n >= 1, got {self.n}")
        arr = _complex_array(self.amps, (2**self.n,), "dense ket")
        require_kets(arr, "dense ket")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)


@dataclass(frozen=True)
class DenseDensity:
    """Full 2^n x 2^n density matrix.

    Hermiticity and unit trace are enforced; positivity is checked by tests
    (an eigendecomposition per construction would dominate oracle runtime).
    """

    n: int
    matrix: np.ndarray

    def __post_init__(self):
        if self.n < 1:
            raise DomainError(f"a dense state needs n >= 1, got {self.n}")
        arr = _complex_array(self.matrix, (2**self.n, 2**self.n), "dense density")
        require_densities(arr, "dense density")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class Permutation:
    """Bijection on qubit positions {1, ..., n}; mapping[i-1] = pi(i)."""

    mapping: tuple[int, ...]

    def __post_init__(self):
        n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, n + 1)):
            raise DomainError(f"not a bijection on 1..{n}: {self.mapping}")
        object.__setattr__(self, "mapping", tuple(int(i) for i in self.mapping))

    @property
    def n(self) -> int:
        return len(self.mapping)

    def inverse(self) -> Permutation:
        inv = [0] * self.n
        for i, j in enumerate(self.mapping, start=1):
            inv[j - 1] = i
        return Permutation(tuple(inv))

    def compose(self, other: Permutation) -> Permutation:
        """self after other: (self . other)(i) = self(other(i))."""
        if self.n != other.n:
            raise DomainError("permutation size mismatch")
        return Permutation(tuple(self.mapping[other.mapping[i - 1] - 1] for i in range(1, self.n + 1)))


def transposition(n: int, p: int, q: int) -> Permutation:
    mapping = list(range(1, n + 1))
    mapping[p - 1], mapping[q - 1] = q, p
    return Permutation(tuple(mapping))


def _index_map(perm: Permutation) -> np.ndarray:
    """J with J[a] = index of P(pi)|a>: bit at position i moves to pi(i)."""
    n = perm.n
    a = np.arange(2**n, dtype=np.int64)
    j = np.zeros_like(a)
    for i, target in enumerate(perm.mapping, start=1):
        j |= ((a >> (i - 1)) & 1) << (target - 1)
    return j


def _weights(n: int) -> np.ndarray:
    """Hamming weight of every n-bit index."""
    return np.bitwise_count(np.arange(2**n, dtype=np.uint64)).astype(np.int64)


def _scales(n: int) -> np.ndarray:
    """<a|nu> = 1 / sqrt(C(n, nu)) for every weight nu and every a of that weight."""
    return 1.0 / np.sqrt([math.comb(n, nu) for nu in range(n + 1)])


def _basis_matrix(n: int) -> np.ndarray:
    """Rows are the dense weight-nu basis states: B[nu, a] = <a|nu>."""
    w = _weights(n)
    b = np.zeros((n + 1, 2**n))
    b[w, np.arange(2**n)] = _scales(n)[w]
    return b


def expand(ket: SymmetricKet) -> DenseKet:
    """Dense amplitudes: psi_{w(a)} / sqrt(C(n, w(a))) at every bit pattern a."""
    n = ket.n
    if n > ket_cap():
        raise ResourceLimitError(f"dense ket of {n} qubits exceeds cap {ket_cap()}")
    return DenseKet(n, (_scales(n) * ket.amps)[_weights(n)])


def expand_density(rho: SymmetricDensity) -> DenseDensity:
    """Dense entries alpha_{w(a), w(b)} / sqrt(C(n, w(a)) C(n, w(b))); rows scaled first, as B^T alpha B rounds."""
    n = rho.n
    if n > density_cap():
        raise ResourceLimitError(f"dense density of {n} qubits exceeds cap {density_cap()}")
    w, s = _weights(n), _scales(n)
    return DenseDensity(n, (s[:, None] * rho.alpha * s)[w][:, w])


def compress(state: DenseKet | DenseDensity):
    """Project onto the symmetric subspace; error out if more than COMPRESS_TOL of weight is lost.

    The reported residual is the probability weight outside the symmetric
    subspace (1 - <psi|P|psi> for kets, tr(rho) - tr(P rho P) for densities).
    """
    n = state.n
    b = _basis_matrix(n)
    if isinstance(state, DenseKet):
        psi = b @ state.amps
        inside = float(np.linalg.norm(psi) ** 2)
        residual = max(0.0, 1.0 - inside)
        if residual > COMPRESS_TOL:
            raise NotSymmetricError(
                f"ket has weight {residual:.3e} outside the symmetric subspace", residual
            )
        return SymmetricKet(n, psi / math.sqrt(inside))
    alpha = b @ state.matrix @ b.T
    inside = float(alpha.trace().real)
    residual = max(0.0, 1.0 - inside)
    if residual > COMPRESS_TOL:
        raise NotSymmetricError(
            f"density has weight {residual:.3e} outside the symmetric subspace", residual
        )
    alpha = (alpha + alpha.conj().T) / 2.0 / inside
    return SymmetricDensity(n, alpha)


def apply_permutation(state: DenseKet | DenseDensity, perm: Permutation):
    """P(pi) |state> for kets, P(pi) rho P(pi)^dag for densities."""
    if perm.n != state.n:
        raise DomainError(f"permutation on {perm.n} qubits applied to {state.n}-qubit state")
    j = _index_map(perm)
    if isinstance(state, DenseKet):
        out = np.empty_like(state.amps)
        out[j] = state.amps
        return DenseKet(state.n, out)
    out = np.empty_like(state.matrix)
    out[np.ix_(j, j)] = state.matrix
    return DenseDensity(state.n, out)


def is_symmetric_over(rho: DenseDensity, subset, tol: float) -> bool:
    """Check rho = P(pi) rho and rho = rho P(pi)^dag for subset permutations.

    Adjacent transpositions of the sorted subset generate the full symmetric
    group on the subset, so checking them suffices.  The transposition of
    positions p < q swaps two axes of the matrix reshaped around those bits;
    the row side and the column side are checked separately, each on its bit q = 0,
    bit p = 1 block against the swapped one.  Entries whose two bits agree meet
    themselves, and rho's entries are finite, so that quarter gives the same max.
    """
    positions = sorted(set(subset))
    if any(not 1 <= p <= rho.n for p in positions):
        raise DomainError(f"subset {positions} not within 1..{rho.n}")
    n, m = rho.n, rho.matrix
    d = 2**n
    for p, q in zip(positions, positions[1:]):
        bits = (2 ** (n - q), 2, 2 ** (q - p - 1), 2, 2 ** (p - 1))
        rows = m.reshape(bits + (d,))
        if not np.max(np.abs(rows[:, 0, :, 1] - rows[:, 1, :, 0])) <= tol:
            return False
        cols = m.reshape((d,) + bits)
        if not np.max(np.abs(cols[:, :, 0, :, 1] - cols[:, :, 1, :, 0])) <= tol:
            return False
    return True


def _channel_at(matrix: np.ndarray, n: int, position: int, kraus_mats) -> np.ndarray:
    """sum_K (K at position) rho (K at position)^dag, unnormalized.

    The channel acts on the (row bit, column bit) pair of the qubit as the
    4x4 superoperator S = sum_K K (x) conj(K), so rho, reshaped to
    (L, 2, R, L, 2, R) around that bit, takes one (4, 4) @ (4, 4^n / 4) product.
    """
    left, right = 2 ** (n - position), 2 ** (position - 1)
    sup = sum(np.kron(k, k.conj()) for k in kraus_mats)
    t = matrix.reshape(left, 2, right, left, 2, right).transpose(1, 4, 0, 2, 3, 5)
    out = (sup @ t.reshape(4, -1)).reshape(t.shape)
    return out.transpose(2, 0, 3, 4, 1, 5).reshape(2**n, 2**n)


def _sandwich_at(matrix: np.ndarray, n: int, position: int, k: np.ndarray) -> np.ndarray:
    """(K at position) rho (K at position)^dag, unnormalized."""
    return _channel_at(matrix, n, position, [k])


def apply_kraus_at(
    rho: DenseDensity, position: int, kraus_set: list[SingleQubitKraus]
) -> DenseDensity:
    """Full channel sum_ell K_ell rho K_ell^dag on the given qubit."""
    if not 1 <= position <= rho.n:
        raise DomainError(f"position {position} not within 1..{rho.n}")
    _check_complete(kraus_set)
    total = _channel_at(rho.matrix, rho.n, position, [k.matrix for k in kraus_set])
    total = (total + total.conj().T) / 2.0
    return DenseDensity(rho.n, total)


def apply_kraus_outcome_at(
    rho: DenseDensity, position: int, kraus_set: list[SingleQubitKraus], label: int
) -> tuple[float, DenseDensity | None]:
    """(probability, conditional state) of outcome kraus_set[label]; the state is None below ZERO_PROB_EPS."""
    if not 1 <= position <= rho.n:
        raise DomainError(f"position {position} not within 1..{rho.n}")
    _check_complete(kraus_set)
    raw = _sandwich_at(rho.matrix, rho.n, position, kraus_set[label].matrix)
    p = float(raw.trace().real)
    return p, (DenseDensity(rho.n, (raw + raw.conj().T) / 2.0 / p) if p >= ZERO_PROB_EPS else None)


def apply_kraus_outcomes_at(
    rho: DenseDensity, position: int, kraus_set: list[SingleQubitKraus]
) -> list[tuple[float, DenseDensity | None]]:
    """Per-outcome (probability, conditional state) pairs; an empty set still reaches the checks, which refuse it."""
    return [apply_kraus_outcome_at(rho, position, kraus_set, label) for label in range(len(kraus_set) or 1)]


def apply_matrix_at_ket(amps: np.ndarray, n: int, position: int, mat: np.ndarray) -> np.ndarray:
    """(M at position)|psi> on raw amplitudes; no normalization."""
    t = amps.reshape(2 ** (n - position), 2, 2 ** (position - 1))
    return np.matmul(mat, t).reshape(-1)


def partial_trace_raw(matrix: np.ndarray, n: int, positions) -> np.ndarray:
    """Partial trace on a raw (possibly unnormalized) 2^n x 2^n matrix.

    One np.trace per traced position, over the (row bit, column bit) pair of
    the (L, 2, R, L, 2, R) reshape that _channel_at uses; the highest position
    goes first, so the lower ones keep their numbers.
    """
    for position in sorted(set(positions), reverse=True):
        left, right = 2 ** (n - position), 2 ** (position - 1)
        matrix = np.trace(matrix.reshape(left, 2, right, left, 2, right), axis1=1, axis2=4)
        n -= 1
        matrix = matrix.reshape(2**n, 2**n)
    return matrix


def partial_trace(rho: DenseDensity, positions) -> DenseDensity:
    """Trace out the qubits at the given positions."""
    traced = sorted(set(positions))
    n = rho.n
    if not traced:
        raise DomainError("no positions to trace out")
    if any(not 1 <= p <= n for p in traced):
        raise DomainError(f"positions {traced} not within 1..{n}")
    if len(traced) == n:
        raise DomainError("tracing out every qubit leaves no state")
    return DenseDensity(n - len(traced), partial_trace_raw(rho.matrix, n, traced))
