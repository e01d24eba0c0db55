"""Compact representation of permutationally-symmetric qubit strings.

An n-qubit symmetric pure state is stored as n+1 amplitudes psi_nu, one per
Hamming-weight basis state |nu>; a mixed symmetric state as the (n+1)x(n+1)
coefficient matrix alpha.  Splitting a block of k qubits off |nu> produces
the branch coefficients

    Xi(k, n; mu, nu) = sqrt( C(k, mu) * C(n-k, nu-mu) / C(n, nu) )

supported on mu <= nu and nu - mu <= n - k.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DegenerateStateError, DomainError, ResourceLimitError

NORM_TOL = 1e-12
MAX_STATE_ENTRIES = 2**24  # complex entries of one compact state: 256 MiB


def require_state_entries(entries: int, what: str) -> None:
    """Refuse, before allocating, a compact state of more than MAX_STATE_ENTRIES."""
    if entries > MAX_STATE_ENTRIES:
        raise ResourceLimitError(
            f"{what} needs {entries} complex entries, above the cap {MAX_STATE_ENTRIES}")


def _require_finite(values, what: str) -> None:
    """Refuse NaN and inf in values, an array or numbers; value checks call it once a deviation fails."""
    if not np.isfinite(values).all():
        raise DomainError(f"{what} must be finite")


def squared_norm(arr: np.ndarray) -> float:
    """sum |a|^2 by numpy's pairwise sum, whose rounding grows as log n, not as n.

    A sum that overflows reads inf, which every norm check refuses.
    """
    with np.errstate(over="ignore"):
        return float(np.sum(arr.real**2 + arr.imag**2))


def _complex_array(values, shape: tuple, what: str) -> np.ndarray:
    """values as a complex array of the given shape; the value check that follows refuses NaN and inf."""
    arr = np.asarray(values, dtype=complex)
    if arr.shape != shape:
        raise DomainError(f"{what} must have shape {shape}, got shape {arr.shape}")
    return arr


@dataclass(frozen=True)
class SymmetricKet:
    """Pure symmetric state: amps[nu] is the amplitude of weight-nu |nu>.

    n = 0 is the empty string left after measuring or losing every qubit;
    its single amplitude is a global phase.
    """

    n: int
    amps: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"qubit count must be >= 0, got {self.n}")
        arr = _complex_array(self.amps, (self.n + 1,), "ket")
        require_kets(arr, "ket")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)


def require_kets(amps: np.ndarray, what: str) -> None:
    """The norm check of kets amps[..., i], one or a stack, compact or dense: each norm is 1 within NORM_TOL.

    NaN and inf fail as "must be finite"; a stack reports its worst deviation.
    """
    with np.errstate(over="ignore"):  # an overflowing norm reads inf, which fails
        dev = abs(np.sqrt((amps.real**2 + amps.imag**2).sum(axis=-1)) - 1.0)  # a scalar for one ket
    if amps.ndim > 1:
        dev = dev.max(initial=0.0)
    if not dev <= NORM_TOL:
        _require_finite(amps, what)
        raise DomainError(f"{what} is not normalized: |norm - 1| = {dev:.3e}")


def hermitian_deviation(alpha: np.ndarray) -> float:
    """np.abs(alpha - alpha^dag).max() over alpha[..., d, d], bit for bit, by bands of about 2^16 entries per matrix."""
    d = alpha.shape[-1]
    rows = max(1, 2**16 // d)
    dev = 0.0
    with np.errstate(invalid="ignore"):  # inf - inf is NaN, which fails every check
        for i in range(0, d, rows):  # initial=dev keeps a NaN from an earlier band; max() would drop it
            dev = np.abs(alpha[..., i:i + rows, :] - alpha[..., :, i:i + rows].conj().swapaxes(-1, -2)).max(initial=dev)
    return float(dev)


def require_densities(alpha: np.ndarray, what: str) -> None:
    """The value checks of densities alpha[..., d, d], one or a stack, compact or dense: Hermitian, of unit trace.

    Each within NORM_TOL; NaN and inf fail as "must be finite".  A stack reports its worst deviation, which is
    that of its one bad matrix when it has only one.
    """
    herm_dev = hermitian_deviation(alpha)
    if not herm_dev <= NORM_TOL:  # NaN and inf always fail here
        _require_finite(alpha, what)
        raise DomainError(f"{what} is not Hermitian: max deviation {herm_dev:.3e}")
    tr_dev = abs(alpha.trace(axis1=-2, axis2=-1) - 1.0)  # a scalar for one matrix
    if alpha.ndim > 2:
        tr_dev = tr_dev.max(initial=0.0)
    if tr_dev > NORM_TOL:
        raise DomainError(f"{what} has trace != 1: deviation {tr_dev:.3e}")


@dataclass(frozen=True)
class SymmetricDensity:
    """Mixed symmetric state: alpha[mu, nu] multiplies |mu><nu|.

    Hermiticity and unit trace are enforced here; positivity is a statistical
    property checked by the test suite, not the constructor.
    """

    n: int
    alpha: np.ndarray

    def __post_init__(self):
        if self.n < 0:
            raise DomainError(f"qubit count must be >= 0, got {self.n}")
        arr = _complex_array(self.alpha, (self.n + 1, self.n + 1), "alpha")
        require_densities(arr, "alpha")
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


def basis_state(n: int, nu: int) -> SymmetricKet:
    """Weight-nu basis state |nu> of an n-qubit string."""
    if n < 1:
        raise DomainError(f"basis_state needs n >= 1, got {n}")
    if not 0 <= nu <= n:
        raise DomainError(f"weight nu must lie in [0, {n}], got {nu}")
    amps = np.zeros(n + 1, dtype=complex)
    amps[nu] = 1.0
    return SymmetricKet(n, amps)


def make_ket(n: int, amps) -> SymmetricKet:
    """Normalize the given n+1 amplitudes into a SymmetricKet."""
    if n < 1:
        raise DomainError(f"make_ket needs n >= 1, got {n}")
    arr = _complex_array(amps, (n + 1,), "ket")
    _require_finite(arr, "ket")  # before the division by the norm
    norm = math.sqrt(squared_norm(arr))
    if norm == 0.0:
        raise DegenerateStateError("cannot normalize an all-zero amplitude vector")
    return SymmetricKet(n, arr / norm)


def to_density(ket: SymmetricKet) -> SymmetricDensity:
    """Rank-1 density alpha[mu, nu] = psi_mu * conj(psi_nu)."""
    require_state_entries((ket.n + 1) ** 2, f"the density of {ket.n} qubits")
    return SymmetricDensity(ket.n, np.outer(ket.amps, ket.amps.conj()))


def _check_split_args(k: int, n: int, mu: int, nu: int) -> None:
    if not 0 <= k <= n:
        raise DomainError(f"block size k must lie in [0, {n}], got {k}")
    if not 0 <= nu <= n:
        raise DomainError(f"weight nu must lie in [0, {n}], got {nu}")
    if not 0 <= mu <= k:
        raise DomainError(f"block weight mu must lie in [0, {k}], got {mu}")


def _xi_squared(k: int, n: int, mu: int, nu: int) -> float:
    """C(k, mu) * C(n-k, nu-mu) / C(n, nu) as a balanced product of ratios.

    No binomial coefficient is ever materialized, so there is no overflow for
    large n; factors are interleaved to keep the running product bounded
    (roughly within [1/n^2, n^2]).  Accumulated relative error is at the
    rounding level of ~3*min(k, nu) multiplications, well below 1e-12 for n <= 1e6.
    """
    if nu > k:  # C(k, mu) C(n-k, nu-mu) / C(n, nu) = C(nu, mu) C(n-nu, k-mu) / C(n, k)
        k, nu = nu, k

    def numerator_factors():
        for j in range(mu):
            yield (nu - j) / (j + 1)  # C(nu, mu) spread over mu factors
            yield float(k - j)
        for i in range(nu - mu):
            yield float(n - k - i)

    acc = 1.0
    num = numerator_factors()
    t = 0
    for f in num:
        acc *= f
        while acc >= 1.0 and t < nu:
            acc /= n - t
            t += 1
    while t < nu:
        acc /= n - t
        t += 1
    return acc


def xi_coefficient(k: int, n: int, mu: int, nu: int) -> float:
    """Branch coefficient for splitting a k-qubit block off |nu> of n qubits.

    Exactly 0.0 outside the support mu <= nu, nu - mu <= n - k.
    """
    _check_split_args(k, n, mu, nu)
    if mu > nu or nu - mu > n - k:
        return 0.0
    return math.sqrt(_xi_squared(k, n, mu, nu))


def general_split(n: int, nu: int, k: int) -> dict[int, float]:
    """The branch coefficients {mu: Xi(k, n; mu, nu)} for splitting k qubits off |nu>.

    The keys are the support max(0, nu - (n - k)) ... min(k, nu) in
    increasing order; a value in it may underflow to 0.0.  The squared values
    sum to 1: they are the hypergeometric probabilities of
    finding mu of the nu one-bits inside a fixed block of k positions.

    Xi^2 is computed once, at the mode floor((k+1)(nu+1)/(n+2)), with the
    balanced product of _xi_squared; the other values follow by walking
    outward with the exact ratio

        Xi^2(mu+1) / Xi^2(mu) = (k-mu)(nu-mu) / ((mu+1)(n-k-nu+mu+1)),

    a quotient of exact integer products.  The mode's product and the walk
    each take at most min(k, nu) steps, instead of the O(k nu) of one product
    per mu.  Each step adds two roundings (the quotient and the product), so
    at distance j from the mode the relative error of Xi^2 is that of the
    mode's product plus at most 2j units of 2^-53.  The values shrink
    monotonically away from the mode, so the absolute error of every Xi stays
    at the rounding level of the largest one (at most 6.7e-16 against exact
    rationals for all n <= 40), and no value underflows before its true value
    does.
    """
    _check_split_args(k, n, 0, nu)
    lo = max(0, nu - (n - k))
    hi = min(k, nu)
    require_state_entries(hi - lo + 1, f"the split table of {k} of {n} qubits")
    mode = min(max((k + 1) * (nu + 1) // (n + 2), lo), hi)
    sq = [0.0] * (hi - lo + 1)
    sq[mode - lo] = x = _xi_squared(k, n, mode, nu)
    for mu in range(mode, hi):
        x *= (k - mu) * (nu - mu) / ((mu + 1) * (n - k - nu + mu + 1))
        sq[mu + 1 - lo] = x
    x = sq[mode - lo]
    for mu in range(mode, lo, -1):
        x *= mu * (n - k - nu + mu) / ((k - mu + 1) * (nu - mu + 1))
        sq[mu - 1 - lo] = x
    return dict(zip(range(lo, hi + 1), map(math.sqrt, sq)))


@lru_cache(maxsize=2)
def _split_table(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The gather table of a k-qubit block split off n qubits (lost or measured), as read-only arrays.

    nus[j, mu] = mu + j and xi[j, mu] = Xi(k, n; j, mu + j), from one
    general_split call per nu.  The last two (n, k) are kept: a run_trials
    block's (n - m, k) and the estimator's (n, m) are each filled once.
    """
    table = np.zeros((k + 1, n + 1))
    for nu in range(n + 1):
        for mu, value in general_split(n, nu, k).items():
            table[mu, nu] = value
    nus = np.arange(k + 1)[:, None] + np.arange(n - k + 1)
    xi = np.take_along_axis(table, nus, axis=1)
    nus.setflags(write=False)
    xi.setflags(write=False)
    return nus, xi


def _final_states(kets: np.ndarray, k: int) -> np.ndarray:
    """The k deferred losses, traced out of every final ket kets[T] in one product.

    Splitting the k lost qubits off |nu> of the N left leaves j ones among
    them with amplitude Xi(k, N; j, nu), so alpha = sum_j c_j c_j^dag with
    c_j[mu] = psi[mu + j] Xi(k, N; j, mu + j), gathered through _split_table.
    Returns the densities alpha[T, N-k+1, N-k+1], checked once over the
    block as SymmetricDensity checks each (require_densities).  k = 0
    returns the kets as they are (from _trial_block, which checks them once
    with SymmetricKet's require_kets, or a SymmetricKet).  Ensembles never call it.
    A loss table or final density above MAX_STATE_ENTRIES is refused first.

    With c_j = x + iy, the real part x_a x_b + y_a y_b and the imaginary part
    y_a x_b - x_a y_b are summed separately, elementwise over j in order, in
    buffers reused for every j.  So alpha has the same bytes in any block and
    is exactly Hermitian: its real part is bitwise symmetric, its imaginary
    part antisymmetric, and its imaginary diagonal 0.0.  (numpy's complex
    product c_a conj(c_b) is not: it leaves imaginary diagonals of about
    1e-19.)
    """
    n = kets.shape[-1] - 1
    if k == 0:
        return kets
    require_state_entries(max((k + 1) * (n + 1), (n - k + 1) ** 2), "the loss table or final density")
    nus, xi = _split_table(n, k)
    c = kets[:, nus] * xi  # c[T, j, mu]
    alpha = np.zeros((len(kets), n - k + 1, n - k + 1), dtype=complex)
    term, product = np.empty(alpha.shape), np.empty(alpha.shape)
    for cj in c.swapaxes(0, 1):
        a, b = cj[:, :, None], cj[:, None, :]
        np.multiply(a.real, b.real, out=term)
        term += np.multiply(a.imag, b.imag, out=product)
        alpha.real += term
        np.multiply(a.imag, b.real, out=term)
        term -= np.multiply(a.real, b.imag, out=product)
        alpha.imag += term
    require_densities(alpha, "alpha")
    return alpha


def split_last_qubit(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch vectors over the first n-1 qubits when one qubit is factored out.

    Returns (c0, c1) with c0[..., nu] = psi_nu * sqrt((n-nu)/n) and
    c1[..., nu] = psi_{nu+1} * sqrt((nu+1)/n) for the kets amps[..., nu];
    each is sum_nu c0[nu] |nu>|0> + c1[nu] |nu>|1>, so ||c0||^2 + ||c1||^2 = 1.
    """
    n = amps.shape[-1] - 1
    if n < 1:
        raise DomainError("cannot split a qubit off an empty string")
    weights = np.sqrt(np.arange(1, n + 1) / n)  # sqrt((nu+1)/n); reversed, sqrt((n-nu)/n)
    return amps[..., :n] * weights[::-1], amps[..., 1:] * weights
