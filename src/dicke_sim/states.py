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

import numpy as np

from .errors import DegenerateStateError, DomainError

NORM_TOL = 1e-12


def _require_finite(arr: np.ndarray, what: str) -> None:
    """NaN and inf pass every `deviation > tol` check, so they are refused first."""
    if not np.isfinite(arr).all():
        raise DomainError(f"{what} must be finite")


def _as_complex_vector(values, length: int, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=complex)
    if arr.shape != (length,):
        raise DomainError(f"{what} must have length {length}, got shape {arr.shape}")
    _require_finite(arr, what)
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
        arr = _as_complex_vector(self.amps, self.n + 1, "amps")
        norm = np.linalg.norm(arr)
        if abs(norm - 1.0) > NORM_TOL:
            raise DomainError(f"ket is not normalized: |norm - 1| = {abs(norm - 1.0):.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "amps", arr)


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
        arr = np.asarray(self.alpha, dtype=complex)
        d = self.n + 1
        if arr.shape != (d, d):
            raise DomainError(f"alpha must be {d}x{d}, got shape {arr.shape}")
        _require_finite(arr, "alpha")
        herm_dev = np.max(np.abs(arr - arr.conj().T))
        if herm_dev > NORM_TOL:
            raise DomainError(f"alpha is not Hermitian: max deviation {herm_dev:.3e}")
        tr_dev = abs(arr.trace() - 1.0)
        if tr_dev > NORM_TOL:
            raise DomainError(f"alpha has trace != 1: deviation {tr_dev:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "alpha", arr)


@dataclass(frozen=True)
class SplitCoefficient:
    """One branch of a k-qubit split: weight mu on the split-off block."""

    mu: int
    value: float


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
    arr = _as_complex_vector(amps, n + 1, "amps")
    norm = np.linalg.norm(arr)
    if norm == 0.0:
        raise DegenerateStateError("cannot normalize an all-zero amplitude vector")
    return SymmetricKet(n, arr / norm)


def to_density(ket: SymmetricKet) -> SymmetricDensity:
    """Rank-1 density alpha[mu, nu] = psi_mu * conj(psi_nu)."""
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
    rounding level of ~3*nu multiplications, well below 1e-12 for n <= 1e6.
    """

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


def general_split(n: int, nu: int, k: int) -> list[SplitCoefficient]:
    """All nonzero branch coefficients for splitting k qubits off |nu>.

    The squared values sum to 1: they are the hypergeometric probabilities of
    finding mu of the nu one-bits inside a fixed block of k positions.
    """
    if not 0 <= k <= n:
        raise DomainError(f"block size k must lie in [0, {n}], got {k}")
    if not 0 <= nu <= n:
        raise DomainError(f"weight nu must lie in [0, {n}], got {nu}")
    lo = max(0, nu - (n - k))
    hi = min(k, nu)
    return [
        SplitCoefficient(mu, math.sqrt(_xi_squared(k, n, mu, nu)))
        for mu in range(lo, hi + 1)
    ]


def split_last_qubit(amps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Branch vectors over the first n-1 qubits when one qubit is factored out.

    Returns (c0, c1) with c0[..., nu] = psi_nu * sqrt((n-nu)/n) and
    c1[..., nu] = psi_{nu+1} * sqrt((nu+1)/n) for the kets amps[..., nu];
    each is sum_nu c0[nu] |nu>|0> + c1[nu] |nu>|1>, so ||c0||^2 + ||c1||^2 = 1.
    """
    n = amps.shape[-1] - 1
    if n < 1:
        raise DomainError("cannot split a qubit off an empty string")
    nus = np.arange(n)
    c0 = amps[..., :n] * np.sqrt((n - nus) / n)
    c1 = amps[..., 1:] * np.sqrt((nus + 1) / n)
    return c0, c1
