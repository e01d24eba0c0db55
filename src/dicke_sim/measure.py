"""Single-qubit measurement and loss on compact symmetric states.

All operations act on "the last qubit" of the compact representation; for a
permutationally-symmetric state this is equivalent to measuring or losing a
qubit at any position, so no position argument is exposed here.  The dense
oracle retains position-explicit operations for cross-checking.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, InvalidMeasurementError, ZeroProbabilityError
from .states import (SymmetricDensity, SymmetricKet, _require_finite, split_last_qubit,
                     to_density)

ZERO_PROB_EPS = 1e-14
COMPLETENESS_TOL = 1e-10
PVM_TOL = 1e-12
PROB_SUM_TOL = 1e-10


@dataclass(frozen=True)
class SingleQubitKraus:
    """One Kraus operator K_ell of a single-qubit measurement."""

    label: int
    matrix: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.matrix, dtype=complex)
        if arr.shape != (2, 2):
            raise DomainError(f"Kraus matrix must be 2x2, got shape {arr.shape}")
        _require_finite(arr, "Kraus matrix")
        arr.setflags(write=False)
        object.__setattr__(self, "matrix", arr)


@dataclass(frozen=True)
class SingleQubitPVM:
    """Projective measurement in the basis {|0'>, |1'>}.

    kappa[ell, b] = <ell'|b>, so each row holds the conjugated components of
    one basis vector and kappa is unitary.
    """

    kappa: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.kappa, dtype=complex)
        if arr.shape != (2, 2):
            raise DomainError(f"kappa must be 2x2, got shape {arr.shape}")
        _require_finite(arr, "kappa")
        dev = np.max(np.abs(arr @ arr.conj().T - np.eye(2)))
        if dev > PVM_TOL:
            raise InvalidMeasurementError(
                f"PVM rows are not orthonormal: max deviation {dev:.3e}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "kappa", arr)

    def basis_ket(self, ell: int) -> np.ndarray:
        """Components of |ell'> in the logical basis."""
        return self.kappa[ell].conj()

    def kraus_pair(self) -> list[SingleQubitKraus]:
        """The two rank-1 projectors K_ell = |ell'><ell'|."""
        return [
            SingleQubitKraus(ell, np.outer(self.kappa[ell].conj(), self.kappa[ell]))
            for ell in (0, 1)
        ]


@dataclass(frozen=True)
class MeasurementOutcome:
    """One branch of a measurement.

    The measured qubit itself is not stored: for a PVM it is left in the pure
    basis state identified by (basis, label).  post_state is None when the
    branch probability is below ZERO_PROB_EPS.
    """

    label: int
    probability: float
    post_state: SymmetricKet | SymmetricDensity | None
    basis: SingleQubitPVM | None = None

    def require_post_state(self) -> SymmetricKet | SymmetricDensity:
        if self.post_state is None:
            raise ZeroProbabilityError(
                f"outcome {self.label} has probability {self.probability:.3e} "
                f"below {ZERO_PROB_EPS}; no conditional state"
            )
        return self.post_state


def pvm_from_bloch(theta: float, phi: float) -> SingleQubitPVM:
    """PVM whose |0'> points along Bloch angles (theta, phi).

    |0'> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, |1'> orthogonal.
    """
    if not (math.isfinite(theta) and math.isfinite(phi)):
        raise DomainError(f"Bloch angles must be finite, got ({theta}, {phi})")
    c, s = math.cos(theta / 2.0), math.sin(theta / 2.0)
    phase = complex(math.cos(phi), math.sin(phi))
    kappa = np.array(
        [[c, s * phase.conjugate()], [-s * phase, c]], dtype=complex
    )
    return SingleQubitPVM(kappa)


def computational_pvm() -> SingleQubitPVM:
    return pvm_from_bloch(0.0, 0.0)


def hadamard_pvm() -> SingleQubitPVM:
    return pvm_from_bloch(math.pi / 2.0, 0.0)


def pvm_branches(amps: np.ndarray, kappa: np.ndarray) -> np.ndarray:
    """Unnormalized branch amplitudes b[..., ell, nu] of a PVM on the last qubit.

    b_ell = kappa[ell, 0] c0 + kappa[ell, 1] c1 with (c0, c1) from
    split_last_qubit, and p_ell = ||b_ell||^2.  Leading axes of amps[..., nu]
    and kappa[..., ell, b] broadcast: one call serves one ket or a batch.
    """
    c0, c1 = split_last_qubit(amps)
    return kappa[..., :, 0, None] * c0[..., None, :] + kappa[..., :, 1, None] * c1[..., None, :]


def measure_pure(ket: SymmetricKet, pvm: SingleQubitPVM) -> list[MeasurementOutcome]:
    """Measure one qubit of a pure symmetric state with a PVM (see pvm_branches)."""
    if ket.n < 1:
        raise DomainError("cannot measure an empty string")
    outcomes = []
    for ell, b in enumerate(pvm_branches(ket.amps, pvm.kappa)):
        p = float(np.linalg.norm(b) ** 2)
        post = SymmetricKet(ket.n - 1, b / math.sqrt(p)) if p >= ZERO_PROB_EPS else None
        outcomes.append(MeasurementOutcome(ell, p, post, basis=pvm))
    return outcomes


def _check_complete(kraus_set: list[SingleQubitKraus]) -> None:
    if not kraus_set:
        raise InvalidMeasurementError("empty Kraus set")
    total = sum(k.matrix.conj().T @ k.matrix for k in kraus_set)
    dev = np.max(np.abs(total - np.eye(2)))
    if dev > COMPLETENESS_TOL:
        raise InvalidMeasurementError(
            f"Kraus set violates completeness: max deviation {dev:.3e}"
        )


def _kraus_update(alpha: np.ndarray, n: int, gram: np.ndarray) -> np.ndarray:
    """Unnormalized coefficient matrix of the n-1 remaining qubits.

    gram = K^dag K for a measurement branch, or the identity for a trace-out.
    Each entry combines the four neighbours of alpha weighted by the
    single-qubit split coefficients:

        alpha'[nu, mu] = (1/n) * sum_{b, b'} gram[b', b]
                         * c_b(nu) * c_b'(mu) * alpha[nu+b, mu+b']

    with c_0(x) = sqrt(n-x), c_1(x) = sqrt(x+1).
    """
    idx = np.arange(n)
    c0 = np.sqrt(n - idx)
    c1 = np.sqrt(idx + 1.0)
    out = (
        gram[0, 0] * np.outer(c0, c0) * alpha[:n, :n]
        + gram[1, 0] * np.outer(c0, c1) * alpha[:n, 1:]
        + gram[0, 1] * np.outer(c1, c0) * alpha[1:, :n]
        + gram[1, 1] * np.outer(c1, c1) * alpha[1:, 1:]
    )
    return out / n


def measure_mixed(
    rho: SymmetricDensity, kraus_set: list[SingleQubitKraus]
) -> list[MeasurementOutcome]:
    """Measure one qubit of a mixed symmetric state with a complete Kraus set.

    For rank-1 projectors this reproduces the PVM coefficient update exactly;
    for general Kraus operators the measured qubit is traced out of the
    branch, which is what gram = K^dag K encodes.
    """
    n = rho.n
    if n < 1:
        raise DomainError("cannot measure an empty string")
    _check_complete(kraus_set)
    outcomes = []
    for k in kraus_set:
        gram = k.matrix.conj().T @ k.matrix
        raw = _kraus_update(rho.alpha, n, gram)
        p = float(raw.trace().real)
        if p >= ZERO_PROB_EPS:
            alpha = raw / p
            alpha = (alpha + alpha.conj().T) / 2.0
            post = SymmetricDensity(n - 1, alpha)
        else:
            post = None
        outcomes.append(MeasurementOutcome(k.label, p, post))
    return outcomes


def lose_qubit(rho: SymmetricDensity) -> SymmetricDensity:
    """Trace out one qubit: the gram matrix of a full trace is the identity."""
    n = rho.n
    if n < 1:
        raise DomainError("cannot lose a qubit from an empty string")
    alpha = _kraus_update(rho.alpha, n, np.eye(2))
    alpha = (alpha + alpha.conj().T) / 2.0
    return SymmetricDensity(n - 1, alpha)


def lose_qubit_pure(ket: SymmetricKet) -> SymmetricDensity:
    """Loss applied to a pure state; the result is generally mixed."""
    return lose_qubit(to_density(ket))


def sample_outcome(outcomes: list[MeasurementOutcome], rng: np.random.Generator) -> int:
    """Draw an outcome label with the recorded probabilities."""
    total = sum(o.probability for o in outcomes)
    if abs(total - 1.0) > PROB_SUM_TOL:
        raise DomainError(f"outcome probabilities sum to {total}, not 1")
    r = rng.random()
    acc = 0.0
    for o in outcomes:
        acc += o.probability
        if r < acc:
            return o.label
    return max(outcomes, key=lambda o: o.probability).label
