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
from .states import (NORM_TOL, SymmetricDensity, SymmetricKet, _require_finite,
                     split_last_qubit, squared_norm, to_density)

ZERO_PROB_EPS = 1e-14
COMPLETENESS_TOL = 1e-10
PVM_TOL = 1e-12
PROB_SUM_TOL = 1e-10
_IDENTITY = np.eye(2)


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
        require_pvm_rows(arr)
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
    basis state of its label.  post_state is None when the branch probability
    is below ZERO_PROB_EPS.
    """

    label: int
    probability: float
    post_state: SymmetricKet | SymmetricDensity | None

    def require_post_state(self) -> SymmetricKet | SymmetricDensity:
        if self.post_state is None:
            raise ZeroProbabilityError(
                f"outcome {self.label} has probability {self.probability:.3e} "
                f"below {ZERO_PROB_EPS}; no conditional state"
            )
        return self.post_state


def require_pvm_rows(kappas: np.ndarray) -> None:
    """Raise unless every kappa[..., ell, b] has orthonormal rows; NaN and an overflow fail too."""
    with np.errstate(over="ignore", invalid="ignore"):  # an entry above 1e154 overflows the product
        dev = np.abs(kappas @ kappas.conj().swapaxes(-1, -2) - _IDENTITY).max(initial=0.0)
    if not dev <= PVM_TOL:
        raise InvalidMeasurementError(f"PVM rows are not orthonormal: max deviation {dev:.3e}")


def bloch_kappas(theta, phi) -> np.ndarray:
    """kappa[..., ell, b] of the PVMs whose |0'> points along Bloch angles (theta, phi).

    |0'> = cos(theta/2)|0> + e^{i phi} sin(theta/2)|1>, |1'> orthogonal.  The
    angles broadcast, so one call builds one detector or a batch of them.
    """
    if not (np.isfinite(theta).all() and np.isfinite(phi).all()):
        raise DomainError(f"Bloch angles must be finite, got ({theta}, {phi})")
    half = np.divide(theta, 2.0)
    c, s = np.cos(half), np.sin(half)
    phase = np.cos(phi) + 1j * np.sin(phi)
    kappa = np.empty(np.broadcast_shapes(np.shape(theta), np.shape(phi)) + (2, 2), dtype=complex)
    kappa[..., 0, 0] = kappa[..., 1, 1] = c
    kappa[..., 0, 1] = s * phase.conj()
    kappa[..., 1, 0] = -s * phase
    return kappa


def pvm_from_bloch(theta: float, phi: float) -> SingleQubitPVM:
    """PVM whose |0'> points along Bloch angles (theta, phi); see bloch_kappas."""
    return SingleQubitPVM(bloch_kappas(theta, phi))


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
        p = squared_norm(b)
        post = SymmetricKet(ket.n - 1, b / math.sqrt(p)) if p >= ZERO_PROB_EPS else None
        outcomes.append(MeasurementOutcome(ell, p, post))
    return outcomes


def measure_pure_batch(
    kets: np.ndarray, kappas: np.ndarray, uniforms: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Measure one qubit of each ket in kets[T, nu] with its own PVM kappas[T].

    Each row keeps the branch that pick_labels draws with uniforms[T].
    Returns (labels, their probabilities, the renormalized kept kets).  The
    checks of SingleQubitPVM, require_post_state and
    SymmetricKet run once over the batch, written so that NaN fails them.
    """
    require_pvm_rows(kappas)
    branches = pvm_branches(kets, kappas)
    probs = (branches.real**2 + branches.imag**2).sum(axis=-1)
    labels = pick_labels(probs, uniforms)
    rows = np.arange(len(kets))
    kept = probs[rows, labels]
    if not (kept >= ZERO_PROB_EPS).all():
        raise ZeroProbabilityError(
            f"a drawn outcome has probability {np.min(kept):.3e} below {ZERO_PROB_EPS}"
        )
    kets = branches[rows, labels] / np.sqrt(kept)[:, None]
    dev = np.abs(np.sqrt((kets.real**2 + kets.imag**2).sum(axis=-1)) - 1.0).max(initial=0.0)
    if not dev <= NORM_TOL:
        raise DomainError(f"ket is not normalized: |norm - 1| = {dev:.3e}")
    return labels, kept, kets


def _check_complete(kraus_set: list[SingleQubitKraus]) -> None:
    if not kraus_set:
        raise InvalidMeasurementError("empty Kraus set")
    with np.errstate(over="ignore", invalid="ignore"):  # an entry above 1e154 overflows: dev is inf or NaN
        dev = np.max(np.abs(sum(k.matrix.conj().T @ k.matrix for k in kraus_set) - np.eye(2)))
    if not dev <= COMPLETENESS_TOL:
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

    with c_0(x) = sqrt(n-x), c_1(x) = sqrt(x+1).  Leading axes of alpha
    broadcast, as in a batch of states.
    """
    idx = np.arange(n)
    c0 = np.sqrt(n - idx)
    c1 = np.sqrt(idx + 1.0)
    out = (
        gram[0, 0] * np.outer(c0, c0) * alpha[..., :n, :n]
        + gram[1, 0] * np.outer(c0, c1) * alpha[..., :n, 1:]
        + gram[0, 1] * np.outer(c1, c0) * alpha[..., 1:, :n]
        + gram[1, 1] * np.outer(c1, c1) * alpha[..., 1:, 1:]
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


def measure_state(state, measurement) -> list[MeasurementOutcome]:
    """measure_pure for a ket and a PVM, else measure_mixed (a ket turns into its density)."""
    if isinstance(state, SymmetricKet) and isinstance(measurement, SingleQubitPVM):
        return measure_pure(state, measurement)
    rho = state if isinstance(state, SymmetricDensity) else to_density(state)
    kraus = measurement.kraus_pair() if isinstance(measurement, SingleQubitPVM) else measurement
    return measure_mixed(rho, kraus)


def lose_qubit(rho: SymmetricDensity) -> SymmetricDensity:
    """Trace out one qubit of a mixed state: a full trace has gram = identity.

    One loss at a time; trials and replays defer theirs to one product
    (`states._final_states`), and this stepwise update is its referee.
    """
    if rho.n < 1:
        raise DomainError("cannot lose a qubit from an empty string")
    out = _kraus_update(rho.alpha, rho.n, np.eye(2))
    return SymmetricDensity(rho.n - 1, (out + out.conj().T) / 2.0)


def pick_labels(probs: np.ndarray, uniforms) -> np.ndarray:
    """Outcome index of each row of probs[..., K] for its uniform draw uniforms[...].

    The first index whose running sum exceeds the draw; when rounding leaves
    the draw at or above the total, the most probable index (the first on a
    tie).  Each row must sum to 1 within PROB_SUM_TOL; NaN fails that check.
    """
    acc = np.cumsum(probs, axis=-1)
    dev = np.abs(acc[..., -1] - 1.0).max(initial=0.0)
    if not dev <= PROB_SUM_TOL:
        raise DomainError(f"outcome probabilities do not sum to 1: deviation {dev:.3e}")
    below = np.asarray(uniforms)[..., None] < acc
    return np.where(below.any(axis=-1), below.argmax(axis=-1), np.argmax(probs, axis=-1))

