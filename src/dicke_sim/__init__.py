"""Compact simulation of permutationally-symmetric qubit strings.

A symmetric n-qubit state lives in an (n+1)-dimensional subspace, so
sequential single-qubit measurements, loss, and adaptive experiments run in
O(n^2) time and memory instead of 2^n.  A dense brute-force oracle verifies
every compact operation on small strings.
"""

from .errors import (
    ConfigError,
    DegenerateStateError,
    DickeSimError,
    DomainError,
    InvalidMeasurementError,
    NotSymmetricError,
    ResourceLimitError,
    ZeroProbabilityError,
)
from .harness import (
    ExperimentTrace,
    combined_pvm,
    evaluate_sequence,
    grid_log_likelihoods,
    ml_phase_estimate,
    run_ensemble,
    run_pvm_cascade,
    run_trial,
    run_trials,
)
from .measure import (
    MeasurementOutcome,
    SingleQubitKraus,
    SingleQubitPVM,
    lose_qubit,
    measure_mixed,
    measure_pure,
    pvm_branches,
    pvm_from_bloch,
)
from .oracle import (
    DenseDensity,
    DenseKet,
    Permutation,
    apply_kraus_at,
    apply_kraus_outcomes_at,
    apply_permutation,
    compress,
    expand,
    expand_density,
    is_symmetric_over,
    partial_trace,
)
from .spec import (
    FeedbackPolicy,
    FixedPolicy,
    LossSchedule,
    PhaseChannel,
    Policy,
    RoundRobinPolicy,
)
from .states import (
    SymmetricDensity,
    SymmetricKet,
    basis_state,
    general_split,
    make_ket,
    split_last_qubit,
    to_density,
    xi_coefficient,
)

__version__ = "0.1.0"
