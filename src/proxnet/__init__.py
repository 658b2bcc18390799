"""Distributed proximal gradient optimization over time-varying networks.

Agents hold private smooth losses and share one non-smooth regularizer.
Each iteration takes a local gradient step, mixes the results over a
growing number of gossip slots, and applies the proximal operator of the
regularizer.  Submodules: graphs (schedules and mixing weights),
regularizers (proximal operators), objectives (losses and data handling),
solver (the iteration), gossip (message-level replay), diagnostics
(convergence certificates) and cli (command line front end).
"""

__version__ = "0.1.0"

from .graphs import (
    AdjacencyMatrix,
    GeometricConstants,
    PeriodicSchedule,
    RandomSchedule,
    Schedule,
    ScheduleReport,
    complete_schedule,
    consensus_weights,
    geometric_constants,
    metropolis_weights,
    read_matrix_file,
    ring_matchings_schedule,
    ring_schedule,
    schedule_from_matrices,
    slots_before,
    transition_matrix,
    validate_schedule,
)
from .regularizers import (
    Box,
    ElasticNet,
    L1,
    ProxCertificate,
    Regularizer,
    SquaredL2,
    Zero,
    check_inexact_prox,
    make_regularizer,
    soft_threshold,
)
from .objectives import (
    A9A_GROUP_SIZES,
    Dataset,
    Quadratic,
    SigmoidLoss,
    WithSquaredL2,
    parse_libsvm,
    quadratic_family,
    serialize_libsvm,
    shard,
    subsample,
    synthetic_classification,
)
from .solver import (
    IterationSnapshot,
    NumericalFault,
    RunSetup,
    RunTrace,
    StepSizeError,
    consensus_step,
    gradient_step,
    iterate,
    prox_step,
    run,
)
from .gossip import (
    CommLog,
    ReplayReport,
    gossip_rounds,
    replay_check,
)
from .diagnostics import (
    TRACE_COLUMNS,
    IterationMetrics,
    disagreement,
    geometric_envelope,
    gradient_averaging_error,
    prox_inexactness,
    rate_statistic,
    stationarity_bound,
    write_trace_csv,
)
