"""The distributed proximal gradient iteration, and only the iteration.

Each agent takes a local gradient step, the network mixes the results
with the effective weights of the iteration (k gossip slots at iteration
k), and every agent applies the shared proximal operator.  The step size
is constant and must stay strictly below 1/L, where L is the worst local
gradient Lipschitz constant.

gradient_step moves every agent in one call: one all-agent gradient
evaluation of an objectives.AgentFamily, then one array update.  run()
checks its inputs, builds the family and one diagnostics.Certificates
once, and loops; every trace row and certificate constant lives there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .diagnostics import Certificates, NumericalFault
from .graphs import Schedule, consensus_weights, validate_schedule
from .objectives import AgentFamily, agent_family
from .regularizers import Regularizer


class StepSizeError(ValueError):
    """Step size violates the strict alpha < 1/L requirement."""


def gradient_step(x_all: np.ndarray, objectives, alpha: float, k: int) -> np.ndarray:
    """q_i = x_i - alpha * grad g_i(x_i) for every agent i at once.

    objectives is an AgentFamily, or a list that is made into one.  One
    family grad call fills the (m, n) gradient array; a non-finite
    gradient raises NumericalFault naming iteration k and the first agent
    that has one.
    """
    if not alpha > 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    x_all = np.asarray(x_all, dtype=float)
    grads = agent_family(objectives).grad(x_all)
    _check_finite(grads, k, "gradient")
    return x_all - alpha * grads


def consensus_step(q_all: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """v_i = sum_j weights_ij q_j for all agents at once."""
    q_all = np.asarray(q_all, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if q_all.ndim != 2 or weights.shape != (q_all.shape[0], q_all.shape[0]):
        raise ValueError(
            f"shape mismatch: weights {weights.shape} vs iterates {q_all.shape}"
        )
    return weights @ q_all


def prox_step(v: np.ndarray, reg: Regularizer, alpha: float) -> np.ndarray:
    return reg.prox(v, alpha)


def iterate(
    x_all: np.ndarray,
    objectives,
    schedule: Schedule,
    reg: Regularizer,
    alpha: float,
    k: int,
):
    """One full iteration; returns (x_next, q_all, v_all).

    One gradient_step moves every agent, then the gradient points are
    mixed with consensus_weights(schedule, k), the ordered product of
    slots slots_before(k) .. slots_before(k) + k - 1, and the shared prox
    is applied.  gossip.gossip_rounds applies the same slots one at a time,
    and gossip.replay_check holds the two routes within REPLAY_TOLERANCE.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    x_all = np.asarray(x_all, dtype=float)
    m = x_all.shape[0]
    if len(objectives) != m:
        raise ValueError(f"{len(objectives)} objectives for {m} agents")
    q_all = gradient_step(x_all, objectives, alpha, k)
    _check_finite(q_all, k, "post-gradient point")
    v_all = consensus_step(q_all, consensus_weights(schedule, k))
    _check_finite(v_all, k, "post-consensus point")
    x_next = prox_step(v_all, reg, alpha)
    _check_finite(x_next, k, "iterate")
    return x_next, q_all, v_all


def _check_finite(values: np.ndarray, k: int, what: str) -> None:
    finite_rows = np.all(np.isfinite(values), axis=1)
    if not finite_rows.all():
        bad = int(np.argmax(~finite_rows))
        raise NumericalFault(
            f"non-finite {what} at agent {bad}", iteration=k, agent=bad
        )


@dataclass(frozen=True)
class IterationSnapshot:
    """Full network state after one iteration; q and v are None at k=0."""

    k: int
    x: np.ndarray
    q: np.ndarray | None
    v: np.ndarray | None


@dataclass
class RunSetup:
    """Everything a run needs besides the data inside the objectives.

    init has one row per agent.  alpha must satisfy alpha < 1/L strictly.
    tol = t stops the run after the first iteration k >= 1 whose
    residual_bound is below t; None runs all max_iter iterations.
    snapshot_every = s keeps the state of iterations 0, s, 2s, ...;
    None keeps no snapshot and copies no state, so the run's memory does
    not grow with max_iter.
    """

    objectives: list
    regularizer: Regularizer
    schedule: Schedule
    alpha: float
    max_iter: int
    init: np.ndarray
    tol: float | None = None
    snapshot_every: int | None = 1


@dataclass
class RunTrace:
    """Result of a run: per-iteration metrics plus state snapshots.

    snapshots maps k to the IterationSnapshot kept at iteration k; it is
    empty when the setup's snapshot_every is None.
    """

    rows: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)
    final_x: np.ndarray | None = None
    alpha: float = 0.0
    lipschitz: float = 0.0
    comm_cumulative: int = 0
    stopped_early: bool = False


@np.errstate(all="ignore")
def run(setup: RunSetup) -> RunTrace:
    """Execute the iteration loop, one certificate row per iteration.

    Validates the step size and the schedule up front.  With setup.tol
    set, the run stops early on the stationarity residual bound.  A
    non-finite start, step or trace row raises NumericalFault at its
    iteration, 0 for the start, so numpy's floating-point warnings, which
    would only repeat it, are silenced.  A fault at iteration k >= 1
    carries the evidence: its rows are the k trace rows written before
    it, and its x is the iterate that entered iteration k.
    """
    init = np.asarray(setup.init, dtype=float)
    if init.ndim != 2:
        raise ValueError(f"init must be (agents, dimension), got {init.shape}")
    m = init.shape[0]
    family = AgentFamily(setup.objectives)
    if len(family) != m:
        raise ValueError(f"{len(family)} objectives for {m} agents")
    schedule, reg, alpha = setup.schedule, setup.regularizer, setup.alpha
    if schedule.m != m:
        raise ValueError(f"schedule has {schedule.m} agents, init has {m}")
    if setup.max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {setup.max_iter}")
    tol = setup.tol
    if tol is not None and not (tol >= 0 and math.isfinite(tol)):
        raise ValueError(f"tol must be finite and >= 0, got {tol}")
    every = setup.snapshot_every
    if every is not None and every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {every}")

    lipschitz = family.lipschitz()
    if not math.isfinite(lipschitz):
        raise ValueError(f"Lipschitz constant L = {lipschitz!r} is not finite")
    # The certificates divide by alpha, so a subnormal step is refused.
    if not (alpha > 0 and math.isfinite(1.0 / alpha)):
        raise StepSizeError(
            f"step size must be positive with a finite reciprocal, got {alpha}"
        )
    if lipschitz > 0 and not alpha < 1.0 / lipschitz:
        raise StepSizeError(
            f"step size {alpha} violates alpha < 1/L = {1.0 / lipschitz}"
        )
    validate_schedule(schedule)

    _check_finite(init, 0, "initial point")
    certificates = Certificates(family, reg, schedule, alpha, lipschitz, init)
    x = init.copy()
    trace = RunTrace(alpha=alpha, lipschitz=lipschitz)
    if every is not None:
        trace.snapshots[0] = IterationSnapshot(k=0, x=x.copy(), q=None, v=None)
    trace.rows.append(certificates.row(0, x, x))
    for k in range(1, setup.max_iter + 1):
        try:
            x_next, q_all, v_all = iterate(x, family, schedule, reg, alpha, k)
            row = certificates.row(k, x, x_next, q_all, v_all, trace.rows[-1])
        except NumericalFault as fault:
            # Nothing writes into x after its step, so it needs no copy.
            fault.rows, fault.x = trace.rows, x
            raise
        trace.rows.append(row)
        if every is not None and k % every == 0:
            trace.snapshots[k] = IterationSnapshot(
                k=k, x=x_next.copy(), q=q_all.copy(), v=v_all.copy()
            )
        x = x_next
        if tol is not None and row.residual_bound < tol:
            trace.stopped_early = True
            break

    trace.final_x = x
    trace.comm_cumulative = trace.rows[-1].comm_cumulative
    return trace
