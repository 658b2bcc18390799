"""The distributed proximal gradient iteration.

Each agent takes a local gradient step, the network mixes the results
with the effective weights of the iteration (k gossip slots at iteration
k), and every agent applies the shared proximal operator.  The step size
is constant and must stay strictly below 1/L, where L is the worst local
gradient Lipschitz constant.

run() is only the iteration loop; one private row builder makes every
trace row from the iterates before and after a step.  Row 0 is the step
from init to init, with no q, v or previous row.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .graphs import (
    GeometricConstants,
    Schedule,
    consensus_weights,
    geometric_constants,
    slots_before,
    validate_schedule,
)
from .regularizers import Regularizer


class StepSizeError(ValueError):
    """Step size violates the strict alpha < 1/L requirement."""


class NumericalFault(RuntimeError):
    """Non-finite value produced during an iteration."""

    def __init__(self, message: str, iteration: int, agent: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.agent = agent


def gradient_step(x: np.ndarray, objective, alpha: float, agent: int | None = None):
    """q = x - alpha * grad g(x) for one agent."""
    if not alpha > 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    grad = objective.grad(x)
    if not np.all(np.isfinite(grad)):
        raise NumericalFault(
            f"non-finite gradient at agent {agent}", iteration=0, agent=agent
        )
    return x - alpha * grad


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

    Mixes the gradient points with consensus_weights(schedule, k), the
    ordered product of slots slots_before(k) .. slots_before(k) + k - 1.
    gossip.gossip_rounds applies the same slots one at a time, and
    gossip.replay_check holds the two routes within REPLAY_TOLERANCE.
    """
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    x_all = np.asarray(x_all, dtype=float)
    m = x_all.shape[0]
    if len(objectives) != m:
        raise ValueError(f"{len(objectives)} objectives for {m} agents")
    q_all = np.empty_like(x_all)
    for i, obj in enumerate(objectives):
        try:
            q_all[i] = gradient_step(x_all[i], obj, alpha, agent=i)
        except NumericalFault as fault:
            raise NumericalFault(str(fault), iteration=k, agent=i) from None
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
    """

    objectives: list
    regularizer: Regularizer
    schedule: Schedule
    alpha: float
    max_iter: int
    init: np.ndarray
    early_stop: bool = False
    tol: float = 1e-8
    snapshot_every: int = 1


@dataclass
class RunTrace:
    """Result of a run: per-iteration metrics plus state snapshots."""

    rows: list = field(default_factory=list)
    snapshots: dict = field(default_factory=dict)
    final_x: np.ndarray | None = None
    alpha: float = 0.0
    lipschitz: float = 0.0
    comm_cumulative: int = 0
    stopped_early: bool = False


@dataclass(frozen=True)
class _Observer:
    """The fixed inputs of a run's certificates; row() makes every trace row."""

    objectives: list
    reg: Regularizer
    schedule: Schedule
    alpha: float
    lipschitz: float
    geo: GeometricConstants | None
    radius: float
    g_h: float

    def row(self, k, x, x_next, q=None, v=None, prev=None):
        """Trace row k from the iterates x before and x_next after step k.

        Row 0 is row(0, init, init) with no q, v or previous row: e, the
        envelope and eps (when supported) read 0, and dx, the residual and
        the rate come out 0.0 from the general formulas.
        """
        x_bar = x_next.mean(axis=0)
        dx = float(np.linalg.norm(x_bar - x.mean(axis=0)))
        rate = (0.0 if prev is None else prev.rate_T_times_stat) + dx * dx
        e_norm, geo_bound, eps = 0.0, 0.0, 0.0 if np.isfinite(self.g_h) else None
        if q is not None:
            e_vec = diagnostics.gradient_averaging_error(x, self.objectives)
            e_norm = float(np.linalg.norm(e_vec))
            geo_bound = diagnostics.geometric_envelope(self.geo, k, q)
            v_bar = v.mean(axis=0)
            z = self.reg.prox(v_bar, self.alpha)
            in_ball = (
                float(np.linalg.norm(x_bar)) <= self.radius
                and float(np.linalg.norm(z)) <= self.radius
            )
            eps = (
                diagnostics.prox_inexactness(x_bar, v_bar, z, self.alpha, self.g_h)
                if eps is not None and in_ball
                else None
            )
        comm = slots_before(k + 1)
        values = [obj.value(x_bar) for obj in self.objectives]
        return diagnostics.IterationMetrics(
            k=k,
            comm_cumulative=comm,
            f_avg=float(np.mean(values) + self.reg.value(x_bar)),
            D=diagnostics.disagreement(
                x_next, self.schedule.matrix(max(comm - 1, 0)).w
            ),
            dx_norm=dx,
            e_norm=e_norm,
            eps=eps,
            residual_bound=diagnostics.stationarity_bound(
                dx, eps, e_norm, self.alpha, self.lipschitz
            ),
            max_consensus_gap=float(
                np.max(np.linalg.norm(x_next - x_bar, axis=1))
            ),
            geo_bound=geo_bound,
            rate_T_times_stat=rate,
        )


def run(setup: RunSetup) -> RunTrace:
    """Execute the iteration loop, one certificate row per iteration.

    Validates the step size and the schedule up front.  Early stopping
    (off by default) triggers on the stationarity residual bound.
    """
    init = np.asarray(setup.init, dtype=float)
    if init.ndim != 2:
        raise ValueError(f"init must be (agents, dimension), got {init.shape}")
    m = init.shape[0]
    objectives = list(setup.objectives)
    if len(objectives) != m:
        raise ValueError(f"{len(objectives)} objectives for {m} agents")
    schedule, reg, alpha = setup.schedule, setup.regularizer, setup.alpha
    if schedule.m != m:
        raise ValueError(f"schedule has {schedule.m} agents, init has {m}")
    if setup.max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {setup.max_iter}")
    if setup.snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {setup.snapshot_every}")

    lipschitz = max(obj.lipschitz() for obj in objectives)
    if lipschitz > 0 and not 0 < alpha < 1.0 / lipschitz:
        raise StepSizeError(
            f"step size {alpha} violates alpha < 1/L = {1.0 / lipschitz}"
        )
    if lipschitz == 0 and alpha <= 0:
        raise StepSizeError(f"step size must be positive, got {alpha}")
    validate_schedule(schedule, max(slots_before(setup.max_iter + 1), schedule.B))

    # Subgradient bounds are declared on the iterate-norm ball of ten times
    # the largest initial row norm, at least 10.
    radius = 10.0 * max(1.0, float(np.max(np.linalg.norm(init, axis=1))))
    geo = geometric_constants(m, schedule.B, schedule.eta) if m >= 2 else None
    g_h = reg.subgradient_bound(radius)
    observer = _Observer(objectives, reg, schedule, alpha, lipschitz, geo, radius, g_h)
    x = init.copy()
    trace = RunTrace(alpha=alpha, lipschitz=lipschitz)
    trace.snapshots[0] = IterationSnapshot(k=0, x=x.copy(), q=None, v=None)
    trace.rows.append(observer.row(0, x, x))
    for k in range(1, setup.max_iter + 1):
        x_next, q_all, v_all = iterate(x, objectives, schedule, reg, alpha, k)
        trace.rows.append(observer.row(k, x, x_next, q_all, v_all, trace.rows[-1]))
        if k % setup.snapshot_every == 0:
            trace.snapshots[k] = IterationSnapshot(
                k=k, x=x_next.copy(), q=q_all.copy(), v=v_all.copy()
            )
        x = x_next
        if setup.early_stop and trace.rows[-1].residual_bound < setup.tol:
            trace.stopped_early = True
            break

    trace.final_x = x
    trace.comm_cumulative = trace.rows[-1].comm_cumulative
    return trace
