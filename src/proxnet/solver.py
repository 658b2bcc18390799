"""The distributed proximal gradient iteration.

Each agent takes a local gradient step, the network mixes the results
with the effective weights of the iteration (k gossip slots at iteration
k), and every agent applies the shared proximal operator.  The step size
is constant and must stay strictly below 1/L, where L is the worst local
gradient Lipschitz constant.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import diagnostics
from .graphs import (
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


def run(setup: RunSetup) -> RunTrace:
    """Execute the full iteration loop with diagnostics.

    Validates the step size and the schedule up front, then records one
    metrics row per iteration.  Early stopping (off by default) triggers
    on the stationarity residual bound.
    """
    init = np.asarray(setup.init, dtype=float)
    if init.ndim != 2:
        raise ValueError(f"init must be (agents, dimension), got {init.shape}")
    m, n = init.shape
    objectives = list(setup.objectives)
    if len(objectives) != m:
        raise ValueError(f"{len(objectives)} objectives for {m} agents")
    if setup.schedule.m != m:
        raise ValueError(f"schedule has {setup.schedule.m} agents, init has {m}")
    if setup.max_iter < 0:
        raise ValueError(f"max_iter must be >= 0, got {setup.max_iter}")
    if setup.snapshot_every < 1:
        raise ValueError(f"snapshot_every must be >= 1, got {setup.snapshot_every}")

    lipschitz = max(obj.lipschitz() for obj in objectives)
    if lipschitz > 0 and not 0 < setup.alpha < 1.0 / lipschitz:
        raise StepSizeError(
            f"step size {setup.alpha} violates alpha < 1/L = {1.0 / lipschitz}"
        )
    if lipschitz == 0 and setup.alpha <= 0:
        raise StepSizeError(f"step size must be positive, got {setup.alpha}")

    T = setup.max_iter
    horizon = max(slots_before(T + 1) if T > 0 else 0, setup.schedule.B)
    validate_schedule(setup.schedule, horizon)

    geo = (
        geometric_constants(m, setup.schedule.B, setup.schedule.eta)
        if m >= 2
        else None
    )
    # Subgradient bounds are declared on the iterate-norm ball of ten times
    # the largest initial row norm, at least 10.
    radius = 10.0 * max(1.0, float(np.max(np.linalg.norm(init, axis=1))))
    g_h = setup.regularizer.subgradient_bound(radius)
    eps_supported = np.isfinite(g_h)

    alpha = setup.alpha
    reg = setup.regularizer
    x = init.copy()
    x_bar = x.mean(axis=0)
    trace = RunTrace(alpha=alpha, lipschitz=lipschitz)
    trace.snapshots[0] = IterationSnapshot(k=0, x=x.copy(), q=None, v=None)
    f_avg = float(
        np.mean([obj.value(x_bar) for obj in objectives]) + reg.value(x_bar)
    )
    trace.rows.append(
        diagnostics.IterationMetrics(
            k=0,
            comm_cumulative=0,
            f_avg=f_avg,
            D=diagnostics.disagreement(x, setup.schedule.matrix(0).w),
            dx_norm=0.0,
            e_norm=0.0,
            eps=0.0 if eps_supported else None,
            residual_bound=0.0,
            max_consensus_gap=float(
                np.max(np.linalg.norm(x - x_bar, axis=1)) if m > 1 else 0.0
            ),
            geo_bound=0.0,
            rate_T_times_stat=0.0,
        )
    )

    comm = 0
    rate_running = 0.0
    for k in range(1, T + 1):
        x_next, q_all, v_all = iterate(x, objectives, setup.schedule, reg, alpha, k)
        comm += k

        x_bar_prev = x_bar
        x_bar = x_next.mean(axis=0)
        e_vec = diagnostics.gradient_averaging_error(x, objectives)
        v_bar = v_all.mean(axis=0)
        z = reg.prox(v_bar, alpha)
        in_ball = (
            float(np.linalg.norm(x_bar)) <= radius
            and float(np.linalg.norm(z)) <= radius
        )
        eps_ok = eps_supported and in_ball
        eps = (
            diagnostics.prox_inexactness(x_bar, v_bar, z, alpha, g_h)
            if eps_ok
            else None
        )
        dx = float(np.linalg.norm(x_bar - x_bar_prev))
        e_norm = float(np.linalg.norm(e_vec))
        residual = diagnostics.stationarity_bound(dx, eps, e_norm, alpha, lipschitz)
        rate_running += dx * dx
        last_slot = slots_before(k) + k - 1
        f_avg = float(
            np.mean([obj.value(x_bar) for obj in objectives]) + reg.value(x_bar)
        )
        trace.rows.append(
            diagnostics.IterationMetrics(
                k=k,
                comm_cumulative=comm,
                f_avg=f_avg,
                D=diagnostics.disagreement(
                    x_next, setup.schedule.matrix(last_slot).w
                ),
                dx_norm=dx,
                e_norm=e_norm,
                eps=eps,
                residual_bound=residual,
                max_consensus_gap=float(
                    np.max(np.linalg.norm(x_next - x_bar, axis=1))
                ),
                geo_bound=diagnostics.geometric_envelope(geo, k, q_all),
                rate_T_times_stat=rate_running,
            )
        )
        if k % setup.snapshot_every == 0:
            trace.snapshots[k] = IterationSnapshot(
                k=k, x=x_next.copy(), q=q_all.copy(), v=v_all.copy()
            )
        x = x_next
        if setup.early_stop and residual < setup.tol:
            trace.stopped_early = True
            break

    trace.final_x = x
    trace.comm_cumulative = comm
    return trace
