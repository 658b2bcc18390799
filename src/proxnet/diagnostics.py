"""Convergence certificates computed alongside a run.

These are omniscient-observer quantities: they read the full network
state, which is fine in simulation and deliberately not part of the
distributed protocol.  Nothing here feeds back into the iteration.

Certificates is the one row builder: it fixes a run's certificate
constants once, and its row() makes every trace row.  The one fault raised
here is NumericalFault, for a trace column that is not finite; the solver
raises the same class for a non-finite iterate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .graphs import geometric_constants, slots_before
from .objectives import agent_family


class NumericalFault(RuntimeError):
    """Non-finite value produced during an iteration.

    agent is the first agent with a non-finite value, or None for a trace
    column.  solver.run fills in rows and x, the trace rows written before
    the iteration and the iterate that entered it, for iteration >= 1.
    """

    def __init__(self, message: str, iteration: int, agent: int | None = None):
        super().__init__(message)
        self.iteration = iteration
        self.agent = agent
        self.rows: list = []
        self.x: np.ndarray | None = None


@dataclass(frozen=True)
class IterationMetrics:
    """One trace row; the field order is the CSV column order.

    With x_bar and v_bar the means of the iterates and of the mixed points
    of step k, z = prox_{alpha h}(v_bar), s = ||x_bar - z||, and G_h the
    bound on h's subgradients over the ball of radius ten times the
    largest initial row norm, at least 10, the prox inexactness is

        eps = s (G_h + ||z - v_bar|| / alpha) + s^2 / (2 alpha),

    0 on row 0, and None (nan in the CSV) when G_h is infinite or x_bar or
    z lies outside the ball.  The stationarity residual of x_bar is at most

        residual_bound = (1/alpha + L) dx_norm + e_norm + sqrt(2 eps / alpha),

    summed in that order; without eps the last term is dropped and the
    bound is partial.  f_avg is +inf on row 0 when the start lies outside
    the domain of h, and finite on every later row.  rate_T_times_stat is
    the running sum of squared mean-iterate moves, T times their mean over
    the first T iterations, the rate statistic.
    """

    k: int
    comm_cumulative: int
    f_avg: float
    D: float
    dx_norm: float
    e_norm: float
    eps: float | None
    residual_bound: float
    max_consensus_gap: float
    geo_bound: float
    rate_T_times_stat: float


TRACE_COLUMNS = tuple(f.name for f in fields(IterationMetrics))


def gradient_averaging_error(x_all: np.ndarray, objectives) -> np.ndarray:
    """Average gap between gradients at local iterates and at their mean.

    objectives is an AgentFamily, or a list that is made into one; its
    gradient_gaps gives every agent's gap between the gradient at its
    iterate and at the mean x_bar.  The gaps are summed in agent order, as
    a running sum (np.add.accumulate), so no summation order depends on m
    or n.
    """
    family = agent_family(objectives)
    x_all = np.asarray(x_all, dtype=float)
    gaps = family.gradient_gaps(x_all, x_all.mean(axis=0))
    return np.add.accumulate(gaps, axis=0)[-1] / len(family)


def disagreement(x_all: np.ndarray, weights: np.ndarray) -> float:
    """Network disagreement sum_i <x_i, sum_j a_ij (x_i - x_j)>.

    For symmetric weights this equals (1/2) sum_ij a_ij ||x_i - x_j||^2
    and is therefore nonnegative.  The pulls then sum to zero over i, so
    centring x leaves the value unchanged; it also keeps a large common
    offset from cancelling away the digits of a small spread.
    """
    x_all = np.asarray(x_all, dtype=float)
    weights = np.asarray(weights, dtype=float)
    y = x_all - x_all.mean(axis=0)
    pull = weights.sum(axis=1)[:, None] * y - weights @ y
    return float(np.sum(y * pull))


def geometric_envelope(geo, k: int, q_all: np.ndarray) -> float:
    """Consensus-gap envelope 2 Gamma gamma^k sum_j ||q_j||.

    geo is the GeometricConstants of the schedule, or None for a single
    agent, where no disagreement is possible and the envelope is zero.
    An infinite Gamma makes the envelope vacuous: it reads inf, never the
    nan of inf * 0.
    """
    if geo is None:
        return 0.0
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    if math.isinf(geo.Gamma):
        return math.inf
    q_all = np.asarray(q_all, dtype=float)
    total = float(np.linalg.norm(q_all, axis=1).sum())
    return 2.0 * geo.Gamma * geo.gamma**k * total


class Certificates:
    """A run's certificate constants, fixed at the start; row() makes rows.

    The constants are the ball radius and G_h of IterationMetrics, and the
    schedule's geometric constants (None for one agent).  objectives is
    an AgentFamily, or a list that is made into one.  alpha must be
    positive, which solver.run checks before the first row.
    """

    def __init__(self, objectives, reg, schedule, alpha, lipschitz, init):
        self.family, self.reg, self.schedule = agent_family(objectives), reg, schedule
        self.alpha, self.lipschitz = alpha, lipschitz
        self.radius = 10.0 * max(1.0, float(np.max(np.linalg.norm(init, axis=1))))
        self.g_h = reg.subgradient_bound(self.radius)
        m = init.shape[0]
        self.geo = geometric_constants(m, schedule.B, schedule.eta) if m >= 2 else None

    def row(self, k, x, x_next, q=None, v=None, prev=None) -> IterationMetrics:
        """Trace row k from the iterates x before and x_next after step k.

        Row 0 is row(0, init, init) with no q, v or previous row: e, the
        envelope and eps (when G_h is finite) read 0, and dx, the residual
        and the rate come out 0.0 from the general formulas.
        """
        x_bar = x_next.mean(axis=0)
        dx = float(np.linalg.norm(x_bar - x.mean(axis=0)))
        rate = (0.0 if prev is None else prev.rate_T_times_stat) + dx * dx
        e_norm, geo_bound, eps = 0.0, 0.0, 0.0 if math.isfinite(self.g_h) else None
        if q is not None:
            e_norm = float(np.linalg.norm(gradient_averaging_error(x, self.family)))
            geo_bound = geometric_envelope(self.geo, k, q)
        if q is not None and eps is not None:
            v_bar = v.mean(axis=0)
            z = self.reg.prox(v_bar, self.alpha)
            s = float(np.linalg.norm(x_bar - z))
            pull = float(np.linalg.norm(z - v_bar))
            eps = s * (self.g_h + pull / self.alpha) + s * s / (2.0 * self.alpha)
            if max(np.linalg.norm(x_bar), np.linalg.norm(z)) > self.radius:
                eps = None
        residual = (1.0 / self.alpha + self.lipschitz) * dx + e_norm
        if eps is not None:
            residual += math.sqrt(2.0 * eps / self.alpha)
        comm = slots_before(k + 1)
        smooth = np.mean(self.family.value(x_bar))
        h = self.reg.value(x_bar)
        row = IterationMetrics(
            k=k,
            comm_cumulative=comm,
            f_avg=float(smooth + h),
            D=disagreement(x_next, self.schedule.matrix(max(comm - 1, 0))),
            dx_norm=dx,
            e_norm=e_norm,
            eps=eps,
            residual_bound=residual,
            max_consensus_gap=float(np.max(np.linalg.norm(x_next - x_bar, axis=1))),
            geo_bound=geo_bound,
            rate_T_times_stat=rate,
        )
        # eps is None when unavailable, and geo_bound reads inf once the
        # envelope passes the float range.  f_avg is F = inf at a start
        # outside the domain of h; every later x_bar is a mean of prox
        # outputs, inside it.  Every other column is finite.
        may_be_inf = {"geo_bound"}
        if k == 0 and math.isfinite(smooth) and h == math.inf:
            may_be_inf.add("f_avg")
        for name, value in vars(row).items():
            if value is None or (name in may_be_inf and value == math.inf):
                continue
            if not math.isfinite(value):
                raise NumericalFault(f"non-finite trace column {name}", iteration=k)
        return row


def _format(value) -> str:
    if value is None:
        return "nan"
    return repr(float(value))


def csv_line(row: IterationMetrics) -> str:
    k, comm_cumulative, *values = (getattr(row, name) for name in TRACE_COLUMNS)
    return ",".join([str(k), str(comm_cumulative), *map(_format, values)])


def write_trace_csv(rows, path) -> None:
    """Write trace rows to CSV; floats via repr so traces are byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\n")
        for row in rows:
            handle.write(csv_line(row) + "\n")
