"""Convergence certificates computed alongside a run.

These are omniscient-observer quantities: they read the full network
state, which is fine in simulation and deliberately not part of the
distributed protocol.  Everything here is a pure function of snapshots;
nothing feeds back into the iteration.  The solver makes every row with one
builder outside its loop; row 0 has no step, so no e, eps or envelope work.
"""

from __future__ import annotations

import math
from dataclasses import astuple, dataclass, fields

import numpy as np


@dataclass(frozen=True)
class IterationMetrics:
    """One trace row; the field order is the CSV column order.

    eps is None when the prox-inexactness certificate is unavailable,
    either because the regularizer has unbounded subgradients or because
    the averaged iterate left the ball on which the bound was declared.
    rate_T_times_stat is the running sum of squared mean-iterate moves,
    which equals T times the rate statistic at T.
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
    """Average gap between gradients at local iterates and at their mean."""
    x_all = np.asarray(x_all, dtype=float)
    x_bar = x_all.mean(axis=0)
    total = np.zeros(x_all.shape[1])
    for x_i, obj in zip(x_all, objectives):
        total += obj.grad(x_i) - obj.grad(x_bar)
    return total / len(objectives)


def prox_inexactness(
    x_bar_next: np.ndarray,
    v_bar_next: np.ndarray,
    z_next: np.ndarray,
    alpha: float,
    g_h: float,
) -> float:
    """Certified prox accuracy of the averaged iterate.

    z_next must be the exact prox of v_bar_next.  The certificate is
    s (G_h + ||z - v_bar|| / alpha) + s^2 / (2 alpha) with
    s = ||x_bar - z||, and it requires a finite subgradient bound.
    """
    if not math.isfinite(g_h):
        raise ValueError("prox inexactness needs a finite subgradient bound")
    if not alpha > 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    s = float(np.linalg.norm(np.asarray(x_bar_next) - np.asarray(z_next)))
    pull = float(np.linalg.norm(np.asarray(z_next) - np.asarray(v_bar_next)))
    return s * (g_h + pull / alpha) + s * s / (2.0 * alpha)


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


def stationarity_bound(
    dx_norm: float,
    eps: float | None,
    e_norm: float,
    alpha: float,
    lipschitz: float,
) -> float:
    """Upper bound on the stationarity residual of the averaged iterate.

    (1/alpha + L) ||dx|| + sqrt(2 eps / alpha) + ||e||.  Without a usable
    eps (None) the middle term is dropped and the bound is partial (still a
    valid lower estimate of itself, no longer certified complete).
    """
    if not alpha > 0:
        raise ValueError(f"step size must be positive, got {alpha}")
    bound = (1.0 / alpha + lipschitz) * dx_norm + e_norm
    if eps is not None:
        bound += math.sqrt(2.0 * eps / alpha)
    return bound


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


def rate_statistic(rows, T: int) -> float:
    """Mean squared mean-iterate movement over the first T iterations."""
    if T < 1:
        raise ValueError(f"need T >= 1, got {T}")
    if T > len(rows) - 1:
        raise ValueError(f"trace has only {len(rows) - 1} iterations, need {T}")
    return sum(rows[k].dx_norm**2 for k in range(1, T + 1)) / T


def _format(value) -> str:
    if value is None:
        return "nan"
    return repr(float(value))


def csv_line(row: IterationMetrics) -> str:
    k, comm_cumulative, *values = astuple(row)
    return ",".join([str(k), str(comm_cumulative), *map(_format, values)])


def write_trace_csv(rows, path) -> None:
    """Write trace rows to CSV; floats via repr so traces are byte-stable."""
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        handle.write(",".join(TRACE_COLUMNS) + "\n")
        for row in rows:
            handle.write(csv_line(row) + "\n")
