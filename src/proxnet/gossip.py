"""Message-level execution of the consensus stage.

The solver mixes iterates by applying the slot-matrix product in one
matrix multiply.  This module executes the same mixing as individual
gossip rounds: at every slot each agent sends its value over each
positive-weight edge, then folds the received payloads together with its
own self-weighted value at a synchronization barrier.  The two routes
must agree; replay_check drives that comparison over a recorded run.

gossip_rounds stays message-level on purpose, even on matching slots that
the solver applies as pair averages: it is the independent route that
replay_check compares the solver against, so it shares none of its
shortcuts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Schedule, slots_before

REPLAY_TOLERANCE = 1e-8


def gossip_rounds(
    values: np.ndarray, schedule: Schedule, start_slot: int, rounds: int
) -> np.ndarray:
    """Run consecutive gossip slots and return the mixed values.

    At every slot, agent i starts from its self-weighted value and adds
    weight[i, j] * value[j] for each sender j with weight[i, j] > 0, in
    increasing order of i and then j, all from the pre-round state.  The
    result equals the slot-matrix product applied to the input, up to
    accumulation order.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if start_slot < 0:
        raise ValueError(f"slot index must be >= 0, got {start_slot}")
    y = np.array(values, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"values must be (agents, dimension), got {y.shape}")
    m = y.shape[0]
    if schedule.m != m:
        raise ValueError(f"schedule has {schedule.m} agents, values have {m}")
    for slot in range(start_slot, start_slot + rounds):
        w = schedule.matrix(slot)
        new = w.diagonal()[:, None] * y
        # > 0, not != 0: a supplied matrix may hold entries down to
        # -graphs.WEIGHT_TOL, and those edges carry no message.
        for receiver, sender in zip(*np.nonzero(w > 0)):
            if receiver != sender:
                new[receiver] += w[receiver, sender] * y[sender]
        y = new
    return y


@dataclass(frozen=True)
class ReplayReport:
    """Outcome of re-executing a run's consensus stages message by message."""

    iterations_checked: int
    max_deviation: float
    first_failure: int | None

    @property
    def passed(self) -> bool:
        return self.first_failure is None


def replay_check(trace, schedule: Schedule, threshold: float = REPLAY_TOLERANCE):
    """Replay every recorded iteration's gossip and compare against v.

    Requires a snapshot for every executed iteration (snapshot_every=1).
    An empty run passes vacuously.
    """
    iterations = len(trace.rows) - 1
    max_dev = 0.0
    first_failure = None
    for k in range(1, iterations + 1):
        snap = trace.snapshots.get(k)
        if snap is None or snap.q is None or snap.v is None:
            raise ValueError(f"iteration {k} has no full snapshot to replay")
        mixed = gossip_rounds(snap.q, schedule, slots_before(k), k)
        deviation = float(np.max(np.abs(mixed - snap.v)))
        max_dev = max(max_dev, deviation)
        if deviation >= threshold and first_failure is None:
            first_failure = k
    return ReplayReport(
        iterations_checked=iterations,
        max_deviation=max_dev,
        first_failure=first_failure,
    )
