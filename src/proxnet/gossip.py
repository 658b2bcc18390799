"""Message-level execution of the consensus stage.

The solver mixes iterates by applying the slot-matrix product in one
matrix multiply.  This module executes the same mixing as individual
gossip rounds: at every slot each agent sends its value over each
positive-weight edge, then folds the received payloads together with its
own self-weighted value at a synchronization barrier.  The two routes
must agree; replay_check drives that comparison over a recorded run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import Schedule, slots_before

REPLAY_TOLERANCE = 1e-8


@dataclass(frozen=True)
class RoundMessage:
    """One directed transfer: sender's payload travels along an edge."""

    sender: int
    receiver: int
    slot: int
    payload: np.ndarray


@dataclass(frozen=True)
class SlotRecord:
    """Traffic of one slot; self-updates are local, not messages."""

    slot: int
    messages: int
    self_updates: int


@dataclass(frozen=True)
class CommLog:
    """Accumulated traffic of a sequence of gossip rounds."""

    records: tuple
    cumulative_slots: int
    sent_per_agent: np.ndarray
    payload_dim: int

    @property
    def total_messages(self) -> int:
        return sum(record.messages for record in self.records)

    @property
    def scalars_per_agent(self) -> np.ndarray:
        """Bytes-equivalent load: payload entries sent by each agent."""
        return self.sent_per_agent * self.payload_dim


def iter_slot_messages(adjacency, slot: int, values: np.ndarray):
    """Messages of one slot: (j -> i) exists iff weight[i, j] > 0, i != j."""
    w = adjacency.w
    for receiver in range(w.shape[0]):
        for sender in range(w.shape[0]):
            if receiver != sender and w[receiver, sender] > 0:
                yield RoundMessage(
                    sender=sender,
                    receiver=receiver,
                    slot=slot,
                    payload=values[sender],
                )


def gossip_rounds(
    values: np.ndarray, schedule: Schedule, start_slot: int, rounds: int
):
    """Run consecutive gossip slots; returns (mixed values, CommLog).

    All messages of a slot are generated from the pre-round state, then
    every agent replaces its value at the barrier.  The result equals the
    slot-matrix product applied to the input, up to accumulation order.
    """
    if rounds < 1:
        raise ValueError(f"need at least one round, got {rounds}")
    if start_slot < 0:
        raise ValueError(f"slot index must be >= 0, got {start_slot}")
    y = np.array(values, dtype=float)
    if y.ndim != 2:
        raise ValueError(f"values must be (agents, dimension), got {y.shape}")
    m, n = y.shape
    if schedule.m != m:
        raise ValueError(f"schedule has {schedule.m} agents, values have {m}")
    sent = np.zeros(m, dtype=int)
    records = []
    for slot in range(start_slot, start_slot + rounds):
        adjacency = schedule.matrix(slot)
        w = adjacency.w
        new = np.empty_like(y)
        for i in range(m):
            new[i] = w[i, i] * y[i]
        count = 0
        for msg in iter_slot_messages(adjacency, slot, y):
            new[msg.receiver] += w[msg.receiver, msg.sender] * msg.payload
            sent[msg.sender] += 1
            count += 1
        records.append(SlotRecord(slot=slot, messages=count, self_updates=m))
        y = new
    log = CommLog(
        records=tuple(records),
        cumulative_slots=start_slot + rounds,
        sent_per_agent=sent,
        payload_dim=n,
    )
    return y, log


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
        mixed, _ = gossip_rounds(snap.q, schedule, slots_before(k), k)
        deviation = float(np.max(np.abs(mixed - snap.v)))
        max_dev = max(max_dev, deviation)
        if deviation >= threshold and first_failure is None:
            first_failure = k
    return ReplayReport(
        iterations_checked=iterations,
        max_deviation=max_dev,
        first_failure=first_failure,
    )
