import numpy as np
import pytest

from proxnet.gossip import (
    ReplayReport,
    gossip_rounds,
    iter_slot_messages,
    replay_check,
)
from proxnet.graphs import (
    PeriodicSchedule,
    RandomSchedule,
    complete_schedule,
    consensus_weights,
    metropolis_weights,
    ring_matchings_schedule,
    slots_before,
)
from proxnet.objectives import quadratic_family
from proxnet.regularizers import L1
from proxnet.solver import IterationSnapshot, RunSetup, RunTrace, run

from fixtures import small_quadratic_run


def _small_run(T: int = 8, snapshot_every: int = 1) -> tuple:
    objectives = quadratic_family(m=3, n=2, seed=17)
    schedule = ring_matchings_schedule(3)
    setup = RunSetup(
        objectives=objectives,
        regularizer=L1(2, lam1=0.02),
        schedule=schedule,
        alpha=0.5 / max(o.lipschitz() for o in objectives),
        max_iter=T,
        init=np.zeros((3, 2)),
        snapshot_every=snapshot_every,
    )
    return schedule, run(setup)


def test_one_round_complete_graph_averages() -> None:
    sched = complete_schedule(4)
    values = np.array([[4.0], [0.0], [2.0], [6.0]])
    mixed, log = gossip_rounds(values, sched, start_slot=0, rounds=1)
    assert mixed == pytest.approx(np.full((4, 1), 3.0))
    assert log.records[0].messages == 4 * 3
    assert log.records[0].self_updates == 4
    assert log.cumulative_slots == 1


def test_edgeless_graph_moves_nothing() -> None:
    sched = PeriodicSchedule([metropolis_weights([], 3)], B=1)
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    mixed, log = gossip_rounds(values, sched, start_slot=0, rounds=5)
    assert np.array_equal(mixed, values)
    assert log.total_messages == 0
    assert all(record.self_updates == 3 for record in log.records)


def test_two_rounds_match_hand_product() -> None:
    a = metropolis_weights([(0, 1)], 3)
    b = metropolis_weights([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((3, 4))
    mixed, _ = gossip_rounds(values, sched, start_slot=0, rounds=2)
    assert np.max(np.abs(mixed - b.w @ (a.w @ values))) <= 1e-9


def test_message_counts_match_edges() -> None:
    sched = RandomSchedule(m=6, B=3, seed=5)
    values = np.random.default_rng(0).standard_normal((6, 2))
    _, log = gossip_rounds(values, sched, start_slot=0, rounds=9)
    for record in log.records:
        edges = sched.matrix(record.slot).edges()
        assert record.messages == 2 * len(edges)
        assert record.self_updates == 6
    assert int(log.sent_per_agent.sum()) == log.total_messages
    assert np.array_equal(log.scalars_per_agent, log.sent_per_agent * 2)


def test_iter_slot_messages_yields_directed_edges() -> None:
    adj = metropolis_weights([(0, 1), (1, 2)], 3)
    values = np.arange(6.0).reshape(3, 2)
    messages = list(iter_slot_messages(adj, slot=7, values=values))
    pairs = {(msg.sender, msg.receiver) for msg in messages}
    assert pairs == {(0, 1), (1, 0), (1, 2), (2, 1)}
    assert all(msg.slot == 7 for msg in messages)
    for msg in messages:
        assert np.array_equal(msg.payload, values[msg.sender])


def test_sum_preserved_each_round() -> None:
    sched = RandomSchedule(m=5, B=2, seed=3)
    values = np.random.default_rng(1).standard_normal((5, 3))
    total = values.sum(axis=0)
    y = values
    for slot in range(10):
        y, _ = gossip_rounds(y, sched, start_slot=slot, rounds=1)
        assert np.max(np.abs(y.sum(axis=0) - total)) <= 1e-10


def test_gossip_agrees_with_weight_products() -> None:
    sched = ring_matchings_schedule(5)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((5, 3))
    for k in range(1, 13):
        mixed, log = gossip_rounds(values, sched, slots_before(k), rounds=k)
        direct = consensus_weights(sched, k) @ values
        assert np.max(np.abs(mixed - direct)) <= 1e-9
        assert log.cumulative_slots == k * (k + 1) // 2


def test_gossip_rejects_bad_arguments() -> None:
    sched = complete_schedule(3)
    values = np.zeros((3, 2))
    with pytest.raises(ValueError):
        gossip_rounds(values, sched, start_slot=0, rounds=0)
    with pytest.raises(ValueError):
        gossip_rounds(values, sched, start_slot=-1, rounds=1)
    with pytest.raises(ValueError):
        gossip_rounds(np.zeros((4, 2)), sched, start_slot=0, rounds=1)
    with pytest.raises(ValueError):
        gossip_rounds(np.zeros(3), sched, start_slot=0, rounds=1)


def test_replay_passes_on_recorded_run() -> None:
    schedule, trace = _small_run(T=8)
    report = replay_check(trace, schedule)
    assert report.passed
    assert report.iterations_checked == 8
    assert report.max_deviation < 1e-8


def test_replay_passes_on_larger_fixture() -> None:
    setup, trace = small_quadratic_run()
    report = replay_check(trace, setup.schedule)
    assert report.passed
    assert report.iterations_checked == 200


def test_replay_flags_corrupted_iteration() -> None:
    schedule, trace = _small_run(T=6)
    snap = trace.snapshots[4]
    trace.snapshots[4] = IterationSnapshot(
        k=4, x=snap.x, q=snap.q, v=snap.v + 1e-4
    )
    report = replay_check(trace, schedule)
    assert not report.passed
    assert report.first_failure == 4
    assert report.max_deviation >= 1e-4 - 1e-12


def test_replay_requires_full_snapshots() -> None:
    schedule, trace = _small_run(T=6, snapshot_every=2)
    with pytest.raises(ValueError, match="snapshot"):
        replay_check(trace, schedule)


def test_replay_empty_run_is_vacuous() -> None:
    schedule, trace = _small_run(T=0)
    report = replay_check(trace, schedule)
    assert report == ReplayReport(
        iterations_checked=0, max_deviation=0.0, first_failure=None
    )
    assert report.passed


def test_replay_on_empty_trace_object() -> None:
    report = replay_check(RunTrace(rows=[None]), complete_schedule(3))
    assert report.passed
