import numpy as np
import pytest

from proxnet.gossip import (
    ReplayReport,
    gossip_rounds,
    replay_check,
)
from proxnet.graphs import (
    PeriodicSchedule,
    RandomSchedule,
    complete_schedule,
    consensus_weights,
    ring_matchings_schedule,
    slots_before,
)
from proxnet.objectives import quadratic_family
from proxnet.regularizers import L1
from proxnet.solver import IterationSnapshot, RunSetup, RunTrace, run

from fixtures import small_quadratic_run
from oracles import metropolis_by_edges


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
    mixed = gossip_rounds(values, sched, start_slot=0, rounds=1)
    assert mixed == pytest.approx(np.full((4, 1), 3.0))


def test_edgeless_graph_moves_nothing() -> None:
    sched = PeriodicSchedule([metropolis_by_edges([], 3)], B=1)
    values = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    mixed = gossip_rounds(values, sched, start_slot=0, rounds=5)
    assert np.array_equal(mixed, values)


def test_two_rounds_match_hand_product() -> None:
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    rng = np.random.default_rng(2)
    values = rng.standard_normal((3, 4))
    mixed = gossip_rounds(values, sched, start_slot=0, rounds=2)
    assert np.max(np.abs(mixed - b @ (a @ values))) <= 1e-9


def test_round_skips_entries_at_or_below_zero() -> None:
    # A supplied matrix may hold entries down to -graphs.WEIGHT_TOL; such a
    # pair is no edge, so it carries no message.  Each receiver adds its senders in
    # increasing order after its own term, so the sums are exact here.
    e = 1e-12
    w = np.array([[0.5 + e, 0.5, -e], [0.5, 0.5, 0.0], [-e, 0.0, 1.0 + e]])
    sched = PeriodicSchedule([w], B=1)
    values = np.array([[3.0], [-7.0], [1e6]])
    mixed = gossip_rounds(values, sched, start_slot=0, rounds=1)
    expected = np.array(
        [
            [w[0, 0] * 3.0 + w[0, 1] * -7.0],
            [w[1, 1] * -7.0 + w[1, 0] * 3.0],
            [w[2, 2] * 1e6],
        ]
    )
    assert np.array_equal(mixed, expected)


def test_sum_preserved_each_round() -> None:
    sched = RandomSchedule(m=5, B=2, seed=3)
    values = np.random.default_rng(1).standard_normal((5, 3))
    total = values.sum(axis=0)
    y = values
    for slot in range(10):
        y = gossip_rounds(y, sched, start_slot=slot, rounds=1)
        assert np.max(np.abs(y.sum(axis=0) - total)) <= 1e-10


def test_gossip_agrees_with_weight_products() -> None:
    sched = ring_matchings_schedule(5)
    rng = np.random.default_rng(4)
    values = rng.standard_normal((5, 3))
    for k in range(1, 13):
        mixed = gossip_rounds(values, sched, slots_before(k), rounds=k)
        direct = consensus_weights(sched, k) @ values
        assert np.max(np.abs(mixed - direct)) <= 1e-9


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
