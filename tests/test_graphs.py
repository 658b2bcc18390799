import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proxnet.graphs import (
    AdjacencyMatrix,
    PeriodicSchedule,
    RandomSchedule,
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

from oracles import bfs_connected


def test_slots_before_triangular() -> None:
    assert slots_before(1) == 0
    assert slots_before(2) == 1
    assert slots_before(3) == 3
    assert slots_before(4) == 6
    # After T iterations the next iteration starts at slot T(T+1)/2.
    for T in range(1, 50):
        assert slots_before(T + 1) == T * (T + 1) // 2


def test_slots_before_rejects_zero() -> None:
    with pytest.raises(ValueError):
        slots_before(0)


def test_metropolis_single_edge_pair() -> None:
    adj = metropolis_weights([(0, 1)], 2)
    assert adj.w == pytest.approx(np.full((2, 2), 0.5))
    assert adj.eta == pytest.approx(0.5)


def test_metropolis_empty_graph_is_identity() -> None:
    adj = metropolis_weights([], 3)
    assert np.array_equal(adj.w, np.eye(3))


def test_metropolis_path_graph() -> None:
    # Path 0-1-2: degrees 1, 2, 1.  Edge weights 1/(1+max deg) = 1/3,
    # diagonals absorb the rest.
    adj = metropolis_weights([(0, 1), (1, 2)], 3)
    expected = np.array(
        [
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 3, 2 / 3],
        ]
    )
    assert adj.w == pytest.approx(expected, abs=1e-15)


def test_metropolis_floor_one_over_m() -> None:
    rng = np.random.default_rng(7)
    for m in (2, 3, 5, 9):
        for _ in range(20):
            mask = rng.random((m, m)) < 0.4
            rows, cols = np.nonzero(np.triu(mask, k=1))
            adj = metropolis_weights(list(zip(rows, cols)), m)
            positive = adj.w[adj.w > 0]
            assert positive.min() >= 1.0 / m - 1e-15


def test_metropolis_rejects_bad_edges() -> None:
    with pytest.raises(ValueError):
        metropolis_weights([(0, 0)], 2)
    with pytest.raises(ValueError):
        metropolis_weights([(0, 1), (1, 0)], 2)
    with pytest.raises(ValueError):
        metropolis_weights([(0, 3)], 3)
    with pytest.raises(ValueError):
        metropolis_weights([], 0)


def test_adjacency_validation() -> None:
    with pytest.raises(ValueError, match="square"):
        AdjacencyMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="symmetric"):
        AdjacencyMatrix(np.array([[0.5, 0.5], [0.4, 0.6]]), tol=1e-12)
    with pytest.raises(ValueError, match="negative"):
        AdjacencyMatrix(np.array([[1.5, -0.5], [-0.5, 1.5]]))
    with pytest.raises(ValueError, match="stochastic"):
        AdjacencyMatrix(np.array([[0.5, 0.4], [0.4, 0.5]]))
    with pytest.raises(ValueError, match="finite"):
        AdjacencyMatrix(np.array([[np.nan, 1.0], [1.0, np.nan]]))


def test_adjacency_edges_and_eta() -> None:
    adj = metropolis_weights([(0, 1), (1, 2)], 3)
    assert adj.edges() == [(0, 1), (1, 2)]
    assert adj.eta == pytest.approx(1 / 3)
    assert adj.m == 3


def test_complete_schedule_uniform() -> None:
    sched = complete_schedule(5)
    assert sched.matrix(0).w == pytest.approx(np.full((5, 5), 0.2), abs=1e-15)
    assert sched.eta == pytest.approx(0.2)


def test_ring_schedule_small_sizes() -> None:
    assert np.array_equal(ring_schedule(1).matrix(0).w, np.eye(1))
    assert ring_schedule(2).matrix(0).w == pytest.approx(np.full((2, 2), 0.5))
    w = ring_schedule(4).matrix(5).w
    assert w == pytest.approx(w.T)
    assert w @ np.ones(4) == pytest.approx(np.ones(4))


def test_ring_matchings_cover_ring() -> None:
    for m in (2, 3, 4, 5, 10, 11):
        sched = ring_matchings_schedule(m)
        assert sched.B == 2
        even_edges = sched.matrix(0).edges()
        odd_edges = sched.matrix(1).edges()
        union = even_edges + [e for e in odd_edges if e not in even_edges]
        assert bfs_connected(m, union)
        if m >= 4:
            # Individual matchings are disconnected on purpose.
            assert not bfs_connected(m, even_edges)
            assert not bfs_connected(m, odd_edges)


def test_ring_matchings_weights_are_dyadic() -> None:
    # Matching edges have max degree 1, so every weight is exactly 1/2 and
    # products of slot matrices keep row sums at exactly 1.0 in floats.
    sched = ring_matchings_schedule(10)
    for t in (0, 1):
        w = sched.matrix(t).w
        assert set(np.unique(w)) <= {0.0, 0.5, 1.0}
    product = transition_matrix(sched, 7, 0)
    assert np.array_equal(product @ np.ones(10), np.ones(10))


def test_periodic_schedule_cycles() -> None:
    a = metropolis_weights([(0, 1)], 3)
    b = metropolis_weights([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    assert sched.matrix(0) is a
    assert sched.matrix(1) is b
    assert sched.matrix(2) is a
    assert sched.eta == pytest.approx(0.5)
    with pytest.raises(ValueError):
        sched.matrix(-1)


def test_periodic_schedule_rejects_mixed_sizes() -> None:
    a = metropolis_weights([(0, 1)], 2)
    b = metropolis_weights([(0, 1)], 3)
    with pytest.raises(ValueError):
        PeriodicSchedule([a, b], B=1)


def test_transition_matrix_order() -> None:
    # Later slots multiply on the left: Phi(1, 0) = A(1) A(0).
    a = metropolis_weights([(0, 1)], 3)
    b = metropolis_weights([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    assert transition_matrix(sched, 0, 0) == pytest.approx(a.w)
    assert transition_matrix(sched, 1, 0) == pytest.approx(b.w @ a.w)
    with pytest.raises(ValueError):
        transition_matrix(sched, 0, 1)
    with pytest.raises(ValueError):
        transition_matrix(sched, 1, -1)


def test_consensus_weights_slot_window() -> None:
    # Iteration 2 consumes slots 1 and 2; for a period-2 schedule these
    # hold matrices B and A, so the product is A(2) A(1) = a.w @ b.w.
    a = metropolis_weights([(0, 1)], 3)
    b = metropolis_weights([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    assert consensus_weights(sched, 1) == pytest.approx(a.w)
    assert consensus_weights(sched, 2) == pytest.approx(a.w @ b.w)
    assert consensus_weights(sched, 3) == pytest.approx(b.w @ a.w @ b.w)
    with pytest.raises(ValueError):
        consensus_weights(sched, 0)


def test_consensus_weights_stay_doubly_stochastic() -> None:
    sched = RandomSchedule(m=6, B=3, seed=11)
    ones = np.ones(6)
    for k in range(1, 25):
        lam = consensus_weights(sched, k)
        tol = 1e-10 * k
        assert np.max(np.abs(lam @ ones - ones)) <= tol
        assert np.max(np.abs(lam.T @ ones - ones)) <= tol
        assert lam.min() >= -tol


def test_geometric_constants_two_agents() -> None:
    geo = geometric_constants(m=2, B=1, eta=0.5)
    assert geo.B0 == 1
    assert geo.gamma == pytest.approx(0.5)
    assert geo.Gamma == pytest.approx(12.0)


def test_geometric_constants_three_agents() -> None:
    geo = geometric_constants(m=3, B=2, eta=0.25)
    assert geo.B0 == 4
    assert geo.gamma == pytest.approx((1.0 - 0.25**4) ** 0.25)
    assert geo.Gamma == pytest.approx(131584.0 / 255.0)


def test_geometric_constants_rejections() -> None:
    with pytest.raises(ValueError):
        geometric_constants(m=1, B=1, eta=0.5)
    with pytest.raises(ValueError):
        geometric_constants(m=3, B=0, eta=0.5)
    for eta in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            geometric_constants(m=3, B=1, eta=eta)


def test_consensus_contraction_envelope() -> None:
    # The deviation of the mixed iterates from their mean decays at least
    # geometrically with the envelope Gamma gamma^k sum_j ||q_j||.
    m = 5
    sched = ring_matchings_schedule(m)
    geo = geometric_constants(m, sched.B, sched.eta)
    rng = np.random.default_rng(3)
    q = rng.standard_normal((m, 4))
    q_bar = q.mean(axis=0)
    total = float(np.linalg.norm(q, axis=1).sum())
    for k in range(1, 30):
        lam = consensus_weights(sched, k)
        mixed = lam @ q
        gap = float(np.max(np.linalg.norm(mixed - q_bar, axis=1)))
        assert gap <= geo.Gamma * geo.gamma**k * total + 1e-12


def test_random_schedule_reproducible() -> None:
    one = RandomSchedule(m=7, B=3, seed=42)
    two = RandomSchedule(m=7, B=3, seed=42)
    other = RandomSchedule(m=7, B=3, seed=43)
    for t in range(12):
        assert np.array_equal(one.matrix(t).w, two.matrix(t).w)
    assert any(
        not np.array_equal(one.matrix(t).w, other.matrix(t).w) for t in range(12)
    )


def test_random_schedule_windows_connected() -> None:
    sched = RandomSchedule(m=8, B=4, seed=0)
    report = validate_schedule(sched, horizon=40)
    assert report.valid
    assert report.summary().startswith("valid")


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 17),
    B=st.integers(1, 4),
)
def test_random_schedule_every_sliding_window_connected(seed, m, B) -> None:
    # Aligned and sliding B-windows each hold exactly one tree slot.
    report = validate_schedule(RandomSchedule(m=m, B=B, seed=seed), horizon=12 * B)
    assert report.valid, report.summary()


def test_validate_schedule_flags_disconnection() -> None:
    # Two components {0,1} and {2,3} never talk to each other.
    adj = metropolis_weights([(0, 1), (2, 3)], 4)
    report = validate_schedule(PeriodicSchedule([adj], B=1), horizon=6)
    assert not report.valid
    assert report.disconnected_windows == list(range(6))
    assert "disconnected" in report.summary()


def test_validate_schedule_flags_floor_violation() -> None:
    sched = ring_schedule(4)
    sched.eta = 0.9  # claim a floor the weights do not meet
    report = validate_schedule(sched, horizon=4)
    assert report.floor_failures == list(range(4))
    assert not report.valid


def test_validate_schedule_rejects_short_horizon() -> None:
    sched = ring_matchings_schedule(6)
    with pytest.raises(ValueError):
        validate_schedule(sched, horizon=1)


def test_matrix_file_round_trip(tmp_path) -> None:
    a = metropolis_weights([(0, 1)], 3).w
    b = metropolis_weights([(1, 2)], 3).w
    path = tmp_path / "mats.txt"
    blocks = []
    for w in (a, b):
        blocks.append("\n".join(" ".join(repr(float(x)) for x in row) for row in w))
    path.write_text("\n\n".join(blocks) + "\n")
    loaded = read_matrix_file(path)
    assert len(loaded) == 2
    assert np.array_equal(loaded[0], a)
    assert np.array_equal(loaded[1], b)
    sched = schedule_from_matrices(loaded, B=2)
    assert sched.m == 3
    assert validate_schedule(sched, horizon=8).valid


def test_schedule_from_matrices_rejects_bad_input() -> None:
    with pytest.raises(ValueError):
        schedule_from_matrices([np.array([[0.5, 0.4], [0.4, 0.5]])], B=1)
