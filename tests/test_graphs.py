import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from proxnet.graphs import (
    DisconnectedSchedule,
    PeriodicSchedule,
    RandomSchedule,
    _metropolis,
    complete_schedule,
    consensus_weights,
    geometric_constants,
    read_matrix_file,
    ring_matchings_schedule,
    ring_schedule,
    slots_before,
    validate_schedule,
)

from oracles import (
    bfs_connected,
    edges,
    metropolis_by_edges,
    ordered_product,
    random_window_edges,
)


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
    w = _metropolis(np.eye(2, k=1, dtype=bool))
    assert w == pytest.approx(np.full((2, 2), 0.5))
    assert PeriodicSchedule([w], B=1).eta == pytest.approx(0.5)


def test_metropolis_empty_graph_is_identity() -> None:
    assert np.array_equal(_metropolis(np.zeros((3, 3), dtype=bool)), np.eye(3))


def test_metropolis_path_graph() -> None:
    # Path 0-1-2: degrees 1, 2, 1.  Edge weights 1/(1+max deg) = 1/3,
    # diagonals absorb the rest.
    w = _metropolis(np.eye(3, k=1, dtype=bool))
    expected = np.array(
        [
            [2 / 3, 1 / 3, 0.0],
            [1 / 3, 1 / 3, 1 / 3],
            [0.0, 1 / 3, 2 / 3],
        ]
    )
    assert w == pytest.approx(expected, abs=1e-15)


def test_metropolis_floor_one_over_m() -> None:
    rng = np.random.default_rng(7)
    for m in (2, 3, 5, 9):
        for _ in range(20):
            w = _metropolis(rng.random((m, m)) < 0.4)
            positive = w[w > 0]
            assert positive.min() >= 1.0 / m - 1e-15


def test_periodic_schedule_checks_slot_weights() -> None:
    # The one weight check runs when a periodic schedule is built, on each
    # matrix in list order and before the agent counts are compared.
    for w, message in (
        (np.ones((2, 3)), "square"),
        (np.zeros((0, 0)), "at least one agent"),
        (np.array([[np.nan, 1.0], [1.0, np.nan]]), "finite"),
        (np.array([[1.5, -0.5], [-0.5, 1.5]]), "negative"),
        (np.array([[0.5, 0.5], [0.4, 0.6]]), "symmetric"),
        (np.array([[0.5, 0.4], [0.4, 0.5]]), "stochastic"),
        (np.array([[1.0, 0, 0], [0, 0, 1.0], [0, 1.0, 0]]), "agent 1 the self-weight"),
    ):
        with pytest.raises(ValueError, match=message):
            PeriodicSchedule([w], B=1)
        with pytest.raises(ValueError, match=message):
            PeriodicSchedule([metropolis_by_edges([], 3), w], B=1)


def test_periodic_schedule_keeps_a_read_only_copy() -> None:
    # The weight check runs once, when a schedule is built, so the stored
    # matrix must not change afterwards; the caller's array is not frozen.
    w = np.full((2, 2), 0.5)
    sched = PeriodicSchedule([w], B=1)
    with pytest.raises(ValueError):
        sched.matrix(0)[0, 0] = 1.0
    w[0, 0] = 1.0
    assert sched.matrix(0)[0, 0] == 0.5
    # Every schedule hands out read-only arrays, a random window's included.
    for slot in (complete_schedule(3).matrix(0), RandomSchedule(4, 2, 0).matrix(1)):
        assert not slot.flags.writeable


def test_periodic_schedule_edges_agents_and_eta() -> None:
    sched = PeriodicSchedule([metropolis_by_edges([(0, 1), (1, 2)], 3)], B=1)
    assert edges(sched.matrix(0)) == [(0, 1), (1, 2)]
    assert sched.eta == pytest.approx(1 / 3)
    assert sched.m == 3


def _same_bits(w: np.ndarray, edge_list) -> bool:
    return w.tobytes() == metropolis_by_edges(edge_list, w.shape[0]).tobytes()


def test_periodic_generators_match_the_edge_list_oracle() -> None:
    # Each generator's graph as an edge list: the ring has no edge at
    # m = 1 and one at m = 2, and an odd matching edge is (min, max) of
    # (i, (i + 1) % m), which wraps around for even m.  Each generator
    # returns a PeriodicSchedule, so every matrix here has also passed the
    # weight check.
    for m in range(1, 41):
        complete = [(i, j) for i in range(m) for j in range(i + 1, m)]
        assert _same_bits(complete_schedule(m).matrix(0), complete), m
        if m > 2:
            ring = [(i, (i + 1) % m) for i in range(m)]
        else:
            ring = [(0, 1)] if m == 2 else []
        assert _same_bits(ring_schedule(m).matrix(0), ring), m
    for m in [*range(2, 41), 200]:
        sched = ring_matchings_schedule(m)
        even = [(i, i + 1) for i in range(0, m - 1, 2)]
        odd = [(min(i, (i + 1) % m), max(i, (i + 1) % m)) for i in range(1, m, 2)]
        assert _same_bits(sched.matrix(0), even), m
        assert _same_bits(sched.matrix(1), odd), m


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 40),
    B=st.integers(1, 3),
    window=st.integers(0, 5),
)
def test_random_windows_match_the_edge_list_oracle(seed, m, B, window) -> None:
    sched = RandomSchedule(m=m, B=B, seed=seed)
    drawn = random_window_edges(seed, window, m, B)
    for pos, edge_list in enumerate(drawn):
        assert _same_bits(sched.matrix(window * B + pos), edge_list), pos


def test_complete_schedule_uniform() -> None:
    sched = complete_schedule(5)
    assert sched.matrix(0) == pytest.approx(np.full((5, 5), 0.2), abs=1e-15)
    assert sched.eta == pytest.approx(0.2)


def test_ring_schedule_small_sizes() -> None:
    assert np.array_equal(ring_schedule(1).matrix(0), np.eye(1))
    assert ring_schedule(2).matrix(0) == pytest.approx(np.full((2, 2), 0.5))
    w = ring_schedule(4).matrix(5)
    assert w == pytest.approx(w.T)
    assert w @ np.ones(4) == pytest.approx(np.ones(4))


def test_ring_matchings_cover_ring() -> None:
    for m in (2, 3, 4, 5, 10, 11):
        sched = ring_matchings_schedule(m)
        assert sched.B == 2
        even_edges = edges(sched.matrix(0))
        odd_edges = edges(sched.matrix(1))
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
        w = sched.matrix(t)
        assert set(np.unique(w)) <= {0.0, 0.5, 1.0}
    product = consensus_weights(sched, 8)
    assert np.array_equal(product @ np.ones(10), np.ones(10))


def test_periodic_schedule_cycles() -> None:
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    assert np.array_equal(sched.matrix(0), a)
    assert np.array_equal(sched.matrix(1), b)
    assert sched.matrix(2) is sched.matrix(0)
    assert sched.eta == pytest.approx(0.5)
    with pytest.raises(ValueError):
        sched.matrix(-1)


def test_periodic_schedule_rejects_mixed_sizes() -> None:
    a = metropolis_by_edges([(0, 1)], 2)
    b = metropolis_by_edges([(0, 1)], 3)
    with pytest.raises(ValueError):
        PeriodicSchedule([a, b], B=1)


def test_consensus_weights_multiply_later_slots_on_the_left() -> None:
    # Iteration 3 consumes slots 3, 4, 5 = b, a, b.  The product is built
    # as b (a b), in that order, so it matches bit for bit; a and b do not
    # commute, so the reverse order gives a different matrix.
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    assert np.array_equal(consensus_weights(sched, 3), b @ (a @ b))
    assert not np.allclose(consensus_weights(sched, 2), b @ a)
    first = consensus_weights(sched, 1)
    assert np.array_equal(first, a) and not first.flags.writeable


def test_consensus_weights_slot_window() -> None:
    # Iteration 2 consumes slots 1 and 2; for a period-2 schedule these
    # hold matrices B and A, so the product is A(2) A(1) = a @ b.
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    sched = PeriodicSchedule([a, b], B=2)
    assert consensus_weights(sched, 1) == pytest.approx(a)
    assert consensus_weights(sched, 2) == pytest.approx(a @ b)
    assert consensus_weights(sched, 3) == pytest.approx(b @ a @ b)
    with pytest.raises(ValueError):
        consensus_weights(sched, 0)


@settings(max_examples=100, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 8),
    period=st.integers(1, 4),
    ks=st.lists(st.integers(1, 30), min_size=1, max_size=20),
)
def test_consensus_weights_match_the_product_from_scratch(data, m, period, ks) -> None:
    # Any order of k, repeats and shorter k included, gives the oracle's
    # product bit for bit, and at most one stored product per phase.  A
    # result is read-only and stays the oracle's product through later calls.
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    subsets = st.lists(st.sampled_from(pairs), unique=True)
    sched = PeriodicSchedule(
        [metropolis_by_edges(data.draw(subsets), m) for _ in range(period)], B=1
    )
    results = []
    for k in ks:
        lam = consensus_weights(sched, k)
        assert lam.tobytes() == ordered_product(sched, k).tobytes(), k
        assert len(sched._prefixes) <= period
        assert not lam.flags.writeable
        results.append((k, lam))
    for k, lam in results:
        assert lam.tobytes() == ordered_product(sched, k).tobytes(), k


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 8),
    B=st.integers(1, 4),
    ks=st.lists(st.integers(1, 25), min_size=1, max_size=10),
)
def test_random_schedule_weights_match_the_product_from_scratch(seed, m, B, ks) -> None:
    sched = RandomSchedule(m=m, B=B, seed=seed)
    for k in ks:
        lam = consensus_weights(sched, k)
        assert lam.tobytes() == ordered_product(sched, k).tobytes(), k


@st.composite
def _matchings(draw, m: int) -> np.ndarray:
    """A slot that averages disjoint pairs; unmatched agents keep weight 1."""
    order = draw(st.permutations(range(m)))
    pairs = draw(st.integers(0, m // 2))
    w = np.eye(m)
    for i, j in zip(order[0 : 2 * pairs : 2], order[1 : 2 * pairs : 2]):
        w[i, i] = w[j, j] = w[i, j] = w[j, i] = 0.5
    return w


# Nonzero entries keep their halves normal and their pair sums finite.
_MIX_ENTRIES = st.one_of(
    st.just(0.0),
    st.floats(2.0**-1000, 2.0**1000),
    st.floats(-(2.0**1000), -(2.0**-1000)),
)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), m=st.integers(2, 64))
def test_matching_mix_is_the_dense_product_bit_for_bit(data, m) -> None:
    w = data.draw(_matchings(m))
    sched = PeriodicSchedule([w], B=1)
    assert sched._partners[0] is not None
    if data.draw(st.booleans()):
        p = np.eye(m)
        for other in data.draw(st.lists(_matchings(m), min_size=1, max_size=8)):
            p = other @ p
    else:
        n = data.draw(st.integers(1, 4))
        p = data.draw(arrays(np.float64, (m, n), elements=_MIX_ENTRIES))
    before = p.copy()
    assert sched.mix(0, p).tobytes() == (w @ p).tobytes()
    assert p.tobytes() == before.tobytes()


def _slots(*schedules) -> list:
    """(schedule, t) for every slot of one period of each schedule."""
    return [(sched, t) for sched in schedules for t in range(sched.period)]


def test_mix_detects_matchings_and_nothing_else(tmp_path) -> None:
    path = tmp_path / "half.txt"
    path.write_text("0.5 0.5 0\n0.5 0.5 0\n0 0 1\n")
    half = PeriodicSchedule(read_matrix_file(path), B=1)
    matchings = _slots(
        *(ring_matchings_schedule(m) for m in (2, 3, 7, 10)), ring_schedule(2), half
    )
    for sched, t in matchings:
        assert sched._partners[t] is not None
    partners = ring_matchings_schedule(4)._partners
    assert [p.tolist() for p in partners] == [[1, 0, 3, 2], [3, 2, 1, 0]]
    assert half._partners[0].tolist() == [1, 0, 2]
    ring = np.roll(np.eye(4), 1, axis=0)
    cycle = 0.5 * np.eye(4) + 0.25 * (ring + ring.T)
    supplied = [
        [[0.6, 0.4], [0.4, 0.6]],
        [[0.5 + 1e-12, 0.5 - 1e-12], [0.5 - 1e-12, 0.5 + 1e-12]],
        # A matching's diagonal and nonzero count, but rows 0-3 mix three
        # agents each.
        np.block([[cycle, np.zeros((4, 4))], [np.zeros((4, 4)), np.eye(4)]]),
    ]
    dense = _slots(
        *(ring_schedule(m) for m in (3, 4, 9)),
        *(complete_schedule(m) for m in (3, 5)),
        *(PeriodicSchedule([w], B=1) for w in supplied),
    )
    for sched, t in dense:
        assert sched._partners[t] is None
    rng = np.random.default_rng(5)
    for sched, t in matchings + dense:
        p = rng.standard_normal((sched.m, 3))
        assert sched.mix(t, p).tobytes() == (sched.matrix(t) @ p).tobytes()


class _CountingSchedule(PeriodicSchedule):
    reads = 0

    def matrix(self, t):
        self.reads += 1
        return super().matrix(t)


def test_consensus_weights_reads_slots_linearly() -> None:
    base = ring_matchings_schedule(10)
    sched = _CountingSchedule([base.matrix(0), base.matrix(1)], B=base.B)
    for k in range(1, 301):
        consensus_weights(sched, k)
    # Products built from scratch read T(T+1)/2 = 45,150 slots.
    assert sched.reads <= 2 * 300 + 2


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
        assert np.array_equal(one.matrix(t), two.matrix(t))
    assert any(not np.array_equal(one.matrix(t), other.matrix(t)) for t in range(12))


def test_random_schedule_holds_one_window() -> None:
    sched = RandomSchedule(m=10, B=3, seed=0)
    before = [sched.matrix(t) for t in range(6)]
    walked = [weakref.ref(sched.matrix(t)) for t in range(3_000)]
    gc.collect()
    # Of the slots walked, only the one read last is still alive.
    assert [ref() is not None for ref in walked].count(True) == 1
    # Slots read again after the walk, late and early, are drawn unchanged.
    slots = [*range(6), *range(2_994, 3_000), *range(6)]
    after = [sched.matrix(t) for t in slots[6:]]
    fresh = RandomSchedule(m=10, B=3, seed=0)
    for adj, t in zip(before + after, slots):
        assert adj.tobytes() == fresh.matrix(t).tobytes()


def _assert_tree_slot_spans(sched, window) -> None:
    """The window's tree slot alone has m - 1 edges that connect all agents."""
    tree = edges(sched.matrix(window * sched.B))
    assert len(tree) == sched.m - 1, window
    assert bfs_connected(sched.m, tree), window


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 60),
    B=st.integers(1, 4),
    window=st.integers(0, 10_000),
)
def test_random_tree_slot_is_a_spanning_tree(seed, m, B, window) -> None:
    # Every B-window holds one tree slot, so this is the schedule's
    # connectivity; nothing checks it when a slot is drawn.
    _assert_tree_slot_spans(RandomSchedule(m=m, B=B, seed=seed), window)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 60),
    B=st.integers(1, 4),
    window=st.integers(0, 10_000),
)
def test_random_windows_pass_the_periodic_weight_check(seed, m, B, window) -> None:
    # Random slots are drawn with no weight check: a periodic schedule
    # over a drawn window holds each of its slots to that check.
    sched = RandomSchedule(m=m, B=B, seed=seed)
    PeriodicSchedule([sched.matrix(window * B + pos) for pos in range(B)], B=B)


@pytest.mark.parametrize("m", [200, 1000])
def test_random_tree_slot_spans_many_agents(m) -> None:
    # A tree slot is its window's first draw, so the oracle's one-slot
    # window gives its edges.  The schedule draws the m - 1 parents in one
    # call, the oracle one node at a time; numpy does not promise that
    # the two agree.
    for seed in (0, 1, 2):
        sched = RandomSchedule(m=m, B=3, seed=seed)
        for window in (0, 1, 7):
            _assert_tree_slot_spans(sched, window)
            [tree] = random_window_edges(seed, window, m, 1)
            assert _same_bits(sched.matrix(3 * window), tree), (seed, window)


def _first_disconnected_window(sched, horizon):
    """Start of the first B-window in [0, horizon) whose edge union is
    disconnected, by breadth-first search over every window; None if all
    are connected."""
    for start in range(horizon - sched.B + 1):
        union = [
            edge
            for t in range(start, start + sched.B)
            for edge in edges(sched.matrix(t))
        ]
        if not bfs_connected(sched.m, union):
            return start
    return None


def _assert_weight_floor(sched, horizon):
    for t in range(horizon):
        w = sched.matrix(t)
        assert w[w > 0].min() >= sched.eta - 1e-12, t


def test_random_schedule_windows_connected() -> None:
    sched = RandomSchedule(m=8, B=4, seed=0)
    assert _first_disconnected_window(sched, 40) is None
    _assert_weight_floor(sched, 40)
    validate_schedule(sched)


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(2, 17),
    B=st.integers(1, 4),
)
def test_random_schedule_every_sliding_window_connected(seed, m, B) -> None:
    # Aligned and sliding B-windows each hold exactly one tree slot.
    sched = RandomSchedule(m=m, B=B, seed=seed)
    assert _first_disconnected_window(sched, 12 * B) is None
    _assert_weight_floor(sched, 12 * B)
    validate_schedule(sched)


def test_validate_schedule_flags_disconnection() -> None:
    # Two components {0,1} and {2,3} never talk to each other.
    adj = metropolis_by_edges([(0, 1), (2, 3)], 4)
    with pytest.raises(DisconnectedSchedule, match="slot 0"):
        validate_schedule(PeriodicSchedule([adj], B=1))


def test_validate_schedule_checks_the_wrap_around_window() -> None:
    # Windows (0, 1) and (1, 2) are paths; only (2, 0), which crosses the
    # end of the period, misses the edge (1, 2).
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    sched = PeriodicSchedule([a, b, a], B=2)
    assert _first_disconnected_window(sched, 100) == 2
    with pytest.raises(DisconnectedSchedule, match="slot 2"):
        validate_schedule(sched)


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    m=st.integers(2, 5),
    period=st.integers(1, 4),
    B=st.integers(1, 4),
)
def test_validate_schedule_agrees_with_the_horizon_walk(data, m, period, B) -> None:
    # The verdict over one period of windows must match breadth-first
    # search over every window of a walk through several periods.
    pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
    subsets = st.lists(st.sampled_from(pairs), unique=True)
    sched = PeriodicSchedule(
        [metropolis_by_edges(data.draw(subsets), m) for _ in range(period)], B=B
    )
    first_bad = _first_disconnected_window(sched, 3 * period + B)
    if first_bad is None:
        validate_schedule(sched)
    else:
        with pytest.raises(DisconnectedSchedule, match=f"slot {first_bad} "):
            validate_schedule(sched)


def test_validate_schedule_reads_one_period_of_windows(monkeypatch) -> None:
    sched = ring_matchings_schedule(10)
    lookup = sched.matrix
    seen = []

    def spy(t):
        seen.append(t)
        return lookup(t)

    monkeypatch.setattr(sched, "matrix", spy)
    validate_schedule(sched)
    assert len(seen) <= 3  # period + B - 1


def test_validate_schedule_reads_one_period_of_a_long_window() -> None:
    # A window of B >= period slots holds the whole period, so a long B
    # costs no more reads than a window of one period.
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    B = 10**5
    connected = _CountingSchedule([a, b, a], B=B)
    validate_schedule(connected)
    assert connected.reads <= 2 * 3 - 1
    split = _CountingSchedule([a, a], B=B)
    with pytest.raises(DisconnectedSchedule, match=f"B={B} slots starting at slot 0 "):
        validate_schedule(split)
    assert split.reads <= 2 * 2 - 1


def test_matrix_file_round_trip(tmp_path) -> None:
    a = metropolis_by_edges([(0, 1)], 3)
    b = metropolis_by_edges([(1, 2)], 3)
    path = tmp_path / "mats.txt"
    blocks = []
    for w in (a, b):
        blocks.append("\n".join(" ".join(repr(float(x)) for x in row) for row in w))
    path.write_text("\n\n".join(blocks) + "\n")
    loaded = read_matrix_file(path)
    assert len(loaded) == 2
    assert np.array_equal(loaded[0], a)
    assert np.array_equal(loaded[1], b)
    sched = PeriodicSchedule(loaded, B=2)
    assert sched.m == 3
    validate_schedule(sched)
