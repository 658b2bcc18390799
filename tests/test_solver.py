import math

import numpy as np
import pytest

from proxnet import graphs
from proxnet.graphs import (
    PeriodicSchedule,
    RandomSchedule,
    complete_schedule,
    ring_matchings_schedule,
    ring_schedule,
)
from proxnet.objectives import Dataset, Quadratic, SigmoidLoss, quadratic_family
from proxnet.objectives import shard, synthetic_classification
from proxnet.regularizers import Box, L1, Regularizer, Zero
from proxnet.solver import (
    NumericalFault,
    RunSetup,
    StepSizeError,
    consensus_step,
    gradient_step,
    iterate,
    prox_step,
    run,
)
from proxnet.diagnostics import csv_line, gradient_averaging_error

from fixtures import matchings_run
from oracles import metropolis_by_edges, trace_rows


class _CountingNanObjective:
    """Gradient of ones turns to NaN on the nth call; value and L stay benign.

    A gradient of ones moves the iterate at every step, so no point is
    evaluated twice by a family that remembers its last gradients.
    """

    def __init__(self, n: int, blow_at: int) -> None:
        self.n = n
        self.calls = 0
        self.blow_at = blow_at

    def value(self, x) -> float:
        return 0.0

    def grad(self, x):
        self.calls += 1
        if self.calls >= self.blow_at:
            return np.full(self.n, np.nan)
        return np.ones(self.n)

    def lipschitz(self) -> float:
        return 1.0


def test_gradient_step_stationary_point() -> None:
    quad = Quadratic(np.eye(2), np.array([1.0, -1.0]))
    q = gradient_step(np.array([[1.0, -1.0]]), [quad], alpha=0.3, k=1)
    assert q == pytest.approx(np.array([[1.0, -1.0]]))


def test_gradient_step_identity_quadratic() -> None:
    # g = ||x - c||^2 / 2 pulls the offset in by a factor (1 - alpha).
    c = np.array([2.0, 0.0, -1.0])
    d = np.array([1.0, -2.0, 0.5])
    quads = [Quadratic(np.eye(3), c), Quadratic(np.eye(3), -c)]
    q = gradient_step(np.array([c + d, -c + d]), quads, alpha=0.25, k=1)
    assert q == pytest.approx(np.array([c + 0.75 * d, -c + 0.75 * d]))


def test_gradient_step_rejects_bad_alpha() -> None:
    quad = Quadratic(np.eye(2), np.zeros(2))
    for alpha in (0.0, -0.5):
        with pytest.raises(ValueError):
            gradient_step(np.zeros((1, 2)), [quad], alpha, k=1)


def test_gradient_step_faults_on_nan() -> None:
    order = []

    class Logged(_CountingNanObjective):
        def grad(self, x):
            order.append(objs.index(self))
            return super().grad(x)

    objs = [Logged(n=2, blow_at=1 if i == 3 else 2) for i in range(5)]
    with pytest.raises(NumericalFault) as info:
        gradient_step(np.zeros((5, 2)), objs, alpha=0.1, k=7)
    assert info.value.agent == 3
    assert info.value.iteration == 7
    assert str(info.value) == "non-finite gradient at agent 3"
    # Every agent's gradient is read once, in agent order.
    assert order == [0, 1, 2, 3, 4]


def test_consensus_step_examples() -> None:
    q = np.array([[1.0], [3.0]])
    weights = np.array([[0.75, 0.25], [0.25, 0.75]])
    v = consensus_step(q, weights)
    assert v == pytest.approx(np.array([[1.5], [2.5]]))
    assert v.mean() == pytest.approx(q.mean(), abs=1e-10)

    same = np.tile([2.0, -1.0], (4, 1))
    uniform = np.full((4, 4), 0.25)
    assert consensus_step(same, uniform) == pytest.approx(same)
    spread = np.array([[1.0], [2.0], [3.0], [6.0]])
    assert consensus_step(spread, uniform) == pytest.approx(np.full((4, 1), 3.0))


def test_consensus_step_shape_mismatch() -> None:
    with pytest.raises(ValueError):
        consensus_step(np.zeros((3, 2)), np.eye(2))
    with pytest.raises(ValueError):
        consensus_step(np.zeros(3), np.eye(3))


def test_prox_step_examples() -> None:
    assert prox_step(np.array([5.0, -2.0]), Zero(2), 1.0) == pytest.approx(
        [5.0, -2.0]
    )
    assert prox_step(np.array([2.0]), L1(1, lam1=1.0), 1.0) == pytest.approx([1.0])
    assert prox_step(
        np.array([-3.0, 0.5, 7.0]), Box(3, lo=0.0, hi=1.0), 1.0
    ) == pytest.approx([0.0, 0.5, 1.0])


def test_iterate_single_agent_is_gradient_descent() -> None:
    # With one agent and h = 0 the iteration must reduce to plain gradient
    # descent, bit for bit.
    data = synthetic_classification(count=30, n=4, seed=3)
    obj = SigmoidLoss(data)
    sched = ring_schedule(1)
    alpha = 0.5 / obj.lipschitz()
    x = np.array([[0.1, -0.2, 0.3, 0.0]])
    x_ref = x[0].copy()
    for k in range(1, 11):
        x, _, _ = iterate(x, [obj], sched, Zero(4), alpha, k)
        x_ref = x_ref - alpha * obj.grad(x_ref)
        assert np.array_equal(x[0], x_ref)


def test_iterate_fixed_point_is_preserved() -> None:
    # All agents equal x^ = c - lam1 solves x^ = prox(x^ - alpha grad);
    # with dyadic alpha the iterate reproduces it exactly.
    m, c, lam1, alpha = 4, 2.0, 1.0, 0.25
    objectives = [Quadratic(np.eye(1), np.array([c])) for _ in range(m)]
    reg = L1(1, lam1=lam1)
    sched = complete_schedule(m)
    x_hat = np.full((m, 1), c - lam1)
    x_next, _, _ = iterate(x_hat, objectives, sched, reg, alpha, k=1)
    assert np.max(np.abs(x_next - x_hat)) <= 1e-12


def test_iterate_rejects_bad_inputs() -> None:
    objectives = [Quadratic(np.eye(1), np.zeros(1))]
    sched = ring_schedule(1)
    with pytest.raises(ValueError):
        iterate(np.zeros((1, 1)), objectives, sched, Zero(1), 0.5, k=0)
    with pytest.raises(ValueError):
        iterate(np.zeros((2, 1)), objectives, ring_schedule(2), Zero(1), 0.5, k=1)


def test_run_quadratic_consensus_fixed_point() -> None:
    # Complete uniform mixing collapses the network to centralized descent
    # on the average objective, whose minimizer has a closed form.
    objectives = quadratic_family(m=3, n=4, seed=5)
    q_sum = sum(obj.q for obj in objectives)
    target = np.linalg.solve(q_sum, sum(obj.q @ obj.c for obj in objectives))
    lipschitz = max(obj.lipschitz() for obj in objectives)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Zero(4),
        schedule=complete_schedule(3),
        alpha=0.9 / lipschitz,
        max_iter=200,
        init=np.zeros((3, 4)),
    )
    trace = run(setup)
    assert np.max(np.linalg.norm(trace.final_x - target, axis=1)) <= 1e-6


def test_run_zero_iterations() -> None:
    objectives = quadratic_family(m=2, n=2, seed=1)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Zero(2),
        schedule=complete_schedule(2),
        alpha=0.1 / max(o.lipschitz() for o in objectives),
        max_iter=0,
        init=np.ones((2, 2)),
    )
    trace = run(setup)
    assert len(trace.rows) == 1
    assert trace.rows[0].k == 0
    assert trace.comm_cumulative == 0
    assert np.array_equal(trace.final_x, np.ones((2, 2)))
    assert set(trace.snapshots) == {0}


def test_run_communication_accounting() -> None:
    objectives = quadratic_family(m=2, n=2, seed=1)
    lipschitz = max(o.lipschitz() for o in objectives)
    for T, total in ((3, 6), (20, 210)):
        setup = RunSetup(
            objectives=objectives,
            regularizer=Zero(2),
            schedule=complete_schedule(2),
            alpha=0.5 / lipschitz,
            max_iter=T,
            init=np.zeros((2, 2)),
        )
        trace = run(setup)
        assert trace.comm_cumulative == total
        assert trace.rows[-1].comm_cumulative == total
        # Per-row counters grow triangularly.
        assert [row.comm_cumulative for row in trace.rows] == [
            k * (k + 1) // 2 for k in range(T + 1)
        ]


def test_run_rejects_large_step() -> None:
    objectives = quadratic_family(m=2, n=2, seed=1)
    lipschitz = max(o.lipschitz() for o in objectives)
    # 1/alpha overflows at a subnormal step, so it is refused up front.
    for alpha in (1.0 / lipschitz, 1.5 / lipschitz, 0.0, -0.1, 5e-324, 1e-320):
        setup = RunSetup(
            objectives=objectives,
            regularizer=Zero(2),
            schedule=complete_schedule(2),
            alpha=alpha,
            max_iter=5,
            init=np.zeros((2, 2)),
        )
        with pytest.raises(StepSizeError):
            run(setup)


def test_run_rejects_a_step_that_is_not_positive_at_zero_curvature() -> None:
    # At L = 0 any positive step with a finite reciprocal is allowed; 0,
    # nan and a subnormal step are step-size errors before row 0 is built.
    objectives = [Quadratic(np.zeros((2, 2)), np.zeros(2)) for _ in range(2)]
    for alpha in (0.0, math.nan, 1e-320):
        setup = RunSetup(
            objectives=objectives,
            regularizer=Zero(2),
            schedule=complete_schedule(2),
            alpha=alpha,
            max_iter=5,
            init=np.zeros((2, 2)),
        )
        with pytest.raises(StepSizeError, match="step size must be positive"):
            run(setup)


def test_run_rejects_a_non_finite_lipschitz_constant() -> None:
    # A feature of 1e200 overflows the sigmoid L to inf.  That is not a step
    # size fault, though every alpha fails alpha < 1/L = 0.0.
    data = Dataset(np.array([[1e200, 1.0], [0.5, 0.0]]), np.array([1.0, -1.0]))
    objectives = [SigmoidLoss(data), SigmoidLoss(data)]
    for alpha in (0.1, 1e-300):
        setup = RunSetup(
            objectives=objectives,
            regularizer=Zero(2),
            schedule=complete_schedule(2),
            alpha=alpha,
            max_iter=5,
            init=np.zeros((2, 2)),
        )
        with pytest.raises(ValueError, match=r"^Lipschitz constant L = inf ") as info:
            run(setup)
        assert not isinstance(info.value, StepSizeError)


def test_run_rejects_invalid_schedule() -> None:
    # Two disconnected pairs can never reach consensus.
    adj = metropolis_by_edges([(0, 1), (2, 3)], 4)
    objectives = quadratic_family(m=4, n=2, seed=2)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Zero(2),
        schedule=PeriodicSchedule([adj], B=1),
        alpha=0.1 / max(o.lipschitz() for o in objectives),
        max_iter=5,
        init=np.zeros((4, 2)),
    )
    with pytest.raises(ValueError, match="schedule"):
        run(setup)


@pytest.mark.parametrize("m, B, T, draws", [(5, 3, 30, 465), (3, 1000, 3, 6)])
def test_run_draws_each_random_slot_once(monkeypatch, m, B, T, draws) -> None:
    # T iterations read the T(T+1)/2 slots in turn; the run's validation
    # reads none of them, and the trace's D reuses the slot read last.  A
    # slot is drawn when it is read, however long its window.
    metropolis = graphs._metropolis
    drawn = []

    def spy(adj):
        drawn.append(adj.shape)
        return metropolis(adj)

    monkeypatch.setattr(graphs, "_metropolis", spy)
    objectives = quadratic_family(m=m, n=2, seed=2)
    run(
        RunSetup(
            objectives=objectives,
            regularizer=Zero(2),
            schedule=RandomSchedule(m=m, B=B, seed=0),
            alpha=0.5 / max(o.lipschitz() for o in objectives),
            max_iter=T,
            init=np.zeros((m, 2)),
        )
    )
    assert len(drawn) == draws == T * (T + 1) // 2


def test_run_rejects_mismatched_sizes() -> None:
    objectives = quadratic_family(m=3, n=2, seed=2)
    lipschitz = max(o.lipschitz() for o in objectives)
    with pytest.raises(ValueError, match="agents"):
        run(
            RunSetup(
                objectives=objectives,
                regularizer=Zero(2),
                schedule=complete_schedule(4),
                alpha=0.1 / lipschitz,
                max_iter=2,
                init=np.zeros((3, 2)),
            )
        )
    with pytest.raises(ValueError, match="objectives"):
        run(
            RunSetup(
                objectives=objectives,
                regularizer=Zero(2),
                schedule=complete_schedule(4),
                alpha=0.1 / lipschitz,
                max_iter=2,
                init=np.zeros((4, 2)),
            )
        )


def test_run_numerical_fault_carries_iteration() -> None:
    # One agent, so x_bar is the iterate: the family evaluates the member
    # once per iteration, in the step, and repeats that gradient for both
    # of e's calls.  The third member call is the step of iteration 3.
    obj = _CountingNanObjective(n=2, blow_at=3)
    setup = RunSetup(
        objectives=[obj],
        regularizer=Zero(2),
        schedule=ring_schedule(1),
        alpha=0.5,
        max_iter=10,
        init=np.zeros((1, 2)),
    )
    with pytest.raises(NumericalFault) as info:
        run(setup)
    assert info.value.iteration == 3
    assert info.value.agent == 0


def test_run_faults_on_a_non_finite_start_or_trace_row(monkeypatch) -> None:
    # A non-finite start is a fault at iteration 0 before any row is made.
    # A finite start of 1e200 squares past the float range in f_avg, so
    # row 0 is a fault too; no numpy overflow warning escapes either.
    # h = inf is F = inf only at the start: on a later row it is a fault.
    setup = RunSetup(
        objectives=[Quadratic(np.eye(2), np.zeros(2))] * 2,
        regularizer=Zero(2),
        schedule=ring_schedule(2),
        alpha=0.5,
        max_iter=3,
        init=np.array([[0.0, 0.0], [np.inf, 0.0]]),
    )
    with pytest.raises(NumericalFault, match="non-finite initial point") as info:
        run(setup)
    assert (info.value.iteration, info.value.agent) == (0, 1)
    setup.init = np.full((2, 2), 1e200)
    with pytest.raises(NumericalFault, match="non-finite trace column f_avg") as info:
        run(setup)
    assert info.value.iteration == 0
    setup.init = np.zeros((2, 2))
    monkeypatch.setattr(Regularizer, "value", lambda self, x: np.inf)
    with pytest.raises(NumericalFault, match="non-finite trace column f_avg") as info:
        run(setup)
    assert info.value.iteration == 1


def test_run_keeps_a_mean_on_a_far_box_bound_feasible() -> None:
    # Every agent sits on the bound 1e6 + 0.1, and the mean of ten copies
    # rounds off it by more than 1e-12; the box slack scales with the bound.
    objectives = quadratic_family(10, 3, 0)
    setup = _setup(
        objectives,
        Box(3, lo=1e6 + 0.1, hi=2e6),
        ring_matchings_schedule(10),
        20,
        np.full((10, 3), 1e6 + 1.1),
    )
    trace = run(setup)
    assert all(np.isfinite(row.f_avg) for row in trace.rows)


def test_run_mean_tracking_identity() -> None:
    # The averaged post-consensus point must equal a centralized gradient
    # step from the previous average, corrected by the averaging error.
    setup, trace = matchings_run()
    alpha = trace.alpha
    for k in range(1, 201):
        x_prev = trace.snapshots[k - 1].x
        x_bar_prev = x_prev.mean(axis=0)
        mean_grad = np.mean(
            [obj.grad(x_bar_prev) for obj in setup.objectives], axis=0
        )
        e_vec = gradient_averaging_error(x_prev, setup.objectives)
        predicted = x_bar_prev - alpha * (mean_grad + e_vec)
        v_bar = trace.snapshots[k].v.mean(axis=0)
        assert np.max(np.abs(v_bar - predicted)) <= 1e-8


def test_run_consensus_contraction_on_v() -> None:
    # max_i ||v_i - v_bar|| stays under Gamma gamma^k sum_j ||q_j||.
    from proxnet.graphs import geometric_constants

    setup, trace = matchings_run()
    geo = geometric_constants(10, setup.schedule.B, setup.schedule.eta)
    for k in range(1, 201):
        snap = trace.snapshots[k]
        v_bar = snap.v.mean(axis=0)
        gap = float(np.max(np.linalg.norm(snap.v - v_bar, axis=1)))
        total = float(np.linalg.norm(snap.q, axis=1).sum())
        assert gap <= geo.Gamma * geo.gamma**k * total + 1e-12


def test_run_snapshot_prox_invariant() -> None:
    setup, trace = matchings_run()
    reg, alpha = setup.regularizer, trace.alpha
    for k in (1, 50, 200):
        snap = trace.snapshots[k]
        assert np.array_equal(snap.x, reg.prox(snap.v, alpha))


def test_run_snapshot_every() -> None:
    objectives = quadratic_family(m=2, n=2, seed=3)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Zero(2),
        schedule=complete_schedule(2),
        alpha=0.5 / max(o.lipschitz() for o in objectives),
        max_iter=10,
        init=np.zeros((2, 2)),
    )
    default = run(setup)
    for every, kept in ((4, {0, 4, 8}), (None, set())):
        setup.snapshot_every = every
        trace = run(setup)
        assert set(trace.snapshots) == kept
        assert list(map(csv_line, trace.rows)) == list(map(csv_line, default.rows))
        assert np.array_equal(trace.final_x, default.final_x)


def test_run_early_stop() -> None:
    objectives = quadratic_family(m=3, n=2, seed=4)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Zero(2),
        schedule=complete_schedule(3),
        alpha=0.9 / max(o.lipschitz() for o in objectives),
        max_iter=500,
        init=np.zeros((3, 2)),
        early_stop=True,
        tol=1e-6,
    )
    trace = run(setup)
    assert trace.stopped_early
    assert len(trace.rows) - 1 < 500
    assert trace.rows[-1].residual_bound < 1e-6
    # Communication reflects the executed iterations only.
    executed = len(trace.rows) - 1
    assert trace.comm_cumulative == executed * (executed + 1) // 2


def test_run_eps_unavailable_outside_ball() -> None:
    # From zeros the ball has radius 10; a minimizer near 50 drives the
    # iterates out of it at once, which turns off the eps-based
    # certificate but keeps the partial residual bound finite.
    objectives = [Quadratic(np.eye(1), np.array([50.0])) for _ in range(2)]
    from proxnet.regularizers import ElasticNet

    setup = RunSetup(
        objectives=objectives,
        regularizer=ElasticNet(1, lam1=0.01, lam2=0.01),
        schedule=complete_schedule(2),
        alpha=0.5,
        max_iter=5,
        init=np.zeros((2, 1)),
    )
    trace = run(setup)
    for row in trace.rows[1:]:
        assert row.eps is None
        assert np.isfinite(row.residual_bound)


def test_run_box_regularizer_has_no_eps() -> None:
    objectives = quadratic_family(m=2, n=2, seed=6)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Box(2, lo=-1.0, hi=1.0),
        schedule=complete_schedule(2),
        alpha=0.5 / max(o.lipschitz() for o in objectives),
        max_iter=4,
        init=np.zeros((2, 2)),
    )
    trace = run(setup)
    assert all(row.eps is None for row in trace.rows)
    assert all(np.isfinite(row.residual_bound) for row in trace.rows[1:])


def _setup(objectives, regularizer, schedule, max_iter, init, **kwargs):
    lipschitz = max(obj.lipschitz() for obj in objectives)
    return RunSetup(
        objectives=objectives,
        regularizer=regularizer,
        schedule=schedule,
        alpha=0.9 / lipschitz,
        max_iter=max_iter,
        init=init,
        **kwargs,
    )


def _sigmoid_on_matchings():
    data = synthetic_classification(120, 8, seed=2)
    objectives = [SigmoidLoss(piece) for piece in shard(data, 6, seed=2)]
    init = np.random.default_rng(2).standard_normal((6, 8))
    return _setup(objectives, L1(8, lam1=0.01), ring_matchings_schedule(6), 25, init)


def _box_on_ring():
    init = np.random.default_rng(3).standard_normal((6, 3))
    box = Box(3, lo=-1.0, hi=1.0)
    return _setup(quadratic_family(6, 3, seed=3), box, ring_schedule(6, B=2), 20, init)


def _one_agent():
    init = np.ones((1, 3))
    objectives = quadratic_family(1, 3, seed=4)
    return _setup(objectives, L1(3, lam1=0.05), ring_schedule(1), 10, init)


def _random_schedule():
    init = np.random.default_rng(5).standard_normal((5, 3))
    schedule = RandomSchedule(5, B=3, seed=5)
    return _setup(quadratic_family(5, 3, seed=5), L1(3, lam1=0.05), schedule, 12, init)


def _no_iterations():
    init = np.random.default_rng(6).standard_normal((4, 3))
    objectives = quadratic_family(4, 3, seed=6)
    return _setup(objectives, L1(3, lam1=0.05), complete_schedule(4), 0, init)


def _leaving_the_ball():
    # The minimizer near 50 lies outside the radius-10 ball of a zero init.
    objectives = [Quadratic(np.eye(1), np.array([50.0])) for _ in range(2)]
    reg = L1(1, lam1=0.01)
    return _setup(objectives, reg, complete_schedule(2), 5, np.zeros((2, 1)))


def _early_stop():
    return _setup(
        quadratic_family(3, 2, seed=4),
        Zero(2),
        complete_schedule(3),
        500,
        np.zeros((3, 2)),
        early_stop=True,
        tol=1e-6,
    )


@pytest.mark.parametrize(
    "make_setup",
    [
        _sigmoid_on_matchings,
        _box_on_ring,
        _one_agent,
        _random_schedule,
        _no_iterations,
        _leaving_the_ball,
        _early_stop,
    ],
    ids=lambda make_setup: make_setup.__name__.lstrip("_"),
)
def test_run_rows_match_the_snapshot_oracle(make_setup) -> None:
    setup = make_setup()
    trace = run(setup)
    assert trace.stopped_early == setup.early_stop
    assert trace.rows == trace_rows(setup, trace)
