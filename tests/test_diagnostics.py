import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from proxnet.diagnostics import (
    TRACE_COLUMNS,
    Certificates,
    IterationMetrics,
    csv_line,
    disagreement,
    geometric_envelope,
    gradient_averaging_error,
    write_trace_csv,
)
from proxnet.graphs import complete_schedule, geometric_constants
from proxnet.objectives import Quadratic, quadratic_family
from proxnet.regularizers import L1, Box, Zero, check_inexact_prox

from fixtures import matchings_run


def test_gradient_error_zero_when_agents_agree() -> None:
    objectives = [Quadratic(np.eye(2), np.array([float(i), 0.0])) for i in range(3)]
    x_all = np.tile([0.5, -1.0], (3, 1))
    assert gradient_averaging_error(x_all, objectives) == pytest.approx(
        np.zeros(2), abs=1e-15
    )


def test_gradient_error_cancels_symmetric_deviations() -> None:
    # Identity quadratics have linear gradients, so +d and -d cancel.
    objectives = [Quadratic(np.eye(2), np.zeros(2)) for _ in range(2)]
    d = np.array([0.3, -0.7])
    x_all = np.stack([d, -d])
    assert gradient_averaging_error(x_all, objectives) == pytest.approx(
        np.zeros(2), abs=1e-15
    )


@settings(max_examples=40, deadline=None)
@example(m=157, n=1, seed=0)
@given(m=st.integers(1, 200), n=st.integers(1, 3), seed=st.integers(0, 2**16))
def test_gradient_error_sums_the_gaps_in_agent_order(m, n, seed) -> None:
    # The per-agent loop the batched form replaces, bit for bit; a
    # pairwise sum over agents differs from it when n = 1.
    objectives = quadratic_family(m, n, seed)
    x_all = np.random.default_rng(seed).standard_normal((m, n))
    x_bar = x_all.mean(axis=0)
    total = np.zeros(n)
    for x_i, obj in zip(x_all, objectives):
        total += obj.grad(x_i) - obj.grad(x_bar)
    assert np.array_equal(gradient_averaging_error(x_all, objectives), total / m)


def test_gradient_error_9a_bound_along_run() -> None:
    setup, trace = matchings_run()
    lipschitz = trace.lipschitz
    for k in range(1, 201):
        x_prev = trace.snapshots[k - 1].x
        x_bar = x_prev.mean(axis=0)
        e_norm = trace.rows[k].e_norm
        spread = float(np.linalg.norm(x_prev - x_bar, axis=1).sum())
        assert e_norm <= lipschitz / 10 * spread + 1e-10


def _step_row(curvatures, reg, alpha, lipschitz, x, x_next, v):
    """Row 1 of a builder started at x, for the step from x to x_next
    whose mixed points are v; agent i has g_i(x) = curvatures[i] x^2 / 2."""
    objectives = [Quadratic(np.array([[c]]), np.zeros(1)) for c in curvatures]
    schedule = complete_schedule(len(curvatures))
    certificates = Certificates(objectives, reg, schedule, alpha, lipschitz, x)
    assert certificates.row(0, x, x).residual_bound == 0.0
    return certificates.row(1, x, x_next, q=x, v=v)


def test_prox_inexactness_zero_when_exact() -> None:
    # A step to x = 0, the exact prox of v = 0.05 under L1 with lam1 = 2
    # and alpha = 0.5, has eps = 0.
    x, v = np.array([[0.1]]), np.array([[0.05]])
    row = _step_row([1.0], L1(1, lam1=2.0), 0.5, 1.0, x, np.zeros((1, 1)), v)
    assert row.eps == 0.0


def test_prox_inexactness_frozen_example() -> None:
    # One agent, L1 with lam1 = 2, so G_h = 2; alpha = 0.5 and v = 0.05,
    # so z = prox(v) = 0.  At x = 0.1: s = 0.1, ||z - v|| = 0.05 and
    # eps = 0.1 * (2 + 0.05/0.5) + 0.01/(2*0.5) = 0.22.
    x, v = np.array([[0.1]]), np.array([[0.05]])
    row = _step_row([1.0], L1(1, lam1=2.0), 0.5, 1.0, x, x, v)
    assert row.eps == pytest.approx(0.22)
    assert row.residual_bound == pytest.approx(math.sqrt(2 * 0.22 / 0.5))


def test_stationarity_bound_examples() -> None:
    # The eps term contributes sqrt(2 eps / alpha): lam1 = 0.1, alpha = 1
    # and x = 0.1, v = 0.05 give eps = 0.1 * (0.1 + 0.05) + 0.01/2 = 0.02,
    # and with dx = e = 0 the bound is sqrt(0.04) = 0.2.
    x, v = np.array([[0.1]]), np.array([[0.05]])
    row = _step_row([1.0], L1(1, lam1=0.1), 1.0, 1.0, x, x, v)
    assert row.eps == pytest.approx(0.02)
    assert row.residual_bound == pytest.approx(0.2)
    # Curvatures 3 and 1 at x = (0.002, -0.002) give e = (0.006 - 0.002)/2
    # = 0.002; the agents then agree at 0.01, so dx = 0.01, and h = 0
    # makes the prox exact, eps = 0: (1/0.1 + 1) 0.01 + 0.002 = 0.112.
    x = np.array([[0.002], [-0.002]])
    x_next = np.full((2, 1), 0.01)
    row = _step_row([3.0, 1.0], Zero(1), 0.1, 1.0, x, x_next, x_next)
    assert (row.dx_norm, row.e_norm, row.eps) == pytest.approx((0.01, 0.002, 0.0))
    assert row.residual_bound == pytest.approx(0.112)
    # A box has no finite G_h: no eps, and the partial bound drops its term.
    row = _step_row([3.0, 1.0], Box(1, -1.0, 1.0), 0.1, 1.0, x, x_next, x_next)
    assert row.eps is None
    assert row.residual_bound == pytest.approx(0.112)


def test_eps_9b_bound_along_run() -> None:
    setup, trace = matchings_run()
    g_h = setup.regularizer.subgradient_bound()
    alpha = trace.alpha
    for k in range(1, 201):
        snap = trace.snapshots[k]
        v_bar = snap.v.mean(axis=0)
        s_bar = float(np.mean(np.linalg.norm(snap.v - v_bar, axis=1)))
        bound = 2.0 * g_h * s_bar + s_bar * s_bar / (2.0 * alpha)
        assert trace.rows[k].eps <= bound + 1e-10


def test_lemma1_membership_along_run() -> None:
    # The averaged iterate is an eps-inexact prox of the centralized
    # gradient step corrected by the averaging error.
    setup, trace = matchings_run()
    alpha = trace.alpha
    for k in range(1, 201):
        x_prev = trace.snapshots[k - 1].x
        x_bar_prev = x_prev.mean(axis=0)
        mean_grad = np.mean(
            [obj.grad(x_bar_prev) for obj in setup.objectives], axis=0
        )
        e_vec = gradient_averaging_error(x_prev, setup.objectives)
        v_tilde = x_bar_prev - alpha * (mean_grad + e_vec)
        x_bar = trace.snapshots[k].x.mean(axis=0)
        cert = check_inexact_prox(
            setup.regularizer, x_bar, v_tilde, alpha, trace.rows[k].eps + 1e-9
        )
        assert cert.accepted, f"iteration {k}"


def test_disagreement_examples() -> None:
    weights = np.array([[0.5, 0.5], [0.5, 0.5]])
    x = np.array([[1.0], [0.0]])
    assert disagreement(x, weights) == pytest.approx(0.5)
    assert disagreement(np.tile([2.0, 3.0], (2, 1)), weights) == pytest.approx(0.0)
    assert disagreement(3.0 * x, weights) == pytest.approx(9.0 * 0.5)


@settings(max_examples=60, deadline=None)
@given(
    m=st.integers(1, 30),
    n=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    near_consensus=st.booleans(),
)
def test_disagreement_matches_pairwise_form(m, n, seed, near_consensus) -> None:
    # Matrix form vs the half-sum-of-squares identity for symmetric
    # weights, evaluated by an explicit double loop.  Near consensus a
    # large common offset must not swamp the small spread.
    rng = np.random.default_rng(seed)
    if near_consensus:
        x = 1e4 + 1e-4 * rng.standard_normal((m, n))
    else:
        x = rng.standard_normal((m, n))
    w = rng.random((m, m))
    w = (w + w.T) / 2
    pairwise = 0.0
    for i in range(m):
        for j in range(m):
            diff = x[i] - x[j]
            pairwise += 0.5 * w[i, j] * float(diff @ diff)
    got = disagreement(x, w)
    assert got == pytest.approx(pairwise, rel=1e-6, abs=1e-300)
    assert got >= -1e-10


def test_stationarity_bound_dominates_gradient_norm_when_smooth() -> None:
    # With h = 0 the exact residual is the gradient norm, which the bound
    # must dominate at every iteration.
    from proxnet.graphs import complete_schedule
    from proxnet.objectives import quadratic_family
    from proxnet.regularizers import Zero
    from proxnet.solver import RunSetup, run

    objectives = quadratic_family(m=3, n=3, seed=13)
    lipschitz = max(o.lipschitz() for o in objectives)
    setup = RunSetup(
        objectives=objectives,
        regularizer=Zero(3),
        schedule=complete_schedule(3),
        alpha=0.9 / lipschitz,
        max_iter=60,
        init=np.zeros((3, 3)),
    )
    trace = run(setup)
    for k in range(1, 61):
        x_bar = trace.snapshots[k].x.mean(axis=0)
        grad_norm = float(
            np.linalg.norm(np.mean([o.grad(x_bar) for o in objectives], axis=0))
        )
        assert trace.rows[k].residual_bound >= grad_norm - 1e-12


def test_geometric_envelope() -> None:
    geo = geometric_constants(m=2, B=1, eta=0.5)
    q = np.array([[3.0, 4.0], [0.0, 0.0]])  # norms 5 and 0
    assert geometric_envelope(geo, 3, q) == pytest.approx(2 * 12.0 * 0.5**3 * 5.0)
    assert geometric_envelope(None, 3, q) == 0.0
    with pytest.raises(ValueError):
        geometric_envelope(geo, 0, q)


def test_rate_statistic_bounded_on_run() -> None:
    # T * statistic, the running sum of squared mean-iterate moves in the
    # rate_T_times_stat column, settles: it cannot keep growing if the
    # squared moves are summable, and on the fixture the tail adds nearly
    # nothing.
    _, trace = matchings_run()
    t_stat = {T: trace.rows[T].rate_T_times_stat for T in (50, 100, 200)}
    assert t_stat[100] <= t_stat[50] * (1 + 1e-9) + 1e-18
    assert t_stat[200] <= t_stat[100] * (1 + 1e-9) + 1e-18


def test_consensus_gap_shrinks_and_stays_bounded() -> None:
    _, trace = matchings_run()
    first = trace.rows[1].max_consensus_gap
    last = trace.rows[200].max_consensus_gap
    assert last < first
    assert last < 1e-5
    for row in trace.rows[1:]:
        assert row.max_consensus_gap <= row.geo_bound + 1e-12


def test_csv_written_with_exact_schema(tmp_path) -> None:
    _, trace = matchings_run()
    path = tmp_path / "trace.csv"
    write_trace_csv(trace.rows, path)
    lines = path.read_text().splitlines()
    assert lines[0] == ",".join(TRACE_COLUMNS)
    assert len(lines) == 202
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0"
    # repr round-trip: parsing a float field back gives the stored value.
    row_50 = lines[51].split(",")
    assert float(row_50[4]) == trace.rows[50].dx_norm
    assert float(row_50[7]) == trace.rows[50].residual_bound


def test_csv_line_writes_nan_for_missing_eps() -> None:
    row = IterationMetrics(
        k=1,
        comm_cumulative=1,
        f_avg=0.5,
        D=0.0,
        dx_norm=0.1,
        e_norm=0.0,
        eps=None,
        residual_bound=1.1,
        max_consensus_gap=0.0,
        geo_bound=0.0,
        rate_T_times_stat=0.01,
    )
    fields = csv_line(row).split(",")
    assert fields[6] == "nan"
    assert math.isnan(float(fields[6]))
