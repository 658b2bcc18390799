"""End-to-end acceptance checks, one test per shipping criterion.

Run with ``pytest tests/test_acceptance.py -v`` to get a pass/fail line
per criterion.  Every numeric tolerance and budget here is contractual;
do not loosen them to make a change pass.
"""

import dataclasses
import os
import time
from pathlib import Path

import numpy as np
import pytest

from fixtures import matchings_run, small_quadratic_run
from oracles import (
    central_difference,
    centralized_prox_gradient,
    golden_section,
    prox_bracket,
    prox_1d,
)
from proxnet.data import (
    A9A_GROUP_SIZES,
    parse_libsvm,
    shard,
    subsample,
    synthetic_classification,
)
from proxnet.diagnostics import gradient_averaging_error
from proxnet.gossip import replay_check
from proxnet.graphs import geometric_constants, ring_matchings_schedule
from proxnet.objectives import SigmoidLoss, WithSquaredL2, quadratic_family
from proxnet.regularizers import (
    Box,
    ElasticNet,
    L1,
    SquaredL2,
    Zero,
    check_inexact_prox,
)
from proxnet.solver import RunSetup, run


def _penalty_kinds(rng):
    """One instance of every penalty with parameters drawn from rng."""
    lam1 = float(rng.uniform(0.0, 2.0))
    lam2 = float(rng.uniform(0.0, 2.0))
    lo = float(rng.uniform(-2.0, -0.1))
    hi = float(rng.uniform(0.1, 2.0))
    return [
        (Zero(1), lambda z: 0.0, None),
        (L1(1, lam1), lambda z: lam1 * abs(z), None),
        (SquaredL2(1, lam2), lambda z: lam2 * z * z, None),
        (
            ElasticNet(1, lam1, lam2),
            lambda z: lam1 * abs(z) + lam2 * z * z,
            None,
        ),
        (Box(1, lo=lo, hi=hi), lambda z: 0.0, (lo, hi)),
    ]


def test_criterion_01_prox_matches_search_oracle():
    """Closed-form prox agrees with a 1-D golden-section search.

    1000 random (v, alpha, parameters) triples per penalty kind, absolute
    tolerance 1e-6, finishing inside five seconds.
    """
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(1000):
        v = float(rng.uniform(-5.0, 5.0))
        alpha = float(rng.uniform(0.05, 3.0))
        for reg, penalty, box in _penalty_kinds(rng):
            exact = float(reg.prox(np.array([v]), alpha)[0])
            if box is not None:
                reference = golden_section(
                    lambda z: (z - v) ** 2 / (2.0 * alpha), box[0], box[1]
                )
            else:
                lam1 = getattr(reg, "lam1", 0.0)
                lam2 = getattr(reg, "lam2", 0.0)
                lo, hi = prox_bracket(v, alpha, lam1=lam1, lam2=lam2)
                reference = prox_1d(penalty, v, alpha, lo, hi)
            worst = max(worst, abs(exact - reference))
    elapsed = time.perf_counter() - started
    assert worst < 1e-6, f"max deviation {worst}"
    assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_prox_inequality_suite():
    """Nonexpansiveness plus both first-order prox inequalities in bulk.

    10,000 random pairs per penalty kind, slack 1e-10 on every check:
    prox never moves two points farther apart, the prox point y of x
    satisfies h(u) >= h(y) + (1/alpha) <x - y, u - y> at a random probe
    u, and (x - y) / alpha passes the subgradient test at y.
    """
    rng = np.random.default_rng(77)
    for kind_index in range(5):
        checked = 0
        for _ in range(100):
            reg = dataclasses.replace(_penalty_kinds(rng)[kind_index][0], n=3)
            alpha = float(rng.uniform(0.05, 3.0))
            points = rng.normal(size=(100, 3))
            others = rng.normal(size=(100, 3))
            probes = rng.normal(size=(100, 3))
            # separable penalties let one flat prox call cover the batch
            flat = dataclasses.replace(reg, n=300)
            prox_pts = flat.prox(points.ravel(), alpha).reshape(100, 3)
            prox_oth = flat.prox(others.ravel(), alpha).reshape(100, 3)
            moved = np.linalg.norm(prox_pts - prox_oth, axis=1)
            apart = np.linalg.norm(points - others, axis=1)
            assert np.all(moved <= apart + 1e-10)
            for x, y, u in zip(points, prox_pts, probes):
                gap = reg.value(u) - reg.value(y)
                assert gap >= (x - y) @ (u - y) / alpha - 1e-10
                assert gap >= ((x - y) / alpha) @ (u - y) - 1e-10
            checked += len(points)
        assert checked == 10_000


def test_criterion_03_gradients_match_finite_differences():
    """Analytic gradients match central differences at 100 points.

    Relative tolerance 1e-5 against ||fd|| across the sigmoid loss, the
    quadratic family, and the ridge-wrapped sigmoid loss.
    """
    rng = np.random.default_rng(5)
    data = synthetic_classification(60, 8, seed=9)
    sigmoid = SigmoidLoss(data)
    quad = quadratic_family(1, 6, seed=9)[0]
    ridge = WithSquaredL2(sigmoid, 0.05)
    points = (
        [(sigmoid, rng.normal(size=8)) for _ in range(40)]
        + [(quad, 3.0 * rng.normal(size=6)) for _ in range(40)]
        + [(ridge, rng.normal(size=8)) for _ in range(20)]
    )
    assert len(points) == 100
    for objective, x in points:
        fd = central_difference(objective.value, x)
        gap = np.linalg.norm(objective.grad(x) - fd)
        assert gap <= 1e-5 * (1.0 + np.linalg.norm(fd))


def test_criterion_04_mean_iterate_tracks_centralized_step():
    """Mean mixed iterate equals the inexact centralized gradient step.

    Ten agents, five dimensions, period-2 matching schedule, 200
    iterations, sup-norm tolerance 1e-8 at every iteration.
    """
    setup, trace = matchings_run()
    alpha = setup.alpha
    for k in range(1, 201):
        x_prev = trace.snapshots[k - 1].x
        x_bar_prev = x_prev.mean(axis=0)
        v_bar = trace.snapshots[k].v.mean(axis=0)
        e_vec = gradient_averaging_error(x_prev, setup.objectives)
        mean_grad = np.mean(
            [obj.grad(x_bar_prev) for obj in setup.objectives], axis=0
        )
        expected = x_bar_prev - alpha * (mean_grad + e_vec)
        assert np.max(np.abs(v_bar - expected)) <= 1e-8, f"iteration {k}"


def test_criterion_05_error_bounds_and_membership_hold():
    """Gradient-error and inexactness bounds hold at every iteration.

    The recorded e and eps stay under their computable envelopes with
    slack 1e-10, and the mean iterate passes the inexact-prox membership
    test at eps + 1e-9.
    """
    setup, trace = matchings_run()
    reg = setup.regularizer
    alpha = setup.alpha
    m = len(setup.objectives)
    lipschitz = max(obj.lipschitz() for obj in setup.objectives)
    g_h = reg.subgradient_bound()
    for k in range(1, 201):
        row = trace.rows[k]
        x_prev = trace.snapshots[k - 1].x
        spread = np.linalg.norm(x_prev - x_prev.mean(axis=0), axis=1).sum()
        assert row.e_norm <= (lipschitz / m) * spread + 1e-10, f"iteration {k}"

        v_all = trace.snapshots[k].v
        v_bar = v_all.mean(axis=0)
        s_bar = float(np.mean(np.linalg.norm(v_all - v_bar, axis=1)))
        assert row.eps is not None, f"iteration {k}"
        envelope = 2.0 * g_h * s_bar + s_bar * s_bar / (2.0 * alpha)
        assert row.eps <= envelope + 1e-10, f"iteration {k}"

        x_bar_next = trace.snapshots[k].x.mean(axis=0)
        verdict = check_inexact_prox(reg, x_bar_next, v_bar, alpha, row.eps + 1e-9)
        assert verdict.accepted, f"iteration {k}"


def test_criterion_06_consensus_gap_under_geometric_envelope():
    """Iterate spread stays below the geometric decay envelope.

    max_i ||x_i - mean|| <= 2 Gamma gamma^k sum_i ||q_i|| at every
    iteration, with constants recomputed here from (m, B, eta).
    """
    setup, trace = matchings_run()
    schedule = setup.schedule
    geo = geometric_constants(schedule.m, schedule.B, schedule.eta)
    for k in range(1, 201):
        snap = trace.snapshots[k]
        envelope = (
            2.0
            * geo.Gamma
            * geo.gamma**k
            * float(np.linalg.norm(snap.q, axis=1).sum())
        )
        gap = float(np.max(np.linalg.norm(snap.x - snap.x.mean(axis=0), axis=1)))
        assert gap <= envelope + 1e-12, f"iteration {k}"
        row = trace.rows[k]
        assert row.max_consensus_gap == pytest.approx(gap, abs=1e-12)
        assert row.geo_bound == pytest.approx(envelope, rel=1e-12)


def test_criterion_07_gossip_replay_matches_weight_products():
    """Message-level gossip reproduces the weight-product mixing.

    Replaying 20 iterations message by message matches the recorded
    mixed values to 1e-9 at every iteration, and the cumulative number
    of communication slots after 20 iterations is 210.
    """
    base, _ = matchings_run()
    setup = dataclasses.replace(base, max_iter=20)
    trace = run(setup)
    assert trace.comm_cumulative == 210
    report = replay_check(trace, setup.schedule, threshold=1e-9)
    assert report.iterations_checked == 20
    assert report.passed, (
        f"first failure at iteration {report.first_failure}, "
        f"deviation {report.max_deviation}"
    )


def test_criterion_08_matches_centralized_reference():
    """Four agents solving a shared lasso-style quadratic agree with a
    centralized solver.

    The average final iterate lands within 1e-4 of a reference computed
    to 1e-10, all inside ten seconds.
    """
    started = time.perf_counter()
    setup, trace = small_quadratic_run()
    q_mean = np.mean([obj.q for obj in setup.objectives], axis=0)
    pull = np.mean([obj.q @ obj.c for obj in setup.objectives], axis=0)
    lipschitz = float(np.linalg.eigvalsh(q_mean)[-1])
    reference = centralized_prox_gradient(
        lambda x: q_mean @ x - pull,
        lipschitz,
        lam1=setup.regularizer.lam1,
        x0=np.zeros(3),
    )
    average = trace.final_x.mean(axis=0)
    elapsed = time.perf_counter() - started
    assert np.linalg.norm(average - reference) <= 1e-4
    assert elapsed < 10.0, f"took {elapsed:.2f}s"


def test_criterion_09_rate_statistic_and_residual_decay():
    """Longer runs do not degrade: the summed squared drift grows under
    10% between 100 and 200 iterations, and the stationarity residual
    falls at least two orders of magnitude over the run."""
    _setup, trace = matchings_run()
    rows = trace.rows
    assert rows[200].rate_T_times_stat <= 1.1 * rows[100].rate_T_times_stat
    assert rows[200].residual_bound <= 0.01 * rows[1].residual_bound


def _desk_scale_dataset():
    """The 123-feature binary classification corpus, subsampled to 2000.

    Uses the real file when present (data/a9a next to the repo root or
    the A9A_PATH environment variable); otherwise a synthetic stand-in
    with the same shape.  Returns (dataset, came_from_file).
    """
    candidates = [Path(os.environ["A9A_PATH"])] if "A9A_PATH" in os.environ else []
    candidates.append(Path(__file__).resolve().parent.parent / "data" / "a9a")
    for path in candidates:
        if path.is_file():
            full = parse_libsvm(path.read_text(encoding="utf-8"), n_features=123)
            assert full.count == 32561
            return subsample(full, 2000, seed=0), True
    stand_in = synthetic_classification(2000, 123, seed=0, group_sizes=A9A_GROUP_SIZES)
    return stand_in, False


def test_criterion_10_desk_scale_classification_converges():
    """A ten-agent regularized classification run settles quickly.

    2000 samples with 123 features, period-2 matching schedule,
    lambda1 = lambda2 = 5e-4, alpha = 0.9/L: disagreement drops below
    1e-6 within 300 iterations, the stationarity residual falls by two
    orders of magnitude, and the whole run takes under two minutes.
    """
    started = time.perf_counter()
    dataset, _from_file = _desk_scale_dataset()
    assert dataset.count == 2000 and dataset.n == 123
    shards = shard(dataset, 10, seed=0)
    objectives = [SigmoidLoss(piece) for piece in shards]
    regularizer = ElasticNet(123, lam1=5e-4, lam2=5e-4)
    lipschitz = max(obj.lipschitz() for obj in objectives)
    setup = RunSetup(
        objectives=objectives,
        regularizer=regularizer,
        schedule=ring_matchings_schedule(10),
        alpha=0.9 / lipschitz,
        max_iter=300,
        init=np.zeros((10, 123)),
        snapshot_every=300,
    )
    trace = run(setup)
    elapsed = time.perf_counter() - started
    assert any(row.D < 1e-6 for row in trace.rows[1:]), (
        f"disagreement never fell below 1e-6; last {trace.rows[-1].D}"
    )
    assert trace.rows[-1].residual_bound <= 0.01 * trace.rows[1].residual_bound
    assert elapsed < 120.0, f"took {elapsed:.2f}s"
