import math

import numpy as np
import pytest

from proxnet.objectives import (
    Dataset,
    Quadratic,
    SigmoidLoss,
    WithSquaredL2,
    parse_libsvm,
    quadratic_family,
    serialize_libsvm,
    shard,
    sigmoid_curvature_peak,
    stable_sigmoid,
    subsample,
    synthetic_classification,
)

from oracles import central_difference


def _tiny_shard() -> Dataset:
    return Dataset(
        features=np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 0.0]]),
        labels=np.array([1.0, -1.0]),
    )


def test_parse_single_line() -> None:
    data = parse_libsvm("+1 3:1.5")
    assert data.count == 1
    assert data.n == 3
    assert data.labels[0] == 1.0
    assert data.features[0] == pytest.approx([0.0, 0.0, 1.5])


def test_parse_errors_carry_line_numbers() -> None:
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm("+1 1:1\n-1 2:1 1:1\n")
    with pytest.raises(ValueError, match="line 1.*1-based"):
        parse_libsvm("+1 0:2.0")
    with pytest.raises(ValueError, match="line 1.*label"):
        parse_libsvm("spam 1:1")
    with pytest.raises(ValueError, match="line 3"):
        parse_libsvm("+1 1:1\n-1 1:1\n+1 1:notanumber")
    with pytest.raises(ValueError, match="idx:val"):
        parse_libsvm("+1 11.5")


def test_parse_rejects_non_binary_labels() -> None:
    with pytest.raises(ValueError, match="label set"):
        parse_libsvm("0 1:1\n2 1:1\n")
    with pytest.raises(ValueError, match="label set"):
        parse_libsvm("3 1:1\n")


def test_parse_label_families() -> None:
    zero_one = parse_libsvm("0 1:1\n1 2:1\n")
    assert list(zero_one.labels) == [-1.0, 1.0]
    one_two = parse_libsvm("1 1:1\n2 2:1\n")
    assert list(one_two.labels) == [-1.0, 1.0]
    # All-positive singleton stays +1 via the {-1,+1} family.
    ones = parse_libsvm("1 1:1\n1 2:1\n")
    assert list(ones.labels) == [1.0, 1.0]


def test_parse_dimension_override() -> None:
    data = parse_libsvm("+1 2:1.0", n_features=5)
    assert data.n == 5
    with pytest.raises(ValueError, match="exceeds"):
        parse_libsvm("+1 7:1.0", n_features=5)
    with pytest.raises(ValueError):
        parse_libsvm("")
    with pytest.raises(ValueError, match="dimension"):
        parse_libsvm("+1\n-1\n")


def test_serialize_round_trip() -> None:
    data = synthetic_classification(count=60, n=17, seed=4)
    again = parse_libsvm(serialize_libsvm(data))
    assert again.n == data.n
    assert np.array_equal(again.features, data.features)
    assert np.array_equal(again.labels, data.labels)


def test_serialize_pins_dimension_when_last_column_zero() -> None:
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, -1.0]))
    text = serialize_libsvm(data)
    assert "2:0.0" in text.splitlines()[0]
    assert parse_libsvm(text).n == 2


def test_dataset_validation() -> None:
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 3)), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="label count"):
        Dataset(np.zeros((2, 3)), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.inf]]), np.array([1.0]))


def test_stable_sigmoid_extremes() -> None:
    u = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = stable_sigmoid(u)
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(1.0)
    assert s[2] == pytest.approx(0.5)
    assert s[4] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.diff(s) < 0)


def test_sigmoid_value_at_origin() -> None:
    loss = SigmoidLoss(_tiny_shard())
    assert loss.value(np.zeros(3)) == pytest.approx(0.5)


def test_sigmoid_value_single_sample() -> None:
    # One sample with margin u = ln 3 gives 1/(1+3) = 0.25.
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    loss = SigmoidLoss(data)
    assert loss.value(np.array([math.log(3.0)])) == pytest.approx(0.25)


def test_sigmoid_value_monotone_in_margin() -> None:
    data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
    loss = SigmoidLoss(data)
    x = np.array([0.3, 0.4])
    values = [loss.value(t * x) for t in (0.0, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10


def test_sigmoid_grad_at_origin() -> None:
    a = np.array([1.0, -2.0, 0.5])
    for label in (1.0, -1.0):
        loss = SigmoidLoss(Dataset(a[None, :], np.array([label])))
        assert loss.grad(np.zeros(3)) == pytest.approx(-0.25 * label * a)


def test_sigmoid_grad_zero_features() -> None:
    loss = SigmoidLoss(Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0])))
    assert loss.grad(np.ones(2)) == pytest.approx(np.zeros(2))


def test_sigmoid_rejects_empty_and_mismatch() -> None:
    with pytest.raises(ValueError):
        SigmoidLoss(Dataset(np.zeros((0, 3)), np.zeros(0)))
    loss = SigmoidLoss(_tiny_shard())
    with pytest.raises(ValueError):
        loss.value(np.zeros(4))


def test_sigmoid_grad_matches_finite_differences() -> None:
    data = synthetic_classification(count=40, n=6, seed=9)
    loss = SigmoidLoss(data)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(6)
        approx = central_difference(loss.value, x)
        grad = loss.grad(x)
        assert np.linalg.norm(grad - approx) < 1e-5 * max(
            1.0, np.linalg.norm(grad)
        )


def _curvature_peak_by_search() -> float:
    """Grid search over [-10, 10] at step 1e-4, then ternary refinement."""

    def curvature(u: float) -> float:
        s = float(stable_sigmoid(np.array(u)))
        return abs(s * (1.0 - s) * (1.0 - 2.0 * s))

    grid = np.arange(-10.0, 10.0 + 1e-4, 1e-4)
    s = stable_sigmoid(grid)
    best = int(np.argmax(np.abs(s * (1.0 - s) * (1.0 - 2.0 * s))))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    while hi - lo > 1e-12:
        third = (hi - lo) / 3.0
        c, d = lo + third, hi - third
        if curvature(c) < curvature(d):
            lo = c
        else:
            hi = d
    return curvature(0.5 * (lo + hi))


def test_curvature_peak_value() -> None:
    # The analytic maximum of |s(1-s)(1-2s)| over s in (0,1) is 1/(6 sqrt 3).
    assert abs(sigmoid_curvature_peak() - _curvature_peak_by_search()) <= 1e-15
    # Pinned to the bit: the seed-0 benchmark reference traces depend on
    # this float through L, alpha and the residual bound.
    assert sigmoid_curvature_peak() == 0.09622504486493763


def test_sigmoid_lipschitz_single_unit_sample() -> None:
    loss = SigmoidLoss(Dataset(np.array([[1.0]]), np.array([1.0])))
    assert loss.lipschitz() == pytest.approx(0.09622504486493764, abs=1e-9)


def test_sigmoid_lipschitz_probe() -> None:
    data = synthetic_classification(count=25, n=5, seed=11)
    loss = SigmoidLoss(data)
    bound = loss.lipschitz()
    rng = np.random.default_rng(4)
    for _ in range(500):
        x = rng.standard_normal(5) * 2
        y = rng.standard_normal(5) * 2
        lhs = np.linalg.norm(loss.grad(x) - loss.grad(y))
        assert lhs <= bound * np.linalg.norm(x - y) * (1 + 1e-8)


def test_quadratic_value_and_grad() -> None:
    quad = Quadratic(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    x = np.array([2.0, 0.0])
    assert quad.value(x) == pytest.approx(1.5)
    assert quad.grad(x) == pytest.approx([1.0, 2.0])
    assert quad.lipschitz() == pytest.approx(2.0)
    assert Quadratic(np.eye(3), np.zeros(3)).lipschitz() == pytest.approx(1.0)


def test_quadratic_validation() -> None:
    with pytest.raises(ValueError, match="square"):
        Quadratic(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="center"):
        Quadratic(np.eye(2), np.zeros(3))


def test_quadratic_lipschitz_matches_eigensolver() -> None:
    rng = np.random.default_rng(6)
    for _ in range(10):
        factor = rng.standard_normal((7, 7))
        q = factor @ factor.T / 7 + 0.5 * np.eye(7)
        quad = Quadratic(q, np.zeros(7))
        want = float(np.max(np.linalg.eigvalsh(q)))
        assert quad.lipschitz() == pytest.approx(want, rel=1e-6)


def test_quadratic_family_reproducible() -> None:
    fam1 = quadratic_family(m=3, n=4, seed=5)
    fam2 = quadratic_family(m=3, n=4, seed=5)
    assert len(fam1) == 3
    for a, b in zip(fam1, fam2):
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.c, b.c)
    # Members differ from each other and the family is well conditioned.
    assert not np.array_equal(fam1[0].q, fam1[1].q)
    for quad in fam1:
        assert float(np.min(np.linalg.eigvalsh(quad.q))) >= 0.5 - 1e-12


def test_with_squared_l2_wrapper() -> None:
    base = Quadratic(np.eye(2), np.array([1.0, 1.0]))
    obj = WithSquaredL2(base, lam2=0.25)
    x = np.array([2.0, -1.0])
    assert obj.value(x) == pytest.approx(base.value(x) + 0.25 * 5.0)
    assert obj.grad(x) == pytest.approx(base.grad(x) + 0.5 * x)
    assert obj.lipschitz() == pytest.approx(base.lipschitz() + 0.5)
    approx = central_difference(obj.value, x)
    assert obj.grad(x) == pytest.approx(approx, abs=1e-5)
    with pytest.raises(ValueError):
        WithSquaredL2(base, lam2=-0.1)


def test_shard_sizes_and_union() -> None:
    data = synthetic_classification(count=10, n=4, seed=1)
    shards = shard(data, m=3, seed=7)
    assert sorted(s.count for s in shards) == [3, 3, 4]
    assert shards[0].count == 4
    stacked = np.vstack([s.features for s in shards])
    assert np.array_equal(
        np.sort(stacked.ravel()), np.sort(data.features.ravel())
    )
    total_labels = np.concatenate([s.labels for s in shards])
    assert np.sort(total_labels).tolist() == np.sort(data.labels).tolist()


def test_shard_determinism_and_edges() -> None:
    data = synthetic_classification(count=12, n=4, seed=1)
    once = shard(data, m=5, seed=3)
    twice = shard(data, m=5, seed=3)
    for a, b in zip(once, twice):
        assert np.array_equal(a.features, b.features)
    single = shard(data, m=1, seed=3)
    assert np.array_equal(single[0].features, data.features)
    with pytest.raises(ValueError):
        shard(data, m=13, seed=0)
    with pytest.raises(ValueError):
        shard(data, m=0, seed=0)


def test_subsample() -> None:
    data = synthetic_classification(count=50, n=6, seed=2)
    sub = subsample(data, count=20, seed=9)
    assert sub.count == 20
    assert np.array_equal(
        sub.features, subsample(data, count=20, seed=9).features
    )
    with pytest.raises(ValueError):
        subsample(data, count=51, seed=0)
    with pytest.raises(ValueError):
        subsample(data, count=0, seed=0)


def test_synthetic_classification_shape() -> None:
    data = synthetic_classification(count=100, n=20, seed=3)
    assert data.count == 100
    assert data.n == 20
    assert set(np.unique(data.labels)) == {-1.0, 1.0}
    # Rows hold a small number of unit activations.
    row_sums = data.features.sum(axis=1)
    assert np.all(row_sums >= 1)
    assert np.all(row_sums <= 15)
    assert data.features[0, -1] == 1.0
