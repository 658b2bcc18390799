import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from proxnet.regularizers import (
    Box,
    ElasticNet,
    L1,
    ProxCertificate,
    Regularizer,
    SquaredL2,
    Zero,
    check_inexact_prox,
    make_regularizer,
    soft_threshold,
)

from oracles import golden_section, prox_1d, prox_bracket, soft_threshold_scalar


def _all_kinds(n: int):
    return [
        Zero(n),
        L1(n, lam1=0.7),
        SquaredL2(n, lam2=0.3),
        ElasticNet(n, lam1=0.7, lam2=0.3),
        Box(n, lo=-0.8, hi=1.2),
    ]


def test_soft_threshold_cases() -> None:
    v = np.array([2.0, -2.0, 0.3, -0.3, 0.0])
    assert soft_threshold(v, 0.5) == pytest.approx([1.5, -1.5, 0.0, 0.0, 0.0])


@given(
    st.floats(-100, 100, allow_nan=False),
    st.floats(0, 50, allow_nan=False),
)
def test_soft_threshold_matches_scalar_oracle(v: float, t: float) -> None:
    got = soft_threshold(np.array([v]), t)[0]
    assert got == pytest.approx(soft_threshold_scalar(v, t), abs=1e-15)


def test_prox_zero_is_identity() -> None:
    reg = Zero(4)
    v = np.array([3.0, -1.0, 0.0, 2.5])
    assert np.array_equal(reg.prox(v, 1.0), v)
    assert reg.prox(v, 1.0) is not v


def test_prox_l1_example() -> None:
    reg = L1(3, lam1=1.0)
    assert reg.prox(np.array([3.0, -0.5, 0.0]), 1.0) == pytest.approx([2.0, 0.0, 0.0])


def test_prox_elastic_net_example() -> None:
    reg = ElasticNet(1, lam1=1.0, lam2=0.5)
    assert reg.prox(np.array([3.0]), 1.0) == pytest.approx([1.0])


def test_prox_squared_l2_shrinks() -> None:
    reg = SquaredL2(2, lam2=0.5)
    assert reg.prox(np.array([2.0, -4.0]), 1.0) == pytest.approx([1.0, -2.0])


def test_prox_box_clamps() -> None:
    reg = Box(3, lo=-1.0, hi=1.0)
    assert reg.prox(np.array([2.0, 0.5, -3.0]), 0.1) == pytest.approx(
        [1.0, 0.5, -1.0]
    )


def test_prox_applies_to_trailing_axis() -> None:
    reg = L1(3, lam1=1.0)
    v = np.array([[3.0, -0.5, 0.0], [-3.0, 0.5, 10.0]])
    out = reg.prox(v, 1.0)
    assert out.shape == (2, 3)
    assert out[0] == pytest.approx([2.0, 0.0, 0.0])
    assert out[1] == pytest.approx([-2.0, 0.0, 9.0])


def test_prox_rejects_bad_inputs() -> None:
    reg = L1(3, lam1=1.0)
    with pytest.raises(ValueError):
        reg.prox(np.zeros(2), 1.0)
    for alpha in (0.0, -1.0):
        with pytest.raises(ValueError):
            reg.prox(np.zeros(3), alpha)


def test_prox_matches_1d_oracle() -> None:
    rng = np.random.default_rng(12)
    for _ in range(40):
        v = float(rng.uniform(-5, 5))
        alpha = float(rng.uniform(0.05, 3.0))
        lam1 = float(rng.uniform(0.0, 2.0))
        lam2 = float(rng.uniform(0.0, 2.0))
        lo, hi = prox_bracket(v, alpha, lam1, lam2)
        cases = [
            (Zero(1), lambda z: 0.0),
            (L1(1, lam1), lambda z: lam1 * abs(z)),
            (SquaredL2(1, lam2), lambda z: lam2 * z * z),
            (ElasticNet(1, lam1, lam2), lambda z: lam1 * abs(z) + lam2 * z * z),
        ]
        for reg, h in cases:
            want = prox_1d(h, v, alpha, lo, hi)
            got = reg.prox(np.array([v]), alpha)[0]
            assert got == pytest.approx(want, abs=1e-6), repr(reg)
        # Box: minimize the quadratic part over the feasible interval.
        box = Box(1, lo=-0.8, hi=1.2)
        want = golden_section(lambda z: (z - v) ** 2 / (2 * alpha), -0.8, 1.2)
        assert box.prox(np.array([v]), alpha)[0] == pytest.approx(want, abs=1e-6)


_PENALTY = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


@given(
    st.lists(st.floats(-5.0, 5.0), min_size=1, max_size=4),
    st.floats(0.05, 3.0),
    _PENALTY,
    _PENALTY,
    st.floats(-3.0, 3.0),
    st.floats(0.05, 3.0),
    st.sampled_from(["none", "lower", "upper", "both"]),
)
def test_prox_of_penalty_and_box_matches_1d_oracle(
    entries, alpha: float, lam1: float, lam2: float, center, half, sides
) -> None:
    # No config builds a penalty on a box, but the class accepts one.  Per
    # coordinate, search the part of the free minimizer's bracket that
    # lies in the box; a degenerate part is the bound nearest the bracket.
    lo = center - half if sides in ("lower", "both") else -math.inf
    hi = center + half if sides in ("upper", "both") else math.inf
    reg = Regularizer(len(entries), lam1=lam1, lam2=lam2, lo=lo, hi=hi)
    got = reg.prox(np.array(entries), alpha)
    for v, z in zip(entries, got):
        a, b = np.clip(prox_bracket(v, alpha, lam1, lam2), lo, hi)
        want = prox_1d(lambda t: lam1 * abs(t) + lam2 * t * t, v, alpha, a, b)
        assert z == pytest.approx(want, abs=1e-6), repr(reg)


def test_prox_nonexpansive() -> None:
    rng = np.random.default_rng(5)
    n = 6
    for reg in _all_kinds(n):
        for _ in range(400):
            u = rng.standard_normal(n) * 3
            v = rng.standard_normal(n) * 3
            alpha = float(rng.uniform(0.01, 5.0))
            lhs = np.linalg.norm(reg.prox(u, alpha) - reg.prox(v, alpha))
            assert lhs <= np.linalg.norm(u - v) + 1e-12, repr(reg)


def test_prox_subgradient_membership() -> None:
    # z = (v - prox(v))/alpha must satisfy h(u) >= h(y) + <z, u - y> at
    # the prox point y for every u, the convexity certificate of Prop 1.
    rng = np.random.default_rng(8)
    n = 5
    for reg in _all_kinds(n):
        for _ in range(200):
            v = rng.standard_normal(n) * 2
            alpha = float(rng.uniform(0.05, 2.0))
            y = reg.prox(v, alpha)
            z = (v - y) / alpha
            u = rng.standard_normal(n) * 2
            if math.isfinite(reg.lo) and rng.random() < 0.5:
                u = np.clip(u, reg.lo, reg.hi)
            lhs = float(reg.value(u))
            rhs = float(reg.value(y)) + float(z @ (u - y))
            assert lhs >= rhs - 1e-10, repr(reg)


def test_subgradient_bounds() -> None:
    assert L1(4, lam1=1.0).subgradient_bound() == pytest.approx(2.0)
    assert Zero(9).subgradient_bound() == 0.0
    en = ElasticNet(123, lam1=5e-4, lam2=5e-4)
    assert en.subgradient_bound(radius=10.0) == pytest.approx(
        5e-4 * math.sqrt(123) + 2 * 5e-4 * 10.0
    )
    assert en.subgradient_bound(radius=10.0) == pytest.approx(0.015545268253204709)
    assert SquaredL2(3, lam2=2.0).subgradient_bound(radius=5.0) == pytest.approx(20.0)
    assert Box(3).subgradient_bound() == math.inf
    # An unbounded box is h = 0: nothing but its penalties bounds it.
    assert Box(3, -math.inf, math.inf).subgradient_bound() == 0.0
    assert Box(3, 0.0, math.inf).subgradient_bound() == math.inf


def test_subgradient_bound_requires_radius() -> None:
    with pytest.raises(ValueError):
        SquaredL2(3, lam2=1.0).subgradient_bound()
    with pytest.raises(ValueError):
        ElasticNet(3, lam1=1.0, lam2=1.0).subgradient_bound(radius=-1.0)


@given(
    st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6),
    st.floats(1e-3, 10.0),
    st.floats(0.0, 10.0),
    st.floats(0.0, 10.0),
    st.floats(-1e3, 1e3),
    st.floats(1e-3, 1e3),
)
def test_pinned_kinds_match_their_own_formulas_bit_for_bit(
    entries, alpha: float, lam1: float, lam2: float, lo: float, width: float
) -> None:
    # Every kind runs the one shrink-rescale-clamp prox with its unused
    # terms switched off; each must equal its own formula exactly.
    v = np.array(entries)
    n = v.size
    hi = lo + width
    assert np.array_equal(Box(n, lo, hi).prox(v, alpha), np.clip(v, lo, hi))
    assert np.array_equal(L1(n, lam1).prox(v, alpha), soft_threshold(v, alpha * lam1))
    assert np.array_equal(
        SquaredL2(n, lam2).prox(v, alpha), v / (1.0 + 2.0 * alpha * lam2)
    )
    assert np.array_equal(Zero(n).prox(v, alpha), v)
    assert L1(n, lam1).value(v) == float(lam1 * np.sum(np.abs(v)))
    assert SquaredL2(n, lam2).value(v) == float(lam2 * np.sum(v * v))
    assert Zero(n).value(v) == 0.0
    # Only a squared-norm term needs the radius of a ball.
    assert L1(n, lam1).subgradient_bound() == lam1 * math.sqrt(n)
    assert SquaredL2(n, lam2).subgradient_bound(7.0) == 2.0 * lam2 * 7.0
    assert Zero(n).subgradient_bound() == 0.0


def test_subgradient_bound_by_sampling() -> None:
    # Sampled elastic-net subgradients on the ball ||x|| <= R never exceed
    # the reported bound.
    rng = np.random.default_rng(21)
    en = ElasticNet(123, lam1=5e-4, lam2=5e-4)
    bound = en.subgradient_bound(radius=10.0)
    for _ in range(300):
        x = rng.standard_normal(123)
        x *= rng.uniform(0, 10.0) / np.linalg.norm(x)
        sign = np.where(x != 0, np.sign(x), rng.choice([-1.0, 1.0], size=123))
        z = en.lam1 * sign + 2 * en.lam2 * x
        assert np.linalg.norm(z) <= bound + 1e-12


def test_check_inexact_prox_accepts_exact() -> None:
    rng = np.random.default_rng(3)
    for reg in _all_kinds(4):
        for alpha in (0.03, 0.5, 1.0, 7.0):
            v = rng.standard_normal(4) * 2
            cert = check_inexact_prox(reg, reg.prox(v, alpha), v, alpha, 0.0)
            assert cert == ProxCertificate(accepted=True, excess=0.0), repr(reg)


def test_check_inexact_prox_gap_threshold() -> None:
    reg = Zero(1)
    v = np.array([0.0])
    cand = np.array([1.0])
    # Objective gap is 1^2 / (2 * 0.5) = 1.
    rejected = check_inexact_prox(reg, cand, v, 0.5, 0.9)
    assert not rejected.accepted
    assert rejected.excess == pytest.approx(0.1)
    assert check_inexact_prox(reg, cand, v, 0.5, 1.0).accepted


def test_check_inexact_prox_rejects_negative_epsilon() -> None:
    reg = Zero(1)
    with pytest.raises(ValueError):
        check_inexact_prox(reg, np.zeros(1), np.zeros(1), 1.0, -1e-9)


def test_check_inexact_prox_infeasible_candidate() -> None:
    reg = Box(2, lo=-1.0, hi=1.0)
    cert = check_inexact_prox(reg, np.array([2.0, 0.0]), np.zeros(2), 1.0, 100.0)
    assert not cert.accepted
    assert cert.excess == math.inf


def test_make_regularizer() -> None:
    # Each kind keeps only its own terms of the penalties and box it is given.
    terms = dict(lam1=0.1, lam2=0.2, lo=-2.0, hi=3.0)
    assert make_regularizer("zero", 3, **terms) == Regularizer(3)
    assert make_regularizer("l1", 2, **terms) == Regularizer(2, lam1=0.1)
    assert make_regularizer("squared-l2", 2, **terms) == Regularizer(2, lam2=0.2)
    reg = make_regularizer("elastic-net", 5, **terms)
    assert reg == Regularizer(5, lam1=0.1, lam2=0.2)
    assert make_regularizer("box", 2, **terms) == Regularizer(2, lo=-2.0, hi=3.0)
    with pytest.raises(ValueError):
        make_regularizer("huber", 3)


def test_regularizer_validation() -> None:
    with pytest.raises(ValueError):
        L1(0, lam1=1.0)
    with pytest.raises(ValueError):
        L1(3, lam1=-0.1)
    with pytest.raises(ValueError):
        Box(3, lo=1.0, hi=1.0)


def test_box_value_uses_slack() -> None:
    reg = Box(2, lo=-1.0, hi=1.0)
    assert reg.value(np.array([1.0 + 5e-13, -1.0])) == 0.0
    assert reg.value(np.array([1.1, 0.0])) == math.inf
    # The slack scales with a bound past 1: an ulp of 1e6 is 1.2e-10.
    far = Box(1, lo=1e6, hi=2e6)
    assert far.value(np.array([1e6 - 1e-7])) == 0.0
    assert far.value(np.array([1e6 - 1e-5])) == math.inf
    # Penalties are +inf off the box and their sum on it.
    both = Regularizer(2, lam1=0.5, lam2=2.0, lo=0.0)
    assert both.value(np.array([1.0, 2.0])) == 0.5 * 3.0 + 2.0 * 5.0
    assert both.value(np.array([1.0, -2.0])) == math.inf
