"""The shared non-smooth regularizer h and its proximal operator.

Every kind of h is one coordinatewise separable function, h(x) =
lam1 ||x||_1 + lam2 ||x||^2 + indicator of [lo, hi]^n, with the unused
terms switched off: a zero weight or an infinite bound.  Per coordinate,
lam1 |z| + lam2 z^2 + (z - v)^2 / (2 alpha) is convex in z, so its
minimizer over an interval is its free minimizer clamped to that
interval.  The prox is therefore shrink, rescale, clamp: clip(soft(v,
alpha lam1) / (1 + 2 alpha lam2), lo, hi) (Beck, First-Order Methods in
Optimization, SIAM 2017, ch. 6), along the trailing axis of any array.
Zero, L1, SquaredL2, ElasticNet and Box are presets: each returns a
Regularizer with the other terms off.  The inexact-prox acceptance test
lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Feasibility slack, relative to max(1, |bound|), when evaluating the box
# indicator: prox outputs sit exactly on the boundary, and averaging them
# may round them off it by a few ulps of the bound.
_BOX_SLACK = 1e-12


def soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Shrink each entry of v toward zero by threshold, clamping at zero."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


@dataclass(frozen=True)
class Regularizer:
    """h(x) = lam1 ||x||_1 + lam2 ||x||^2 on the box [lo, hi]^n, +inf off it.

    A zero weight changes no result: soft(v, 0) == v, dividing by 1.0 is
    exact, and value skips the term, so an overflowing |x|^2 cannot make
    0 * inf.  An infinite bound clamps nothing.
    """

    n: int
    lam1: float = 0.0
    lam2: float = 0.0
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got n={self.n}")
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError(
                f"penalties must be nonnegative, got ({self.lam1}, {self.lam2})"
            )
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def _check(self, v: np.ndarray, alpha: float) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape[-1] != self.n:
            raise ValueError(
                f"trailing dimension {v.shape[-1]} does not match n={self.n}"
            )
        if not alpha > 0:
            raise ValueError(f"step size must be positive, got {alpha}")
        return v

    def value(self, x: np.ndarray):
        """h(x), reduced over the trailing axis."""
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        if self.lam1 > 0:
            out = out + self.lam1 * np.sum(np.abs(x), axis=-1)
        if self.lam2 > 0:
            out = out + self.lam2 * np.sum(x * x, axis=-1)
        lo = self.lo - _BOX_SLACK * max(1.0, abs(self.lo))
        hi = self.hi + _BOX_SLACK * max(1.0, abs(self.hi))
        out = np.where(np.all((x >= lo) & (x <= hi), axis=-1), out, np.inf)
        return float(out) if x.ndim == 1 else out

    def prox(self, v: np.ndarray, alpha: float) -> np.ndarray:
        """argmin_z h(z) + ||z - v||^2 / (2 alpha), trailing axis."""
        v = self._check(v, alpha)
        free = soft_threshold(v, alpha * self.lam1) / (1.0 + 2.0 * alpha * self.lam2)
        return np.clip(free, self.lo, self.hi)

    def subgradient_bound(self, radius: float | None = None) -> float:
        """Upper bound on ||z|| over z in the subdifferential of h.

        A finite bound adds normal-cone directions of any norm: inf.
        Otherwise lam1 sqrt(n), plus 2 lam2 radius for a squared-norm term,
        which is only bounded on a ball and then requires its radius.
        """
        if math.isfinite(self.lo) or math.isfinite(self.hi):
            return math.inf
        bound = self.lam1 * math.sqrt(self.n)
        if self.lam2 > 0:
            if radius is None:
                raise ValueError(
                    "a squared-norm term's subgradients are only bounded on a "
                    "ball; pass the iterate-norm radius"
                )
            if not radius > 0:
                raise ValueError(f"radius must be positive, got {radius}")
            bound += 2.0 * self.lam2 * radius
        return bound


# The presets keep the names and signatures of the kinds they describe.
def Zero(n: int) -> Regularizer:
    """h identically zero; prox is the identity."""
    return Regularizer(n)


def L1(n: int, lam1: float = 0.0) -> Regularizer:
    """h(x) = lam1 * ||x||_1."""
    return Regularizer(n, lam1=lam1)


def SquaredL2(n: int, lam2: float = 0.0) -> Regularizer:
    """h(x) = lam2 * ||x||^2."""
    return Regularizer(n, lam2=lam2)


def ElasticNet(n: int, lam1: float = 0.0, lam2: float = 0.0) -> Regularizer:
    """h(x) = lam1 * ||x||_1 + lam2 * ||x||^2."""
    return Regularizer(n, lam1=lam1, lam2=lam2)


def Box(n: int, lo: float = -1.0, hi: float = 1.0) -> Regularizer:
    """Indicator of the box [lo, hi]^n; prox is the coordinatewise clamp."""
    return Regularizer(n, lo=lo, hi=hi)


def make_regularizer(
    kind: str,
    n: int,
    lam1: float = 0.0,
    lam2: float = 0.0,
    lo: float = -1.0,
    hi: float = 1.0,
) -> Regularizer:
    if kind == "zero":
        return Zero(n)
    if kind == "l1":
        return L1(n, lam1)
    if kind == "squared-l2":
        return SquaredL2(n, lam2)
    if kind == "elastic-net":
        return ElasticNet(n, lam1, lam2)
    if kind == "box":
        return Box(n, lo, hi)
    raise ValueError(f"unknown regularizer kind {kind!r}")


@dataclass(frozen=True)
class ProxCertificate:
    """Outcome of the inexact-prox acceptance test."""

    accepted: bool
    excess: float


def check_inexact_prox(
    reg: Regularizer,
    candidate: np.ndarray,
    v: np.ndarray,
    alpha: float,
    epsilon: float,
) -> ProxCertificate:
    """Accept candidate as an epsilon-inexact prox of v.

    Accepted iff h(candidate) + ||candidate - v||^2/(2 alpha) exceeds the
    exact minimum by at most epsilon; the minimum is evaluated at the
    closed-form prox point.
    """
    if epsilon < 0:
        raise ValueError(f"epsilon must be nonnegative, got {epsilon}")
    candidate = np.asarray(candidate, dtype=float)
    v = reg._check(v, alpha)
    if candidate.shape != v.shape:
        raise ValueError(
            f"candidate shape {candidate.shape} does not match v {v.shape}"
        )

    def objective(z: np.ndarray) -> float:
        return float(reg.value(z)) + float(np.sum((z - v) ** 2)) / (2.0 * alpha)

    best = objective(reg.prox(v, alpha))
    gap = objective(candidate) - best - epsilon
    if gap <= 0:
        return ProxCertificate(accepted=True, excess=0.0)
    return ProxCertificate(accepted=False, excess=gap)
