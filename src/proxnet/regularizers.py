"""Shared non-smooth regularizers and their proximal operators.

Every supported regularizer is coordinatewise separable, so its proximal
operator has a closed form and applies along the trailing axis of any
input array.  The inexact-prox acceptance test lives here as well.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Feasibility slack when evaluating the box indicator: prox outputs sit
# exactly on the boundary, and downstream arithmetic may perturb them.
_BOX_SLACK = 1e-12


def soft_threshold(v: np.ndarray, threshold: float) -> np.ndarray:
    """Shrink each entry of v toward zero by threshold, clamping at zero."""
    v = np.asarray(v, dtype=float)
    return np.sign(v) * np.maximum(np.abs(v) - threshold, 0.0)


@dataclass(frozen=True)
class Regularizer:
    """Base for the shared regularizer h; subclasses fix the penalty."""

    n: int

    kind = "base"

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"dimension must be >= 1, got n={self.n}")

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
        raise NotImplementedError

    def prox(self, v: np.ndarray, alpha: float) -> np.ndarray:
        """argmin_z h(z) + ||z - v||^2 / (2 alpha), trailing axis."""
        raise NotImplementedError

    def subgradient_bound(self, radius: float | None = None) -> float:
        """Upper bound on ||z|| over z in the subdifferential of h.

        Kinds with a squared-norm term are only bounded on a ball; those
        require the radius argument.  The box indicator has unbounded
        subgradients and reports infinity.
        """
        raise NotImplementedError


@dataclass(frozen=True)
class ElasticNet(Regularizer):
    """h(x) = lam1 * ||x||_1 + lam2 * ||x||^2.

    The prox shrinks first and rescales second: first-order optimality of
    lam1|z| + lam2 z^2 + (z-v)^2/(2a) gives z = soft(v, a lam1)/(1+2a lam2).
    Zero, L1 and SquaredL2 pin their unused weights at zero.  A zero
    weight changes no result: soft(v, 0) == v, dividing by 1.0 is exact,
    and value skips the term, so an overflowing |x|^2 cannot make 0 * inf.
    """

    lam1: float = 0.0
    lam2: float = 0.0

    kind = "elastic-net"

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.lam1 < 0 or self.lam2 < 0:
            raise ValueError(
                f"penalties must be nonnegative, got ({self.lam1}, {self.lam2})"
            )

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = np.zeros(x.shape[:-1])
        if self.lam1 > 0:
            out = out + self.lam1 * np.sum(np.abs(x), axis=-1)
        if self.lam2 > 0:
            out = out + self.lam2 * np.sum(x * x, axis=-1)
        return float(out) if x.ndim == 1 else out

    def prox(self, v, alpha):
        v = self._check(v, alpha)
        return soft_threshold(v, alpha * self.lam1) / (1.0 + 2.0 * alpha * self.lam2)

    def subgradient_bound(self, radius=None):
        bound = self.lam1 * math.sqrt(self.n)
        if self.lam2 > 0:
            if radius is None:
                raise ValueError(
                    f"{self.kind} subgradients are only bounded on a ball; "
                    "pass the iterate-norm radius"
                )
            if not radius > 0:
                raise ValueError(f"radius must be positive, got {radius}")
            bound += 2.0 * self.lam2 * radius
        return bound


@dataclass(frozen=True)
class Zero(ElasticNet):
    """h identically zero; prox is the identity."""

    lam1: float = field(default=0.0, init=False)
    lam2: float = field(default=0.0, init=False)

    kind = "zero"


@dataclass(frozen=True)
class L1(ElasticNet):
    """h(x) = lam1 * ||x||_1."""

    lam2: float = field(default=0.0, init=False)

    kind = "l1"


@dataclass(frozen=True)
class SquaredL2(ElasticNet):
    """h(x) = lam2 * ||x||^2."""

    lam1: float = field(default=0.0, init=False)

    kind = "squared-l2"


@dataclass(frozen=True)
class Box(Regularizer):
    """Indicator of the box [lo, hi]^n; prox is the coordinatewise clamp."""

    lo: float = -1.0
    hi: float = 1.0

    kind = "box"

    def __post_init__(self) -> None:
        super().__post_init__()
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    def value(self, x):
        x = np.asarray(x, dtype=float)
        inside = np.all(
            (x >= self.lo - _BOX_SLACK) & (x <= self.hi + _BOX_SLACK), axis=-1
        )
        out = np.where(inside, 0.0, np.inf)
        return float(out) if x.ndim == 1 else out

    def prox(self, v, alpha):
        v = self._check(v, alpha)
        return np.clip(v, self.lo, self.hi)

    def subgradient_bound(self, radius=None):
        # Normal cone directions at the boundary have no norm bound.
        return math.inf


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
