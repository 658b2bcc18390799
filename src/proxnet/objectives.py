"""Local smooth objectives: sigmoid classification loss and quadratics.

The sigmoid loss is the black-box classification objective evaluated on a
per-agent data shard; quadratics are the brute-force-checkable fixture
family whose fixed points have closed forms.  AgentFamily evaluates every
agent's objective at once, the only way the solver and the diagnostics
evaluate them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

# Re-exported for bench/workloads.py alone; ROADMAP item 1's benchmark
# change imports them from proxnet.data and removes this line.
from .data import A9A_GROUP_SIZES, serialize_libsvm, synthetic_classification

if TYPE_CHECKING:
    from .data import Dataset

_SQUARE_ROWS = 1024  # rows of a shard that SigmoidLoss.lipschitz squares at once


def stable_sigmoid(u: np.ndarray) -> np.ndarray:
    """1/(1+e^u) evaluated without overflow for any magnitude of u; u is not written."""
    return _sigmoid_in_place(np.array(u, dtype=float))


def _sigmoid_in_place(u: np.ndarray) -> np.ndarray:
    """u overwritten by 1/(1+e^u): z/(1+z) where u >= 0, else 1/(1+z), z = e^-|u|.

    The numerator e^-fmax(u, 0) is z where u >= 0 and 1 elsewhere, NaN too:
    on mixed signs two exps cost less than a select by sign.
    """
    denominator = np.abs(u, out=np.empty_like(u))  # an array also when u is 0-d
    np.exp(np.negative(denominator, out=denominator), out=denominator)
    denominator += 1.0
    np.exp(np.negative(np.fmax(u, 0.0, out=u), out=u), out=u)
    return np.divide(u, denominator, out=u)


def _sigmoid_values(features: np.ndarray, labels: np.ndarray, x: np.ndarray):
    """s = 1/(1+e^u) at each margin u = l <a, x> of one shard or of a stack.

    Like _sigmoid_grad, it equals the written-out formula bit for bit.
    """
    products = np.matmul(features, x[..., None])[..., 0]
    return _sigmoid_in_place(np.multiply(labels, products, out=products))


def _sigmoid_grad(features: np.ndarray, labels: np.ndarray, s: np.ndarray):
    """The gradient a' (-s(1-s)l/count); s is overwritten by those slopes."""
    rest = 1.0 - s
    np.negative(s, out=s)
    s *= rest
    s *= labels
    s /= labels.shape[-1]
    return np.matmul(np.swapaxes(features, -1, -2), s[..., None])[..., 0]


def sigmoid_curvature_peak() -> float:
    """max_u |second derivative of u -> 1/(1+e^u)|, about 0.09623.

    The maximum of |s(1-s)(1-2s)| over s in (0, 1) sits at
    s = (3 - sqrt 3)/6, where it equals 1/(6 sqrt 3).  Written this way
    it rounds to the nearest float; sqrt(3)/18 is one ulp low, and the
    seed-0 benchmark traces depend on this exact value through L.
    """
    return 1.0 / (6.0 * math.sqrt(3.0))


class SigmoidLoss:
    """Mean sigmoid classification loss of one agent's shard.

    g(x) = mean over samples of 1/(1+exp(l <a, x>)).  Wrong-side margins
    push the loss toward 1, correct ones toward 0.
    """

    def __init__(self, shard: Dataset) -> None:
        if shard.count == 0:
            raise ValueError("shard is empty")
        self.shard = shard
        self._lipschitz: float | None = None

    @property
    def n(self) -> int:
        return self.shard.n

    def _sigmoid(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        return _sigmoid_values(self.shard.features, self.shard.labels, x)

    def value(self, x: np.ndarray) -> float:
        return float(self._sigmoid(x).sum() / self.shard.count)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return _sigmoid_grad(self.shard.features, self.shard.labels, self._sigmoid(x))

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            # Features past about 1e154 overflow L to inf, which callers
            # reject; numpy need not warn about it as well.  Squaring blocks
            # of rows keeps each row's sum and copies no whole shard.
            features, norms_sq = self.shard.features, np.empty(self.shard.count)
            with np.errstate(over="ignore"):
                for i in range(0, self.shard.count, _SQUARE_ROWS):
                    rows = slice(i, i + _SQUARE_ROWS)
                    np.sum(np.square(features[rows]), axis=1, out=norms_sq[rows])
                self._lipschitz = sigmoid_curvature_peak() * float(np.mean(norms_sq))
        return self._lipschitz


def _power_norms(stack: np.ndarray, rel_tol: float = 1e-8) -> np.ndarray:
    """Power-iteration estimates of ||Q||_2 for each Q of a (k, n, n) stack.

    Each matrix starts from ones(n)/sqrt(n) and repeats y = Q x,
    x = y/||y||.  It stops when ||y|| moves by at most rel_tol relative to
    itself, when ||y|| is 0 (the estimate is then 0), or after 10,000
    steps, and its estimate is the last ||y||.  A power iteration
    approaches ||Q||_2 from below, so the estimate can be low: by up to
    6.6e-7 relative on the members of quadratic_family(200, 20, 0).

    All matrices step together, one batched product per step.  np.matmul
    sends each matrix to the same gemv and each norm to the same ddot as
    q @ x and np.linalg.norm(y) on the matrix alone, so an estimate does
    not depend on the other matrices of the stack.

    Memory: the stack is read in place until at least half of the
    matrices still stepping have stopped.  Then the rest are copied out
    of the caller's stack into a smaller one, after the previous copy is
    dropped, so besides the caller's stack the iteration holds at most
    one copy, of at most k/2 matrices, and (k, n) vectors.
    """
    k, n, _ = stack.shape
    norms = np.zeros(k)
    members = np.arange(k)  # position in stack of each matrix in active
    active = stack
    stepping = np.ones(k, dtype=bool)
    x = np.ones((k, n)) / np.sqrt(n)
    estimate = np.zeros(k)
    for _ in range(10_000):
        y = np.matmul(active, x[:, :, None])[:, :, 0]
        norm = np.sqrt(np.matmul(y[:, None, :], y[:, :, None]))[:, 0, 0]
        moved = np.abs(norm - estimate)
        stopped = stepping & (
            (norm == 0.0) | (moved <= rel_tol * np.maximum(norm, 1e-300))
        )
        norms[members[stopped]] = norm[stopped]
        stepping &= ~stopped
        # Members whose norm is 0 have stopped; dividing their y by 1
        # keeps 0/0 out of x.
        x = y / np.where(norm == 0.0, 1.0, norm)[:, None]
        estimate = norm
        if 2 * np.count_nonzero(stepping) <= stepping.size:
            if not stepping.any():
                return norms
            members, x, estimate = members[stepping], x[stepping], estimate[stepping]
            stepping = np.ones(members.size, dtype=bool)
            active = None  # freed before the smaller copy is made
            active = stack[members]
    norms[members[stepping]] = estimate[stepping]
    return norms


def _quadratic_terms(q: np.ndarray, c: np.ndarray, x, *, grad: bool) -> np.ndarray:
    """Q(x-c), or (x-c)' Q (x-c) / 2, of one Q or of each of a (k, n, n) stack."""
    d = np.asarray(x, dtype=float) - c
    if grad:
        return np.matmul(q, d[..., None])[..., 0]
    return 0.5 * np.matmul(np.matmul(d[..., None, :], q), d[..., None])[..., 0, 0]


class Quadratic:
    """g(x) = (x-c)' Q (x-c) / 2 with symmetric Q.

    lipschitz() is ||Q||_2 as a power iteration estimates it (see
    _power_norms), a slight underestimate, computed on first call and
    cached.  quadratic_family fills the cache for all of its members with
    one batched iteration.
    """

    def __init__(self, q: np.ndarray, c: np.ndarray) -> None:
        q = np.asarray(q, dtype=float)
        c = np.asarray(c, dtype=float)
        if q.ndim != 2 or q.shape[0] != q.shape[1]:
            raise ValueError(f"Q must be square, got shape {q.shape}")
        if c.shape != (q.shape[0],):
            raise ValueError(f"center shape {c.shape} does not match Q {q.shape}")
        if not (np.all(np.isfinite(q)) and np.all(np.isfinite(c))):
            raise ValueError("Q and c must be finite")
        if np.max(np.abs(q - q.T)) > 1e-12 * max(1.0, float(np.max(np.abs(q)))):
            raise ValueError("Q must be symmetric")
        self.q = q
        self.c = c
        self._lipschitz: float | None = None

    @property
    def n(self) -> int:
        return self.q.shape[0]

    def value(self, x: np.ndarray) -> float:
        return float(_quadratic_terms(self.q, self.c, x, grad=False))

    def grad(self, x: np.ndarray) -> np.ndarray:
        return _quadratic_terms(self.q, self.c, x, grad=True)

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = float(_power_norms(self.q[None])[0])
        return self._lipschitz


class WithSquaredL2:
    """Moves a lam2 ||x||^2 ridge term into the smooth part.

    A library wrapper (acceptance criterion 3) that no config reaches: the
    CLI always puts lam2 ||x||^2 in the shared regularizer h.  Here the
    ridge rides along with the local loss instead.
    """

    def __init__(self, base, lam2: float) -> None:
        if lam2 < 0:
            raise ValueError(f"lam2 must be nonnegative, got {lam2}")
        self.base = base
        self.lam2 = lam2

    @property
    def n(self) -> int:
        return self.base.n

    def value(self, x: np.ndarray) -> float:
        x = np.asarray(x, dtype=float)
        return self.base.value(x) + self.lam2 * float(x @ x)

    def grad(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        return self.base.grad(x) + 2.0 * self.lam2 * x

    def lipschitz(self) -> float:
        return self.base.lipschitz() + 2.0 * self.lam2


def quadratic_family(m: int, n: int, seed: int) -> list[Quadratic]:
    """m well-conditioned random quadratics, reproducible per (seed, i).

    Member i draws a factor F and a center c from default_rng([seed, i])
    and has Q = F F'/n + I/2.  The m Q's are views of one (m, n, n) array,
    and one batched power iteration over it (_power_norms) fills every
    member's lipschitz() cache: each constant is the one the member would
    compute alone, a slight underestimate of ||Q||_2.  The same array is
    the stack that AgentFamily multiplies by all m agents' points at once.
    """
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got ({m}, {n})")
    stack = np.empty((m, n, n))
    out = []
    for i in range(m):
        rng = np.random.default_rng([seed, i])
        factor = rng.standard_normal((n, n))
        stack[i] = factor @ factor.T / n + 0.5 * np.eye(n)
        c = rng.standard_normal(n)
        out.append(Quadratic(stack[i], c))
    for quad, lipschitz in zip(out, _power_norms(stack).tolist()):
        quad._lipschitz = lipschitz
    return out


def _stacked(parts: list[np.ndarray]) -> np.ndarray | None:
    """A read-only (k, ...) view of k arrays that lie back to back, else None.

    The arrays must have one shape and strides and be views of one base
    array, each starting where the one before it ends (one array always
    qualifies), so the view covers exactly their memory and copies none.
    """
    first = parts[0]
    step = first.shape[0] * first.strides[0]
    start = first.__array_interface__["data"][0]
    for i, part in enumerate(parts[1:], start=1):
        if not (
            part.base is not None
            and part.base is first.base
            and part.shape == first.shape
            and part.strides == first.strides
            and part.__array_interface__["data"][0] == start + i * step
        ):
            return None
    return np.lib.stride_tricks.as_strided(
        first, (len(parts), *first.shape), (step, *first.strides), writeable=False
    )


class AgentFamily:
    """Every agent's smooth part g_i, evaluated for all m agents at once.

    grad(X) maps (m, n) to (m, n): row i is grad g_i(X[i]).  value(x) maps
    (n,) to (m,): every g_i at one point.  solver.run builds the family
    once from RunSetup.objectives, and the solver and the diagnostics do
    every evaluation through it.

    The batched route calls the members' own kernel once, on a stack that
    views their arrays without a copy.  It is taken when every member is
    exactly a Quadratic (not a subclass) whose Q is row i of one (m, n, n)
    array, as quadratic_family builds, or exactly a SigmoidLoss whose
    shards are equal-size consecutive row blocks of one feature matrix, as
    data.parse_libsvm(shard_seed=...) and data.shard(..., None) build.
    Every other family, WithSquaredL2 members included, calls each
    member's grad and value in agent order; batched names the route.  Both
    routes give the members' own results bit for bit.

    The family keeps its last evaluation, keyed on the point's shape and
    exact bytes (its members must not change): grad returns a copy of its
    last gradients at the same point, and on the batched sigmoid route the
    next grad at np.broadcast_to(x, (m, n)) reuses the sigmoid values of
    value(x).  A run so reads the data once per iterate and once per mean.
    """

    def __init__(self, objectives) -> None:
        self.members = list(objectives)
        if not self.members:
            raise ValueError("an agent family needs at least one objective")
        members = self.members
        self._q = self._c = self._features = self._labels = None
        if all(type(obj) is Quadratic for obj in members):
            self._q = _stacked([obj.q for obj in members])
            if self._q is not None:
                self._c = np.stack([obj.c for obj in members])
        elif all(type(obj) is SigmoidLoss for obj in members):
            features = _stacked([obj.shard.features for obj in members])
            labels = _stacked([obj.shard.labels for obj in members])
            if features is not None and labels is not None:
                self._features, self._labels = features, labels
        self.batched = self._q is not None or self._features is not None
        self._grad_key = self._grads = self._s_key = self._s = None

    def __len__(self) -> int:
        return len(self.members)

    def lipschitz(self) -> float:
        """The worst member constant, max_i L_i."""
        return max(obj.lipschitz() for obj in self.members)

    def grad(self, x_all: np.ndarray) -> np.ndarray:
        x_all = np.asarray(x_all, dtype=float)
        key = (x_all.shape, x_all.tobytes())  # exact: -0.0 and NaN included
        if key == self._grad_key:
            return self._grads.copy()  # callers may write into their result
        if not self.batched:
            grads = np.array([obj.grad(x) for obj, x in zip(self.members, x_all)])
        elif self._q is not None:
            grads = _quadratic_terms(self._q, self._c, x_all, grad=True)
        else:
            if key == self._s_key:  # the kept sigmoid values become the slopes
                s, self._s_key, self._s = self._s, None, None
            else:
                s = _sigmoid_values(self._features, self._labels, x_all)
            grads = _sigmoid_grad(self._features, self._labels, s)
        self._grad_key, self._grads = key, grads
        return grads.copy()

    def value(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if not self.batched:
            return np.array([obj.value(x) for obj in self.members])
        if self._q is not None:
            return _quadratic_terms(self._q, self._c, x, grad=False)
        x_all = np.broadcast_to(x, (len(self), x.size))
        s = _sigmoid_values(self._features, self._labels, x_all)
        self._s_key, self._s = (x_all.shape, x_all.tobytes()), s
        return s.sum(axis=-1) / self._labels.shape[-1]


def agent_family(objectives) -> AgentFamily:
    """objectives as an AgentFamily; a family is returned as it is."""
    if isinstance(objectives, AgentFamily):
        return objectives
    return AgentFamily(objectives)
