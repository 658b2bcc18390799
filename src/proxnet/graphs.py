"""Time-varying communication graphs and multi-round mixing weights.

A schedule assigns one symmetric doubly stochastic weight matrix to every
communication slot t = 0, 1, 2, ...  Iteration k of the solver consumes k
consecutive slots starting at ``slots_before(k) = k(k-1)/2``, so after T
iterations exactly T(T+1)/2 slots have been used.  The effective mixing
weights of iteration k are the ordered product of its k slot matrices,
computed by :func:`consensus_weights`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Matrices built by this module are held to a tighter stochasticity
# tolerance than matrices read from user files.
GENERATED_TOL = 1e-12
SUPPLIED_TOL = 1e-9


def slots_before(k: int) -> int:
    """Communication slots consumed before iteration k (k >= 1)."""
    if k < 1:
        raise ValueError(f"iteration index must be >= 1, got {k}")
    return k * (k - 1) // 2


@dataclass(eq=False)
class AdjacencyMatrix:
    """Symmetric doubly stochastic weight matrix for one communication slot."""

    w: np.ndarray
    tol: float = SUPPLIED_TOL

    def __post_init__(self) -> None:
        w = np.asarray(self.w, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if w.shape[0] < 1:
            raise ValueError("weight matrix needs at least one agent")
        if not np.all(np.isfinite(w)):
            raise ValueError("weight matrix has non-finite entries")
        if np.min(w) < -self.tol:
            raise ValueError("weight matrix has negative entries")
        if np.max(np.abs(w - w.T)) > self.tol:
            raise ValueError("weight matrix is not symmetric")
        ones = np.ones(w.shape[0])
        row_err = float(np.max(np.abs(w @ ones - ones)))
        col_err = float(np.max(np.abs(w.T @ ones - ones)))
        if max(row_err, col_err) > self.tol:
            raise ValueError(
                f"weight matrix is not doubly stochastic (row error {row_err:.3e}, "
                f"column error {col_err:.3e})"
            )
        self.w = w

    @property
    def m(self) -> int:
        return self.w.shape[0]

    @property
    def eta(self) -> float:
        """Smallest positive entry, the realized weight floor."""
        positive = self.w[self.w > 0]
        return float(positive.min()) if positive.size else 0.0

    def edges(self) -> list[tuple[int, int]]:
        """Undirected positive-weight edges as (i, j) pairs with i < j."""
        rows, cols = np.nonzero(np.triu(self.w, k=1))
        return list(zip(rows.tolist(), cols.tolist()))


def metropolis_weights(edge_set, m: int) -> AdjacencyMatrix:
    """Metropolis weight matrix of one undirected graph on m nodes.

    Each edge {i, j} receives weight 1 / (1 + max(deg_i, deg_j)) and every
    node keeps the leftover mass on its diagonal entry.  The result is
    symmetric and doubly stochastic for any topology, every positive entry
    is at least 1/m, and isolated nodes keep full self-weight.

    Parameters
    ----------
    edge_set : iterable of (i, j) pairs
        Undirected edges, zero-based node indices.  Self-loops and
        duplicates (in either orientation) are rejected.
    m : int
        Number of nodes.
    """
    if m < 1:
        raise ValueError(f"need at least one agent, got m={m}")
    seen: set[frozenset[int]] = set()
    edges: list[tuple[int, int]] = []
    for i, j in edge_set:
        if not (0 <= i < m and 0 <= j < m):
            raise ValueError(f"edge ({i}, {j}) out of range for m={m}")
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        key = frozenset((i, j))
        if key in seen:
            raise ValueError(f"duplicate edge ({i}, {j})")
        seen.add(key)
        edges.append((i, j))

    degree = np.zeros(m, dtype=int)
    for i, j in edges:
        degree[i] += 1
        degree[j] += 1
    w = np.zeros((m, m))
    for i, j in edges:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return AdjacencyMatrix(w, tol=GENERATED_TOL)


class Schedule:
    """Base class mapping slot indices to weight matrices.

    Subclasses implement :meth:`matrix`.
    """

    def __init__(self, m: int, eta: float, B: int) -> None:
        if m < 1:
            raise ValueError(f"need at least one agent, got m={m}")
        if B < 1:
            raise ValueError(f"connectivity window must be >= 1, got B={B}")
        self.m = m
        self.eta = eta
        self.B = B

    def matrix(self, t: int) -> AdjacencyMatrix:
        raise NotImplementedError


class PeriodicSchedule(Schedule):
    """Cycles through a fixed list of weight matrices; one matrix is static."""

    def __init__(self, matrices, B: int) -> None:
        matrices = list(matrices)
        if not matrices:
            raise ValueError("periodic schedule needs at least one matrix")
        sizes = {adj.m for adj in matrices}
        if len(sizes) != 1:
            raise ValueError(f"matrices disagree on agent count: {sorted(sizes)}")
        eta = min(adj.eta for adj in matrices)
        super().__init__(matrices[0].m, eta, B)
        self._matrices = matrices
        self.period = len(matrices)

    def matrix(self, t: int) -> AdjacencyMatrix:
        if t < 0:
            raise ValueError(f"slot index must be >= 0, got {t}")
        return self._matrices[t % self.period]


class RandomSchedule(Schedule):
    """Seeded random schedule that is connected over every window of B slots.

    Slot t holds a random spanning tree when t is a multiple of B; the other
    slots draw independent random edge subsets.  Every run of B consecutive
    slots, aligned to a multiple of B or not, contains exactly one tree
    slot, so both window notions are connected by construction.  Identical
    seeds reproduce identical matrices at every slot.
    """

    def __init__(self, m: int, B: int, seed: int, edge_prob: float = 0.25) -> None:
        # Metropolis weights never fall below 1/m, see metropolis_weights.
        super().__init__(m, 1.0 / m, B)
        self.seed = seed
        self.edge_prob = edge_prob
        self._windows: dict[int, list[AdjacencyMatrix]] = {}

    def _build_window(self, window: int) -> list[AdjacencyMatrix]:
        rng = np.random.default_rng([self.seed, window])
        mats = []
        for pos in range(self.B):
            if pos == 0 and self.m > 1:
                order = rng.permutation(self.m)
                edges = [
                    (int(order[i]), int(order[int(rng.integers(i))]))
                    for i in range(1, self.m)
                ]
            else:
                mask = rng.random((self.m, self.m)) < self.edge_prob
                rows, cols = np.nonzero(np.triu(mask, k=1))
                edges = list(zip(rows.tolist(), cols.tolist()))
            mats.append(metropolis_weights(edges, self.m))
        return mats

    def matrix(self, t: int) -> AdjacencyMatrix:
        if t < 0:
            raise ValueError(f"slot index must be >= 0, got {t}")
        window, pos = divmod(t, self.B)
        if window not in self._windows:
            self._windows[window] = self._build_window(window)
        return self._windows[window][pos]


def complete_schedule(m: int, B: int = 1) -> PeriodicSchedule:
    """All-to-all graph at every slot (Metropolis weights are uniform 1/m)."""
    edges = [(i, j) for i in range(m) for j in range(i + 1, m)]
    return PeriodicSchedule([metropolis_weights(edges, m)], B=B)


def ring_schedule(m: int, B: int = 1) -> PeriodicSchedule:
    """Ring graph at every slot."""
    if m == 1:
        edges = []
    elif m == 2:
        edges = [(0, 1)]
    else:
        edges = [(i, (i + 1) % m) for i in range(m)]
    return PeriodicSchedule([metropolis_weights(edges, m)], B=B)


def ring_matchings_schedule(m: int) -> PeriodicSchedule:
    """Alternate the even and odd matchings of a ring; period 2, B = 2.

    No slot graph is connected on its own, but the union of any two
    consecutive slots covers the whole ring (a path when m is odd), so the
    schedule satisfies the B = 2 window-connectivity requirement.
    """
    if m < 2:
        raise ValueError(f"matchings need at least two agents, got m={m}")
    even = [(i, i + 1) for i in range(0, m - 1, 2)]
    odd = [(i, (i + 1) % m) for i in range(1, m, 2) if (i + 1) % m != i]
    # For m = 2 both matchings collapse to the single available edge.
    odd = [(min(i, j), max(i, j)) for i, j in odd]
    return PeriodicSchedule(
        [metropolis_weights(even, m), metropolis_weights(odd, m)], B=2
    )


def read_matrix_file(path) -> list[np.ndarray]:
    """Read a list of square matrices from a text file.

    Matrices are blocks of whitespace-separated rows, one row per line,
    separated by blank lines.
    """
    blocks: list[list[list[float]]] = [[]]
    with open(path, "r", encoding="utf-8") as handle:
        for raw in handle:
            line = raw.strip()
            if not line:
                if blocks[-1]:
                    blocks.append([])
                continue
            blocks[-1].append([float(tok) for tok in line.split()])
    if not blocks[-1]:
        blocks.pop()
    if not blocks:
        raise ValueError(f"no matrices found in {path}")
    return [np.array(block, dtype=float) for block in blocks]


def schedule_from_matrices(matrices, B: int) -> PeriodicSchedule:
    """Periodic schedule over user-supplied matrices, validated loosely."""
    return PeriodicSchedule(
        [AdjacencyMatrix(w, tol=SUPPLIED_TOL) for w in matrices], B=B
    )


def transition_matrix(schedule: Schedule, t: int, s: int) -> np.ndarray:
    """Ordered product A(t) A(t-1) ... A(s) of slot matrices.

    The product of doubly stochastic matrices is doubly stochastic, so the
    result preserves both row and column sums.
    """
    if s < 0:
        raise ValueError(f"slot index must be >= 0, got s={s}")
    if t < s:
        raise ValueError(f"need t >= s, got t={t} < s={s}")
    product = schedule.matrix(s).w.copy()
    for u in range(s + 1, t + 1):
        product = schedule.matrix(u).w @ product
    return product


def consensus_weights(schedule: Schedule, k: int) -> np.ndarray:
    """Effective mixing matrix of iteration k.

    Iteration k consumes slots slots_before(k) .. slots_before(k) + k - 1
    and mixes with the ordered product of those k matrices.
    """
    start = slots_before(k)
    return transition_matrix(schedule, start + k - 1, start)


@dataclass
class ScheduleReport:
    """Validation outcome over a slot horizon."""

    horizon: int
    B: int
    stochasticity_failures: list[int]
    floor_failures: list[int]
    disconnected_windows: list[int]

    @property
    def valid(self) -> bool:
        return not (
            self.stochasticity_failures
            or self.floor_failures
            or self.disconnected_windows
        )

    def summary(self) -> str:
        if self.valid:
            return (
                f"valid over {self.horizon} slots "
                f"(window connectivity with B={self.B})"
            )
        parts = []
        if self.stochasticity_failures:
            parts.append(
                f"double stochasticity fails at slots {self.stochasticity_failures[:10]}"
            )
        if self.floor_failures:
            parts.append(f"weight floor fails at slots {self.floor_failures[:10]}")
        if self.disconnected_windows:
            parts.append(
                f"disconnected windows starting at {self.disconnected_windows[:10]}"
            )
        return "; ".join(parts)


def _union_connected(masks: list[np.ndarray]) -> bool:
    union = masks[0].copy()
    for mask in masks[1:]:
        union |= mask
    m = union.shape[0]
    seen = np.zeros(m, dtype=bool)
    seen[0] = True
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in np.nonzero(union[node])[0]:
            if not seen[nxt]:
                seen[nxt] = True
                stack.append(int(nxt))
    return bool(seen.all())


def validate_schedule(schedule: Schedule, horizon: int) -> ScheduleReport:
    """Check stochasticity, the weight floor and window connectivity.

    Examines every slot t in [0, horizon) and every window of B
    consecutive slots inside the horizon.  Failures are reported rather
    than raised; the overall verdict is their conjunction.
    """
    if horizon < schedule.B:
        raise ValueError(
            f"horizon {horizon} is shorter than the connectivity window "
            f"B={schedule.B}"
        )
    stoch_bad: list[int] = []
    floor_bad: list[int] = []
    disconnected: list[int] = []
    ones = np.ones(schedule.m)
    edge_masks: list[np.ndarray] = []
    for t in range(horizon):
        w = schedule.matrix(t).w
        row_err = float(np.max(np.abs(w @ ones - ones)))
        col_err = float(np.max(np.abs(w.T @ ones - ones)))
        if max(row_err, col_err) > SUPPLIED_TOL or np.min(w) < -SUPPLIED_TOL:
            stoch_bad.append(t)
        positive = w[w > 0]
        if positive.size and float(positive.min()) < schedule.eta - 1e-12:
            floor_bad.append(t)
        off_diag = w.copy()
        np.fill_diagonal(off_diag, 0.0)
        edge_masks.append(off_diag > 0)
    for start in range(horizon - schedule.B + 1):
        if not _union_connected(edge_masks[start : start + schedule.B]):
            disconnected.append(start)
    return ScheduleReport(
        horizon=horizon,
        B=schedule.B,
        stochasticity_failures=stoch_bad,
        floor_failures=floor_bad,
        disconnected_windows=disconnected,
    )


@dataclass(frozen=True)
class GeometricConstants:
    """Constants governing the geometric decay of consensus error."""

    Gamma: float
    gamma: float
    B0: int


def geometric_constants(m: int, B: int, eta: float) -> GeometricConstants:
    """Decay constants for an m-agent schedule with window B and floor eta.

    B0 = (m-1) B, gamma = (1 - eta^B0)^(1/B0) and
    Gamma = 2 (1 + eta^(-B0)) / (1 - eta^B0).  A single agent has nothing
    to agree on, so m = 1 is rejected.
    """
    if m < 2:
        raise ValueError(f"consensus decay needs at least two agents, got m={m}")
    if B < 1:
        raise ValueError(f"connectivity window must be >= 1, got B={B}")
    if not 0.0 < eta < 1.0:
        raise ValueError(f"weight floor must lie in (0, 1), got {eta}")
    B0 = (m - 1) * B
    eta_pow = eta**B0
    gamma = (1.0 - eta_pow) ** (1.0 / B0)
    Gamma = 2.0 * (1.0 + eta**(-B0)) / (1.0 - eta_pow)
    return GeometricConstants(Gamma=Gamma, gamma=gamma, B0=B0)
