"""Independent numerical oracles.

Everything in this module but trace_rows is deliberately written from
scratch, without calling into the package under test, so that expected
values in the test suite come from a second computational route:
golden-section search for one-dimensional proximal points, central finite
differences for gradients, breadth-first search for connectivity, a plain
centralized proximal gradient loop for reference minimizers, a power
iteration on one matrix at a time for spectral norm estimates,
Metropolis weights built edge by edge from an edge list, the edge lists
a random schedule's window draws, a token-by-token LIBSVM reader, shard
row indices counted out one shard at a time, an iteration's mixing
matrix multiplied out from scratch, the sigmoid with a sum and a
quotient of its own in each branch, and the sigmoid loss and its gradient
as their formulas read.
trace_rows assembles every trace row from a run's snapshots, row 0 and the
later rows written out separately.  It writes eps and residual_bound out
from the formulas of the IterationMetrics docstring, and calls the
package's e, D and envelope functions, which have their own tests.
"""

from __future__ import annotations

import math

import numpy as np

from proxnet import diagnostics
from proxnet.graphs import geometric_constants

INV_PHI = (5.0**0.5 - 1.0) / 2.0


def golden_section(f, lo: float, hi: float, width: float = 1e-9) -> float:
    """Argmin of a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    if not a < b:
        return a
    c = b - (b - a) * INV_PHI
    d = a + (b - a) * INV_PHI
    fc, fd = f(c), f(d)
    while (b - a) > width:
        if fc <= fd:
            b, d, fd = d, c, fc
            c = b - (b - a) * INV_PHI
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + (b - a) * INV_PHI
            fd = f(d)
    return 0.5 * (a + b)


def prox_bracket(v: float, alpha: float, lam1: float = 0.0, lam2: float = 0.0):
    """Search interval guaranteed to contain the scalar proximal point."""
    half = 10.0 * alpha * (lam1 + 2.0 * lam2 * abs(v) + 1.0)
    return v - half, v + half


def prox_1d(h, v: float, alpha: float, lo: float, hi: float) -> float:
    """Numerical prox of a scalar penalty h at v."""
    return golden_section(lambda z: h(z) + (z - v) ** 2 / (2.0 * alpha), lo, hi)


def central_difference(f, x: np.ndarray, step: float | None = None) -> np.ndarray:
    """Centered finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    if step is None:
        step = 1e-6 * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        bump = np.zeros_like(x)
        bump[i] = step
        grad[i] = (f(x + bump) - f(x - bump)) / (2.0 * step)
    return grad


def soft_threshold_scalar(v: float, t: float) -> float:
    """Scalar shrinkage, written out case by case from the optimality conditions."""
    if v > t:
        return v - t
    if v < -t:
        return v + t
    return 0.0


def bfs_connected(m: int, edges) -> bool:
    """Whether the undirected graph on m nodes with the given edges is connected."""
    if m <= 1:
        return True
    neighbors = {i: set() for i in range(m)}
    for i, j in edges:
        neighbors[i].add(j)
        neighbors[j].add(i)
    seen = {0}
    stack = [0]
    while stack:
        node = stack.pop()
        for nxt in neighbors[node]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == m


def edges(w: np.ndarray) -> list[tuple[int, int]]:
    """Undirected positive-weight edges of w as (i, j) pairs with i < j."""
    rows, cols = np.nonzero(np.triu(w, k=1))
    return list(zip(rows.tolist(), cols.tolist()))


def metropolis_by_edges(edge_list, m: int) -> np.ndarray:
    """Metropolis weights from an edge list, one edge at a time.

    Edge {i, j} gets 1 / (1 + max(deg_i, deg_j)) and each diagonal entry
    the leftover of its row.  Self-loops, duplicates in either orientation
    and out-of-range nodes are rejected.
    """
    seen: set[frozenset[int]] = set()
    for i, j in edge_list:
        if not (0 <= i < m and 0 <= j < m) or i == j or frozenset((i, j)) in seen:
            raise ValueError(f"bad edge ({i}, {j}) for m={m}")
        seen.add(frozenset((i, j)))
    degree = np.zeros(m, dtype=int)
    for i, j in edge_list:
        degree[i] += 1
        degree[j] += 1
    w = np.zeros((m, m))
    for i, j in edge_list:
        w[i, j] = w[j, i] = 1.0 / (1.0 + max(degree[i], degree[j]))
    np.fill_diagonal(w, 1.0 - w.sum(axis=1))
    return w


def random_window_edges(seed: int, window: int, m: int, B: int) -> list:
    """Edge lists of the B slots of a random schedule's window.

    The first slot is a spanning tree that attaches each node of a seeded
    permutation to a uniformly drawn earlier one (when m > 1); every other
    slot keeps each pair i < j where a uniform draw falls below 1/4.
    """
    rng = np.random.default_rng([seed, window])
    slots = []
    for pos in range(B):
        if pos == 0 and m > 1:
            order = rng.permutation(m)
            slots.append(
                [(int(order[i]), int(order[int(rng.integers(i))])) for i in range(1, m)]
            )
        else:
            keep = rng.random((m, m)) < 0.25
            pairs = [(i, j) for i in range(m) for j in range(i + 1, m)]
            slots.append([(i, j) for i, j in pairs if keep[i, j]])
    return slots


def spectral_norm_power(q: np.ndarray, rel_tol: float = 1e-8) -> float:
    """Power-iteration estimate of ||Q||_2 for one matrix, in a Python loop."""
    n = q.shape[0]
    x = np.ones(n) / np.sqrt(n)
    estimate = 0.0
    for _ in range(10_000):
        y = q @ x
        norm = float(np.linalg.norm(y))
        if norm == 0.0:
            return 0.0
        x = y / norm
        if abs(norm - estimate) <= rel_tol * max(norm, 1e-300):
            return norm
        estimate = norm
    return estimate


def ordered_product(schedule, k: int) -> np.ndarray:
    """Mixing matrix of iteration k from its k slot matrices alone.

    Iteration k reads slots k(k-1)/2 .. k(k-1)/2 + k - 1; later slots
    multiply on the left.
    """
    start = k * (k - 1) // 2
    product = schedule.matrix(start).copy()
    for t in range(start + 1, start + k):
        product = schedule.matrix(t) @ product
    return product


def trace_rows(setup, trace) -> list:
    """Trace rows of a run recomputed from its snapshots, one per iteration.

    The run must have kept every snapshot (snapshot_every = 1).  The slot of
    D is the last one iteration k read, slot 0 at k = 0; row 0 carries no
    e, envelope or residual, and eps is 0 there when it is supported.
    """
    objectives, reg = list(setup.objectives), setup.regularizer
    schedule = setup.schedule
    alpha, lipschitz = trace.alpha, trace.lipschitz
    assert sorted(trace.snapshots) == list(range(len(trace.snapshots)))
    x = trace.snapshots[0].x
    m = x.shape[0]
    geo = geometric_constants(m, schedule.B, schedule.eta) if m >= 2 else None
    radius = 10.0 * max(1.0, float(np.max(np.linalg.norm(x, axis=1))))
    g_h = reg.subgradient_bound(radius)
    eps_supported = np.isfinite(g_h)

    def f_avg(x_bar):
        values = [obj.value(x_bar) for obj in objectives]
        return float(np.mean(values) + reg.value(x_bar))

    x_bar = x.mean(axis=0)
    gap = float(np.max(np.linalg.norm(x - x_bar, axis=1))) if m > 1 else 0.0
    rows = [
        diagnostics.IterationMetrics(
            k=0,
            comm_cumulative=0,
            f_avg=f_avg(x_bar),
            D=diagnostics.disagreement(x, schedule.matrix(0)),
            dx_norm=0.0,
            e_norm=0.0,
            eps=0.0 if eps_supported else None,
            residual_bound=0.0,
            max_consensus_gap=gap,
            geo_bound=0.0,
            rate_T_times_stat=0.0,
        )
    ]
    comm, rate = 0, 0.0
    for k in range(1, len(trace.snapshots)):
        snap = trace.snapshots[k]
        comm += k
        x_bar_prev, x_bar = x_bar, snap.x.mean(axis=0)
        e_norm = float(
            np.linalg.norm(diagnostics.gradient_averaging_error(x, objectives))
        )
        v_bar = snap.v.mean(axis=0)
        z = reg.prox(v_bar, alpha)
        in_ball = np.linalg.norm(x_bar) <= radius and np.linalg.norm(z) <= radius
        eps = None
        if eps_supported and in_ball:
            # eps = s (G_h + ||z - v_bar|| / alpha) + s^2 / (2 alpha).
            s = float(np.linalg.norm(x_bar - z))
            eps = s * (g_h + float(np.linalg.norm(z - v_bar)) / alpha)
            eps += s * s / (2.0 * alpha)
        dx = float(np.linalg.norm(x_bar - x_bar_prev))
        rate += dx * dx
        # (1/alpha + L) dx_norm + e_norm + sqrt(2 eps / alpha), in that order.
        residual = (1.0 / alpha + lipschitz) * dx + e_norm
        if eps is not None:
            residual += math.sqrt(2.0 * eps / alpha)
        rows.append(
            diagnostics.IterationMetrics(
                k=k,
                comm_cumulative=comm,
                f_avg=f_avg(x_bar),
                D=diagnostics.disagreement(snap.x, schedule.matrix(comm - 1)),
                dx_norm=dx,
                e_norm=e_norm,
                eps=eps,
                residual_bound=residual,
                max_consensus_gap=float(
                    np.max(np.linalg.norm(snap.x - x_bar, axis=1))
                ),
                geo_bound=diagnostics.geometric_envelope(geo, k, snap.q),
                rate_T_times_stat=rate,
            )
        )
        x = snap.x
    return rows


def centralized_prox_gradient(
    mean_grad,
    lipschitz: float,
    lam1: float,
    x0: np.ndarray,
    tol: float = 1e-10,
    max_iter: int = 500_000,
) -> np.ndarray:
    """Reference minimizer of a smooth mean objective plus lam1 * l1.

    Plain proximal gradient with step 1/L, iterated until successive
    iterates agree to ``tol`` in the sup norm.  Used as the high-accuracy
    centralized baseline; raises if the tolerance is never reached.
    """
    x = np.asarray(x0, dtype=float).copy()
    alpha = 1.0 / lipschitz
    shift = alpha * lam1
    for _ in range(max_iter):
        y = x - alpha * mean_grad(x)
        x_new = np.array([soft_threshold_scalar(z, shift) for z in y])
        if np.max(np.abs(x_new - x)) <= tol:
            return x_new
        x = x_new
    raise AssertionError("reference proximal gradient loop did not converge")


_LIBSVM_LABEL_FAMILIES = (
    ({-1.0, 1.0}, {-1.0: -1.0, 1.0: 1.0}),
    ({0.0, 1.0}, {0.0: -1.0, 1.0: 1.0}),
    ({1.0, 2.0}, {1.0: -1.0, 2.0: 1.0}),
)


def parse_libsvm_by_token(source, n_features: int | None = None):
    """(features, labels) of LIBSVM text, one Python token at a time.

    Same grammar, label normalization and error messages as
    proxnet.objectives.parse_libsvm; Dataset, not this oracle, checks the
    arrays it returns.
    """
    if isinstance(source, str):
        lines = source.splitlines()
    else:
        lines = list(source)
    raw_labels: list[float] = []
    rows: list[list[tuple[int, float]]] = []
    max_index = 0
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        tokens = line.split()
        try:
            label = float(tokens[0])
        except ValueError:
            raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from None
        entries: list[tuple[int, float]] = []
        prev = 0
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: expected idx:val, got {token!r}")
            try:
                idx = int(idx_str)
                val = float(val_str)
            except ValueError:
                raise ValueError(f"line {lineno}: bad feature {token!r}") from None
            if idx < 1:
                raise ValueError(f"line {lineno}: index {idx} is not 1-based")
            if idx > 2**31 - 1:
                raise ValueError(f"line {lineno}: index {idx} exceeds 2147483647")
            if idx <= prev:
                raise ValueError(
                    f"line {lineno}: index {idx} not strictly increasing"
                )
            prev = idx
            entries.append((idx, val))
        max_index = max(max_index, prev)
        raw_labels.append(label)
        rows.append(entries)
    if not rows:
        raise ValueError("no samples found")

    seen = set(raw_labels)
    for family, mapping in _LIBSVM_LABEL_FAMILIES:
        if seen <= family:
            labels = np.array([mapping[l] for l in raw_labels])
            break
    else:
        raise ValueError(f"label set {sorted(seen)} is not a supported binary family")

    n = n_features if n_features is not None else max_index
    if n < 1:
        raise ValueError("cannot infer feature dimension: no features present")
    if max_index > n:
        raise ValueError(f"feature index {max_index} exceeds declared dimension {n}")
    features = np.zeros((len(rows), n))
    for row, entries in zip(features, rows):
        for idx, val in entries:
            row[idx - 1] = val
    return features, labels


def two_branch_sigmoid(u: np.ndarray) -> np.ndarray:
    """1/(1+e^u) as z/(1+z) where u >= 0 and 1/(1+z) elsewhere, z = e^-|u|."""
    z = np.exp(-np.abs(u))
    return np.where(u >= 0, z / (1.0 + z), 1.0 / (1.0 + z))


def sigmoid_loss_by_formula(features, labels, x) -> tuple[float, np.ndarray]:
    """(value, gradient) of one shard's mean sigmoid loss at x, as the formulas read.

    u = l * (A x), s = two_branch_sigmoid(u), the value is mean(s) and the
    gradient A' (-s * (1 - s) * l / count), each a fresh array.
    """
    s = two_branch_sigmoid(labels * (features @ x))
    coeff = -s * (1.0 - s) * labels / labels.size
    return float(np.mean(s)), features.T @ coeff


def shard_rows(count: int, m: int, seed: int) -> list[np.ndarray]:
    """Row indices of each of m shards: a seeded permutation cut in order,
    the first count mod m shards one row longer."""
    order = np.random.default_rng(seed).permutation(count)
    base, extra = divmod(count, m)
    rows = []
    start = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        rows.append(order[start : start + size])
        start += size
    return rows
