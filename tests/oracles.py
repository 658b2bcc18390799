"""Independent numerical oracles.

Everything in this module but trace_rows is deliberately written from
scratch, without calling into the package under test, so that expected
values in the test suite come from a second computational route:
golden-section search for one-dimensional proximal points, central finite
differences for gradients, breadth-first search for connectivity, a plain
centralized proximal gradient loop for reference minimizers, a
token-by-token LIBSVM reader, and an iteration's mixing matrix multiplied
out from scratch.  trace_rows assembles every trace row from a run's
snapshots, row 0 and the later rows written out separately; it calls the
package's certificate functions, which have their own tests.
"""

from __future__ import annotations

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


def ordered_product(schedule, k: int) -> np.ndarray:
    """Mixing matrix of iteration k from its k slot matrices alone.

    Iteration k reads slots k(k-1)/2 .. k(k-1)/2 + k - 1; later slots
    multiply on the left.
    """
    start = k * (k - 1) // 2
    product = schedule.matrix(start).w.copy()
    for t in range(start + 1, start + k):
        product = schedule.matrix(t).w @ product
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
            D=diagnostics.disagreement(x, schedule.matrix(0).w),
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
        eps = (
            diagnostics.prox_inexactness(x_bar, v_bar, z, alpha, g_h)
            if eps_supported and in_ball
            else None
        )
        dx = float(np.linalg.norm(x_bar - x_bar_prev))
        rate += dx * dx
        rows.append(
            diagnostics.IterationMetrics(
                k=k,
                comm_cumulative=comm,
                f_avg=f_avg(x_bar),
                D=diagnostics.disagreement(snap.x, schedule.matrix(comm - 1).w),
                dx_norm=dx,
                e_norm=e_norm,
                eps=eps,
                residual_bound=diagnostics.stationarity_bound(
                    dx, eps, e_norm, alpha, lipschitz
                ),
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

    Same grammar, label normalization and error messages as the package's
    block parser; the arrays still go through Dataset's own checks there.
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
