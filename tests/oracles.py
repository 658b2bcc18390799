"""Independent numerical oracles.

Everything in this module is deliberately written from scratch, without
calling into the package under test, so that expected values in the test
suite come from a second computational route: golden-section search for
one-dimensional proximal points, central finite differences for gradients,
breadth-first search for connectivity, a plain centralized proximal
gradient loop for reference minimizers, a token-by-token LIBSVM reader,
and an iteration's mixing matrix multiplied out from scratch.
"""

from __future__ import annotations

import numpy as np

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
