"""Local smooth objectives: sigmoid classification loss and quadratics.

The sigmoid loss is the black-box classification objective evaluated on a
per-agent data shard; quadratics are the brute-force-checkable fixture
family whose fixed points have closed forms.  LIBSVM ingestion, sharding
and synthetic data generation live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class Dataset:
    """Binary classification samples with dense features and +/-1 labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        features = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels, dtype=float)
        if features.ndim != 2:
            raise ValueError(f"features must be 2-d, got shape {features.shape}")
        if labels.shape != (features.shape[0],):
            raise ValueError(
                f"label count {labels.shape} does not match {features.shape[0]} samples"
            )
        if not np.all(np.isfinite(features)):
            raise ValueError("features contain non-finite values")
        if not np.all(np.abs(labels) == 1.0):
            raise ValueError("labels must be exactly +1 or -1")
        object.__setattr__(self, "features", features)
        object.__setattr__(self, "labels", labels)

    @property
    def count(self) -> int:
        return self.features.shape[0]

    @property
    def n(self) -> int:
        return self.features.shape[1]


_LABEL_FAMILIES = (
    ({-1.0, 1.0}, {-1.0: -1.0, 1.0: 1.0}),
    ({0.0, 1.0}, {0.0: -1.0, 1.0: 1.0}),
    ({1.0, 2.0}, {1.0: -1.0, 2.0: 1.0}),
)


def parse_libsvm(source, n_features: int | None = None) -> Dataset:
    """Parse LIBSVM text: one "label idx:val idx:val ..." line per sample.

    Indices are 1-based and strictly increasing within a line.  Raw label
    sets {-1,+1}, {0,1} and {1,2} are normalized to {-1,+1}, matched in
    that order so a file whose labels all equal 1 keeps them as +1.  The
    feature dimension is the largest index seen unless overridden.
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
    for family, mapping in _LABEL_FAMILIES:
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
    return Dataset(features, labels)


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm up to float round-trip via repr.

    If the last feature column is entirely zero the first sample gets an
    explicit n:0.0 entry, otherwise the dimension could not be recovered.
    """
    lines = []
    pin_dim = not np.any(dataset.features[:, -1])
    for i in range(dataset.count):
        parts = ["+1" if dataset.labels[i] > 0 else "-1"]
        row = dataset.features[i]
        for j in np.nonzero(row)[0]:
            parts.append(f"{j + 1}:{float(row[j])!r}")
        if pin_dim and i == 0:
            parts.append(f"{dataset.n}:0.0")
        lines.append(" ".join(parts))
    return "\n".join(lines) + "\n"


def stable_sigmoid(u: np.ndarray) -> np.ndarray:
    """1/(1+e^u) evaluated without overflow for any magnitude of u."""
    u = np.asarray(u, dtype=float)
    z = np.exp(-np.abs(u))
    return np.where(u >= 0, z / (1.0 + z), 1.0 / (1.0 + z))


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

    @property
    def n(self) -> int:
        return self.shard.n

    def _margins(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape != (self.n,):
            raise ValueError(f"expected shape ({self.n},), got {x.shape}")
        return self.shard.labels * (self.shard.features @ x)

    def value(self, x: np.ndarray) -> float:
        return float(np.mean(stable_sigmoid(self._margins(x))))

    def grad(self, x: np.ndarray) -> np.ndarray:
        s = stable_sigmoid(self._margins(x))
        coeff = -s * (1.0 - s) * self.shard.labels / self.shard.count
        return self.shard.features.T @ coeff

    def lipschitz(self) -> float:
        norms_sq = np.sum(self.shard.features**2, axis=1)
        return sigmoid_curvature_peak() * float(np.mean(norms_sq))


def _spectral_norm_power(q: np.ndarray, rel_tol: float = 1e-8) -> float:
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


class Quadratic:
    """g(x) = (x-c)' Q (x-c) / 2 with symmetric Q."""

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
        d = np.asarray(x, dtype=float) - self.c
        return 0.5 * float(d @ self.q @ d)

    def grad(self, x: np.ndarray) -> np.ndarray:
        return self.q @ (np.asarray(x, dtype=float) - self.c)

    def lipschitz(self) -> float:
        if self._lipschitz is None:
            self._lipschitz = _spectral_norm_power(self.q)
        return self._lipschitz


class WithSquaredL2:
    """Moves a lam2 ||x||^2 ridge term into the smooth part.

    The default treats the squared-norm penalty as part of the shared
    regularizer; this wrapper supports the alternative split where it
    rides along with the local loss.
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
    """m well-conditioned random quadratics, reproducible per (seed, i)."""
    if m < 1 or n < 1:
        raise ValueError(f"need m >= 1 and n >= 1, got ({m}, {n})")
    out = []
    for i in range(m):
        rng = np.random.default_rng([seed, i])
        factor = rng.standard_normal((n, n))
        q = factor @ factor.T / n + 0.5 * np.eye(n)
        c = rng.standard_normal(n)
        out.append(Quadratic(q, c))
    return out


A9A_GROUP_SIZES = (5, 5, 5, 2, 2, 5, 8, 16, 7, 14, 6, 5, 2, 41)
"""Block widths of the 123-feature one-hot a9a encoding (14 groups)."""


def synthetic_classification(
    count: int,
    n: int,
    seed: int,
    active_per_sample: int = 14,
    label_noise: float = 0.1,
    *,
    group_sizes: tuple[int, ...] | None = None,
    signal: float = 0.4,
    overlap: float = 0.45,
    positive_fraction: float = 0.24,
) -> Dataset:
    """Grouped one-hot classification data with skewed, overlapping classes.

    Features form one-hot blocks: each sample turns on exactly one
    coordinate per group, with within-group frequencies decaying like
    1/rank so a few categories dominate.  Labels threshold a weak planted
    score (standardized, scaled by signal, blurred by overlap noise) at
    the quantile that makes a positive_fraction of samples positive, then
    a label_noise fraction is flipped outright.  That mirrors how encoded
    census-style sets such as a9a behave: heavy category reuse, roughly a
    quarter positive, classes that overlap rather than separate, and a
    minimizer near the origin instead of out where the loss saturates.

    group_sizes must sum to n when given; by default the coordinates are
    split near-evenly into min(active_per_sample, n) groups.  Pass
    A9A_GROUP_SIZES for the real a9a block widths.  The last feature of
    sample 0 is pinned on so the dimension survives a file round trip.
    """
    if count < 1 or n < 2:
        raise ValueError(f"need count >= 1 and n >= 2, got ({count}, {n})")
    if not 0.0 < positive_fraction < 1.0:
        raise ValueError(f"positive_fraction must be in (0, 1), got {positive_fraction}")
    if group_sizes is None:
        groups = min(active_per_sample, n)
        if groups < 1:
            raise ValueError(f"need active_per_sample >= 1, got {active_per_sample}")
        base, extra = divmod(n, groups)
        sizes = [base + (1 if i < extra else 0) for i in range(groups)]
    else:
        sizes = list(group_sizes)
        if any(size < 1 for size in sizes) or sum(sizes) != n:
            raise ValueError(f"group sizes must be positive and sum to n={n}, got {sizes}")
    rng = np.random.default_rng(seed)
    features = np.zeros((count, n))
    rows = np.arange(count)
    start = 0
    for size in sizes:
        weights = 1.0 / (1.0 + np.arange(size))
        picks = rng.choice(size, size=count, p=weights / weights.sum())
        features[rows, start + picks] = 1.0
        start += size
    features[0, n - 1] = 1.0
    planted = rng.standard_normal(n)
    raw = features @ planted
    spread = raw.std()
    z = signal * (raw - raw.mean()) / spread if spread > 0 else np.zeros(count)
    score = z + overlap * rng.standard_normal(count)
    threshold = np.quantile(score, 1.0 - positive_fraction)
    labels = np.where(score >= threshold, 1.0, -1.0)
    flips = rng.random(count) < label_noise
    labels[flips] *= -1.0
    return Dataset(features, labels)


def shard(dataset: Dataset, m: int, seed: int) -> list[Dataset]:
    """Split a dataset into m near-equal shards after a seeded shuffle.

    The first count mod m shards get one extra sample; the union of the
    shards is the input dataset.
    """
    if m < 1:
        raise ValueError(f"need at least one shard, got m={m}")
    if m > dataset.count:
        raise ValueError(f"cannot split {dataset.count} samples into {m} shards")
    if m == 1:
        return [dataset]
    order = np.random.default_rng(seed).permutation(dataset.count)
    base, extra = divmod(dataset.count, m)
    shards = []
    start = 0
    for i in range(m):
        size = base + (1 if i < extra else 0)
        idx = order[start : start + size]
        shards.append(Dataset(dataset.features[idx], dataset.labels[idx]))
        start += size
    return shards


def subsample(dataset: Dataset, count: int, seed: int) -> Dataset:
    """Seeded subsample without replacement."""
    if not 1 <= count <= dataset.count:
        raise ValueError(
            f"subsample size {count} out of range for {dataset.count} samples"
        )
    idx = np.random.default_rng(seed).permutation(dataset.count)[:count]
    return Dataset(dataset.features[idx], dataset.labels[idx])
