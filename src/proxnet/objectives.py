"""Local smooth objectives: sigmoid classification loss and quadratics.

The sigmoid loss is the black-box classification objective evaluated on a
per-agent data shard; quadratics are the brute-force-checkable fixture
family whose fixed points have closed forms.  AgentFamily evaluates every
agent's objective at once, the only way the solver and the diagnostics
evaluate them.  LIBSVM ingestion, sharding and synthetic data generation
live here too.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

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
        # NaN carries through min and max: exact, with no full-size temporary.
        if features.size and not np.isfinite([features.min(), features.max()]).all():
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


_LABEL_FAMILIES = ((-1.0, 1.0), (0.0, 1.0), (1.0, 2.0))
"""Supported raw label pairs (negative, positive), matched in this order."""

_READ_CHARS = 1 << 16
"""Characters that parse_libsvm reads at once.

_convert_read's arrays for a read peak at about 10 bytes per character
(0.7 MB), as int32 positions and 8-byte words per field that are dropped
once used.  A refused read costs its lines and _parse_lines' lists of
Python numbers instead: 0.3 to 0.6 MB, 5 to 10 bytes per character.  On
100,000 covtype-shaped rows (2-vCPU VM, numpy 2.4), reads of 16 Ki
characters took 1.6 times as long to parse, and reads of 256 Ki 4% less
time for four times the arrays.
"""

_FIELD_DIGITS = 15
"""Most digits of a number that _convert_read converts.

An integer of 15 digits is below 2**53, so it and 10**f (f <= 15) are
exact doubles and one division rounds to the same double as float().
"""

_PAD = 16  # blanks before a read: a field's 16 bytes never start before them
# Of a field with d digits (d <= 15), the high word keeps its last d - 8 bytes.
_HIGH_BYTES = np.array(
    [sum(0xFF << 8 * j for j in range(16 - max(d, 8), 8)) for d in range(16)],
    dtype=np.uint64,
)
# Eight digit bytes to their value, the first byte lowest: digits, then pairs
# of them, then fours, each step a mask, a multiply and a shift.
_EIGHT_DIGIT_STEPS = [
    (np.uint64(0x0F0F0F0F0F0F0F0F), np.uint64(2561), np.uint64(8)),
    (np.uint64(0x00FF00FF00FF00FF), np.uint64(6553601), np.uint64(16)),
    (np.uint64(0x0000FFFF0000FFFF), np.uint64(42949672960001), np.uint64(32)),
]
_POWERS_OF_TEN = np.array([10**f for f in range(_FIELD_DIGITS + 1)], dtype=float)

_SQUARE_ROWS = 1024  # rows of a shard that SigmoidLoss.lipschitz squares at once


def _shard_order(count: int, seed: int) -> np.ndarray:
    """The seeded row order that shard cuts and subsample takes a prefix of."""
    return np.random.default_rng(seed).permutation(count)


def parse_libsvm(
    source: str | os.PathLike,
    n_features: int | None = None,
    *,
    shard_seed: int | None = None,
) -> Dataset:
    """Parse LIBSVM text: one "label idx:val idx:val ..." line per sample.

    The grammar, one line at a time: surrounding whitespace is ignored
    and a blank line is skipped; the first whitespace-separated token is
    the label, read by float(); every further token is idx:val with
    exactly one colon and text on both sides, idx read by int() and val by
    float().  Indices are 1-based, strictly increasing within a line and
    at most 2**31 - 1: LIBSVM's own reader stores an index in a C int, and
    a dense row that wide would take 16 GiB.
    The source is a str of LIBSVM text or a path (os.PathLike) read as
    UTF-8 text; its lines are those of str.splitlines.  The first
    malformed line raises ValueError naming its 1-based line number.

    Raw label sets {-1,+1}, {0,1} and {1,2} are normalized to {-1,+1},
    matched in that order so a file whose labels all equal 1 keeps them
    as +1.  The feature dimension is the largest index seen unless
    overridden.  Rows keep file order unless shard_seed is given; then
    they come in the order that shard(..., seed=shard_seed) would put
    them in, so shard(..., seed=None) can cut views without a copy.

    The source is read twice, _READ_CHARS characters at a time: once to
    count the samples and the lines of each read (and find the widest
    index, unless declared), then, after the dense matrix is allocated, to
    convert each read and write its samples straight into their rows.
    _convert_read converts a read of plain decimals whole, in numpy byte
    kernels with no Python object per field.  A read it refuses (another
    form of number, a byte outside ASCII, a malformed line) is split into
    lines and converted one token at a time by _parse_lines, the reference
    for the grammar, which names the first bad line.  Both give the values
    of float() and int(), so which one converts a read changes no result
    and no message.  A matrix too large to allocate is reported after
    every other check.  Besides the matrix, the parse holds a label and a
    row position per sample, a line count per read and one read with
    either the kernel's arrays or its lines and their numbers.
    """
    samples = width = 0
    line_counts = []
    for text in _chunks(source):
        lines = text.splitlines()
        line_counts.append(len(lines))
        samples += len(lines) - lines.count("") - sum(map(str.isspace, lines))
        if n_features is None:
            width = max(width, _widest_index(lines))
    if samples == 0:
        raise ValueError("no samples found")
    n = n_features if n_features is not None else width
    failure = None
    try:
        features = np.zeros((samples, n))
    except (MemoryError, ValueError) as exc:  # raised after the checks below
        features, failure = None, exc
    # Sample r of the file is written to row position[r] of the matrix.
    position = np.arange(samples)
    if shard_seed is not None:
        position[_shard_order(samples, shard_seed)] = np.arange(samples)
    raw_labels = np.empty(samples)
    seen: set[float] = set()  # in file order: of 0.0 and -0.0 it shows the first
    first = lineno = max_index = 0
    for text, read_lines in zip(_chunks(source), line_counts):
        parsed = _convert_read(text)
        if parsed is None:
            parsed = _parse_lines(text.splitlines(), lineno)
        labels, counts, indices, values = parsed
        rows = position[first : first + labels.size]
        raw_labels[rows] = labels
        seen.update(labels.tolist())
        max_index = max(max_index, int(indices.max(initial=0)))
        if features is not None and max_index <= n:
            features[np.repeat(rows, counts), indices - 1] = values
        first += labels.size
        lineno += read_lines

    for negative, positive in _LABEL_FAMILIES:
        if seen <= {negative, positive}:
            labels = np.where(raw_labels == positive, 1.0, -1.0)
            break
    else:
        raise ValueError(f"label set {sorted(seen)} is not a supported binary family")

    if n < 1:
        raise ValueError("cannot infer feature dimension: no features present")
    if max_index > n:
        raise ValueError(f"feature index {max_index} exceeds declared dimension {n}")
    if failure is not None:
        raise failure
    return Dataset(features, labels)


def _chunks(source: str | os.PathLike):
    """source's text in pieces cut after line breaks, never inside a CR LF."""
    rest = ""
    for text in _reads(source):
        text = rest + text
        cut = max(text.rfind("\n"), text.rfind("\r", 0, -1)) + 1
        yield text[:cut]
        rest = text[cut:]
    yield rest


def _reads(source: str | os.PathLike):
    """source's text, _READ_CHARS characters at a time; a path read as UTF-8."""
    if isinstance(source, os.PathLike):
        with open(source, encoding="utf-8", newline="") as stream:
            try:
                yield from iter(lambda: stream.read(_READ_CHARS), "")
            except UnicodeDecodeError:  # again, to count its position in the file
                Path(source).read_bytes().decode("utf-8")
                raise
    else:
        for start in range(0, len(source), _READ_CHARS):
            yield source[start : start + _READ_CHARS]


def _convert_read(text: str) -> tuple[np.ndarray, ...] | None:
    """(labels, counts, indices, values) of a read, or None.

    A numpy kernel over the read's bytes, with no Python object per field.
    It takes a read whole or not at all.  It refuses one with a byte other
    than a digit, "+-.:", space, tab, LF or CR; a field of more than
    _FIELD_DIGITS digits or not of the form [+-]digits[.digits]; an index
    with a sign or a point, or outside 1 to 2**31 - 1; or a line that breaks
    the grammar of parse_libsvm.  _parse_lines reads a refused read instead
    and names its bad line.  A field's digits, right-aligned in 16 bytes,
    are read 8 at a time into one integer M < 2**53, which is divided by
    10**f for its f decimals: the double that float() gives.
    """
    if not text.isascii() or len(text) > 2**31 - 2 * _PAD:  # int32 positions
        return None
    data = np.frombuffer(b" " * _PAD + text.encode("ascii") + b" ", dtype=np.uint8)
    number = (data - ord("+")) <= ord("9") - ord("+")  # a digit or "+,-./"
    breaks = np.flatnonzero((data == ord("\n")) | (data == ord("\r")))
    colons = np.count_nonzero(data == ord(":"))
    blanks = np.count_nonzero((data == ord(" ")) | (data == ord("\t")))
    if np.count_nonzero(number) + breaks.size + colons + blanks != data.size or np.any(
        (data == ord(",")) | (data == ord("/"))
    ):
        return None
    # Fields are the runs of number bytes, [start, end); the pad bounds each
    # run.  Arrays are dropped once used, which keeps the peak near 10 bytes
    # per character of the read.
    edges = np.flatnonzero(number[1:] != number[:-1])
    edges += 1
    starts, ends = edges[0::2].astype(np.int32), edges[1::2].astype(np.int32)
    del number, edges
    digits = ends - starts
    if digits.max(initial=0) > _FIELD_DIGITS + 2:  # with a sign and a point
        return None
    digits = digits.astype(np.int8)  # narrowed only once it fits
    fields = starts.size
    # The first field of a read and each first field after a break are labels.
    label = np.zeros(fields, dtype=bool)
    after = np.searchsorted(starts, breaks)
    label[after[after < fields]] = True
    label[:1] = True
    heads = np.flatnonzero(label)
    # Each colon ends an index and the value after it starts right past the
    # colon (so that value is no label); labels, indices and values are then
    # all the fields, once each.
    index = np.take(data, ends) == ord(":")
    keys = np.flatnonzero(index)
    if not (
        colons == keys.size
        and fields == heads.size + 2 * keys.size
        and not index[-1:].any()  # the last field is not an index
        and np.array_equal(np.take(starts, keys + 1), np.take(ends, keys) + 1)
        and not np.any(np.take(label, keys))
        and not np.any(np.take(index, keys + 1))
    ):
        return None
    del label
    # A sign starts a label or a value, and each has at most one point.
    signs = np.flatnonzero((data == ord("+")) | (data == ord("-")))
    signed = np.searchsorted(starts, signs)
    if not np.array_equal(np.take(starts, signed, mode="clip"), signs):
        return None
    del starts
    points = np.flatnonzero(data == ord("."))
    pointed = np.searchsorted(ends, points.astype(np.int32), side="right")
    if (
        np.any(pointed[1:] == pointed[:-1])
        or np.any(np.take(index, signed))
        or np.any(np.take(index, pointed))
    ):
        return None
    digits[signed] -= 1
    digits[pointed] -= 1
    if digits.min(initial=1) < 1 or digits.max(initial=0) > _FIELD_DIGITS:
        return None
    negative = signed[np.take(data, signs) == ord("-")]
    decimals = (np.take(ends, pointed) - points - 1).astype(np.int8)
    del breaks, signs, signed, points, index

    # Without the points, each field's digits end the 16 bytes up to its end:
    # its low word is the 8 bytes before its end, its high word the 8 before.
    data = data[data != ord(".")]
    low = np.zeros(fields, dtype=np.int32)
    low[pointed] = 1
    low = np.subtract(ends, np.cumsum(low, out=low) + 8, out=ends)
    eights = np.ndarray((data.size - 7,), dtype="<u8", buffer=data, strides=(1,))
    mantissa = eights[low]  # np.take would copy eights whole
    # Clear the low bytes, those before the last min(digits, 8) digits.
    shift = np.minimum(digits, 8).astype(np.uint64)
    np.subtract(np.uint64(8), shift, out=shift)
    shift <<= np.uint64(3)
    mantissa >>= shift
    mantissa <<= shift
    del shift
    mantissa = _eight_digits(mantissa)
    if digits.max(initial=0) > 8:
        high = eights[low - 8]
        high &= np.take(_HIGH_BYTES, digits)
        mantissa += _eight_digits(high) * np.uint64(10**8)
        del high
    del data, eights, low, digits
    indices = np.take(mantissa, keys)
    if indices.min(initial=1) < 1 or indices.max(initial=1) > 2**31 - 1:
        return None
    indices = indices.astype(np.int32)
    counts = np.diff(heads, append=fields) >> 1
    if not _increasing(indices, counts):
        return None
    numbers = mantissa.astype(float)
    del mantissa
    fractions = numbers[pointed]
    fractions /= np.take(_POWERS_OF_TEN, decimals)
    numbers[pointed] = fractions
    del fractions
    numbers[negative] *= -1.0
    return np.take(numbers, heads), counts, indices, np.take(numbers, keys + 1)


def _eight_digits(words: np.ndarray) -> np.ndarray:
    """The eight ASCII digits in each word, the first in its lowest byte, as
    one integer; computed in place (Lemire, "Number parsing at a gigabyte
    per second", 2021)."""
    for mask, scale, shift in _EIGHT_DIGIT_STEPS:
        words &= mask
        words *= scale
        words >>= shift
    return words


def _increasing(indices: np.ndarray, counts: np.ndarray) -> bool:
    """Whether each index exceeds the one before it on its line, or 0 first."""
    previous = np.zeros_like(indices)
    previous[1:] = indices[:-1]
    starts = np.cumsum(counts) - counts
    previous[starts[counts > 0]] = 0
    return not np.any(indices <= previous)


def _widest_index(lines: list[str]) -> int:
    """The largest last index of the lines, or 0 if one fails to convert."""
    parts = [raw.rsplit(None, 1) for raw in lines]
    last = [part[1].partition(":")[0] for part in parts if len(part) == 2]
    indices = np.empty(len(last), dtype=np.int32)
    try:
        indices[:] = last
    except (ValueError, OverflowError):
        return 0  # _parse_lines rejects that line too
    return int(indices.max(initial=0))


def _parse_lines(lines: list[str], lineno: int) -> tuple[np.ndarray, ...]:
    """(labels, counts, indices, values) of lines, one Python token at a time.

    counts holds the features of each sample, and indices and values those
    of every sample in turn.  The first malformed line raises ValueError
    with its line number in the file, where lineno lines come before these.
    """
    labels, counts, indices, values = [], [], [], []
    for lineno, raw in enumerate(lines, start=lineno + 1):
        tokens = raw.split()
        if not tokens:
            continue
        try:
            labels.append(float(tokens[0]))
        except ValueError:
            raise ValueError(f"line {lineno}: bad label {tokens[0]!r}") from None
        prev = 0
        for token in tokens[1:]:
            idx_str, sep, val_str = token.partition(":")
            if not sep:
                raise ValueError(f"line {lineno}: expected idx:val, got {token!r}")
            try:
                idx = int(idx_str)
                values.append(float(val_str))
            except ValueError:
                raise ValueError(f"line {lineno}: bad feature {token!r}") from None
            if idx < 1:
                raise ValueError(f"line {lineno}: index {idx} is not 1-based")
            if idx > 2**31 - 1:
                raise ValueError(f"line {lineno}: index {idx} exceeds {2**31 - 1}")
            if idx <= prev:
                raise ValueError(f"line {lineno}: index {idx} not strictly increasing")
            indices.append(idx)
            prev = idx
        counts.append(len(tokens) - 1)
    return (
        np.array(labels, dtype=float),
        np.array(counts, dtype=np.intp),
        np.array(indices, dtype=np.int32),
        np.array(values, dtype=float),
    )


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
    parse_libsvm(shard_seed=...) and shard(..., None) build.  Every other
    family, WithSquaredL2 members included, calls each member's grad and
    value in agent order; batched names the route.  Both routes give the
    members' own results bit for bit.

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


A9A_GROUP_SIZES = (5, 5, 5, 2, 2, 5, 8, 16, 7, 14, 6, 5, 2, 41)
"""Block widths of the 123-feature one-hot a9a encoding (14 groups)."""


def synthetic_classification(
    count: int, n: int, seed: int, *, group_sizes: tuple[int, ...] | None = None
) -> Dataset:
    """Grouped one-hot classification data with skewed, overlapping classes.

    Features form one-hot blocks: each sample turns on exactly one
    coordinate per group, with within-group frequencies decaying like
    1/rank so a few categories dominate.  Labels threshold a weak planted
    score (standardized, scaled by 0.4, blurred by noise of scale 0.45) at
    the quantile that makes 24% of samples positive, then 10% of labels
    are flipped outright.  That mirrors how encoded census-style sets such
    as a9a behave: heavy category reuse, roughly a quarter positive,
    classes that overlap rather than separate, and a minimizer near the
    origin instead of out where the loss saturates.

    group_sizes must sum to n when given; by default the coordinates are
    split near-evenly into min(14, n) groups.  Pass A9A_GROUP_SIZES for
    the real a9a block widths.  The last feature of sample 0 is pinned on
    so the dimension survives a file round trip.
    """
    if count < 1 or n < 2:
        raise ValueError(f"need count >= 1 and n >= 2, got ({count}, {n})")
    if group_sizes is None:
        groups = min(14, n)
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
    z = 0.4 * (raw - raw.mean()) / spread if spread > 0 else np.zeros(count)
    score = z + 0.45 * rng.standard_normal(count)
    threshold = np.quantile(score, 0.76)
    labels = np.where(score >= threshold, 1.0, -1.0)
    flips = rng.random(count) < 0.1
    labels[flips] *= -1.0
    return Dataset(features, labels)


def shard(dataset: Dataset, m: int, seed: int | None) -> list[Dataset]:
    """Split a dataset into m near-equal shards after a seeded shuffle.

    The shuffle copies the rows once, into the order
    _shard_order(count, seed); the shards are contiguous row views of
    that copy, the first count mod m one row longer.  With seed None the
    rows are taken as already in that order (parse_libsvm with
    shard_seed) and the shards are views of the input.  One shard is the
    input itself, unshuffled.
    """
    if m < 1:
        raise ValueError(f"need at least one shard, got m={m}")
    if m > dataset.count:
        raise ValueError(f"cannot split {dataset.count} samples into {m} shards")
    if m == 1:
        return [dataset]
    features, labels = dataset.features, dataset.labels
    if seed is not None:
        order = _shard_order(dataset.count, seed)
        features, labels = features[order], labels[order]
    return [
        Dataset(*piece)
        for piece in zip(np.array_split(features, m), np.array_split(labels, m))
    ]


def subsample(dataset: Dataset, count: int, seed: int) -> Dataset:
    """Seeded subsample without replacement."""
    if not 1 <= count <= dataset.count:
        raise ValueError(
            f"subsample size {count} out of range for {dataset.count} samples"
        )
    idx = _shard_order(dataset.count, seed)[:count]
    return Dataset(dataset.features[idx], dataset.labels[idx])
