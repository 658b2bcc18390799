"""Ingestion: LIBSVM text, shards and synthetic classification data.

Shard order is the one layout contract between ingestion and the losses.
parse_libsvm(..., shard_seed=s) writes each row straight into the place
that shard(..., seed=s) would move it to, so shard(..., seed=None) cuts
the m shards as consecutive row views of that one matrix, and
objectives.AgentFamily stacks equal-length views without a copy.  With
m > 1 and the whole file, cli.build_problem takes this route: its peak is
the dense matrix (43 MB for 100,000 covtype-shaped rows), a label and a
row position per sample, and the arrays of one read (4 MB).  A subsample
is drawn in file order instead, and shard shuffles its rows with a copy.

Ingestion is closed.  The parse is about 6% of a full-size covtype run at
T = 300 and leads only the benchmark's T = 10 covtype-shaped workload, so
a further parser change needs a workload where the parse is a large share
of a run at a realistic horizon.  Two findings stay open: pass 1 of
parse_libsvm splits every read into Python lines (str.splitlines), and a
read the byte kernel refuses parses 1.19 to 1.50 times slower than under
the former block parser.
"""

from __future__ import annotations

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
    every other check, as a MemoryError naming its shape.  Besides the
    matrix, the parse holds a label and a row position per sample, a line
    count per read and one read with either the kernel's arrays or its
    lines and their numbers.
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
    try:
        features = np.zeros((samples, n))
    except (MemoryError, ValueError):  # ValueError: a size past numpy's limit
        features = None  # reported after the checks below
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
    if features is None:
        raise MemoryError(f"cannot allocate the ({samples}, {n}) feature matrix")
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
