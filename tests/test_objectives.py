import itertools
import math
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

from proxnet import data, objectives
from proxnet.data import (
    Dataset,
    parse_libsvm,
    serialize_libsvm,
    shard,
    subsample,
    synthetic_classification,
)
from proxnet.objectives import (
    AgentFamily,
    Quadratic,
    SigmoidLoss,
    WithSquaredL2,
    agent_family,
    quadratic_family,
    sigmoid_curvature_peak,
    stable_sigmoid,
)

from oracles import (
    central_difference,
    parse_libsvm_by_token,
    shard_rows,
    sigmoid_loss_by_formula,
    spectral_norm_power,
    two_branch_sigmoid,
)
from workloads import covtype_libsvm  # the benchmark's covtype-shaped text


def _tiny_shard() -> Dataset:
    return Dataset(
        features=np.array([[1.0, 0.0, 2.0], [0.5, -1.0, 0.0]]),
        labels=np.array([1.0, -1.0]),
    )


def test_parse_single_line() -> None:
    data = parse_libsvm("+1 3:1.5")
    assert data.count == 1
    assert data.n == 3
    assert data.labels[0] == 1.0
    assert data.features[0] == pytest.approx([0.0, 0.0, 1.5])


def test_parse_errors_carry_line_numbers() -> None:
    with pytest.raises(ValueError, match="line 2"):
        parse_libsvm("+1 1:1\n-1 2:1 1:1\n")
    with pytest.raises(ValueError, match="line 1.*1-based"):
        parse_libsvm("+1 0:2.0")
    with pytest.raises(ValueError, match="line 1.*label"):
        parse_libsvm("spam 1:1")
    with pytest.raises(ValueError, match="line 3"):
        parse_libsvm("+1 1:1\n-1 1:1\n+1 1:notanumber")
    with pytest.raises(ValueError, match="idx:val"):
        parse_libsvm("+1 11.5")


def test_parse_rejects_non_binary_labels() -> None:
    with pytest.raises(ValueError, match="label set"):
        parse_libsvm("0 1:1\n2 1:1\n")
    with pytest.raises(ValueError, match="label set"):
        parse_libsvm("3 1:1\n")


def test_parse_label_families() -> None:
    zero_one = parse_libsvm("0 1:1\n1 2:1\n")
    assert list(zero_one.labels) == [-1.0, 1.0]
    one_two = parse_libsvm("1 1:1\n2 2:1\n")
    assert list(one_two.labels) == [-1.0, 1.0]
    # All-positive singleton stays +1 via the {-1,+1} family.
    ones = parse_libsvm("1 1:1\n1 2:1\n")
    assert list(ones.labels) == [1.0, 1.0]


def test_parse_dimension_override() -> None:
    data = parse_libsvm("+1 2:1.0", n_features=5)
    assert data.n == 5
    with pytest.raises(ValueError, match="exceeds"):
        parse_libsvm("+1 7:1.0", n_features=5)
    with pytest.raises(ValueError):
        parse_libsvm("")
    with pytest.raises(ValueError, match="dimension"):
        parse_libsvm("+1\n-1\n")


def _outcome(parse, source, n_features):
    """Bytes and shape of the parsed arrays, or the ValueError's message."""
    try:
        data = parse(source, n_features)
    except ValueError as exc:
        return str(exc)
    return data.features.shape, data.features.tobytes(), data.labels.tobytes()


def _by_token(source, n_features):
    return Dataset(*parse_libsvm_by_token(source, n_features))


def _assert_parses_like_token_loop(source, n_features=None) -> None:
    assert _outcome(parse_libsvm, source, n_features) == _outcome(
        _by_token, source, n_features
    )


@pytest.mark.parametrize(
    "text",
    [
        "+1 1:2:3 4",
        "+1 1: 2",
        "+1 1 :2",
        "+1 1 : 2",
        "+1 :1",
        "+1 1:",
        "+1 1:1 : 2:2",
        "+1 1:1 2",
        "1:1 2:2",
        "+1 1:1\n-1 2:1 2:1\n+1 x",
        "+1 3:1 2:1\n+1 0:1",
        "+1 1:0x1",
        "+1 1_0:1_0.5 11:-0 12:1e999",
        "+1 1:nan",
        "\n\n  \t\n",
        "+1\n-1",
        # Indices past 2**31 - 1 fail at their own line, before any
        # error that the whole file decides.
        "+1 99999999999999999999:1",
        "+1 99999999999999999999:1\n-1 1:1 x",
        "+1 9223372036854775808:1\n3 1:1",
    ],
)
@pytest.mark.parametrize("n_features", [None, 5])
def test_parse_matches_token_loop_on_edge_cases(text, n_features) -> None:
    _assert_parses_like_token_loop(text, n_features)


def _rows(count: int) -> list[str]:
    return [
        f"{'+1' if i % 3 else '-1'} {i % 5 + 1}:{i * 0.25!r} 7:{-i}"
        for i in range(count)
    ]


def _with(lines: list[str], changes: dict[int, str]) -> str:
    lines = list(lines)
    for position, line in changes.items():
        lines[position] = line
    return "\n".join(lines) + "\n"


LINES = 256  # lines of the first read in the read-boundary texts below


def _first_read(text: str) -> int:
    """_READ_CHARS that ends the first read of text after LINES lines."""
    return sum(map(len, text.splitlines(keepends=True)[:LINES]))


def _refused(text: str) -> None:
    """_convert_read's answer to every read here, so _parse_lines takes it."""
    return None


# Both routes of a read: the byte kernel, and _parse_lines for every read.
_ROUTES = [data._convert_read, _refused]


@pytest.mark.parametrize(
    "text, samples",
    [
        (_with(_rows(LINES), {}), LINES),
        (_with(_rows(LINES + 1), {}), LINES + 1),
        (_with(_rows(2 * LINES), {LINES - 1: ""}), 2 * LINES - 1),
        (_with(_rows(2 * LINES), {LINES: " \t"}), 2 * LINES - 1),
        (_with(_rows(2 * LINES), {LINES - 1: "-1", LINES: "+1"}), 2 * LINES),
    ],
    ids=[
        "one read",
        "one read plus one line",
        "blank line ends a read",
        "blank line starts a read",
        "label-only lines meet at a read boundary",
    ],
)
def test_parse_across_read_boundaries(text, samples) -> None:
    for route in _ROUTES:
        with mock.patch.multiple(
            data, _READ_CHARS=_first_read(text), _convert_read=route
        ):
            assert parse_libsvm(text).count == samples
            _assert_parses_like_token_loop(text)
            _assert_parses_like_token_loop(text, 9)


def test_parse_error_lines_are_numbered_in_the_whole_file() -> None:
    # The bad line starts the second read, or ends the first.
    for route, (change, message) in itertools.product(
        _ROUTES,
        [
            ({LINES: "+1 2:1 2:1"}, f"^line {LINES + 1}: index 2 not strictly"),
            ({LINES - 1: "+1 0:1"}, f"^line {LINES}: index 0 is not 1-based"),
        ],
    ):
        text = _with(_rows(LINES + 3), change)
        with mock.patch.multiple(
            data, _READ_CHARS=_first_read(text), _convert_read=route
        ):
            with pytest.raises(ValueError, match=message):
                parse_libsvm(text)


def test_parse_rejects_an_index_past_int32_at_its_line() -> None:
    # A declared dimension keeps the largest index from sizing a dense row.
    with pytest.raises(ValueError, match="^feature index 2147483647 exceeds declared"):
        parse_libsvm("+1 2147483647:1\n", n_features=5)
    text = "+1 2147483647:1\n-1 1:1 2147483648:1\n"
    message = "^line 2: index 2147483648 exceeds 2147483647$"
    with pytest.raises(ValueError, match=message):
        parse_libsvm(text, n_features=5)
    _assert_parses_like_token_loop(text, 5)
    # The line error comes before a malformed later line.
    text = "+1 1:1\n-1 2147483648:1\n+1 x\n"
    with pytest.raises(ValueError, match="^line 2: index 2147483648 exceeds"):
        parse_libsvm(text, n_features=5)
    _assert_parses_like_token_loop(text, 5)


def test_parse_reads_a_path_as_utf8(tmp_path) -> None:
    text = "+1 1:0.5 3:2\n-1 2:1\n"
    path = tmp_path / "data.libsvm"
    path.write_text(text, encoding="utf-8")
    assert _outcome(parse_libsvm, path, None) == _outcome(parse_libsvm, text, None)
    path.write_bytes(b"+1 1:0.5\n-1 2:\xff\n")
    with pytest.raises(UnicodeDecodeError):
        parse_libsvm(path)


# Fuzzed tokens are at most five characters, so an index stays below 10^5
# and a dense matrix of unset dimension stays small.  The longer tokens
# all hold an index outside the int32 range, which fails at its line.
_FUZZ_TOKENS = (
    st.text("0123456789:.+-ex", min_size=1, max_size=5)
    | st.lists(st.sampled_from(["", "1", "2", "0.5", "x"]), min_size=1, max_size=3)
    .map(":".join)
    .filter(bool)
    | st.sampled_from(["2147483648:1", "-2147483649:1", "99999999999999999999:x"])
)
_SPACES = st.sampled_from([" ", "  ", "\t", " \t "])
_LINE_BREAKS = st.sampled_from(["\n", "\r\n", "\n\n", "\n \t\n", "\r"])
_FLOATS = st.floats(allow_nan=False, allow_infinity=False).map(repr)
# Listed twice so that most values are finite and more texts parse.
_VALUES = st.one_of(
    _FLOATS,
    _FLOATS,
    st.sampled_from(["1_0", "+.5", "-.5E-3", "-0", "7", "1e-320", "١", "1e999"]),
)
_LABEL_PAIRS = st.sampled_from(
    [("+1", "-1"), ("1", "0"), ("2", "1.0"), ("1", "-1e0"), ("1", "-0")]
)


@st.composite
def _feature(draw, idx: int) -> str:
    form = draw(st.sampled_from(["{}", "+{}", "0{}"]))
    return form.format(idx) + ":" + draw(_VALUES)


@st.composite
def _line(draw, labels: tuple[str, str], dirty: bool) -> str:
    """A well-formed row, a row with fuzzed tokens mixed in, or pure fuzz."""
    kind = draw(st.sampled_from(["row", "mixed", "fuzz"] if dirty else ["row"]))
    if kind == "fuzz":
        tokens = draw(st.lists(_FUZZ_TOKENS, min_size=1, max_size=6))
    else:
        indices = sorted(draw(st.sets(st.integers(1, 12), max_size=6)))
        tokens = [draw(st.sampled_from(labels))]
        tokens += [draw(_feature(idx)) for idx in indices]
        for _ in range(draw(st.integers(1, 2)) if kind == "mixed" else 0):
            tokens.insert(draw(st.integers(1, len(tokens))), draw(_FUZZ_TOKENS))
    return "".join(draw(_SPACES) + token for token in tokens) + draw(
        st.sampled_from(["", " ", "\t"])
    )


@st.composite
def _libsvm_texts(draw) -> str:
    labels = draw(_LABEL_PAIRS)
    lines = draw(st.lists(_line(labels, draw(st.booleans())), max_size=8))
    text = "".join(line + draw(_LINE_BREAKS) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=300, deadline=None)
@given(text=_libsvm_texts(), n_features=st.none() | st.integers(0, 14))
def test_parse_matches_token_loop(text, n_features) -> None:
    _assert_parses_like_token_loop(text, n_features)


@settings(max_examples=200, deadline=None)
@given(
    text=_libsvm_texts(),
    n_features=st.none() | st.integers(0, 14),
    read=st.integers(1, 7),
)
def test_parse_matches_token_loop_whatever_the_read_size(text, n_features, read):
    # Reads of 1 to 7 characters cut these short texts everywhere,
    # between the "\r" and "\n" of a line break too.
    with mock.patch.object(data, "_READ_CHARS", read):
        _assert_parses_like_token_loop(text, n_features)


@settings(max_examples=100, deadline=None)
@given(
    text=_libsvm_texts(),
    n_features=st.none() | st.integers(0, 14),
    read=st.integers(1, 7),
)
def test_parse_fallback_alone_matches_token_loop(text, n_features, read) -> None:
    # Every read goes to _parse_lines, as one that the byte kernel refuses,
    # and short reads give it lines that start anywhere in the file.
    with mock.patch.multiple(data, _READ_CHARS=read, _convert_read=_refused):
        _assert_parses_like_token_loop(text, n_features)


@pytest.mark.parametrize(
    "text",
    [
        "+1 1:1 3:2\r\n-1 2:0.5\r\n+1 4:1\r\n",
        "+1 1:1\r-1 2:0.5\r\r+1 4:1\r",
        "+1 1:1\n-1 2:0.5\n+1 4:1",
        "+1 1:1\n \t \n\n-1 2:0.5\n  \n",
        "+1 1:1\r\n\r\n-1 2:1 2:1\r\n+1 1:1\r\n",
        "+1 1:1\r\r\n-1 x\r\n+1 1:1",
        "\r\n+1 12:1\r\n-1 3:1",
    ],
    ids=[
        "CRLF",
        "CR only",
        "no final line break",
        "whitespace-only lines",
        "CRLF, bad line 3",
        "CR then CRLF, bad line 3",
        "CRLF, widest index 12",
    ],
)
@pytest.mark.parametrize("n_features", [None, 9])
def test_parse_reads_a_text_or_a_path_in_any_pieces(tmp_path, text, n_features):
    path = tmp_path / "data.libsvm"
    path.write_bytes(text.encode("utf-8"))  # line breaks as they are
    expected = _outcome(_by_token, text, n_features)
    for read in range(1, 8):
        with mock.patch.object(data, "_READ_CHARS", read):
            assert _outcome(parse_libsvm, text, n_features) == expected
            assert _outcome(parse_libsvm, path, n_features) == expected


def test_parse_names_a_bad_byte_by_its_place_in_the_file(tmp_path) -> None:
    # Past the first 8 KiB that a text file decodes at once.
    path = tmp_path / "data.libsvm"
    path.write_bytes(b"+1 1:0.5\n" * 2000 + b"-1 2:\xff\n")
    with pytest.raises(UnicodeDecodeError) as whole:
        path.read_text(encoding="utf-8")
    assert "position 18005" in str(whole.value)
    for read in (7, data._READ_CHARS):
        with mock.patch.object(data, "_READ_CHARS", read):
            with pytest.raises(UnicodeDecodeError) as streamed:
                parse_libsvm(path)
        assert str(streamed.value) == str(whole.value)


def test_parse_checks_every_line_before_it_allocates_the_matrix() -> None:
    # A 2 x 10^15 matrix (14.2 PiB) is past the 128 TiB of address space
    # that Linux gives a process, so its allocation fails untouched.
    with pytest.raises(ValueError, match="^line 2: expected idx:val, got 'x'$"):
        parse_libsvm("+1 1:0.5\n-1 x\n", n_features=10**15)
    with pytest.raises(ValueError, match="^label set"):
        parse_libsvm("+1 1:0.5\n3 2:1\n", n_features=10**15)
    with pytest.raises(MemoryError):
        parse_libsvm("+1 1:0.5\n-1 2:1\n", n_features=10**15)
    # An inferred width of 2**31 - 1 over 9002 rows asks for 144 TiB.
    text = "+1 2147483647:1\n" + "-1 1:1\n" * 9000 + "+1 x\n"
    with pytest.raises(ValueError, match="^line 9002: expected idx:val"):
        parse_libsvm(text)


def _fallbacks(source, n_features=None) -> int:
    """Reads of source that the byte kernel refused and _parse_lines
    converted, after checking that source parses like the token loop."""
    with mock.patch.object(
        data, "_parse_lines", wraps=data._parse_lines
    ) as fallback:
        _assert_parses_like_token_loop(source, n_features)
    return fallback.call_count


# A number the byte kernel converts: an optional sign, then at most
# _FIELD_DIGITS digits with at most one point among them, leading zeros,
# "5." and ".5" included.
@st.composite
def _plain_decimals(draw) -> str:
    sign = draw(st.sampled_from(["", "+", "-"]))
    digits = draw(st.text("0123456789", min_size=1, max_size=data._FIELD_DIGITS))
    point = draw(st.none() | st.integers(0, len(digits)))
    if point is None:
        return sign + digits
    return f"{sign}{digits[:point]}.{digits[point:]}"


@st.composite
def _plain_texts(draw) -> str:
    labels = draw(
        st.sampled_from([("+1", "-1"), ("1", "0"), ("2", "1.0"), ("1", "-0"), ("1", "-1")])
    )
    spaces = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = []
    for _ in range(draw(st.integers(0, 8))):
        fields = [draw(st.sampled_from(labels))]
        for idx in sorted(draw(st.sets(st.integers(1, 12), max_size=6))):
            zeros = draw(st.sampled_from(["", "0", "00"]))
            fields.append(f"{zeros}{idx}:{draw(_plain_decimals())}")
        line = "".join(draw(spaces) + field for field in fields)
        lines.append(line[draw(st.integers(0, 1)) :] + draw(st.sampled_from(["", " "])))
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(st.sampled_from(["", " ", "\t "])))
    breaks = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join(line + draw(breaks) for line in lines)
    return text if draw(st.booleans()) else text.rstrip("\r\n")


@settings(max_examples=200, deadline=None)
@given(
    text=_plain_texts(),
    n_features=st.none() | st.integers(0, 14),
    read=st.integers(1, 64) | st.just(data._READ_CHARS),
)
def test_parse_kernel_matches_token_loop_on_plain_decimals(text, n_features, read):
    with mock.patch.object(data, "_READ_CHARS", read):
        assert _fallbacks(text, n_features) == 0


@pytest.mark.parametrize(
    "text, n_features, kernel",
    [
        # A field of 17 bytes (sign, point and 15 digits), and one of 18.
        ("+1 1:-1.23456789012345 2:+12345678901234.\n", None, True),
        ("+1 1:-1.234567890123456\n", None, False),
        # Fields of 258 and 257 bytes, which a length kept modulo 256 would
        # take for fields of 2 and 1 bytes.
        ("+1 1:1" + "0" * 256 + "5\n", None, False),
        ("2" + "0" * 255 + "1 1:1\n", None, False),
        ("+1 1" + "0" * 255 + "2:1\n", None, False),
        # 15 digits, and 16 (leading zeros count), with or without a point.
        ("+1 1:123456789012345 2:999999999999999 3:1\n", None, True),
        ("+1 1:1234567890123456\n", None, False),
        ("+1 1:1.234567890123456\n", None, False),
        ("+1 1:0.123456789012345\n", None, False),
        ("-0 1:-0 2:+.5 3:5. 4:-.0 5:-0.0\n+1 1:1\n", None, True),
        ("+1 007:0005.2500 010:-000.5 011:.0000001\n", None, True),
        ("+1 1:0.5\r-1 2:1\r\r+1 3:2", None, True),
        ("+1 1:0.5\r\n-1 2:1\r\r\n\r\n+1 3:2\n", None, True),
        # The largest index takes the kernel; the dimension check refuses it.
        ("+1 2147483647:1\n", 5, True),
        ("+1 2147483648:1\n", 5, False),
        ("+1 2:1 1:1\n", None, False),
        ("+1 1:1 1:2\n", None, False),
        ("+1 1:1 2:\n", None, False),
        ("+1 +1:1\n", None, False),
        ("+1 1.0:1\n", None, False),
        ("+1 1:1-\n", None, False),
        ("+1 1:1..\n", None, False),
        ("+1 1:-\n", None, False),
        ("+1 1:+.\n", None, False),
        ("+1 1:1\x0b-1 1:1\n", None, False),
        ("+1 1:1e3\n", None, False),
    ],
)
def test_parse_kernel_takes_what_it_can_and_refuses_the_rest(text, n_features, kernel):
    assert (_fallbacks(text, n_features) == 0) == kernel


def test_parse_kernel_refuses_a_read_whose_last_line_is_bad() -> None:
    good = "+1 1:0.5 3:2\n-1 2:0.25\n"
    # Reads of len(good) + 7 characters: the bad line ends the first read,
    # or, with no line break after it, the file.
    for text in (good + "+1 4:x\n" + good, good + good + "+1 4:x"):
        with mock.patch.object(data, "_READ_CHARS", len(good) + 7):
            with pytest.raises(ValueError, match="^line [35]: bad feature '4:x'$"):
                parse_libsvm(text)
            assert _fallbacks(text) == 1
    assert _fallbacks(good + good + good) == 0


def _seventeen_digits(text: str) -> str:
    """text with each value written as %.17g, too many digits for the kernel."""
    lines = []
    for label, *fields in map(str.split, text.splitlines()):
        pairs = (field.partition(":") for field in fields)
        lines.append(" ".join([label] + [f"{i}:{float(v):.17g}" for i, _, v in pairs]))
    return "\n".join(lines) + "\n"


def test_parse_kernel_takes_the_shipped_and_covtype_shaped_files() -> None:
    text = (Path(__file__).parents[1] / "data" / "synthetic.libsvm").read_text()
    assert _fallbacks(text) == 0
    assert _fallbacks(text, 123) == 0
    covtype = covtype_libsvm(3000, 0)
    assert _fallbacks(covtype, 54) == 0
    # Every read of the %.17g copy goes to _parse_lines.
    long = _seventeen_digits(covtype)
    with mock.patch.object(data, "_READ_CHARS", 4096):
        reads = [read for read in data._chunks(long) if read]
        assert _fallbacks(long, 54) == len(reads) > 1


def test_serialize_round_trip() -> None:
    data = synthetic_classification(count=60, n=17, seed=4)
    again = parse_libsvm(serialize_libsvm(data))
    assert again.n == data.n
    assert np.array_equal(again.features, data.features)
    assert np.array_equal(again.labels, data.labels)


def test_serialize_pins_dimension_when_last_column_zero() -> None:
    data = Dataset(np.array([[1.0, 0.0], [2.0, 0.0]]), np.array([1.0, -1.0]))
    text = serialize_libsvm(data)
    assert "2:0.0" in text.splitlines()[0]
    assert parse_libsvm(text).n == 2


def test_dataset_validation() -> None:
    with pytest.raises(ValueError, match="labels"):
        Dataset(np.zeros((2, 3)), np.array([1.0, 0.5]))
    with pytest.raises(ValueError, match="label count"):
        Dataset(np.zeros((2, 3)), np.array([1.0]))
    with pytest.raises(ValueError, match="finite"):
        Dataset(np.array([[np.inf]]), np.array([1.0]))


def test_stable_sigmoid_extremes() -> None:
    u = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
    s = stable_sigmoid(u)
    assert np.all(np.isfinite(s))
    assert s[0] == pytest.approx(1.0)
    assert s[2] == pytest.approx(0.5)
    assert s[4] == pytest.approx(0.0, abs=1e-300)
    assert np.all(np.diff(s) < 0)


_SIGMOID_EDGES = np.array(
    [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2250738585072014e-308]
    + [-1e-310, 700.5, -700.5, 745.2, -745.2, 1e300, -1e300]
)
_ANY_FLOAT = (
    st.floats()
    | st.floats(-40.0, 40.0)
    | st.floats(min_value=700.0)
    | st.floats(max_value=-700.0)
)


@settings(max_examples=200, deadline=None)
@given(u=arrays(np.float64, st.integers(0, 50), elements=_ANY_FLOAT))
def test_stable_sigmoid_matches_the_two_branch_form_bit_for_bit(u) -> None:
    u = np.concatenate([_SIGMOID_EDGES, u])
    assert stable_sigmoid(u).tobytes() == two_branch_sigmoid(u).tobytes()


@settings(max_examples=50, deadline=None)
@given(u=arrays(np.float64, st.integers(0, 50), elements=_ANY_FLOAT))
def test_stable_sigmoid_never_writes_into_its_argument(u) -> None:
    u = np.concatenate([_SIGMOID_EDGES, u])
    before = u.tobytes()
    stable_sigmoid(u)
    assert u.tobytes() == before
    u.setflags(write=False)  # a write would raise
    assert stable_sigmoid(u).tobytes() == two_branch_sigmoid(u).tobytes()
    zero_d = np.array(-3.0)
    assert float(stable_sigmoid(zero_d)) == float(two_branch_sigmoid(zero_d))
    assert zero_d == -3.0


@settings(max_examples=100, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 30), st.integers(1, 4)),
    data=st.data(),
)
def test_sigmoid_value_is_the_mean_bit_for_bit(shape, data) -> None:
    finite = st.floats(-1e3, 1e3)
    features = data.draw(arrays(np.float64, shape, elements=finite))
    signs = st.sampled_from([-1.0, 1.0])
    labels = data.draw(arrays(np.float64, shape[0], elements=signs))
    x = data.draw(arrays(np.float64, shape[1], elements=finite))
    expected = float(np.mean(two_branch_sigmoid(labels * (features @ x))))
    value = SigmoidLoss(Dataset(features, labels)).value(x)
    assert np.float64(value).tobytes() == np.float64(expected).tobytes()


def test_sigmoid_value_at_origin() -> None:
    loss = SigmoidLoss(_tiny_shard())
    assert loss.value(np.zeros(3)) == pytest.approx(0.5)


def test_sigmoid_value_single_sample() -> None:
    # One sample with margin u = ln 3 gives 1/(1+3) = 0.25.
    data = Dataset(np.array([[1.0]]), np.array([1.0]))
    loss = SigmoidLoss(data)
    assert loss.value(np.array([math.log(3.0)])) == pytest.approx(0.25)


def test_sigmoid_value_monotone_in_margin() -> None:
    data = Dataset(np.array([[1.0, 2.0]]), np.array([1.0]))
    loss = SigmoidLoss(data)
    x = np.array([0.3, 0.4])
    values = [loss.value(t * x) for t in (0.0, 1.0, 5.0, 50.0)]
    assert all(a > b for a, b in zip(values, values[1:]))
    assert values[-1] < 1e-10


def test_sigmoid_grad_at_origin() -> None:
    a = np.array([1.0, -2.0, 0.5])
    for label in (1.0, -1.0):
        loss = SigmoidLoss(Dataset(a[None, :], np.array([label])))
        assert loss.grad(np.zeros(3)) == pytest.approx(-0.25 * label * a)


def test_sigmoid_grad_zero_features() -> None:
    loss = SigmoidLoss(Dataset(np.zeros((3, 2)), np.array([1.0, -1.0, 1.0])))
    assert loss.grad(np.ones(2)) == pytest.approx(np.zeros(2))


def test_sigmoid_rejects_empty_and_mismatch() -> None:
    with pytest.raises(ValueError):
        SigmoidLoss(Dataset(np.zeros((0, 3)), np.zeros(0)))
    loss = SigmoidLoss(_tiny_shard())
    with pytest.raises(ValueError):
        loss.value(np.zeros(4))


def test_sigmoid_grad_matches_finite_differences() -> None:
    data = synthetic_classification(count=40, n=6, seed=9)
    loss = SigmoidLoss(data)
    rng = np.random.default_rng(1)
    for _ in range(20):
        x = rng.standard_normal(6)
        approx = central_difference(loss.value, x)
        grad = loss.grad(x)
        assert np.linalg.norm(grad - approx) < 1e-5 * max(
            1.0, np.linalg.norm(grad)
        )


def _curvature_peak_by_search() -> float:
    """Grid search over [-10, 10] at step 1e-4, then ternary refinement."""

    def curvature(u: float) -> float:
        s = float(stable_sigmoid(np.array(u)))
        return abs(s * (1.0 - s) * (1.0 - 2.0 * s))

    grid = np.arange(-10.0, 10.0 + 1e-4, 1e-4)
    s = stable_sigmoid(grid)
    best = int(np.argmax(np.abs(s * (1.0 - s) * (1.0 - 2.0 * s))))
    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, grid.size - 1)]
    while hi - lo > 1e-12:
        third = (hi - lo) / 3.0
        c, d = lo + third, hi - third
        if curvature(c) < curvature(d):
            lo = c
        else:
            hi = d
    return curvature(0.5 * (lo + hi))


def test_curvature_peak_value() -> None:
    # The analytic maximum of |s(1-s)(1-2s)| over s in (0,1) is 1/(6 sqrt 3).
    assert abs(sigmoid_curvature_peak() - _curvature_peak_by_search()) <= 1e-15
    # Pinned to the bit: the seed-0 benchmark reference traces depend on
    # this float through L, alpha and the residual bound.
    assert sigmoid_curvature_peak() == 0.09622504486493763


def test_sigmoid_lipschitz_single_unit_sample() -> None:
    loss = SigmoidLoss(Dataset(np.array([[1.0]]), np.array([1.0])))
    assert loss.lipschitz() == pytest.approx(0.09622504486493764, abs=1e-9)


def test_sigmoid_lipschitz_probe() -> None:
    data = synthetic_classification(count=25, n=5, seed=11)
    loss = SigmoidLoss(data)
    bound = loss.lipschitz()
    rng = np.random.default_rng(4)
    for _ in range(500):
        x = rng.standard_normal(5) * 2
        y = rng.standard_normal(5) * 2
        lhs = np.linalg.norm(loss.grad(x) - loss.grad(y))
        assert lhs <= bound * np.linalg.norm(x - y) * (1 + 1e-8)


@pytest.mark.parametrize("order", ["C", "F"])
@pytest.mark.parametrize("n", [3, 300])
@pytest.mark.parametrize("extra", [-1, 0, 1])
def test_sigmoid_lipschitz_squares_row_blocks_bit_for_bit(order, n, extra) -> None:
    # Shards one row shorter than, as long as and one row longer than a
    # block; 300 features put each row's sum on numpy's pairwise path.
    rows = objectives._SQUARE_ROWS + extra
    rng = np.random.default_rng(rows * n)
    features = rng.standard_normal((rows, n)) * rng.uniform(0.01, 100.0, (rows, 1))
    features = np.asarray(features, order=order)
    loss = SigmoidLoss(Dataset(features, rng.choice([-1.0, 1.0], rows)))
    mean = float(np.mean(np.sum(features**2, axis=1)))
    assert loss.lipschitz() == sigmoid_curvature_peak() * mean


def test_sigmoid_lipschitz_squares_no_copy_of_a_long_shard() -> None:
    rows, n = 8 * objectives._SQUARE_ROWS + 3, 20
    rng = np.random.default_rng(6)
    loss = SigmoidLoss(Dataset(rng.standard_normal((rows, n)), np.ones(rows)))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        loss.lipschitz()
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # One squared block and the row sums, against 1.3 MB for a whole copy.
    assert peak <= 8 * (objectives._SQUARE_ROWS * n + rows) + 10_000


def test_quadratic_value_and_grad() -> None:
    quad = Quadratic(np.diag([1.0, 2.0]), np.array([1.0, -1.0]))
    x = np.array([2.0, 0.0])
    assert quad.value(x) == pytest.approx(1.5)
    assert quad.grad(x) == pytest.approx([1.0, 2.0])
    assert quad.lipschitz() == pytest.approx(2.0)
    assert Quadratic(np.eye(3), np.zeros(3)).lipschitz() == pytest.approx(1.0)


def test_quadratic_validation() -> None:
    with pytest.raises(ValueError, match="square"):
        Quadratic(np.ones((2, 3)), np.zeros(2))
    with pytest.raises(ValueError, match="symmetric"):
        Quadratic(np.array([[1.0, 0.5], [0.0, 1.0]]), np.zeros(2))
    with pytest.raises(ValueError, match="center"):
        Quadratic(np.eye(2), np.zeros(3))


def test_quadratic_lipschitz_matches_eigensolver() -> None:
    rng = np.random.default_rng(6)
    for _ in range(10):
        factor = rng.standard_normal((7, 7))
        q = factor @ factor.T / 7 + 0.5 * np.eye(7)
        quad = Quadratic(q, np.zeros(7))
        want = float(np.max(np.linalg.eigvalsh(q)))
        assert quad.lipschitz() == pytest.approx(want, rel=1e-6)


def test_quadratic_family_reproducible() -> None:
    fam1 = quadratic_family(m=3, n=4, seed=5)
    fam2 = quadratic_family(m=3, n=4, seed=5)
    assert len(fam1) == 3
    for a, b in zip(fam1, fam2):
        assert np.array_equal(a.q, b.q)
        assert np.array_equal(a.c, b.c)
    # Members differ from each other and the family is well conditioned.
    assert not np.array_equal(fam1[0].q, fam1[1].q)
    for quad in fam1:
        assert float(np.min(np.linalg.eigvalsh(quad.q))) >= 0.5 - 1e-12


def test_quadratic_family_members_are_views_of_one_stack() -> None:
    family = quadratic_family(m=6, n=5, seed=3)
    stack = family[0].q.base
    assert stack.shape == (6, 5, 5)
    for quad in family:
        assert quad.q.base is stack and np.shares_memory(quad.q, stack)
        # The constant filled in by the family's batched iteration is the
        # one the member computes alone, bit for bit.
        alone = Quadratic(quad.q.copy(), quad.c).lipschitz()
        assert quad.lipschitz() == alone == spectral_norm_power(quad.q)


def _symmetric_stack(seed: int, n: int, ratios: list[float]) -> np.ndarray:
    """One symmetric n x n matrix per ratio |second eigenvalue / first|.

    The eigenvectors are random and the signs of the eigenvalues mixed, so
    a power iteration stops later the closer the ratio is to 1.
    """
    rng = np.random.default_rng(seed)
    stack = np.empty((len(ratios), n, n))
    for i, ratio in enumerate(ratios):
        basis, _ = np.linalg.qr(rng.standard_normal((n, n)))
        top = rng.uniform(0.1, 10.0)
        spectrum = top * np.concatenate([[1.0, ratio], ratio * rng.random(n)])[:n]
        spectrum *= rng.choice([-1.0, 1.0], size=n)
        q = (basis * spectrum) @ basis.T
        stack[i] = (q + q.T) / 2.0
    return stack


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 12),
    ratios=st.lists(st.floats(0.0, 0.995), min_size=1, max_size=8),
    zero=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
)
def test_power_norms_match_the_per_matrix_oracle(n, ratios, zero, seed) -> None:
    stack = _symmetric_stack(seed, n, ratios)
    if zero < len(stack):
        stack[zero] = 0.0
    got = objectives._power_norms(stack)
    assert got.tolist() == [spectral_norm_power(q) for q in stack]


def test_power_norms_step_cap_matches_the_oracle() -> None:
    # On the 3 x 3 Jordan block of eigenvalue 1, ||Q x|| after k steps is
    # about 1 + 2/k: it still moves by about 2e-8 relative at k = 10,000,
    # so that member stops at the step cap, after the other two stop.
    stack = np.array(
        [np.eye(3) + np.eye(3, k=1), np.diag([2.0, 1.0, 0.5]), np.diag([3.0, 1.0, 1.0])]
    )
    got = objectives._power_norms(stack)
    assert got.tolist() == [spectral_norm_power(q) for q in stack]


def test_power_norms_hold_at_most_half_a_stack_beyond_the_input() -> None:
    # Members stop one after another, so the active set is compacted from
    # 8 to 4, 2 and 1 matrices; each copy replaces the one before it.
    stack = _symmetric_stack(0, 64, [0.1, 0.2, 0.3, 0.4, 0.6, 0.8, 0.9, 0.95])
    matrix_bytes = stack.nbytes // len(stack)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        got = objectives._power_norms(stack)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert got.tolist() == [spectral_norm_power(q) for q in stack]
    # Half the stack, plus less than one matrix of (k, n) vectors.
    assert peak <= stack.nbytes // 2 + matrix_bytes


def test_with_squared_l2_wrapper() -> None:
    base = Quadratic(np.eye(2), np.array([1.0, 1.0]))
    obj = WithSquaredL2(base, lam2=0.25)
    x = np.array([2.0, -1.0])
    assert obj.value(x) == pytest.approx(base.value(x) + 0.25 * 5.0)
    assert obj.grad(x) == pytest.approx(base.grad(x) + 0.5 * x)
    assert obj.lipschitz() == pytest.approx(base.lipschitz() + 0.5)
    approx = central_difference(obj.value, x)
    assert obj.grad(x) == pytest.approx(approx, abs=1e-5)
    with pytest.raises(ValueError):
        WithSquaredL2(base, lam2=-0.1)


def _loop_grads(members, x_all) -> np.ndarray:
    return np.array([obj.grad(x) for obj, x in zip(members, x_all)])


def _assert_family_matches_loop(family, members, x_all, x) -> None:
    m, n = x_all.shape
    assert len(family) == m
    assert np.array_equal(family.grad(x_all), _loop_grads(members, x_all))
    same = np.broadcast_to(x, (m, n))
    assert np.array_equal(family.grad(same), _loop_grads(members, same))
    gaps = _loop_grads(members, x_all) - _loop_grads(members, same)
    assert np.array_equal(family.grad(x_all) - family.grad(same), gaps)
    assert np.array_equal(family.value(x), np.array([obj.value(x) for obj in members]))
    assert family.lipschitz() == max(obj.lipschitz() for obj in members)


@settings(max_examples=150, deadline=None)
@given(
    m=st.integers(1, 12),
    n=st.integers(1, 8),
    kind=st.sampled_from(["quadratic", "equal-shards", "unequal-shards"]),
    ridge=st.sampled_from([None, 0.0, 0.7]),
    scale=st.sampled_from([1e-3, 1.0, 30.0]),
    seed=st.integers(0, 2**16),
)
def test_agent_family_matches_the_per_agent_loop(m, n, kind, ridge, scale, seed):
    rng = np.random.default_rng(seed)
    if kind == "quadratic":
        members = quadratic_family(m, n, seed)
    else:
        extra = int(rng.integers(1, m)) if kind == "unequal-shards" and m > 1 else 0
        count = m * int(rng.integers(1, 300)) + extra
        data = Dataset(rng.standard_normal((count, n)), rng.choice([-1.0, 1.0], count))
        members = [SigmoidLoss(piece) for piece in shard(data, m, None)]
    if ridge is not None:
        members = [WithSquaredL2(obj, ridge) for obj in members]
    family = AgentFamily(members)
    # Bare quadratic_family members and bare equal shards are stacked;
    # unequal shards and WithSquaredL2 members take the loop.
    assert family.batched == (ridge is None and (kind != "unequal-shards" or m == 1))
    x_all = scale * rng.standard_normal((m, n))
    _assert_family_matches_loop(family, members, x_all, scale * rng.standard_normal(n))


def _assert_sigmoid_matches_the_formula(members, family, x_all, x_bar) -> None:
    """Members and family against sigmoid_loss_by_formula, bit for bit."""
    at_x = [
        sigmoid_loss_by_formula(obj.shard.features, obj.shard.labels, x)
        for obj, x in zip(members, x_all)
    ]
    at_bar = [
        sigmoid_loss_by_formula(obj.shard.features, obj.shard.labels, x_bar)
        for obj in members
    ]
    for obj, x, (value, grad) in zip(members, x_all, at_x):
        assert obj.grad(x).tobytes() == grad.tobytes()
        assert np.float64(obj.value(x)).tobytes() == np.float64(value).tobytes()
    grads = np.array([grad for _, grad in at_x])
    grads_at_bar = np.array([grad for _, grad in at_bar])
    assert family.grad(x_all).tobytes() == grads.tobytes()
    gaps = family.grad(x_all) - family.grad(np.broadcast_to(x_bar, x_all.shape))
    assert gaps.tobytes() == (grads - grads_at_bar).tobytes()
    values = np.array([value for value, _ in at_bar])
    assert family.value(x_bar).tobytes() == values.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(1, 8),
    rows=st.integers(1, 299),
    n=st.integers(1, 4),
    unequal=st.booleans(),
    scale=st.sampled_from([1e-3, 1.0, 30.0, 800.0]),
    seed=st.integers(0, 2**16),
)
def test_sigmoid_kernel_matches_the_formula_oracle(m, rows, n, unequal, scale, seed):
    # Member and family share one kernel, so their own agreement cannot
    # catch a wrong formula; this oracle writes the formulas out.
    rng = np.random.default_rng(seed)
    count = m * rows + (int(rng.integers(1, m)) if unequal and m > 1 else 0)
    # With x in {-1, 0, 1}^n the margins reach |u| = scale, up to 800,
    # where e^-|u| underflows; zero rows give +0, and -0 under label -1.
    features = rng.uniform(-scale, scale, (count, n)) / n
    features[rng.random(count) < 0.2] = 0.0
    data = Dataset(features, rng.choice([-1.0, 1.0], count))
    members = [SigmoidLoss(piece) for piece in shard(data, m, None)]
    family = AgentFamily(members)
    assert family.batched == (count == m * rows)
    x_all = rng.choice([-1.0, 0.0, 1.0], (m, n))
    _assert_sigmoid_matches_the_formula(members, family, x_all, x_all.mean(axis=0))


def test_sigmoid_kernel_at_covtype_shape_matches_the_formula_in_little_memory():
    m, rows, n = 10, 10_000, 54
    rng = np.random.default_rng(5)
    data = Dataset(
        rng.standard_normal((m * rows, n)), rng.choice([-1.0, 1.0], m * rows)
    )
    members = [SigmoidLoss(piece) for piece in shard(data, m, None)]
    family = AgentFamily(members)
    assert family.batched
    x_all = 0.3 * rng.standard_normal((m, n))
    _assert_sigmoid_matches_the_formula(members, family, x_all, x_all.mean(axis=0))
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        family.grad(x_all)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    # The margins are m * rows floats; the kernel works in them in place.
    assert peak <= 3.25 * m * rows * 8


@pytest.mark.parametrize(
    "kind, m, rows, n",
    [
        ("sigmoid", 10, 200, 123),  # a9a-matchings shards
        ("sigmoid", 10, 2_000, 54),  # covtype-shaped shards, a fifth as tall
        ("quadratic", 200, None, 20),  # m200-matchings
    ],
)
def test_agent_family_matches_the_loop_at_workload_shapes(kind, m, rows, n) -> None:
    # Pairwise summation and BLAS blocking change order only past a few
    # elements, so the hypothesis draws alone do not reach these sizes.
    rng = np.random.default_rng(3)
    if kind == "quadratic":
        members = quadratic_family(m, n, 3)
    else:
        data = synthetic_classification(count=m * rows, n=n, seed=3)
        members = [SigmoidLoss(piece) for piece in shard(data, m, None)]
    family = AgentFamily(members)
    assert family.batched
    x_all = rng.standard_normal((m, n))
    _assert_family_matches_loop(family, members, x_all, x_all.mean(axis=0))


def _members(kind: str, m: int, n: int, seed: int) -> list:
    """Batched quadratics, batched sigmoid shards or unequal (looped) shards."""
    if kind == "quadratic":
        return quadratic_family(m, n, seed)
    rng = np.random.default_rng(seed)
    count = m * int(rng.integers(1, 40)) + (m - 1 if kind == "unequal-shards" else 0)
    data = Dataset(rng.standard_normal((count, n)), rng.choice([-1.0, 1.0], count))
    return [SigmoidLoss(piece) for piece in shard(data, m, None)]


@settings(max_examples=200, deadline=None)
@given(
    kind=st.sampled_from(["quadratic", "equal-shards", "unequal-shards"]),
    m=st.integers(1, 6),
    n=st.integers(1, 5),
    calls=st.lists(
        st.tuples(
            st.sampled_from(["grad", "grad at mean", "grad at tiled mean", "value"]),
            st.integers(0, 2),
            st.booleans(),
        ),
        min_size=1,
        max_size=12,
    ),
    seed=st.integers(0, 2**16),
)
def test_agent_family_remembers_without_changing_a_result(kind, m, n, calls, seed):
    # Any interleaving of the evaluations the solver and e make, on three
    # points of which the third is the first with its zeros negated: every
    # result is the bytes a fresh family gives, also after the caller has
    # written into an earlier result.
    members = _members(kind, m, n, seed)
    family = AgentFamily(members)
    assert family.batched == (kind != "unequal-shards" or m == 1)
    rng = np.random.default_rng(seed + 1)
    first = rng.choice([-1.0, 0.0, 0.5, 2.0], (m, n))
    negated = np.where(first == 0.0, -0.0, first)
    points = [first, rng.standard_normal((m, n)), negated]
    for call, which, scribble in calls:
        x_all = points[which]
        x_bar = x_all.mean(axis=0)
        if call == "value":
            got, want = family.value(x_bar), AgentFamily(members).value(x_bar)
        else:
            if call == "grad at mean":
                x_all = np.broadcast_to(x_bar, (m, n))
            elif call == "grad at tiled mean":
                x_all = np.tile(x_bar, (m, 1))
            got, want = family.grad(x_all), AgentFamily(members).grad(x_all)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        if scribble:
            got[...] = np.nan


@pytest.mark.parametrize("kind", ["quadratic", "equal-shards", "unequal-shards"])
def test_agent_family_reads_each_point_of_a_run_once(kind) -> None:
    # A run evaluates grad(x), then e's grad(x) and grad(mean x), then the
    # next row's value(mean x'): the repeats are remembered, so each
    # iteration reads the features twice on the batched sigmoid route and
    # calls each member's grad twice on the loop.
    m, n, iterations = 4, 3, 5
    members = _members(kind, m, n, 7)
    family = AgentFamily(members)
    member_calls = mock.patch.object(
        type(members[0]), "grad", autospec=True, side_effect=type(members[0]).grad
    )
    products = mock.patch.object(
        objectives, "_sigmoid_values", side_effect=objectives._sigmoid_values
    )
    rng = np.random.default_rng(8)
    x_all = rng.standard_normal((m, n))
    with member_calls as grads, products as passes:
        family.value(x_all.mean(axis=0))
        for _ in range(iterations):
            family.grad(x_all)
            family.grad(x_all)
            family.grad(np.broadcast_to(x_all.mean(axis=0), (m, n)))
            x_all = x_all + rng.standard_normal((m, n))
            family.value(x_all.mean(axis=0))
    if kind == "unequal-shards":
        assert grads.call_count == 2 * m * iterations
    else:
        assert grads.call_count == 0
    if kind == "equal-shards":
        assert passes.call_count == 1 + 2 * iterations
    if kind == "unequal-shards":  # a member's value and grad at a mean are two passes
        assert passes.call_count == m * (1 + 3 * iterations)


def test_agent_family_loops_over_what_it_cannot_stack() -> None:
    class Shifted(Quadratic):
        def grad(self, x):
            return super().grad(x) + 1.0

    stack = quadratic_family(3, 2, 0)
    apart = [Quadratic(obj.q.copy(), obj.c) for obj in stack]
    subclassed = [Shifted(obj.q, obj.c) for obj in stack]
    mixed = [stack[0], WithSquaredL2(stack[1], 0.5), stack[2]]
    ridges = [WithSquaredL2(obj, 0.5) for obj in stack]
    assert AgentFamily(stack).batched
    x_all = np.arange(6.0).reshape(3, 2)
    for members in (apart, subclassed, mixed, ridges):
        family = AgentFamily(members)
        assert not family.batched
        assert np.array_equal(family.grad(x_all), _loop_grads(members, x_all))
    assert np.array_equal(
        AgentFamily(subclassed).grad(x_all), AgentFamily(stack).grad(x_all) + 1.0
    )
    assert agent_family(stack).batched
    family = AgentFamily(stack)
    assert agent_family(family) is family


def test_agent_family_views_the_shards_without_a_copy() -> None:
    rng = np.random.default_rng(4)
    data = Dataset(rng.standard_normal((20_000, 50)), rng.choice([-1.0, 1.0], 20_000))
    members = [SigmoidLoss(piece) for piece in shard(data, 10, None)]
    AgentFamily(members)  # first-call imports and caches come before the count
    tracemalloc.start()
    try:
        family = AgentFamily(members)
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    assert family.batched
    # The features take 8 MB; the family holds views of them.  Only array
    # data counts (numpy's tracemalloc domain): a dict of the interpreter's
    # that happens to grow meanwhile is not the family's.
    domain = tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)
    held = sum(trace.size for trace in snapshot.filter_traces([domain]).traces)
    assert held < 100_000


def test_shard_sizes_and_union() -> None:
    data = synthetic_classification(count=10, n=4, seed=1)
    shards = shard(data, m=3, seed=7)
    assert sorted(s.count for s in shards) == [3, 3, 4]
    assert shards[0].count == 4
    stacked = np.vstack([s.features for s in shards])
    assert np.array_equal(
        np.sort(stacked.ravel()), np.sort(data.features.ravel())
    )
    total_labels = np.concatenate([s.labels for s in shards])
    assert np.sort(total_labels).tolist() == np.sort(data.labels).tolist()


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(2, 40), m=st.integers(2, 40), seed=st.integers(0, 2**16)
)
def test_shard_matches_the_row_oracle(count, m, seed) -> None:
    m = min(m, count)
    data = synthetic_classification(count=count, n=3, seed=1)
    shards = shard(data, m=m, seed=seed)
    rows = shard_rows(count, m, seed)
    assert len(shards) == m
    for piece, idx in zip(shards, rows):
        assert np.array_equal(piece.features, data.features[idx])
        assert np.array_equal(piece.labels, data.labels[idx])


def test_shard_determinism_and_edges() -> None:
    data = synthetic_classification(count=12, n=4, seed=1)
    once = shard(data, m=5, seed=3)
    twice = shard(data, m=5, seed=3)
    for a, b in zip(once, twice):
        assert np.array_equal(a.features, b.features)
    single = shard(data, m=1, seed=3)
    assert np.array_equal(single[0].features, data.features)
    with pytest.raises(ValueError):
        shard(data, m=13, seed=0)
    with pytest.raises(ValueError):
        shard(data, m=0, seed=0)


@settings(max_examples=60, deadline=None)
@given(
    count=st.integers(2, 40),
    m=st.integers(2, 40),
    seed=st.integers(0, 2**16),
)
def test_parse_in_shard_order_gives_shard_views(count, m, seed) -> None:
    m = min(m, count)
    text = serialize_libsvm(synthetic_classification(count=count, n=5, seed=1))
    presorted = parse_libsvm(text, shard_seed=seed)
    views = shard(presorted, m=m, seed=None)
    copies = shard(parse_libsvm(text), m=m, seed=seed)
    assert len(views) == len(copies) == m
    for view, copy in zip(views, copies):
        assert view.features.base is presorted.features
        assert view.features.tobytes() == copy.features.tobytes()
        assert view.labels.tobytes() == copy.labels.tobytes()
    assert shard(presorted, m=1, seed=None)[0] is presorted


def test_parse_and_shard_peak_stays_well_below_two_matrices(tmp_path) -> None:
    # Measured on 4000 x 54 rows, and on those rows ten times over, of
    # serialize_libsvm text (14 features of "1.0" a row), of covtype-shaped
    # "%.4f" text (12 a row) and of its "%.17g" copy, whose every read goes
    # to _parse_lines: parsing the path in shard order and cutting views
    # peaks at 1.67 and 1.10 (repr), 1.57 and 1.09 (covtype), 1.42 and 1.08
    # (%.17g) times the dense matrix, which is the matrix plus one read of
    # the source and the byte kernel's arrays or _parse_lines' lists for it.
    # Parsing a text the caller had read, in file order, and letting shard
    # gather copies of the rows peaked at 2.07 and 2.06 times.
    path = tmp_path / "data.libsvm"
    covtype = covtype_libsvm(4000, 0)
    texts = [
        serialize_libsvm(synthetic_classification(count=4000, n=54, seed=0)),
        covtype,
        _seventeen_digits(covtype),
    ]
    for text, (repeats, bound) in itertools.product(texts, [(1, 1.8), (10, 1.3)]):
        path.write_text(text * repeats, encoding="utf-8")
        tracemalloc.start()
        try:
            shards = shard(parse_libsvm(path, shard_seed=0), m=10, seed=None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        matrix = sum(piece.features.nbytes for piece in shards)
        assert peak < bound * matrix


def test_subsample() -> None:
    data = synthetic_classification(count=50, n=6, seed=2)
    sub = subsample(data, count=20, seed=9)
    assert sub.count == 20
    assert np.array_equal(
        sub.features, subsample(data, count=20, seed=9).features
    )
    with pytest.raises(ValueError):
        subsample(data, count=51, seed=0)
    with pytest.raises(ValueError):
        subsample(data, count=0, seed=0)


def test_synthetic_classification_shape() -> None:
    data = synthetic_classification(count=100, n=20, seed=3)
    assert data.count == 100
    assert data.n == 20
    assert set(np.unique(data.labels)) == {-1.0, 1.0}
    # Rows hold a small number of unit activations.
    row_sums = data.features.sum(axis=1)
    assert np.all(row_sums >= 1)
    assert np.all(row_sums <= 15)
    assert data.features[0, -1] == 1.0
