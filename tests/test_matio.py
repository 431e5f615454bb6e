import contextlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enscgp import matio
from enscgp.cli import _fmt_value
from enscgp.errors import MatrixParseError
from enscgp.matio import (_BLOCK_VALUES, _format_text, dumps_matrix, format_float,
                          loads_matrix, read_matrix, read_vector, write_matrix)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22)
FLOAT_MATRICES = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-10**6, 10**6).map(float)))


def assert_rows_print_as_format_float(matrix):
    """The writer's text is each row's values' format_float forms joined by
    single spaces, a line feed after each row, and a report value prints the
    same rows, each in brackets."""
    rows = [" ".join(format_float(v) for v in row) for row in matrix]
    assert "".join(_format_text(matrix)) == "".join(f"{row}\n" for row in rows)
    assert "".join(_fmt_value(matrix)) == "[" + "".join(f"[{row}]" for row in rows) + "]"


class TestFormat:
    def test_seventeen_digit_round_trip(self, rng):
        for value in rng.uniform(-1e8, 1e8, size=1000):
            assert float(format_float(value)) == value

    def test_extreme_values(self):
        for value in (0.0, -0.0, 1e-300, -2.5e300, 1 / 3):
            assert float(format_float(value)) == value


class TestRoundTrip:
    def test_identity(self, tmp_path):
        path = tmp_path / "eye.txt"
        write_matrix(path, np.eye(2))
        np.testing.assert_array_equal(read_matrix(path), np.eye(2))

    def test_write_read_write_is_byte_identical(self, tmp_path, rng):
        m = rng.normal(size=(10, 10)) * rng.uniform(1e-6, 1e6)
        first = tmp_path / "a.txt"
        second = tmp_path / "b.txt"
        write_matrix(first, m)
        write_matrix(second, read_matrix(first))
        assert first.read_bytes() == second.read_bytes()

    def test_values_exact(self, tmp_path, rng):
        m = rng.normal(size=(4, 7))
        path = tmp_path / "m.txt"
        write_matrix(path, m)
        assert np.array_equal(read_matrix(path), m)

    def test_comments_skipped(self):
        text = "# note\n2 2\n1 0\n# interior\n0 1  # trailing\n"
        np.testing.assert_array_equal(loads_matrix(text), np.eye(2))

    def test_vector_written_as_column(self, tmp_path):
        path = tmp_path / "v.txt"
        write_matrix(path, np.array([1.0, 2.0]))
        np.testing.assert_array_equal(read_vector(path), [1.0, 2.0])

    def test_empty_rows_allowed(self):
        m = loads_matrix("0 3\n")
        assert m.shape == (0, 3)

    @pytest.mark.parametrize("shape", [(3, 0), (1, 0), (0, 0), (0, 2)])
    def test_empty_matrix_round_trips(self, shape):
        text = dumps_matrix(np.zeros(shape))
        for parse in (loads_matrix, read_by_lines):
            assert parse(text, "m").shape == shape
        assert dumps_matrix(loads_matrix(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(FLOAT_MATRICES)
    def test_write_read_write_property(self, matrix):
        text = dumps_matrix(matrix)
        back = loads_matrix(text)
        # every chunk, however short, is plain
        with mock.patch.object(matio, "_PLAIN_MIN", 0), plain_spy() as read:
            assert loads_matrix(text).tobytes() == back.tobytes()
        assert all(read) and (matrix.size == 0 or read)
        assert back.shape == matrix.shape
        assert np.array_equal(np.signbit(back), np.signbit(matrix))
        np.testing.assert_array_equal(back, matrix)
        assert dumps_matrix(back) == text
        assert_rows_print_as_format_float(matrix)

    @settings(max_examples=200, deadline=None)
    @given(FLOAT_MATRICES)
    def test_batch_path_property(self, matrix):
        """The same, with every block through the batch formatter."""
        with mock.patch.object(matio, "_BATCH_MIN", 0):
            assert_rows_print_as_format_float(matrix)


def percent_text(values):
    """The oracle: each value's %.17g, one per line."""
    return "".join("%.17g\n" % v for v in np.asarray(values, dtype=float).tolist())


def batch_text(values):
    """The same values through the batch formatter, however few they are."""
    with mock.patch.object(matio, "_BATCH_MIN", 0):
        return "".join(_format_text(np.asarray(values, dtype=float)[:, None]))


def assert_batch_matches_percent(values):
    got, expected = batch_text(values).split("\n"), percent_text(values).split("\n")
    bad = [(v, g, e) for v, g, e in zip(np.asarray(values).tolist(), got, expected) if g != e]
    assert not bad, f"{len(bad)} values differ, first (value, batch, %.17g): {bad[0]}"
    assert len(got) == len(expected)


def reference_dumps(matrix, comments=()):
    """dumps_matrix written with format_float one value at a time."""
    lines = [f"# {c}" for c in comments] + [f"{matrix.shape[0]} {matrix.shape[1]}"]
    lines += [" ".join(format_float(v) for v in row) for row in matrix]
    return "\n".join(lines) + "\n"


def random_finite_doubles(seed, count):
    values = np.random.default_rng(seed).integers(0, 2**64, size=count, dtype=np.uint64)
    values = values.view(np.float64)
    return values[np.isfinite(values)]


def adversarial_doubles():
    values = [0.0, 5e-324, 1.7976931348623157e308, 2.2250738585072014e-308,
              # exact ties at the 17th digit, which %.17g rounds to even
              17179720819105.8125, 2206331399073625.75, 3 * 2.0**-24, 2.0**-25,
              2.0**53 - 1, 2.0**53, 2.0**53 + 2, 2.0**63, 2.0**64,
              9.9999999999999998e-13, 0.5, 0.25, 1.5, 123.0, 1 / 3, 2 / 3]
    for k in range(-323, 309):  # 10^k, its neighbours, and where %g switches
        for p in (10.0**k, 5 * 10.0**k, 9.5 * 10.0**k, 9.9999999999999995 * 10.0**k):
            if np.isfinite(p) and p > 0:
                values += [p, np.nextafter(p, 0), np.nextafter(p, np.inf)]
    for edge in (1e-280, 1e280):  # the fast window's bounds
        values += [edge * (1 + d * 2.0**-52) for d in range(-4, 5)]
    values = np.array(values)
    return np.concatenate([values, -values])


def test_batch_matches_percent_on_adversarial_values():
    values = adversarial_doubles()
    assert_batch_matches_percent(values)
    # rounding to 17 digits carries 1e-14 (just below 10^-14) up to it
    assert batch_text([1e-14, 9.9999999999999998e-13]) == "1e-14\n9.9999999999999998e-13\n"


def test_batch_matches_percent_on_random_doubles():
    values = random_finite_doubles(0, 1 << 17)
    assert values.size > 10**5
    assert_batch_matches_percent(values)
    scaled = np.random.default_rng(1).normal(size=1 << 15) * np.logspace(-30, 30, 1 << 15)
    assert_batch_matches_percent(scaled)
    # few significant bits: short exact expansions and ties at the 17th digit
    bits = random_finite_doubles(2, 1 << 15).view(np.uint64)
    assert_batch_matches_percent((bits & ~np.uint64((1 << 40) - 1)).view(np.float64))


def test_certificate_rejects_almost_no_in_window_value():
    """The fast path does the work: of the sweep's values inside the fast
    window, fewer than 1 in 10^4 fall back to %.17g."""
    a = np.abs(random_finite_doubles(0, 1 << 17))
    a = a[(a >= matio._FAST_MIN) & (a < matio._FAST_MAX)]
    assert a.size > 10**5
    _, _, certified = matio._decimal_digits(a, matio._pow10())
    assert (~certified).sum() < a.size / 10**4


def test_pow10_table_is_exact_to_double_double():
    from fractions import Fraction

    pow10 = matio._pow10()
    for column, x in zip(pow10.T, range(-matio._X_SPAN, matio._X_SPAN + 1)):
        hi, high, low, lo = column.tolist()
        exact = Fraction(10) ** (16 - x)
        assert abs(Fraction(hi) + Fraction(lo) - exact) <= exact * Fraction(1, 2**106)
        assert high + low == hi
        for half in (high, low):  # at most 26 significant bits
            num = Fraction(half).numerator
            assert num == 0 or (num // (num & -num)).bit_length() <= 26
        assert (lo == 0) == (-6 <= x <= 16)  # where the digit path calls products exact


@pytest.mark.parametrize("shape", [(3 * 1000 + 1, 7), (1, 10**5), (5, 0), (0, 5), (0, 0),
                                   (600, 1), (1, 511), (1, 512)])
def test_block_edges_match_reference(shape):
    """Blocks of _BLOCK_VALUES values split rows (7 does not divide 4096);
    one row of 10^5 values spans blocks; small blocks take %.17g directly."""
    rng = np.random.default_rng(shape[0] * 31 + shape[1])
    matrix = rng.normal(size=shape) * 10.0 ** rng.integers(-20, 20, size=shape)
    assert dumps_matrix(matrix, ("c",)) == reference_dumps(matrix, ("c",))


def test_float32_arrays_format_as_their_doubles():
    matrix = np.random.default_rng(3).normal(size=(30, 40)).astype(np.float32)
    assert_rows_print_as_format_float(matrix)


def test_forced_fallback_gives_the_same_text():
    """With a certificate that rejects every value, every value is printed
    by %.17g and written over its slots: the text does not change."""
    matrix = np.random.default_rng(4).normal(size=(300, 40)) * 1e-3
    matrix[::7, 3] = 0.0
    matrix[1::7, 5] = -0.0
    matrix[2, :4] = [1e300, -5e-324, 1e-300, 2.0**60]
    expected = reference_dumps(matrix)
    real = matio._decimal_digits
    calls = []

    def reject_all(a, pow10):
        x, digits, certified = real(a, pow10)
        calls.append(a.size)
        return x, digits, np.zeros_like(certified)

    with mock.patch.object(matio, "_decimal_digits", reject_all):
        assert dumps_matrix(matrix) == expected
    assert sum(calls) == matrix.size
    assert dumps_matrix(matrix) == expected


def test_dumps_memory_does_not_grow_with_the_matrix():
    """Besides its output, dumps_matrix holds one block's work, not the rows'
    texts: its tracemalloc peak minus its output's size does not grow from a
    1000 x 40 matrix to an 8000 x 40 one."""
    extra = []
    for rows in (1000, 8000):
        matrix = np.random.default_rng(rows).normal(size=(rows, 40))
        dumps_matrix(matrix[:200])  # tables built before measuring
        tracemalloc.start()
        try:
            text = dumps_matrix(matrix)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        extra.append(peak - len(text))
    # holding every row's text as well would add over 6 MB at 8000 rows
    assert extra[1] < 1.25 * extra[0]


def read_by_lines(text, name="m.txt"):
    """The reference: loads_matrix with every chunk read line by line."""
    with mock.patch.object(matio, "_PLAIN_MIN", math.inf):
        return loads_matrix(text, name)


@contextlib.contextmanager
def plain_spy():
    """Yield a list that records, for each chunk given to _plain_values,
    whether it read the chunk."""
    read = []
    real = matio._plain_values

    def spy(chunk, cols):
        values = real(chunk, cols)
        read.append(values is not None)
        return values

    with mock.patch.object(matio, "_plain_values", spy):
        yield read


# every input is read as the line path reads it: the same array bytes, or
# the same error message
PARITY_CASES = {
    "plain": "2 3\n1 2 3\n4 5 6\n",
    "ragged": "2 3\n1 2 3\n1 2\n",
    "ragged_first": "2 3\n1 2\n1 2 3\n",
    "one_value_row": "2 3\n1\n1 2 3\n",
    "extra_row": "1 2\n1 2\n3 4\n",
    "missing_row": "2 2\n1 2\n",
    "nan_before_ragged": "3 2\n1 2\nnan 4\n5\n",
    "inf_before_ragged": "3 2\n1 2\n3 -inf\n5 6 7\n",
    "nan_before_extra": "1 2\n1 nan\n3 4\n",
    "overflow_to_inf": "1 2\n1 1e400\n",
    "bad_token": "2 2\n1 2\n3 x4\n",
    "bad_token_after_ragged": "3 1\n1\n2 3\nabc\n",
    "header_one_token": "2\n1 2\n",
    "header_three_tokens": "1 1 1\n1\n",
    "header_not_integer": "1.0 2\n1 2\n",
    "header_words": "a b\n",
    "negative_rows": "-1 2\n",
    "negative_cols": "1 -2\n1 2\n",
    "empty": "",
    "comments_only": "# a\n  # b\n",
    "underscore_digits": "1 2\n1_000 2_5.0_1\n",
    "arabic_indic_digit": "1 2\n\u0663 \u0661\u0662.5\n",
    "underscore_header": "1_0 1\n" + "1\n" * 10,
    "crlf": "2 2\r\n1 2\r\n3 4\r\n",
    "vertical_tab_breaks": "2 2\x0b1 2\x0b3 4",
    "form_feed_breaks": "2 2\x0c1 2\x0c3 4\x0c",
    "mid_line_comments": "2 2 # shape\n1 2# first\n 3   4 #5 6\n",
    "comment_hides_value": "1 2\n1 # 2\n",
    "zero_width": "3 0\n\n\n\n",
    "zero_width_with_data": "3 0\n1\n",
    "zero_rows_with_data": "0 2\n1 2\n",
    "huge_zero_width": "9" * 30 + " 0\n",
    "huge_header": "100000000 100000000\n",
    "no_final_newline": "1 1\n7",
}


def assert_reads_as_lines(text):
    """loads_matrix gives read_by_lines's array bytes or its exact error,
    with _PLAIN_MIN as it is and with every chunk offered to _plain_values.
    Returns what plain_spy recorded with _PLAIN_MIN as it is."""
    try:
        expected = read_by_lines(text)
    except MatrixParseError as exc:
        expected = exc
    for plain_min in (0, matio._PLAIN_MIN):
        with mock.patch.object(matio, "_PLAIN_MIN", plain_min), plain_spy() as read:
            try:
                got = loads_matrix(text, "m.txt")
            except MatrixParseError as exc:
                assert isinstance(expected, MatrixParseError) and str(exc) == str(expected)
            else:
                assert isinstance(expected, np.ndarray)
                assert got.shape == expected.shape and got.tobytes() == expected.tobytes()
    return read


@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_fast_parse_matches_checked_parser(text):
    assert_reads_as_lines(text)


@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_plain_path_matches_checked_parser(text):
    """The same with every line a chunk of its own, so that plain and other
    chunks take turns line by line."""
    with mock.patch.object(matio, "_CHUNK_CHARS", 0):
        assert_reads_as_lines(text)


# a file of BLOCK rows of BLOCK_COLS values, 80 KB, spans two of the
# reader's chunks (the writer's blocks hold BLOCK rows)
BLOCK_COLS = 4
BLOCK = _BLOCK_VALUES // BLOCK_COLS
SECOND_BLOCK_FAULTS = {
    "ragged": lambda row: row.rsplit(" ", 1)[0],
    "bad_token": lambda row: row + "x",
    "non_finite": lambda row: row.replace(row.split()[1], "inf", 1),
    "underscore": lambda row: row.replace(row.split()[2], "1_000", 1),
    "extra_row": lambda row: row + "\n" + row,
    "missing_row": lambda row: "",
}


def block_file(rows, fault=None, at=None):
    """A rows x BLOCK_COLS file; ``fault`` rewrites row ``at`` (0-based)."""
    matrix = np.random.default_rng(rows).normal(size=(rows, BLOCK_COLS))
    lines = dumps_matrix(matrix).splitlines()
    if fault is not None:
        lines[1 + at] = SECOND_BLOCK_FAULTS[fault](lines[1 + at])
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("rows", (BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1))
def test_block_boundaries_parse_fast(rows):
    text = block_file(rows)
    read = assert_reads_as_lines(text)
    assert len(read) > 1 and all(read)
    assert loads_matrix(text).shape == (rows, BLOCK_COLS)


@pytest.mark.parametrize("fault", SECOND_BLOCK_FAULTS)
@pytest.mark.parametrize("rows, at", [(BLOCK + 1, BLOCK),
                                      (2 * BLOCK + 1, BLOCK),
                                      (2 * BLOCK + 1, BLOCK + 7),
                                      (2 * BLOCK + 1, 2 * BLOCK - 1)])
def test_second_block_faults_match_checked_parser(fault, rows, at):
    text = block_file(rows, fault, at)
    read = assert_reads_as_lines(text)
    assert read[0]  # the chunk before the fault's is read in bulk
    if fault == "underscore":  # not plain, but float() reads it
        assert loads_matrix(text)[at, 2] == 1000.0


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="a1 #\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=40),
       st.integers(0, 9))
def test_chunked_lines_are_splitlines(text, chunk):
    with mock.patch.object(matio, "_CHUNK_CHARS", chunk):
        pieces = list(matio._chunks(text))
    assert "".join(pieces) == text
    # each piece but the last ends with a line end, after its chunk-th character
    assert all(len(piece) > chunk and len(piece.splitlines()[-1]) < len(
        piece.splitlines(keepends=True)[-1]) for piece in pieces[:-1])
    assert [line for piece in pieces for line in piece.splitlines()] == text.splitlines()


@pytest.mark.parametrize("length", [0, 1, 254, 255, 256, 511, 512, 1023, 5000])
@pytest.mark.parametrize("end", ["\n", "\r", "\r\n", "\x0b", "\x85", "\u2028", ""])
def test_line_end_is_splitlines_at_any_length(length, end):
    """_line_end finds the first line's end however long the line is, with
    a CRLF pair kept whole where it straddles a window's edge."""
    text = "7" * length + end + "8\r\n9"
    for pos in (0, 1, length // 2, length, len(text)):
        rest = text[pos:]
        want = pos + len(rest.splitlines(keepends=True)[0]) if rest else len(text)
        assert matio._line_end(text, pos) == want


def test_fast_parse_memory_is_bounded_by_blocks():
    """Besides the text and the result, a read of plain chunks holds one
    chunk's work, not a list that grows with the file."""
    text = dumps_matrix(np.random.default_rng(0).normal(size=(5000, 40)))
    with plain_spy() as read:
        tracemalloc.start()
        try:
            out = loads_matrix(text)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert len(read) > 1 and all(read) and out.shape == (5000, 40)
    # all 200k tokens held as str objects take over 10 times the result,
    # and all the text's lines split at once over 3 times
    assert peak < 1.5 * out.nbytes


def test_texts_are_routed_by_length():
    """Chunks shorter than _PLAIN_MIN never reach _plain_values, however
    long the text; a long text that is not plain is read line by line, and
    reads as its plain form does, bit for bit."""
    short, long = ("# c\n%d 1\n" % rows + "1\n" * rows for rows in (2047, 2048))
    assert len(short.split("\n", 2)[2]) < matio._PLAIN_MIN <= len(short)
    assert len(long.split("\n", 2)[2]) == matio._PLAIN_MIN
    with mock.patch.object(matio, "_plain_values", wraps=matio._plain_values) as spy:
        for text in (short, *PARITY_CASES.values()):
            with contextlib.suppress(MatrixParseError):
                loads_matrix(text)
        assert not spy.called
        assert loads_matrix(long).shape == (2048, 1) and spy.call_count == 1
    text = block_file(2 * BLOCK).replace(" ", "\t").replace("\n", "\r\n")
    with plain_spy() as read:
        got = loads_matrix(text)
    assert len(read) > 1 and not any(read)
    assert got.tobytes() == loads_matrix(block_file(2 * BLOCK)).tobytes()


def test_tab_in_the_last_chunk_leaves_earlier_chunks_alone():
    """A 5000 x 40 text with a tab in its last chunk: every earlier chunk is
    converted once, in bulk, and float() reads only the last chunk's
    tokens, not the whole text again."""
    text = dumps_matrix(np.random.default_rng(0).normal(size=(5000, 40)))
    pieces = list(matio._chunks(text, text.index("\n") + 1))
    assert len(pieces) > 2 and len(pieces[-1]) >= matio._PLAIN_MIN
    last = len(text) - len(pieces[-1])
    text = text[:last] + text[last:].replace(" ", "\t", 1)
    tokens = []

    class CountingFloat(np.float64):  # as a dtype, still float64
        def __new__(cls, token):
            tokens.append(token)
            return float(token)

    matio._pow10()  # the table is built with float() before counting starts
    with plain_spy() as read, mock.patch.object(matio, "float", CountingFloat, create=True):
        got = loads_matrix(text)
    assert read == [True] * (len(pieces) - 1) + [False]
    assert tokens == pieces[-1].split()
    assert got.tobytes() == read_by_lines(text).tobytes()


@pytest.mark.parametrize("form", ["crlf_tabs", "tab_in_last_tenth", "bad_last_token"])
def test_checked_parse_memory_is_bounded(form):
    """A long text read line by line, wholly or from its last tenth, or
    rejected at its last token, costs less than 1.5 times the result: the
    result is allocated once, and only one chunk's values are held as
    Python floats at a time."""
    text = dumps_matrix(np.random.default_rng(0).normal(size=(5000, 40)))
    nbytes = 5000 * 40 * 8
    if form == "crlf_tabs":
        text = text.replace(" ", "\t").replace("\n", "\r\n")
    elif form == "tab_in_last_tenth":
        head, tail = text[:len(text) * 9 // 10], text[len(text) * 9 // 10:]
        text = head + tail.replace(" ", "\t", 1)
    else:
        token = text.rsplit(" ", 1)[1].rstrip("\n") + "x"
        text = text[:-1] + "x\n"
    tracemalloc.start()
    try:
        if form != "bad_last_token":
            assert loads_matrix(text, "m.txt").shape == (5000, 40)
        else:
            with pytest.raises(MatrixParseError) as error:
                loads_matrix(text, "m.txt")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    if form == "bad_last_token":
        assert str(error.value) == f"m.txt:5001: column 40: invalid number {token!r}"
    # per-row lists of Python floats would hold about 6.9 times the result
    assert peak < 1.5 * nbytes


def test_bare_cr_text_is_read_in_chunks():
    """A text whose lines end in a bare CR is cut into chunks as a
    line-feed text is: it reads to the same values, holds less than 1.5
    times the result, and reports a bad last token at the same line and
    column."""
    text = dumps_matrix(np.random.default_rng(0).normal(size=(5000, 40)))
    cr = text.replace("\n", "\r")
    assert len(list(matio._chunks(cr))) == len(list(matio._chunks(text))) > 2
    tracemalloc.start()
    try:
        got = loads_matrix(cr)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got.tobytes() == loads_matrix(text).tobytes()
    # the whole text split into lines at once would be about 10 times
    assert peak < 1.5 * got.nbytes
    messages = []
    for form in (text, cr):
        with pytest.raises(MatrixParseError) as error:
            loads_matrix(form[:-1] + "x" + form[-1], "m.txt")
        messages.append(str(error.value))
    assert messages[0] == messages[1]
    assert messages[0].startswith("m.txt:5001: column 40: invalid number")


READ_WITHOUT_WRITER_TABLES = """
import json, sys
from enscgp import cli, matio
code = cli.main(sys.argv[1:])
print(json.dumps([code, matio._pow10.cache_info().currsize,
                  matio._digit_tables.cache_info().currsize]))
"""


def test_reading_builds_only_the_pow10_table(tmp_path):
    """In a fresh interpreter, a command that reads a text of _PLAIN_MIN
    characters or more and writes no block of _BATCH_MIN values builds the
    reader's pow10 table but not the writer's digit tables."""
    rng = np.random.default_rng(4)
    a = rng.normal(size=(16, 16))
    inputs = {"mean": rng.normal(size=16), "cov": a @ a.T, "H": rng.normal(size=(3, 16)),
              "R": np.eye(3), "y": rng.normal(size=3)}
    paths = []
    for name, value in inputs.items():
        paths.append(str(tmp_path / f"{name}.txt"))
        write_matrix(paths[-1], value)
    assert len(dumps_matrix(inputs["cov"])) >= matio._PLAIN_MIN
    assert inputs["cov"].size < matio._BATCH_MIN
    root = Path(__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", READ_WITHOUT_WRITER_TABLES, "collapse", *paths,
         "--k-max", "3", "--out", str(tmp_path / "report.txt")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert result.returncode == 0, result.stderr
    assert json.loads(result.stdout) == [0, 1, 0]


# tokens float() accepts, among them forms that numpy's own text parsers
# read otherwise or not at all: underscores, non-ASCII digits, signed zeros,
# subnormals, overflow, non-finite words, halfway cases
NUMPY_FLOAT_TOKENS = [
    "1_000", "2_5.0_1", "1_0e1_0", "-0_0.5",
    "\u0663", "\u0661\u0662.5", "-\u0661e\u0662", "\u0661_\u0662", "\uff11\uff12",
    "\u0967\u0966",
    "0", "-0", "+0", "-0.0", "0e-400", "-0e5",
    "5e-324", "-5e-324", "4.9406564584124654e-324", "2.2250738585072009e-308",
    "2.2250738585072014e-308", "1e-320",
    "1.7976931348623157e308", "-1.7976931348623157e308", "1.7976931348623158e308",
    "1e400", "-1e400", "inf", "-Infinity", "nan", "-nan", "NaN",
    "+.5", "5.", "-.5e-3", ".5E+3", "+5.E2", "00012", "1e0000000000000000000007",
    "0.10000000000000001", "-123456789012345678", "9007199254740993",
    "2.4703282292062328e-324", "2.4703282292062327e-324",
]
NOT_FLOAT_TOKENS = ["", "x", "1x", "0x10", "1__0", "_1", "1_", "1_.5", "1,5", "e5", ".",
                    "+-1", "--1", "1e", "1e+", "\u00bd", "\u2155", "infinity_", "nan1",
                    "1.5.0", "1e5.0"]


def random_float_tokens(rng, count):
    """Random finite doubles over every exponent, in 17-digit, shortest and
    7-digit forms."""
    values = rng.integers(0, 2**64, size=count, dtype=np.uint64).view(np.float64)
    values = values[np.isfinite(values)].tolist()
    return ([f"{v:.17g}" for v in values] + [repr(v) for v in values[:1000]]
            + [f"{v:.6e}" for v in values[:1000]])


@pytest.mark.parametrize("token", NOT_FLOAT_TOKENS)
def test_numpy_rejects_what_float_rejects(token):
    """The numpy-based plain path declines every token that float() rejects,
    and a long file holding it fails as the line path says."""
    with pytest.raises(ValueError):
        float(token)
    assert matio._plain_values(f"1.5 {token} 2\n", 3) is None
    lines = block_file(3 * BLOCK).split("\n")
    lines[1 + 2 * BLOCK] = f"1 2 {token} 4"
    text = "\n".join(lines)
    with pytest.raises(MatrixParseError):
        loads_matrix(text, "m.txt")
    assert_reads_as_lines(text)


# the reader: plain chunks are converted by _plain_values, every value
# bitwise float(token), and whatever it declines or cannot certify is read
# by float() itself
PLAIN_CHARS = set("0123456789+-.eE")


def text_of(tokens, cols=1):
    """A matrix file of ``tokens``, ``cols`` to a line."""
    rows = [" ".join(tokens[i:i + cols]) for i in range(0, len(tokens), cols)]
    return f"{len(rows)} {cols}\n" + "".join(row + "\n" for row in rows)


def assert_reads_like_float(tokens, cols=1):
    """loads_matrix reads each token as float() does, bit for bit; a chunk
    of tokens that float() reads and that are all plain is read by
    _plain_values."""
    tokens = list(tokens)[:len(tokens) // cols * cols]
    expected = np.array([float(t) for t in tokens]).reshape(-1, cols)
    text = text_of(tokens, cols)
    got = loads_matrix(text)
    bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    assert not bad.size, [(tokens[i], got.flat[i], expected.flat[i]) for i in bad[:5]]
    if all(set(t) <= PLAIN_CHARS for t in tokens):
        plain = matio._plain_values(text.split("\n", 1)[1], cols)
        assert plain is not None and plain.tobytes() == expected.tobytes()


def test_reader_matches_float_on_numpy_float_tokens():
    finite = [t for t in NUMPY_FLOAT_TOKENS if np.isfinite(float(t))]
    assert len(finite) > 30
    for token in finite:
        assert_reads_like_float([token])
    assert_reads_like_float(finite)
    for token in set(NUMPY_FLOAT_TOKENS) - set(finite):
        with pytest.raises(MatrixParseError, match="non-finite"):
            loads_matrix(text_of([token]))


def test_reader_matches_float_on_long_and_saturating_mantissas():
    """np.fromstring saturates an int64 overflow (on numpy 2, to +2^63-1 for
    either sign): such tokens fall back to float()."""
    rng = np.random.default_rng(5)
    tokens = ["9223372036854775808", "-9223372036854775809", "9223372036854775807",
              "-9223372036854775808", "9223372036854774784", "9223372036854774783",
              "18446744073709551616", "-0000000000000000000000001"]
    for count in range(17, 24):  # 17 to 23 digits, some with a point and an exponent
        for _ in range(40):
            digits = "".join(rng.choice(list("0123456789"), count))
            point = int(rng.integers(0, count + 1))
            tokens += [digits, f"-{digits[:point]}.{digits[point:]}",
                       f"{digits[:point]}.{digits[point:]}e{int(rng.integers(-300, 290))}"]
    assert_reads_like_float(tokens)
    for token in tokens[:8]:  # on their own, beside Clinger-sized values
        assert_reads_like_float(["1", token, "-0", "2.5"], 4)


def test_reader_matches_float_on_savetxt_forms():
    values = np.concatenate([random_finite_doubles(6, 1 << 12),
                             np.random.default_rng(7).normal(size=1 << 12)])
    out = io.StringIO()
    np.savetxt(out, values.reshape(-1, 8))  # %.18e: 19-digit mantissas
    tokens = out.getvalue().split()
    assert tokens[0].count("e") == 1 and len(tokens[0].split("e")[0].lstrip("-")) == 20
    assert_reads_like_float(tokens, 8)
    assert loads_matrix(text_of(tokens, 8)).tobytes() == values.tobytes()


def test_reader_matches_float_on_exact_halfway_cases():
    """Ties round to even; the double-double certificate leaves them to
    float()."""
    ties = ["9007199254740993", "-9007199254740993", "9007199254740995",
            "4503599627370497.5", "2.4703282292062328e-324", "2.4703282292062327e-324",
            "1.00000000000000011102230246251565404236316680908203125",
            "1.00000000000000011102230246251565404236316680908203124",
            "1.00000000000000011102230246251565404236316680908203126"]
    assert_reads_like_float(ties)
    d = np.array([9007199254740993, 45035996273704975])
    assert not matio._to_double(d, np.array([0, -1]))[1].any()


def test_ties_beside_17_digit_tokens_read_as_float():
    """Ties in Clinger's domain (7e22: its odd part 7·5^22 has 54 bits) in a
    chunk that also holds 17-digit tokens are left uncertified and read by
    float(): the chunk, read in bulk, gives float()'s bits for every token."""
    ties = ["7e22", "5e22", "19e21", "-95e20", "173e20"]
    for tie in ties:  # each lies halfway between two neighbouring doubles
        f = abs(float(tie))
        assert abs(Fraction(tie)) * 2 in (Fraction(f) + Fraction(math.nextafter(f, 0)),
                                          Fraction(f) + Fraction(math.nextafter(f, math.inf)))
    tokens = [f"{v:.17g}" for v in np.random.default_rng(10).normal(size=300).tolist()]
    tokens[::5] = ties * 12
    text = text_of(tokens, 5)
    _, _, d, e = matio._plain_tokens(text.split("\n", 1)[1], 5)
    assert not matio._to_double(d, e)[1][::5].any()
    with plain_spy() as read:
        got = loads_matrix(text)
    assert len(text) >= matio._PLAIN_MIN and read == [True]
    expected = np.array([float(t) for t in tokens])
    assert got.ravel().tobytes() == expected.tobytes()


def test_reader_matches_float_on_random_bit_patterns(rng):
    tokens = random_float_tokens(rng, 1 << 15)
    assert len(tokens) > 30000
    assert_reads_like_float(tokens, 7)
    scaled = rng.normal(size=1 << 14) * 10.0 ** rng.uniform(-300, 300, size=1 << 14)
    assert_reads_like_float([f"{v:.17g}" for v in scaled.tolist()], 16)


def test_to_double_certifies_only_correct_roundings():
    """Across the edges of Clinger's path, of the double-double's domain and
    of int64, every certified value is the nearest double to d·10^e."""
    ds = [0, 1, 7, 2**53 - 1, 2**53, 2**53 + 1, 10**17 - 1, 2**62 + 1, matio._D_MAX - 1,
          matio._D_MAX, 2**63 - 1, -2**63]
    es = [-400, matio._E_MIN - 1, matio._E_MIN, -23, -22, -1, 0, 1, 22, 23, matio._E_MAX,
          matio._E_MAX + 1, 400, 2**63 - 1, -2**63]
    d, e = (np.array(v, dtype=np.int64).ravel() for v in np.meshgrid(ds, es))
    values, certified = matio._to_double(d, e)
    for dv, ev, value in zip(d[certified].tolist(), e[certified].tolist(),
                             values[certified].tolist()):
        assert dv >= 0 and value == float(Fraction(dv) * Fraction(10) ** ev), (dv, ev)
    # the domain is certified but for the ties 2^53 + 1 and 7e22 and for
    # 10^23, which lies within 2^-100 of a midpoint between doubles
    inside = (d >= 0) & (d < matio._D_MAX) & (e >= matio._E_MIN) & (e <= matio._E_MAX)
    assert not (certified & ~inside).any()
    assert set(zip(d[inside & ~certified].tolist(), e[inside & ~certified].tolist())) == {
        (2**53 + 1, 0), (7, 22), (1, 23), (2**53, 23)}


def test_certificate_leaves_almost_no_token_to_float():
    """Of random 17-digit tokens whose 10^e the table holds, fewer than 1
    in 10^4 fall back to float()."""
    values = random_finite_doubles(8, 1 << 16)
    values = values[(np.abs(values) > 1e-250) & (np.abs(values) < 1e280)]
    text = "".join(f"{v:.17g}\n" for v in values.tolist())
    _, _, d, e = matio._plain_tokens(text, 1)
    values, certified = matio._to_double(d, e)
    assert values.size > 50000 and (~certified).sum() < values.size / 10**4


def test_plain_grammar_is_float_grammar():
    """Every token of up to five characters from 1 + - . e E: _plain_values
    reads it as float() does if float() reads it, and declines it if not."""
    valid = []
    for size in range(1, 6):
        for token in map("".join, itertools.product("1+-.eE", repeat=size)):
            try:
                float(token)
            except ValueError:
                assert matio._plain_values(token + "\n", 1) is None, token
            else:
                valid.append(token)
    assert len(valid) > 100
    expected = np.array([float(t) for t in valid])
    assert matio._plain_values("\n".join(valid) + "\n", 1).tobytes() == expected.tobytes()


@pytest.mark.parametrize("token", ["1e+", "1-2", "+-1", "1.2.3", "1e5.0", "1e+5e3", "-.",
                                   "1e--2", ".e5", "1.5e", "1.5.", "e5"])
def test_bad_plain_tokens_fall_back_and_fail(token):
    lines = block_file(3 * BLOCK).split("\n")
    lines[1 + 2 * BLOCK] = f"1 2 {token} 4"
    text = "\n".join(lines)
    assert matio._plain_values(token + "\n", 1) is None
    with pytest.raises(MatrixParseError, match=f"{2 * BLOCK + 2}: column 3: invalid number"):
        loads_matrix(text, "m.txt")
    assert_reads_as_lines(text)


def test_short_integer_read_declines_the_chunk():
    """np.fromstring reads less than the tokens hold where older numpy only
    warns about unmatched text: each chunk is declined and read line by
    line."""
    text = block_file(BLOCK)
    real = np.fromstring
    with mock.patch.object(matio.np, "fromstring", lambda *a, **k: real(*a, **k)[:-1]):
        assert matio._plain_values(text.split("\n", 1)[1], BLOCK_COLS) is None
        read = assert_reads_as_lines(text)
    assert len(read) > 1 and not any(read)


@pytest.mark.parametrize("chunk", ["1 2\r\n", "1\t2\n", "1  2\n", " 1 2\n", "1 2 \n", "1 2",
                                   "1 2 # c\n", "1 ٢\n", "1_0 2\n", "1 2 3\n", "1\n2\n",
                                   "1 2\n\n", "inf 2\n", "1 0x2\n"])
def test_non_plain_chunks_are_declined(chunk):
    assert matio._plain_values(chunk * 2000, 2) is None


def test_forced_fallback_gives_the_same_array():
    """With a certificate that certifies nothing, every value is read by
    float() over NaN-filled conversions: the array does not change."""
    matrix = np.random.default_rng(9).normal(size=(400, 30)) * 10.0 ** np.arange(-15, 15)
    matrix[::5, 3] = 0.0
    matrix[1::5, 4] = -0.0
    matrix[7, :4] = [5e-324, -1e300, 2.0**53 + 2, 1.0]
    text = dumps_matrix(matrix)
    real = matio._to_double
    converted = []

    def certify_nothing(d, e):
        values, certified = real(d, e)
        converted.append(values.size)
        return np.full_like(values, np.nan), np.zeros_like(certified)

    with mock.patch.object(matio, "_to_double", certify_nothing), plain_spy() as read:
        got = loads_matrix(text)
    assert sum(converted) == matrix.size and all(read)
    assert got.tobytes() == matrix.tobytes() == read_by_lines(text).tobytes()


@pytest.mark.parametrize("fault", SECOND_BLOCK_FAULTS)
def test_chunk_boundary_faults_match_checked_parser(fault):
    """Faults in the first and the last row of a chunk, and in a last
    chunk shorter than _PLAIN_MIN, are those of the line path; the chunks
    before the fault's are read in bulk."""
    text = block_file(2 * BLOCK)
    lines = text.splitlines(keepends=True)
    with mock.patch.object(matio, "_CHUNK_CHARS", 1 << 12):
        pieces = list(matio._chunks(text, len(lines[0])))
        firsts = np.cumsum([0] + [piece.count("\n") for piece in pieces])
        assert len(pieces) > 10 and len(pieces[-1]) < matio._PLAIN_MIN
        for at in (firsts[3], firsts[4] - 1, firsts[-2]):
            faulty = block_file(2 * BLOCK, fault, at)
            assert all(assert_reads_as_lines(faulty)[:3])
            if fault == "underscore":  # not plain, but float() reads it
                assert loads_matrix(faulty)[at, 2] == 1000.0
        read = assert_reads_as_lines(text)
        assert len(read) == len(pieces) - 1 and all(read)


def test_hostile_header_allocates_nothing():
    tracemalloc.start()
    try:
        with pytest.raises(MatrixParseError,
                           match="declared 100000000 rows but found 0$"):
            loads_matrix("100000000 100000000\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20


class TestParseErrors:
    def test_non_finite_token_names_line(self):
        with pytest.raises(MatrixParseError, match="2: column 2: non-finite"):
            loads_matrix("1 2\n1.0 nan\n")

    def test_inf_rejected(self):
        with pytest.raises(MatrixParseError, match="non-finite"):
            loads_matrix("1 1\ninf\n")

    def test_bad_token(self):
        with pytest.raises(MatrixParseError, match="invalid number"):
            loads_matrix("1 1\nabc\n")

    def test_ragged_row(self):
        with pytest.raises(MatrixParseError, match="expected 3 values, got 2"):
            loads_matrix("2 3\n1 2 3\n1 2\n")

    def test_missing_rows(self):
        with pytest.raises(MatrixParseError, match="declared 2 rows but found 1"):
            loads_matrix("2 2\n1 2\n")

    def test_extra_rows(self):
        with pytest.raises(MatrixParseError, match="extra data"):
            loads_matrix("1 2\n1 2\n3 4\n")

    def test_bad_header(self):
        with pytest.raises(MatrixParseError, match="header"):
            loads_matrix("2\n1 2\n")
        with pytest.raises(MatrixParseError, match="integers"):
            loads_matrix("a b\n")

    def test_empty_file(self):
        with pytest.raises(MatrixParseError, match="empty file"):
            loads_matrix("# only a comment\n")

    def test_read_vector_rejects_matrix(self, tmp_path):
        path = tmp_path / "m.txt"
        write_matrix(path, np.eye(2))
        with pytest.raises(MatrixParseError, match="single-row or single-column"):
            read_vector(path)

    def test_dumps_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            dumps_matrix(np.zeros((2, 2, 2)))
