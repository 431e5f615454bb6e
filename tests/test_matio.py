import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enscgp import matio
from enscgp.errors import MatrixParseError
from enscgp.matio import (_BLOCK_VALUES, _format_rows, _format_text, _loads_checked,
                          _loads_fast, dumps_matrix, format_float, loads_matrix,
                          read_matrix, read_vector, write_matrix)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22)
FLOAT_MATRICES = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
    elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                       st.floats(allow_nan=False, allow_infinity=False),
                       st.integers(-10**6, 10**6).map(float)))


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
        for parse in (loads_matrix, _loads_checked):
            assert parse(text, "m").shape == shape
        assert dumps_matrix(loads_matrix(text)) == text

    @settings(max_examples=200, deadline=None)
    @given(FLOAT_MATRICES)
    def test_write_read_write_property(self, matrix):
        text = dumps_matrix(matrix)
        back = loads_matrix(text)
        assert matrix.size == 0 or _loads_fast(text) is not None
        assert back.shape == matrix.shape
        assert np.array_equal(np.signbit(back), np.signbit(matrix))
        np.testing.assert_array_equal(back, matrix)
        assert dumps_matrix(back) == text
        assert list(_format_rows(matrix)) == [
            " ".join(format_float(v) for v in row) for row in matrix]

    @settings(max_examples=200, deadline=None)
    @given(FLOAT_MATRICES)
    def test_batch_path_property(self, matrix):
        """The same, with every block through the batch formatter."""
        with mock.patch.object(matio, "_BATCH_MIN", 0):
            assert _format_rows(matrix) == [
                " ".join(format_float(v) for v in row) for row in matrix]


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
    _, _, certified = matio._decimal_digits(a, matio._tables()[0])
    assert (~certified).sum() < a.size / 10**4


def test_pow10_table_is_exact_to_double_double():
    from fractions import Fraction

    pow10 = matio._tables()[0]
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
    assert _format_rows(matrix) == [" ".join(format_float(v) for v in row) for row in matrix]


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


# every input goes through both parsers: the fast path must return the
# checked parser's array, or fall back so that its error is the one raised
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


def assert_parsers_agree(text):
    """The fast path returns the checked parser's array or None, and
    loads_matrix raises the checked parser's exact error."""
    fast = _loads_fast(text)
    try:
        expected = _loads_checked(text, "m.txt")
    except MatrixParseError as exc:
        assert fast is None
        with pytest.raises(MatrixParseError) as got:
            loads_matrix(text, "m.txt")
        assert str(got.value) == str(exc)
        return None
    for got in (loads_matrix(text, "m.txt"),) + (() if fast is None else (fast,)):
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
    return fast


@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_fast_parse_matches_checked_parser(text):
    assert_parsers_agree(text)


# the fast path converts BLOCK rows of BLOCK_COLS values per numpy call
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
    fast = assert_parsers_agree(text)
    assert fast is not None and fast.shape == (rows, BLOCK_COLS)


@pytest.mark.parametrize("fault", SECOND_BLOCK_FAULTS)
@pytest.mark.parametrize("rows, at", [(BLOCK + 1, BLOCK),
                                      (2 * BLOCK + 1, BLOCK),
                                      (2 * BLOCK + 1, BLOCK + 7),
                                      (2 * BLOCK + 1, 2 * BLOCK - 1)])
def test_second_block_faults_match_checked_parser(fault, rows, at):
    text = block_file(rows, fault, at)
    fast = assert_parsers_agree(text)
    if fault == "underscore":
        assert fast is not None and fast[at, 2] == 1000.0
    else:
        assert fast is None


@settings(max_examples=300, deadline=None)
@given(st.text(alphabet="a1 #\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029", max_size=40),
       st.integers(0, 9))
def test_chunked_lines_are_splitlines(text, chunk):
    with mock.patch.object(matio, "_CHUNK_CHARS", chunk):
        assert list(matio._lines(text)) == text.splitlines()


def test_fast_parse_memory_is_bounded_by_blocks():
    """Besides the text and the result, the fast path holds one chunk of
    lines and one block of tokens, not a list that grows with the file."""
    text = dumps_matrix(np.random.default_rng(0).normal(size=(5000, 40)))
    tracemalloc.start()
    try:
        out = _loads_fast(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert out is not None and out.shape == (5000, 40)
    # all 200k tokens held as str objects take over 10 times the result,
    # and all the text's lines split at once over 3 times
    assert peak < 1.5 * out.nbytes


# the fast path hands numpy lists of str tokens: numpy must take exactly the
# values float() gives them, and reject exactly what float() rejects
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


def test_numpy_converts_str_tokens_like_float(rng):
    tokens = NUMPY_FLOAT_TOKENS + random_float_tokens(rng, 20000)
    expected = np.array([float(t) for t in tokens])
    assert np.array(tokens, dtype=float).tobytes() == expected.tobytes()


@pytest.mark.parametrize("token", NOT_FLOAT_TOKENS)
def test_numpy_rejects_what_float_rejects(token):
    with pytest.raises(ValueError):
        float(token)
    with pytest.raises(ValueError):
        np.array(["1.5", token, "2"], dtype=float)


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
