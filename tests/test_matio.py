import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from enscgp.errors import MatrixParseError
from enscgp.matio import (_format_rows, _loads_checked, _loads_fast, dumps_matrix,
                          format_float, loads_matrix, read_matrix, read_vector,
                          write_matrix)

EDGE_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308,
               -1.7976931348623157e308, 1.0, -3.0, 2.0**53, 1e22)


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
    @given(hnp.arrays(np.float64,
                      hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6),
                      elements=st.one_of(st.sampled_from(EDGE_FLOATS),
                                         st.floats(allow_nan=False, allow_infinity=False),
                                         st.integers(-10**6, 10**6).map(float))))
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


@pytest.mark.parametrize("text", PARITY_CASES.values(), ids=PARITY_CASES.keys())
def test_fast_parse_matches_checked_parser(text):
    try:
        expected = _loads_checked(text, "m.txt")
    except MatrixParseError as exc:
        with pytest.raises(MatrixParseError) as got:
            loads_matrix(text, "m.txt")
        assert str(got.value) == str(exc)
    else:
        got = loads_matrix(text, "m.txt")
        assert got.shape == expected.shape
        assert np.array_equal(got, expected)
        assert np.array_equal(np.signbit(got), np.signbit(expected))


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
