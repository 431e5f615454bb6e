"""Plain-text matrix files.

Format: an optional block of ``#`` comment lines, a header line
``rows cols``, then exactly ``rows`` lines of ``cols`` whitespace-separated
decimal numbers. ``#`` starts a comment anywhere on a line. Non-finite
tokens are rejected. Numbers are written with 17 significant digits, which
round-trips IEEE doubles exactly, so write -> read -> write is
byte-identical. A matrix with no columns has no data lines (blank lines
are skipped), so ``rows 0`` alone reads as an empty rows x 0 matrix.

Writing prints exactly the bytes of ``"%.17g" % value`` for every value, a
block of at most _BLOCK_VALUES values at a time. The batch path computes
each value's 17 digits with numpy double-double arithmetic and certifies
them; it prints every value it cannot certify, and every block of fewer
than _BATCH_MIN values, with ``%.17g`` itself. Besides the text, a write
holds one block's work.

Reading is one pass, by loads_matrix. The header is looked for one line
at a time and the result allocated once; the text after the header is
then read about _CHUNK_CHARS characters at a time, each chunk ending with
a line. A chunk of _PLAIN_MIN characters or more that is plain (ASCII
lines of decimal tokens ``[+-](digits[.[digits]]|.digits)[(e|E)[+-]digits]``
between single spaces, each line ended by a line feed) is converted
without float(): numpy checks its bytes and finds each token's end, point
and exponent mark, np.fromstring reads its digits and exponents as int64
integers d and e, and each value d·10^e is rounded by Clinger's exact path
(when the whole chunk is in its domain) or by a double-double product that
certifies the rounding. The few tokens left uncertified (ties, digits
beyond int64, 17-digit magnitudes outside about 1e-250..1e305) are read by
float() one by one. Such a chunk is stored in bulk if it fits the declared
rows and its values are finite. Every other chunk is read line by line,
with float() on each token, and those rules alone decide what is accepted
and what each error says. Either way every value has float(token)'s bits.
Besides the text and the result, a read holds one chunk's work.
"""

from __future__ import annotations

import functools
import itertools
import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact for doubles."""
    return f"{float(x):.17g}"


# Arrays are printed by a batch form of %.17g that gives its exact bytes.
# Blocks of fewer than _BATCH_MIN values, values outside [_FAST_MIN,
# _FAST_MAX) (zeros, subnormals, huge and non-finite values) and values whose
# digits the double-double arithmetic below cannot certify are printed by
# %.17g itself.
_BATCH_MIN = 1 << 9
_FAST_MIN, _FAST_MAX = 1e-280, 1e280
# log10's estimate of a value's decimal exponent X is off by at most one and
# the fix-up moves it by one more, so the tables cover |X| <= _X_SPAN
_X_SPAN = 282
# Veltkamp's splitter: a double times it splits into two halves of at most
# 26 bits, whose products are exact (Dekker's two-product; numpy has no fma)
_SPLIT = 2.0**27 + 1
# |x|·10^(16-X) is below 1e17 and its double-double carries an error under
# 4·2^-106 of it (the table's and two roundings'), under 5e-15; a value is
# certified only when its product is further than this from a rounding
# boundary (½ between integers) and from 1e16 and 1e17
_MARGIN = 2.0**-40
# each value's text is a subsequence of these slots, one column of slots per
# value: a minus sign, "0.000" for 1e-4 <= |x| < 1 (X < 0), the 17 digits
# with a candidate point after each but the last, an exponent, a separator
_SLOTS = np.frombuffer(b"-0.000" + b"0." * 16 + b"0e+000 ", np.uint8)[:, None]
_RANKS = np.arange(17)[:, None]


@functools.cache
def _pow10():
    """The reader's and the writer's table of 10^(16-X), built on first use.

    pow10[:, X + _X_SPAN] is 10^(16-X) as a double-double (hi, lo) with hi
    split by _SPLIT: rows hi, hi's high half, hi's low half, lo. hi and lo
    are rounded from the exact integer or quotient (float(int) and int / int
    round correctly).
    """
    pow10 = []
    for x in range(-_X_SPAN, _X_SPAN + 1):
        k = 16 - x
        if k >= 0:
            hi = float(10**k)
            lo = float(10**k - int(hi))
        else:
            hi = 1 / 10**-k
            num, den = hi.as_integer_ratio()
            lo = (den - num * 10**-k) / (den * 10**-k)
        pow10.append((hi, lo))
    hi, lo = np.array(pow10).T
    big = hi * _SPLIT
    high = big - (big - hi)
    table = np.array([hi, high, hi - high, lo])
    table.flags.writeable = False  # shared by every caller
    return table


@functools.cache
def _digit_tables():
    """(quads, sig, exps), the writer's digit tables, built on first use.

    quads[q] holds the 4 ASCII digits of q < 10^4 in its bytes, sig[q]
    counts them up to the last nonzero one, and exps[:, X + _X_SPAN] is an
    exponent's sign and 3 digits.
    """
    ranks = 10 ** np.arange(3, -1, -1)
    q = np.arange(10**4)[:, None]
    quads = (q // ranks % 10 + 48).astype(np.uint8)
    sig = np.where(q[:, 0] > 0, 4 - np.argmax(quads[:, ::-1] != 48, axis=1), 0)
    x = np.arange(-_X_SPAN, _X_SPAN + 1)
    exps = np.vstack([np.where(x < 0, 45, 43),
                      np.abs(x) // ranks[1:, None] % 10 + 48]).astype(np.uint8)
    tables = (quads.view(np.uint32).ravel(), sig.astype(np.uint8), exps)
    for table in tables:  # shared by every caller
        table.flags.writeable = False
    return tables


def _scaled(a: np.ndarray, x: np.ndarray, pow10: np.ndarray):
    """a·10^(16-x) as a double-double (hi, lo): a·hi exactly by Dekker's
    two-product, plus a·lo."""
    t_hi, t_high, t_low, t_lo = np.take(pow10, x + _X_SPAN, axis=1)
    big = a * _SPLIT
    high = big - (big - a)
    low = a - high
    hi = a * t_hi
    err = ((high * t_high - hi) + high * t_low + low * t_high) + low * t_low
    return hi, err + a * t_lo


def _decimal_digits(a: np.ndarray, pow10: np.ndarray):
    """(x, digits, certified) for positive doubles a in [_FAST_MIN, _FAST_MAX).

    digits is the 17-digit integer D, x the decimal exponent X of a rounded
    to 17 digits (a ≈ D·10^(X-16)); both equal %.17g's wherever certified.
    """
    x = np.floor(np.log10(a)).astype(np.intp)
    hi, lo = _scaled(a, x, pow10)
    # the unrounded product's place against 1e16 and 1e17 fixes X (hi - 1e16
    # and 1e17 - hi are exact where they are small)
    above = (hi - 1e16) + lo
    below = (1e17 - hi) - lo
    off = np.flatnonzero((above < 0) | (below <= 0))
    if off.size:
        x[off] += np.where(above[off] < 0, -1, 1)
        hi[off], lo[off] = _scaled(a[off], x[off], pow10)
        above[off] = (hi[off] - 1e16) + lo[off]
        below[off] = (1e17 - hi[off]) - lo[off]
    whole = np.floor(lo)  # hi >= 1e16 > 2^53 is an integer
    frac = lo - whole
    digits = hi.astype(np.int64) + whole.astype(np.int64)
    # 10^(16-X) is a double for -6 <= X <= 16, so the product is exact there:
    # it needs no margin, and a tie (frac ½) is real and rounds to even
    exact = (x >= -6) & (x <= 16)
    certified = (above >= 0) & (below > 0) & (exact | (
        (np.abs(frac - 0.5) > _MARGIN) & (above > _MARGIN) & (below > _MARGIN)))
    digits += (frac > 0.5) | ((frac == 0.5) & (digits & 1 == 1))
    carry = digits == 10**17  # rounding up to 10^17 raises X: %g's rule
    digits[carry] = 10**16
    x += carry
    return x, digits, certified


def _template(count: int, start: int, cols: int) -> str:
    """A %-format for ``count`` values from item ``start`` of a flattened
    matrix with ``cols`` columns: %.17g and a space, or a line feed after
    the last value of a row."""
    fields = ["%.17g "] * count
    for i in range((cols - 1 - start) % cols, count, cols):
        fields[i] = "%.17g\n"
    return "".join(fields)


def _format_values(values: np.ndarray, start: int, cols: int) -> str:
    """The text of ``values``, items ``start``... of a flattened matrix with
    ``cols`` columns: each %.17g followed by a space, or by a line feed at
    the end of a row.

    Each value's text is laid out in _SLOTS, one column per value, with the
    slots it does not use zeroed; the zero bytes are then deleted from the
    value-by-value bytes. The text of a value that is not certified is
    formatted by %.17g and written over its column.
    """
    if values.size < _BATCH_MIN:
        return _template(values.size, start, cols) % tuple(values.tolist())
    pow10 = _pow10()
    quads, sig, exps = _digit_tables()
    a = np.abs(values)
    fast = (a >= _FAST_MIN) & (a < _FAST_MAX)
    a[~fast] = 3.0  # any in-window value: keeps the arithmetic quiet
    x, digits, certified = _decimal_digits(a, pow10)
    fast &= certified
    chunks = np.empty((4, values.size), np.int64)  # D's 4-digit groups
    high, chunks[2] = np.divmod(digits, 10**8)
    np.divmod(chunks[2], 10**4, out=(chunks[2], chunks[3]))
    np.divmod(high, 10**4, out=(high, chunks[1]))
    lead, chunks[0] = np.divmod(high, 10**4)
    text = np.empty((_SLOTS.size, values.size), np.uint8)
    text[:] = _SLOTS
    text[6] += lead.astype(np.uint8)
    text[8:40].reshape(4, 8, -1)[:, ::2] = (
        np.take(quads, chunks).view(np.uint8).reshape(4, -1, 4).transpose(0, 2, 1))
    text[40:44] = np.take(exps, x + _X_SPAN, axis=1)
    # nd: D's digits up to its last nonzero one
    nd = sig[chunks[3]] + 13
    zeros = np.flatnonzero(chunks[3] == 0)
    if zeros.size:
        last = sig[chunks[:, zeros]]
        nd[zeros] = np.where(last > 0, last + 4 * _RANKS[:4] + 1, 1).max(axis=0)
    fixed = (x >= -4) & (x < 17)
    point = np.where(fixed, x, 0)  # the point follows digit X, or digit 0
    point[nd <= point + 1] = -1  # %g drops a point that ends the text
    keep = np.empty(text.shape, bool)
    keep[0] = values < 0
    keep[1:6] = _RANKS[:5] < np.where(fixed & (x < 0), 1 - x, 0)
    keep[6:39:2] = _RANKS < np.where(fixed, np.maximum(nd, x + 1), nd)
    keep[7:38:2] = _RANKS[:16] == point
    keep[39:44] = ~fixed
    keep[41] &= np.abs(x) >= 100  # a third exponent digit only when needed
    keep[44] = True
    text *= keep
    text[44, (cols - 1 - start) % cols::cols] = 10
    slow = np.flatnonzero(~fast)
    if slow.size:
        # %-24.17g pads each text (at most 24 characters) with spaces
        old = np.frombuffer((("%-24.17g" * slow.size) % tuple(values[slow].tolist()))
                            .encode("ascii"), np.uint8).reshape(-1, 24)
        text[:44, slow] = 0
        text[:24, slow] = np.where(old == 32, 0, old).T
    return text.T.tobytes().translate(None, b"\0").decode("ascii")


def _format_text(matrix: np.ndarray):
    """Yield the text of a 2-D float array's rows in pieces of at most
    _BLOCK_VALUES values: %.17g values separated by single spaces, each row
    ended by a line feed."""
    rows, cols = matrix.shape
    if cols == 0:
        yield "\n" * rows
        return
    for start in range(0, matrix.size, _BLOCK_VALUES):
        # as double, the value each tolist() item formats as
        block = matrix.flat[start:start + _BLOCK_VALUES].astype(float, copy=False)
        yield _format_values(block, start, cols)


def _matrix_text(matrix, comments: tuple[str, ...] = ()):
    """The text of a matrix file in pieces: the comment and header lines,
    then the writer's blocks. A matrix or vector is checked here, before
    any piece is taken."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"expected a matrix or vector, got shape {m.shape}")
    head = "".join(f"# {c}\n" for c in comments) + f"{m.shape[0]} {m.shape[1]}\n"
    return itertools.chain([head], _format_text(m))


def dumps_matrix(matrix, comments: tuple[str, ...] = ()) -> str:
    text = ""
    for piece in _matrix_text(matrix, comments):
        # CPython extends text in place (its only reference): the pieces are
        # never all held beside the result
        text += piece
    return text


def write_matrix(path, matrix, comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(dumps_matrix(matrix, comments))


# Writing prints at most this many values per numpy call; reading takes the
# text about _CHUNK_CHARS characters at a time
_BLOCK_VALUES = 1 << 12
_CHUNK_CHARS = 1 << 16
# _plain_values costs about 0.1 ms a chunk however short; float() per token
# costs less below a few hundred tokens, so shorter chunks are read line by
# line
_PLAIN_MIN = 1 << 12
# _plain_values's byte classes: a separator (space or line feed), a sign, the
# point, an exponent mark, anything else
_SEP, _SIGN, _POINT, _MARK, _OTHER = range(5)
_CLASS = np.full(256, _OTHER, np.uint8)
for _chars, _kind in ((b" \n", _SEP), (b"+-", _SIGN), (b".", _POINT), (b"eE", _MARK)):
    _CLASS[list(_chars)] = _kind
# _FOLLOWS[10 p + 2 q + g]: whether a byte of class q may follow one of
# class p with no digits (g = 0) or some digits (g = 1) between them in a
# chunk of tokens [+-](digits[.[digits]]|.digits)[(e|E)[+-]digits]. Two
# rules span more than a pair and are checked on their own: a sign after an
# exponent mark must be followed by a separator, and a point must have a
# digit on one side
_FOLLOWS = np.zeros(50, bool)
for _pair in ((_SEP, _SEP, 1), (_SEP, _SIGN, 0), (_SEP, _POINT, 0), (_SEP, _POINT, 1),
              (_SEP, _MARK, 1), (_SIGN, _SEP, 1), (_SIGN, _POINT, 0), (_SIGN, _POINT, 1),
              (_SIGN, _MARK, 1), (_POINT, _SEP, 0), (_POINT, _SEP, 1), (_POINT, _MARK, 0),
              (_POINT, _MARK, 1), (_MARK, _SIGN, 0), (_MARK, _SEP, 1)):
    _FOLLOWS[_pair[0] * 10 + _pair[1] * 2 + _pair[2]] = True
# np.fromstring reads a plain chunk's integers once its points are deleted
# and its exponent marks made separators
_INTEGERS = bytes.maketrans(b"eE", b"  ")
# d·10^e is converted as a double-double for 0 <= d < _D_MAX (d's nearest
# double is then below 2^63, so it casts back to int64) and e where pow10
# holds 10^e and any such d·10^e is below the largest double
_D_MAX = 2**63 - 2**10
_E_MIN, _E_MAX = 16 - _X_SPAN, 289


def _line_end(text: str, pos: int) -> int:
    """The index just after the first line boundary that ``str.splitlines``
    recognizes at or after ``pos``, or ``len(text)`` if there is none.

    splitlines runs on a window of 256 characters from ``pos``, doubled
    until the first line ends inside it, so a CRLF pair is never split and
    the scan costs about twice the line's length.
    """
    width = 256
    while pos < len(text):
        line = text[pos:pos + width].splitlines(keepends=True)[0]
        # a line shorter than the window ended inside it
        if len(line) < width or pos + width >= len(text):
            return pos + len(line)
        width *= 2
    return len(text)


def _chunks(text: str, start: int = 0):
    """Yield ``text[start:]`` in pieces of about _CHUNK_CHARS characters.

    Each piece but the last ends just after a line boundary: the first line
    feed in the _CHUNK_CHARS characters after its _CHUNK_CHARS-th (a line
    feed always ends a line, and a CRLF pair ends there too), or, with none
    there, the first boundary of any kind that ``str.splitlines``
    recognizes. So the pieces' lines are those of the whole text, and a
    text with other line ends (a bare CR) is cut as often as one with line
    feeds.
    """
    while start < len(text):
        cut = start + _CHUNK_CHARS
        end = text.find("\n", cut, cut + _CHUNK_CHARS) + 1 or _line_end(text, cut)
        yield text[start:end]
        start = end


def _to_double(d: np.ndarray, e: np.ndarray):
    """(values, certified) for int64 arrays d and e: each value is the
    double nearest d·10^e wherever certified.

    Clinger's path: where every 0 <= d <= 2^53 and |e| <= 22, d and 10^|e|
    are doubles and one product or quotient rounds correctly, so every
    value is certified. Otherwise, for 0 <= d < _D_MAX and _E_MIN <= e <=
    _E_MAX: d = a + a_lo exactly with a the double nearest d, and a·10^e
    (Dekker's two-product against pow10's double-double) plus a_lo·10^e is
    a double-double hi + lo within 8·2^-106·d·10^e of d·10^e: the table's
    error, three roundings of terms under 2^-52 of it, and the dropped
    product of a_lo and the table's low part. Rounding is monotone, so when
    hi + (lo - m) and hi + (lo + m) round to the same double for m =
    2^-100·hi, so does d·10^e: that value is certified. Exact ties, such as
    7e22 (7·5^22·2^22, whose odd part has 54 bits), are not.
    """
    pow10 = _pow10()
    d = np.minimum(d, _D_MAX)
    a = d.astype(float)
    if d.view(np.uint64).max() <= 2**53 and -22 <= e.min() and e.max() <= 22:
        power = np.take(pow10[0], _X_SPAN + 16 - np.abs(e))
        return np.where(e < 0, a / power, a * power), np.ones(d.size, bool)
    x = 16 - np.minimum(np.maximum(e, _E_MIN), _E_MAX)
    hi, lo = _scaled(a, x, pow10)
    lo += (d - a.astype(np.int64)) * np.take(pow10[0], x + _X_SPAN)
    margin = hi * 2.0**-100
    values = hi + (lo - margin)
    certified = (values == hi + (lo + margin)) & (d.view(np.uint64) < _D_MAX) & (x == 16 - e)
    return values, certified


def _plain_tokens(chunk: str, cols: int):
    """(ends, negative, d, e) for a plain chunk; None if it is not plain.

    A plain chunk is ASCII lines of ``cols`` tokens, single spaces between
    the tokens and a line feed after each line, and each token a decimal
    that ``float()`` reads: [+-](digits[.[digits]]|.digits)[(e|E)[+-]digits].
    ends holds each token's end, negative whether it starts with a minus,
    and the int64 arrays d and e give its magnitude as d·10^e: np.fromstring
    reads its digits as d (saturating beyond int64) and its exponent, less
    the count of digits after the point, as e.
    """
    if not (chunk.isascii() and chunk.endswith("\n")):
        return None
    raw = chunk.encode("ascii")
    b = np.frombuffer(raw, np.uint8)
    # the bytes other than digits, after a separator before the chunk (b[-1]
    # is a line feed)
    at = np.concatenate(([-1], np.flatnonzero(b - 48 > 9)))
    gaps = np.diff(at) - 1  # digits between each and the next
    digits = gaps > 0
    kinds = np.take(_CLASS, np.take(b, at))
    points = np.flatnonzero(kinds == _POINT)
    marks = np.flatnonzero(kinds == _MARK)
    signed = marks[kinds[marks + 1] == _SIGN]  # marks followed by a sign
    if not (np.take(_FOLLOWS, kinds[:-1] * 10 + kinds[1:] * 2 + digits).all()
            and (digits[points - 1] | digits[points]).all()
            and (kinds[signed + 2] == _SEP).all()):
        return None
    ends = np.compress(kinds[1:] == _SEP, at[1:])
    count = ends.size
    line_ends = np.take(b, ends) == 10
    if (count % cols or not line_ends[cols - 1::cols].all()
            or np.count_nonzero(line_ends) != count // cols):
        return None
    ints = np.fromstring(raw.translate(_INTEGERS, b"."), np.int64, sep=" ")
    if ints.size != count + marks.size:
        return None
    places = gaps[points]  # digits after each point
    if points.size == count:  # a point in every token (there is at most one)
        power = -places
    else:
        power = np.zeros(count, np.int64)
        power[np.searchsorted(ends, at[points])] = -places
    if marks.size:
        marked = np.searchsorted(ends, at[marks])  # the tokens with exponents
        exponents = marked + np.arange(1, marks.size + 1)  # their places in ints
        power[marked] += ints[exponents]
        ints = np.delete(ints, exponents)
    starts = np.concatenate(([0], ends[:-1] + 1))
    return ends, np.take(b, starts) == 45, np.abs(ints), power


def _plain_values(chunk: str, cols: int) -> np.ndarray | None:
    """The values of a plain chunk (see _plain_tokens), in order; None if
    the chunk is not plain. _to_double converts each token, and ``float()``
    each whose value it does not certify. (_plain_tokens's byte-level
    arrays are freed before the conversion runs.)"""
    tokens = _plain_tokens(chunk, cols)
    if tokens is None:
        return None
    ends, negative, d, e = tokens
    values, certified = _to_double(d, e)
    if negative.any():
        values = np.copysign(values, 0.5 - negative)
    for i in np.flatnonzero(~certified).tolist():
        values[i] = float(chunk[ends[i - 1] + 1 if i else 0:ends[i]])
    return values


def loads_matrix(text: str, name: str = "<string>") -> np.ndarray:
    """Parse a matrix file's text in one pass (see the module docstring);
    a MatrixParseError names the line, and the column, of the first fault.

    The result is allocated once, for at most one value per two characters
    of text (a digit and a separator). A chunk after the header is stored
    in bulk when it has _PLAIN_MIN characters or more, _plain_values reads
    it, it fits the declared rows and its values are all finite; any other
    chunk is read line by line, and its values are stored together.
    """
    start = lineno = 0
    tokens = []
    while not tokens:  # the header, one line at a time
        if start == len(text):
            raise MatrixParseError(f"{name}: empty file, missing 'rows cols' header")
        end = _line_end(text, start)
        lineno += 1
        tokens = text[start:end].split("#", 1)[0].split()
        start = end
    if len(tokens) != 2:
        raise MatrixParseError(
            f"{name}:{lineno}: header must be 'rows cols', got {len(tokens)} tokens")
    try:
        rows, cols = int(tokens[0]), int(tokens[1])
    except ValueError:
        raise MatrixParseError(f"{name}:{lineno}: header dimensions must be integers") from None
    if rows < 0 or cols < 0:
        raise MatrixParseError(f"{name}:{lineno}: dimensions must be nonnegative")
    out = np.empty(min(rows * cols, (len(text) + 1) // 2))
    found = read = 0  # data rows read, values stored
    for chunk in _chunks(text, start):
        values = _plain_values(chunk, cols) if cols and len(chunk) >= _PLAIN_MIN else None
        count = 0 if values is None else values.size // cols
        if count and found + count <= rows and np.isfinite(values).all():
            lineno += count
            found += count
        else:
            values = []
            for line in chunk.splitlines():
                lineno += 1
                tokens = line.split("#", 1)[0].split()
                if not tokens:
                    continue
                if found >= rows:
                    raise MatrixParseError(
                        f"{name}:{lineno}: extra data beyond the declared {rows} rows")
                if len(tokens) != cols:
                    raise MatrixParseError(
                        f"{name}:{lineno}: expected {cols} values, got {len(tokens)}")
                for col, token in enumerate(tokens, start=1):
                    try:
                        value = float(token)
                    except ValueError:
                        raise MatrixParseError(
                            f"{name}:{lineno}: column {col}: invalid number {token!r}"
                        ) from None
                    if not math.isfinite(value):
                        raise MatrixParseError(
                            f"{name}:{lineno}: column {col}: non-finite value {token!r}")
                    values.append(value)
                found += 1
        out[read:read + len(values)] = values
        read += len(values)
    if cols and found != rows:
        raise MatrixParseError(f"{name}: declared {rows} rows but found {found}")
    try:
        return out.reshape(rows, cols)
    except ValueError:  # only an empty shape with a dimension numpy cannot hold
        raise MatrixParseError(f"{name}: declared {rows}x{cols} matrix is too large") from None


def read_matrix(path) -> np.ndarray:
    path = Path(path)
    return loads_matrix(path.read_text(), name=str(path))


def read_vector(path) -> np.ndarray:
    """Read a matrix file holding a single row or column and flatten it."""
    m = read_matrix(path)
    if m.ndim != 2 or (m.shape[0] != 1 and m.shape[1] != 1):
        raise MatrixParseError(
            f"{path}: expected a single-row or single-column matrix, got {m.shape[0]}x{m.shape[1]}"
        )
    return m.ravel()
