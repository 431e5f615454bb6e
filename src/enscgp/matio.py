"""Plain-text matrix files.

Format: an optional block of ``#`` comment lines, a header line
``rows cols``, then exactly ``rows`` lines of ``cols`` whitespace-separated
decimal numbers. ``#`` starts a comment anywhere on a line. Non-finite
tokens are rejected. Numbers are written with 17 significant digits, which
round-trips IEEE doubles exactly, so write -> read -> write is
byte-identical. A matrix with no columns has no data lines (blank lines
are skipped), so ``rows 0`` alone reads as an empty rows x 0 matrix.

Reading tries a one-pass parse of a well-formed file first; on anything
irregular it starts over with the line-by-line checked parser, which alone
decides what is accepted and what each error says. The one-pass parse
splits the text into lines a bounded chunk at a time and converts a
bounded block of rows per numpy call, so besides the text and the result
it holds an amount of memory that does not grow with the file.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np

from .errors import MatrixParseError


def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact for doubles."""
    return f"{float(x):.17g}"


def _format_rows(matrix: np.ndarray):
    """Yield each row of a 2-D float array as its values' ``format_float``
    forms joined by single spaces, one row at a time."""
    template = " ".join(["%.17g"] * matrix.shape[1])
    for row in matrix:
        yield template % tuple(row.tolist())


def dumps_matrix(matrix, comments: tuple[str, ...] = ()) -> str:
    m = np.asarray(matrix, dtype=float)
    if m.ndim == 1:
        m = m[:, None]
    if m.ndim != 2:
        raise ValueError(f"expected a matrix or vector, got shape {m.shape}")
    lines = [f"# {c}" for c in comments]
    lines.append(f"{m.shape[0]} {m.shape[1]}")
    lines.extend(_format_rows(m))
    return "\n".join(lines) + "\n"


def write_matrix(path, matrix, comments: tuple[str, ...] = ()) -> None:
    Path(path).write_text(dumps_matrix(matrix, comments))


def loads_matrix(text: str, name: str = "<string>") -> np.ndarray:
    matrix = _loads_fast(text)
    return _loads_checked(text, name) if matrix is None else matrix


# The one-pass parse converts whole rows, at most this many values (or one
# row, if a row has more) per numpy call ...
_BLOCK_VALUES = 1 << 12
# ... and splits the text into lines about this many characters at a time.
_CHUNK_CHARS = 1 << 16


def _lines(text: str):
    """Yield ``text.splitlines()``, splitting a bounded chunk at a time.

    Each chunk ends just after a line feed, which always ends a line (a
    CRLF pair ends there too), so the lines are those of the whole text.
    """
    start = 0
    while start < len(text):
        end = text.find("\n", start + _CHUNK_CHARS) + 1 or len(text)
        yield from text[start:end].splitlines()
        start = end


def _loads_fast(text: str) -> np.ndarray | None:
    """Parse a well-formed file in one pass; None on any irregularity.

    Accepts only what ``_loads_checked`` accepts, with the same values, so
    a None costs time but never changes a result or an error message. Each
    line's tokens are checked as it is read; a block of rows is converted
    by one ``np.array(tokens, dtype=float)``, which applies ``float()`` to
    each token as the checked parser does.
    """
    out = None
    read = filled = 0  # rows read, rows converted into out
    pending: list[str] = []  # the tokens of rows filled..read
    for raw in _lines(text):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        if out is None:
            if len(tokens) != 2:
                return None
            try:
                rows, cols = int(tokens[0]), int(tokens[1])
            except ValueError:
                return None
            # a value takes at least two characters (a digit and a separator),
            # so a header declaring more than the text holds is left to the
            # checked parser, and nothing is allocated from it
            if min(rows, cols) < 0 or max(rows, cols, rows * cols) > len(text) // 2:
                return None
            out = np.empty((rows, cols))
            block = max(1, _BLOCK_VALUES // max(cols, 1))
            continue
        if read == rows or len(tokens) != cols:
            return None
        pending += tokens
        read += 1
        if read - filled == block or read == rows:
            try:
                out[filled:read] = np.array(pending, dtype=float).reshape(-1, cols)
            except ValueError:
                return None
            filled, pending = read, []
    if out is None or (cols and filled != rows) or not np.isfinite(out).all():
        return None
    return out


def _loads_checked(text: str, name: str) -> np.ndarray:
    """Line-by-line parser that names the line and column of the first error."""
    header = None
    rows: list[list[float]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if header is None:
            if len(tokens) != 2:
                raise MatrixParseError(
                    f"{name}:{lineno}: header must be 'rows cols', got {len(tokens)} tokens"
                )
            try:
                header = (int(tokens[0]), int(tokens[1]))
            except ValueError:
                raise MatrixParseError(
                    f"{name}:{lineno}: header dimensions must be integers"
                ) from None
            if header[0] < 0 or header[1] < 0:
                raise MatrixParseError(f"{name}:{lineno}: dimensions must be nonnegative")
            continue
        if len(rows) >= header[0]:
            raise MatrixParseError(
                f"{name}:{lineno}: extra data beyond the declared {header[0]} rows"
            )
        if len(tokens) != header[1]:
            raise MatrixParseError(
                f"{name}:{lineno}: expected {header[1]} values, got {len(tokens)}"
            )
        values = []
        for col, token in enumerate(tokens, start=1):
            try:
                value = float(token)
            except ValueError:
                raise MatrixParseError(
                    f"{name}:{lineno}: column {col}: invalid number {token!r}"
                ) from None
            if not math.isfinite(value):
                raise MatrixParseError(
                    f"{name}:{lineno}: column {col}: non-finite value {token!r}"
                )
            values.append(value)
        rows.append(values)
    if header is None:
        raise MatrixParseError(f"{name}: empty file, missing 'rows cols' header")
    if header[1] > 0 and len(rows) != header[0]:
        raise MatrixParseError(
            f"{name}: declared {header[0]} rows but found {len(rows)}"
        )
    try:
        return np.asarray(rows, dtype=float).reshape(header)
    except ValueError:  # only an empty shape with a dimension numpy cannot hold
        raise MatrixParseError(
            f"{name}: declared {header[0]}x{header[1]} matrix is too large"
        ) from None


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
