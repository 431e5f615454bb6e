#!/usr/bin/env python3
"""Check that matrix files print every double exactly as %.17g does, and
read every token exactly as float() does.

Draws COUNT seeded doubles in pieces of 2^16 values: a third random finite
bit patterns, a third the same with the low 40 mantissa bits cleared (short
expansions, ties at the 17th digit), a third normals scaled over
1e-300..1e300; powers of ten and their neighbours come first. Writing:
matio.dumps_matrix prints each piece as one column, and each line must be
Python's "%.17g". Reading: matio.loads_matrix reads each piece written as
three columns, "%.17g", repr and "%.18e" (a 19-digit mantissa), and each
value must have the bits of float() of its token. Exits 1 at the first
mismatch, printing it.
"""

import argparse
import sys

import numpy as np

from enscgp import matio

PIECE = 1 << 16
FORMS = ("%.17g", "repr", "%.18e")


def pieces(count: int, seed: int):
    powers = np.array([10.0**k for k in range(-323, 309)])
    powers = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
    yield np.concatenate([powers, -powers])
    rng = np.random.default_rng(seed)
    for start in range(0, count, PIECE):
        size = min(PIECE, count - start) // 3 + 1
        bits = rng.integers(0, 2**64, size=size, dtype=np.uint64)
        short = bits & ~np.uint64((1 << 40) - 1)
        scaled = rng.normal(size=size) * 10.0 ** rng.uniform(-300, 300, size=size)
        values = np.concatenate([bits.view(np.float64), short.view(np.float64), scaled])
        yield values[np.isfinite(values)][:count - start]


def write_mismatch(values: np.ndarray):
    """The first value that dumps_matrix does not print as %.17g, with its text."""
    lines = matio.dumps_matrix(values[:, None]).split("\n")[1:-1]
    for value, line in zip(values.tolist(), lines):
        if line != "%.17g" % value:
            return value, line
    return None


def read_mismatch(values: np.ndarray):
    """The first token that loads_matrix does not read as float() does,
    with both values."""
    tokens = [(f"{v:.17g}", repr(v), f"{v:.18e}") for v in values.tolist()]
    text = f"{len(tokens)} {len(FORMS)}\n" + "".join(" ".join(row) + "\n" for row in tokens)
    got = matio.loads_matrix(text)
    expected = np.array([[float(t) for t in row] for row in tokens]).reshape(got.shape)
    bad = np.flatnonzero(got.view(np.uint64) != expected.view(np.uint64))
    if bad.size:
        row, col = divmod(int(bad[0]), len(FORMS))
        return tokens[row][col], float(got[row, col]), float(expected[row, col])
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checked = 0
    for values in pieces(args.count, args.seed):
        wrong = write_mismatch(values)
        if wrong:
            value, line = wrong
            print(f"mismatch after {checked} values: {value!r} printed {line!r}, "
                  f"%.17g gives {'%.17g' % value!r}")
            return 1
        wrong = read_mismatch(values)
        if wrong:
            token, got, expected = wrong
            print(f"mismatch after {checked} values: {token!r} read as {got!r}, "
                  f"float() gives {expected!r}")
            return 1
        checked += values.size
    print(f"{checked} values print as %.17g, and read as float() reads them "
          f"written as {', '.join(FORMS)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
