#!/usr/bin/env python3
"""Check that matrix files print every double exactly as %.17g does.

Formats COUNT seeded doubles with matio.dumps_matrix, as one column in
pieces of 2^16 values, and compares each line with Python's "%.17g". A
third of the values are random finite bit patterns, a third the same with
the low 40 mantissa bits cleared (short expansions, ties at the 17th
digit), a third normals scaled over 1e-300..1e300; powers of ten and
their neighbours come first. Exits 1 at the first mismatch, printing it.
"""

import argparse
import sys

import numpy as np

from enscgp import matio

PIECE = 1 << 16


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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=10**6)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    checked = 0
    for values in pieces(args.count, args.seed):
        lines = matio.dumps_matrix(values[:, None]).split("\n")[1:-1]
        for value, line in zip(values.tolist(), lines):
            if line != "%.17g" % value:
                print(f"mismatch after {checked} values: {value!r} printed {line!r}, "
                      f"%.17g gives {'%.17g' % value!r}")
                return 1
            checked += 1
    print(f"{checked} values print as %.17g")
    return 0


if __name__ == "__main__":
    sys.exit(main())
