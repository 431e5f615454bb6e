"""Deterministic random streams.

Normal variates come from the Box-Muller transform driven by Philox-4x32
counter-mode uniforms. Both pieces are platform-independent, so a given
(seed, substream) pair yields bitwise-identical draws everywhere, which is
what the reproducibility guarantees of the sampler and the CLI rest on.
Substreams are independent of each other and of their parent; per-member
work can therefore run in parallel with substream index = member index.
"""

from __future__ import annotations

import numpy as np


class NormalStream:
    """Seeded standard-normal stream (Philox uniforms, Box-Muller normals)."""

    def __init__(self, seed: int, _spawn_key: tuple[int, ...] = ()):
        self._seed = int(seed)
        self._spawn_key = tuple(int(k) for k in _spawn_key)
        key = np.random.SeedSequence(self._seed, spawn_key=self._spawn_key)
        self._uniform = np.random.Generator(np.random.Philox(key))

    def substream(self, index: int) -> "NormalStream":
        """Independent stream derived deterministically from (seed, index)."""
        return NormalStream(self._seed, self._spawn_key + (int(index),))

    def normals(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Standard-normal draws; odd counts discard the spare of the last pair."""
        size = int(np.prod(shape))
        pairs = (size + 1) // 2
        u = self._uniform.random((1, 2 * pairs))
        return _block_normals(u, pairs, size)[0].reshape(shape)

    def uniforms(self, shape: int | tuple[int, ...]) -> np.ndarray:
        """Uniform draws on [0, 1)."""
        return self._uniform.random(shape)

    def integers(self, low: int, high: int, size=None):
        """Uniform integers in [low, high)."""
        return self._uniform.integers(low, high, size=size)


_BLOCK_TAG = 0x626C6B  # keeps blocked streams disjoint from NormalStream(seed)


def _block_normals(u: np.ndarray, pairs: int, n: int) -> np.ndarray:
    u1 = 1.0 - u[:, :pairs]  # (0, 1], keeps the log finite
    u2 = u[:, pairs : 2 * pairs]
    radius = np.sqrt(-2.0 * np.log(u1))
    angle = 2.0 * np.pi * u2
    z = np.empty((u.shape[0], 2 * pairs))
    z[:, 0::2] = radius * np.cos(angle)
    z[:, 1::2] = radius * np.sin(angle)
    return z[:, :n]


def blocked_normals(seed: int, n: int, n_members: int) -> np.ndarray:
    """Standard normals in (n, n_members) layout, one member per column.

    Column e reads its own fixed window of the Philox counter sequence, so
    it depends only on (seed, e): it is column e of every batch with more
    than e members, and per-member consumers can run in parallel and still
    reproduce this serial batch.
    """
    # each member consumes a whole number of 4-draw Philox counter blocks
    pairs = (n + 1) // 2
    stride = 4 * ((2 * pairs + 3) // 4)
    seq = np.random.SeedSequence(int(seed), spawn_key=(_BLOCK_TAG,))
    gen = np.random.Generator(np.random.Philox(key=seq.generate_state(2, np.uint64)))
    u = gen.random(n_members * stride).reshape(n_members, stride)
    return _block_normals(u, pairs, n).T

