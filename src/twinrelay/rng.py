"""Deterministic stream derivation for every random draw in the package.

All randomness comes from Philox4x64 counter-based bit generators.  A
stream is addressed by a 64-bit master seed plus an integer path
(session id, node id, trial index, ...); the 128-bit Philox key is
derived from (master, *path) with a splitmix64 chain.  Streams are
stateless functions of their address, so any worker can materialize any
stream without coordination and aggregate results are independent of
scheduling.  Reference draws are pinned by ``tests/data/rng_vectors.json``.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# Stream tags used as path components so unrelated consumers of the same
# (master, session) pair never collide.
TAG_DITHER = 0x01
TAG_NOISE = 0x02
TAG_PACKET = 0x05
TAG_TRIAL = 0x06


def mix64(z: int) -> int:
    """splitmix64 finalizer; bijective on 64-bit integers."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def derive_seed(master: int, *path: int) -> int:
    """Collapse (master, *path) into a single 64-bit stream seed.

    Position-dependent chaining: permuting the path yields a different
    seed, and extending a path never reproduces a prefix seed.
    """
    h = mix64(master & _MASK64)
    for i, part in enumerate(path):
        h = mix64(h ^ mix64((part & _MASK64) + ((i + 1) << 56)))
    return h


def philox_key(master: int, *path: int) -> np.ndarray:
    """128-bit Philox key for the stream addressed by (master, *path)."""
    h = derive_seed(master, *path)
    return np.array([h, mix64(h ^ 0xA5A5A5A5A5A5A5A5)], dtype=np.uint64)


def generator(master: int, *path: int) -> np.random.Generator:
    """Fresh Generator over Philox4x64 for the addressed stream."""
    return np.random.Generator(np.random.Philox(key=philox_key(master, *path)))
