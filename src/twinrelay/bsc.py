"""Binary-symmetric-channel exchange with identical linear codes.

Both end nodes encode with the same binary linear code, so the relay
observes codeword1 XOR codeword2 XOR noise.  Linearity makes the XOR of
two codewords another codeword of the same code, so the relay can run a
plain single-codeword decoder and forward the result; each end node then
XOR-cancels its own part.  This is the group-structure mechanism the
lattice scheme lifts to the reals.  The harness kernel runs a block of
rounds at once on packed words (`bsc_rows`).  It is the one exchange path;
the scalar reference it is tested against, which encodes and ML-decodes
bit rows, lives in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from .errors import GuardExceededError, ValidationError
from .lattice import ONE_HOT_GUARD, _enumerate_messages, scan_rows

ML_GUARD_K = 16  # brute-force decoding enumerates 2^k codewords


@dataclass(eq=False)
class BinaryLinearCode:
    generator: np.ndarray

    def __post_init__(self) -> None:
        G = np.asarray(self.generator, dtype=np.int64) % 2
        if G.ndim != 2:
            raise ValidationError("generator must be a k x n matrix")
        self.generator = G
        if self.k > ML_GUARD_K:
            raise GuardExceededError(f"k={self.k} exceeds brute-force guard {ML_GUARD_K}")
        msgs = _enumerate_messages(2, self.k)
        self.codewords = msgs @ G % 2
        self.messages = msgs
        if len({row.tobytes() for row in self.codewords.astype(np.uint8)}) != 2 ** self.k:
            raise ValidationError("generator is not full rank over GF(2)")

    @property
    def k(self) -> int:
        return int(self.generator.shape[0])

    @property
    def n(self) -> int:
        return int(self.generator.shape[1])

    def ml_decode(self, word: np.ndarray) -> np.ndarray:
        """Minimum-Hamming-distance decode of each row of `word` (..., n) to
        its message bits (..., k); ties go to the lowest message index.

        Against a row w, codeword c is at distance |w| + |c| - 2 w.c; |w| is
        the same for every c, so the argmin is that of |c| - 2 w.c, computed
        in row chunks of at most SCAN_WORKSET distances.
        """
        word = np.asarray(word, dtype=np.int64) % 2
        rows = word.reshape(-1, self.n)
        best = np.empty(rows.shape[0], dtype=np.int64)
        weights = self.codewords.sum(axis=1)
        for sl in scan_rows(rows.shape[0], self.codewords.shape[0]):
            best[sl] = np.argmin(weights - 2 * rows[sl] @ self.codewords.T, axis=1)
        return self.messages[best].reshape(word.shape[:-1] + (self.k,))

    @cached_property
    def word_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """(cw, dec) over packed words, bit j of an integer being coordinate j:
        cw[m] is the packed codeword of message index m, and dec[w] the
        `ml_decode` message index of word w, for each of the 2^n words.  The
        guard counts each word's n bits as well as its 2^k distances."""
        if 2 ** self.n * (self.n + 2 ** self.k) > ONE_HOT_GUARD:
            raise GuardExceededError(
                f"decode table of 2^{self.n} words of {self.n} bits, each scanned "
                f"against 2^{self.k} codewords, exceeds {ONE_HOT_GUARD} entries")
        bits = 1 << np.arange(self.n)
        words = _enumerate_messages(2, self.n)
        return self.codewords @ bits, self.ml_decode(words) @ bits[:self.k]


def hamming74() -> BinaryLinearCode:
    """The [7,4] Hamming code in systematic form."""
    P = np.array([[1, 1, 0], [1, 0, 1], [0, 1, 1], [1, 1, 1]])
    return BinaryLinearCode(generator=np.hstack([np.eye(4, dtype=np.int64), P]))


@dataclass(frozen=True)
class BscParams:
    p_cross: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.p_cross < 0.5:
            raise ValidationError(f"crossover must be in [0, 0.5), got {self.p_cross}")


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bsc_exchange_rate_bound(params: BscParams) -> float:
    """1 - H2(p): the exchange rate the identical-linear-code scheme achieves."""
    return 1.0 - binary_entropy(params.p_cross)


# ---------------------------------------------------------------------------
# Harness experiment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cached_hamming74() -> BinaryLinearCode:
    return hamming74()


@dataclass(eq=False)
class BscDraws:
    """The random inputs of a block of relay rounds: the message bits
    (2, count, k) of a and b, 0/1 bytes, and the flip rows (3, count, n), bool,
    of the relay uplink and the downlinks to a and b; row i is round i."""

    messages: np.ndarray
    flips: np.ndarray


def _random_bytes(rng: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    """Uniform bytes in C order, 8 from each raw 64-bit output, low byte first."""
    size = math.prod(shape)
    raw = rng.bit_generator.random_raw(-(-size // 8)).astype("<u8", copy=False)
    return raw.view(np.uint8)[:size].reshape(shape)


def draw_bsc(rng: np.random.Generator, count: int, code: BinaryLinearCode,
             params: BscParams) -> BscDraws:
    """Messages and flips for `count` rounds, in this order: one byte per
    message bit (its low bit), one byte B per flip coordinate, and one
    uniform U per tie B == c, c = floor(256p), in flat row-major order.  A
    coordinate flips iff (B + U)/256 < p: B < c flips, B > c does not, and a
    tie flips iff U < 256p - c.  So the flip law is p on a 2^-61 grid, and
    p = 0 never flips."""
    messages = _random_bytes(rng, (2, count, code.k)) & 1
    flip_bytes = _random_bytes(rng, (3, count, code.n))
    scaled = 256.0 * params.p_cross
    c = math.floor(scaled)
    flips = flip_bytes < c
    ties = np.flatnonzero(flip_bytes == c)
    flips.reshape(-1)[ties] = rng.random(ties.size) < scaled - c
    return BscDraws(messages, flips)


def _pack(rows: np.ndarray) -> np.ndarray:
    """0/1 byte or bool rows (..., w) as integers of the narrowest unsigned
    type, bit j being column j."""
    dtype = np.min_scalar_type((1 << rows.shape[-1]) - 1)
    return rows.view(np.uint8).astype(dtype, copy=False) @ (1 << np.arange(rows.shape[-1], dtype=dtype))


def bsc_rows(draws: BscDraws, code: BinaryLinearCode) -> dict[str, np.ndarray]:
    """Per-round relay, end and union errors of a block, on packed words
    through `code.word_tables`."""
    cw, dec = code.word_tables
    m_a, m_b = _pack(draws.messages)
    f_relay, f_a, f_b = _pack(draws.flips)
    # dec ^ m_a = m_b <=> dec = m_a ^ m_b: score every decode against the true XOR
    true_sum = m_a ^ m_b
    m_relay = dec[cw[m_a] ^ cw[m_b] ^ f_relay]
    relay_error = m_relay != true_sum
    x = cw[m_relay]
    end_error = (dec[x ^ f_a] != true_sum) | (dec[x ^ f_b] != true_sum)
    return {"relay_error": relay_error, "end_error": end_error,
            "union_error": relay_error | end_error}


def bsc_kernel(params: Mapping, rng: np.random.Generator, count: int) -> dict[str, int]:
    """Error totals of `count` rounds.

    params (both required): p, and code ("hamming74", the only code).
    """
    name = str(params["code"])
    if name != "hamming74":
        raise ValidationError(f"unknown code {name!r}; known: hamming74")
    code = _cached_hamming74()
    rows = bsc_rows(draw_bsc(rng, count, code, BscParams(float(params["p"]))), code)
    return {key: int(np.count_nonzero(v)) for key, v in rows.items()}


BSC_ERROR_KEYS = ("relay_error", "end_error", "union_error")
