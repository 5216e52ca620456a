"""Binary-symmetric-channel exchange with identical linear codes.

Both end nodes encode with the same binary linear code, so the relay
observes codeword1 XOR codeword2 XOR noise.  Linearity makes the XOR of
two codewords another codeword of the same code, so the relay can run a
plain single-codeword decoder and forward the result; each end node then
XOR-cancels its own part.  This is the group-structure mechanism the
lattice scheme lifts to the reals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Mapping

import numpy as np

from . import harness
from .errors import GuardExceededError, ValidationError
from .lattice import ONE_HOT_GUARD, _enumerate_messages, scan_rows
from .rng import generator

ML_GUARD_K = 16  # brute-force decoding enumerates 2^k codewords


@dataclass(eq=False)
class BinaryLinearCode:
    generator: np.ndarray
    parity_check: np.ndarray | None = None

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

    def encode(self, message: np.ndarray) -> np.ndarray:
        message = np.asarray(message, dtype=np.int64) % 2
        if message.shape[-1] != self.k:
            raise ValidationError(f"message length {message.shape[-1]} != k={self.k}")
        return message @ self.generator % 2

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
    G = np.hstack([np.eye(4, dtype=np.int64), P])
    H = np.hstack([P.T, np.eye(3, dtype=np.int64)])
    return BinaryLinearCode(generator=G, parity_check=H)


def random_code(n: int, k: int, seed: int) -> BinaryLinearCode:
    """Systematic [I_k | A] code with random parity part; always rank k."""
    if not 1 <= k <= min(n, ML_GUARD_K):
        raise ValidationError(f"need 1 <= k <= min(n, {ML_GUARD_K})")
    A = generator(seed).integers(0, 2, size=(k, n - k))
    return BinaryLinearCode(generator=np.hstack([np.eye(k, dtype=np.int64), A]))


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


@dataclass(eq=False)
class BscRoundtrip:
    """Outcome of one relay round on the binary channel."""

    u_a: np.ndarray
    u_b: np.ndarray
    relay_decoded: np.ndarray        # message bits of the decoded XOR codeword
    relay_error: bool
    u_b_hat_at_a: np.ndarray
    u_a_hat_at_b: np.ndarray
    end_error_a: bool
    end_error_b: bool

    @property
    def error(self) -> bool:
        return self.end_error_a or self.end_error_b


def bsc_relay_roundtrip(
    u_a: np.ndarray,
    u_b: np.ndarray,
    code: BinaryLinearCode,
    params: BscParams,
    rng: np.random.Generator,
) -> BscRoundtrip:
    """Uplink XOR decode at the relay, broadcast, XOR-cancel at the ends.

    The relay re-encodes its decoded XOR message for the downlink; both
    downlink legs see independent flips from the same stream.
    """
    u_a = np.asarray(u_a, dtype=np.int64) % 2
    u_b = np.asarray(u_b, dtype=np.int64) % 2
    x1 = code.encode(u_a)
    x2 = code.encode(u_b)
    flips = rng.random(code.n) < params.p_cross
    y_relay = x1 ^ x2 ^ flips.astype(np.int64)

    m_relay = code.ml_decode(y_relay)
    relay_error = bool(np.any(m_relay != (u_a ^ u_b)))

    x_relay = code.encode(m_relay)
    y_a = x_relay ^ (rng.random(code.n) < params.p_cross).astype(np.int64)
    y_b = x_relay ^ (rng.random(code.n) < params.p_cross).astype(np.int64)

    u_b_hat = code.ml_decode(y_a) ^ u_a
    u_a_hat = code.ml_decode(y_b) ^ u_b
    return BscRoundtrip(
        u_a=u_a, u_b=u_b, relay_decoded=m_relay, relay_error=relay_error,
        u_b_hat_at_a=u_b_hat, u_a_hat_at_b=u_a_hat,
        end_error_a=bool(np.any(u_b_hat != u_b)),
        end_error_b=bool(np.any(u_a_hat != u_a)),
    )


# ---------------------------------------------------------------------------
# Harness experiment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def _cached_hamming74() -> BinaryLinearCode:
    return hamming74()


@dataclass(eq=False)
class BscDraws:
    """The random inputs of a block of relay rounds, one row per round: the
    message bits and the uniforms behind the relay and the two downlink flips."""

    u_a: np.ndarray
    u_b: np.ndarray
    r_relay: np.ndarray
    r_a: np.ndarray
    r_b: np.ndarray


def draw_bsc(rng: np.random.Generator, count: int, code: BinaryLinearCode) -> BscDraws:
    """Messages and flip uniforms for `count` rounds, each kind drawn as one array."""
    u_a = rng.integers(0, 2, size=(count, code.k))
    u_b = rng.integers(0, 2, size=(count, code.k))
    r_relay, r_a, r_b = (rng.random((count, code.n)) for _ in range(3))
    return BscDraws(u_a, u_b, r_relay, r_a, r_b)


def bsc_rows(draws: BscDraws, code: BinaryLinearCode,
             params: BscParams) -> dict[str, np.ndarray]:
    """Per-round relay, end and union errors of a block; `bsc_relay_roundtrip`
    row by row, on packed words through `code.word_tables`."""
    cw, dec = code.word_tables
    bits = 1 << np.arange(code.n)
    m_a, m_b = draws.u_a @ bits[:code.k], draws.u_b @ bits[:code.k]
    f_relay, f_a, f_b = ((r < params.p_cross) @ bits
                         for r in (draws.r_relay, draws.r_a, draws.r_b))
    m_relay = dec[cw[m_a] ^ cw[m_b] ^ f_relay]
    relay_error = m_relay != m_a ^ m_b
    x = cw[m_relay]
    end_error = (dec[x ^ f_a] ^ m_a != m_b) | (dec[x ^ f_b] ^ m_b != m_a)
    return {"relay_error": relay_error, "end_error": end_error,
            "union_error": relay_error | end_error}


def bsc_kernel(params: Mapping, rng: np.random.Generator, count: int) -> dict[str, int]:
    """Error totals of `count` rounds.

    params: p, and code ("hamming74", the only code).
    """
    name = str(params.get("code", "hamming74"))
    if name != "hamming74":
        raise ValidationError(f"unknown code {name!r}; known: hamming74")
    code = _cached_hamming74()
    bp = BscParams(float(params["p"]))
    rows = bsc_rows(draw_bsc(rng, count, code), code, bp)
    return {key: int(np.count_nonzero(v)) for key, v in rows.items()}


harness.register_experiment("bsc", bsc_kernel)

BSC_ERROR_KEYS = ("relay_error", "end_error", "union_error")
