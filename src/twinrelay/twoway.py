"""Two-way exchange through a relay with nested-lattice compute-and-forward.

Uplink: both end nodes map message indices onto codebook points, subtract
their dithers mod the coarse lattice, and transmit simultaneously.  The
relay scales the superposition by the MMSE coefficient
alpha = 2P/(2P + sigma2), re-adds the dithers, folds mod the coarse
lattice, and quantizes to the fine lattice.  In noiseless arithmetic this
collapses exactly to (t1 + t2) mod coarse, so the relay learns only the
modulo sum.  Downlink: the sum point reaches the end nodes (either as an
ideally coded index, or retransmitted through AWGN and lattice-decoded),
and each node cancels its own point mod the coarse lattice to recover the
other message.  Codewords are handled as message indices throughout;
coordinates appear only where a signal is formed.  The harness kernel runs
a block of rounds at once on index arrays (`session_rows`); `run_session`
and `_session_core` are the one-round reference it is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import harness
from .errors import ValidationError
from .lattice import (
    NestedLatticePair,
    dither,
    encode_message,
    make_pair,
    mod_coarse,
    modulo_diff,
    modulo_sum,
    quantize_fine,
)
from .rng import TAG_DITHER, TAG_NOISE, derive_seed, generator


@dataclass(frozen=True)
class ChannelParams:
    """Per-dimension power and noise variance with the derived MMSE quantities.

    sigma2 = 0 is the exact noiseless limit, where the scaling coefficient
    is forced to 1 and the relay algebra is exact.
    """

    power: float
    sigma2: float

    def __post_init__(self) -> None:
        if self.power <= 0:
            raise ValidationError(f"power must be positive, got {self.power}")
        if self.sigma2 < 0:
            raise ValidationError(f"noise variance must be >= 0, got {self.sigma2}")

    @classmethod
    def from_snr_db(cls, snr_db: float | None, power: float = 1.0) -> "ChannelParams":
        """snr_db=None means noiseless."""
        if snr_db is None:
            return cls(power=power, sigma2=0.0)
        try:
            sigma2 = power / 10.0 ** (snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):
            raise ValidationError(f"snr_db {snr_db} is outside the float range") from None
        return cls(power=power, sigma2=sigma2)

    @property
    def snr(self) -> float:
        return math.inf if self.sigma2 == 0 else self.power / self.sigma2

    def alpha(self, m: int) -> float:
        """MMSE scaling mP/(mP + sigma2) for a sum of m signals; 1 when noiseless."""
        return m * self.power / (m * self.power + self.sigma2)

    @property
    def sigma2_eq(self) -> float:
        """Equivalent-noise variance 2*P*sigma2/(2P + sigma2) at alpha(2)."""
        return 2.0 * self.power * self.sigma2 / (2.0 * self.power + self.sigma2)


def sigma2_eq_of_alpha(alpha: float, params: ChannelParams) -> float:
    """Equivalent-noise variance alpha^2*sigma2 + (1-alpha)^2*2P for any scaling."""
    return alpha ** 2 * params.sigma2 + (1.0 - alpha) ** 2 * 2.0 * params.power


class BroadcastMode(Enum):
    DIRECT_LATTICE_RELAY = "direct"
    INDEX_FORWARD_IDEAL = "index"


@dataclass(eq=False)
class ExchangeTranscript:
    """Everything observable in one uplink + downlink round; codewords are indices."""

    u_a: int
    u_b: int
    d1: np.ndarray
    d2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    y_relay: np.ndarray
    relay_decoded: int
    u_b_hat_at_a: int | None
    u_a_hat_at_b: int | None
    relay_error: bool
    broadcast_failed: bool
    end_error_a: bool
    end_error_b: bool

    @property
    def error(self) -> bool:
        """Union error: either node failed to recover the other's message."""
        return self.end_error_a or self.end_error_b


def encode_node(u, d: np.ndarray, pair: NestedLatticePair) -> np.ndarray:
    """Transmit signal (t_u - d) mod coarse; uniform over the cell, power P.

    Takes one index and dither row, or index arrays with dither rows (..., n).
    """
    return mod_coarse(encode_message(u, pair) - d, pair.coarse)


def relay_decode_sum(
    y: np.ndarray,
    dithers: Sequence[np.ndarray],
    params: ChannelParams,
    pair: NestedLatticePair,
):
    """Index of the modulo sum of the m codewords heard, from each observation row.

    `dithers` holds the dither rows of the m signals in `y`.  The receiver
    scales by alpha(m), adds the dithers back one at a time, folds mod the
    coarse lattice and quantizes to the fine lattice.
    """
    pre = params.alpha(len(dithers)) * np.asarray(y, dtype=float)
    for d in dithers:
        pre = pre + d
    return quantize_fine(mod_coarse(pre, pair.coarse), pair)


def recover_at_node(t_hat, own, pair: NestedLatticePair):
    """(t_hat - own) mod coarse; inverts the modulo sum given one summand."""
    return modulo_diff(t_hat, own, pair)


def index_broadcast_ok(params: ChannelParams, pair: NestedLatticePair) -> bool:
    """Ideal downlink code: reliable iff the codebook rate clears the
    point-to-point capacity (1/2) log2(1 + snr)."""
    capacity = math.inf if params.sigma2 == 0 else 0.5 * math.log2(1.0 + params.snr)
    return pair.rate < capacity


def run_session(
    u_a: int,
    u_b: int,
    params: ChannelParams,
    pair: NestedLatticePair,
    mode: BroadcastMode = BroadcastMode.INDEX_FORWARD_IDEAL,
    seed: int = 0,
    session: int = 0,
) -> ExchangeTranscript:
    """One full exchange round with seed-derived dithers and noise.

    Dither streams derive from (seed, session, node id), modeling dithers
    known at every node through seed sharing.  Errors are recorded in the
    transcript, never raised.
    """
    d1 = dither(generator(derive_seed(seed, session, TAG_DITHER, 1)), pair.coarse)
    d2 = dither(generator(derive_seed(seed, session, TAG_DITHER, 2)), pair.coarse)
    noise_rng = generator(seed, session, TAG_NOISE)
    return _session_core(u_a, u_b, params, pair, mode, d1, d2, noise_rng)


def _session_core(
    u_a: int,
    u_b: int,
    params: ChannelParams,
    pair: NestedLatticePair,
    mode: BroadcastMode,
    d1: np.ndarray,
    d2: np.ndarray,
    noise_rng: np.random.Generator,
) -> ExchangeTranscript:
    """The scalar reference exchange; `session_rows` is its block form."""
    x1 = encode_node(u_a, d1, pair)
    x2 = encode_node(u_b, d2, pair)

    sigma = math.sqrt(params.sigma2)
    y_relay = x1 + x2
    if sigma > 0:
        y_relay = y_relay + noise_rng.normal(0.0, sigma, size=pair.n)

    t_hat = relay_decode_sum(y_relay, (d1, d2), params, pair)
    relay_error = t_hat != modulo_sum(u_a, u_b, pair)

    broadcast_failed = False
    if mode is BroadcastMode.INDEX_FORWARD_IDEAL:
        if index_broadcast_ok(params, pair):
            t_at_a = t_hat
            t_at_b = t_hat
        else:
            broadcast_failed = True
            t_at_a = None
            t_at_b = None
    else:
        # Relay retransmits the sum point; each node lattice-decodes it and
        # then cancels its own point.
        t_at_a = _direct_downlink(t_hat, sigma, pair, noise_rng)
        t_at_b = _direct_downlink(t_hat, sigma, pair, noise_rng)

    if t_at_a is None or t_at_b is None:
        u_b_hat = u_a_hat = None
        end_a = end_b = True
    else:
        u_b_hat = recover_at_node(t_at_a, u_a, pair)
        u_a_hat = recover_at_node(t_at_b, u_b, pair)
        end_a = u_b_hat != u_b
        end_b = u_a_hat != u_a

    return ExchangeTranscript(
        u_a=u_a, u_b=u_b, d1=d1, d2=d2, x1=x1, x2=x2,
        y_relay=y_relay, relay_decoded=t_hat,
        u_b_hat_at_a=u_b_hat, u_a_hat_at_b=u_a_hat,
        relay_error=relay_error, broadcast_failed=broadcast_failed,
        end_error_a=end_a, end_error_b=end_b,
    )


def _direct_downlink(
    t_hat: int, sigma: float, pair: NestedLatticePair,
    noise_rng: np.random.Generator,
) -> int:
    y = encode_message(t_hat, pair)
    if sigma > 0:
        y = y + noise_rng.normal(0.0, sigma, size=pair.n)
    return quantize_fine(mod_coarse(y, pair.coarse), pair)


@dataclass(eq=False)
class SessionDraws:
    """The random inputs of a block of exchange rounds, one row per round.

    Noise rows are already scaled by sigma; they are None when noiseless,
    and the downlink rows are None unless the downlink is direct.
    """

    u_a: np.ndarray
    u_b: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    z_relay: np.ndarray | None
    z_a: np.ndarray | None
    z_b: np.ndarray | None


def draw_sessions(
    rng: np.random.Generator, count: int, params: ChannelParams,
    pair: NestedLatticePair, mode: BroadcastMode,
) -> SessionDraws:
    """Messages, dithers and noise for `count` rounds, each kind drawn as one array."""
    u_a = rng.integers(pair.size, size=count)
    u_b = rng.integers(pair.size, size=count)
    d1 = dither(rng, pair.coarse, count)
    d2 = dither(rng, pair.coarse, count)
    z_relay = z_a = z_b = None
    if params.sigma2 > 0:
        sigma = math.sqrt(params.sigma2)
        z_relay = rng.normal(0.0, sigma, size=(count, pair.n))
        if mode is BroadcastMode.DIRECT_LATTICE_RELAY:
            z_a = rng.normal(0.0, sigma, size=(count, pair.n))
            z_b = rng.normal(0.0, sigma, size=(count, pair.n))
    return SessionDraws(u_a, u_b, d1, d2, z_relay, z_a, z_b)


def session_rows(
    draws: SessionDraws, params: ChannelParams, pair: NestedLatticePair,
    mode: BroadcastMode,
) -> dict[str, np.ndarray]:
    """Per-round relay, end and union errors of a block; `_session_core` row by row."""
    y_relay = encode_node(draws.u_a, draws.d1, pair) + encode_node(draws.u_b, draws.d2, pair)
    if draws.z_relay is not None:
        y_relay = y_relay + draws.z_relay
    t_hat = relay_decode_sum(y_relay, (draws.d1, draws.d2), params, pair)
    relay_error = t_hat != modulo_sum(draws.u_a, draws.u_b, pair)

    if mode is BroadcastMode.INDEX_FORWARD_IDEAL:
        if not index_broadcast_ok(params, pair):
            end_error = np.ones_like(relay_error)
            return {"relay_error": relay_error, "end_error": end_error,
                    "union_error": end_error}
        t_at_a = t_at_b = t_hat
    else:
        sent = encode_message(t_hat, pair)
        t_at_a, t_at_b = (
            quantize_fine(mod_coarse(sent if z is None else sent + z, pair.coarse), pair)
            for z in (draws.z_a, draws.z_b))
    end_error = ((recover_at_node(t_at_a, draws.u_a, pair) != draws.u_b)
                 | (recover_at_node(t_at_b, draws.u_b, pair) != draws.u_a))
    return {"relay_error": relay_error, "end_error": end_error,
            "union_error": relay_error | end_error}


# ---------------------------------------------------------------------------
# Harness experiment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=64)
def _cached_pair(n: int, q: int, k: int, power: float, gen_rows: tuple | None) -> NestedLatticePair:
    gen = None if gen_rows is None else np.asarray(gen_rows)
    return make_pair(n=n, q=q, k=k, power=power, generator_matrix=gen)


def pair_from_params(params: Mapping) -> NestedLatticePair:
    gen = params.get("generator")
    gen_rows = tuple(tuple(int(v) for v in row) for row in gen) if gen is not None else None
    return _cached_pair(
        int(params["n"]), int(params["q"]), int(params.get("k", 1)),
        float(params.get("power", 1.0)), gen_rows,
    )


def lattice_kernel(params: Mapping, rng: np.random.Generator, count: int) -> dict[str, int]:
    """Error totals of `count` exchange rounds; messages, dithers and noise from `rng`.

    params: n, q, k, snr_db (None for noiseless), power, mode ("index"|"direct"),
    optional generator rows.
    """
    pair = pair_from_params(params)
    ch = ChannelParams.from_snr_db(params.get("snr_db"), float(params.get("power", 1.0)))
    mode = BroadcastMode(params.get("mode", "index"))
    rows = session_rows(draw_sessions(rng, count, ch, pair, mode), ch, pair, mode)
    return {key: int(np.count_nonzero(v)) for key, v in rows.items()}


harness.register_experiment("lattice", lattice_kernel)

LATTICE_ERROR_KEYS = ("relay_error", "end_error", "union_error")
