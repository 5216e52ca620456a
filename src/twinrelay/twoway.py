"""Two-way exchange through a relay with nested-lattice compute-and-forward.

Uplink: both end nodes map message indices onto codebook points, subtract
their dithers mod the coarse lattice, and transmit simultaneously.  The
relay scales the superposition by the MMSE coefficient
alpha = 2P/(2P + sigma2), re-adds the dithers, folds mod the coarse
lattice, and quantizes to the fine lattice.  In noiseless arithmetic this
collapses exactly to (t1 + t2) mod coarse, so the relay learns only the
modulo sum.  Downlink: the sum point reaches the end nodes, either as an
ideally coded index (mode "index") or retransmitted through AWGN and
lattice-decoded (mode "direct"), and each node cancels its own point mod
the coarse lattice to recover the other message.  Codewords are handled
as message indices throughout; coordinates appear only where a signal is
formed.  The harness kernel runs a block of rounds at once on index
arrays (`session_rows`): each kind of draw is one array over both nodes,
both uplinks are encoded in one call, each decode is scored against its
round's one true sum, and both nodes' direct downlinks are decoded in one
quantizer call.  It is the one exchange path; the scalar reference it is
tested against, in which each node cancels its own point, lives in
`tests/oracles.py`.  The baseline, analog network coding's
amplify-and-forward relay `anc_relay`, and its `anc-power` kernel of the
power contract are here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from . import rates
from .errors import GuardExceededError, ValidationError
from .lattice import (
    ONE_HOT_GUARD,
    NestedLatticePair,
    dither,
    encode_message,
    make_pair,
    mod_coarse,
    modulo_diff,
    modulo_sum,
    quantize_fine,
)


@dataclass(frozen=True)
class ChannelParams:
    """Per-dimension power and noise variance with the derived MMSE quantities.

    sigma2 = 0 is the exact noiseless limit, where the scaling coefficient
    is forced to 1 and the relay algebra is exact.
    """

    power: float
    sigma2: float

    def __post_init__(self) -> None:
        rates.check_channel(self.power, self.sigma2)

    @classmethod
    def from_snr_db(cls, snr_db: float | None, power: float = 1.0) -> "ChannelParams":
        """snr_db=None means noiseless."""
        return cls(power=power, sigma2=rates.sigma2_from_snr_db(snr_db, power))

    @property
    def snr(self) -> float:
        return math.inf if self.sigma2 == 0 else self.power / self.sigma2

    def alpha(self, m: int) -> float:
        """MMSE scaling mP/(mP + sigma2) for a sum of m signals; 1 when noiseless."""
        return m * self.power / (m * self.power + self.sigma2)


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


# Only the scalar reference calls this; it stays while the benchmark's tracer
# (`perfbench/tracing.py`) patches it for its `twoway.recover_at_node_us` metric.
def recover_at_node(t_hat, own, pair: NestedLatticePair):
    """(t_hat - own) mod coarse; inverts the modulo sum given one summand."""
    return modulo_diff(t_hat, own, pair)


def index_broadcast_ok(params: ChannelParams, pair: NestedLatticePair) -> bool:
    """Ideal downlink code: reliable iff the codebook rate is below the
    point-to-point capacity `rates.rate_upper(snr)`, infinite when noiseless."""
    return pair.rate < rates.rate_upper(params.snr)


@dataclass(eq=False)
class SessionDraws:
    """The random inputs of a block of exchange rounds, one row per round.

    Messages `u` (2, count), dithers `d` and downlink noise `z_down`
    (2, count, n) hold node a's rows, then node b's; `z_relay` is (count, n).
    Noise rows are already scaled by sigma; they are None when noiseless,
    and `z_down` is None unless the downlink is direct.
    """

    u: np.ndarray
    d: np.ndarray
    z_relay: np.ndarray | None
    z_down: np.ndarray | None


def draw_sessions(
    rng: np.random.Generator, count: int, params: ChannelParams,
    pair: NestedLatticePair, mode: str,
) -> SessionDraws:
    """Messages, dithers and noise for `count` rounds, each kind one draw.

    Every node reads the same rows, which models dithers known at every node
    through seed sharing.  Each draw takes the stream value by value (bounded
    integers in 32-bit halves buffered in the generator's state), so one
    (2, count) draw yields what node a's and then node b's (count,) draws do.
    """
    u = rng.integers(pair.size, size=(2, count))
    d = dither(rng, pair.coarse, (2, count))
    z_relay = z_down = None
    if params.sigma2 > 0:
        sigma = math.sqrt(params.sigma2)
        z_relay = rng.normal(0.0, sigma, size=(count, pair.n))
        if mode == "direct":
            z_down = rng.normal(0.0, sigma, size=(2, count, pair.n))
    return SessionDraws(u, d, z_relay, z_down)


def _direct_downlink(t_hat, z: np.ndarray | None, pair: NestedLatticePair):
    y = encode_message(t_hat, pair)
    if z is not None:
        y = y + z
    return quantize_fine(mod_coarse(y, pair.coarse), pair)


def session_rows(
    draws: SessionDraws, params: ChannelParams, pair: NestedLatticePair,
    mode: str,
) -> dict[str, np.ndarray]:
    """Per-round relay, end and union errors of a block, each decode scored
    against the round's true sum."""
    x = encode_node(draws.u, draws.d, pair)  # both uplinks, (2, count, n)
    y_relay = x[0] + x[1]
    if draws.z_relay is not None:
        y_relay += draws.z_relay
    t_hat = relay_decode_sum(y_relay, draws.d, params, pair)
    # t - u_a = u_b <=> t = u_a + u_b: a node decodes right iff it has the true sum
    true_sum = modulo_sum(draws.u[0], draws.u[1], pair)
    relay_error = t_hat != true_sum

    if mode == "index":
        end_error = (relay_error if index_broadcast_ok(params, pair)
                     else np.ones_like(relay_error))
    elif draws.z_down is None:  # noiseless: both nodes hear the same point
        end_error = _direct_downlink(t_hat, None, pair) != true_sum
    else:  # both nodes' downlinks as one (2, count, n) decode
        t_at = _direct_downlink(t_hat, draws.z_down, pair)
        end_error = (t_at != true_sum).any(axis=0)
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
    # int, float and np.int64 entries hash and compare alike, so a list of
    # lists and an int64 array of the same generator key one cache entry.
    gen_rows = tuple(map(tuple, gen)) if gen is not None else None
    return _cached_pair(int(params["n"]), int(params["q"]), int(params["k"]),
                        float(params["power"]), gen_rows)


def _check_block(count: int, n: int, experiment: str) -> None:
    """Refuse a block whose (2, count, n) draws, both nodes' rows, pass ONE_HOT_GUARD."""
    if 2 * count * n > ONE_HOT_GUARD:
        raise GuardExceededError(
            f"2 x {count} x {n} {experiment} block exceeds {ONE_HOT_GUARD} entries per array")


def lattice_kernel(params: Mapping, rng: np.random.Generator, count: int) -> dict[str, int]:
    """Error totals of `count` exchange rounds; messages, dithers and noise from `rng`.

    params (all required): n, q, k, snr_db (None for noiseless), power and
    mode ("index"|"direct"); only the generator rows are optional.
    """
    n = int(params["n"])
    _check_block(count, n, "lattice")  # checked before the pair is built
    mode = params["mode"]
    if mode not in ("index", "direct"):
        raise ValidationError(f"broadcast mode must be 'index' or 'direct', got {mode!r}")
    pair = pair_from_params(params)
    ch = ChannelParams.from_snr_db(params["snr_db"], float(params["power"]))
    rows = session_rows(draw_sessions(rng, count, ch, pair, mode), ch, pair, mode)
    return {key: int(np.count_nonzero(v)) for key, v in rows.items()}


LATTICE_ERROR_KEYS = ("relay_error", "end_error", "union_error")


# ---------------------------------------------------------------------------
# Amplify-and-forward relay
# ---------------------------------------------------------------------------

def anc_relay(y_relay: np.ndarray, power: float, sigma2: float) -> np.ndarray:
    """Amplify-and-forward gain sqrt(P/(2P+sigma2)) applied to the relay input.

    The gain renormalizes the superposition of two power-P signals plus
    noise back to transmit power P.
    """
    gain = math.sqrt(power / (2.0 * power + sigma2))
    return gain * np.asarray(y_relay, dtype=float)


def anc_power_kernel(params: Mapping, rng: np.random.Generator, count: int) -> Mapping[str, float]:
    """`count` amplify-and-forward sessions with Gaussian signaling.

    Totals the relay output energy per dimension, so the batch mean checks
    the power renormalization contract E||x_R||^2/n = P.
    """
    n = int(params["n"])
    if n < 1:
        raise ValidationError(f"dimension must be >= 1, got {n}")
    _check_block(count, n, "anc-power")
    ch = ChannelParams(float(params["power"]), float(params["sigma2"]))
    x = rng.normal(0.0, math.sqrt(ch.power), size=(2, count, n))  # both transmitters
    y = x[0] + x[1]
    if ch.sigma2 > 0:
        y = y + rng.normal(0.0, math.sqrt(ch.sigma2), size=(count, n))
    x_relay = anc_relay(y, ch.power, ch.sigma2)
    return {"relay_energy_per_dim": float(np.einsum("ij,ij->", x_relay, x_relay)) / n}
