"""Independent oracles used by the test suite.

Everything here is computed by a different route than the library code it
checks: arbitrary-precision logarithms via Decimal, closed-form tangency
points, numerical integration of explicit densities, exhaustive
enumerations, and the per-row route of each exchange: `session_row` and
`bsc_row` run one round on one row of a block's draws, with each end node
cancelling its own part, where the package's block kernels score a whole
block against the true sums.

The package is imported inside functions only: the benchmark reads the
quadrature oracle with this directory on its path but not the package.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import Decimal, getcontext
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc

getcontext().prec = 50


def log2_hp(value) -> float:
    """log2 via 50-digit Decimal arithmetic."""
    return float(Decimal(value).ln() / Decimal(2).ln())


def rate_upper_hp(snr) -> float:
    return 0.5 * log2_hp(1 + Decimal(snr))


def rate_lattice_hp(snr) -> float:
    x = Decimal("0.5") + Decimal(snr)
    return max(0.0, 0.5 * log2_hp(x))


def rate_jd_hp(snr) -> float:
    return 0.25 * log2_hp(1 + 2 * Decimal(snr))


def rate_anc_hp(snr) -> float:
    s = Decimal(snr)
    return 0.5 * log2_hp(1 + s * s / (3 * s + 1))


def rate_pure_nc_hp(snr) -> float:
    return log2_hp(1 + Decimal(snr)) / 3.0


def crossover_closed_form() -> tuple[float, float]:
    """Tangency points in dB: common tangent sits at s_lo=(e-1)/2, s_hi=e-1/2."""
    s_lo = (math.e - 1.0) / 2.0
    s_hi = math.e - 0.5
    return 10.0 * math.log10(s_lo), 10.0 * math.log10(s_hi)


def binary_entropy_hp(p) -> float:
    p = Decimal(p)
    if p == 0:
        return 0.0
    q = 1 - p
    return float(-(p * p.ln() + q * q.ln()) / Decimal(2).ln())


def binary_entropy(p: float) -> float:
    if p in (0.0, 1.0):
        return 0.0
    return -p * math.log2(p) - (1.0 - p) * math.log2(1.0 - p)


def bsc_exchange_rate_bound(params) -> float:
    """1 - H2(p): the exchange rate the identical-linear-code scheme achieves,
    for a `bsc.BscParams`."""
    return 1.0 - binary_entropy(params.p_cross)


# ---------------------------------------------------------------------------
# Exact lattice arithmetic
# ---------------------------------------------------------------------------

def mod_units_exact(values, q: int) -> tuple[Fraction, ...]:
    """Exact-rational fold into [-q/2, q/2), for zero-tolerance algebra.

    Accepts ints or Fractions (coordinates measured in units of gamma);
    returns Fractions.  Mirrors `lattice.mod_coarse` without any floating
    point.
    """
    half = Fraction(1, 2)
    return tuple(f - q * math.floor(f / q + half) for f in map(Fraction, values))


def mod_coarse_where(x, coarse) -> np.ndarray:
    """`lattice.mod_coarse` as two `np.where` face guards on fresh arrays,
    the form the in-place fold must match bit for bit."""
    x = np.asarray(x, dtype=float)
    cell = coarse.cell
    y = x - cell * np.floor(x / cell + 0.5)
    y = np.where(y >= cell / 2, y - cell, y)
    return np.where(y < -cell / 2, y + cell, y)


def enumerate_messages(q: int, k: int) -> np.ndarray:
    """All q^k messages, ordered by base-q index (least significant digit
    first), one digit at a time."""
    m = q ** k
    idx = np.arange(m)
    digits = np.empty((m, k), dtype=np.int64)
    for j in range(k):
        digits[:, j] = idx % q
        idx = idx // q
    return digits


@lru_cache(maxsize=64)
def _index_of(pair) -> dict[tuple[int, ...], int]:
    return {tuple(int(c) for c in row): i for i, row in enumerate(pair.codebook_units)}


def index_of_units(pair, units) -> int:
    """Codebook index of a row of units, by exhaustive lookup over the codebook."""
    return _index_of(pair)[tuple(int(u) for u in units)]


def codebook_coords(pair) -> np.ndarray:
    """Read-only (size, n) coordinates gamma * units of every codebook point."""
    from twinrelay.lattice import _coords

    return _coords(pair, slice(None))


def wrapped_sq_distances(x, pair) -> np.ndarray:
    """Squared torus distance from each row of x (..., n) to every codebook point.

    Because the coarse lattice is a coordinate product, the minimum over
    all coarse translates separates per component into a centered fold.
    The result has shape (..., size).  This is the quantizer's reference.
    """
    from twinrelay.lattice import _sq_distances

    x = pair.coarse.check_dim(x)
    return _sq_distances(x, codebook_coords(pair), pair.coarse.cell)


def float_direction_collision(points) -> bool:
    """The floating-point rule for collinear candidates that the exact
    gcd rule of `minangle.check_distinct_directions` replaced.

    Two candidates share a direction when the cosine between them is at
    least 1 - 1e-9.  The Gram matrix of the unit directions, diagonal zeroed,
    is scanned in blocks of rows and the scan stops at the first collision.
    """
    pts = np.asarray(points, dtype=float)
    unit = pts / np.linalg.norm(pts, axis=1, keepdims=True)
    for start in range(0, unit.shape[0], 256):
        gram = unit[start:start + 256] @ unit.T
        rows = np.arange(gram.shape[0])
        gram[rows, start + rows] = 0.0
        if gram.max() >= 1.0 - 1e-9:
            return True
    return False


def nearest_sum_scan(y, sum_points) -> np.ndarray:
    """Row of the sum point nearest to each row of y (m, n), ties to the lowest
    row: the float64 argmin of the squared distances from y to every sum,
    computed as `minangle.nearest_sum` scans them, over row chunks of at most
    2^17 coordinate differences."""
    y = np.asarray(y, dtype=float)
    step = max(1, 2 ** 17 // sum_points.size)
    out = np.empty(len(y), dtype=np.int64)
    for start in range(0, len(y), step):
        diff = sum_points - y[start:start + step, None, :]
        out[start:start + step] = np.argmin(np.einsum("cmn,cmn->cm", diff, diff), axis=1)
    return out


# ---------------------------------------------------------------------------
# Scalar exchange references, one row of a block's draws at a time
# ---------------------------------------------------------------------------

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


def session_row(draws, i: int, params, pair, mode: str) -> ExchangeTranscript:
    """The exchange on row i of a block of `twoway.draw_sessions` draws, the
    reference `twoway.session_rows` must match row by row.  Errors are
    recorded in the transcript, never raised."""
    from twinrelay.lattice import modulo_sum
    from twinrelay.twoway import (
        _direct_downlink,
        encode_node,
        index_broadcast_ok,
        recover_at_node,
        relay_decode_sum,
    )

    u_a, u_b = map(int, draws.u[:, i])
    d1, d2 = draws.d[:, i]
    z_relay = None if draws.z_relay is None else draws.z_relay[i]
    z_a, z_b = (None, None) if draws.z_down is None else draws.z_down[:, i]
    x1 = encode_node(u_a, d1, pair)
    x2 = encode_node(u_b, d2, pair)

    y_relay = x1 + x2
    if z_relay is not None:
        y_relay = y_relay + z_relay

    t_hat = relay_decode_sum(y_relay, (d1, d2), params, pair)
    relay_error = t_hat != modulo_sum(u_a, u_b, pair)

    broadcast_failed = False
    if mode == "index":
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
        t_at_a = _direct_downlink(t_hat, z_a, pair)
        t_at_b = _direct_downlink(t_hat, z_b, pair)

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


def bsc_encode(code, message) -> np.ndarray:
    """Codeword bits (..., n) of each row of message bits (..., k) of a
    `bsc.BinaryLinearCode`: the product with its generator over GF(2)."""
    return np.asarray(message, dtype=np.int64) % 2 @ code.generator % 2


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


def bsc_row(draws, i: int, code) -> BscRoundtrip:
    """The round on row i of a block of `bsc.draw_bsc` draws, the reference
    `bsc.bsc_rows` must match row by row.  Uplink XOR decode at the relay,
    broadcast, XOR-cancel at the ends; the relay re-encodes its decoded XOR
    message for the downlink, and each received word is its codeword XOR the
    round's flip row."""
    u_a, u_b = draws.messages[:, i]
    f_relay, f_a, f_b = draws.flips[:, i]
    m_relay = code.ml_decode(bsc_encode(code, u_a) ^ bsc_encode(code, u_b) ^ f_relay)
    relay_error = bool(np.any(m_relay != (u_a ^ u_b)))

    x_relay = bsc_encode(code, m_relay)
    u_b_hat = code.ml_decode(x_relay ^ f_a) ^ u_a
    u_a_hat = code.ml_decode(x_relay ^ f_b) ^ u_b
    return BscRoundtrip(
        u_a=u_a, u_b=u_b, relay_decoded=m_relay, relay_error=relay_error,
        u_b_hat_at_a=u_b_hat, u_a_hat_at_b=u_a_hat,
        end_error_a=bool(np.any(u_b_hat != u_b)),
        end_error_b=bool(np.any(u_a_hat != u_a)),
    )


# ---------------------------------------------------------------------------
# Relay symbol error for the 1-D uncoded modulo scheme
# ---------------------------------------------------------------------------

def _phi(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def relay_symbol_error_oracle(q: int, power: float, snr_db: float) -> float:
    """Exact error probability of the scaled modulo decode, n=1, uncoded.

    The equivalent noise is alpha*z - (1-alpha)*(x1+x2) with z Gaussian and
    x1, x2 uniform over the cell, i.e. a Gaussian convolved with a scaled
    triangular density.  The decision is correct iff the noise folded into
    the cell lands within half a fine step of zero; the correct-decision
    mass is integrated numerically over the triangular component.
    """
    sigma2 = power / 10.0 ** (snr_db / 10.0)
    gamma = math.sqrt(12.0 * power) / q
    cell = gamma * q
    c = cell / 2.0
    alpha = 2.0 * power / (2.0 * power + sigma2)
    beta = 1.0 - alpha
    gauss_sd = alpha * math.sqrt(sigma2)
    width = 2.0 * beta * c  # support half-width of the triangular component

    def tri_density(s: float) -> float:
        if abs(s) >= width:
            return 0.0
        return (width - abs(s)) / (width * width)

    def mass(a: float, b: float) -> float:
        if width == 0.0:
            return _phi(b / gauss_sd) - _phi(a / gauss_sd)
        val, _ = quad(
            lambda s: tri_density(s) * (_phi((b - s) / gauss_sd) - _phi((a - s) / gauss_sd)),
            -width, width, points=[0.0], limit=200, epsabs=1e-13, epsrel=1e-12,
        )
        return val

    correct = 0.0
    for m in range(-3, 4):
        lo = m * cell - gamma / 2.0
        hi = m * cell + gamma / 2.0
        if lo > width + 8 * gauss_sd or hi < -width - 8 * gauss_sd:
            continue
        correct += mass(lo, hi)
    return 1.0 - correct


# ---------------------------------------------------------------------------
# Exhaustive block error for binary codes on a BSC
# ---------------------------------------------------------------------------

def bsc_block_error_oracle(generator: np.ndarray, p: float) -> float:
    """Exact ML block error, averaging over codewords and all error patterns.

    Re-implements minimum-distance decoding with the lowest-index tie rule
    directly, independent of the library decoder.
    """
    G = np.asarray(generator, dtype=np.int64) % 2
    k, n = G.shape
    msgs = (np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1
    codewords = msgs @ G % 2
    patterns = (np.arange(2 ** n)[:, None] >> np.arange(n)[None, :]) & 1
    weights = patterns.sum(axis=1)
    probs = p ** weights * (1 - p) ** (n - weights)

    total = 0.0
    for ci, cw in enumerate(codewords):
        received = cw[None, :] ^ patterns
        dists = (received[:, None, :] != codewords[None, :, :]).sum(axis=2)
        decoded = np.argmin(dists, axis=1)
        total += probs[decoded != ci].sum()
    return total / 2 ** k


def hamming74_block_error_closed_form(p: float) -> float:
    """Perfect single-error-correcting code: error iff two or more flips."""
    return 1.0 - (1.0 - p) ** 7 - 7.0 * p * (1.0 - p) ** 6


# ---------------------------------------------------------------------------
# 1-D shell concentration
# ---------------------------------------------------------------------------

def concentration_1d_oracle(power: float, delta: float) -> float:
    """Off-shell probability of u+v with u, v uniform on [-sqrt(P), sqrt(P)].

    The sum has a triangular density on [-2a, 2a] with a = sqrt(P); the
    shell keeps |u+v| in [sqrt(2P-delta), sqrt(2P+delta)].
    """
    a = math.sqrt(power)
    lo = math.sqrt(max(0.0, 2.0 * power - delta))
    hi = math.sqrt(2.0 * power + delta)

    def tri(t: float) -> float:
        if abs(t) >= 2.0 * a:
            return 0.0
        return (2.0 * a - abs(t)) / (4.0 * a * a)

    inside, _ = quad(tri, -min(hi, 2 * a), min(hi, 2 * a),
                     points=[0.0], limit=200, epsabs=1e-13)
    if lo > 0:
        inner, _ = quad(tri, -min(lo, 2 * a), min(lo, 2 * a),
                        points=[0.0], limit=200, epsabs=1e-13)
        inside -= inner
    return 1.0 - inside


def concentration_offshell_oracle(n: int, power: float, delta: float) -> float:
    """Off-shell probability of u+v for u, v uniform in the radius-sqrt(nP) ball, n >= 2.

    With r_i = R * t_i^(1/n) and t_i uniform on [0, 1], |u+v|^2 is
    r1^2 + r2^2 + 2 r1 r2 c, where (1 + c)/2 ~ Beta((n-1)/2, (n-1)/2) is
    independent of the radii.  The shell is a window of c for fixed radii,
    whose probability is a difference of regularized incomplete Beta
    functions; it is integrated over (t1, t2) by 2-D quadrature.
    """
    a = (n - 1) / 2.0
    radius = math.sqrt(n * power)
    lo = n * (2.0 * power - delta)
    hi = n * (2.0 * power + delta)

    def window(t1: float, t2: float) -> float:
        s1 = n * power * t1 ** (2.0 / n)
        s2 = n * power * t2 ** (2.0 / n)
        scale = 2.0 * math.sqrt(s1 * s2)
        if scale == 0.0:
            return float(lo <= s1 + s2 <= hi)
        c_lo = min(max((lo - s1 - s2) / scale, -1.0), 1.0)
        c_hi = min(max((hi - s1 - s2) / scale, -1.0), 1.0)
        return float(betainc(a, a, (1.0 + c_hi) / 2.0) - betainc(a, a, (1.0 + c_lo) / 2.0))

    def inner(t2: float) -> float:
        # The window's ends reach c = -1 at r1 = r2 +- sqrt(edge) and c = 1 at
        # r1 = sqrt(edge) - r2, for edge in (lo, hi).
        r2 = radius * t2 ** (1.0 / n)
        ends = [r for e in (math.sqrt(lo), math.sqrt(hi)) for r in (r2 - e, r2 + e, e - r2)]
        kinks = sorted((r / radius) ** n for r in ends if 0.0 < r < radius)
        return quad(window, 0.0, 1.0, args=(t2,), points=kinks or None,
                    limit=200, epsabs=1e-8)[0]

    inside, _ = quad(inner, 0.0, 1.0, limit=200, epsabs=1e-7)
    return 1.0 - inside


def three_sigma(p: float, trials: int) -> float:
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / trials)


# ---------------------------------------------------------------------------
# Multihop chain, one slot at a time
# ---------------------------------------------------------------------------

def run_multihop_per_slot(schedule, pair, sigma2: float = 0.0, seed: int = 0):
    """The numeric chain as a scalar loop over slots: one `encode_node` per
    transmitter and one single-row `relay_decode_sum` per listener, on the
    same streams `multihop.run_multihop` reads.  It is the reference the
    batched executor must match exactly."""
    from twinrelay.lattice import dither, modulo_sum
    from twinrelay.multihop import MultihopResult, Packet, _walk
    from twinrelay.rng import TAG_DITHER, TAG_NOISE, TAG_PACKET, derive_seed, generator
    from twinrelay.twoway import ChannelParams, encode_node, relay_decode_sum

    channel = ChannelParams(power=pair.coarse.second_moment, sigma2=sigma2)
    pkt_rng = generator(seed, TAG_PACKET)
    truth: dict[Packet, int] = {}
    for direction in (1, 2):
        for idx in range(1, schedule.num_packets + 1):
            truth[(direction, idx)] = int(pkt_rng.integers(pair.size))

    result = MultihopResult(
        schedule=schedule, mode="numeric-awgn" if sigma2 > 0 else "numeric-noiseless")
    nodes = schedule.nodes
    # A relay's decoded state and its ideal one: the mod-q sum of what its
    # neighbors ideally sent, carried slot to slot.
    states = {nd: 0 for nd in nodes[1:-1]}
    ideal = dict(states)

    for rec in schedule.slots:
        talk, hear = _walk(nodes, rec.slot)
        signals: dict[str, np.ndarray] = {}
        dithers: dict[str, np.ndarray] = {}
        sent: dict[str, int] = {}   # ideal index each transmitter sends
        for pos, nd in talk:
            dithers[nd] = dither(generator(derive_seed(seed, TAG_DITHER, rec.slot, pos)),
                                 pair.coarse)
            if nd in states:
                t, sent[nd] = states[nd], ideal[nd]
            else:
                pkt = rec.injections.get(nd)
                t = sent[nd] = truth[pkt] if pkt is not None else 0
            signals[nd] = encode_node(t, dithers[nd], pair)

        for pos, nd, heard in hear:
            y = sum(signals[nb] for nb in heard)
            if sigma2 > 0:
                noise = generator(seed, TAG_NOISE, rec.slot, pos)
                y = y + noise.normal(0.0, math.sqrt(sigma2), size=pair.n)
            decoded = relay_decode_sum(y, [dithers[nb] for nb in heard], channel, pair)
            incoming = sent[heard[0]]
            for nb in heard[1:]:
                incoming = modulo_sum(incoming, sent[nb], pair)

            if nd in states:
                result.hop_decodes += 1
                if decoded != incoming:
                    result.hop_errors += 1
                    # Error propagation is part of the model: keep the bad state.
                states[nd], ideal[nd] = decoded, incoming
                continue
            for ev in rec.decode_events:
                if ev.node == nd:
                    # decoded - (incoming - packet) = packet <=> decoded = incoming
                    result.recovered.append((ev.slot, nd, ev.packet, decoded == incoming))

    return result
