"""Line network of L relays exchanging packet streams in both directions.

Half-duplex alternation by chain position: node A sits at position 0,
relay R_i at position i, node B at position L+1, and a node transmits in
slot t exactly when position + t is odd.  Adjacent nodes therefore never
transmit together, and every listener hears all of its neighbors.  End
nodes inject a fresh packet each time they transmit; a listening relay
replaces its state with the modulo sum of what it heard; a listening end
node subtracts everything it already knows, leaving exactly one unknown
packet per decode once the pipeline has filled.

The symbolic executor tracks each node's state as an integer coefficient
ledger over packet symbols.  The numeric executors replay the same
schedule with codebook indices, fresh dithers per (slot, node), and the
MMSE-scaled modulo decoder at every listener, decoding many slots per
call (see `run_multihop`).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardExceededError, ScheduleError, ValidationError
from .lattice import NestedLatticePair, dither, modulo_sum
# Not called here since listeners decode through `relay_decode_sum`; kept as a
# module attribute because perfbench's tracer wraps `multihop.quantize_fine`.
from .lattice import quantize_fine  # noqa: F401
from .rng import TAG_DITHER, TAG_NOISE, TAG_PACKET, derive_seed, generator
from .twoway import ChannelParams, encode_node, relay_decode_sum

Packet = tuple[int, int]     # (direction, index): direction 1 leaves A, 2 leaves B
Combo = dict[Packet, int]

# Bound on slots x relays x (2 * packets + 1), which bounds the ledger
# entries a schedule's records hold; the ledgers grow with packets squared.
LEDGER_GUARD = 1 << 21


def packet_label(packet: Packet) -> str:
    return f"x_{{{packet[0]},{packet[1]}}}"


def _labels(combo: Combo) -> dict[str, int]:
    return {packet_label(p): c for p, c in sorted(combo.items())}


def _merge_combo(dst: Combo, src: Combo) -> None:
    # Every coefficient is a sum of positive terms, so none cancels to zero.
    for key, coeff in src.items():
        dst[key] = dst.get(key, 0) + coeff


@dataclass(frozen=True)
class DecodeEvent:
    slot: int
    node: str                  # "A" or "B"
    packet: Packet             # read off with coefficient 1
    subtracted: Combo          # the known combination removed before reading off


@dataclass(eq=False)
class SlotRecord:
    """The one record of a slot: the packet table and every export derive from
    it.  A relay ledger is replaced, never mutated, so slots share ledgers."""
    slot: int
    transmitters: tuple[str, ...]
    decode_events: tuple[DecodeEvent, ...]
    injections: dict[str, Packet]          # endpoint -> packet sent this slot
    relay_states: dict[str, Combo]         # ledger after the slot, all relays


def _chain(relays: int) -> list[str]:
    """Nodes by chain position: A at 0, R_i at i, B at relays + 1."""
    return ["A"] + [f"R{i}" for i in range(1, relays + 1)] + ["B"]


def _walk(nodes: list[str], slot: int) -> tuple[list, list]:
    """Split the chain for one slot into transmitters (position, node) and
    listeners (position, node, neighbors).  Positions alternate by parity,
    so every neighbor of a listener transmits."""
    talk = [(pos, nodes[pos]) for pos in range(1 - slot % 2, len(nodes), 2)]
    hear = [(pos, nodes[pos], nodes[max(pos - 1, 0):pos] + nodes[pos + 1:pos + 2])
            for pos in range(slot % 2, len(nodes), 2)]
    return talk, hear


@dataclass(eq=False)
class HopSchedule:
    relays: int
    num_packets: int
    slots: list[SlotRecord]

    @property
    def nodes(self) -> list[str]:
        return _chain(self.relays)

    @property
    def decode_events(self) -> list[DecodeEvent]:
        return [ev for rec in self.slots for ev in rec.decode_events]

    def decode_slots(self, node: str) -> list[int]:
        return [ev.slot for ev in self.decode_events if ev.node == node]

    def first_decode_slot(self, node: str) -> int | None:
        slots = self.decode_slots(node)
        return slots[0] if slots else None

    def steady_state_periods(self, node: str) -> list[int]:
        slots = self.decode_slots(node)
        return [b - a for a, b in zip(slots, slots[1:])]


def build_schedule(relays: int, num_packets: int, max_slots: int | None = None) -> HopSchedule:
    """Symbolically run the chain until both ends decoded every packet.

    Raises GuardExceededError if the ledgers could outgrow LEDGER_GUARD, and
    ScheduleError if a decode ever faces more than one unknown, a unit
    coefficient is violated, or the horizon cap is hit.
    """
    if relays < 1:
        raise ValidationError(f"need at least one relay, got {relays}")
    if num_packets < 1:
        raise ValidationError(f"need at least one packet, got {num_packets}")
    cap = max_slots if max_slots is not None else 2 * num_packets + 2 * relays + 8
    if cap * relays * (2 * num_packets + 1) > LEDGER_GUARD:
        raise GuardExceededError(
            f"{relays} relays and {num_packets} packets over {cap} slots exceed "
            f"the ledger guard {LEDGER_GUARD} (slots x relays x (2 x packets + 1))")

    schedule = HopSchedule(relays=relays, num_packets=num_packets, slots=[])
    nodes = schedule.nodes
    states: dict[str, Combo] = {nd: {} for nd in nodes[1:-1]}
    sent = {"A": 0, "B": 0}
    decoded: dict[str, set[Packet]] = {"A": set(), "B": set()}
    own_dir = {"A": 1, "B": 2}

    slot = 0
    while len(decoded["A"]) < num_packets or len(decoded["B"]) < num_packets:
        slot += 1
        if slot > cap:
            raise ScheduleError(
                f"decode incomplete after {cap} slots: "
                f"A has {len(decoded['A'])}, B has {len(decoded['B'])} of {num_packets}"
            )
        talk, hear = _walk(nodes, slot)
        signals: dict[str, Combo] = {}
        injections: dict[str, Packet] = {}
        for _, nd in talk:
            if nd in states:
                signals[nd] = states[nd]
            elif sent[nd] < num_packets:
                sent[nd] += 1
                injections[nd] = (own_dir[nd], sent[nd])
                signals[nd] = {injections[nd]: 1}
            else:
                signals[nd] = {}

        events: list[DecodeEvent] = []
        for _, nd, heard in hear:
            incoming: Combo = {}
            for nb in heard:
                _merge_combo(incoming, signals[nb])
            if nd in states:
                states[nd] = incoming
                continue
            unknowns = [(pkt, coeff) for pkt, coeff in incoming.items()
                        if pkt[0] != own_dir[nd] and pkt not in decoded[nd]]
            if len(unknowns) > 1:
                raise ScheduleError(f"slot {slot}: node {nd} faces {len(unknowns)} unknowns")
            if unknowns:
                pkt, coeff = unknowns[0]
                if coeff != 1:
                    raise ScheduleError(
                        f"slot {slot}: unknown {packet_label(pkt)} at {nd} "
                        f"has coefficient {coeff}, expected 1"
                    )
                known = {p: c for p, c in incoming.items() if p != pkt}
                events.append(DecodeEvent(slot=slot, node=nd, packet=pkt, subtracted=known))
                decoded[nd].add(pkt)

        schedule.slots.append(SlotRecord(
            slot=slot, transmitters=tuple(nd for _, nd in talk),
            decode_events=tuple(events), injections=injections, relay_states=dict(states),
        ))

    return schedule


# ---------------------------------------------------------------------------
# Table rendering and JSON dumps
# ---------------------------------------------------------------------------

def _cell(rec: SlotRecord, node: str) -> dict:
    """A node's packet-table cell, derived from its slot record."""
    talking = node in rec.transmitters
    if node in rec.relay_states:
        return {"role": "transmit"} if talking else {
            "role": "state", "state": _labels(rec.relay_states[node])}
    if talking:
        pkt = rec.injections.get(node)
    else:
        pkt = next((ev.packet for ev in rec.decode_events if ev.node == node), None)
    if pkt is None:
        return {"role": "silent"}
    return {"role": "transmit" if talking else "decode", "packet": packet_label(pkt)}


def render_table(schedule: HopSchedule, max_slot: int = 6) -> dict:
    """Per-slot, per-node cell table in the fixture's JSON shape."""
    out: dict[str, dict] = {}
    for rec in schedule.slots:
        if rec.slot > max_slot:
            break
        out[str(rec.slot)] = {node: _cell(rec, node) for node in schedule.nodes}
    return {"relays": schedule.relays, "slots": out}


def table_json(schedule: HopSchedule, max_slot: int = 6) -> str:
    return json.dumps(render_table(schedule, max_slot), sort_keys=True, indent=2) + "\n"


def schedule_json(schedule: HopSchedule) -> dict:
    """Transmit sets, ledgers, and decode events for export."""
    return {
        "relays": schedule.relays,
        "num_packets": schedule.num_packets,
        "slots": [
            {
                "slot": rec.slot,
                "transmitters": list(rec.transmitters),
                "injections": {nd: packet_label(p) for nd, p in rec.injections.items()},
                "relay_states": {nd: _labels(combo) for nd, combo in rec.relay_states.items()},
                "decodes": [
                    {"node": ev.node, "packet": packet_label(ev.packet)}
                    for ev in rec.decode_events
                ],
            }
            for rec in schedule.slots
        ],
        "decode_events": [
            {"slot": ev.slot, "node": ev.node, "packet": packet_label(ev.packet),
             "subtracted": _labels(ev.subtracted)}
            for ev in schedule.decode_events
        ],
    }


# ---------------------------------------------------------------------------
# Numeric execution
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class MultihopResult:
    schedule: HopSchedule
    mode: str
    hop_decodes: int = 0
    hop_errors: int = 0
    recovered: list[tuple[int, str, Packet, bool]] = field(default_factory=list)

    @property
    def end_decodes(self) -> int:
        return len(self.recovered)

    @property
    def end_errors(self) -> int:
        return sum(not ok for *_, ok in self.recovered)

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "relays": self.schedule.relays,
            "num_packets": self.schedule.num_packets,
            "hop_decodes": self.hop_decodes,
            "hop_errors": self.hop_errors,
            "end_decodes": self.end_decodes,
            "end_errors": self.end_errors,
            "recovered": [
                {"slot": s, "node": nd, "packet": packet_label(p), "ok": ok}
                for s, nd, p, ok in self.recovered
            ],
        }


def run_multihop(
    schedule: HopSchedule,
    pair: NestedLatticePair | None = None,
    sigma2: float = 0.0,
    seed: int = 0,
) -> MultihopResult:
    """Execute a schedule symbolically or numerically.

    The arguments choose the mode: with no nested pair the run is
    "symbolic"; with one it is "numeric-awgn" when sigma2 > 0 and
    "numeric-noiseless" when sigma2 = 0.  Packets map to uniformly drawn
    codebook indices.
    Every scheduled transmitter sends its (possibly zero) state through a
    fresh dither; each listener decodes the modulo sum of the m signals it
    hears with `relay_decode_sum`, the receiver of the two-way relay.

    Relay decode errors propagate (a bad state keeps flowing downstream).
    End-node cancellation uses the true values of previously decoded
    packets, so each end error counts a fresh decode failure rather than
    compounding earlier ones.

    The results are those of a loop over slots, computed in batches of
    slots.  No stream depends on a relay state, so every dither (per slot
    and transmitter) and every noise row (per slot and listener that counts:
    each relay, and each end node at its decode events) is drawn first.  A
    window of slots is then planned in integers, taking each relay to decode
    the mod-q sum of what its neighbours actually sent; the window's
    transmissions are encoded in one `encode_node` call and its relay
    listens decoded in one `relay_decode_sum` call.  The slots up to and
    including the first one in which a relay decodes off the plan are
    committed, with their end-node decodes in one more call; every decode
    committed so saw the inputs the slot loop gives it, and each row's
    decode is independent of its batch.  The first window is the whole
    schedule; each next one is twice the slots the last committed.
    """
    if pair is None:
        return MultihopResult(schedule=schedule, mode="symbolic")

    channel = ChannelParams(power=pair.coarse.second_moment, sigma2=sigma2)
    pkt_rng = generator(seed, TAG_PACKET)
    truth: dict[Packet, int] = {}
    for direction in (1, 2):
        for idx in range(1, schedule.num_packets + 1):
            truth[(direction, idx)] = int(pkt_rng.integers(pair.size))

    result = MultihopResult(
        schedule=schedule, mode="numeric-awgn" if sigma2 > 0 else "numeric-noiseless")
    nodes = schedule.nodes
    sigma = math.sqrt(sigma2)
    # Transmissions and decodes as rows in slot order.  A transmission
    # carries its dither, the index it ideally sends, and the relay listen
    # whose decode it sends (-1: an end node's packet or zero, or a relay's
    # initial zero state).  A relay listen carries its two neighbours'
    # transmissions and its ideal index, the mod-q sum of what they ideally
    # sent; an end decode its neighbour's transmission.
    dithers, ideal_tx, source = [], [], []
    hop_nbs, hop_ideal, hop_slot, hop_noise = [], [], [], []
    end_nb, end_noise = [], []
    tx_start, hop_start, end_start = [0], [0], [0]
    last: dict[str, int] = {}           # relay -> its latest listen
    for i, rec in enumerate(schedule.slots):
        talk, hear = _walk(nodes, rec.slot)
        row: dict[str, int] = {}
        for pos, nd in talk:
            row[nd] = len(ideal_tx)
            dithers.append(dither(generator(derive_seed(seed, TAG_DITHER, rec.slot, pos)),
                                  pair.coarse))
            if nd in ("A", "B"):
                pkt = rec.injections.get(nd)
                source.append(-1)
                ideal_tx.append(truth[pkt] if pkt is not None else 0)
            else:
                source.append(last.get(nd, -1))
                ideal_tx.append(hop_ideal[source[-1]] if source[-1] >= 0 else 0)
        for pos, nd, heard in hear:
            if nd in ("A", "B"):
                if not any(ev.node == nd for ev in rec.decode_events):
                    continue
                end_nb.append(row[heard[0]])
                noise = end_noise
            else:
                a, b = row[heard[0]], row[heard[1]]
                last[nd] = len(hop_ideal)
                hop_nbs.append((a, b))
                hop_ideal.append(modulo_sum(ideal_tx[a], ideal_tx[b], pair))
                hop_slot.append(i)
                noise = hop_noise
            if sigma2 > 0:
                noise.append(generator(seed, TAG_NOISE, rec.slot, pos).normal(
                    0.0, sigma, size=pair.n))
        tx_start.append(len(ideal_tx))
        hop_start.append(len(hop_ideal))
        end_start.append(len(end_nb))

    dithers = np.array(dithers).reshape(-1, pair.n)
    if sigma2 > 0:
        hop_noise = np.array(hop_noise).reshape(-1, pair.n)
        end_noise = np.array(end_noise).reshape(-1, pair.n)
    nbs = np.array(hop_nbs, dtype=np.int64).reshape(-1, 2)
    end_nb = np.array(end_nb, dtype=np.int64)
    end_ideal = np.array(ideal_tx, dtype=np.int64)[end_nb]
    decoded = list(hop_ideal)            # committed, then planned, relay decodes
    end_ok = np.zeros(len(end_nb), dtype=bool)

    def sent(t: int) -> int:
        """The index transmission t sends under the plan."""
        return decoded[source[t]] if source[t] >= 0 else ideal_tx[t]

    done, width = 0, len(schedule.slots)
    while done < len(schedule.slots):
        stop = min(done + width, len(schedule.slots))
        t0, t1 = tx_start[done], tx_start[stop]
        h0, h1 = hop_start[done], hop_start[stop]
        for r in range(h0, h1):
            a, b = hop_nbs[r]
            sa, sb = sent(a), sent(b)
            decoded[r] = (hop_ideal[r] if sa == ideal_tx[a] and sb == ideal_tx[b]
                          else modulo_sum(sa, sb, pair))
        signals = encode_node(np.array([sent(t) for t in range(t0, t1)], dtype=np.int64),
                              dithers[t0:t1], pair)
        if h1 > h0:
            a, b = nbs[h0:h1, 0], nbs[h0:h1, 1]
            y = signals[a - t0] + signals[b - t0]
            if sigma2 > 0:
                y += hop_noise[h0:h1]
            got = relay_decode_sum(y, [dithers[a], dithers[b]], channel, pair)
            miss = np.flatnonzero(got != decoded[h0:h1])
            if miss.size:
                stop = hop_slot[h0 + miss[0]] + 1
            decoded[h0:hop_start[stop]] = got[:hop_start[stop] - h0].tolist()
        e0, e1 = end_start[done], end_start[stop]
        if e1 > e0:
            nb = end_nb[e0:e1]
            y = signals[nb - t0]
            if sigma2 > 0:
                y = y + end_noise[e0:e1]
            got = relay_decode_sum(y, [dithers[nb]], channel, pair)
            end_ok[e0:e1] = got == end_ideal[e0:e1]
        width = 2 * (stop - done)
        done = stop

    result.hop_decodes = len(hop_ideal)
    result.hop_errors = sum(d != t for d, t in zip(decoded, hop_ideal))
    # decoded - (incoming - packet) = packet <=> decoded = incoming
    result.recovered = [(ev.slot, ev.node, ev.packet, bool(ok))
                        for ev, ok in zip(schedule.decode_events, end_ok)]
    return result


# ---------------------------------------------------------------------------
# Amplify-and-forward cascade baseline
# ---------------------------------------------------------------------------

def anc_multihop_snr(relays: int, snr: float) -> float:
    """End-to-end SNR of a forward amplify-and-forward cascade.

    Each stage hears two unit-power neighbors plus noise, applies the gain
    g^2 = snr/(2*snr + 1), and renormalizes to power P.  The destination
    cancels everything that originated from itself; reflections traveling
    backward are neglected.  The desired component attenuates as g^(2L)
    while each stage's noise is amplified by every later stage:

        snr_eff(L) = g^(2L) * snr / (1 + sum_{j=1..L} g^(2j))

    which reduces to snr^2/(3*snr + 1) for a single relay.
    """
    if relays < 1:
        raise ValidationError(f"need at least one relay, got {relays}")
    if snr < 0:
        raise ValidationError(f"snr must be >= 0, got {snr}")
    g2 = snr / (2.0 * snr + 1.0)
    geo = sum(g2 ** j for j in range(1, relays + 1))
    return g2 ** relays * snr / (1.0 + geo)


def anc_multihop_baseline(relays: int, snr: float) -> float:
    """Exchange rate (1/2) log2(1 + snr_eff) of the cascade; L=1 matches rate_anc."""
    return 0.5 * math.log2(1.0 + anc_multihop_snr(relays, snr))
