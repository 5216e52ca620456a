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
MMSE-scaled modulo decoder at every listener.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import ScheduleError, ValidationError
from .lattice import NestedLatticePair, dither, mod_coarse, modulo_diff, quantize_fine
from .rng import TAG_DITHER, TAG_NOISE, TAG_PACKET, derive_seed, generator
from .twoway import encode_node

Packet = tuple[int, int]     # (direction, index): direction 1 leaves A, 2 leaves B
Combo = dict[Packet, int]


def packet_label(packet: Packet) -> str:
    return f"x_{{{packet[0]},{packet[1]}}}"


def _merge_combo(dst: Combo, src: Combo) -> None:
    for key, coeff in src.items():
        new = dst.get(key, 0) + coeff
        if new:
            dst[key] = new
        else:
            dst.pop(key, None)


@dataclass(frozen=True)
class DecodeEvent:
    slot: int
    node: str                  # "A" or "B"
    packet: Packet
    subtracted: Combo          # the known combination removed before reading off
    coefficient: int = 1


@dataclass(eq=False)
class SlotRecord:
    slot: int
    transmitters: tuple[str, ...]
    cells: dict[str, dict]
    decode_events: tuple[DecodeEvent, ...]
    injections: dict[str, Packet]          # endpoint -> packet sent this slot
    relay_states: dict[str, Combo]         # ledger after the slot, all relays


@dataclass(eq=False)
class HopSchedule:
    relays: int
    num_packets: int
    slots: list[SlotRecord]
    decode_events: list[DecodeEvent]

    @property
    def nodes(self) -> list[str]:
        return ["A"] + [f"R{i}" for i in range(1, self.relays + 1)] + ["B"]

    def decode_slots(self, node: str) -> list[int]:
        return [ev.slot for ev in self.decode_events if ev.node == node]

    def first_decode_slot(self, node: str) -> int | None:
        slots = self.decode_slots(node)
        return slots[0] if slots else None

    def steady_state_periods(self, node: str) -> list[int]:
        slots = self.decode_slots(node)
        return [b - a for a, b in zip(slots, slots[1:])]


def _position(node: str, relays: int) -> int:
    if node == "A":
        return 0
    if node == "B":
        return relays + 1
    return int(node[1:])


def _neighbors(node: str, relays: int) -> list[str]:
    pos = _position(node, relays)
    nodes = ["A"] + [f"R{i}" for i in range(1, relays + 1)] + ["B"]
    out = []
    if pos > 0:
        out.append(nodes[pos - 1])
    if pos < relays + 1:
        out.append(nodes[pos + 1])
    return out


def transmits(node: str, slot: int, relays: int) -> bool:
    """Half-duplex alternation: transmit when chain position + slot is odd."""
    return (_position(node, relays) + slot) % 2 == 1


def build_schedule(relays: int, num_packets: int, max_slots: int | None = None) -> HopSchedule:
    """Symbolically run the chain until both ends decoded every packet.

    Raises ScheduleError if a decode ever faces more than one unknown, a
    unit coefficient is violated, or the horizon cap is hit.
    """
    if relays < 1:
        raise ValidationError(f"need at least one relay, got {relays}")
    if num_packets < 1:
        raise ValidationError(f"need at least one packet, got {num_packets}")
    cap = max_slots if max_slots is not None else 2 * num_packets + 2 * relays + 8

    nodes = ["A"] + [f"R{i}" for i in range(1, relays + 1)] + ["B"]
    states: dict[str, Combo] = {f"R{i}": {} for i in range(1, relays + 1)}
    sent = {"A": 0, "B": 0}
    decoded: dict[str, set[Packet]] = {"A": set(), "B": set()}
    own_dir = {"A": 1, "B": 2}
    other_dir = {"A": 2, "B": 1}

    slot_records: list[SlotRecord] = []
    all_events: list[DecodeEvent] = []
    slot = 0
    while len(decoded["A"]) < num_packets or len(decoded["B"]) < num_packets:
        slot += 1
        if slot > cap:
            raise ScheduleError(
                f"decode incomplete after {cap} slots: "
                f"A has {len(decoded['A'])}, B has {len(decoded['B'])} of {num_packets}"
            )
        txs = tuple(nd for nd in nodes if transmits(nd, slot, relays))
        signals: dict[str, Combo] = {}
        injections: dict[str, Packet] = {}
        cells: dict[str, dict] = {}
        for nd in txs:
            if nd in ("A", "B"):
                if sent[nd] < num_packets:
                    sent[nd] += 1
                    pkt = (own_dir[nd], sent[nd])
                    injections[nd] = pkt
                    signals[nd] = {pkt: 1}
                    cells[nd] = {"role": "transmit", "packet": packet_label(pkt)}
                else:
                    signals[nd] = {}
                    cells[nd] = {"role": "silent"}
            else:
                signals[nd] = dict(states[nd])
                cells[nd] = {"role": "transmit"}

        events: list[DecodeEvent] = []
        for nd in nodes:
            if nd in txs:
                continue
            incoming: Combo = {}
            for nb in _neighbors(nd, relays):
                if nb in txs:
                    _merge_combo(incoming, signals[nb])
            if nd in ("A", "B"):
                unknowns = [
                    (pkt, coeff) for pkt, coeff in incoming.items()
                    if pkt[0] == other_dir[nd] and pkt not in decoded[nd]
                ]
                if len(unknowns) > 1:
                    raise ScheduleError(
                        f"slot {slot}: node {nd} faces {len(unknowns)} unknowns"
                    )
                if len(unknowns) == 1:
                    pkt, coeff = unknowns[0]
                    if coeff != 1:
                        raise ScheduleError(
                            f"slot {slot}: unknown {packet_label(pkt)} at {nd} "
                            f"has coefficient {coeff}, expected 1"
                        )
                    known = {p: c for p, c in incoming.items() if p != pkt}
                    ev = DecodeEvent(slot=slot, node=nd, packet=pkt, subtracted=known)
                    events.append(ev)
                    decoded[nd].add(pkt)
                    cells[nd] = {"role": "decode", "packet": packet_label(pkt)}
                else:
                    cells[nd] = {"role": "silent"}
            else:
                states[nd] = incoming
                cells[nd] = {
                    "role": "state",
                    "state": {packet_label(p): c for p, c in sorted(incoming.items())},
                }

        all_events.extend(events)
        slot_records.append(SlotRecord(
            slot=slot, transmitters=txs, cells=cells, decode_events=tuple(events),
            injections=injections,
            relay_states={nd: dict(states[nd]) for nd in states},
        ))

    return HopSchedule(relays=relays, num_packets=num_packets,
                       slots=slot_records, decode_events=all_events)


# ---------------------------------------------------------------------------
# Table rendering and JSON dumps
# ---------------------------------------------------------------------------

def render_table(schedule: HopSchedule, max_slot: int = 6) -> dict:
    """Per-slot, per-node cell table in the fixture's JSON shape."""
    out: dict[str, dict] = {}
    for rec in schedule.slots:
        if rec.slot > max_slot:
            break
        out[str(rec.slot)] = {node: rec.cells[node] for node in schedule.nodes}
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
                "relay_states": {
                    nd: {packet_label(p): c for p, c in sorted(combo.items())}
                    for nd, combo in rec.relay_states.items()
                },
                "decodes": [
                    {"node": ev.node, "packet": packet_label(ev.packet)}
                    for ev in rec.decode_events
                ],
            }
            for rec in schedule.slots
        ],
        "decode_events": [
            {"slot": ev.slot, "node": ev.node, "packet": packet_label(ev.packet),
             "subtracted": {packet_label(p): c for p, c in sorted(ev.subtracted.items())}}
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
    end_decodes: int = 0
    end_errors: int = 0
    recovered: list[tuple[int, str, Packet, bool]] = field(default_factory=list)

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


def _combo_index(combo: Combo, truth: Mapping[Packet, int], pair: NestedLatticePair) -> int:
    """Codebook index of a ledger combination: a digit-wise mod-q sum of messages."""
    total = np.zeros(pair.k, dtype=np.int64)
    for pkt, coeff in combo.items():
        total += coeff * pair.digits(truth[pkt])
    return pair.index_of_digits(total)


def run_multihop(
    schedule: HopSchedule,
    mode: str,
    pair: NestedLatticePair | None = None,
    sigma2: float = 0.0,
    seed: int = 0,
) -> MultihopResult:
    """Execute a schedule symbolically or numerically.

    mode: "symbolic" | "numeric-noiseless" | "numeric-awgn".  Numeric modes
    need a nested pair; packets map to uniformly drawn codebook indices.
    Every scheduled transmitter sends its (possibly zero) state through a
    fresh dither; each listener applies the m-input MMSE scaling
    m*P/(m*P + sigma2) before the modulo fold and fine quantization.

    Relay decode errors propagate (a bad state keeps flowing downstream).
    End-node cancellation uses the true values of previously decoded
    packets, so each end error counts a fresh decode failure rather than
    compounding earlier ones.
    """
    if mode == "symbolic":
        return MultihopResult(schedule=schedule, mode=mode)
    if mode not in ("numeric-noiseless", "numeric-awgn"):
        raise ValidationError(f"unknown mode {mode!r}")
    if pair is None:
        raise ValidationError("numeric modes need a nested lattice pair")
    if mode == "numeric-noiseless":
        sigma2 = 0.0
    elif sigma2 <= 0:
        raise ValidationError("numeric-awgn needs sigma2 > 0, a finite SNR")

    power = pair.coarse.second_moment
    pkt_rng = generator(seed, TAG_PACKET)
    truth: dict[Packet, int] = {}
    for direction in (1, 2):
        for idx in range(1, schedule.num_packets + 1):
            truth[(direction, idx)] = int(pkt_rng.integers(pair.size))

    result = MultihopResult(schedule=schedule, mode=mode)
    states = {f"R{i}": 0 for i in range(1, schedule.relays + 1)}

    for rec in schedule.slots:
        signals: dict[str, np.ndarray] = {}
        dithers: dict[str, np.ndarray] = {}
        for nd in rec.transmitters:
            pos = _position(nd, schedule.relays)
            dithers[nd] = dither(generator(derive_seed(seed, TAG_DITHER, rec.slot, pos)),
                                 pair.coarse)
            if nd in ("A", "B"):
                pkt = rec.injections.get(nd)
                t = truth[pkt] if pkt is not None else 0
            else:
                t = states[nd]
            signals[nd] = encode_node(t, dithers[nd], pair)

        for nd in schedule.nodes:
            if nd in rec.transmitters:
                continue
            tx_neighbors = [nb for nb in _neighbors(nd, schedule.relays) if nb in rec.transmitters]
            if not tx_neighbors:
                continue
            y = np.zeros(pair.n)
            dsum = np.zeros(pair.n)
            for nb in tx_neighbors:
                y += signals[nb]
                dsum += dithers[nb]
            if sigma2 > 0:
                pos = _position(nd, schedule.relays)
                noise = generator(seed, TAG_NOISE, rec.slot, pos)
                y = y + noise.normal(0.0, math.sqrt(sigma2), size=pair.n)
            m = len(tx_neighbors)
            alpha = 1.0 if sigma2 == 0 else m * power / (m * power + sigma2)
            decoded = quantize_fine(mod_coarse(alpha * y + dsum, pair.coarse), pair)

            if nd in ("A", "B"):
                for ev in rec.decode_events:
                    if ev.node != nd:
                        continue
                    got = modulo_diff(decoded, _combo_index(ev.subtracted, truth, pair), pair)
                    ok = got == truth[ev.packet]
                    result.end_decodes += 1
                    result.end_errors += 0 if ok else 1
                    result.recovered.append((ev.slot, nd, ev.packet, ok))
            else:
                result.hop_decodes += 1
                if decoded != _combo_index(rec.relay_states[nd], truth, pair):
                    result.hop_errors += 1
                    # Error propagation is part of the model: keep the bad state.
                states[nd] = decoded

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
