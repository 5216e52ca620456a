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
ledger over packet symbols.  The numeric executor replays the same
schedule with codebook indices on the chain's slot x position grid, with
fresh dithers per (slot, node) and the MMSE-scaled modulo decoder at
every listener, decoding many slots per call (see `run_multihop`).  The
amplify-and-forward cascade it is compared with is `rates.anc_multihop_baseline`.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import GuardExceededError, ScheduleError, ValidationError
from .lattice import ONE_HOT_GUARD, NestedLatticePair, dither, modulo_sum
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


def build_schedule(relays: int, num_packets: int) -> HopSchedule:
    """Symbolically run the chain until both ends decoded every packet.

    Raises GuardExceededError if the ledgers could outgrow LEDGER_GUARD, and
    ScheduleError if a decode ever faces more than one unknown, a unit
    coefficient is violated, or the horizon cap of 2P + 2L + 8 slots is hit.
    """
    if relays < 1:
        raise ValidationError(f"need at least one relay, got {relays}")
    if num_packets < 1:
        raise ValidationError(f"need at least one packet, got {num_packets}")
    cap = 2 * num_packets + 2 * relays + 8
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
    """Transmit sets, ledgers, and decode events for export.  Each packet label
    and each relay ledger is formatted once: slots share ledger objects."""
    labels = {(d, i): packet_label((d, i))
              for d in (1, 2) for i in range(1, schedule.num_packets + 1)}
    ledgers: dict[int, dict[str, int]] = {}

    def ledger(combo: Combo) -> dict[str, int]:
        if id(combo) not in ledgers:
            ledgers[id(combo)] = {labels[p]: c for p, c in sorted(combo.items())}
        return ledgers[id(combo)]

    return {
        "relays": schedule.relays,
        "num_packets": schedule.num_packets,
        "slots": [
            {
                "slot": rec.slot,
                "transmitters": list(rec.transmitters),
                "injections": {nd: labels[p] for nd, p in rec.injections.items()},
                "relay_states": {nd: ledger(combo) for nd, combo in rec.relay_states.items()},
                "decodes": [{"node": ev.node, "packet": labels[ev.packet]}
                            for ev in rec.decode_events],
            }
            for rec in schedule.slots
        ],
        "decode_events": [
            {"slot": ev.slot, "node": ev.node, "packet": labels[ev.packet],
             "subtracted": ledger(ev.subtracted)}
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
    pair: NestedLatticePair,
    sigma2: float = 0.0,
    seed: int = 0,
) -> MultihopResult:
    """Execute a schedule numerically on a nested pair.

    The mode is "numeric-awgn" when sigma2 > 0 and "numeric-noiseless"
    when sigma2 = 0 (a "symbolic" result is the schedule alone, which the
    CLI writes itself).  Packets map to uniformly drawn codebook indices.
    Every scheduled transmitter sends its (possibly zero) state through a
    fresh dither; each listener decodes the modulo sum of the m signals it
    hears with `relay_decode_sum`, the receiver of the two-way relay.

    Relay decode errors propagate (a bad state keeps flowing downstream).
    End-node cancellation uses the true values of previously decoded
    packets, so each end error counts a fresh decode failure rather than
    compounding earlier ones.

    The results are those of a loop over slots, computed on the chain's
    slot x position grid.  Position p transmits in slot t when p + t is
    odd and listens otherwise; `sent[t][p]` is the index it sends, so a
    relay that decodes in slot t sends that decode in slot t + 1.  The
    dithers, noise rows and signals are arrays indexed by (t, p).  No
    stream depends on a relay state, so every dither (per slot and
    transmitter) and every noise row (per slot and listener that counts:
    each relay, and each end node at its decode events) is drawn first.

    A window of slots is then planned in integers, each relay listen
    taking the mod-q sum of what its neighbours send under the plan; the
    window's rows are encoded in one `encode_node` call and its relay
    listens decoded in one `relay_decode_sum` call.  The slots up to and
    including the first one in which a relay decodes off the plan are
    committed, that slot's decodes written into `sent`; every decode
    committed so saw the inputs the slot loop gives it, and each row's
    decode is independent of its batch.  Each next window is twice the
    slots the last one committed.  The first window is the whole schedule
    from zero relay states, so its plan is the ideal run (what each
    listener would decode were every decode right), which scores every
    relay and end decode; a shorter one would leave the ideal of the later
    slots to a tabulation of its own.  It also makes a noiseless run one
    window.  A window re-encodes only slots it has not committed, so after
    the loop every signal is what its slot sent, and the end decodes,
    which feed nothing back, take one call.
    """
    channel = ChannelParams(power=pair.coarse.second_moment, sigma2=sigma2)
    slots, relays, sigma = len(schedule.slots), schedule.relays, math.sqrt(sigma2)
    if (slots + 2) * (relays + 2) * pair.n > ONE_HOT_GUARD:
        raise GuardExceededError(
            f"{slots + 2} x {relays + 2} x {pair.n} slot grid exceeds "
            f"{ONE_HOT_GUARD} entries per array")
    pkt_rng = generator(seed, TAG_PACKET)
    truth: dict[Packet, int] = {}
    for direction in (1, 2):
        for idx in range(1, schedule.num_packets + 1):
            truth[(direction, idx)] = int(pkt_rng.integers(pair.size))

    result = MultihopResult(
        schedule=schedule, mode="numeric-awgn" if sigma2 > 0 else "numeric-noiseless")
    end = {"A": (0, 1), "B": (relays + 1, relays)}     # end node -> (position, neighbour)
    sent = [[0] * (relays + 2) for _ in range(slots + 2)]
    dithers = np.zeros((slots + 2, relays + 2, pair.n))
    noise = np.zeros_like(dithers)
    signals = np.zeros_like(dithers)
    listen = np.zeros((slots + 2, relays + 2), dtype=bool)    # the relay listens
    for rec in schedule.slots:
        t = rec.slot
        for p in range(1 - t % 2, relays + 2, 2):
            dithers[t, p] = dither(generator(derive_seed(seed, TAG_DITHER, t, p)), pair.coarse)
        for nd, pkt in rec.injections.items():
            sent[t][end[nd][0]] = truth[pkt]
        listen[t, 2 - t % 2:relays + 1:2] = True
        ends = [end[ev.node][0] for ev in rec.decode_events]
        # Noiseless, the noise grid stays zero and no noise stream is set up:
        # a sigma = 0 draw would still build one Philox generator per (slot,
        # listener), 42 on the README's numeric-noiseless line, a fifth to a
        # third of its time on a 2-core host, for rows the grid already holds.
        for p in [*range(2 - t % 2, relays + 1, 2), *ends] if sigma2 > 0 else ():
            noise[t, p] = generator(seed, TAG_NOISE, t, p).normal(0.0, sigma, size=pair.n)

    done, stop = 0, slots
    while done < slots:
        for t in range(done + 1, stop + 1):     # the plan: every relay decodes right
            now, nxt = sent[t], sent[t + 1]
            for p in range(2 - t % 2, relays + 1, 2):
                nxt[p] = modulo_sum(now[p - 1], now[p + 1], pair)
        plan = np.array(sent[done:stop + 2])
        if done == 0:
            ideal = plan
        signals[done + 1:stop + 1] = encode_node(plan[1:-1], dithers[done + 1:stop + 1], pair)
        t, p = np.nonzero(listen[done + 1:stop + 1])
        t += done + 1
        y = signals[t, p - 1] + signals[t, p + 1] + noise[t, p]
        got = relay_decode_sum(y, [dithers[t, p - 1], dithers[t, p + 1]], channel, pair)
        miss = np.flatnonzero(got != plan[t + 1 - done, p])
        if miss.size:
            stop = int(t[miss[0]])
            for i in miss[t[miss] == stop]:
                sent[stop + 1][p[i]] = int(got[i])
        width = 2 * (stop - done)
        done, stop = stop, min(stop + width, slots)

    t, p, nb = np.array([(ev.slot, *end[ev.node]) for ev in schedule.decode_events]).T
    got = relay_decode_sum(signals[t, nb] + noise[t, p], [dithers[t, nb]], channel, pair)
    # decoded - (incoming - packet) = packet <=> decoded = incoming
    result.recovered = [(ev.slot, ev.node, ev.packet, bool(ok))
                        for ev, ok in zip(schedule.decode_events, got == ideal[t, nb])]
    result.hop_decodes = int(listen.sum())
    result.hop_errors = int((np.array(sent) != ideal).sum())
    return result

