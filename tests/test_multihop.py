"""Relay-chain scheduling, the golden table, and numeric execution."""

import hashlib
import json
import os

import pytest

from oracles import run_multihop_per_slot
from twinrelay import multihop
from twinrelay.errors import GuardExceededError, ScheduleError, ValidationError
from twinrelay.lattice import make_pair
from twinrelay.multihop import (
    anc_multihop_baseline,
    anc_multihop_snr,
    build_schedule,
    render_table,
    run_multihop,
    schedule_json,
    table_json,
)
from twinrelay.rates import rate_anc, rate_lattice
from twinrelay.twoway import relay_decode_sum

FIXTURE = os.path.join(
    os.path.dirname(__file__), "..", "src", "twinrelay", "data", "table1.json"
)


def test_golden_table_bytes():
    schedule = build_schedule(3, 3)
    with open(FIXTURE) as fh:
        assert table_json(schedule) == fh.read()


def test_golden_table_cells():
    schedule = build_schedule(3, 3)
    with open(FIXTURE) as fh:
        want = json.load(fh)
    got = render_table(schedule)
    assert got == want
    assert sum(len(v) for v in got["slots"].values()) == 30


def test_slot4_states_and_decodes():
    slot4 = render_table(build_schedule(3, 3))["slots"]["4"]
    assert slot4["R2"]["state"] == {
        "x_{1,1}": 2, "x_{2,1}": 2, "x_{1,2}": 1, "x_{2,2}": 1,
    }
    assert slot4["A"] == {"role": "decode", "packet": "x_{2,1}"}
    assert slot4["B"] == {"role": "decode", "packet": "x_{1,1}"}


def test_half_duplex_disjoint():
    for L in range(1, 7):
        schedule = build_schedule(L, 5)
        for rec in schedule.slots:
            listeners = set(schedule.nodes) - set(rec.transmitters)
            assert listeners.isdisjoint(rec.transmitters)
            # adjacent nodes never transmit together
            for i, nd in enumerate(schedule.nodes[:-1]):
                nb = schedule.nodes[i + 1]
                assert not (nd in rec.transmitters and nb in rec.transmitters)


def test_two_relay_slot_parity():
    # with two relays: A and R2 open, then R1 and B
    slots = build_schedule(2, 1).slots
    assert slots[0].transmitters == ("A", "R2")
    assert slots[1].transmitters == ("R1", "B")


def test_throughput_one_decode_per_two_slots():
    for L in range(1, 7):
        schedule = build_schedule(L, 8)
        for node in ("A", "B"):
            periods = schedule.steady_state_periods(node)
            assert periods, f"no decodes at {node} for L={L}"
            assert set(periods) == {2}
            first = schedule.first_decode_slot(node)
            assert first in (L + 1, L + 2)
            assert first <= 2 * L + 2


def test_decode_events_have_unit_coefficient():
    schedule = build_schedule(4, 6)
    assert schedule.decode_events
    for ev in schedule.decode_events:
        assert ev.packet not in ev.subtracted


def _canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


# sha256 over every export of the schedules below; it changes only if some
# relay ledger, subtracted combination, packet table cell or recovered
# packet does.
OUTPUTS_SHA256 = "9f4880b9bea4e55e7ef4f31d306f7b3f146bed2e78b479dc64f719d5ecb549e6"


def test_outputs_pinned_byte_for_byte():
    noiseless = make_pair(n=2, q=8, k=1, power=1.0)
    awgn = make_pair(n=2, q=4, k=1, power=1.0)
    h = hashlib.sha256()
    for L in range(1, 7):
        for P in (1, 2, 3, 5, 8, 20):
            schedule = build_schedule(L, P)
            h.update(_canonical(schedule_json(schedule)))
            h.update(table_json(schedule, max_slot=10**6).encode())
            for pair, sigma2 in ((noiseless, 0.0), (awgn, 0.2)):
                result = run_multihop(schedule, pair=pair, sigma2=sigma2, seed=100 * L + P)
                h.update(_canonical(result.to_dict()))
    assert h.hexdigest() == OUTPUTS_SHA256


def test_schedule_validation():
    with pytest.raises(ValidationError):
        build_schedule(0, 5)
    with pytest.raises(ValidationError):
        build_schedule(2, 0)
    with pytest.raises(ScheduleError):
        build_schedule(3, 10, max_slots=4)


@pytest.mark.parametrize("relays,packets", [(3, 5000), (5000, 1)])
def test_ledger_guard_refuses_before_first_slot(relays, packets):
    with pytest.raises(GuardExceededError, match="ledger guard"):
        build_schedule(relays, packets)


def test_ledger_guard_admits_400_packets_over_3_relays():
    schedule = build_schedule(3, 400)
    assert len(schedule.decode_events) == 800


# The grid of the pinned outputs at both of its pairs' moduli, plus packets = 60.
GRID_PAIRS = ((8, 0.0), (4, 0.05), (4, 0.2), (4, 1.0))


@pytest.mark.parametrize("relays", range(1, 7))
def test_batched_executor_matches_per_slot_loop(relays):
    pairs = {q: make_pair(n=2, q=q, k=1, power=1.0) for q in (4, 8)}
    for packets in (1, 2, 3, 5, 8, 20, 60):
        schedule = build_schedule(relays, packets)
        for q, sigma2 in GRID_PAIRS:
            for seed in (0, 1):
                got = run_multihop(schedule, pair=pairs[q], sigma2=sigma2, seed=seed)
                want = run_multihop_per_slot(schedule, pairs[q], sigma2, seed)
                assert got.to_dict() == want.to_dict(), (relays, packets, q, sigma2, seed)


@pytest.mark.parametrize("n,q,k", [(3, 5, 2), (4, 2, 2), (6, 4, 3)])
def test_batched_executor_matches_per_slot_loop_on_long_codes(n, q, k):
    # non-full codes go through the float32 product and its float64 re-decide
    pair = make_pair(n=n, q=q, k=k, power=1.0)
    for relays in (1, 2, 5):
        schedule = build_schedule(relays, 15)
        for sigma2 in (0.0, 0.02, 0.2):
            got = run_multihop(schedule, pair=pair, sigma2=sigma2, seed=relays)
            want = run_multihop_per_slot(schedule, pair, sigma2, relays)
            assert got.to_dict() == want.to_dict(), (relays, sigma2)


class _RowSpy:
    """Wraps `relay_decode_sum`, recording (m, rows) per call."""

    def __init__(self):
        self.calls = []

    def __call__(self, y, dithers, params, pair):
        self.calls.append((len(dithers), len(y)))
        return relay_decode_sum(y, dithers, params, pair)

    def rows(self, m=None):
        return sum(rows for mm, rows in self.calls if m in (None, mm))


def test_noiseless_run_decodes_in_one_window(monkeypatch):
    spy = _RowSpy()
    monkeypatch.setattr(multihop, "relay_decode_sum", spy)
    result = run_multihop(build_schedule(4, 30), pair=make_pair(n=2, q=8, k=1), seed=3)
    # one call per signal count: every relay listen, then every end decode
    assert result.end_errors == 0 and result.hop_errors == 0
    assert spy.calls == [(2, result.hop_decodes), (1, result.end_decodes)]


def test_noisy_run_decodes_at_most_four_times_its_listens(monkeypatch):
    # a relay error ends a window, so a noisy run decodes some relay rows
    # again; the window policy bounds the rows, not the calls
    spy = _RowSpy()
    monkeypatch.setattr(multihop, "relay_decode_sum", spy)
    result = run_multihop(build_schedule(3, 300), pair=make_pair(n=2, q=4, k=1),
                          sigma2=1.0, seed=0)
    assert result.hop_errors > 100
    assert spy.rows(1) == result.end_decodes
    assert spy.rows() <= 4 * (result.hop_decodes + result.end_decodes)


def test_numeric_noiseless_recovers_everything():
    pair = make_pair(n=2, q=8, k=1, power=1.0)
    schedule = build_schedule(3, 20)
    result = run_multihop(schedule, pair=pair, seed=5)
    assert result.end_decodes == 40
    assert result.end_errors == 0
    assert result.hop_errors == 0
    sym = [(ev.slot, ev.node, ev.packet) for ev in schedule.decode_events]
    num = [(s, nd, p) for s, nd, p, ok in result.recovered]
    assert sym == num


def test_numeric_modes_survive_coefficients_beyond_int64():
    # Beyond two relays the ledger coefficients double each slot: 2^70 here.
    schedule = build_schedule(3, 70)
    for q in (5, 8):
        pair = make_pair(n=2, q=q, k=1, power=1.0)
        result = run_multihop(schedule, pair=pair, seed=1)
        assert result.end_decodes == 140
        assert result.end_errors == 0 and result.hop_errors == 0


def test_numeric_noiseless_various_sizes():
    for L in (1, 2, 4):
        pair = make_pair(n=3, q=5, k=2, power=1.0)
        result = run_multihop(build_schedule(L, 6), pair=pair, seed=2)
        assert result.end_errors == 0


def test_numeric_awgn_error_grows_with_hops():
    pair = make_pair(n=2, q=4, k=1, power=1.0)
    sigma2 = 1.0 / 10 ** 0.8  # 8 dB: noisy enough to see per-hop losses
    rates = {}
    for L in (1, 3):
        errs = decs = 0
        for rep in range(300):
            res = run_multihop(build_schedule(L, 4), pair=pair, sigma2=sigma2,
                               seed=1000 * L + rep)
            errs += res.end_errors
            decs += res.end_decodes
        rates[L] = errs / decs
    assert rates[3] >= rates[1] - 0.01


def test_mode_follows_pair_and_sigma2():
    schedule = build_schedule(1, 2)
    pair = make_pair(n=1, q=4, k=1, power=1.0)
    assert run_multihop(schedule).mode == "symbolic"
    assert run_multihop(schedule, pair=pair).mode == "numeric-noiseless"
    assert run_multihop(schedule, pair=pair, sigma2=0.1).mode == "numeric-awgn"
    with pytest.raises(ValidationError, match="noise variance"):
        run_multihop(schedule, pair=pair, sigma2=-0.1)


def test_schedule_json_shape():
    schedule = build_schedule(2, 3)
    dump = schedule_json(schedule)
    assert dump["relays"] == 2
    assert dump["slots"][0]["transmitters"] == ["A", "R2"]
    assert all("relay_states" in rec for rec in dump["slots"])
    assert dump["decode_events"]


def test_anc_cascade_matches_single_relay_form():
    for snr in (0.5, 2.0, 10.0, 100.0):
        assert anc_multihop_baseline(1, snr) == pytest.approx(rate_anc(snr), abs=1e-12)


def test_anc_cascade_snr_decreasing_in_hops():
    for snr in (1.0, 10.0, 100.0):
        vals = [anc_multihop_snr(L, snr) for L in range(1, 8)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


def test_lattice_multihop_dominates_anc_with_growing_gap():
    snr = 100.0  # 20 dB
    lattice = rate_lattice(snr)
    gaps = [lattice - anc_multihop_baseline(L, snr) for L in range(1, 7)]
    assert all(g > 0 for g in gaps)
    assert all(b > a for a, b in zip(gaps, gaps[1:]))
