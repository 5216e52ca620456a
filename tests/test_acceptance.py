"""Acceptance suite: one test per exit criterion, printing a line each.

Heavy Monte Carlo reports are produced once (single worker) in a
module-scoped fixture; the determinism criterion reruns each of them on
eight workers and byte-compares the canonical JSON.
"""

import json
import math
import os
from itertools import product

import numpy as np
import pytest

import oracles
from twinrelay.bsc import BSC_ERROR_KEYS
from twinrelay.harness import ExperimentSpec, run_trials
from twinrelay.lattice import centered_units, make_pair
from twinrelay.minangle import MINANGLE_ERROR_KEYS
from twinrelay.multihop import build_schedule, table_json
from twinrelay.rates import (
    crossover_window,
    envelope,
    rate_anc,
    rate_joint_decoding,
    rate_lattice,
    rate_upper,
)
from twinrelay.rng import generator
from twinrelay.twoway import (
    LATTICE_ERROR_KEYS,
    ChannelParams,
    draw_sessions,
    session_row,
)

TABLE1 = os.path.join(
    os.path.dirname(__file__), "..", "src", "twinrelay", "data", "table1.json"
)

# Rate-1/2 binary family: repetition, best [4,2], extended Hamming [8,4,4].
REP_2_1 = [[1, 1]]
CODE_4_2 = [[1, 1, 1, 0], [1, 0, 1, 1]]
EXT_HAMMING_8_4 = [
    [1, 0, 0, 0, 0, 1, 1, 1],
    [0, 1, 0, 0, 1, 0, 1, 1],
    [0, 0, 1, 0, 1, 1, 0, 1],
    [0, 0, 0, 1, 1, 1, 1, 0],
]

MINANGLE_SIGMA2 = 2.0 / 10 ** 1.5  # P = 2 at 15 dB
MINANGLE_PARAMS = {"n": 3, "gamma": 1.0, "power": 2.0,
                   "sigma2": MINANGLE_SIGMA2, "delta": 1.5}


def _lattice_spec(n, q, k, snr_db, gen=None):
    params = {"n": n, "q": q, "k": k, "snr_db": snr_db, "power": 1.0, "mode": "index"}
    if gen is not None:
        params["generator"] = gen
    return ExperimentSpec("lattice", params, LATTICE_ERROR_KEYS)


SHARED_RUNS = {
    "c5_random_pairs": (_lattice_spec(4, 16, 2, None), 1000, 1605),
    "c6_snr12": (_lattice_spec(1, 4, 1, 12.0), 100_000, 1612),
    "c6_snr16": (_lattice_spec(1, 4, 1, 16.0), 100_000, 1616),
    "c6_snr20": (_lattice_spec(1, 4, 1, 20.0), 100_000, 1620),
    "c7_r05_n2": (_lattice_spec(2, 2, 1, 10.0, REP_2_1), 200_000, 1702),
    "c7_r05_n4": (_lattice_spec(4, 2, 2, 10.0, CODE_4_2), 200_000, 1704),
    "c7_r05_n8": (_lattice_spec(8, 2, 4, 10.0, EXT_HAMMING_8_4), 200_000, 1708),
    "c7_r20_n2": (_lattice_spec(2, 4, 2, 10.0), 50_000, 1712),
    "c7_r20_n4": (_lattice_spec(4, 4, 4, 10.0), 50_000, 1714),
    "c7_r20_n8": (_lattice_spec(8, 4, 8, 10.0), 50_000, 1718),
    "c8_bsc": (ExperimentSpec("bsc", {"p": 0.01, "code": "hamming74"},
                              BSC_ERROR_KEYS), 100_000, 1800),
    "c11_n8": (ExperimentSpec("concentration",
                              {"n": 8, "power": 1.0, "delta": 0.1, "batch": 1000},
                              ()), 1000, 2108),
    "c11_n64": (ExperimentSpec("concentration",
                               {"n": 64, "power": 1.0, "delta": 0.1, "batch": 1000},
                               ()), 1000, 2164),
    "c12_minangle": (ExperimentSpec("minangle", MINANGLE_PARAMS,
                                    MINANGLE_ERROR_KEYS), 20_000, 2200),
}


@pytest.fixture(scope="module")
def shared_reports():
    return {
        name: run_trials(spec, trials=trials, master_seed=seed, workers=1)
        for name, (spec, trials, seed) in SHARED_RUNS.items()
    }


def _sep(p, n):
    return 3.0 * math.sqrt(max(p * (1.0 - p), 1e-12) / n)


def _construction_a_profile(gen):
    """Minimum Hamming weight of a binary code and the minimal vectors of
    its Construction-A lattice C + 2Z^n in gamma units, both by enumeration."""
    gen = np.asarray(gen)
    k, n = gen.shape
    words = np.array(list(product((0, 1), repeat=k))) @ gen % 2
    d_min = int(words[1:].sum(axis=1).min())
    # 2e_i has norm 4, so every minimal vector lies in the box {-2..2}^n
    box = np.array(list(product(range(-2, 3), repeat=n)))
    in_lattice = (box % 2 == words[:, None, :]).all(axis=2).any(axis=0)
    points = box[in_lattice & box.any(axis=1)]
    norms = (points ** 2).sum(axis=1)
    return d_min, points[norms == norms.min()]


def test_criterion_01_closed_form_rates():
    checks = [
        ("upper", rate_upper(10.0), oracles.rate_upper_hp(10)),
        ("lattice", rate_lattice(10.0), oracles.rate_lattice_hp(10)),
        ("jd", rate_joint_decoding(10.0), oracles.rate_jd_hp(10)),
        ("anc", rate_anc(10.0), oracles.rate_anc_hp(10)),
    ]
    for name, got, want in checks:
        assert abs(got - want) < 1e-9, f"{name}: {got!r} vs {want!r}"
    detail = ", ".join(f"{name}={got:.9f}" for name, got, _ in checks)
    print(f"criterion 01 closed-form rates at snr=10: PASS ({detail})")


def test_criterion_02_crossover_window():
    lo, hi = crossover_window()
    assert lo == pytest.approx(-0.659, abs=0.01)
    assert hi == pytest.approx(3.46, abs=0.01)
    print(f"criterion 02 time-share window: PASS ({lo:.4f} dB, {hi:.4f} dB)")


def test_criterion_03_envelope_dominates_anc():
    worst = math.inf
    for db in np.arange(-20.0, 40.0 + 1e-9, 0.05):
        snr = 10 ** (db / 10)
        margin = envelope(snr)[0] - rate_anc(snr)
        worst = min(worst, margin)
        assert margin >= -1e-12, f"envelope below amplify-forward at {db:.2f} dB"
    print(f"criterion 03 envelope >= amplify-forward on [-20,40] dB: PASS "
          f"(min margin {worst:.3e} bits)")


def test_criterion_04_mod_sum_uniformity():
    combos = [
        (q, k, n)
        for q, k, n in product((2, 3, 5, 7), (1, 2), (1, 2, 3))
        if k <= n and q ** k <= 1024
    ]
    for q, k, n in combos:
        pair = make_pair(n=n, q=q, k=k, power=1.0)
        counts = np.zeros(pair.size, dtype=np.int64)
        for a in range(pair.size):
            sums = centered_units(pair.codebook_units[a][None, :] + pair.codebook_units, q)
            for row in sums:
                counts[oracles.index_of_units(pair, row)] += 1
        assert np.all(counts == pair.size), f"nonuniform mod-sum at q={q} k={k} n={n}"
    print(f"criterion 04 exact mod-sum uniformity: PASS ({len(combos)} codebooks, "
          "zero tolerance)")


def test_criterion_05_noiseless_end_to_end(shared_reports):
    # 25-word codebook over two dimensions: all 625 ordered message pairs
    pair = make_pair(n=2, q=5, k=2, power=1.0)
    assert pair.size ** 2 == 625
    noiseless = ChannelParams(power=1.0, sigma2=0.0)
    mode = "index"
    draws = draw_sessions(generator(1605), 625, noiseless, pair, mode)
    draws.u_a[:], draws.u_b[:] = np.divmod(np.arange(625), pair.size)
    for i in range(625):
        tr = session_row(draws, i, noiseless, pair, mode)
        assert not tr.error and not tr.relay_error
    rep = shared_reports["c5_random_pairs"]
    assert rep.trials == 1000
    assert rep.counts["end_error"] == 0
    assert rep.counts["relay_error"] == 0
    print("criterion 05 noiseless exchange: PASS (625 exhaustive pairs at q=5,n=2; "
          "1000 random pairs at q=16,k=2,n=4; zero errors)")


def test_criterion_06_relay_error_vs_oracle(shared_reports):
    details = []
    for snr_db, key in ((12.0, "c6_snr12"), (16.0, "c6_snr16"), (20.0, "c6_snr20")):
        rep = shared_reports[key]
        p_hat = rep.rate("relay_error")
        p_true = oracles.relay_symbol_error_oracle(q=4, power=1.0, snr_db=snr_db)
        bound = oracles.three_sigma(p_true, rep.trials)
        assert abs(p_hat - p_true) < bound, (
            f"snr {snr_db} dB: simulated {p_hat:.6f} vs oracle {p_true:.6f} "
            f"(3-sigma {bound:.6f})"
        )
        details.append(f"{snr_db:.0f}dB {p_hat:.5f}~{p_true:.5f}")
    print(f"criterion 06 relay error matches folded-noise oracle: PASS ({'; '.join(details)})")


def test_criterion_07_threshold_direction(shared_reports):
    # above-capacity control: rate 2 bits/dim never drops below 10% block error
    high = [shared_reports[k].rate("relay_error")
            for k in ("c7_r20_n2", "c7_r20_n4", "c7_r20_n8")]
    assert all(p > 0.10 for p in high), f"above-capacity rates {high}"

    # below-capacity family: rate 1/2 bit/dim over n = 2, 4, 8
    low = {n: (shared_reports[k].rate("relay_error"), shared_reports[k].trials)
           for n, k in ((2, "c7_r05_n2"), (4, "c7_r05_n4"), (8, "c7_r05_n8"))}
    detail = ", ".join(f"n={n}: {p:.3e}" for n, (p, _) in low.items())

    def separated_below(n_b, n_a):
        (p_a, t_a), (p_b, t_b) = low[n_a], low[n_b]
        return p_a - _sep(p_a, t_a) > p_b + _sep(p_b, t_b)

    for n in (2, 4):
        assert separated_below(8, n), (
            f"n=8 ({low[8][0]:.3e}) is not separated below n={n} ({low[n][0]:.3e}); "
            f"measured family: {detail}"
        )

    # The 2 -> 4 step cannot decrease. Both codes have minimum weight 2 and
    # kissing number 4, and the [4,2] lattice's minimal vectors are the n=2
    # ones placed on the support of its weight-2 codeword. Those four vectors
    # alone cut out the n=2 Voronoi cell, so the n=4 cell lies inside the n=2
    # cell on that support; with i.i.d. effective noise, P_e(4) >= P_e(2).
    d2, min2 = _construction_a_profile(REP_2_1)
    d4, min4 = _construction_a_profile(CODE_4_2)
    assert (d2, len(min2)) == (d4, len(min4)) == (2, 4), (
        f"premise: min weight/kissing number {d2}/{len(min2)} at n=2, "
        f"{d4}/{len(min4)} at n=4"
    )
    support = np.flatnonzero(min4.any(axis=0))
    assert {tuple(v) for v in min4[:, support]} == {tuple(v) for v in min2}, (
        f"premise: n=4 minimal vectors {min4.tolist()} are not the n=2 ones on one support"
    )
    assert not separated_below(4, 2), (
        f"n=4 ({low[4][0]:.3e}) is separated below n=2 ({low[2][0]:.3e}), but its "
        f"Voronoi cell lies inside the n=2 cell on coordinates {(support + 1).tolist()}, "
        f"so P_e(4) >= P_e(2); measured family: {detail}"
    )
    print(f"criterion 07 threshold direction: PASS (rate 1/2 {detail}; n=8 separated "
          f"below n=2 and n=4, 2->4 not separated as proven; above-capacity min "
          f"{min(high):.3f})")


def test_criterion_08_bsc_relay_vs_oracle(shared_reports):
    rep = shared_reports["c8_bsc"]
    p_hat = rep.rate("relay_error")
    p_true = oracles.bsc_block_error_oracle(
        np.array([[1, 0, 0, 0, 1, 1, 0], [0, 1, 0, 0, 1, 0, 1],
                  [0, 0, 1, 0, 0, 1, 1], [0, 0, 0, 1, 1, 1, 1]]), 0.01)
    assert p_true == pytest.approx(
        oracles.hamming74_block_error_closed_form(0.01), abs=1e-12)
    bound = oracles.three_sigma(p_true, rep.trials)
    assert abs(p_hat - p_true) < bound
    # exhaustive exactness at p = 0
    from twinrelay.bsc import BscParams, bsc_row, draw_bsc, hamming74

    code = hamming74()
    msgs = ((np.arange(16)[:, None] >> np.arange(4)[None, :]) & 1).astype(np.int64)
    draws = draw_bsc(generator(1801), 256, code, BscParams(0.0))
    draws.messages[:] = msgs.repeat(16, axis=0), np.tile(msgs, (16, 1))
    for i in range(256):
        out = bsc_row(draws, i, code)
        assert not out.relay_error and not out.error
    print(f"criterion 08 binary relay: PASS (sim {p_hat:.6f} vs exact {p_true:.6f}; "
          "256 noiseless pairs exact)")


def test_criterion_09_table_fidelity():
    schedule = build_schedule(3, 3)
    with open(TABLE1) as fh:
        fixture = fh.read()
    assert table_json(schedule) == fixture
    cells = json.loads(fixture)["slots"]
    assert sum(len(v) for v in cells.values()) == 30
    print("criterion 09 three-relay packet table: PASS (30/30 cells byte-identical)")


def test_criterion_10_multihop_throughput():
    details = []
    for L in range(1, 7):
        schedule = build_schedule(L, 8)
        for node in ("A", "B"):
            periods = set(schedule.steady_state_periods(node))
            assert periods == {2}, f"L={L} node {node}: periods {periods}"
        details.append(f"L={L}:first={schedule.first_decode_slot('B')}")
    print(f"criterion 10 one decode per two slots, L=1..6: PASS ({', '.join(details)})")


def test_criterion_11_shell_concentration(shared_reports):
    rows = {}
    for key in ("c11_n8", "c11_n64"):
        rep = shared_reports[key]
        samples = int(rep.counts["samples"])
        off = int(rep.counts["off_shell"])
        rows[key] = (off / samples, samples)
    p8, n8 = rows["c11_n8"]
    p64, n64 = rows["c11_n64"]
    assert n8 == n64 == 1_000_000
    assert p8 - _sep(p8, n8) > p64 + _sep(p64, n64)
    print(f"criterion 11 shell concentration: PASS (off-shell {p8:.4f} at n=8 "
          f"-> {p64:.4f} at n=64, separated)")


def test_criterion_12_min_angle_vs_ml(shared_reports):
    rep = shared_reports["c12_minangle"]
    p_angle = rep.rate("angle_error")
    p_ml = rep.rate("ml_error")
    assert p_angle >= p_ml - oracles.three_sigma(p_ml, rep.trials)
    on_shell_trials = rep.trials - int(rep.counts["off_shell"])
    p_angle_cond = rep.counts["angle_error_on_shell"] / on_shell_trials
    noiseless = run_trials(
        ExperimentSpec("minangle", {**MINANGLE_PARAMS, "sigma2": 0.0}, MINANGLE_ERROR_KEYS),
        trials=10_000, master_seed=2201)
    assert noiseless.counts["angle_error_on_shell"] == 0
    assert noiseless.counts["ml_error"] == 0
    print(f"criterion 12 angle decoder vs ML: PASS (angle {p_angle:.4f} "
          f"[on-shell {p_angle_cond:.4f}] >= ml {p_ml:.4f}; noiseless exact)")


def test_criterion_13_parallel_determinism(shared_reports):
    for name, (spec, trials, seed) in SHARED_RUNS.items():
        rerun = run_trials(spec, trials=trials, master_seed=seed, workers=8)
        assert rerun.canonical_json() == shared_reports[name].canonical_json(), (
            f"{name}: eight-worker rerun diverged from the single-worker report"
        )
    print(f"criterion 13 determinism: PASS ({len(SHARED_RUNS)} reports byte-identical "
          "on 1 and 8 workers)")
