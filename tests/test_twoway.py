"""Exchange protocol: encoding, relay decode, recovery, full sessions."""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from twinrelay.errors import ValidationError
from twinrelay.harness import ExperimentSpec, run_trials
from twinrelay.lattice import (
    dither,
    encode_message,
    make_pair,
    mod_units_exact,
    modulo_sum,
)
from twinrelay.rng import TAG_DITHER, derive_seed, generator
from twinrelay.twoway import (
    LATTICE_ERROR_KEYS,
    BroadcastMode,
    ChannelParams,
    _session_core,
    draw_sessions,
    encode_node,
    recover_at_node,
    relay_decode_sum,
    run_session,
    session_rows,
    sigma2_eq_of_alpha,
)

NOISELESS = ChannelParams(power=1.0, sigma2=0.0)


def test_channel_params_closed_forms():
    ch = ChannelParams(power=1.0, sigma2=1.0)
    assert ch.alpha(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ch.sigma2_eq == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ch.snr == 1.0


def test_channel_params_invariants():
    for snr_db in (-10.0, 0.0, 17.0):
        ch = ChannelParams.from_snr_db(snr_db)
        assert 0.0 < ch.alpha(2) < 1.0
        assert ch.sigma2_eq < ch.sigma2
        assert ch.sigma2_eq < 2.0 * ch.power
    assert ChannelParams.from_snr_db(None).alpha(2) == 1.0


def test_channel_params_validation():
    with pytest.raises(ValidationError):
        ChannelParams(power=0.0, sigma2=1.0)
    with pytest.raises(ValidationError):
        ChannelParams(power=1.0, sigma2=-0.1)
    for snr_db in (4000.0, -4000.0):  # 10**(snr_db/10) overflows or underflows
        with pytest.raises(ValidationError, match="float range"):
            ChannelParams.from_snr_db(snr_db)


def test_mmse_grid_never_beats_alpha_opt():
    ch = ChannelParams(power=1.3, sigma2=0.4)
    best = sigma2_eq_of_alpha(ch.alpha(2), ch)
    alphas = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    values = alphas ** 2 * ch.sigma2 + (1 - alphas) ** 2 * 2 * ch.power
    assert values.min() >= best - 1e-9
    assert best == pytest.approx(ch.sigma2_eq, abs=1e-15)


def test_encode_node_examples():
    pair = make_pair(n=1, q=4, k=1, power=16.0 / 12.0)  # gamma = 1
    assert encode_node(0, np.zeros(1), pair)[0] == 0.0
    assert encode_node(1, encode_message(1, pair).copy(), pair)[0] == 0.0
    assert encode_node(1, np.array([1.6]), pair)[0] == pytest.approx(-0.6, abs=1e-12)


def test_relay_decode_noiseless_collapses_to_modulo_sum():
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    d1 = dither(generator(11), pair.coarse)
    d2 = dither(generator(12), pair.coarse)
    for ua in range(pair.size):
        for ub in range(pair.size):
            y = encode_node(ua, d1, pair) + encode_node(ub, d2, pair)
            assert relay_decode_sum(y, (d1, d2), NOISELESS, pair) == modulo_sum(ua, ub, pair)


def test_relay_sees_only_the_sum():
    # same dithers, same modulo sum, zero noise -> bit-identical decode input
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    d1 = dither(generator(21), pair.coarse)
    d2 = dither(generator(22), pair.coarse)
    by_sum = {}
    for ua in range(pair.size):
        for ub in range(pair.size):
            s = modulo_sum(ua, ub, pair)
            y = encode_node(ua, d1, pair) + encode_node(ub, d2, pair)
            decoded = relay_decode_sum(y, (d1, d2), NOISELESS, pair)
            by_sum.setdefault(s, set()).add(decoded)
    for sum_index, decodes in by_sum.items():
        assert decodes == {sum_index}


def test_algebraic_collapse_exact_rational():
    # (x1 + x2 + d1 + d2) mod coarse == (t1 + t2) mod coarse with Fractions
    q = 5
    rng = np.random.default_rng(3)
    units = np.arange(q)  # uncoded 1-D codebook in gamma units, pre-fold
    for _ in range(200):
        t1 = [Fraction(int(rng.integers(q)))]
        t2 = [Fraction(int(rng.integers(q)))]
        d1 = [Fraction(int(rng.integers(-1000, 1000)), 256)]
        d2 = [Fraction(int(rng.integers(-1000, 1000)), 256)]
        x1 = mod_units_exact([t1[0] - d1[0]], q)
        x2 = mod_units_exact([t2[0] - d2[0]], q)
        lhs = mod_units_exact([x1[0] + x2[0] + d1[0] + d2[0]], q)
        rhs = mod_units_exact([t1[0] + t2[0]], q)
        assert lhs == rhs
    assert units.shape == (q,)


def test_recover_at_node_examples():
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    assert recover_at_node(3, 0, pair) == 3
    assert recover_at_node(3, 3, pair) == 0
    assert recover_at_node(1, 3, pair) == 3  # 1 - 3 = -2 folds to 3


def test_recover_inverts_modulo_sum_exhaustive():
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    for a in range(pair.size):
        for b in range(pair.size):
            s = modulo_sum(a, b, pair)
            assert recover_at_node(s, a, pair) == b
            assert recover_at_node(s, b, pair) == a


@pytest.mark.parametrize("mode", [BroadcastMode.INDEX_FORWARD_IDEAL,
                                  BroadcastMode.DIRECT_LATTICE_RELAY])
def test_noiseless_session_exhaustive(mode):
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    for ua in range(pair.size):
        for ub in range(pair.size):
            tr = run_session(ua, ub, NOISELESS, pair, mode=mode, seed=5)
            assert not tr.relay_error
            assert not tr.error
            assert tr.u_b_hat_at_a == ub and tr.u_a_hat_at_b == ua


def test_session_transcript_shape():
    pair = make_pair(n=2, q=4, k=1, power=1.0)
    tr = run_session(1, 2, ChannelParams.from_snr_db(25.0), pair, seed=9)
    half = pair.coarse.cell / 2
    for x in (tr.x1, tr.x2):
        assert np.all(x >= -half) and np.all(x < half)
    assert isinstance(tr.relay_decoded, int) and 0 <= tr.relay_decoded < pair.size
    # dithers come from the streams derive_seed(seed, session, TAG_DITHER, node)
    for node, d in ((1, tr.d1), (2, tr.d2)):
        want = dither(generator(derive_seed(9, 0, TAG_DITHER, node)), pair.coarse)
        assert np.array_equal(d, want)
    assert not np.array_equal(tr.d1, tr.d2)


def test_session_determinism():
    pair = make_pair(n=2, q=4, k=1, power=1.0)
    a = run_session(1, 3, ChannelParams.from_snr_db(6.0), pair, seed=42)
    b = run_session(1, 3, ChannelParams.from_snr_db(6.0), pair, seed=42)
    assert np.array_equal(a.y_relay, b.y_relay)
    assert a.relay_decoded == b.relay_decoded


def test_index_forward_fails_above_capacity():
    # rate 2 bits/dim with capacity ~0.5 -> guaranteed-failure flag
    pair = make_pair(n=1, q=4, k=1, power=1.0)
    tr = run_session(0, 0, ChannelParams.from_snr_db(0.0), pair,
                     mode=BroadcastMode.INDEX_FORWARD_IDEAL, seed=1)
    assert pair.rate > 0.5 * np.log2(2.0)
    assert tr.broadcast_failed and tr.error


def test_relay_error_rate_matches_wrapped_noise_oracle():
    params = {"n": 1, "q": 4, "k": 1, "snr_db": 16.0, "power": 1.0, "mode": "index"}
    spec = ExperimentSpec("lattice", params, LATTICE_ERROR_KEYS)
    report = run_trials(spec, trials=40_000, master_seed=3)
    p_oracle = oracles.relay_symbol_error_oracle(q=4, power=1.0, snr_db=16.0)
    assert abs(report.rate("relay_error") - p_oracle) < oracles.three_sigma(p_oracle, report.trials)


def test_relay_error_monotone_in_snr():
    grid = [6.0, 9.0, 12.0, 15.0, 18.0]
    rates, halves = [], []
    for snr_db in grid:
        spec = ExperimentSpec(
            "lattice",
            {"n": 1, "q": 4, "k": 1, "snr_db": snr_db, "power": 1.0, "mode": "index"},
            LATTICE_ERROR_KEYS,
        )
        report = run_trials(spec, trials=20_000, master_seed=17)
        lo, hi = report.interval("relay_error")
        rates.append(report.rate("relay_error"))
        halves.append((hi - lo) / 2)
    for i in range(len(grid) - 1):
        assert rates[i + 1] <= rates[i] + halves[i] + halves[i + 1]


def test_negative_control_rate_above_capacity():
    # rate 2 bits/dim at snr 0 dB: block error grows toward 1 with n
    errs = []
    for n in (2, 4, 8):
        spec = ExperimentSpec(
            "lattice",
            {"n": n, "q": 4, "k": n, "snr_db": 0.0, "power": 1.0, "mode": "index"},
            LATTICE_ERROR_KEYS,
        )
        report = run_trials(spec, trials=4000, master_seed=23)
        errs.append(report.rate("relay_error"))
    assert errs[0] > 0.3
    assert errs[-1] > errs[0]


def test_random_pairs_large_codebook_noiseless():
    pair = make_pair(n=4, q=16, k=2, power=1.0)
    rng = np.random.default_rng(77)
    for _ in range(200):
        ua, ub = int(rng.integers(pair.size)), int(rng.integers(pair.size))
        tr = run_session(ua, ub, NOISELESS, pair, seed=13)
        assert not tr.error


EXT_HAMMING_8_4 = [[1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
                   [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]]


def _golay_24_12():
    """Extended Golay code: cyclic shifts of g(x) in length 23 plus a parity bit."""
    poly = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    rows = []
    for shift in range(12):
        row = [0] * 23
        row[shift:shift + 12] = poly
        rows.append(row + [sum(row) % 2])
    return rows


class _ReplayNoise:
    """Stands in for the noise stream of `_session_core`: hands out the
    block's pre-drawn noise rows in call order (relay, then each downlink)."""

    def __init__(self, *rows):
        self._rows = iter(row for row in rows if row is not None)

    def normal(self, loc, scale, size):
        row = next(self._rows)
        assert loc == 0.0 and row.shape == (size,)
        return row


REPLAY_CASES = {
    # id: (pair arguments, snr_db, mode, rows, errors of both kinds expected)
    "full-n1-q4-index": (dict(n=1, q=4, k=1), 14.0, "index", 400, True),
    "full-n2-q4-index-over-capacity": (dict(n=2, q=4, k=2), 8.0, "index", 100, False),
    "full-n2-q4-direct": (dict(n=2, q=4, k=2), 10.0, "direct", 400, True),
    "hamming-8-4-index": (dict(n=8, q=2, k=4, generator_matrix=EXT_HAMMING_8_4), 3.0,
                          "index", 400, True),
    "hamming-8-4-direct": (dict(n=8, q=2, k=4, generator_matrix=EXT_HAMMING_8_4), 3.0,
                           "direct", 400, True),
    "golay-24-12-direct": (dict(n=24, q=2, k=12, generator_matrix=_golay_24_12()), 4.5,
                           "direct", 60, True),
    "noiseless-full-n1-q16-direct": (dict(n=1, q=16, k=1), None, "direct", 200, False),
    "noiseless-n4-q16-direct": (dict(n=4, q=16, k=2), None, "direct", 200, False),
    "noiseless-n4-q16-index": (dict(n=4, q=16, k=2), None, "index", 200, False),
}


@pytest.mark.parametrize("pair_args,snr_db,mode,count,noisy", REPLAY_CASES.values(),
                         ids=REPLAY_CASES.keys())
def test_session_rows_replay_scalar_reference(pair_args, snr_db, mode, count, noisy):
    # each row of the block kernel is `_session_core` on the same draws
    pair = make_pair(power=1.0, **pair_args)
    ch = ChannelParams.from_snr_db(snr_db)
    mode = BroadcastMode(mode)
    draws = draw_sessions(generator(41, count), count, ch, pair, mode)
    rows = session_rows(draws, ch, pair, mode)
    for i in range(count):
        tr = _session_core(
            int(draws.u_a[i]), int(draws.u_b[i]), ch, pair, mode, draws.d1[i], draws.d2[i],
            _ReplayNoise(*(z if z is None else z[i]
                           for z in (draws.z_relay, draws.z_a, draws.z_b))))
        assert rows["relay_error"][i] == tr.relay_error, f"row {i}"
        assert rows["end_error"][i] == tr.error, f"row {i}"
        assert rows["union_error"][i] == (tr.relay_error or tr.error), f"row {i}"
    if noisy:
        assert 0 < np.count_nonzero(rows["relay_error"]) < count
        assert 0 < np.count_nonzero(rows["end_error"]) < count
    if snr_db is None:
        assert not rows["relay_error"].any() and not rows["end_error"].any()
