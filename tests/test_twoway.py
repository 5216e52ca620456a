"""Exchange protocol: encoding, relay decode, recovery, full sessions."""

from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import session_row
from twinrelay import twoway
from twinrelay.errors import GuardExceededError, ValidationError
from twinrelay.canonical import BLOCK
from twinrelay.harness import ExperimentSpec, run_trials
from twinrelay.lattice import (
    ONE_HOT_GUARD,
    CoarseLattice,
    dither,
    encode_message,
    make_pair,
    modulo_sum,
)
from twinrelay.rng import TAG_TRIAL, generator
from twinrelay.twoway import (
    LATTICE_ERROR_KEYS,
    ChannelParams,
    draw_sessions,
    encode_node,
    pair_from_params,
    recover_at_node,
    relay_decode_sum,
    session_rows,
)

NOISELESS = ChannelParams(power=1.0, sigma2=0.0)


def _session_draws(u_a, u_b, params, pair, mode, seed):
    """One block drawn from generator(seed), its message rows set to u_a, u_b."""
    draws = draw_sessions(generator(seed), len(u_a), params, pair, mode)
    draws.u[:] = u_a, u_b
    return draws


def _one_session(u_a, u_b, params, pair, mode="index", seed=0):
    """`session_row` on a one-row block whose messages are u_a, u_b."""
    return session_row(_session_draws([u_a], [u_b], params, pair, mode, seed), 0,
                       params, pair, mode)


@pytest.mark.parametrize("count", [37, 40], ids=["odd", "even"])
@pytest.mark.parametrize("mode", ["index", "direct"])
@pytest.mark.parametrize("snr_db", [6.0, None], ids=["noisy", "noiseless"])
def test_draw_sessions_matches_per_node_draws(count, mode, snr_db):
    # each (2, ...) draw over both nodes takes from the stream exactly what
    # one draw per node, node a first, takes in the order u_a, u_b, d1, d2,
    # z_relay, z_a, z_b; an odd count leaves node a's last 32-bit half of
    # the integer draw for node b's first message
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    ch = ChannelParams.from_snr_db(snr_db)
    draws = draw_sessions(generator(29, count), count, ch, pair, mode)
    rng, n, half = generator(29, count), pair.n, pair.coarse.cell / 2
    u_a, u_b = (rng.integers(pair.size, size=count) for _ in range(2))
    d1, d2 = (rng.uniform(-half, half, size=(count, n)) for _ in range(2))
    assert np.array_equal(draws.u, [u_a, u_b]) and np.array_equal(draws.d, [d1, d2])
    assert draws.u.shape == (2, count) and draws.d.shape == (2, count, n)
    if snr_db is None:
        assert draws.z_relay is None and draws.z_down is None
        return
    sigma = np.sqrt(ch.sigma2)
    assert np.array_equal(draws.z_relay, rng.normal(0.0, sigma, size=(count, n)))
    if mode == "index":
        assert draws.z_down is None
    else:
        z_a, z_b = (rng.normal(0.0, sigma, size=(count, n)) for _ in range(2))
        assert np.array_equal(draws.z_down, [z_a, z_b])


def test_channel_params_closed_forms():
    ch = ChannelParams(power=1.0, sigma2=1.0)
    assert ch.alpha(2) == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert ch.snr == 1.0


def test_channel_params_invariants():
    for snr_db in (-10.0, 0.0, 17.0):
        ch = ChannelParams.from_snr_db(snr_db)
        assert 0.0 < ch.alpha(2) < 1.0
    assert ChannelParams.from_snr_db(None).alpha(2) == 1.0


def test_channel_params_validation():
    with pytest.raises(ValidationError):
        ChannelParams(power=0.0, sigma2=1.0)
    with pytest.raises(ValidationError):
        ChannelParams(power=1.0, sigma2=-0.1)
    for snr_db in (4000.0, -4000.0):  # 10**(snr_db/10) overflows or underflows
        with pytest.raises(ValidationError, match="float range"):
            ChannelParams.from_snr_db(snr_db)
    for power, sigma2 in ((float("nan"), 1.0), (float("inf"), 1.0), (1.0, float("nan")),
                          (1.0, float("inf"))):
        with pytest.raises(ValidationError, match="finite"):
            ChannelParams(power=power, sigma2=sigma2)
    for power in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            CoarseLattice.for_power(1, 4, power)


@pytest.mark.parametrize("snr_db,power", [(float("nan"), 1.0), (12.0, float("inf"))])
def test_lattice_run_refuses_non_finite_channel_before_any_draw(monkeypatch, snr_db, power):
    def no_draw(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(twoway, "draw_sessions", no_draw)
    params = {"n": 1, "q": 4, "k": 1, "snr_db": snr_db, "power": power, "mode": "index"}
    with pytest.raises(ValidationError, match="finite"):
        run_trials(ExperimentSpec("lattice", params, LATTICE_ERROR_KEYS),
                   trials=100, master_seed=0)


@pytest.mark.parametrize("experiment", ["lattice", "anc-power"])
def test_block_guard_counts_both_nodes_before_any_draw(experiment):
    # count*n = 40,960,000 <= 2**26 < 2*count*n: the (2, count, n) draws of
    # both nodes would pass ONE_HOT_GUARD, so the block is refused untouched
    count, n = 4096, 10_000
    assert count * n <= ONE_HOT_GUARD < 2 * count * n
    params = {"n": n, "q": 2, "k": 1, "snr_db": 3.0, "power": 1.0, "sigma2": 0.5,
              "mode": "direct"}
    kernel = twoway.lattice_kernel if experiment == "lattice" else twoway.anc_power_kernel

    class NoDraw:
        def __getattr__(self, name):
            raise AssertionError("a block was drawn")

    with pytest.raises(GuardExceededError, match=f"{experiment} block exceeds"):
        kernel(params, NoDraw(), count)


@pytest.mark.parametrize("mode", ["Index", "ideal", None])
def test_lattice_kernel_refuses_an_unknown_broadcast_mode(monkeypatch, mode):
    def no_draw(*args):
        raise AssertionError("a block was drawn")

    monkeypatch.setattr(twoway, "draw_sessions", no_draw)
    params = {"n": 1, "q": 4, "k": 1, "snr_db": 12.0, "power": 1.0, "mode": mode}
    with pytest.raises(ValidationError, match="broadcast mode must be 'index' or 'direct'"):
        run_trials(ExperimentSpec("lattice", params, LATTICE_ERROR_KEYS),
                   trials=100, master_seed=0)


def test_mmse_grid_never_beats_alpha_opt():
    # equivalent noise alpha^2*sigma2 + (1-alpha)^2*2P: alpha(2) minimises
    # it, to the closed form 2*P*sigma2/(2P + sigma2)
    ch = ChannelParams(power=1.3, sigma2=0.4)
    alphas = np.arange(0.0, 1.0 + 1e-12, 1e-4)
    values = alphas ** 2 * ch.sigma2 + (1 - alphas) ** 2 * 2 * ch.power
    best = ch.alpha(2) ** 2 * ch.sigma2 + (1 - ch.alpha(2)) ** 2 * 2 * ch.power
    assert values.min() >= best - 1e-9
    assert best == pytest.approx(2 * ch.power * ch.sigma2 / (2 * ch.power + ch.sigma2),
                                 abs=1e-15)


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
        x1 = oracles.mod_units_exact([t1[0] - d1[0]], q)
        x2 = oracles.mod_units_exact([t2[0] - d2[0]], q)
        lhs = oracles.mod_units_exact([x1[0] + x2[0] + d1[0] + d2[0]], q)
        rhs = oracles.mod_units_exact([t1[0] + t2[0]], q)
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


@pytest.mark.parametrize("mode", ["index", "direct"])
def test_noiseless_session_exhaustive(mode):
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    u_a, u_b = np.divmod(np.arange(pair.size ** 2), pair.size)
    draws = _session_draws(u_a, u_b, NOISELESS, pair, mode, seed=5)
    for i in range(pair.size ** 2):
        tr = session_row(draws, i, NOISELESS, pair, mode)
        assert not tr.relay_error
        assert not tr.error
        assert tr.u_b_hat_at_a == u_b[i] and tr.u_a_hat_at_b == u_a[i]


def test_session_transcript_shape():
    pair = make_pair(n=2, q=4, k=1, power=1.0)
    tr = _one_session(1, 2, ChannelParams.from_snr_db(25.0), pair, seed=9)
    half = pair.coarse.cell / 2
    for x in (tr.x1, tr.x2):
        assert np.all(x >= -half) and np.all(x < half)
    assert isinstance(tr.relay_decoded, int) and 0 <= tr.relay_decoded < pair.size
    assert not np.array_equal(tr.d1, tr.d2)


def test_session_determinism():
    pair = make_pair(n=2, q=4, k=1, power=1.0)
    # the same draws give the same transcript
    a = _one_session(1, 3, ChannelParams.from_snr_db(6.0), pair, seed=42)
    b = _one_session(1, 3, ChannelParams.from_snr_db(6.0), pair, seed=42)
    assert np.array_equal(a.y_relay, b.y_relay)
    assert a.relay_decoded == b.relay_decoded


def test_index_forward_fails_above_capacity():
    # rate 2 bits/dim with capacity ~0.5 -> guaranteed-failure flag
    pair = make_pair(n=1, q=4, k=1, power=1.0)
    tr = _one_session(0, 0, ChannelParams.from_snr_db(0.0), pair, seed=1)
    assert pair.rate > 0.5 * np.log2(2.0)
    assert tr.broadcast_failed and tr.error


def test_index_forward_rule_is_strict_at_capacity():
    # snr 15 gives capacity (1/2) log2(16) = 2.0 exactly, the rate of the
    # pair, and the rule is rate < capacity; a little less noise clears it
    pair = make_pair(n=1, q=4, k=1, power=15.0)
    assert pair.rate == 2.0
    at = _one_session(0, 0, ChannelParams(power=15.0, sigma2=1.0), pair, seed=1)
    assert at.broadcast_failed
    below = _one_session(0, 0, ChannelParams(power=15.0, sigma2=0.99), pair, seed=1)
    assert not below.broadcast_failed


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
        rates.append(report.rate("relay_error"))
        halves.append((report.ci_high - report.ci_low) / 2)
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
    u_a, u_b = rng.integers(pair.size, size=(2, 200))
    draws = _session_draws(u_a, u_b, NOISELESS, pair, "index", seed=13)
    for i in range(200):
        assert not session_row(draws, i, NOISELESS, pair, "index").error


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
    # each row of the block kernel is `session_row` on the same draws
    pair = make_pair(power=1.0, **pair_args)
    ch = ChannelParams.from_snr_db(snr_db)
    draws = draw_sessions(generator(41, count), count, ch, pair, mode)
    rows = session_rows(draws, ch, pair, mode)
    for i in range(count):
        tr = session_row(draws, i, ch, pair, mode)
        assert rows["relay_error"][i] == tr.relay_error, f"row {i}"
        assert rows["end_error"][i] == tr.error, f"row {i}"
        assert rows["union_error"][i] == (tr.relay_error or tr.error), f"row {i}"
    if noisy:
        assert 0 < np.count_nonzero(rows["relay_error"]) < count
        assert 0 < np.count_nonzero(rows["end_error"]) < count
    if snr_db is None:
        assert not rows["relay_error"].any() and not rows["end_error"].any()


@pytest.mark.parametrize("snr_db", [3.0, None], ids=["noisy", "noiseless"])
def test_direct_block_makes_two_quantizer_calls(monkeypatch, snr_db):
    # the relay's decode, then both nodes' downlinks as one stacked
    # (2, count, n) decode, or, when noiseless, one decode that serves both
    pair = make_pair(n=8, q=2, k=4, power=1.0, generator_matrix=EXT_HAMMING_8_4)
    ch = ChannelParams.from_snr_db(snr_db)
    mode = "direct"
    draws = draw_sessions(generator(43), 100, ch, pair, mode)
    shapes, quantize = [], twoway.quantize_fine

    def spy(x, pair):
        shapes.append(np.shape(x))
        return quantize(x, pair)

    monkeypatch.setattr(twoway, "quantize_fine", spy)
    session_rows(draws, ch, pair, mode)
    assert shapes == [(100, 8), (100, 8) if snr_db is None else (2, 100, 8)]


def test_report_trials_replay_through_session_row_across_blocks():
    # trial t of a report is row t % BLOCK of the block t // BLOCK drawn from
    # (seed, TAG_TRIAL, t // BLOCK); the full n=1 code in direct mode at
    # 12 dB reads every noise row, the downlink ones included
    params = {"n": 1, "q": 4, "k": 1, "snr_db": 12.0, "power": 1.0, "mode": "direct"}
    report = run_trials(ExperimentSpec("lattice", params, LATTICE_ERROR_KEYS),
                        trials=BLOCK + 37, master_seed=7)
    pair, ch = pair_from_params(params), ChannelParams.from_snr_db(12.0)
    mode = "direct"
    want = dict.fromkeys(LATTICE_ERROR_KEYS, 0)
    for b, count in enumerate((BLOCK, 37)):
        draws = draw_sessions(generator(7, TAG_TRIAL, b), count, ch, pair, mode)
        for i in range(count):
            tr = session_row(draws, i, ch, pair, mode)
            want["relay_error"] += tr.relay_error
            want["end_error"] += tr.error
            want["union_error"] += tr.relay_error or tr.error
    assert report.counts == want
    assert 0 < want["relay_error"] < want["end_error"] < BLOCK


def test_pair_from_params_keys_generator_by_value():
    # the same generator as a list of lists and as an int64 array hits one
    # cache entry, so both return the same pair object
    rows = [[1, 0, 1, 1], [0, 1, 1, 0]]
    params = {"n": 4, "q": 2, "k": 2, "power": 1.0}
    as_lists = pair_from_params({**params, "generator": rows})
    as_array = pair_from_params({**params, "generator": np.asarray(rows, dtype=np.int64)})
    assert as_array is as_lists
    assert np.array_equal(as_lists.generator_matrix, rows)
