"""Binary-channel exchange: XOR relaying with identical linear codes."""

import math
from fractions import Fraction

import numpy as np
import pytest

import oracles
from oracles import bsc_encode, bsc_exchange_rate_bound, bsc_row
from twinrelay.bsc import (
    BSC_ERROR_KEYS,
    BinaryLinearCode,
    BscParams,
    bsc_kernel,
    bsc_rows,
    draw_bsc,
    hamming74,
)
from twinrelay.errors import GuardExceededError, ValidationError
from twinrelay.canonical import BLOCK
from twinrelay.harness import ExperimentSpec, run_trials
from twinrelay.lattice import systematic_generator
from twinrelay.rng import TAG_TRIAL, generator


def all_messages(k):
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int64)


def systematic_code(n, k, seed):
    """A binary [I_k | A] code whose parity part A is drawn from generator(seed)."""
    return BinaryLinearCode(generator=systematic_generator(n, k, 2, seed=seed))


def tie_code42():
    """A [4,2] code with 4 of its 16 words equidistant from two codewords."""
    return BinaryLinearCode(generator=np.array([[1, 1, 1, 0], [1, 0, 1, 1]]))


def test_hamming74_structure():
    code = hamming74()
    assert (code.n, code.k) == (7, 4)
    # the parity check [P^T | I] of the systematic generator [I | P]
    # annihilates every codeword
    parity = code.generator[:, 4:]
    H = np.hstack([parity.T, np.eye(3, dtype=np.int64)])
    assert np.all(code.codewords @ H.T % 2 == 0)
    weights = code.codewords.sum(axis=1)
    assert sorted(set(int(w) for w in weights if w > 0))[0] == 3  # d_min = 3


def test_linearity_xor_closure():
    for code in (hamming74(), systematic_code(10, 5, seed=4)):
        seen = {row.tobytes() for row in code.codewords.astype(np.uint8)}
        for a in code.codewords:
            for b in code.codewords:
                assert ((a ^ b).astype(np.uint8)).tobytes() in seen


def test_noiseless_roundtrip_exhaustive():
    code = hamming74()
    draws = draw_bsc(generator(0), 256, code, BscParams(0.0))
    msgs = all_messages(4)
    draws.messages[:] = msgs.repeat(16, axis=0), np.tile(msgs, (16, 1))
    u_a, u_b = draws.messages
    for i in range(256):
        out = bsc_row(draws, i, code)
        assert not out.relay_error and not out.error
        assert np.array_equal(out.u_b_hat_at_a, u_b[i])
        assert np.array_equal(out.u_a_hat_at_b, u_a[i])


def test_equal_messages_decode_zero_codeword():
    code = hamming74()
    draws = draw_bsc(generator(1), 1, code, BscParams(0.0))
    draws.messages[:] = [1, 0, 1, 1]
    out = bsc_row(draws, 0, code)
    assert np.all(out.relay_decoded == 0)


def test_relay_xor_equals_single_user_with_same_noise():
    # decoding x1^x2 from y_R is exactly one single-user decode of the
    # XOR codeword: same noise stream => identical per-trial outcomes
    code = hamming74()
    p = 0.08
    for trial in range(300):
        rng_a = generator(99, trial)
        ua = rng_a.integers(0, 2, size=4)
        ub = rng_a.integers(0, 2, size=4)
        flips = (rng_a.random(7) < p).astype(np.int64)
        y_relay = bsc_encode(code, ua) ^ bsc_encode(code, ub) ^ flips
        relay_hat = code.ml_decode(y_relay)
        single_hat = code.ml_decode(bsc_encode(code, ua ^ ub) ^ flips)
        assert np.array_equal(relay_hat, single_hat)
        assert np.array_equal(relay_hat == (ua ^ ub), single_hat == (ua ^ ub))


def test_block_error_matches_exhaustive_oracle():
    p = 0.02
    p_exact = oracles.bsc_block_error_oracle(hamming74().generator, p)
    assert p_exact == pytest.approx(oracles.hamming74_block_error_closed_form(p), abs=1e-12)
    spec = ExperimentSpec("bsc", {"p": p, "code": "hamming74"}, BSC_ERROR_KEYS)
    report = run_trials(spec, trials=30_000, master_seed=5)
    assert abs(report.rate("relay_error") - p_exact) < oracles.three_sigma(p_exact, report.trials)


def test_exchange_rate_bound():
    assert bsc_exchange_rate_bound(BscParams(0.0)) == 1.0
    assert bsc_exchange_rate_bound(BscParams(0.499999)) == pytest.approx(0.0, abs=1e-4)
    want = 1.0 - oracles.binary_entropy_hp("0.11")
    assert bsc_exchange_rate_bound(BscParams(0.11)) == pytest.approx(want, abs=1e-12)
    assert bsc_exchange_rate_bound(BscParams(0.11)) == pytest.approx(0.5000840418, abs=1e-9)
    with pytest.raises(ValidationError):
        BscParams(0.5)


def test_structured_beats_random_xor_set_size():
    # a random (nonlinear) codebook of 2^k words has an XOR set far bigger
    # than the codebook itself, so the relay cannot decode to a codeword
    k, n = 4, 7
    rng = generator(31)
    hits = 0
    for _ in range(100):
        words = set()
        while len(words) < 2 ** k:
            words.add(int(rng.integers(2 ** n)))
        words = sorted(words)
        xors = {a ^ b for a in words for b in words}
        if len(xors) > 2 ** k:
            hits += 1
    assert hits >= 95


def test_linear_code_xor_set_is_itself():
    code = hamming74()
    as_int = {int("".join(map(str, row)), 2) for row in code.codewords}
    xors = {a ^ b for a in as_int for b in as_int}
    assert xors == as_int


def test_ml_guard():
    with pytest.raises(GuardExceededError):
        BinaryLinearCode(generator=np.eye(17, dtype=np.int64))


def test_trial_fn_keys():
    out = bsc_kernel({"p": 0.1, "code": "hamming74"}, generator(2), 500)
    assert set(out) == {"relay_error", "end_error", "union_error"}
    assert all(isinstance(v, int) and 0 <= v <= 500 for v in out.values())
    assert max(out["relay_error"], out["end_error"]) <= out["union_error"]


@pytest.mark.parametrize("code", [hamming74(), systematic_code(10, 5, seed=4), tie_code42()])
def test_block_rows_replay_scalar_roundtrip(code):
    # each row of the block kernel is the scalar round trip on the same draws
    params = BscParams(0.1)
    draws = draw_bsc(generator(31), 400, code, params)
    rows = bsc_rows(draws, code)
    for i in range(400):
        out = bsc_row(draws, i, code)
        assert rows["relay_error"][i] == out.relay_error
        assert rows["end_error"][i] == out.error
        assert rows["union_error"][i] == (out.relay_error or out.error)
    assert 0 < np.count_nonzero(rows["relay_error"]) < 400
    assert 0 < np.count_nonzero(rows["end_error"]) < 400


def test_ml_decode_rows_match_single_words():
    code = systematic_code(12, 6, seed=2)
    words = generator(3).integers(0, 2, size=(3, 50, 12))
    batch = code.ml_decode(words)
    assert batch.shape == (3, 50, 6)
    for idx in np.ndindex(3, 50):
        dists = np.count_nonzero(code.codewords != words[idx], axis=1)
        assert np.array_equal(batch[idx], code.messages[int(np.argmin(dists))])


@pytest.mark.parametrize("code, ties", [
    (hamming74(), 0),                                     # perfect: no ties
    (BinaryLinearCode(generator=np.array([[1, 1]])), 2),  # [2,1] repetition
    (tie_code42(), 4),
    (systematic_code(10, 5, seed=4), 544),
])
def test_word_tables_exhaustive(code, ties):
    # dec[w] is the ML message index of every packed word w, the lowest
    # index winning a tie, and cw[m] the packed codeword of message m
    cw, dec = code.word_tables
    n_bits, k_bits = 1 << np.arange(code.n), 1 << np.arange(code.k)
    assert dec.shape == (2 ** code.n,) and cw.shape == (2 ** code.k,)
    seen = 0
    for w, word in enumerate(all_messages(code.n)):
        dists = np.count_nonzero(code.codewords != word, axis=1)
        nearest = np.flatnonzero(dists == dists.min())
        seen += len(nearest) > 1
        assert dec[w] == nearest[0] == code.ml_decode(word) @ k_bits
    assert seen == ties
    for m, msg in enumerate(all_messages(code.k)):
        assert cw[m] == bsc_encode(code, msg) @ n_bits


@pytest.mark.parametrize("n, k", [(20, 10), (24, 1)])
def test_word_tables_guard(n, k):
    # [20,10]: 2^30 distances; [24,1]: 2^24 words of 24 bits (3.2 GB as
    # int64) though only 2^25 distances.  Each code still serves ml_decode.
    code = systematic_code(n, k, seed=0)
    assert code.ml_decode(np.zeros(n, dtype=np.int64)).shape == (k,)
    with pytest.raises(GuardExceededError):
        code.word_tables


def _bit_row_totals(draws, code):
    """Block totals by `bsc_encode` and `ml_decode` on bit rows, as the kernel
    counted them before it decoded packed words."""
    (u_a, u_b), (f_relay, f_a, f_b) = draws.messages, draws.flips
    m_relay = code.ml_decode(bsc_encode(code, u_a) ^ bsc_encode(code, u_b) ^ f_relay)
    relay_error = np.any(m_relay != (u_a ^ u_b), axis=1)
    x_relay = bsc_encode(code, m_relay)
    u_b_hat = code.ml_decode(x_relay ^ f_a) ^ u_a
    u_a_hat = code.ml_decode(x_relay ^ f_b) ^ u_b
    end_error = np.any(u_b_hat != u_b, axis=1) | np.any(u_a_hat != u_a, axis=1)
    return {"relay_error": int(np.count_nonzero(relay_error)),
            "end_error": int(np.count_nonzero(end_error)),
            "union_error": int(np.count_nonzero(relay_error | end_error))}


@pytest.mark.parametrize("p", [0.0, 0.01, 0.23, 0.49])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kernel_totals_equal_bit_row_decoding(seed, p):
    # full blocks on the harness's stream addresses count exactly what the
    # bit-row ML decoder counts on the same draws
    code = hamming74()
    totals = bsc_kernel({"p": p, "code": "hamming74"}, generator(seed, TAG_TRIAL, 0), BLOCK)
    want = _bit_row_totals(draw_bsc(generator(seed, TAG_TRIAL, 0), BLOCK, code, BscParams(p)),
                           code)
    assert totals == want
    assert (want["union_error"] == 0) == (p == 0.0)


def test_report_trials_replay_through_bsc_row_across_blocks():
    # trial t of a report is row t % BLOCK of the block t // BLOCK drawn from
    # (seed, TAG_TRIAL, t // BLOCK)
    params = {"p": 0.1, "code": "hamming74"}
    report = run_trials(ExperimentSpec("bsc", params, BSC_ERROR_KEYS),
                        trials=BLOCK + 37, master_seed=7)
    code, bp = hamming74(), BscParams(0.1)
    want = dict.fromkeys(BSC_ERROR_KEYS, 0)
    for b, count in enumerate((BLOCK, 37)):
        draws = draw_bsc(generator(7, TAG_TRIAL, b), count, code, bp)
        for i in range(count):
            out = bsc_row(draws, i, code)
            want["relay_error"] += out.relay_error
            want["end_error"] += out.error
            want["union_error"] += out.relay_error or out.error
    assert report.counts == want
    assert 0 < want["relay_error"] < want["end_error"] < BLOCK


def _flips_by_rule(seed, count, code, p):
    """The flips of draw_bsc re-derived from a fresh generator at the same
    address, and the number of ties: the message bytes are skipped, then
    coordinate j with byte B flips iff B < 256p, except on a tie
    B == floor(256p), where it flips iff (B + U)/256 < p for the next tie
    uniform U; both compared exactly."""
    rng = generator(seed, TAG_TRIAL, 0)

    def raw_bytes(size):
        words = rng.bit_generator.random_raw(-(-size // 8))
        shifts = 8 * np.arange(8, dtype=np.uint64)
        return ((words[:, None] >> shifts) & np.uint64(0xFF)).reshape(-1)[:size]

    raw_bytes(2 * count * code.k)
    b = raw_bytes(3 * count * code.n).astype(np.int64)
    scaled = 256 * Fraction(p)
    flips = b < math.ceil(scaled)
    ties = np.flatnonzero(b == math.floor(scaled))
    flips[ties] = [b[j] + Fraction(u) < scaled for j, u in zip(ties, rng.random(ties.size))]
    return flips.reshape(3, count, code.n), b.reshape(3, count, code.n), ties.size


@pytest.mark.parametrize("p", [0.0, 0.01, 0.23, 0.25, 0.499])
def test_draw_flips_follow_byte_and_tie_rule(p):
    code, count = hamming74(), 1024
    draws = draw_bsc(generator(11, TAG_TRIAL, 0), count, code, BscParams(p))
    want, b, ties = _flips_by_rule(11, count, code, p)
    assert draws.flips.dtype == bool and np.array_equal(draws.flips, want)
    assert ties > 0
    c = int(256 * p)
    if p == 0.0:
        assert not draws.flips.any()
    elif p == 0.25:  # 256p is an integer: a tie never flips
        assert np.array_equal(draws.flips, b < 64)
    elif p == 0.499:  # c = 127: the ties split by their uniforms
        on_ties = draws.flips[b == c]
        assert on_ties.any() and not on_ties.all()


@pytest.mark.parametrize("p", [0.01, 0.23])
def test_draw_flip_rate_is_p(p):
    draws = draw_bsc(generator(12, TAG_TRIAL, 0), 50_000, hamming74(), BscParams(p))
    n = draws.flips.size
    assert n >= 1_000_000
    sigma = (p * (1 - p) / n) ** 0.5
    assert abs(np.count_nonzero(draws.flips) / n - p) < 5 * sigma
    assert set(np.unique(draws.messages)) == {0, 1}
