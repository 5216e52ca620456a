"""Binary-channel exchange: XOR relaying with identical linear codes."""

import numpy as np
import pytest

import oracles
from twinrelay.bsc import (
    BSC_ERROR_KEYS,
    BinaryLinearCode,
    BscParams,
    bsc_exchange_rate_bound,
    bsc_kernel,
    bsc_relay_roundtrip,
    bsc_rows,
    draw_bsc,
    hamming74,
    random_code,
)
from twinrelay.errors import GuardExceededError, ValidationError
from twinrelay.harness import ExperimentSpec, run_trials
from twinrelay.rng import generator


def all_messages(k):
    return ((np.arange(2 ** k)[:, None] >> np.arange(k)[None, :]) & 1).astype(np.int64)


def test_hamming74_structure():
    code = hamming74()
    assert (code.n, code.k) == (7, 4)
    # parity check annihilates every codeword
    assert np.all(code.codewords @ code.parity_check.T % 2 == 0)
    weights = code.codewords.sum(axis=1)
    assert sorted(set(int(w) for w in weights if w > 0))[0] == 3  # d_min = 3


def test_linearity_xor_closure():
    for code in (hamming74(), random_code(10, 5, seed=4)):
        seen = {row.tobytes() for row in code.codewords.astype(np.uint8)}
        for a in code.codewords:
            for b in code.codewords:
                assert ((a ^ b).astype(np.uint8)).tobytes() in seen


def test_noiseless_roundtrip_exhaustive():
    code = hamming74()
    params = BscParams(0.0)
    rng = generator(0)
    for ua in all_messages(4)[:16]:
        for ub in all_messages(4)[:16]:
            out = bsc_relay_roundtrip(ua, ub, code, params, rng)
            assert not out.relay_error and not out.error
            assert np.array_equal(out.u_b_hat_at_a, ub)
            assert np.array_equal(out.u_a_hat_at_b, ua)


def test_equal_messages_decode_zero_codeword():
    code = hamming74()
    rng = generator(1)
    u = np.array([1, 0, 1, 1])
    out = bsc_relay_roundtrip(u, u, code, BscParams(0.0), rng)
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
        y_relay = code.encode(ua) ^ code.encode(ub) ^ flips
        relay_hat = code.ml_decode(y_relay)
        single_hat = code.ml_decode(code.encode(ua ^ ub) ^ flips)
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


class _ReplayUniforms:
    """Stands in for the stream of `bsc_relay_roundtrip`: hands out
    pre-drawn uniform rows in call order."""

    def __init__(self, *rows):
        self._rows = iter(rows)

    def random(self, size):
        row = next(self._rows)
        assert row.shape == (size,)
        return row


@pytest.mark.parametrize("code", [hamming74(), random_code(10, 5, seed=4)])
def test_block_rows_replay_scalar_roundtrip(code):
    # each row of the block kernel is the scalar round trip on the same draws
    params = BscParams(0.1)
    draws = draw_bsc(generator(31), 400, code)
    rows = bsc_rows(draws, code, params)
    for i in range(400):
        out = bsc_relay_roundtrip(draws.u_a[i], draws.u_b[i], code, params,
                                  _ReplayUniforms(draws.r_relay[i], draws.r_a[i], draws.r_b[i]))
        assert rows["relay_error"][i] == out.relay_error
        assert rows["end_error"][i] == out.error
        assert rows["union_error"][i] == (out.relay_error or out.error)
    assert 0 < np.count_nonzero(rows["relay_error"]) < 400
    assert 0 < np.count_nonzero(rows["end_error"]) < 400


def test_ml_decode_rows_match_single_words():
    code = random_code(12, 6, seed=2)
    words = generator(3).integers(0, 2, size=(3, 50, 12))
    batch = code.ml_decode(words)
    assert batch.shape == (3, 50, 6)
    for idx in np.ndindex(3, 50):
        dists = np.count_nonzero(code.codewords != words[idx], axis=1)
        assert np.array_equal(batch[idx], code.messages[int(np.argmin(dists))])
