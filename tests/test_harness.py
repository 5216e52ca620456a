"""Relay map, Wilson intervals, deterministic parallel trials, RNG pinning."""

import json
import math
import os
from collections import OrderedDict

import numpy as np
import pytest

from twinrelay import harness
from twinrelay.canonical import BLOCK, canonical_dumps
from twinrelay.errors import TwinrelayError, ValidationError
from twinrelay.harness import (
    MAX_WORKERS,
    ExperimentSpec,
    register_experiment,
    run_trials,
    wilson_interval,
)
from twinrelay.rng import TAG_TRIAL, derive_seed, generator, philox_key
from twinrelay.twoway import anc_power_kernel, anc_relay

VECTORS = os.path.join(os.path.dirname(__file__), "data", "rng_vectors.json")


# ---------------------------------------------------------------------------
# RNG derivation
# ---------------------------------------------------------------------------

def test_rng_vectors_pinned():
    with open(VECTORS) as fh:
        data = json.load(fh)
    assert data["generator"] == "philox4x64-10"
    for case in data["cases"]:
        master, path = case["master"], tuple(case["path"])
        assert derive_seed(master, *path) == case["derived_seed"]
        key = philox_key(master, *path)
        assert [int(key[0]), int(key[1])] == case["philox_key"]
        raw = np.random.Generator(np.random.Philox(key=key)).bit_generator.random_raw(4)
        assert [int(v) for v in raw] == case["raw_uint64"]
        assert np.allclose(generator(master, *path).random(4),
                           case["uniform_doubles"], rtol=0, atol=0)
        assert np.allclose(generator(master, *path).normal(size=4),
                           case["normals"], rtol=0, atol=0)


@pytest.mark.parametrize("address", [(0,), (7, TAG_TRIAL, 3), (2 ** 64 - 1, 1, 2, 3),
                                     (12345, 0x01, 40, 5), (-1, 2 ** 70)])
def test_generator_equals_keyed_philox(address):
    # `generator` hands Philox its key through a seed sequence instead of
    # `key=`; the state and the raw stream must be the same
    got = generator(*address).bit_generator
    want = np.random.Philox(key=philox_key(*address))
    assert repr(got.state) == repr(want.state)
    assert np.array_equal(got.random_raw(1000), want.random_raw(1000))


def test_rng_streams_distinct_and_order_sensitive():
    a = generator(1, 2, 3).random(4)
    b = generator(1, 3, 2).random(4)
    c = generator(1, 2, 3).random(4)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, c)


# ---------------------------------------------------------------------------
# Noise sampler and relay map
# ---------------------------------------------------------------------------

def test_gaussian_sampler_moments():
    g = generator(9).normal(size=1_000_000)
    n = g.size
    assert abs(g.mean()) < 3.0 / math.sqrt(n)
    assert abs(g.var() - 1.0) < 3.0 * math.sqrt(2.0 / n)
    kurt = float(np.mean(g ** 4)) - 3.0 * float(np.var(g)) ** 2
    assert abs(kurt) < 3.0 * math.sqrt(24.0 / n)


def test_anc_relay_gain():
    assert anc_relay(np.array([1.0]), power=1.0, sigma2=1.0)[0] == pytest.approx(
        math.sqrt(1.0 / 3.0), abs=1e-15)
    assert np.all(anc_relay(np.zeros(4), 1.0, 0.5) == 0.0)


def test_anc_power_contract():
    spec = ExperimentSpec("anc-power", {"n": 10, "power": 1.0, "sigma2": 0.5}, ())
    report = run_trials(spec, trials=20_000, master_seed=11)
    mean_power = report.counts["relay_energy_per_dim"] / report.trials
    assert abs(mean_power - 1.0) < 0.01
    for n in (0, -1):
        with pytest.raises(ValidationError, match="dimension"):
            anc_power_kernel({"n": n, "power": 1.0, "sigma2": 0.5}, generator(0), 8)


@pytest.mark.parametrize("power,sigma2", [(1.0, -0.5), (1.0, math.nan), (-1.0, 0.5)])
def test_anc_power_kernel_refuses_a_bad_channel(power, sigma2):
    with pytest.raises(ValidationError, match="power must|noise variance"):
        anc_power_kernel({"n": 4, "power": power, "sigma2": sigma2}, generator(0), 8)


# ---------------------------------------------------------------------------
# Wilson interval
# ---------------------------------------------------------------------------

def test_wilson_contains_estimate():
    lo, hi = wilson_interval(13, 100)
    assert lo < 0.13 < hi


def test_wilson_zero_errors():
    lo, hi = wilson_interval(0, 1000)
    assert lo == 0.0
    z = 1.959963984540054
    assert hi == pytest.approx(z * z / (1000 + z * z), abs=1e-12)


def test_wilson_coverage():
    # binomial draws, 100 meta-replications of 10^4 Bernoulli(0.1) trials
    rng = generator(13)
    covered = 0
    for _ in range(100):
        successes = int(rng.binomial(10_000, 0.1))
        lo, hi = wilson_interval(successes, 10_000)
        covered += int(lo <= 0.1 <= hi)
    assert covered >= 93


# ---------------------------------------------------------------------------
# run_trials
# ---------------------------------------------------------------------------

def _synthetic_kernel(params, rng, count):
    return {"hit": int(np.count_nonzero(rng.random(count) < params["p"])),
            "value": float(rng.random(count).sum())}


register_experiment("synthetic", _synthetic_kernel)
SYNTH = ExperimentSpec("synthetic", {"p": 0.1}, ("hit",))


def test_run_trials_worker_invariance():
    # partial, exact and multiple blocks; whole blocks go to the workers
    for trials in (1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 5):
        serial = run_trials(SYNTH, trials=trials, master_seed=3, workers=1)
        assert serial.trials == trials
        for workers in (2, 8):
            parallel = run_trials(SYNTH, trials=trials, master_seed=3, workers=workers)
            assert serial.counts == parallel.counts
            assert canonical_dumps(serial.to_dict()) == canonical_dumps(parallel.to_dict())


def test_run_trials_blocks_draw_from_block_streams():
    # block b is the kernel run on stream (master, TAG_TRIAL, b) for its count
    report = run_trials(SYNTH, trials=2 * BLOCK + 7, master_seed=12)
    want = [_synthetic_kernel(SYNTH.params, generator(12, TAG_TRIAL, b), count)
            for b, count in ((0, BLOCK), (1, BLOCK), (2, 7))]
    assert report.counts["hit"] == sum(w["hit"] for w in want)
    # each block's float total is put on the fixed grid once
    grid = 1 << 32
    assert report.counts["value"] == sum(round(w["value"] * grid) for w in want) / grid


def test_run_trials_reproducible():
    a = run_trials(SYNTH, trials=500, master_seed=21)
    b = run_trials(SYNTH, trials=500, master_seed=21)
    assert canonical_dumps(a.to_dict()) == canonical_dumps(b.to_dict())
    c = run_trials(SYNTH, trials=500, master_seed=22)
    assert c.counts != a.counts


def test_run_trials_estimate_and_interval():
    report = run_trials(SYNTH, trials=5000, master_seed=4)
    assert report.ci_low <= report.estimate <= report.ci_high
    assert abs(report.estimate - 0.1) < 0.02


def test_run_trials_target_ci_stopping():
    # at p = 0.1 the half-width is about 0.0092 after one block and 0.0065
    # after two, so a 0.0075 target stops after more than one check
    report = run_trials(SYNTH, trials=None, master_seed=5, target_ci=0.0075,
                        max_trials=50_000, block=BLOCK)
    assert (report.ci_high - report.ci_low) / 2 <= 0.0075
    assert report.trials % BLOCK == 0
    assert report.trials > BLOCK
    # stopping point is a function of the counts only, not the worker count
    again = run_trials(SYNTH, trials=None, master_seed=5, target_ci=0.0075,
                       max_trials=50_000, block=BLOCK, workers=4)
    assert again.trials == report.trials


def test_run_trials_target_ci_stops_at_the_cap_without_max_trials(monkeypatch):
    # an unreachable target runs to TARGET_CI_CAP trials and stops there
    assert harness.TARGET_CI_CAP == 1 << 22
    monkeypatch.setattr(harness, "TARGET_CI_CAP", 3 * BLOCK)
    report = run_trials(SYNTH, trials=None, master_seed=5, target_ci=1e-6)
    assert report.trials == 3 * BLOCK
    assert (report.ci_high - report.ci_low) / 2 > 1e-6


@pytest.mark.parametrize("workers", [2, 3, 8])
def test_run_trials_hands_each_worker_one_run_of_blocks(monkeypatch, workers):
    # 11 blocks reach the pool as at most one task per worker, not one a block
    submits = []

    class CountingPool(harness.ProcessPoolExecutor):
        def submit(self, *args, **kwargs):
            submits.append(args)
            return super().submit(*args, **kwargs)

    serial = run_trials(SYNTH, trials=10 * BLOCK + 5, master_seed=8, workers=1)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", CountingPool)
    report = run_trials(SYNTH, trials=10 * BLOCK + 5, master_seed=8, workers=workers)
    assert 2 <= len(submits) <= workers
    assert report.counts == serial.counts


def test_run_trials_zero_error_report():
    spec = ExperimentSpec("synthetic", {"p": 0.0}, ("hit",))
    report = run_trials(spec, trials=1000, master_seed=6)
    assert report.estimate == 0.0
    assert report.ci_low == 0.0
    z = 1.959963984540054
    assert report.ci_high == pytest.approx(z * z / (1000 + z * z), abs=1e-12)


def test_run_trials_validation():
    with pytest.raises(ValidationError):
        run_trials(SYNTH, trials=None, master_seed=0)
    with pytest.raises(ValidationError):
        run_trials(SYNTH, trials=0, master_seed=0)
    with pytest.raises(ValidationError):
        run_trials(ExperimentSpec("nope", {}, ()), trials=10, master_seed=0)
    # the stop-check period is a positive multiple of BLOCK
    for block in (0, -BLOCK, 1000, BLOCK + 1, 3 * BLOCK // 2):
        with pytest.raises(ValidationError, match="multiple of"):
            run_trials(SYNTH, trials=None, master_seed=0, target_ci=0.01, block=block)
    # the worker cap is checked before any pool starts
    for workers in (0, MAX_WORKERS + 1):
        with pytest.raises(ValidationError, match="workers"):
            run_trials(SYNTH, trials=2 * BLOCK, master_seed=0, workers=workers)


_PARENT_PID = os.getpid()


def _exit_in_worker(params, rng, count):
    if os.getpid() != _PARENT_PID:
        os._exit(3)
    return {"hit": 0}


register_experiment("exit-in-worker", _exit_in_worker)


def test_run_trials_broken_pool_raises_package_error():
    spec = ExperimentSpec("exit-in-worker", {}, ("hit",))
    with pytest.raises(TwinrelayError, match="worker process died") as info:
        run_trials(spec, trials=2 * BLOCK, master_seed=0, workers=2)
    assert not isinstance(info.value, ValidationError)


def test_run_trials_target_ci_rejections_run_no_trial():
    calls = []
    register_experiment("counted", lambda params, rng, count: calls.append(1) or {"hit": 0})
    with pytest.raises(ValidationError, match="not both"):
        run_trials(ExperimentSpec("counted", {}, ("hit",)), trials=10, master_seed=0,
                   target_ci=0.01)
    with pytest.raises(ValidationError, match="error key"):
        run_trials(ExperimentSpec("counted", {}, ()), trials=None, master_seed=0,
                   target_ci=0.01)
    for max_trials in (0, -1):
        with pytest.raises(ValidationError, match="max_trials must be positive"):
            run_trials(ExperimentSpec("counted", {}, ("hit",)), trials=None, master_seed=0,
                       target_ci=0.01, max_trials=max_trials)
    with pytest.raises(ValidationError, match="without trials"):
        run_trials(ExperimentSpec("counted", {}, ("hit",)), trials=10, master_seed=0,
                   max_trials=100)
    assert calls == []


def test_run_trials_refuses_an_unknown_experiment_before_any_trial(monkeypatch):
    def no_stream(*args):
        raise AssertionError("a trial block was drawn")

    monkeypatch.setattr(harness, "generator", no_stream)
    with pytest.raises(ValidationError, match="unknown experiment 'nope'") as info:
        run_trials(ExperimentSpec("nope", {}, ()), trials=10, master_seed=0)
    for name in ("lattice", "bsc", "minangle", "concentration", "anc-power"):
        assert repr(name) in str(info.value)


def test_run_trials_target_ci_must_be_positive_and_finite():
    calls = []
    register_experiment("counted", lambda params, rng, count: calls.append(1) or {"hit": 0})
    for target in (0.0, -0.01, math.nan, math.inf):
        with pytest.raises(ValidationError, match="positive finite"):
            run_trials(ExperimentSpec("counted", {}, ("hit",)), trials=None, master_seed=0,
                       target_ci=target, max_trials=BLOCK)
    assert calls == []


def test_run_trials_refuses_an_error_key_the_kernel_does_not_report():
    # a misspelled key would read zero errors, so a target_ci run would stop
    # at once with estimate 0; the first chunk's totals refuse it instead
    params = {"n": 1, "q": 4, "k": 1, "snr_db": 12.0, "power": 1.0, "mode": "index"}
    with pytest.raises(ValidationError, match="'lattice' reports no relay_eror; "
                       "its totals are end_error, relay_error, union_error"):
        run_trials(ExperimentSpec("lattice", params, ("relay_eror",)), trials=None,
                   master_seed=0, target_ci=0.01)
    calls = []
    register_experiment("counted", lambda params, rng, count: calls.append(count) or {"hit": 0})
    with pytest.raises(ValidationError, match="reports no miss, mis; its totals are hit"):
        run_trials(ExperimentSpec("counted", {}, ("hit", "miss", "mis")), trials=None,
                   master_seed=0, target_ci=1e-6, max_trials=3 * BLOCK)
    assert calls == [BLOCK]


def test_report_rate_refuses_a_key_it_lacks():
    # a misspelled key would read a zero error rate
    params = {"n": 1, "q": 4, "k": 1, "snr_db": 12.0, "power": 1.0, "mode": "index"}
    report = run_trials(ExperimentSpec("lattice", params, ("relay_error",)),
                        trials=BLOCK, master_seed=0)
    assert report.rate("relay_error") == report.counts["relay_error"] / BLOCK > 0.05
    with pytest.raises(KeyError):
        report.rate("relay_eror")


def _round_floats_sorted_walk(obj):
    """The walk `canonical_dumps` made before it dispatched on exact types:
    keys sorted at every level, floats by `isinstance`."""
    if isinstance(obj, dict):
        return {k: _round_floats_sorted_walk(obj[k]) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_round_floats_sorted_walk(v) for v in obj]
    if isinstance(obj, float):
        if math.isnan(obj):
            return None
        if math.isinf(obj):
            return "inf" if obj > 0 else "-inf"
        return float(f"{obj:.12g}")
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return _round_floats_sorted_walk(float(obj))
    return obj


def test_canonical_dumps_bytes_match_the_sorted_walk():
    payload = {
        "z": [1, True, None, "s", 0.1 + 0.2, -math.inf, math.inf, math.nan],
        "a": {"y": (np.float32(0.1), np.float64(1 / 3), np.int64(-5), np.uint8(7)),
              "b": OrderedDict(d=2.5, c=[1.0e-300, 123456789.123456789])},
        "m": [{"k": 2, "j": [{"i": 1e21}]}],
    }
    want = json.dumps(_round_floats_sorted_walk(payload), sort_keys=True,
                      separators=(",", ":"))
    assert canonical_dumps(payload) == want


def test_canonical_dumps_takes_numpy_bools():
    assert canonical_dumps({"a": np.True_, "b": [np.bool_(False)]}) == '{"a":true,"b":[false]}'


def test_canonical_json_deterministic():
    payload = {"b": 0.1234567890123456789, "a": [1, 2.0, float("nan")]}
    s1 = canonical_dumps(payload)
    s2 = canonical_dumps(json.loads(s1) | {"b": 0.123456789012})
    assert s1.startswith('{"a":')
    assert s1 == s2
