"""Ball and sum codebooks, angle decoding, and concentration experiments."""

import math
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from twinrelay.errors import DirectionCollisionError, ValidationError
from twinrelay.harness import ExperimentSpec, run_trials, wilson_interval
from twinrelay.minangle import (
    MINANGLE_ERROR_KEYS,
    BallCodebook,
    _decoder_instance,
    draw_minangle,
    minangle_rows,
    ShellSpec,
    SumCodebook,
    check_distinct_directions,
    half_cell_codebook,
    min_angle_decode,
)
from twinrelay.rng import generator


def test_shellspec_radii():
    with pytest.raises(ValidationError):
        ShellSpec(n=4, power=1.0, delta=2.0)
    for power in (0.0, -1.0):
        with pytest.raises(ValidationError, match="power must be positive"):
            ShellSpec(n=4, power=power, delta=0.1)


def test_decode_exact_match_and_scale_invariance():
    rng = np.random.default_rng(1)
    points = rng.normal(size=(40, 3))
    for i in (0, 7, 39):
        assert min_angle_decode(points[i], points) == i
        assert min_angle_decode(3.7 * points[i], points) == i
    y = rng.normal(size=3)
    base = min_angle_decode(y, points)
    for c in (1e-6, 0.5, 42.0):
        assert min_angle_decode(c * y, points) == base


def test_decode_matches_distance_ml_at_equal_norms():
    # condition for angle/distance equivalence: candidates share one norm,
    # which holds exactly after scaling each onto the inner shell radius
    rng = np.random.default_rng(2)
    spec = ShellSpec(n=2, power=2.0, delta=0.4)
    cb = half_cell_codebook(2, 1.0, 2.0)
    sums = SumCodebook.from_codebook(cb, spec)
    shell = sums.shell_points()
    r_inner = math.sqrt(spec.n * (2.0 * spec.power - spec.delta))
    projected = r_inner * shell / np.linalg.norm(shell, axis=1, keepdims=True)
    sigma = math.sqrt(2.0 / 10 ** 1.5)
    for _ in range(200):
        true = rng.integers(shell.shape[0])
        y = shell[true] + rng.normal(0, sigma, size=2)
        angle_pick = min_angle_decode(y, shell)
        d2 = np.einsum("ij,ij->i", projected - y, projected - y)
        assert angle_pick == int(np.argmin(d2))


def test_ball_codebook_enumeration_complete():
    cb = half_cell_codebook(3, 1.0, 2.0)
    radius2 = 3 * 2.0
    norms = np.einsum("ij,ij->i", cb.points, cb.points)
    assert np.all(norms <= radius2 + 1e-9)
    # independent count: scan a generous integer box
    count = 0
    for a in range(-4, 4):
        for b in range(-4, 4):
            for c in range(-4, 4):
                p = np.array([a + 0.5, b + 0.5, c + 0.5])
                if p @ p <= radius2:
                    count += 1
    assert cb.size == count


def test_ball_codebook_rejects_empty_dimension():
    with pytest.raises(ValidationError, match="dimension"):
        BallCodebook(gamma=1.0, translation=np.zeros(0), power=1.0)


def test_pair_accounting():
    spec = ShellSpec(n=3, power=2.0, delta=1.0)
    cb = half_cell_codebook(3, 1.0, 2.0)
    sums = SumCodebook.from_codebook(cb, spec)
    pair_counts = np.bincount(sums.pair_to_sum.ravel())
    assert pair_counts.shape == sums.on_shell.shape
    assert pair_counts.sum() == cb.size ** 2
    # the on-shell pairs are exactly the pairs whose coordinate sum is on the shell
    pair_sums = (cb.points[:, None, :] + cb.points[None, :, :]).reshape(-1, 3)
    norms = np.einsum("ij,ij->i", pair_sums, pair_sums)
    assert pair_counts[sums.on_shell].sum() == np.count_nonzero(spec.contains_sq(norms))


def test_pair_to_sum_maps_every_pair_to_its_sum():
    spec = ShellSpec(n=3, power=2.0, delta=1.0)
    cb = BallCodebook(gamma=1.0, translation=np.array([0.25, 0.5, 0.1]), power=1.5)
    sums = SumCodebook.from_codebook(cb, spec)
    assert sums.pair_to_sum.shape == (cb.size, cb.size)
    for i in range(cb.size):
        for j in range(cb.size):
            assert np.array_equal(sums.sum_units[sums.pair_to_sum[i, j]],
                                  cb.units[i] + cb.units[j])
            assert np.allclose(sums.sum_points[sums.pair_to_sum[i, j]],
                               cb.points[i] + cb.points[j], rtol=0.0, atol=1e-12)
    assert np.all(np.bincount(sums.pair_to_sum.ravel(),
                              minlength=len(sums.sum_units)) > 0)


def test_direction_collision_detected():
    pts = np.array([[1.0, 0.0], [2.0, 0.0], [0.0, 1.0]])
    with pytest.raises(DirectionCollisionError):
        check_distinct_directions(pts)
    check_distinct_directions(np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]]))


def test_check_distinct_directions_memory_stays_in_row_chunks():
    pts = generator(5).standard_normal((6000, 5))
    tracemalloc.start()
    try:
        check_distinct_directions(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 20 * 2 ** 20  # the whole Gram matrix would be 288 MB


def _concentration(n, power, delta, samples, seed):
    """Off-shell count, sample count and Wilson interval of `samples` ball pairs."""
    spec = ExperimentSpec("concentration",
                          {"n": n, "power": power, "delta": delta, "batch": 1000}, ())
    report = run_trials(spec, trials=samples // 1000, master_seed=seed)
    off, total = int(report.counts["off_shell"]), int(report.counts["samples"])
    return off / total, total, wilson_interval(off, total)


def test_concentration_matches_1d_oracle():
    power, delta = 1.0, 1.0
    want = oracles.concentration_1d_oracle(power, delta)
    fraction, samples, _ = _concentration(n=1, power=power, delta=delta,
                                          samples=200_000, seed=6)
    assert abs(fraction - want) < oracles.three_sigma(want, samples)


@pytest.mark.parametrize("n", [2, 8, 64])
def test_concentration_matches_quadrature_oracle(n):
    want = oracles.concentration_offshell_oracle(n, 1.0, 0.1)
    fraction, samples, _ = _concentration(n=n, power=1.0, delta=0.1,
                                          samples=200_000, seed=12)
    assert abs(fraction - want) < oracles.three_sigma(want, samples)


def test_concentration_decreases_with_dimension():
    _, _, (lo8, _) = _concentration(n=8, power=1.0, delta=0.1, samples=100_000, seed=7)
    _, _, (_, hi64) = _concentration(n=64, power=1.0, delta=0.1, samples=100_000, seed=7)
    assert hi64 < lo8


@pytest.mark.parametrize("n", [8, 64])
def test_concentration_counts_do_not_depend_on_power(n):
    """The shell test is scale-free, and the kernel runs in units of nP."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        fractions = {_concentration(n=n, power=p, delta=0.1 * p, samples=100_000,
                                    seed=2108)[0] for p in (1.0, 1e-300, 1e300)}
    assert len(fractions) == 1


def test_concentration_nested_shells():
    wide, _, _ = _concentration(n=6, power=1.0, delta=1.9, samples=50_000, seed=8)
    thin, _, _ = _concentration(n=6, power=1.0, delta=0.1, samples=50_000, seed=8)
    assert wide < thin


def _minangle_report(n, sigma2, trials, seed):
    params = {"n": n, "gamma": 1.0, "power": 2.0, "sigma2": sigma2, "delta": 1.5}
    return run_trials(ExperimentSpec("minangle", params, MINANGLE_ERROR_KEYS),
                      trials=trials, master_seed=seed)


def test_noiseless_zero_decodable_errors():
    rep = _minangle_report(n=3, sigma2=0.0, trials=10_000, seed=9)
    assert rep.counts["angle_error_on_shell"] == 0
    assert rep.counts["ml_error"] == 0
    assert rep.counts["angle_error"] == rep.counts["off_shell"]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_angle_decoder_not_better_than_ml(n):
    sigma2 = 2.0 / 10 ** 1.5
    rep = _minangle_report(n=n, sigma2=sigma2, trials=6000, seed=11)
    p_ml = rep.rate("ml_error")
    assert rep.rate("angle_error") >= p_ml - oracles.three_sigma(p_ml, rep.trials)


def test_translation_average_point_count():
    # averaging the ball point count over uniform translations recovers
    # volume(ball)/det(lattice)
    n, power, gamma = 3, 2.0, 1.0
    radius = math.sqrt(n * power)
    want = math.pi ** (n / 2) / math.gamma(n / 2 + 1) * radius ** n / gamma ** n
    rng = generator(12)
    counts = []
    for _ in range(400):
        s = rng.uniform(0.0, gamma, size=n)
        counts.append(BallCodebook(gamma=gamma, translation=s, power=power).size)
    counts = np.asarray(counts, dtype=float)
    sem = counts.std(ddof=1) / math.sqrt(len(counts))
    assert abs(counts.mean() - want) < 4 * sem


def test_minangle_rows_replay_scalar_decode():
    # each row of the block kernel is the per-decode reference on the same
    # draws: a scalar angle decode among on-shell sums and a nearest-sum ML
    # decode over every distinct sum, both computed here row by row
    params = {"n": 3, "gamma": 1.0, "power": 2.0, "sigma2": 0.3, "delta": 1.5}
    _, sums, shell_pts, shell_row = _decoder_instance(3, 1.0, 2.0, 1.5)
    draws = draw_minangle(generator(14), 500, params)
    rows = minangle_rows(draws, params)
    norms = np.linalg.norm(shell_pts, axis=1)
    for r in range(500):
        y = draws.y[r]
        true = int(sums.pair_to_sum[draws.i[r], draws.j[r]])
        decoded = int(np.argmax(shell_pts @ y / norms))
        assert min_angle_decode(y, shell_pts) == decoded
        ml = int(np.argmin(((sums.sum_points - y) ** 2).sum(axis=1)))
        on = bool(sums.on_shell[true])
        wrong = on and decoded != shell_row[true]
        assert rows["off_shell"][r] == (not on)
        assert rows["angle_error"][r] == ((not on) or wrong)
        assert rows["angle_error_on_shell"][r] == wrong
        assert rows["ml_error"][r] == (ml != true)
    for key in ("angle_error_on_shell", "off_shell", "ml_error"):
        assert 0 < np.count_nonzero(rows[key]) < 500, key
