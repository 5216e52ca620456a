"""Ball and sum codebooks, angle decoding, and concentration experiments."""

import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

import oracles
from twinrelay import minangle
from twinrelay.cli import main
from twinrelay.errors import DirectionCollisionError, GuardExceededError, ValidationError
from twinrelay.harness import ExperimentSpec, run_trials, wilson_interval
from twinrelay.lattice import scan_rows
from twinrelay.minangle import (
    MINANGLE_ERROR_KEYS,
    PAIR_GUARD,
    BallCodebook,
    _decoder_instance,
    draw_minangle,
    minangle_rows,
    ShellSpec,
    SumCodebook,
    check_distinct_directions,
    half_cell_codebook,
    min_angle_decode,
    nearest_sum,
)
from twinrelay.rng import generator
from twinrelay.twoway import ChannelParams


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
    shell = sums.shell_points
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


def _unpack(sums, keys):
    """The integer units of the sums with these keys, each key's row among
    the distinct sums, and its row among the on-shell sums (-1 off the
    shell), all derived from the keys."""
    units = np.stack(np.unravel_index(keys, sums.key_box), axis=-1) + sums.key_low
    row = np.searchsorted(sums.sum_keys, keys)
    assert np.array_equal(sums.sum_keys[row], keys)  # every key is a sum's
    shell_row = np.searchsorted(sums.shell_keys, keys)
    return units, row, np.where(np.isin(keys, sums.shell_keys), shell_row, -1)


def test_pair_accounting():
    spec = ShellSpec(n=3, power=2.0, delta=1.0)
    cb = half_cell_codebook(3, 1.0, 2.0)
    sums = SumCodebook.from_codebook(cb, spec)
    _, pair_to_sum, _ = _unpack(sums, sums.code_keys[:, None] + sums.code_keys)
    on_shell = _unpack(sums, sums.sum_keys)[2] >= 0
    pair_counts = np.bincount(pair_to_sum.ravel())
    assert pair_counts.shape == on_shell.shape
    assert pair_counts.sum() == cb.size ** 2
    # the on-shell pairs are exactly the pairs whose coordinate sum is on the shell
    pair_sums = (cb.points[:, None, :] + cb.points[None, :, :]).reshape(-1, 3)
    norms = np.einsum("ij,ij->i", pair_sums, pair_sums)
    assert pair_counts[on_shell].sum() == np.count_nonzero(spec.contains_sq(norms))


def test_pair_to_sum_maps_every_pair_to_its_sum():
    spec = ShellSpec(n=3, power=2.0, delta=1.0)
    cb = BallCodebook(gamma=1.0, translation=np.array([0.25, 0.5, 0.1]), power=1.5)
    sums = SumCodebook.from_codebook(cb, spec)
    sum_units = _unpack(sums, sums.sum_keys)[0]
    _, pair_to_sum, _ = _unpack(sums, sums.code_keys[:, None] + sums.code_keys)
    assert pair_to_sum.shape == (cb.size, cb.size)
    for i in range(cb.size):
        for j in range(cb.size):
            assert np.array_equal(sum_units[pair_to_sum[i, j]], cb.units[i] + cb.units[j])
            assert np.allclose(sums.sum_points[pair_to_sum[i, j]],
                               cb.points[i] + cb.points[j], rtol=0.0, atol=1e-12)
    assert np.all(np.bincount(pair_to_sum.ravel(), minlength=len(sum_units)) > 0)


def test_direction_collision_detected():
    with pytest.raises(DirectionCollisionError, match=r"sum points 0 and 1 .*--delta"):
        check_distinct_directions(np.array([[2, 4], [3, 6], [0, 1]]))
    check_distinct_directions(np.array([[1, 0], [-1, 0], [0, 1]]))
    # mixed signs: w and -w stay distinct, the first repeat is reported
    check_distinct_directions(np.array([[2, -4], [-1, 2], [3, 1], [-3, -1]]))
    with pytest.raises(DirectionCollisionError, match=r"sum points 0 and 3 \(gamma \* "
                       r"\[2, -4\] and gamma \* \[3, -6\]\)"):
        check_distinct_directions(np.array([[2, -4], [-1, 2], [3, 1], [3, -6], [-2, 4]]))
    # a primitive box one wide in some coordinate
    check_distinct_directions(np.array([[1, 2, 0], [1, 3, 0], [2, 5, 0]]))
    with pytest.raises(DirectionCollisionError, match=r"sum points 1 and 2 "):
        check_distinct_directions(np.array([[1, 3, 0], [1, 2, 0], [2, 4, 0]]))


def test_direction_check_reports_the_row_unique_pair():
    """The keyed check reports the pair the row-unique reference finds: the
    first row whose primitive row an earlier row has, and that earlier row."""
    rng = generator(28)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        units = rng.integers(-4, 5, size=(int(rng.integers(1, 30)), n))
        units = units[units.any(axis=1)]
        primitive = units // np.gcd.reduce(units, axis=1, keepdims=True)
        _, first, inverse = np.unique(primitive, axis=0, return_index=True,
                                      return_inverse=True)
        earlier = first[inverse.ravel()]
        repeats = np.flatnonzero(earlier != np.arange(len(units)))
        if not repeats.size:
            check_distinct_directions(units)
            continue
        j = int(repeats[0])
        with pytest.raises(DirectionCollisionError, match=rf"sum points {earlier[j]} and {j} "):
            check_distinct_directions(units)


def test_minangle_refuses_non_finite_inputs():
    """NaN and infinite sizes are refused before any array is built."""
    for value in (math.nan, math.inf, -math.inf):
        for kwargs in ({"gamma": value, "translation": np.zeros(3), "power": 2.0},
                       {"gamma": 1.0, "translation": np.zeros(3), "power": value},
                       {"gamma": 1.0, "translation": np.array([0.5, value, 0.5]),
                        "power": 2.0}):
            with pytest.raises(ValidationError, match="must be positive and finite"):
                BallCodebook(**kwargs)
        with pytest.raises(ValidationError):
            ShellSpec(n=3, power=value, delta=0.5)
        with pytest.raises(ValidationError):
            _decoder_instance.__wrapped__(3, value, 2.0, 1.5)
    with pytest.raises(ValidationError, match="power must be positive and finite"):
        ShellSpec(n=3, power=math.inf, delta=0.5)


@pytest.mark.parametrize("gamma", [1e-320, 5e-324])
def test_ball_codebook_tiny_gamma_hits_the_box_guard(gamma):
    # radius / gamma overflows for a subnormal gamma; the sweep divides Python
    # floats, so the overflow is inf and the guard fires, with no RuntimeWarning
    with pytest.raises(GuardExceededError, match="more than 2000000 points"):
        BallCodebook(gamma=gamma, translation=np.full(3, gamma / 2), power=2.0)


@pytest.mark.parametrize("cb", [
    half_cell_codebook(3, 1.0, 2.0),
    half_cell_codebook(4, 1.0, 1.0),
    BallCodebook(gamma=1.0, translation=np.array([0.25, 0.5, 0.1]), power=1.5),
], ids=["half-cell-3", "half-cell-4", "translated-3"])
def test_sum_tables_match_row_unique_reference(cb):
    sums = SumCodebook.from_codebook(cb, ShellSpec(n=cb.n, power=2.0, delta=1.0))
    pair_sums = (cb.units[:, None, :] + cb.units[None, :, :]).reshape(-1, cb.n)
    units, inverse = np.unique(pair_sums, axis=0, return_inverse=True)
    sum_units = _unpack(sums, sums.sum_keys)[0]
    assert sum_units.dtype == units.dtype
    assert np.array_equal(sum_units, units)
    assert np.array_equal(_unpack(sums, sums.code_keys[:, None] + sums.code_keys)[1],
                          inverse.reshape(cb.size, cb.size))


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_exact_direction_rule_agrees_with_float_rule(n):
    """The exact rule raises exactly when the old float rule (cosine at
    least 1 - 1e-9) finds a collision, on colliding and clean instances.

    For non-parallel integer vectors a and b, |a|^2 |b|^2 - (a.b)^2 is a
    nonzero sum of squared integer 2x2 minors, so it is at least 1 and
    1 - cos >= 1 / (2 |a|^2 |b|^2).  An on-shell sum gamma * w has
    |w|^2 < 4nP / gamma^2.  PAIR_GUARD (m <= 3,162 codewords) keeps
    nP / gamma^2 below about 1,005 at n = 2, so 1 - cos > 3e-8 there, and
    the ball's volume keeps nP / gamma^2 smaller still for n >= 3; rounding
    moves a float cosine by far less than 1e-9.  At n = 1 the directions
    are +-1, and both rules agree.  The sweep includes
    `sim minangle --dim 5 --power 2 --delta 3.9`, whose shell holds 40,594
    sums.
    """
    outcomes = set()
    for gamma in (0.5, 1.0, 1.7):
        for power in (1.0, 2.0):
            cb = half_cell_codebook(n, gamma, power)
            if cb.size ** 2 > PAIR_GUARD:
                continue
            sums = SumCodebook.from_codebook(cb, ShellSpec(n=n, power=power, delta=power))
            sum_units = _unpack(sums, sums.sum_keys)[0]
            norms = np.einsum("ij,ij->i", sums.sum_points, sums.sum_points)
            for delta in (0.1 * power, 0.5 * power, 0.9 * power, 1.95 * power):
                on_shell = ShellSpec(n=n, power=power, delta=delta).contains_sq(norms)
                if not on_shell.any():
                    continue
                try:  # each half-cell sum is gamma * (its units + 1)
                    check_distinct_directions(sum_units[on_shell] + 1)
                    exact = False
                except DirectionCollisionError:
                    exact = True
                floating = oracles.float_direction_collision(sums.sum_points[on_shell])
                assert exact == floating, (gamma, power, delta)
                outcomes.add(exact)
    assert outcomes == {False, True}


def test_collinear_shell_sums_exit_fast_in_bounded_memory(tmp_path, capsys):
    # 1,792 codewords, 40,594 on-shell sums, two of them collinear
    tracemalloc.start()
    start = time.perf_counter()
    try:
        with pytest.raises(DirectionCollisionError):
            _decoder_instance(5, 1.0, 2.0, 3.9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert time.perf_counter() - start < 5.0
    assert peak < 32 * 2 ** 20  # with an (m, m) pair table: 151 MiB
    argv = ["sim", "minangle", "--dim", "5", "--power", "2", "--delta", "3.9",
            "--snr-db", "10", "--trials", "100", "--out", str(tmp_path / "ma.json")]
    assert main(argv) == 1
    assert "share a direction" in capsys.readouterr().err
    assert not (tmp_path / "ma.json").exists()


def test_sum_build_memory_does_not_grow_with_pairs():
    # 2,784 codewords (7.75M pairs, under PAIR_GUARD), 63,667 distinct sums
    tracemalloc.start()
    try:
        sums = _decoder_instance.__wrapped__(5, 1.0, 2.5, 1.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (sums.codebook.size, sums.sum_keys.size) == (2784, 63667)
    assert peak < 48 * 2 ** 20  # with an (m, m) pair table: 363 MiB


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
    sums = _decoder_instance(3, 1.0, 2.0, 1.5)
    shell_pts = sums.shell_points
    draws = draw_minangle(generator(14), 500, params)
    rows = minangle_rows(draws, params)
    _, true_rows, shell_rows = _unpack(sums, sums.code_keys[draws.i] + sums.code_keys[draws.j])
    norms = np.linalg.norm(shell_pts, axis=1)
    for r in range(500):
        y = draws.y[r]
        true = int(true_rows[r])
        decoded = int(np.argmax(shell_pts @ y / norms))
        assert min_angle_decode(y, shell_pts) == decoded
        ml = int(np.argmin(((sums.sum_points - y) ** 2).sum(axis=1)))
        on = bool(shell_rows[r] >= 0)
        wrong = on and decoded != shell_rows[r]
        assert rows["off_shell"][r] == (not on)
        assert rows["angle_error"][r] == ((not on) or wrong)
        assert rows["angle_error_on_shell"][r] == wrong
        assert rows["ml_error"][r] == (ml != true)
    for key in ("angle_error_on_shell", "off_shell", "ml_error"):
        assert 0 < np.count_nonzero(rows[key]) < 500, key


# Sum codebooks for the rounding reference: the README and criterion 12
# parameters (n = 3, gamma = 1, P = 2), other gammas and dimensions, and
# translations other than the half cell (in units of gamma).
ROUNDING_CASES = {
    "readme": (3, 1.0, 2.0, None),
    "n1-third": (1, 1 / 3, 2.0, None),
    "n1-shifted": (1, 1.0, 2.0, [0.1]),
    "n2-0.7": (2, 0.7, 2.0, None),
    "n3-third": (3, 1 / 3, 1.0, None),
    "n3-shifted": (3, 1.0, 1.5, [0.25, 0.5, 0.1]),
    "n4-0.7-shifted": (4, 0.7, 1.0, [0.3, 0.1, 0.45, 0.2]),
    "n6": (6, 1.0, 1.0, None),
}


def _rounding_sums(case):
    n, gamma, power, shift = ROUNDING_CASES[case]
    s = np.full(n, 0.5) if shift is None else np.asarray(shift)
    cb = BallCodebook(gamma=gamma, translation=gamma * s, power=power)
    return SumCodebook.from_codebook(cb, ShellSpec(n=n, power=power, delta=power))


def _noiseless_rows(sums, rng, count):
    points = sums.codebook.points
    return points[rng.integers(len(points), size=count)] + points[
        rng.integers(len(points), size=count)]


def _midpoint_rows(sums, rng, count):
    """Exact midpoints of two sums one unit apart in one coordinate."""
    units = _unpack(sums, sums.sum_keys)[0]
    a = rng.integers(len(units), size=4 * count)
    step = np.eye(units.shape[1], dtype=units.dtype)[rng.integers(units.shape[1], size=a.size)]
    key = np.ravel_multi_index(tuple((units[a] + step - sums.key_low).T), sums.key_box,
                               mode="clip")
    b = np.searchsorted(sums.sum_keys, key).clip(max=len(units) - 1)
    keep = np.flatnonzero(np.all(units[b] == units[a] + step, axis=1))[:count]
    return (sums.sum_points[a[keep]] + sums.sum_points[b[keep]]) / 2


def _probe_rows(sums, rng, count):
    """Rows of each kind the rounding reference must decide as the scan does."""
    cb = sums.codebook
    n, gamma, shift = cb.n, cb.gamma, 2.0 * cb.translation
    box = np.array(sums.key_box)
    noiseless = _noiseless_rows(sums, rng, count)
    spread = cb.power * 10.0 ** -np.linspace(-1.0, 3.0, count)[:, None]
    units = _unpack(sums, sums.sum_keys)[0][rng.integers(len(sums.sum_keys), size=count)]
    halves = rng.integers(-1, 2, size=(count, n)) / 2
    mid = _midpoint_rows(sums, rng, count)
    nudges = (10.0 ** rng.uniform(-15, -6, size=(len(mid), 1)) * gamma
              * rng.choice([-1.0, 1.0], size=mid.shape))
    in_box = sums.key_low + rng.integers(0, box, size=(8 * count, n))
    keys = np.ravel_multi_index(tuple((in_box - sums.key_low).T), sums.key_box)
    hole = in_box[~np.isin(keys, sums.sum_keys)][:count]
    # one coordinate 1 to 3 units below or above the box, the others on a sum
    beyond = units.copy()
    coord, reach = rng.integers(n, size=count), rng.integers(0, 3, size=count)
    below = rng.random(count) < 0.5
    beyond[np.arange(count), coord] = np.where(
        below, sums.key_low[coord] - 1 - reach, sums.key_low[coord] + box[coord] + reach)
    huge = ChannelParams.from_snr_db(-3000.0, cb.power).sigma2
    return {
        "noisy": noiseless + rng.normal(size=noiseless.shape) * np.sqrt(spread),
        "noiseless": noiseless,
        "half-integer": gamma * (units + halves) + shift,
        "midpoint": mid,
        "midpoint-nudged": mid + nudges,
        "non-sum": gamma * hole + shift + 1e-3 * gamma * rng.standard_normal(hole.shape),
        "outside-box": gamma * beyond + shift,
        "huge-noise": noiseless + rng.normal(0.0, math.sqrt(huge), size=noiseless.shape),
    }


@pytest.mark.parametrize("case, count", [
    ("readme", 4000), ("n1-third", 500), ("n1-shifted", 500), ("n2-0.7", 2000),
    ("n3-third", 400), ("n3-shifted", 2000), ("n4-0.7-shifted", 400), ("n6", 40),
])
def test_nearest_sum_equals_all_sums_argmin(case, count):
    """Rounding decides each row as the float64 scan over every sum does,
    ties to the lowest row, on random, noiseless, tied and nudged rows, rows
    that round onto a non-sum or out of the box, and huge-noise rows."""
    sums = _rounding_sums(case)
    for kind, y in _probe_rows(sums, generator(25), count).items():
        # at n = 1 the sums fill their box, which then has no non-sum point
        assert len(y) > 0 or (kind, sums.codebook.n) == ("non-sum", 1), kind
        want = oracles.nearest_sum_scan(y, sums.sum_points)
        assert np.array_equal(nearest_sum(y, sums), want), kind


def test_nearest_sum_equals_all_sums_argmin_on_minangle_draws():
    # the README's `sim minangle` draws (criterion 12's parameters), noisy
    # and noiseless
    sums = _decoder_instance(3, 1.0, 2.0, 1.5)
    for sigma2 in (2.0 / 10 ** 1.5, 0.0):
        params = {"n": 3, "gamma": 1.0, "power": 2.0, "sigma2": sigma2, "delta": 1.5}
        y = draw_minangle(generator(26), 20_000, params).y
        assert np.array_equal(nearest_sum(y, sums), oracles.nearest_sum_scan(y, sums.sum_points))


@pytest.mark.parametrize("case", sorted(ROUNDING_CASES))
def test_nearest_sum_scans_exactly_the_undecided_rows(case, monkeypatch):
    """Noiseless rows never reach the scan; exact midpoints always do."""
    scanned = []

    def spy(rows, width):
        scanned.append(rows)
        return scan_rows(rows, width)

    sums = _rounding_sums(case)  # the build chunks through scan_rows too
    monkeypatch.setattr(minangle, "scan_rows", spy)
    rng = generator(27)
    nearest_sum(_noiseless_rows(sums, rng, 2000), sums)
    assert sum(scanned) == 0
    mid = _midpoint_rows(sums, rng, 200)
    scanned.clear()
    nearest_sum(mid, sums)
    assert len(mid) > 0 and sum(scanned) == len(mid)
