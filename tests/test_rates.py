"""Closed-form rates, the time-sharing envelope, and the rate grid."""

import math

import numpy as np
import pytest

import oracles
from twinrelay.errors import GuardExceededError, ValidationError
from twinrelay.rates import (
    GRID_GUARD,
    SNR_DB_MAX,
    crossover_window,
    envelope,
    grid_points,
    rate_anc,
    rate_joint_decoding,
    rate_lattice,
    rate_point,
    rate_pure_nc,
    rate_upper,
)


def test_rate_upper_values():
    assert rate_upper(0.0) == 0.0
    assert rate_upper(1.0) == pytest.approx(0.5, abs=1e-15)
    assert rate_upper(10.0) == pytest.approx(oracles.rate_upper_hp(10), abs=1e-12)


def test_rate_lattice_values():
    assert rate_lattice(0.5) == 0.0          # clamp boundary: log2(1) = 0
    assert rate_lattice(0.25) == 0.0         # below the zero-rate threshold
    assert rate_lattice(10.0) == pytest.approx(oracles.rate_lattice_hp(10), abs=1e-12)


def test_rate_lattice_approaches_upper():
    snr = 10 ** 4.0  # 40 dB
    assert rate_upper(snr) - rate_lattice(snr) < 0.01
    assert rate_upper(snr) > rate_lattice(snr)


def test_rate_jd_values():
    assert rate_joint_decoding(0.0) == 0.0
    assert rate_joint_decoding(10.0) == pytest.approx(oracles.rate_jd_hp(10), abs=1e-12)
    # near-optimal at low snr
    assert rate_joint_decoding(1e-3) / rate_upper(1e-3) > 0.999
    assert rate_joint_decoding(0.01) / rate_upper(0.01) > 0.995


def test_rate_anc_values():
    assert rate_anc(0.0) == 0.0
    assert rate_anc(1.0) == pytest.approx(0.5 * math.log2(1.25), abs=1e-12)
    assert rate_anc(10.0) == pytest.approx(oracles.rate_anc_hp(10), abs=1e-12)


def test_rate_pure_nc_values():
    assert rate_pure_nc(0.0) == 0.0
    assert rate_pure_nc(7.0) == pytest.approx(1.0, abs=1e-12)
    assert rate_pure_nc(10.0) == pytest.approx(oracles.rate_pure_nc_hp(10), abs=1e-12)


def test_rates_reject_negative_snr():
    for fn in (rate_upper, rate_lattice, rate_joint_decoding, rate_anc, rate_pure_nc):
        with pytest.raises(ValidationError):
            fn(-0.1)


def test_rates_monotone():
    grid = np.logspace(-3, 4, 300)
    for fn in (rate_upper, rate_lattice, rate_joint_decoding, rate_anc, rate_pure_nc):
        vals = [fn(float(s)) for s in grid]
        assert all(b >= a - 1e-13 for a, b in zip(vals, vals[1:]))


def test_crossover_window_matches_closed_form():
    lo, hi = crossover_window()
    want_lo, want_hi = oracles.crossover_closed_form()
    assert lo == pytest.approx(want_lo, abs=1e-8)
    assert hi == pytest.approx(want_hi, abs=1e-8)


def test_crossover_window_is_a_common_tangent():
    # Independent of the closed form: the window edges, read back from dB,
    # must carry equal finite-difference slopes of the public rate functions
    # and a zero chord residual, and the envelope inside must be that chord.
    lo_db, hi_db = crossover_window()
    s_lo, s_hi = 10.0 ** (lo_db / 10.0), 10.0 ** (hi_db / 10.0)
    h = 1e-6
    slope_jd = (rate_joint_decoding(s_lo + h) - rate_joint_decoding(s_lo - h)) / (2 * h)
    slope_lat = (rate_lattice(s_hi + h) - rate_lattice(s_hi - h)) / (2 * h)
    assert slope_jd == pytest.approx(slope_lat, rel=1e-8)
    residual = rate_lattice(s_hi) - rate_joint_decoding(s_lo) - slope_jd * (s_hi - s_lo)
    assert abs(residual) < 1e-9
    for frac in (0.25, 0.5, 0.75):
        s = s_lo + frac * (s_hi - s_lo)
        env, beta = envelope(s)
        assert env == pytest.approx(rate_joint_decoding(s_lo) + slope_jd * (s - s_lo), abs=1e-9)
        assert beta == pytest.approx(1.0 - frac, abs=1e-9)


def test_envelope_inside_window_beats_both():
    env, beta = envelope(1.5)
    assert env > max(rate_lattice(1.5), rate_joint_decoding(1.5)) + 1e-4
    assert 0.0 < beta < 1.0


def test_envelope_outside_window():
    env_low, beta_low = envelope(0.2)
    assert env_low == pytest.approx(rate_joint_decoding(0.2), abs=1e-12)
    assert beta_low == 1.0
    env_high, beta_high = envelope(100.0)
    assert env_high == pytest.approx(rate_lattice(100.0), abs=1e-12)
    assert beta_high == 0.0


def test_envelope_dominance_grid():
    for db in np.arange(-20.0, 40.0001, 0.05):
        s = 10 ** (db / 10)
        env, _ = envelope(s)
        best = max(rate_lattice(s), rate_joint_decoding(s))
        assert env >= best - 1e-12
        assert env >= rate_anc(s) - 1e-12  # beats amplify-forward everywhere


def test_envelope_equals_max_outside_window():
    lo_db, hi_db = crossover_window()
    for db in list(np.arange(-20, lo_db - 1e-9, 0.25)) + list(np.arange(hi_db + 1e-9, 40, 0.25)):
        s = 10 ** (db / 10)
        env, _ = envelope(s)
        assert abs(env - max(rate_lattice(s), rate_joint_decoding(s))) < 1e-12


def test_grid_row_count():
    assert len(grid_points(-10.0, 30.0, 1.0)) == 41
    assert len(grid_points(-10.0, 30.0, 0.5)) == 81


def test_grid_validation():
    with pytest.raises(ValidationError):
        grid_points(0.0, 10.0, 0.0)
    with pytest.raises(ValidationError):
        grid_points(10.0, 0.0, 1.0)
    # the point-count guard refuses a grid before building any point
    assert len(grid_points(-(GRID_GUARD - 1.0), 0.0, 1.0)) == GRID_GUARD
    for lo, hi, step in ((0.0, GRID_GUARD, 1.0), (0.0, 1e6, 1e-4), (-1e308, 1e308, 1e-300)):
        with pytest.raises(GuardExceededError):
            grid_points(lo, hi, step)


def test_grid_db_range_bound():
    # every rate stays finite up to SNR_DB_MAX; above it the grid is refused
    top = rate_point(SNR_DB_MAX)
    assert all(math.isfinite(v) for v in top.values())
    assert grid_points(SNR_DB_MAX - 10.0, SNR_DB_MAX, 10.0)[-1] == SNR_DB_MAX
    for lo, hi, step in ((3000.0, 3100.0, 10.0), (0.0, SNR_DB_MAX + 0.5, 0.5),
                         (-1e6, 1e6, 1e3)):
        with pytest.raises(ValidationError, match="dB"):
            grid_points(lo, hi, step)


def test_rate_point_ordering():
    p = rate_point(12.0)
    assert p["lattice"] <= p["upper"]
    assert p["envelope"] >= max(p["lattice"], p["jd"])
