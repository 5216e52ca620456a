"""Closed-form exchange rates, the time-sharing envelope, the rate curve, and
the one dB to noise-variance conversion.

All rates are in bits per transmitter per channel use of each phase, as
functions of the linear uplink/downlink SNR.  The envelope concavifies
max(R_jd, R_lattice) over linear SNR: operating the joint-decoding
scheme a fraction beta of the time at SNR s_lo and the lattice scheme
the rest at s_hi, with beta*s_lo + (1-beta)*s_hi equal to the average
SNR, traces the common tangent between the two curves.
"""

from __future__ import annotations

import math

from .errors import GuardExceededError, ValidationError

LN2 = math.log(2.0)
GRID_GUARD = 100_000        # max points on a rate-curve grid
# Highest grid SNR in dB: every rate stays finite (rate_anc squares the
# linear SNR, which overflows above about 1,541 dB).
SNR_DB_MAX = 1000.0


def _check_snr(snr: float) -> float:
    if snr < 0:
        raise ValidationError(f"snr must be >= 0, got {snr}")
    return float(snr)


def check_channel(power: float, sigma2: float) -> None:
    """Refuse a per-dimension power that is not positive and finite, or a
    noise variance that is negative or not finite."""
    if not (math.isfinite(power) and power > 0):
        raise ValidationError(f"power must be positive and finite, got {power}")
    if not (math.isfinite(sigma2) and sigma2 >= 0):
        raise ValidationError(f"noise variance must be >= 0 and finite, got {sigma2}")


def sigma2_from_snr_db(snr_db: float | None, power: float) -> float:
    """Noise variance power / 10^(snr_db/10) per dimension, 0 when snr_db is
    None (noiseless); the pair is refused as `check_channel` refuses it."""
    if snr_db is None:
        sigma2 = 0.0
    else:
        try:
            sigma2 = power / 10.0 ** (snr_db / 10.0)
        except (OverflowError, ZeroDivisionError):
            raise ValidationError(f"snr_db {snr_db} is outside the float range") from None
    check_channel(power, sigma2)
    return sigma2


def rate_upper(snr: float) -> float:
    """Cut-set bound (1/2) log2(1 + snr)."""
    return 0.5 * math.log2(1.0 + _check_snr(snr))


def rate_lattice(snr: float) -> float:
    """Lattice scheme rate max(0, (1/2) log2(1/2 + snr)); zero below snr = 1/2."""
    return max(0.0, 0.5 * math.log2(0.5 + _check_snr(snr)))


def rate_joint_decoding(snr: float) -> float:
    """Time-shared joint decoding at doubled power: (1/4) log2(1 + 2 snr)."""
    return 0.25 * math.log2(1.0 + 2.0 * _check_snr(snr))


def rate_anc(snr: float) -> float:
    """Amplify-and-forward baseline (1/2) log2(1 + snr^2/(3 snr + 1))."""
    s = _check_snr(snr)
    return 0.5 * math.log2(1.0 + s * s / (3.0 * s + 1.0))


def rate_pure_nc(snr: float) -> float:
    """Three-slot store-and-forward network coding: (1/3) log2(1 + snr).

    The 2n channel uses split into three equal slots (uplink A, uplink B,
    XOR broadcast), each carrying the same k bits over 2n/3 uses; per the
    two-phase normalization of n uses each, that is (1/3) log2(1 + snr).
    """
    return (1.0 / 3.0) * math.log2(1.0 + _check_snr(snr))


def _d_rate_jd(s: float) -> float:
    return 1.0 / (2.0 * LN2 * (1.0 + 2.0 * s))


def _tangent_points() -> tuple[float, float, float]:
    """Common tangent of R_jd and R_lattice over linear snr: (s_lo, s_hi, slope).

    Equal slopes 1/(1 + 2 s_lo) = 1/(1/2 + s_hi) force s_hi = 2 s_lo + 1/2.
    The chord R_lattice(s_hi) - R_jd(s_lo) is then (1/4) log2(1 + 2 s_lo) and
    slope*(s_hi - s_lo) is 1/(4 ln 2), so tangency means ln(1 + 2 s_lo) = 1:
    s_lo = (e - 1)/2 and s_hi = e - 1/2.
    """
    s_lo = (math.e - 1.0) / 2.0
    return s_lo, math.e - 0.5, _d_rate_jd(s_lo)


def crossover_window() -> tuple[float, float]:
    """dB window inside which time sharing beats both pure schemes."""
    s_lo, s_hi, _ = _tangent_points()
    return 10.0 * math.log10(s_lo), 10.0 * math.log10(s_hi)


def envelope(snr: float) -> tuple[float, float]:
    """Best time-shared rate at `snr` and the joint-decoding share beta*.

    Outside the tangent window this equals the better pure scheme with
    beta* pinned to 1 (below) or 0 (above).
    """
    s = _check_snr(snr)
    s_lo, s_hi, slope = _tangent_points()
    if s <= s_lo:
        return rate_joint_decoding(s), 1.0
    if s >= s_hi:
        return rate_lattice(s), 0.0
    beta = (s_hi - s) / (s_hi - s_lo)
    return rate_joint_decoding(s_lo) + slope * (s - s_lo), beta


def rate_point(snr_db: float) -> dict[str, float]:
    """The rate-table row at `snr_db`, keyed by the table's columns in order:
    snr_db, upper, lattice, jd, envelope, anc, purenc, beta_star."""
    snr = 10.0 ** (snr_db / 10.0)
    env, beta = envelope(snr)
    return {"snr_db": snr_db, "upper": rate_upper(snr), "lattice": rate_lattice(snr),
            "jd": rate_joint_decoding(snr), "envelope": env, "anc": rate_anc(snr),
            "purenc": rate_pure_nc(snr), "beta_star": beta}


def grid_points(snr_db_min: float, snr_db_max: float, step_db: float) -> list[float]:
    """The dB grid from `snr_db_min` to `snr_db_max` in steps of `step_db`,
    refused before any point is built if it is empty, too long or too high."""
    if step_db <= 0:
        raise ValidationError(f"grid step must be positive, got {step_db}")
    if snr_db_max < snr_db_min:
        raise ValidationError("grid max below min")
    # Compared as a float, so a span too wide to count is refused too.
    if (snr_db_max - snr_db_min) / step_db + 1e-9 >= GRID_GUARD:
        raise GuardExceededError(f"grid has more than {GRID_GUARD} points")
    if snr_db_max > SNR_DB_MAX:
        raise ValidationError(f"grid max {snr_db_max} dB is above {SNR_DB_MAX} dB")
    count = int(math.floor((snr_db_max - snr_db_min) / step_db + 1e-9)) + 1
    return [snr_db_min + i * step_db for i in range(count)]


def rate_curve(snr_db_min: float, snr_db_max: float,
               step_db: float) -> tuple[dict[str, float], ...]:
    """The `rate_point` row of every `grid_points` point."""
    return tuple(rate_point(db) for db in grid_points(snr_db_min, snr_db_max, step_db))
