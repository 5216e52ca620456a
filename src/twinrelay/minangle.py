"""Ball-intersection codebooks and minimum-angle decoding.

Codewords are points of a translated scaled integer lattice inside the
closed ball of radius sqrt(n*P).  The receiver cares only about the sum
x1 + x2, which for large n concentrates on a thin shell around radius
sqrt(2*n*P); the minimum-angle decoder picks the on-shell sum at the
smallest angle to the received vector, discarding radial information, so
it needs no projection onto the shell.  Off-shell sums are counted as
automatic decoder losses, mirroring the union-bound accounting that
motivates the decoder, and are also reported separately.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from typing import Mapping

import numpy as np

from . import harness
from .errors import DirectionCollisionError, GuardExceededError, ValidationError
from .lattice import scan_rows

BALL_GUARD = 100_000        # max points per ball codebook
PAIR_GUARD = 10_000_000     # max enumerated codeword pairs
CONC_BATCH = 1000           # pair draws per concentration trial


@dataclass(frozen=True)
class ShellSpec:
    """Thin spherical shell around radius sqrt(2*n*P) with half-width delta."""

    n: int
    power: float
    delta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.n}")
        if self.power <= 0:
            raise ValidationError(f"power must be positive, got {self.power}")
        if not 0.0 < self.delta < 2.0 * self.power:
            raise ValidationError(
                f"delta must lie in (0, 2P) = (0, {2 * self.power}), got {self.delta}"
            )

    def contains_sq(self, norm_sq) -> np.ndarray:
        lo = self.n * (2.0 * self.power - self.delta)
        hi = self.n * (2.0 * self.power + self.delta)
        arr = np.asarray(norm_sq)
        return (arr >= lo) & (arr <= hi)


@dataclass(eq=False)
class BallCodebook:
    """Points of gamma*Z^n + s inside the closed ball of radius sqrt(n*P)."""

    gamma: float
    translation: np.ndarray
    power: float
    units: np.ndarray = field(init=False, repr=False)
    points: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        s = np.asarray(self.translation, dtype=float)
        n = s.shape[0]
        if n < 1:
            raise ValidationError(f"dimension must be >= 1, got {n}")
        if self.gamma <= 0 or self.power <= 0:
            raise ValidationError("gamma and power must be positive")
        self.translation = s
        radius = math.sqrt(n * self.power)
        # Bounding-box sweep: every coordinate of an in-ball point satisfies
        # |gamma*m + s_i| <= radius, so the integer ranges below are complete.
        # The count stops growing past the guard; an empty range still zeroes it.
        box_guard = 20 * BALL_GUARD
        ranges = []
        box_count = 1
        for i in range(n):
            lo, hi = (-radius - s[i]) / self.gamma, (radius - s[i]) / self.gamma
            if not (math.isfinite(lo) and math.isfinite(hi)):
                box_count = box_guard + 1
                break
            lo, hi = math.ceil(lo), math.floor(hi)
            ranges.append(range(lo, hi + 1))
            box_count = min(box_count * max(0, hi - lo + 1), box_guard + 1)
        if box_count > box_guard:
            raise GuardExceededError(f"bounding box has more than {box_guard} points")
        units = np.array([m for m in product(*ranges)], dtype=np.int64).reshape(-1, n)
        pts = self.gamma * units + s
        keep = np.einsum("ij,ij->i", pts, pts) <= n * self.power + 1e-12
        self.units = units[keep]
        self.points = pts[keep]
        if self.size > BALL_GUARD:
            raise GuardExceededError(f"ball codebook size {self.size} exceeds {BALL_GUARD}")
        if self.size == 0:
            raise ValidationError("ball codebook is empty; increase power or shrink gamma")

    @property
    def n(self) -> int:
        return int(self.translation.shape[0])

    @property
    def size(self) -> int:
        return int(self.units.shape[0])


def half_cell_codebook(n: int, gamma: float, power: float) -> BallCodebook:
    """Default construction: translation at the center of the fundamental cell."""
    return BallCodebook(gamma=gamma, translation=np.full(n, gamma / 2.0), power=power)


@dataclass(eq=False)
class SumCodebook:
    """All pairwise sums x_i + x_j of one ball codebook with itself (both
    transmitters use the same lattice), partitioned by shell membership."""

    codebook: BallCodebook
    sum_units: np.ndarray        # distinct sums, integer units, in lexicographic order
    sum_points: np.ndarray       # distinct sums, coordinates
    on_shell: np.ndarray         # bool per distinct sum
    pair_to_sum: np.ndarray      # (m, m) row of each pair's sum in sum_units
    shell_points: np.ndarray     # the on-shell sum points
    shell_row: np.ndarray        # row of each sum in shell_points, -1 off the shell

    @classmethod
    def from_codebook(cls, cb: BallCodebook, shell: ShellSpec) -> "SumCodebook":
        total = cb.size * cb.size
        if total > PAIR_GUARD:
            raise GuardExceededError(f"{total} pairs exceed guard {PAIR_GUARD}")
        # Each codeword's row-major index in the box of pair sums.  The index
        # is linear, so a pair's is the sum of its codewords', and it orders
        # the sums lexicographically.
        lo = cb.units.min(axis=0)
        box = tuple(2 * (cb.units.max(axis=0) - lo) + 1)
        key = np.ravel_multi_index(tuple((cb.units - lo).T), box)
        uniq, inverse = np.unique(key[:, None] + key[None, :], return_inverse=True)
        units = np.stack(np.unravel_index(uniq, box), axis=1) + 2 * lo
        pts = cb.gamma * units + 2.0 * cb.translation
        on_shell = shell.contains_sq(np.einsum("ij,ij->i", pts, pts))
        return cls(
            codebook=cb, sum_units=units, sum_points=pts, on_shell=on_shell,
            pair_to_sum=inverse.reshape(cb.size, cb.size), shell_points=pts[on_shell],
            shell_row=np.where(on_shell, np.cumsum(on_shell) - 1, -1),
        )


def min_angle_decode(y: np.ndarray, points: np.ndarray):
    """Index of the candidate at minimum angle to each row of y (..., n); ties
    to the lowest index.  A single row (shape (n,)) returns an int.

    Equivalent to nearest-projection decoding: the angle to a point equals
    the angle to its shell projection, so candidates may be passed either
    raw or projected.
    """
    points = np.asarray(points, dtype=float)
    if points.ndim != 2 or points.shape[0] == 0:
        raise ValidationError("candidate set must be a non-empty 2-D array")
    y = np.asarray(y, dtype=float)
    rows = y.reshape(-1, points.shape[1])
    norms = np.linalg.norm(points, axis=1)
    out = np.empty(rows.shape[0], dtype=np.int64)
    for sl in scan_rows(rows.shape[0], points.shape[0]):
        out[sl] = np.argmax(np.einsum("mn,cn->cm", points, rows[sl]) / norms, axis=1)
    return int(out[0]) if y.ndim == 1 else out.reshape(y.shape[:-1])


def nearest_sum(y: np.ndarray, sum_points: np.ndarray) -> np.ndarray:
    """Row of the sum point nearest to each row of y (m, n); ties to the lowest row.

    The unrestricted maximum-likelihood reference for the angle decoder,
    scanned in row chunks of at most SCAN_WORKSET coordinate differences.
    """
    out = np.empty(y.shape[0], dtype=np.int64)
    for sl in scan_rows(y.shape[0], sum_points.size):
        diff = sum_points - y[sl, None, :]
        out[sl] = np.argmin(np.einsum("cmn,cmn->cm", diff, diff), axis=1)
    return out


def check_distinct_directions(units: np.ndarray) -> None:
    """Abort if two rows of nonzero integer vectors (S, n) share a direction
    (angle decoding ambiguous).

    Two rows share a direction exactly when they are equal once each is
    divided by the gcd of its entries.  The pair reported is the first row
    whose direction an earlier row has, and that earlier row.
    """
    primitive = units // np.gcd.reduce(units, axis=1, keepdims=True)
    _, first, inverse = np.unique(primitive, axis=0, return_index=True,
                                  return_inverse=True)
    earlier = first[inverse.ravel()]
    repeats = np.flatnonzero(earlier != np.arange(units.shape[0]))
    if repeats.size:
        j = int(repeats[0])
        i = int(earlier[j])
        raise DirectionCollisionError(
            f"sum points {i} and {j} (gamma * {units[i].tolist()} and gamma * "
            f"{units[j].tolist()}) share a direction, so angle decoding is "
            "ambiguous; choose a thinner shell (--delta) or another --gamma"
        )


# ---------------------------------------------------------------------------
# Concentration of x1 + x2 on the shell
# ---------------------------------------------------------------------------

def concentration_kernel(params: Mapping, rng: np.random.Generator,
                         count: int) -> Mapping[str, int]:
    """`count` batches of uniform ball pairs; counts sums falling off the shell.

    By rotation invariance only three scalars per pair matter: the squared
    radii s = U^(2/n) of the two ball points in units of nP, and the cosine
    c between their directions, g / sqrt(g^2 + 2 * Gamma((n-1)/2)) for a
    standard normal g (the first coordinate of a uniform direction; c = +-1
    at n = 1).  Then |x1 + x2|^2 / nP = s1 + s2 + 2 sqrt(s1 s2) c, in four
    draws of `batch` scalars whatever n is, and the shell is
    [2 - delta/P, 2 + delta/P] in the same units, so no power under- or
    overflows.  Batches are drawn one after another, so memory stays at one
    batch.
    """
    n = int(params["n"])
    power = float(params["power"])
    delta = float(params["delta"])
    batch = int(params["batch"])
    ShellSpec(n=n, power=power, delta=delta)  # validates the arguments
    lo, hi = 2.0 - delta / power, 2.0 + delta / power
    off = 0
    for _ in range(count):
        s1, s2 = rng.random((2, batch)) ** (2.0 / n)
        g = rng.standard_normal(batch)
        cos = g / np.sqrt(g * g + 2.0 * rng.standard_gamma((n - 1) / 2.0, batch))
        norm_sq = s1 + s2 + 2.0 * np.sqrt(s1 * s2) * cos
        off += int(np.count_nonzero((norm_sq < lo) | (norm_sq > hi)))
    return {"off_shell": off, "samples": count * batch}


harness.register_experiment("concentration", concentration_kernel)


# ---------------------------------------------------------------------------
# Decoder error rate experiment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _decoder_instance(n: int, gamma: float, power: float, delta: float) -> SumCodebook:
    """The pair sums of both nodes' half-cell codebook, checked for angle decoding."""
    shell = ShellSpec(n=n, power=power, delta=delta)
    sums = SumCodebook.from_codebook(half_cell_codebook(n, gamma, power), shell)
    if not sums.on_shell.any():
        raise ValidationError("no sum points on the shell; widen delta")
    # The half-cell translation makes each sum gamma * (u_i + u_j + 1).
    check_distinct_directions(sums.sum_units[sums.on_shell] + 1)
    return sums


def decoder_instance(params: Mapping) -> SumCodebook:
    """The cached `_decoder_instance` of a `minangle` experiment's params."""
    return _decoder_instance(int(params["n"]), float(params["gamma"]),
                             float(params["power"]), float(params["delta"]))


@dataclass(eq=False)
class MinAngleDraws:
    """The random inputs of a block of decodes, one row per decode: the
    codeword pair (i, j) and the received sum y = x1[i] + x2[j] + noise."""

    i: np.ndarray
    j: np.ndarray
    y: np.ndarray


def draw_minangle(rng: np.random.Generator, count: int, params: Mapping) -> MinAngleDraws:
    """Codeword pairs and noise for `count` decodes, each kind drawn as one array."""
    cb = decoder_instance(params).codebook
    i = rng.integers(cb.size, size=count)
    j = rng.integers(cb.size, size=count)
    y = cb.points[i] + cb.points[j]
    sigma2 = float(params["sigma2"])
    if sigma2 > 0:
        y = y + rng.normal(0.0, math.sqrt(sigma2), size=y.shape)
    return MinAngleDraws(i, j, y)


def minangle_rows(draws: MinAngleDraws, params: Mapping) -> dict[str, np.ndarray]:
    """Per-decode outcomes of a block.

    The union-bound total error counts off-shell sums as losses; the
    on-shell-conditioned error, the off-shell flag, and an unrestricted
    nearest-sum ML reference decoded over every distinct sum.
    """
    sums = decoder_instance(params)
    true_sum_row = sums.pair_to_sum[draws.i, draws.j]
    ml_error = nearest_sum(draws.y, sums.sum_points) != true_sum_row
    on_shell = sums.on_shell[true_sum_row]
    wrong = min_angle_decode(draws.y, sums.shell_points) != sums.shell_row[true_sum_row]
    return {"angle_error": ~on_shell | wrong, "angle_error_on_shell": on_shell & wrong,
            "off_shell": ~on_shell, "ml_error": ml_error}


def minangle_kernel(params: Mapping, rng: np.random.Generator, count: int) -> Mapping[str, int]:
    """Outcome totals of `count` random pairs through AWGN, angle-decoded
    among on-shell sums (see `minangle_rows`)."""
    rows = minangle_rows(draw_minangle(rng, count, params), params)
    return {key: int(np.count_nonzero(v)) for key, v in rows.items()}


harness.register_experiment("minangle", minangle_kernel)

MINANGLE_ERROR_KEYS = ("angle_error", "ml_error")
