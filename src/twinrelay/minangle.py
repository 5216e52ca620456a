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

from .errors import DirectionCollisionError, GuardExceededError, ValidationError
from .lattice import scan_rows
from .rates import check_channel

BALL_GUARD = 100_000        # max points per ball codebook
PAIR_GUARD = 10_000_000     # max enumerated codeword pairs
CONC_BATCH = 1000           # pair draws per concentration trial
_EPS64 = float(np.finfo(float).eps)


@dataclass(frozen=True)
class ShellSpec:
    """Thin spherical shell around radius sqrt(2*n*P) with half-width delta."""

    n: int
    power: float
    delta: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"dimension must be >= 1, got {self.n}")
        if not 0 < self.power < math.inf:
            raise ValidationError(f"power must be positive and finite, got {self.power}")
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
        if not (0 < self.gamma < math.inf and 0 < self.power < math.inf and np.isfinite(s).all()):
            raise ValidationError("gamma and power must be positive and finite, and s finite")
        self.translation = s
        radius = math.sqrt(n * self.power)
        # Bounding-box sweep: every coordinate of an in-ball point satisfies
        # |gamma*m + s_i| <= radius, so the integer ranges below are complete.
        # The count stops growing past the guard; an empty range still zeroes it.
        # Python floats, so a subnormal gamma overflows to inf without a warning.
        box_guard = 20 * BALL_GUARD
        gamma = float(self.gamma)
        ranges = []
        box_count = 1
        for si in s.tolist():
            lo, hi = (-radius - si) / gamma, (radius - si) / gamma
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
    code_keys: np.ndarray        # each codeword's key
    sum_keys: np.ndarray         # the distinct sums' keys (a sum's identity), ascending
    key_low: np.ndarray          # the box's lowest corner: units - key_low index the box
    key_box: tuple               # the box's shape
    sum_points: np.ndarray       # the distinct sums' coordinates, in key order
    shell_keys: np.ndarray       # the on-shell sums' keys, ascending
    shell_points: np.ndarray     # the on-shell sums' coordinates, in key order

    @classmethod
    def from_codebook(cls, cb: BallCodebook, shell: ShellSpec) -> "SumCodebook":
        if cb.size ** 2 > PAIR_GUARD:
            raise GuardExceededError(f"{cb.size ** 2} pairs exceed guard {PAIR_GUARD}")
        # A codeword's key is its row-major index in the box of pair sums, so a
        # pair's key is the sum of its codewords'; keys order sums lexicographically.
        lo = cb.units.min(axis=0)
        box = tuple(2 * (cb.units.max(axis=0) - lo) + 1)
        key = np.ravel_multi_index(tuple((cb.units - lo).T), box)
        # Deduplicated by row chunks, each paired with the codewords from its
        # first row on (a swap has the same key), so no (m, m) array exists.
        # Codeword keys ascend, so a stable sort (timsort) merges the rows' runs.
        uniq = key[:0]
        for sl in scan_rows(cb.size, cb.size):
            part = np.sort(np.append(uniq, key[sl, None] + key[sl.start:]), kind="stable")
            uniq = part[np.diff(part, prepend=-1) > 0]
        units = np.stack(np.unravel_index(uniq, box), axis=1) + 2 * lo
        pts = cb.gamma * units + 2.0 * cb.translation
        on_shell = shell.contains_sq(np.einsum("ij,ij->i", pts, pts))
        return cls(codebook=cb, code_keys=key, sum_keys=uniq, key_low=2 * lo, key_box=box,
                   sum_points=pts, shell_keys=uniq[on_shell], shell_points=pts[on_shell])


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


def nearest_sum(y: np.ndarray, sums: SumCodebook) -> np.ndarray:
    """Row of the sum point nearest to each row of y (m, n); ties to the lowest row.

    The unrestricted maximum-likelihood reference for the angle decoder: the
    argmin of the float64 squared distances from y to every `sum_points` row.
    Every sum lies on gamma*Z^n + 2s, whose point nearest to y is
    gamma*w + 2s with w = rint(t), t = (y - 2s)/gamma (Conway & Sloane, 1982),
    so a w whose key is among `sum_keys` is the nearest sum, at that key's
    position.  Rows whose w leaves the key box or is not a sum, and rows
    with margin mu = 1/2 - max_i |t_i - w_i| below slack = 4*eps64*(n^2 + R),
    R = max_i (|y_i| + 2|s_i|)/gamma, are scanned in row chunks of at most
    SCAN_WORKSET coordinate differences.

    Past the slack the scan's argmin is w, strictly.  In units of gamma and
    to first order (second-order terms fit in the slack's factor 2, as a
    decided row has eps64*R < 1/8): computed t errs by at most eps64*R a
    coordinate, and t - w and mu are exact (Sterbenz) or mu > 1/4, so the
    true margin is at least mu - eps64*R.  For a sum v at G_i = |v_i - t_i|,
    the stored fl(fl(gamma*v_i) + 2s_i), its difference from y_i and the
    square err by at most eps64*(4G_i^2 + 2G_i*R) as a distance term; the
    sum of n non-negative terms errs by a factor n*eps64/2 in any order.
    Where v_i = w_i the terms are bit-identical and together at most n/4.
    Where v_i != w_i, G_i >= 1 - e_i with e_i = |t_i - w_i| for the true t,
    and G_i^2 - e_i^2 >= 1 - 2e_i >= 2(mu - eps64*R); the term gap less its
    errors grows with G_i, so v loses to w once
    mu > eps64*(n(n+1)/8 + 1 + 2R), at most half the slack.
    """
    cb = sums.codebook
    shift = 2.0 * cb.translation[:, None]
    yt = np.ascontiguousarray(y.T)  # (n, m): reductions run across rows
    t = (yt - shift) / cb.gamma
    w = np.rint(t)
    units = w - sums.key_low[:, None]
    # Boxed in float, so no row outside the box meets an int64 cast.
    inside = ((units >= 0) & (units < np.array(sums.key_box)[:, None])).all(axis=0)
    key = np.ravel_multi_index(tuple(np.where(inside, units, 0).astype(np.intp)), sums.key_box)
    row = np.searchsorted(sums.sum_keys, key).clip(max=sums.sum_keys.size - 1)
    margin = 0.5 - np.abs(t - w).max(axis=0)
    slack = 4 * _EPS64 * (cb.n ** 2 + (np.abs(yt).max(axis=0) + np.abs(shift).max()) / cb.gamma)
    out = np.where(inside & (sums.sum_keys[row] == key) & (margin >= slack), row, -1)
    rest = np.flatnonzero(out < 0)
    for sl in scan_rows(rest.size, sums.sum_points.size):
        diff = sums.sum_points - y[rest[sl], None, :]
        out[rest[sl]] = np.argmin(np.einsum("cmn,cmn->cm", diff, diff), axis=1)
    return out


def check_distinct_directions(units: np.ndarray) -> None:
    """Abort if two rows of nonzero integer vectors (S, n) share a direction
    (angle decoding ambiguous).

    Two rows share a direction exactly when they are equal once each is
    divided by the gcd of its entries: when their keys in the box of those
    primitive rows are equal.  The pair reported is the first row whose
    direction an earlier row has, and that earlier row.
    """
    primitive = units // np.gcd.reduce(units, axis=1, keepdims=True)
    low = primitive.min(axis=0)
    key = np.ravel_multi_index(tuple((primitive - low).T), tuple(primitive.max(axis=0) - low + 1))
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    repeats = np.flatnonzero(first[inverse] != np.arange(units.shape[0]))
    if repeats.size:
        j = int(repeats[0])
        i = int(first[inverse[j]])
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
    """`count` batches of CONC_BATCH ball pairs; counts sums falling off the shell.

    By rotation invariance only three scalars per pair matter: the squared
    radii s = U^(2/n) of the two ball points in units of nP, and the cosine
    c between their directions, g / sqrt(g^2 + 2 * Gamma((n-1)/2)) for a
    standard normal g (the first coordinate of a uniform direction; c = +-1
    at n = 1).  Then |x1 + x2|^2 / nP = s1 + s2 + 2 sqrt(s1 s2) c, in four
    draws of CONC_BATCH scalars whatever n is, and the shell is
    [2 - delta/P, 2 + delta/P] in the same units, so no power under- or
    overflows.  Batches are drawn one after another, so memory stays at one
    batch.
    """
    n = int(params["n"])
    power = float(params["power"])
    delta = float(params["delta"])
    ShellSpec(n=n, power=power, delta=delta)  # validates the arguments
    lo, hi = 2.0 - delta / power, 2.0 + delta / power
    off = 0
    for _ in range(count):
        s1, s2 = rng.random((2, CONC_BATCH)) ** (2.0 / n)
        g = rng.standard_normal(CONC_BATCH)
        cos = g / np.sqrt(g * g + 2.0 * rng.standard_gamma((n - 1) / 2.0, CONC_BATCH))
        norm_sq = s1 + s2 + 2.0 * np.sqrt(s1 * s2) * cos
        off += int(np.count_nonzero((norm_sq < lo) | (norm_sq > hi)))
    return {"off_shell": off, "samples": count * CONC_BATCH}


# ---------------------------------------------------------------------------
# Decoder error rate experiment
# ---------------------------------------------------------------------------

@lru_cache(maxsize=16)
def _decoder_instance(n: int, gamma: float, power: float, delta: float) -> SumCodebook:
    """The pair sums of both nodes' half-cell codebook, checked for angle decoding."""
    shell = ShellSpec(n=n, power=power, delta=delta)
    sums = SumCodebook.from_codebook(half_cell_codebook(n, gamma, power), shell)
    if not sums.shell_keys.size:
        raise ValidationError("no sum points on the shell; widen delta")
    # The half-cell translation makes each sum gamma * (u_i + u_j + 1).
    units = np.stack(np.unravel_index(sums.shell_keys, sums.key_box), axis=1) + sums.key_low
    check_distinct_directions(units + 1)
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
    """Codeword pairs and noise for `count` decodes, each kind drawn as one array.

    The noise is drawn last and at every sigma2 >= 0, so it is sigma times
    the same standard normals at every SNR, and exact zeros when noiseless.
    """
    sigma2 = float(params["sigma2"])
    check_channel(float(params["power"]), sigma2)
    cb = decoder_instance(params).codebook
    i = rng.integers(cb.size, size=count)
    j = rng.integers(cb.size, size=count)
    y = cb.points[i] + cb.points[j] + rng.normal(0.0, math.sqrt(sigma2), size=(count, cb.n))
    return MinAngleDraws(i, j, y)


def minangle_rows(draws: MinAngleDraws, params: Mapping) -> dict[str, np.ndarray]:
    """Per-decode outcomes of a block.

    The union-bound total error counts off-shell sums as losses; the
    on-shell-conditioned error, the off-shell flag, and an unrestricted
    nearest-sum ML reference decoded over every distinct sum.
    """
    sums = decoder_instance(params)
    key = sums.code_keys[draws.i] + sums.code_keys[draws.j]
    ml_error = sums.sum_keys[nearest_sum(draws.y, sums)] != key
    shell_row = np.searchsorted(sums.shell_keys, key).clip(max=sums.shell_keys.size - 1)
    on_shell = sums.shell_keys[shell_row] == key
    wrong = sums.shell_keys[min_angle_decode(draws.y, sums.shell_points)] != key
    return {"angle_error": ~on_shell | wrong, "angle_error_on_shell": on_shell & wrong,
            "off_shell": ~on_shell, "ml_error": ml_error}


def minangle_kernel(params: Mapping, rng: np.random.Generator, count: int) -> Mapping[str, int]:
    """Outcome totals of `count` random pairs through AWGN, angle-decoded
    among on-shell sums (see `minangle_rows`)."""
    rows = minangle_rows(draw_minangle(rng, count, params), params)
    return {key: int(np.count_nonzero(v)) for key, v in rows.items()}


MINANGLE_ERROR_KEYS = ("angle_error", "ml_error")
