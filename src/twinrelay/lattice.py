"""Construction-A nested lattice pairs and their modulo arithmetic.

The coarse (shaping) lattice is the scaled integer lattice gamma*q*Z^n,
whose Voronoi region is the half-open hypercube [-gamma*q/2, gamma*q/2)^n
and whose second moment per dimension is (gamma*q)^2/12.  Choosing
gamma = sqrt(12*P)/q makes that second moment equal the transmit power P.

The fine (coding) lattice is gamma*(C + q*Z^n) for a linear code
C = {u*G mod q : u in Z_q^k}.  The codebook is the set of fine points
inside the coarse Voronoi cell; with a systematic generator it has
exactly q^k elements for any modulus q.  A codeword is its message index:
the integer whose base-q digits (least significant first) are the message
u, with codebook row u*G folded into [-q/2, q/2) in units of gamma.  By
linearity u_a*G + u_b*G = (u_a + u_b)*G (mod q), so the modulo sum and
difference of two codewords are digit-wise mod-q sums and differences of
their messages, exact with zero tolerance.  A parallel exact-rational
path (`mod_units_exact`) covers non-integer vectors via Fractions.
`quantize_fine` scores rows against the whole codebook as one float32
product of a separable cost table with a one-hot codebook matrix, exact
against the `wrapped_sq_distances` argmin (see `_nearest`).
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, GuardExceededError, ValidationError
from .rng import generator

if TYPE_CHECKING:
    from fractions import Fraction

ENUMERATION_GUARD = 1 << 20  # max codebook size q**k
# Max entries n*q*size of the one-hot codebook matrix (256 MB of float32).
ONE_HOT_GUARD = 1 << 26
# Elements of one scan array: the distances from 24 rows to the 4,096
# points of the Golay [24,12] codebook, so batching keeps memory flat.
SCAN_WORKSET = 4096 * 24
_EPS32 = float(np.finfo(np.float32).eps)


# ---------------------------------------------------------------------------
# Coarse lattice
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoarseLattice:
    """Scaled integer lattice gamma*q*Z^n used for shaping and power control."""

    n: int
    q: int
    gamma: float

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValidationError(f"dimension must be positive, got {self.n}")
        if self.q < 2:
            raise ValidationError(f"modulus must be >= 2, got {self.q}")
        if self.gamma <= 0:
            raise ValidationError(f"shaping scale must be positive, got {self.gamma}")

    @classmethod
    def for_power(cls, n: int, q: int, power: float) -> "CoarseLattice":
        """Pick gamma so the cube second moment equals `power`."""
        if power <= 0:
            raise ValidationError(f"power must be positive, got {power}")
        return cls(n=n, q=q, gamma=math.sqrt(12.0 * power) / q)

    @property
    def cell(self) -> float:
        """Side length gamma*q of the Voronoi hypercube."""
        return self.gamma * self.q

    @property
    def second_moment(self) -> float:
        """Per-dimension second moment (gamma*q)^2 / 12 of the cube."""
        return self.cell ** 2 / 12.0

    @property
    def volume(self) -> float:
        return self.cell ** self.n

    def check_dim(self, x: np.ndarray) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if x.shape[-1] != self.n:
            raise DimensionMismatchError(
                f"vector length {x.shape[-1]} does not match lattice dimension {self.n}"
            )
        return x


def mod_coarse(x: np.ndarray, coarse: CoarseLattice) -> np.ndarray:
    """Fold x into the half-open cube [-cell/2, cell/2)^n componentwise.

    Identical to subtracting the nearest coarse lattice point, with the
    upper face excluded so the result is unique for every input.
    """
    x = coarse.check_dim(x)
    cell = coarse.cell
    y = x - cell * np.floor(x / cell + 0.5)
    # Guard against float rounding landing exactly on the excluded face.
    y = np.where(y >= cell / 2, y - cell, y)
    y = np.where(y < -cell / 2, y + cell, y)
    return y


def centered_units(u: np.ndarray, q: int) -> np.ndarray:
    """Integer fold of u into [-q/2, q/2) mod q, exact for any parity of q."""
    u = np.asarray(u)
    return (u + q // 2) % q - q // 2


def mod_units_exact(values: Iterable, q: int) -> tuple[Fraction, ...]:
    """Exact-rational fold into [-q/2, q/2), for zero-tolerance algebra.

    Accepts ints or Fractions (coordinates measured in units of gamma);
    returns Fractions.  Mirrors `mod_coarse` without any floating point.
    """
    from fractions import Fraction  # only the exact-algebra checks need it

    out = []
    half = Fraction(1, 2)
    for v in values:
        f = Fraction(v)
        out.append(f - q * math.floor(f / q + half))
    return tuple(out)


# ---------------------------------------------------------------------------
# Dither
# ---------------------------------------------------------------------------

def dither(rng: np.random.Generator, coarse: CoarseLattice,
           count: int | None = None) -> np.ndarray:
    """A dither vector, or `count` rows of them, uniform over [-cell/2, cell/2)^n."""
    half = coarse.cell / 2.0
    return rng.uniform(-half, half, size=coarse.n if count is None else (count, coarse.n))


# ---------------------------------------------------------------------------
# Nested pair and codebook
# ---------------------------------------------------------------------------

def _enumerate_messages(q: int, k: int) -> np.ndarray:
    """All q^k messages, ordered by base-q index (least significant digit first)."""
    m = q ** k
    idx = np.arange(m)
    digits = np.empty((m, k), dtype=np.int64)
    for j in range(k):
        digits[:, j] = idx % q
        idx = idx // q
    return digits


@dataclass(eq=False)
class NestedLatticePair:
    """Coarse shaping lattice plus a mod-q linear code defining the fine lattice.

    The codebook is stored once, as read-only int32 `codebook_units` (one
    row per message index, in units of gamma); coordinates are derived.
    """

    coarse: CoarseLattice
    generator_matrix: np.ndarray
    codebook_units: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        G = np.asarray(self.generator_matrix, dtype=np.int64) % self.coarse.q
        if G.ndim != 2 or G.shape[1] != self.coarse.n:
            raise ValidationError(
                f"generator must be k x n with n={self.coarse.n}, got shape {G.shape}"
            )
        self.generator_matrix = G
        q, k = self.coarse.q, G.shape[0]
        if q ** k > ENUMERATION_GUARD:
            raise GuardExceededError(
                f"codebook size {q}^{k} exceeds enumeration guard {ENUMERATION_GUARD}"
            )
        codewords = _enumerate_messages(q, k) @ G
        codewords %= q
        # u -> u*G is linear, so its codewords are distinct iff only the zero
        # message maps to the zero codeword.
        if np.count_nonzero(~codewords.any(axis=1)) != 1:
            raise ValidationError(
                "generator does not produce q^k distinct codewords; "
                "use a systematic (full-rank) generator"
            )
        self._place = q ** np.arange(k, dtype=np.int64)
        # Full code <=> fine lattice is gamma*Z^n; quantization then separates
        # per coordinate: the residues of the rounded coordinates, read as a
        # base-q key, index a lookup array of length q^n.
        self._is_full_code = k == self.coarse.n
        if self._is_full_code:
            self._lookup = np.empty(q ** k, dtype=np.int64)
            self._lookup[codewords @ self._place] = np.arange(q ** k)
        # `centered_units` in place, so a large codebook leaves no transient
        # arrays resident in the heap.
        codewords += q // 2
        codewords %= q
        codewords -= q // 2
        self.codebook_units = codewords.astype(np.int32)
        self.codebook_units.flags.writeable = False

    @cached_property
    def _index_of(self) -> dict[tuple[int, ...], int]:
        return {tuple(int(c) for c in row): i for i, row in enumerate(self.codebook_units)}

    @cached_property
    def _levels(self) -> np.ndarray:
        """gamma * v for the residues 0..q-1, v their centered units."""
        return self.coarse.gamma * centered_units(np.arange(self.q), self.q).astype(float)

    @cached_property
    def _one_hot(self) -> np.ndarray:
        """float32 (n*q, size): row i*q + r is 1 where codeword coordinate i is r mod q."""
        n, q, size = self.n, self.q, self.size
        if n * q * size > ONE_HOT_GUARD:
            raise GuardExceededError(
                f"one-hot codebook of {n}*{q}*{size} entries exceeds {ONE_HOT_GUARD}")
        one_hot = np.zeros((n * q, size), dtype=np.float32)
        cols = np.arange(size)
        for i in range(n):  # one coordinate at a time: no (n, size) transients
            one_hot[i * q + self.codebook_units[:, i] % q, cols] = 1.0
        return one_hot

    @property
    def codebook_coords(self) -> np.ndarray:
        """Read-only (size, n) coordinates gamma * units of every codebook point."""
        return _coords(self, slice(None))

    @property
    def n(self) -> int:
        return self.coarse.n

    @property
    def q(self) -> int:
        return self.coarse.q

    @property
    def k(self) -> int:
        return int(self.generator_matrix.shape[0])

    @property
    def size(self) -> int:
        return self.codebook_units.shape[0]

    @property
    def rate(self) -> float:
        """Coding rate (k/n) log2 q in bits per dimension."""
        return self.k / self.n * math.log2(self.q)

    def index_of_units(self, units: Sequence[int]) -> int:
        return self._index_of[tuple(int(u) for u in units)]

    def digits(self, index) -> np.ndarray:
        """Base-q message digits of codebook indices, shape (..., k), least
        significant first."""
        return np.asarray(index)[..., None] // self._place % self.q

    def index_of_digits(self, digits: np.ndarray):
        """Codebook indices of message digits (..., k), each digit taken mod q."""
        return _index(digits % self.q @ self._place)


def systematic_generator(n: int, k: int, q: int, seed: int | None = None) -> np.ndarray:
    """Systematic generator [I_k | A]; guarantees q^k distinct codewords.

    With seed=None the parity part is the fixed pattern A[i,j] = (i+j+1) mod q;
    with a seed it is drawn uniformly.
    """
    if not 1 <= k <= n:
        raise ValidationError(f"need 1 <= k <= n, got k={k}, n={n}")
    G = np.zeros((k, n), dtype=np.int64)
    G[:, :k] = np.eye(k, dtype=np.int64)
    if n > k:
        if seed is None:
            i, j = np.indices((k, n - k))
            G[:, k:] = (i + j + 1) % q
        else:
            G[:, k:] = generator(seed).integers(0, q, size=(k, n - k))
    return G


def make_pair(
    n: int,
    q: int,
    k: int,
    power: float = 1.0,
    generator_matrix: Sequence[Sequence[int]] | None = None,
    seed: int | None = None,
) -> NestedLatticePair:
    """Convenience constructor from plain parameters."""
    coarse = CoarseLattice.for_power(n, q, power)
    if generator_matrix is None:
        generator_matrix = systematic_generator(n, k, q, seed=seed)
    return NestedLatticePair(coarse=coarse, generator_matrix=np.asarray(generator_matrix))


# ---------------------------------------------------------------------------
# Codebook operations
# ---------------------------------------------------------------------------

def _index(a: np.ndarray):
    """A 0-d index array as a plain int (the one-row case); arrays pass through."""
    return int(a) if a.ndim == 0 else a


def scan_rows(rows: int, width: int) -> Iterator[slice]:
    """Row slices whose (rows, width) scan array stays within SCAN_WORKSET elements."""
    step = max(1, SCAN_WORKSET // width)
    for start in range(0, rows, step):
        yield slice(start, start + step)


def _coords(pair: NestedLatticePair, index) -> np.ndarray:
    """Read-only coordinates gamma * units of the codebook rows at `index`."""
    coords = pair.coarse.gamma * pair.codebook_units[index]
    coords.flags.writeable = False
    return coords


def encode_message(index, pair: NestedLatticePair) -> np.ndarray:
    """Read-only coordinates of the codebook points of message indices."""
    idx = np.asarray(index)
    if idx.size and (idx.min() < 0 or idx.max() >= pair.size):
        raise ValidationError(f"message index {index} outside [0, {pair.size})")
    return _coords(pair, index)


def _fold(diffs: np.ndarray, cell: float) -> np.ndarray:
    """Subtract the nearest coarse translate from each coordinate, in place.

    Which face a tie folds to does not change the square, so this skips
    `mod_coarse`'s face guards.
    """
    wraps = diffs / cell
    np.rint(wraps, out=wraps)
    wraps *= cell
    diffs -= wraps
    return diffs


def _sq_distances(x: np.ndarray, coords: np.ndarray, cell: float) -> np.ndarray:
    """Wrapped squared distances from rows x (..., n) to points coords (m, n): (..., m)."""
    diffs = _fold(x[..., None, :] - coords, cell)
    return np.einsum("...ij,...ij->...i", diffs, diffs)


def wrapped_sq_distances(x: np.ndarray, pair: NestedLatticePair) -> np.ndarray:
    """Squared torus distance from each row of x (..., n) to every codebook point.

    Because the coarse lattice is a coordinate product, the minimum over
    all coarse translates separates per component into a centered fold.
    The result has shape (..., size).  This is the quantizer's reference.
    """
    x = pair.coarse.check_dim(x)
    return _sq_distances(x, pair.codebook_coords, pair.coarse.cell)


_blas_threads = None  # (get, set) of numpy's OpenBLAS thread count, or ()


@contextmanager
def _one_blas_thread() -> Iterator[None]:
    """Run the block in one BLAS thread, then restore the previous count.

    A threaded BLAS stalls for milliseconds handing a product as small as a
    quantizer block to its workers.  The controls are the entry points of
    the OpenBLAS that numpy links, looked up on first use; without them
    this does nothing.
    """
    global _blas_threads
    if _blas_threads is None:
        try:
            lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
            _blas_threads = (lib.scipy_openblas_get_num_threads64_,
                             lib.scipy_openblas_set_num_threads64_)
        except (AttributeError, OSError):
            _blas_threads = ()
    before = _blas_threads[0]() if _blas_threads else 1
    if before == 1:
        yield
        return
    _blas_threads[1](1)
    try:
        yield
    finally:
        _blas_threads[1](before)


def _nearest(rows: np.ndarray, pair: NestedLatticePair) -> np.ndarray:
    """Exact `wrapped_sq_distances` argmin of each row (m, n), ties to the lowest index.

    The cost table holds the same float64 squared folds the reference sums,
    scaled by 1/gamma^2 (so float32 cannot overflow) and cast to float32.
    A product score then differs from its reference distance by at most
    about n*eps32/2 relative (the cast and the summation), so any score
    within eta = 2(n+2)*eps32 relative of the best may hide the reference
    argmin; rows with such a runner-up are re-decided with the reference
    distances to those candidates.  No underflow term is needed: two
    codewords differ by at least gamma in some coordinate, so of any two
    scores the larger is at least 1/4, and float32 subnormals (below
    2^-126) lie far inside the relative bound.
    """
    coarse, n, q = pair.coarse, pair.n, pair.q
    costs = _fold(rows[:, :, None] - pair._levels, coarse.cell)
    costs *= costs
    costs /= coarse.gamma * coarse.gamma
    scores = costs.astype(np.float32).reshape(len(rows), n * q) @ pair._one_hot
    # Gathers and argmins, not min(axis=1): numpy reduces short rows slowly.
    flat, at = scores.reshape(-1), pair.size * np.arange(len(rows))
    best = scores.argmin(axis=1)
    margin = flat[at + best] * np.float32(1 + 2 * (n + 2) * _EPS32)
    flat[at + best] = np.inf
    for r in np.flatnonzero(flat[at + scores.argmin(axis=1)] <= margin):  # runner-up
        scores[r, best[r]] = 0.0
        cand = np.flatnonzero(scores[r] <= margin[r])
        best[r] = cand[np.argmin(_sq_distances(rows[r], _coords(pair, cand), coarse.cell))]
    return best


def quantize_fine(x: np.ndarray, pair: NestedLatticePair):
    """Indices of the nearest fine-lattice points to the rows of x (..., n).

    Distance is measured to every fine representative (codebook point plus
    coarse translates); exact ties resolve to the lowest codebook index.
    A single row (shape (n,)) returns an int.  A full code (k = n) rounds
    each coordinate; any other code scores row chunks as one
    single-threaded float32 product each (see `_nearest`), with the same
    argmin as `wrapped_sq_distances`.
    """
    x = pair.coarse.check_dim(x)
    if pair._is_full_code:
        units = np.rint(x / pair.coarse.gamma).astype(np.int64) % pair.q
        return _index(pair._lookup[units @ pair._place])
    rows = x.reshape(-1, pair.n)
    out = np.empty(rows.shape[0], dtype=np.int64)
    with _one_blas_thread():
        for sl in scan_rows(rows.shape[0], pair.size):
            out[sl] = _nearest(rows[sl], pair)
    return _index(out.reshape(x.shape[:-1]))


def modulo_sum(a, b, pair: NestedLatticePair):
    """Index of (t_a + t_b) mod coarse: the digit-wise mod-q sum of the messages."""
    return pair.index_of_digits(pair.digits(a) + pair.digits(b))


def modulo_diff(a, b, pair: NestedLatticePair):
    """Index of (t_a - t_b) mod coarse; inverse of `modulo_sum` in its second slot."""
    return pair.index_of_digits(pair.digits(a) - pair.digits(b))


# ---------------------------------------------------------------------------
# Diagnostics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LatticeDiagnostics:
    second_moment: float          # exact, coarse cube
    volume: float                 # exact, coarse cube
    normalized_second_moment: float
    covering_radius_est: float    # Monte Carlo lower estimate, fine lattice
    effective_radius: float       # same-volume ball radius, fine lattice


def _unit_ball_volume(n: int) -> float:
    return math.pi ** (n / 2.0) / math.gamma(n / 2.0 + 1.0)


def diagnostics(
    pair: NestedLatticePair, samples: int = 2000, seed: int = 0
) -> LatticeDiagnostics:
    """Exact cube statistics plus sampled covering radius of the fine lattice.

    The covering-radius estimate is the max distance from `samples` uniform
    points in the coarse cell to their nearest fine point, a lower bound
    that tightens as samples grow.
    """
    coarse = pair.coarse
    sigma2 = coarse.second_moment
    vol = coarse.volume
    nsm = sigma2 / vol ** (2.0 / coarse.n)
    rng = generator(seed)
    half = coarse.cell / 2.0
    pts = rng.uniform(-half, half, size=(samples, coarse.n))
    worst = 0.0
    for sl in scan_rows(samples, pair.size * coarse.n):
        worst = max(worst, float(wrapped_sq_distances(pts[sl], pair).min(axis=-1).max()))
    fine_volume = vol / pair.size
    r_eff = (fine_volume / _unit_ball_volume(coarse.n)) ** (1.0 / coarse.n)
    return LatticeDiagnostics(
        second_moment=sigma2,
        volume=vol,
        normalized_second_moment=nsm,
        covering_radius_est=math.sqrt(worst),
        effective_radius=r_eff,
    )
