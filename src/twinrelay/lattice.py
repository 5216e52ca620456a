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
their messages, exact with zero tolerance.  For q = 2^m those digits are
the index's m-bit fields, so the sum is a few word operations on the
indices (a carry-less add of the fields, XOR at q = 2), with no digit
arrays; see `modulo_sum`.
`quantize_fine` scores rows against the whole codebook as one float32
product of a separable cost table with a one-hot codebook matrix.  Both
hold only the q-1 non-zero residues, each costed relative to residue 0
(level 0), so the product is (rows, n*(q-1)) by (n*(q-1), size); rows
whose runner-up lies within an absolute rounding slack of the best are
re-decided in float64, so the result is the argmin of the wrapped squared
distances to every codeword (see `_nearest`); that exhaustive scan, the
quantizer's reference, is `wrapped_sq_distances` in `tests/oracles.py`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Sequence

import numpy as np

from .errors import DimensionMismatchError, GuardExceededError, ValidationError
from .rng import generator

ENUMERATION_GUARD = 1 << 20  # max codebook size q**k
# Max entries n*(q-1)*size of the one-hot codebook matrix (256 MB of float32)
# and of the (size, n) codebook; it also bounds bsc.BinaryLinearCode.word_tables'
# table scan and each array the trial kernels and `multihop` draw.
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
        if not (math.isfinite(self.gamma) and self.gamma > 0):
            raise ValidationError(f"shaping scale must be positive and finite, got {self.gamma}")

    @classmethod
    def for_power(cls, n: int, q: int, power: float) -> "CoarseLattice":
        """Pick gamma so the cube second moment equals `power`."""
        if q < 2:  # before the division by q
            raise ValidationError(f"modulus must be >= 2, got {q}")
        if not (math.isfinite(power) and power > 0):
            raise ValidationError(f"power must be positive and finite, got {power}")
        return cls(n=n, q=q, gamma=math.sqrt(12.0 * power) / q)

    @property
    def cell(self) -> float:
        """Side length gamma*q of the Voronoi hypercube."""
        return self.gamma * self.q

    @property
    def second_moment(self) -> float:
        """Per-dimension second moment (gamma*q)^2 / 12 of the cube."""
        return self.cell ** 2 / 12.0

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
    y = x / cell  # then x - cell * floor(y + 0.5) in place
    np.floor(np.add(y, 0.5, out=y), out=y)
    np.subtract(x, np.multiply(y, cell, out=y), out=y)
    # Guard against float rounding landing exactly on the excluded face.
    y[y >= cell / 2] -= cell
    y[y < -cell / 2] += cell
    return y


def centered_units(u: np.ndarray, q: int) -> np.ndarray:
    """Integer fold of u into [-q/2, q/2) mod q, exact for any parity of q."""
    u = np.asarray(u)
    return (u + q // 2) % q - q // 2


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

def _check_codebook(n: int, q: int, k: int) -> None:
    """Check both codebook guards in Python ints, before any array is built."""
    size = q ** min(k, ENUMERATION_GUARD.bit_length())  # q >= 2: over past 20 digits
    if size > ENUMERATION_GUARD:
        raise GuardExceededError(
            f"codebook size {q}^{k} exceeds enumeration guard {ENUMERATION_GUARD}")
    if size * n > ONE_HOT_GUARD:
        raise GuardExceededError(f"codebook of {q}^{k} x {n} entries exceeds {ONE_HOT_GUARD}")


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
        G = np.asarray(self.generator_matrix, dtype=np.int64)
        if G.ndim != 2 or G.shape[1] != self.coarse.n:
            raise ValidationError(
                f"generator must be k x n with n={self.coarse.n}, got shape {G.shape}"
            )
        q, k = self.coarse.q, G.shape[0]
        _check_codebook(self.coarse.n, q, k)
        self.generator_matrix = G = G % q
        size = q ** k
        self._place = q ** np.arange(k, dtype=np.int64)
        # q = 2^m: the base-q digits of an index are its m-bit fields, and
        # `modulo_sum` works on the index words through these masks of each
        # field's top bit and of its m - 1 low bits.
        self._top_bits = None
        if q & (q - 1) == 0:
            m = q.bit_length() - 1
            self._top_bits = sum((q >> 1) << (m * j) for j in range(k))
            self._low_bits = (size - 1) ^ self._top_bits
        # Full code <=> fine lattice is gamma*Z^n; quantization then separates
        # per coordinate: the residues of the rounded coordinates, read as a
        # base-q key, index a lookup array of length q^n.
        self._is_full_code = k == self.coarse.n
        if self._is_full_code:
            self._lookup = np.empty(size, dtype=np.int64)
        # Built in message chunks straight into the int32 rows, so a large
        # codebook holds no int64 copy of itself.  The product runs in float64
        # through BLAS: its entries are integers of at most k*(q-1)^2 <= 2^40
        # (q^k <= ENUMERATION_GUARD), so it is exact.
        units = np.empty((size, self.coarse.n), dtype=np.int32)
        zero_words = 0
        G_float = G.astype(float)
        for sl in scan_rows(size, self.coarse.n):
            index = np.arange(sl.start, min(sl.stop, size))
            words = (self.digits(index).astype(float) @ G_float).astype(np.int64)
            words %= q
            zero_words += np.count_nonzero(~words.any(axis=1))
            if self._is_full_code:
                self._lookup[words @ self._place] = index
            words += q // 2  # `centered_units` in place
            words %= q
            words -= q // 2
            units[sl] = words
        # u -> u*G is linear, so its codewords are distinct iff only the zero
        # message maps to the zero codeword.
        if zero_words != 1:
            raise ValidationError(
                "generator does not produce q^k distinct codewords; "
                "use a systematic (full-rank) generator"
            )
        self.codebook_units = units
        self.codebook_units.flags.writeable = False

    @cached_property
    def _levels(self) -> np.ndarray:
        """gamma * v for the non-zero residues 1..q-1, v their centered units."""
        return self.coarse.gamma * centered_units(np.arange(1, self.q), self.q).astype(float)

    @cached_property
    def _one_hot(self) -> np.ndarray:
        """float32 (n*(q-1), size): row i*(q-1) + r-1 is 1 where codeword
        coordinate i is r mod q, for r = 1..q-1; residue 0 has no row."""
        n, q, size = self.n, self.q, self.size
        if n * (q - 1) * size > ONE_HOT_GUARD:
            raise GuardExceededError(
                f"one-hot codebook of {n}*{q - 1}*{size} entries exceeds {ONE_HOT_GUARD}")
        one_hot = np.zeros((n * (q - 1), size), dtype=np.float32)
        for i in range(n):  # one coordinate at a time: no (n, size) transients
            residues = self.codebook_units[:, i] % q
            cols = np.flatnonzero(residues)
            one_hot[i * (q - 1) + residues[cols] - 1, cols] = 1.0
        return one_hot

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
    _check_codebook(n, q, k)
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
) -> NestedLatticePair:
    """Convenience constructor from plain parameters."""
    coarse = CoarseLattice.for_power(n, q, power)
    if generator_matrix is None:
        generator_matrix = systematic_generator(n, k, q)
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
    """diffs less the nearest coarse translate of each coordinate, as a new array.

    Which face a tie folds to does not change the square, so this skips
    `mod_coarse`'s face guards.
    """
    wraps = diffs / cell
    np.rint(wraps, out=wraps)
    wraps *= cell
    return np.subtract(diffs, wraps, out=wraps)


def _sq_distances(x: np.ndarray, coords: np.ndarray, cell: float) -> np.ndarray:
    """Wrapped squared distances from rows x (..., n) to points coords (m, n): (..., m).

    Because the coarse lattice is a coordinate product, the minimum over all
    coarse translates separates per component into a centered fold.  Over
    the whole codebook this is the quantizer's reference.
    """
    diffs = _fold(x[..., None, :] - coords, cell)
    return np.einsum("...ij,...ij->...i", diffs, diffs)


def _nearest(rows: np.ndarray, pair: NestedLatticePair) -> np.ndarray:
    """Exact reference argmin of each row (m, n), ties to the lowest index.

    Residue 0 is level 0, so the cost table holds, for each coordinate i
    and non-zero residue r only, D_i(r) = [fold(x_i - gamma*v_r)^2 -
    fold(x_i)^2] / gamma^2, from the same float64 folds the reference sums
    (in units of gamma^2, so float32 cannot overflow).  Its product with the
    (n*(q-1), size) one-hot matrix scores each codeword as its reference
    distance / gamma^2 less the row's constant sum_i fold(x_i)^2 / gamma^2,
    which moves every codeword alike: the argmin and its lowest-index tie
    are those of the reference.  Scores may be negative, so the rounding
    bound is absolute.  Both squares lie in [0, q^2/4], so |D_i(r)| <= q^2/4,
    and a score sums at most n non-zero terms, n*q^2/4 in absolute value at
    most.  The float32 cast (eps32/2 of each term) and any summation order
    (n-1 roundings of at most eps32/2 of that total) then err by at most
    n*eps32/2 * n*q^2/4.  Any score within slack = 2(n+2)*eps32 * n*q^2/4
    of the best may hide the reference argmin, as best and runner-up may
    each err that much; rows with such a runner-up are re-decided with the
    reference distances to those candidates.  Underflow needs no term of
    its own: float32 subnormals are spaced 2^-149, so a term or a partial
    sum that lands among them errs by at most 2^-149 more, a score by at
    most n*2^-149, while the slack is at least 6*eps32 = 6*2^-23.
    """
    coarse, n, q = pair.coarse, pair.n, pair.q
    costs = _fold(rows[:, :, None] - pair._levels, coarse.cell)
    costs *= costs
    zero = _fold(rows, coarse.cell)  # residue 0 is level 0
    zero *= zero
    costs -= zero[:, :, None]
    costs /= coarse.gamma * coarse.gamma
    scores = costs.astype(np.float32).reshape(len(rows), n * (q - 1)) @ pair._one_hot
    # Gathers and argmins, not min(axis=1): numpy reduces short rows slowly.
    flat, at = scores.reshape(-1), pair.size * np.arange(len(rows))
    best = scores.argmin(axis=1)
    top = at + best
    limit = flat[top] + 2 * (n + 2) * _EPS32 * n * q * q / 4
    flat[top] = np.inf
    for r in np.flatnonzero(flat[at + scores.argmin(axis=1)] <= limit):  # runner-up
        scores[r, best[r]] = -np.inf  # a best below zero stays a candidate
        cand = np.flatnonzero(scores[r] <= limit[r])
        best[r] = cand[np.argmin(_sq_distances(rows[r], _coords(pair, cand), coarse.cell))]
    return best


def quantize_fine(x: np.ndarray, pair: NestedLatticePair):
    """Indices of the nearest fine-lattice points to the rows of x (..., n).

    Distance is measured to every fine representative (codebook point plus
    coarse translates); exact ties resolve to the lowest codebook index.
    A single row (shape (n,)) returns an int.  A full code (k = n) rounds
    each coordinate; any other code scores row chunks as one float32 product
    each (see `_nearest`), with the argmin of the reference distances.  A
    chunk's cost table with its residue-0 column (n*q values a row) and its
    (rows, size) scores both stay within SCAN_WORKSET elements.
    """
    x = pair.coarse.check_dim(x)
    if pair._is_full_code:
        units = np.rint(x / pair.coarse.gamma).astype(np.int64) % pair.q
        return _index(pair._lookup[units @ pair._place])
    rows = x.reshape(-1, pair.n)
    out = np.empty(rows.shape[0], dtype=np.int64)
    for sl in scan_rows(rows.shape[0], max(pair.size, pair.n * pair.q)):
        out[sl] = _nearest(rows[sl], pair)
    return _index(out.reshape(x.shape[:-1]))


def modulo_sum(a, b, pair: NestedLatticePair):
    """Index of (t_a + t_b) mod coarse: the digit-wise mod-q sum of the messages.

    For q = 2^m the digits are the index's m-bit fields, summed in place:
    with H each field's top bit and L its m - 1 low bits, the index is
    ((a & L) + (b & L)) ^ ((a ^ b) & H).  Two low parts sum to at most
    2^m - 2, so their carry reaches the field's top bit and no further, and
    the top bit is the XOR of that carry with both top bits; the carry out
    of the field, which mod q drops, is never formed.  Any other q takes the
    digits route.
    """
    top = pair._top_bits
    if top is None:
        return pair.index_of_digits(pair.digits(a) + pair.digits(b))
    low = pair._low_bits
    s = ((a & low) + (b & low)) ^ ((a ^ b) & top)
    return s if isinstance(s, np.ndarray) else int(s)


def modulo_diff(a, b, pair: NestedLatticePair):
    """Index of (t_a - t_b) mod coarse; inverse of `modulo_sum` in its second slot."""
    return pair.index_of_digits(pair.digits(a) - pair.digits(b))
