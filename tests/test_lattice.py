"""Lattice arithmetic: folds, codebooks, dithers, exact group structure."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from itertools import product
from pathlib import Path

import numpy as np
import pytest

from oracles import (
    codebook_coords,
    enumerate_messages,
    index_of_units,
    mod_units_exact,
    wrapped_sq_distances,
)
from twinrelay import lattice
from twinrelay.errors import GuardExceededError, ValidationError
from twinrelay.lattice import (
    CoarseLattice,
    NestedLatticePair,
    centered_units,
    dither,
    encode_message,
    make_pair,
    mod_coarse,
    modulo_diff,
    modulo_sum,
    quantize_fine,
    scan_rows,
    systematic_generator,
)
from twinrelay.rng import generator

UNIT_CELL = CoarseLattice(n=1, q=4, gamma=1.0)  # cell [-2, 2)


def pair_q4() -> NestedLatticePair:
    return NestedLatticePair(coarse=UNIT_CELL, generator_matrix=[[1]])


def test_mod_coarse_examples():
    assert mod_coarse(np.array([5.0]), UNIT_CELL)[0] == 1.0
    assert mod_coarse(np.array([3.0]), UNIT_CELL)[0] == -1.0
    # half-open convention: the upper face folds to the lower face
    assert mod_coarse(np.array([2.0]), UNIT_CELL)[0] == -2.0
    assert mod_coarse(np.array([-2.0]), UNIT_CELL)[0] == -2.0


def test_mod_coarse_idempotent_and_in_range():
    rng = np.random.default_rng(0)
    coarse = CoarseLattice.for_power(n=6, q=5, power=2.5)
    x = rng.normal(0, 40.0, size=(500, 6))
    y = mod_coarse(x, coarse)
    half = coarse.cell / 2
    assert np.all(y >= -half) and np.all(y < half)
    assert np.array_equal(mod_coarse(y, coarse), y)


def test_mod_coarse_congruent_to_input():
    rng = np.random.default_rng(1)
    coarse = CoarseLattice(n=3, q=7, gamma=0.5)
    x = rng.normal(0, 30.0, size=(200, 3))
    y = mod_coarse(x, coarse)
    ratio = (x - y) / coarse.cell
    assert np.allclose(ratio, np.round(ratio), atol=1e-9)


def test_mod_distributive_float():
    rng = np.random.default_rng(2)
    coarse = CoarseLattice.for_power(n=4, q=4, power=1.0)
    for _ in range(200):
        a = rng.normal(0, 10, size=4)
        b = rng.normal(0, 10, size=4)
        lhs = mod_coarse(mod_coarse(a, coarse) + b, coarse)
        rhs = mod_coarse(a + b, coarse)
        assert np.allclose(lhs, rhs, atol=1e-12)


def test_mod_distributive_exact_rational():
    q = 4
    rng = np.random.default_rng(3)
    for _ in range(100):
        a = [Fraction(int(v), 64) for v in rng.integers(-4000, 4000, size=3)]
        b = [Fraction(int(v), 64) for v in rng.integers(-4000, 4000, size=3)]
        folded_a = mod_units_exact(a, q)
        lhs = mod_units_exact([x + y for x, y in zip(folded_a, b)], q)
        rhs = mod_units_exact([x + y for x, y in zip(a, b)], q)
        assert lhs == rhs


def test_mod_units_exact_range():
    vals = mod_units_exact([Fraction(7, 2), Fraction(-5, 3), 2, -2], 4)
    assert all(Fraction(-2) <= v < Fraction(2) for v in vals)
    assert vals[2] == Fraction(-2)  # upper face excluded


def test_quantizer_residual_in_cube():
    rng = np.random.default_rng(4)
    coarse = CoarseLattice(n=2, q=6, gamma=0.7)
    x = rng.normal(0, 15, size=(300, 2))
    resid = x - coarse.cell * np.round(x / coarse.cell)
    folded = mod_coarse(x, coarse)
    # round-based residual may sit on either face; the fold picks the lower one
    assert np.allclose(np.abs(resid), np.abs(folded), atol=1e-9)


def test_codebook_fold_q4():
    pair = pair_q4()
    assert pair.codebook_units.ravel().tolist() == [0, 1, -2, -1]
    assert [encode_message(i, pair)[0] for i in range(4)] == [0.0, 1.0, -2.0, -1.0]


def test_encode_zero_is_origin():
    pair = make_pair(n=3, q=5, k=2, power=1.0)
    assert np.all(encode_message(0, pair) == 0.0)


def test_encode_message_row_is_read_only():
    pair = make_pair(n=3, q=5, k=2, power=1.0)
    row = encode_message(7, pair)
    assert np.array_equal(row, codebook_coords(pair)[7])
    with pytest.raises(ValueError):
        row[0] = 1.0
    with pytest.raises(ValueError):
        codebook_coords(pair)[0, 0] = 1.0


@pytest.mark.parametrize("q", [0, 1, -2])
def test_coarse_for_power_checks_modulus_first(q):
    with pytest.raises(ValidationError, match="modulus must be >= 2"):
        CoarseLattice.for_power(n=2, q=q, power=1.0)


@pytest.mark.parametrize("gamma", [float("nan"), float("inf"), 0.0, -1.0])
def test_coarse_refuses_a_nonpositive_or_nonfinite_scale(gamma):
    with pytest.raises(ValidationError, match="positive and finite"):
        CoarseLattice(n=2, q=4, gamma=gamma)


def test_encode_index_out_of_range():
    with pytest.raises(ValidationError):
        encode_message(4, pair_q4())


def test_encode_decode_roundtrip_exhaustive():
    pair = make_pair(n=3, q=5, k=2, power=1.0)
    for i in range(pair.size):
        units = np.rint(encode_message(i, pair) / pair.coarse.gamma).astype(np.int64)
        assert index_of_units(pair, units) == i
        assert quantize_fine(encode_message(i, pair), pair) == i


def test_quantize_tie_prefers_lowest_index():
    pair = pair_q4()
    # x = 0.5 ties between codebook points 0.0 (index 0) and 1.0 (index 1)
    assert quantize_fine(np.array([0.5]), pair) == 0


def test_quantize_matches_bruteforce_translate_search():
    rng = np.random.default_rng(5)
    pair = make_pair(n=2, q=4, k=1, power=1.0, generator_matrix=[[1, 2]])
    cell = pair.coarse.cell
    shifts = np.array(list(product((-1, 0, 1), repeat=2))) * cell
    for _ in range(200):
        x = rng.uniform(-cell / 2, cell / 2, size=2)
        best = None
        for idx, point in enumerate(codebook_coords(pair)):
            for shift in shifts:
                d = float(np.sum((x - point - shift) ** 2))
                if best is None or d < best[0] - 1e-12:
                    best = (d, idx)
        assert quantize_fine(x, pair) == best[1]


def test_quantize_fast_path_matches_generic():
    # full code (k = n) triggers the componentwise path; compare against
    # the generic wrapped-distance argmin
    pair = make_pair(n=2, q=4, k=2, power=1.0)
    rng = np.random.default_rng(6)
    cell = pair.coarse.cell
    for _ in range(100):
        x = rng.uniform(-cell / 2, cell / 2, size=2)
        generic = int(np.argmin(wrapped_sq_distances(x, pair)))
        assert quantize_fine(x, pair) == generic


def test_modulo_sum_examples():
    pair = pair_q4()
    assert modulo_sum(0, 1, pair) == 1
    assert encode_message(modulo_sum(1, 1, pair), pair)[0] == -2.0
    assert modulo_sum(2, 3, pair) == 1  # -2 + -1 = -3 folds to 1


def test_modulo_sum_bijection_q5():
    pair = make_pair(n=1, q=5, k=1, power=1.0)
    for a in range(5):
        images = {modulo_sum(a, b, pair) for b in range(5)}
        assert images == set(range(5))


def test_modulo_diff_inverts_sum():
    pair = make_pair(n=2, q=5, k=1, power=1.0)
    for a in range(pair.size):
        for b in range(pair.size):
            s = modulo_sum(a, b, pair)
            assert modulo_diff(s, a, pair) == b
            assert modulo_diff(s, b, pair) == a


def test_codebook_closure_exhaustive():
    # the folded sum of any two codewords is the codeword modulo_sum names
    pair = make_pair(n=2, q=3, k=2, power=1.0)
    units = pair.codebook_units
    for a in range(pair.size):
        for b in range(pair.size):
            s = modulo_sum(a, b, pair)
            assert 0 <= s < pair.size
            assert np.array_equal(units[s], centered_units(units[a] + units[b], pair.q))


@pytest.mark.parametrize("q,k,n", [
    (q, k, n)
    for q, k, n in product((2, 3, 5, 7), (1, 2), (1, 2, 3))
    if k <= n
])
def test_mod_sum_uniformity_exhaustive(q, k, n):
    """Sum of independent uniform codewords is exactly uniform, count-based."""
    pair = make_pair(n=n, q=q, k=k, power=1.0)
    counts = np.zeros(pair.size, dtype=np.int64)
    units = pair.codebook_units
    for a in range(pair.size):
        sums = centered_units(units[a][None, :] + units, q)
        for row in sums:
            counts[index_of_units(pair, row)] += 1
    assert np.all(counts == pair.size)


def test_dither_reproducible_and_in_cell():
    coarse = CoarseLattice.for_power(n=8, q=4, power=1.0)
    d1 = dither(generator(99), coarse)
    d2 = dither(generator(99), coarse)
    assert np.array_equal(d1, d2)
    half = coarse.cell / 2
    assert np.all(d1 >= -half) and np.all(d1 < half)
    assert not np.array_equal(d1, dither(generator(100), coarse))


def test_dither_moments():
    # components are iid, so one long vector gives 1e6 samples
    coarse = CoarseLattice.for_power(n=1_000_000, q=4, power=1.0)
    d = dither(generator(7), coarse)
    n = coarse.n
    cell = coarse.cell
    mean_bound = 3.0 * cell / np.sqrt(12.0 * n)
    assert abs(float(np.mean(d))) < mean_bound
    second = float(np.mean(d ** 2))
    assert abs(second - 1.0) < 0.01  # power P = 1 within 1%


def test_dithered_codeword_power():
    # (t - d) mod coarse is uniform over the cell, so its mean square is P
    pair = make_pair(n=4, q=4, k=2, power=1.0)
    rng = np.random.default_rng(8)
    samples = 20000
    total = 0.0
    half = pair.coarse.cell / 2
    for _ in range(samples):
        t = encode_message(int(rng.integers(pair.size)), pair)
        d = rng.uniform(-half, half, size=4)
        x = mod_coarse(t - d, pair.coarse)
        total += float(np.mean(x ** 2))
    est = total / samples
    sem = np.sqrt(0.8 / (samples * 4))  # var of U^2 per component is 0.8 P^2
    assert abs(est - 1.0) < 3.0 * sem


def test_enumeration_guard():
    with pytest.raises(GuardExceededError):
        make_pair(n=21, q=2, k=21, power=1.0)


@pytest.mark.parametrize("n,q,k,match", [
    (1, 1 << 70, 1, "enumeration guard"),        # past int64: `% q` would overflow
    (10 ** 18, 2, 10 ** 18, "enumeration guard"),  # q^k is never formed
    (10 ** 20, 4, 1, r"codebook of 4\^1 x"),      # past numpy's largest shape
])
def test_codebook_guards_refuse_before_any_array(n, q, k, match):
    with pytest.raises(GuardExceededError, match=match):
        make_pair(n=n, q=q, k=k, power=1.0)
    with pytest.raises(GuardExceededError, match=match):
        systematic_generator(n, k, q)


def test_direct_pair_checks_the_guard_before_reducing_its_generator():
    coarse = CoarseLattice(n=2, q=1 << 70, gamma=1.0)
    with pytest.raises(GuardExceededError, match="enumeration guard"):
        NestedLatticePair(coarse=coarse, generator_matrix=[[1, 0]])


@pytest.mark.parametrize("n,q,k", [(1, 4, 1), (3, 5, 2), (24, 2, 12), (16, 2, 16),
                                   (8, 4, 8), (12, 3, 10), (6, 7, 3)])
def test_codebook_build_matches_one_shot_build(n, q, k):
    # the chunked build against all messages times G at once; the last
    # four cases span several chunks
    pair = make_pair(n=n, q=q, k=k, power=1.0)
    words = enumerate_messages(q, k) @ pair.generator_matrix % q
    want = centered_units(words, q).astype(np.int32)
    assert pair.codebook_units.dtype == np.int32
    assert pair.codebook_units.tobytes() == want.tobytes()
    if k == n:
        lookup = np.empty(q ** k, dtype=np.int64)
        lookup[words @ q ** np.arange(k)] = np.arange(q ** k)
        assert np.array_equal(pair._lookup, lookup)


def test_codebook_build_holds_no_int64_copy():
    # 2^18 codewords: 18.9 MB of int32 units and a 2 MB lookup; an int64
    # digit array and product would add 75 MB
    tracemalloc.start()
    try:
        pair = make_pair(n=18, q=2, k=18, power=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    kept = pair.codebook_units.nbytes + pair._lookup.nbytes
    assert peak < kept + 4 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB, kept {kept / 2 ** 20:.1f} MB"


def test_rank_deficient_generator_rejected():
    # repeated rows over GF(2), and a non-unit generator over Z_4 (2*u repeats)
    for q, gen in ((2, [[1, 0, 1], [1, 0, 1]]), (4, [[2]]), (4, [[1, 2], [1, 2]])):
        with pytest.raises(ValidationError, match="distinct codewords"):
            NestedLatticePair(coarse=CoarseLattice(n=len(gen[0]), q=q, gamma=1.0),
                              generator_matrix=gen)


@pytest.mark.parametrize("n,q,k", [(2, 4, 2), (3, 5, 3), (8, 4, 4), (3, 5, 2)])
def test_quantize_rows_match_single_rows(n, q, k):
    # full codes (k = n) and the chunked scan; with n=8, q=4, k=4 (256
    # codewords) the 300 rows span seven scan chunks
    pair = make_pair(n=n, q=q, k=k, power=1.0)
    x = generator(17).normal(0.0, 2.0, size=(2, 150, n))
    batch = quantize_fine(x, pair)
    assert batch.shape == (2, 150)
    for idx in np.ndindex(2, 150):
        single = quantize_fine(x[idx], pair)
        assert isinstance(single, int) and batch[idx] == single
        assert single == int(np.argmin(wrapped_sq_distances(x[idx], pair)))


def test_index_arithmetic_on_arrays():
    pair = make_pair(n=3, q=5, k=2, power=1.0)
    a, b = np.meshgrid(np.arange(pair.size), np.arange(pair.size), indexing="ij")
    assert pair.digits(a).shape == (pair.size, pair.size, 2)
    assert np.array_equal(pair.index_of_digits(pair.digits(a)), a)
    sums, diffs = modulo_sum(a, b, pair), modulo_diff(a, b, pair)
    coords = encode_message(a, pair)
    assert coords.shape == (pair.size, pair.size, 3)
    for i, j in np.ndindex(a.shape):
        assert sums[i, j] == modulo_sum(i, j, pair)
        assert diffs[i, j] == modulo_diff(i, j, pair)
        assert np.array_equal(coords[i, j], encode_message(i, pair))
    with pytest.raises(ValidationError):
        encode_message(np.array([0, pair.size]), pair)


def test_systematic_generator_rank():
    for q in (2, 4, 5, 16):
        G = systematic_generator(6, 3, q)
        pair = make_pair(n=6, q=q, k=3, power=1.0, generator_matrix=G)
        assert pair.size == q ** 3


def test_dimension_mismatch():
    with pytest.raises(ValidationError):
        mod_coarse(np.zeros(3), UNIT_CELL)


def _golay_24_12():
    """Extended Golay code: cyclic shifts of g(x) in length 23 plus a parity bit."""
    poly = (1, 0, 1, 0, 1, 1, 1, 0, 0, 0, 1, 1)
    rows = []
    for shift in range(12):
        row = [0] * 23
        row[shift:shift + 12] = poly
        rows.append(row + [sum(row) % 2])
    return rows


EXT_HAMMING_8_4 = [[1, 0, 0, 0, 0, 1, 1, 1], [0, 1, 0, 0, 1, 0, 1, 1],
                   [0, 0, 1, 0, 1, 1, 0, 1], [0, 0, 0, 1, 1, 1, 1, 0]]
QUANTIZER_PAIRS = {
    "q2-n8-k4": dict(n=8, q=2, k=4),
    "q3-n6-k3": dict(n=6, q=3, k=3),
    "q5-n5-k2": dict(n=5, q=5, k=2),
    "q16-n4-k2": dict(n=4, q=16, k=2),
    "golay-24-12": dict(n=24, q=2, k=12, generator_matrix=_golay_24_12()),
    "q3-n16-k5": dict(n=16, q=3, k=5, generator_matrix=systematic_generator(16, 5, 3, seed=1)),
    "q5-n8-k2": dict(n=8, q=5, k=2, generator_matrix=systematic_generator(8, 2, 5, seed=1)),
}


BUILD_PAIRS = {
    "q2-n20-k20": dict(n=20, q=2, k=20),
    "q4-n10-k10": dict(n=10, q=4, k=10),
    "q2^20-n1-k1": dict(n=1, q=2 ** 20, k=1),
    "q3-n24-k8": dict(n=24, q=3, k=8),
    "golay-24-12": QUANTIZER_PAIRS["golay-24-12"],
}


@pytest.mark.parametrize("name", BUILD_PAIRS)
def test_codebook_units_equal_int64_product(name):
    """The float64 BLAS product builds the codebook the int64 product does:
    u*G mod q, centered, for every message, in chunks of 2^16 messages."""
    pair = make_pair(**BUILD_PAIRS[name])
    G = pair.generator_matrix
    for start in range(0, pair.size, 1 << 16):
        index = np.arange(start, min(start + (1 << 16), pair.size))
        want = centered_units(pair.digits(index) @ G % pair.q, pair.q)
        assert np.array_equal(pair.codebook_units[index], want), (name, start)


def _reference(x, pair):
    """Row-chunked argmin of the reference distances, rows (m, n) or one row."""
    rows = np.atleast_2d(x)
    return np.concatenate([np.argmin(wrapped_sq_distances(rows[sl], pair), axis=-1)
                           for sl in scan_rows(len(rows), pair.size * pair.n)]).reshape(
        np.shape(x)[:-1])


_SQ_DISTANCES = lattice._sq_distances


class _Spy:
    """Stands in for `lattice._sq_distances` and records the candidate calls."""

    def __init__(self):
        self.calls = []

    def __call__(self, x, coords, cell):
        self.calls.append(coords.copy())
        return _SQ_DISTANCES(x, coords, cell)


@pytest.mark.parametrize("pair_args", QUANTIZER_PAIRS.values(), ids=QUANTIZER_PAIRS.keys())
def test_quantizer_matches_reference_argmin(pair_args):
    # random rows, exact codewords, exact midpoints of codeword pairs (ties
    # in the reference, which the lowest index wins) and midpoints nudged by
    # float32-sized steps (near-ties that float32 scores can order wrongly),
    # row for row
    pair = make_pair(power=1.0, **pair_args)
    rng = generator(23)
    cell, rows = pair.coarse.cell, 300
    a, b = rng.integers(pair.size, size=(2, rows))
    midpoints = (encode_message(a, pair) + encode_message(b, pair)) / 2
    for x in (rng.uniform(-cell / 2, cell / 2, size=(rows, pair.n)),
              encode_message(a, pair),
              midpoints,
              mod_coarse(midpoints, pair.coarse),
              midpoints + rng.normal(0.0, 1e-7 * pair.coarse.gamma, size=midpoints.shape)):
        assert np.array_equal(quantize_fine(x, pair), _reference(x, pair))


def test_quantizer_near_tie_takes_candidate_path(monkeypatch):
    # a row a hair nearer to codeword j than to codeword 0, closer than
    # float32 can tell apart, so the candidates decide it in float64; in the
    # extended Hamming [8,4,4] code only 0 and j lie within gamma^2 of it
    pair = make_pair(n=8, q=2, k=4, power=1.0, generator_matrix=EXT_HAMMING_8_4)
    j = next(i for i in range(pair.size)
             if np.count_nonzero(pair.codebook_units[i]) == 4)
    toward = encode_message(j, pair)
    x = toward / 2 + 1e-10 * toward
    assert int(_reference(x, pair)) == j
    spy = _Spy()
    monkeypatch.setattr(lattice, "_sq_distances", spy)
    assert quantize_fine(x, pair) == j
    assert len(spy.calls) == 1
    assert np.array_equal(spy.calls[0], encode_message(np.array([0, j]), pair))
    # the exact midpoint ties in the reference, and the lower index wins
    assert quantize_fine(toward / 2, pair) == 0 == int(_reference(toward / 2, pair))


def test_quantizer_near_tie_in_non_zero_residues(monkeypatch):
    # a minimum-weight codeword b of a q = 3 code and a = -b differ only
    # where both are non-zero, so residue 0's cost cancels between their
    # scores; the row a hair from their wrapped midpoint toward a scores both
    # below zero (residue 0 is far), closer than float32 can tell apart, and
    # no other codeword has their support, so exactly a and b are candidates
    pair = make_pair(power=1.0, **QUANTIZER_PAIRS["q3-n16-k5"])
    weights = np.count_nonzero(pair.codebook_units[1:], axis=1)
    b = 1 + int(np.argmin(weights))
    a = modulo_diff(0, b, pair)  # the larger index of the two, so float64 must win
    assert a > b
    coords_a, coords_b = encode_message(a, pair), encode_message(b, pair)
    mid = coords_a + mod_coarse(coords_b - coords_a, pair.coarse) / 2
    x = mid + 1e-10 * (coords_a - mid)
    assert int(_reference(x, pair)) == a
    spy = _Spy()
    monkeypatch.setattr(lattice, "_sq_distances", spy)
    assert quantize_fine(x, pair) == a
    assert len(spy.calls) == 1
    assert np.array_equal(spy.calls[0], encode_message(np.array([b, a]), pair))
    assert quantize_fine(mid, pair) == int(_reference(mid, pair))


@pytest.mark.parametrize("pair_args", [QUANTIZER_PAIRS["q2-n8-k4"],
                                       QUANTIZER_PAIRS["golay-24-12"]])
def test_quantizer_huge_power_needs_no_candidates(monkeypatch, pair_args):
    # squares of about 1e40 overflow float32; scores in units of gamma do not
    pair = make_pair(power=1e40, **pair_args)
    assert pair.coarse.cell ** 2 > float(np.finfo(np.float32).max)
    cell = pair.coarse.cell
    x = generator(29).uniform(-cell / 2, cell / 2, size=(200, pair.n))
    want = _reference(x, pair)
    spy = _Spy()
    monkeypatch.setattr(lattice, "_sq_distances", spy)
    assert np.array_equal(quantize_fine(x, pair), want)
    assert spy.calls == []


def test_quantizer_chunks_bound_the_cost_table():
    # a long k = 1 code: the (rows, n*q) cost table, not the five-column
    # scores, sets the chunk, so a call's heap peak stays near SCAN_WORKSET
    # float64s; as one chunk, the cost table of this block alone is 82 MB
    pair = make_pair(n=500, q=5, k=1, power=1.0)
    cell = pair.coarse.cell
    x = generator(37).uniform(-cell / 2, cell / 2, size=(4096, pair.n))
    tracemalloc.start()
    try:
        got = quantize_fine(x, pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    sample = np.arange(0, 4096, 97)
    assert np.array_equal(got[sample],
                          np.argmin(wrapped_sq_distances(x[sample], pair), axis=1))


def _quantizer_digest() -> str:
    """sha256 of `quantize_fine`'s indices on Golay [24,12] and q = 3 [16,5]:
    seeded random rows and midpoints of seeded codeword pairs."""
    digest = hashlib.sha256()
    for seed, name in enumerate(("golay-24-12", "q3-n16-k5")):
        pair = make_pair(power=1.0, **QUANTIZER_PAIRS[name])
        rng, cell = generator(41, seed), pair.coarse.cell
        a = encode_message(rng.integers(pair.size, size=1024), pair)
        b = encode_message(rng.integers(pair.size, size=1024), pair)
        for x in (rng.uniform(-cell / 2, cell / 2, size=(2048, pair.n)),
                  a + mod_coarse(b - a, pair.coarse) / 2):
            digest.update(np.ascontiguousarray(quantize_fine(x, pair), dtype=np.int64))
    return digest.hexdigest()


def test_quantizer_indices_do_not_depend_on_blas_threads():
    # the product runs on as many BLAS threads as numpy's OpenBLAS is given;
    # `_nearest`'s slack covers any summation order, so one thread and all
    # of them give the same indices, and the same as this process
    tests = Path(__file__).resolve().parent
    path = os.pathsep.join([str(tests.parent / "src"), str(tests)])
    digests = set()
    for threads in ("1", str(os.cpu_count() or 1)):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": path}
        out = subprocess.run(
            [sys.executable, "-c", "import test_lattice; print(test_lattice._quantizer_digest())"],
            env=env, capture_output=True, text=True, check=True, timeout=120)
        digests.add(out.stdout.strip())
    assert digests == {_quantizer_digest()}


def test_one_hot_guard():
    pair = make_pair(n=3, q=512, k=2, power=1.0)
    with pytest.raises(GuardExceededError, match="one-hot"):
        quantize_fine(np.zeros(3), pair)


def test_codebook_is_stored_once():
    pair = make_pair(n=4, q=16, k=2, power=1.0)
    assert pair.codebook_units.dtype == np.int32
    with pytest.raises(ValueError):
        pair.codebook_units[0, 0] = 1
    coords = codebook_coords(pair)
    assert np.array_equal(coords, pair.coarse.gamma * pair.codebook_units.astype(float))
    idx = np.array([3, 0, 255])
    for got in (encode_message(idx, pair), encode_message(3, pair)):
        assert not got.flags.writeable
    assert np.array_equal(encode_message(idx, pair), coords[idx])
