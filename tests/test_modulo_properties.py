"""Property tests: the digit-wise index algebra against the integer-units route."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import index_of_units, mod_coarse_where
from twinrelay.lattice import (
    CoarseLattice,
    NestedLatticePair,
    centered_units,
    encode_message,
    make_pair,
    mod_coarse,
    modulo_diff,
    modulo_sum,
    quantize_fine,
)

MAX_CODEBOOK = 512


@st.composite
def pairs(draw):
    """A nested pair with a systematic generator [I_k | A] and a random scale."""
    q = draw(st.integers(2, 8))
    n = draw(st.integers(1, 5))
    k = draw(st.integers(1, n).filter(lambda k: q ** k <= MAX_CODEBOOK))
    parity = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n - k, max_size=n - k),
                           min_size=k, max_size=k))
    gen = np.hstack([np.eye(k, dtype=np.int64),
                     np.asarray(parity, dtype=np.int64).reshape(k, n - k)])
    gamma = draw(st.floats(0.05, 20.0))
    return NestedLatticePair(coarse=CoarseLattice(n=n, q=q, gamma=gamma),
                             generator_matrix=gen)


@st.composite
def pair_and_indices(draw):
    pair = draw(pairs())
    index = st.integers(0, pair.size - 1)
    return pair, draw(index), draw(index)


@settings(max_examples=200, deadline=None)
@given(pair_and_indices())
def test_modulo_sum_matches_units_route(case):
    pair, a, b = case
    units = pair.codebook_units
    want = index_of_units(pair, centered_units(units[a] + units[b], pair.q))
    assert modulo_sum(a, b, pair) == want


@settings(max_examples=200, deadline=None)
@given(pair_and_indices())
def test_modulo_diff_inverts_modulo_sum(case):
    pair, a, b = case
    assert modulo_diff(modulo_sum(a, b, pair), a, pair) == b


@pytest.mark.parametrize("q", [2, 3, 4, 5])
@pytest.mark.parametrize("k", [1, 2])
def test_cancel_own_point_iff_true_sum_exhaustive(q, k):
    # the identity the block kernels score by: t - a = b <=> t = a + b,
    # over every (t, a, b) of the full code Z_q^k
    pair = make_pair(n=k, q=q, k=k, power=1.0)
    t, a, b = (v.ravel() for v in np.meshgrid(*[np.arange(pair.size)] * 3, indexing="ij"))
    cancelled = modulo_diff(t, a, pair) == b
    scored = t == modulo_sum(a, b, pair)
    assert np.array_equal(cancelled, scored)
    assert np.count_nonzero(scored) == pair.size ** 2


@pytest.mark.parametrize("q, k", [(2, 3), (4, 2), (8, 2), (3, 2), (5, 2), (6, 2)])
def test_modulo_arrays_match_units_route_exhaustive(q, k):
    # every pair of indices as arrays, against the codebook lookup of the
    # folded sum and difference of their integer units (k < n: not the digits)
    pair = make_pair(n=k + 1, q=q, k=k, power=1.0)
    a, b = (v.ravel() for v in np.meshgrid(*[np.arange(pair.size)] * 2, indexing="ij"))
    units = pair.codebook_units.astype(np.int64)
    sums, diffs = modulo_sum(a, b, pair), modulo_diff(a, b, pair)
    for i in range(a.size):
        assert sums[i] == index_of_units(pair, centered_units(units[a[i]] + units[b[i]], q))
        assert diffs[i] == index_of_units(pair, centered_units(units[a[i]] - units[b[i]], q))


def digitwise_index(a, b, q, k, sign):
    """Index whose base-q digits are those of a plus `sign` times those of b,
    mod q, from integer division alone (no codebook, no pair methods)."""
    out, place = np.zeros_like(a), 1
    for _ in range(k):
        out += (a // place % q + sign * (b // place % q)) % q * place
        place *= q
    return out


# The q^k = 2^20 cases build a full pair at the enumeration guard: about
# 124 MB peak RSS and 0.55 s for (2, 20), 84 MB and 0.23 s for (4, 10), most
# of the memory the pair's own int32 codebook (80 MB and 40 MB).
@pytest.mark.parametrize("q, k", [(2, 20), (4, 10), (16, 5), (1024, 2), (1 << 20, 1),
                                  (3, 4), (5, 3), (6, 3)])
def test_modulo_arrays_match_digit_oracle_up_to_guard(q, k):
    # sampled pairs, with the extreme indices 0 and q^k - 1 in every slot
    pair = make_pair(n=k, q=q, k=k, power=1.0)
    last = pair.size - 1
    rng = np.random.default_rng(q + k)
    a = np.concatenate([[0, 0, last, last], rng.integers(0, pair.size, 4096)])
    b = np.concatenate([[0, last, 0, last], rng.integers(0, pair.size, 4096)])
    assert np.array_equal(modulo_sum(a, b, pair), digitwise_index(a, b, q, k, 1))
    assert np.array_equal(modulo_diff(a, b, pair), digitwise_index(a, b, q, k, -1))


@pytest.mark.parametrize("q", [2, 3, 4, 6, 16])
def test_one_index_gives_a_plain_int(q):
    pair = make_pair(n=2, q=q, k=2, power=1.0)
    for a, b in [(1, 2), (np.int64(1), np.int64(2)), (np.int64(3), 1), (np.asarray(3), 2)]:
        assert type(modulo_sum(a, b, pair)) is int
        assert type(modulo_diff(a, b, pair)) is int


@settings(max_examples=100, deadline=None)
@given(pair_and_indices())
def test_quantize_fine_returns_the_encoded_index(case):
    pair, a, _ = case
    assert quantize_fine(encode_message(a, pair), pair) == a


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.floats(0.05, 20.0),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=6))
def test_mod_coarse_range_and_congruence(q, gamma, values):
    coarse = CoarseLattice(n=len(values), q=q, gamma=gamma)
    x = np.asarray(values)
    y = mod_coarse(x, coarse)
    half = coarse.cell / 2
    assert np.all(y >= -half) and np.all(y < half)
    ratio = (x - y) / coarse.cell
    assert np.allclose(ratio, np.round(ratio), rtol=0, atol=1e-9)


@settings(max_examples=200, deadline=None)
@given(st.integers(2, 9), st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=8))
def test_centered_units_range_and_congruence(q, values):
    u = np.asarray(values, dtype=np.int64)
    c = centered_units(u, q)
    assert np.all(2 * c >= -q) and np.all(2 * c < q)
    assert np.all((u - c) % q == 0)


@pytest.mark.parametrize("shape", [(4096, 1), (4096, 8), (30, 24)])
def test_mod_coarse_bit_identical_to_where_form(shape):
    coarse = CoarseLattice.for_power(shape[-1], 4, 1.0)
    cell = coarse.cell
    faces = np.array([cell / 2, -cell / 2, 3 * cell / 2, -3 * cell / 2])
    edges = np.concatenate([faces, np.nextafter(faces, np.inf),
                            np.nextafter(faces, -np.inf), [0.0, -0.0]])
    rows = np.random.default_rng(19).uniform(-4 * cell, 4 * cell, size=shape)
    rows.flat[:edges.size] = edges
    before = rows.copy()
    got = mod_coarse(rows, coarse)
    assert np.array_equal(got.view(np.int64), mod_coarse_where(rows, coarse).view(np.int64))
    assert np.array_equal(rows.view(np.int64), before.view(np.int64))  # input untouched
