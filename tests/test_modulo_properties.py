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
