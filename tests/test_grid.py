"""Grid state and index-set algebra: gather/embed/mask identities."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.errors import DimensionError, NestingError
from jitflow.grid import (
    ActiveBlock,
    IndexSet,
    TokenGrid,
    apply_mask,
    embed,
    full_set,
    gather,
    index_set,
    ring,
)


def grid_1x3(a=1.0, b=2.0, c=3.0):
    return TokenGrid(1, 3, 1, np.array([a, b, c], dtype=np.float32))


def test_grid_validation():
    with pytest.raises(DimensionError):
        TokenGrid(0, 3, 1, np.zeros(0, dtype=np.float32))
    with pytest.raises(DimensionError):
        TokenGrid(2, 2, 1, np.zeros(3, dtype=np.float32))
    with pytest.raises(DimensionError):
        TokenGrid(1, 2, 1, np.array([1.0, np.nan], dtype=np.float32))


def test_index_set_validation():
    with pytest.raises(DimensionError):
        IndexSet(4, np.array([1, 1]))
    with pytest.raises(DimensionError):
        IndexSet(4, np.array([3, 1]))
    with pytest.raises(DimensionError):
        IndexSet(4, np.array([4]))
    with pytest.raises(DimensionError, match="at least one index"):
        IndexSet(4, np.array([], dtype=np.int64))
    assert np.array_equal(index_set(5, [3, 0, 3]).indices, [0, 3])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 200), st.data())
def test_index_set_sorts_and_deduplicates_like_unique(n, data):
    raw = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=3 * n))
    assert np.array_equal(index_set(n, raw).indices, np.unique(raw))
    assert np.array_equal(index_set(n, np.array(raw)[:, None]).indices, np.unique(raw))
    for bad in ([], raw + [n], raw + [-1]):
        with pytest.raises(DimensionError):
            index_set(n, bad)


def test_gather_examples():
    g = grid_1x3()
    assert np.array_equal(gather(g, index_set(3, [0, 2])).values.ravel(), [1.0, 3.0])
    assert np.array_equal(gather(g, full_set(3)).values, g.data)
    g2 = TokenGrid(2, 2, 2, np.arange(8, dtype=np.float32))
    assert np.array_equal(gather(g2, index_set(4, [3])).values.ravel(), [6.0, 7.0])
    with pytest.raises(DimensionError):
        gather(g, index_set(4, [0]))


def test_embed_examples():
    block = ActiveBlock(2, 1, np.array([1.0, 3.0], dtype=np.float32))
    out = embed(block, index_set(3, [0, 2]), (1, 3, 1))
    assert np.array_equal(out.data.ravel(), [1.0, 0.0, 3.0])
    g = grid_1x3()
    assert np.array_equal(embed(gather(g, full_set(3)), full_set(3), g.shape).data, g.data)
    with pytest.raises(DimensionError):
        embed(block, index_set(3, [0]), (1, 3, 1))


def test_apply_mask_examples():
    g = grid_1x3()
    s = index_set(3, [0, 2])
    masked = apply_mask(g, s)
    assert np.array_equal(masked.data.ravel(), [1.0, 0.0, 3.0])
    assert np.array_equal(apply_mask(masked, s).data, masked.data)
    assert np.array_equal(apply_mask(g, full_set(3)).data, g.data)


def test_ring_examples():
    prev = index_set(6, [0, 1, 2, 3])
    assert np.array_equal(ring(prev, index_set(6, [0, 2])).indices, [1, 3])
    assert np.array_equal(ring(index_set(6, [0, 2, 5]), index_set(6, [0, 2])).indices, [5])
    with pytest.raises(NestingError):
        ring(prev, index_set(6, [0, 4]))
    with pytest.raises(NestingError):
        ring(prev, prev)
    with pytest.raises(NestingError):
        ring(prev, index_set(7, [0]))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.data())
def test_subset_equals_brute_force(n, data):
    every = set(range(n))
    a = data.draw(st.one_of(st.just(every), st.sets(st.integers(0, n - 1), min_size=1)))
    b = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
    sa, sb = IndexSet(n, sorted(a)), IndexSet(n, sorted(b))
    assert sa.is_subset_of(sb) == (a <= b)
    assert sb.is_subset_of(sa) == (b <= a)
    assert sa.is_subset_of(IndexSet(n, sorted(a | b)))
    assert not sa.is_subset_of(IndexSet(n + 1, sorted(a)))


@st.composite
def grid_and_nested_sets(draw):
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    d = draw(st.integers(1, 3))
    n = h * w
    data = draw(
        st.lists(
            st.floats(-50, 50, width=32), min_size=n * d, max_size=n * d
        )
    )
    grid = TokenGrid(h, w, d, np.array(data, dtype=np.float32))
    outer_size = draw(st.integers(min(2, n), n))
    outer = draw(st.permutations(range(n)))[:outer_size]
    inner_size = draw(st.integers(1, max(1, outer_size - 1)))
    inner = outer[:inner_size]
    return grid, index_set(n, outer), index_set(n, inner)


@settings(max_examples=60, deadline=None)
@given(grid_and_nested_sets())
def test_projector_identities_property(case):
    grid, outer, inner = case
    # S^T S = I: gather after embed restores the block bitwise
    block = gather(grid, outer)
    assert np.array_equal(gather(embed(block, outer, grid.shape), outer).values, block.values)
    # P = S S^T: embed(gather) equals apply_mask bitwise
    assert np.array_equal(embed(block, outer, grid.shape).data, apply_mask(grid, outer).data)
    # P idempotent
    assert np.array_equal(
        apply_mask(apply_mask(grid, inner), inner).data, apply_mask(grid, inner).data
    )
    if len(inner) < len(outer):
        r = ring(outer, inner)
        # Q P = 0: ring projector annihilates the anchor subspace
        assert np.array_equal(
            apply_mask(apply_mask(grid, r), inner).data, np.zeros_like(grid.data)
        )
        # P_prev - P_cur masks exactly the ring
        diff = apply_mask(grid, outer).data - apply_mask(grid, inner).data
        assert np.array_equal(diff, apply_mask(grid, r).data)


def test_masking_by_ring_equals_projector_difference():
    rng = np.random.default_rng(0)
    for _ in range(200):
        n = int(rng.integers(2, 65))
        h, w = 1, n
        d = int(rng.integers(1, 4))
        grid = TokenGrid(h, w, d, rng.standard_normal((n, d)).astype(np.float32))
        outer_sz = int(rng.integers(2, n + 1))
        outer_idx = rng.permutation(n)[:outer_sz]
        inner_idx = outer_idx[: int(rng.integers(1, outer_sz))]
        outer, inner = index_set(n, outer_idx), index_set(n, inner_idx)
        r = ring(outer, inner)
        diff = apply_mask(grid, outer).data - apply_mask(grid, inner).data
        assert np.array_equal(diff, apply_mask(grid, r).data)
        assert np.array_equal(
            apply_mask(apply_mask(grid, r), inner).data, np.zeros_like(grid.data)
        )
