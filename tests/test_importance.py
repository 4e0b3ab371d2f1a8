"""Importance map against window-enumeration oracle; top-token selection."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.grid import IndexSet, TokenGrid, full_set, index_set
from jitflow.importance import WINDOW, ImportanceMap, importance_map, top_tokens
from jitflow.rng import UniformStream

from oracles import reference_importance, windowed_variance_scores


def test_constant_field_zero_scores():
    g = TokenGrid(4, 4, 3, np.full((16, 3), -1.75, dtype=np.float32))
    assert np.all(importance_map(g).scores == 0.0)


def test_impulse_example_all_eight():
    g = TokenGrid(3, 3, 1, np.array([0, 0, 0, 0, 9, 0, 0, 0, 0], dtype=np.float32))
    scores = importance_map(g).scores
    # every clamped 3x3 window sees the 9 exactly once: E[u^2]=9, E[u]=1
    assert np.max(np.abs(scores - 8.0)) < 1e-9
    oracle = windowed_variance_scores(g.spatial().astype(np.float64), 3)
    assert np.max(np.abs(oracle - 8.0)) < 1e-12


def test_duplicated_channel_leaves_score():
    stream = UniformStream(14)
    vals = stream.normal(36).astype(np.float32).reshape(36, 1)
    one = TokenGrid(6, 6, 1, vals)
    two = TokenGrid(6, 6, 2, np.repeat(vals, 2, axis=1))
    assert np.allclose(importance_map(one).scores, importance_map(two).scores, atol=1e-12)


def test_matches_enumeration_oracle_100_trials():
    stream = UniformStream(15)
    for _ in range(100):
        g = TokenGrid(16, 16, 4, stream.normal(1024).astype(np.float32))
        got = importance_map(g).scores
        want = windowed_variance_scores(g.spatial().astype(np.float64), 3)
        assert np.max(np.abs(got - want)) < 1e-5


@st.composite
def velocity_grids(draw):
    """Grids from 1x1 to 40x40 with d in {1..9, 16}: plain normal values,
    three levels (ties and constant windows), signed zeros, or channels
    scaled over sixty decades."""
    h, w = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    d = draw(st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 16]))
    kind = draw(st.sampled_from(["normal", "levels", "signed-zeros", "wide"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal((h * w, d))
    if kind == "levels":
        x = rng.integers(-1, 2, size=x.shape).astype(np.float64)
    elif kind == "signed-zeros":
        x = np.where(rng.random(x.shape) < 0.5, np.copysign(0.0, x), x)
    elif kind == "wide":
        x *= 10.0 ** rng.uniform(-30.0, 30.0, size=(1, d))
    return TokenGrid(h, w, d, x.astype(np.float32))


@settings(max_examples=300, deadline=None)
@given(velocity_grids())
def test_importance_map_bitwise_equals_reference_formula(g):
    got = importance_map(g).scores
    want = reference_importance(g.spatial(), WINDOW)
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_scale_covariance():
    stream = UniformStream(16)
    g = TokenGrid(8, 8, 2, stream.normal(128).astype(np.float32))
    base = importance_map(g).scores
    for s in (0.5, 3.0):
        scaled = importance_map(g.with_data(g.data * np.float32(s))).scores
        nz = base > 1e-12
        assert np.max(np.abs(scaled[nz] / base[nz] - s * s)) < 1e-4
        assert np.array_equal(np.argsort(-scaled, kind="stable"), np.argsort(-base, kind="stable"))
        top = top_tokens(ImportanceMap(8, 8, base), full_set(64), 10)
        top_s = top_tokens(ImportanceMap(8, 8, scaled), full_set(64), 10)
        assert np.array_equal(top.indices, top_s.indices)


def test_top_tokens_examples():
    imap = ImportanceMap(2, 2, np.array([3.0, 1.0, 2.0, 9.0]))
    picked = top_tokens(imap, full_set(4), 2)
    assert np.array_equal(picked.indices, [0, 3])

    flat = ImportanceMap(2, 2, np.ones(4))
    assert np.array_equal(top_tokens(flat, index_set(4, [1, 2, 3]), 2).indices, [1, 2])

    cands = index_set(4, [0, 2])
    assert np.array_equal(top_tokens(imap, cands, 2).indices, cands.indices)


def test_top_tokens_subset_and_deterministic():
    stream = UniformStream(17)
    scores = stream.uniform(64)
    imap = ImportanceMap(8, 8, scores)
    cands = index_set(64, stream.choose(np.arange(64, dtype=np.int64), 30))
    a = top_tokens(imap, cands, 12)
    b = top_tokens(imap, cands, 12)
    assert np.array_equal(a.indices, b.indices)
    assert len(a) == 12
    assert np.all(np.isin(a.indices, cands.indices))
    # brute-force sort oracle: stable sort by (-score, index)
    order = sorted(cands.indices.tolist(), key=lambda i: (-scores[i], i))
    assert sorted(order[:12]) == a.indices.tolist()


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 120), st.data())
def test_top_tokens_equals_sort_oracle_under_heavy_ties(n, data):
    levels = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    scores = np.array([0.0, 0.5, 2.0])[levels]  # three levels: ties everywhere
    member = data.draw(st.one_of(
        st.just([True] * n), st.lists(st.booleans(), min_size=n, max_size=n)))
    cands = IndexSet(n, np.flatnonzero(member))
    count = data.draw(st.one_of(
        st.just(0), st.just(len(cands)), st.integers(0, len(cands))))
    got = top_tokens(ImportanceMap(1, n, scores), cands, count)
    order = sorted(cands.indices.tolist(), key=lambda i: (-scores[i], i))
    assert got.indices.tolist() == sorted(order[:count])
