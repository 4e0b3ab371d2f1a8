"""Importance map against window-enumeration oracle; dither-first ranking."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.grid import TokenGrid
from jitflow.importance import WINDOW, importance_map
from jitflow.rng import UniformStream
from jitflow.schedule import dither_first, dither_key

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
        top = dither_first(-base, 10, 8, 8)
        top_s = dither_first(-scaled, 10, 8, 8)
        assert np.array_equal(top.indices, top_s.indices)


def test_dither_first_examples():
    scores = np.array([3.0, 1.0, 2.0, 9.0])
    assert dither_first(scores, 2, 2, 2).indices.tolist() == [1, 2]
    assert dither_first(-scores, 2, 2, 2).indices.tolist() == [0, 3]
    # a 2 x 2 grid's dither keys are [0, 2, 3, 1]: a tie goes to tokens 0, 3
    assert dither_first(np.ones(4), 2, 2, 2).indices.tolist() == [0, 3]
    assert dither_first(np.ones(4), 4, 2, 2).indices.tolist() == [0, 1, 2, 3]
    # a cut tie class goes by key, not by index: token 3 before token 1
    assert dither_first(np.array([0, 1, 1, 1]), 2, 2, 2).indices.tolist() == [0, 3]


def test_dither_first_reads_no_key_on_distinct_scores():
    # a cut that splits no tie class is the plain sort order, and no key is built
    scores = UniformStream(17).uniform(63 * 65)
    for count in (1, 12, 2000, 63 * 65):
        dither_key.cache_clear()
        got = dither_first(scores, count, 63, 65)
        assert dither_key.cache_info().misses == 0
        assert got.indices.tolist() == sorted(np.argsort(scores)[:count].tolist())


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.data())
def test_dither_first_equals_lexsort_oracle_under_heavy_ties(h, w, data):
    n = h * w
    if data.draw(st.booleans(), label="bool"):
        score = np.array(data.draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    else:
        score = np.array(data.draw(st.lists(st.integers(-2, 2), min_size=n, max_size=n)))
    count = data.draw(st.one_of(st.just(1), st.just(n), st.integers(1, n)))
    dither_key.cache_clear()
    got = dither_first(score, count, h, w)
    # the key is read exactly when the cut splits a tie class
    ranked = np.sort(score)
    assert dither_key.cache_info().misses == (count < n and ranked[count - 1] == ranked[count])
    want = np.sort(np.lexsort((dither_key(h, w), score))[:count])
    assert got.n_total == n and np.array_equal(got.indices, want)
