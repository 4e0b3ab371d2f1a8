"""Interpolation operator: blur parameters, NN fill, blur oracle, lifting."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow import interp
from jitflow.grid import ActiveBlock, TokenGrid, full_set, gather, index_set
from jitflow.interp import (
    BlurSpec,
    blur_params,
    gaussian_blur,
    lift,
    lift_operator,
    nearest_anchor,
    nearest_fill,
)
from jitflow.rng import UniformStream
from jitflow.schedule import base_selector_indices, initial_selector

from oracles import (
    brute_anchor_distance,
    brute_owner_map,
    dense_conv2d_replicate,
    gaussian_kernel,
    reference_blur,
)


def test_blur_params_examples():
    spec = blur_params(16, 16)
    assert spec.sigma == pytest.approx(0.4) and spec.kernel_size == 3

    spec = blur_params(35, 100)  # density 0.35
    assert spec.sigma == pytest.approx(0.4 / math.sqrt(0.35), abs=1e-9)
    assert spec.sigma == pytest.approx(0.67612, abs=1e-5)
    assert spec.kernel_size == 3

    spec = blur_params(1, 16)  # density 0.0625, spacing 4
    assert spec.sigma == pytest.approx(1.6)
    assert spec.kernel_size == 5


def test_nearest_fill_examples():
    block = ActiveBlock(2, 1, np.array([1.0, 5.0], dtype=np.float32))
    out = nearest_fill(block, index_set(3, [0, 2]), (1, 3, 1))
    # index 1 is equidistant; tie goes to the lower row-major anchor
    assert np.array_equal(out.data.ravel(), [1.0, 1.0, 5.0])

    g = TokenGrid(2, 2, 1, np.array([1, 2, 3, 4], dtype=np.float32))
    everything = full_set(4)
    assert np.array_equal(nearest_fill(gather(g, everything), everything, g.shape).data, g.data)

    single = ActiveBlock(1, 2, np.array([[7.0, -2.0]], dtype=np.float32))
    out = nearest_fill(single, index_set(9, [4]), (3, 3, 2))
    assert np.all(out.data == np.array([7.0, -2.0], dtype=np.float32))


def test_nearest_fill_matches_brute_force():
    stream = UniformStream(88)
    h, w, d = 7, 5, 2
    n = h * w
    for _ in range(20):
        m = 1 + stream.integer_below(n)
        idx = stream.choose(np.arange(n, dtype=np.int64), m)
        block = ActiveBlock(m, d, stream.normal(m * d).astype(np.float32))
        out = nearest_fill(block, index_set(n, idx), (h, w, d))
        owner = brute_owner_map(np.sort(idx), h, w)
        assert np.array_equal(out.data, block.values[owner])


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_gather_and_nearest_fill_equal_fancy_index(h, w, d, seed):
    # np.take row gathers must equal fancy indexing: values, dtype, no aliasing
    rng = np.random.default_rng(seed)
    n = h * w
    g = TokenGrid(h, w, d, rng.standard_normal((n, d)).astype(np.float32))
    active = index_set(n, rng.choice(n, size=rng.integers(1, n + 1), replace=False))
    block = gather(g, active)
    want = g.data[active.indices]
    assert block.values.dtype == want.dtype and np.array_equal(block.values, want)
    assert not np.shares_memory(block.values, g.data)
    filled = nearest_fill(block, active, g.shape).data
    want = block.values[nearest_anchor(active, h, w)[0]]
    assert filled.dtype == want.dtype and np.array_equal(filled, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_owner_map_equals_brute_force(data):
    h = data.draw(st.integers(1, 24), label="h")
    w = data.draw(st.integers(1, 24), label="w")
    n = h * w
    kind = data.draw(st.sampled_from(["random", "base", "selector", "one", "all-but-one"]))
    if kind == "random":
        idx = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    elif kind == "base":  # stride-2 lattice plus boundary: many equidistant anchors
        idx = base_selector_indices(h, w)
    elif kind == "selector":
        budget = data.draw(st.integers(1, n))
        idx = initial_selector(h, w, budget).indices
    elif kind == "one":
        idx = [data.draw(st.integers(0, n - 1))]
    else:
        if n < 2:
            return
        gap = data.draw(st.integers(0, n - 1))
        idx = [i for i in range(n) if i != gap]
    active = index_set(n, sorted(idx))
    got = nearest_anchor(active, h, w)[0]
    assert got.dtype == np.int64 and got.shape == (n,)
    assert np.array_equal(got, brute_owner_map(active.indices, h, w))


def test_owner_map_lattices_at_sampler_sizes():
    # initial_selector lattices of the presets' first stages, as runs see them
    for h, w in ((64, 64), (48, 48), (40, 24)):
        for budget in (int(0.35 * h * w), int(0.62 * h * w)):
            active = initial_selector(h, w, budget)
            assert np.array_equal(
                nearest_anchor(active, h, w)[0], brute_owner_map(active.indices, h, w)
            )


def test_owner_map_more_ties_than_tree_candidates():
    # all lattice points on a circle around a token tie at its center: 12 at
    # radius 5 and 24 at radius^2 325; the bottom-row anchors lie outside it
    for radius2, h, w, center in ((25, 12, 48, (5, 40)), (325, 38, 64, (18, 40))):
        rad = math.isqrt(radius2)
        circle = [(dr, dc) for dr in range(-rad, rad + 1) for dc in range(-rad, rad + 1)
                  if dr * dr + dc * dc == radius2]
        idx = [(center[0] + dr) * w + (center[1] + dc) for dr, dc in circle]
        idx += [(h - 1) * w + c for c in range(0, w, 4)]
        active = index_set(h * w, idx)
        got = nearest_anchor(active, h, w)[0]
        assert np.array_equal(got, brute_owner_map(active.indices, h, w))
        assert got[center[0] * w + center[1]] == 0  # the lowest row-major anchor


def test_owner_map_comb_matches_brute_force():
    # anchors on every other column of row 0: every column is a Voronoi
    # border with ties down its whole length
    h = w = 128
    active = index_set(h * w, range(0, w, 2))
    assert np.array_equal(nearest_anchor(active, h, w)[0], brute_owner_map(active.indices, h, w))


def test_owner_map_comb_memory():
    # the comb puts nearly every token on a tie far from its anchors; one build
    # must still take memory linear in N
    h = w = 512
    nearest_anchor(index_set(4, [0]), 2, 2)  # import scipy.ndimage before tracing
    active = index_set(h * w, range(0, w, 2))
    tracemalloc.start()
    try:
        nearest_anchor(active, h, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * h * w


@pytest.mark.parametrize("h, w", [(1, 4096), (4096, 1)])
@pytest.mark.parametrize("idx", [[2047], [4095], [10, 4000], [0, 4094]])
def test_owner_map_long_strips(h, w, idx):
    # one or two anchors on a 4096-token line; [10, 4000] and [0, 4094] tie
    # at their midpoints 2005 and 2047
    active = index_set(4096, idx)
    got = nearest_anchor(active, h, w)[0]
    assert np.array_equal(got, brute_owner_map(active.indices, h, w))
    if len(idx) == 2:
        assert got[(idx[0] + idx[1]) // 2] == 0


@pytest.mark.parametrize("stride", [2, 3, 4, 7])
@pytest.mark.parametrize("h, w", [(24, 40), (41, 17)])
def test_owner_map_lattice_ties(h, w, stride):
    # square and offset lattices: cell centers are equidistant to 2 or 4 anchors
    square = [r * w + c for r in range(0, h, stride) for c in range(0, w, stride)]
    shifted = [r * w + c for r in range(1, h, stride)
               for c in range((r // stride % 2) * (stride // 2), w, stride)]
    for idx in (square, shifted):
        active = index_set(h * w, idx)
        assert np.array_equal(
            nearest_anchor(active, h, w)[0], brute_owner_map(active.indices, h, w)
        )


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 64), st.integers(1, 64), st.data())
def test_owner_map_very_sparse_sets(h, w, data):
    n = h * w
    idx = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 4)))
    active = index_set(n, sorted(idx))
    assert np.array_equal(nearest_anchor(active, h, w)[0], brute_owner_map(active.indices, h, w))


def test_owner_map_cache_key_includes_grid_shape():
    # the same index bytes on a 3x5 and on a 5x3 grid are different anchor sets
    idx = [1, 7, 13]
    wide = nearest_anchor(index_set(15, idx), 3, 5)[0]
    tall = nearest_anchor(index_set(15, idx), 5, 3)[0]
    assert np.array_equal(wide, brute_owner_map(np.array(idx), 3, 5))
    assert np.array_equal(tall, brute_owner_map(np.array(idx), 5, 3))
    assert not np.array_equal(wide, tall)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_anchor_distance_equals_brute_force(data):
    h = data.draw(st.integers(1, 32), label="h")
    w = data.draw(st.integers(1, 32), label="w")
    n = h * w
    kind = data.draw(st.sampled_from(["random", "selector", "sparse"]))
    if kind == "random":
        idx = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n))
    elif kind == "selector":
        budget = data.draw(st.integers(1, n))
        idx = initial_selector(h, w, budget).indices
    else:
        idx = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=min(n, 3)))
    active = index_set(n, sorted(idx))
    got = nearest_anchor(active, h, w)[1]
    assert got.dtype == np.float64 and got.shape == (n,)
    # bitwise: each entry is the square root of the same integer
    assert np.array_equal(got, brute_anchor_distance(active.indices, h, w))
    assert np.all(got[active.indices] == 0.0)


def test_anchor_distance_shares_the_owner_map_transform():
    # one transform returns both; the distance is the one to the owner the map names
    active = index_set(40 * 24, range(0, 40 * 24, 7))
    owner, dist = nearest_anchor(active, 40, 24)
    assert np.array_equal(owner, brute_owner_map(active.indices, 40, 24))
    tokens = np.arange(40 * 24)
    anchor = active.indices[owner]
    want = np.hypot(tokens // 24 - anchor // 24, tokens % 24 - anchor % 24)
    assert np.allclose(dist, want, rtol=1e-15, atol=0.0)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_lift_operator_equals_lift_at_the_ring(data):
    # the seat operator gives lift's values at every token outside the
    # anchors: it sums the same float64 terms in scipy's order, so it is
    # bitwise equal wherever scipy's build rounds each multiply and add (a
    # build that fuses them may differ in the last float64 bit); the bound
    # checked is one float32 ulp per element
    shape = data.draw(st.sampled_from(["row", "column", "grid"]), label="shape")
    h = 1 if shape == "row" else data.draw(st.integers(1, 64 if shape == "column" else 40))
    w = 1 if shape == "column" else data.draw(st.integers(1, 64 if shape == "row" else 40))
    n = h * w
    if n < 2:
        return
    density = data.draw(st.sampled_from(["one", "sparse", "any"]), label="density")
    m = {"one": 1, "sparse": max(1, round(0.05 * n)), "any": None}[density]
    if m is None:
        m = data.draw(st.integers(1, n - 1), label="m")
    if data.draw(st.booleans(), label="selector"):
        active = initial_selector(h, w, m)
    else:
        idx = data.draw(st.sets(st.integers(0, n - 1), min_size=m, max_size=m))
        active = index_set(n, sorted(idx))
    pool = np.flatnonzero(~active.mask())
    picked = data.draw(st.sets(st.sampled_from(pool.tolist()), min_size=1), label="ring")
    ring = index_set(n, sorted(picked))
    d = data.draw(st.integers(1, 4), label="d")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    values = rng.standard_normal((m, d)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(1, d))
    block = ActiveBlock(m, d, values.astype(np.float32))
    op = lift_operator(nearest_anchor(active, h, w)[0], m, ring, h, w)
    k = 2 * len(op.taps) - 1
    assert op.owners.shape == (k, k, len(ring)) and op.owners.dtype == np.int32
    assert op.taps[0] + 2.0 * op.taps[1:].sum() == pytest.approx(1.0, rel=0.0, abs=1e-12)
    got = op(block.values)
    want = gather(lift(block, active, (h, w, d)), ring).values
    assert got.dtype == np.float32 and got.shape == want.shape
    assert np.all(np.abs(got - want) <= np.spacing(np.abs(want)))


def test_lift_operator_is_the_same_in_chunks(monkeypatch):
    # a wide kernel (5 taps a side) built and applied a few rows at a time
    # gives the same operator and the same values
    h, w = 23, 17
    active = initial_selector(h, w, 20)
    ring = index_set(h * w, np.flatnonzero(~active.mask()))
    assert blur_params(20, h * w).kernel_size > 3
    values = UniformStream(5).normal(20 * 3).astype(np.float32).reshape(20, 3)
    owner = nearest_anchor(active, h, w)[0]
    whole = lift_operator(owner, 20, ring, h, w)
    want = whole(values)
    monkeypatch.setattr(interp, "OPERATOR_CHUNK", 60)
    chunked = lift_operator(owner, 20, ring, h, w)
    assert np.array_equal(chunked.owners, whole.owners)
    assert np.array_equal(chunked.taps, whole.taps)
    assert chunked(values).tobytes() == want.tobytes()


def test_gaussian_blur_constant_invariance():
    g = TokenGrid(4, 5, 3, np.full((20, 3), 2.5, dtype=np.float32))
    out = gaussian_blur(g, BlurSpec(1.2, 5))
    assert np.allclose(out.data, 2.5, atol=1e-6)


def test_gaussian_blur_impulse_row():
    g = TokenGrid(1, 5, 1, np.array([0, 0, 1, 0, 0], dtype=np.float32))
    spec = BlurSpec(0.4, 3)
    kernel = gaussian_kernel(spec.sigma, spec.kernel_size)
    out = gaussian_blur(g, spec).data.ravel()
    # along a single row the separable blur is the 1-D kernel, columns add nothing
    assert out[1] == pytest.approx(kernel[0], abs=1e-7)
    assert out[2] == pytest.approx(kernel[1], abs=1e-7)
    assert out[3] == pytest.approx(kernel[2], abs=1e-7)
    oracle = dense_conv2d_replicate(g.spatial().astype(np.float64), kernel)
    assert np.allclose(out, oracle.ravel(), atol=1e-6)


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 40), st.integers(1, 40), st.sampled_from([1, 2, 3, 4, 7, 16]),
       st.floats(0.2, 6.0), st.integers(1, 8), st.integers(0, 2**32 - 1))
def test_gaussian_blur_bitwise_equals_reference_layout(h, w, d, sigma, half, seed):
    rng = np.random.default_rng(seed)
    data = rng.standard_normal((h * w, d)) * 10.0 ** rng.uniform(-20.0, 20.0, size=(1, d))
    g = TokenGrid(h, w, d, data.astype(np.float32))
    spec = BlurSpec(sigma, 2 * half + 1)
    got = gaussian_blur(g, spec).data
    want = reference_blur(g.spatial(), spec.sigma, spec.kernel_size).reshape(h * w, d)
    assert got.flags.c_contiguous and got.tobytes() == want.tobytes()


def test_gaussian_blur_equals_dense_2d_oracle():
    stream = UniformStream(31)
    for trial in range(10):
        g = TokenGrid(8, 8, 3, stream.normal(192).astype(np.float32))
        spec = blur_params(1 + stream.integer_below(64), 64)
        out = gaussian_blur(g, spec)
        oracle = dense_conv2d_replicate(
            g.spatial().astype(np.float64), gaussian_kernel(spec.sigma, spec.kernel_size)
        )
        assert np.max(np.abs(out.spatial() - oracle)) < 1e-5, f"trial {trial}"


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 64))
def test_blur_is_a_convex_combination(seed, m):
    stream = UniformStream(seed)
    g = TokenGrid(8, 8, 2, stream.normal(128).astype(np.float32))
    out = gaussian_blur(g, blur_params(m, 64))
    for c in range(2):
        assert out.data[:, c].min() >= g.data[:, c].min() - 1e-5
        assert out.data[:, c].max() <= g.data[:, c].max() + 1e-5


def test_lift_full_set_is_identity_bitwise():
    stream = UniformStream(5)
    g = TokenGrid(4, 4, 2, stream.normal(32).astype(np.float32))
    everything = full_set(16)
    block = gather(g, everything)
    out = lift(block, everything, g.shape).data
    assert np.array_equal(out, g.data)
    assert not np.shares_memory(out, block.values)


def test_lift_full_set_shortcut_matches_composed_path():
    # lift is the nn-fill/blur/compose pipeline bitwise, and on the full
    # set that pipeline returns the block itself
    stream = UniformStream(6)
    h, w, d = 4, 4, 2
    n = h * w
    everything = full_set(n)
    block = gather(TokenGrid(h, w, d, stream.normal(n * d).astype(np.float32)), everything)
    z_nn = nearest_fill(block, everything, (h, w, d))
    z_blur = gaussian_blur(z_nn, blur_params(n, n))
    composed = z_blur.data.copy()
    composed[everything.indices] = block.values
    assert np.array_equal(lift(block, everything, (h, w, d)).data, composed)


def test_lift_consistency_bitwise_random():
    stream = UniformStream(7)
    shape = (16, 16, 4)
    n = 256
    for _ in range(200):
        m = 1 + stream.integer_below(n)
        active = index_set(n, stream.choose(np.arange(n, dtype=np.int64), m))
        block = ActiveBlock(m, 4, stream.normal(m * 4).astype(np.float32))
        lifted = lift(block, active, shape)
        assert np.array_equal(gather(lifted, active).values, block.values)


def test_lift_single_anchor_constant():
    block = ActiveBlock(1, 1, np.array([[3.25]], dtype=np.float32))
    out = lift(block, index_set(12, [5]), (3, 4, 1))
    assert np.all(out.data == np.float32(3.25))


def test_lift_range_preservation():
    stream = UniformStream(9)
    shape = (8, 8, 3)
    for _ in range(20):
        m = 1 + stream.integer_below(64)
        active = index_set(64, stream.choose(np.arange(64, dtype=np.int64), m))
        block = ActiveBlock(m, 3, stream.normal(m * 3).astype(np.float32))
        out = lift(block, active, shape)
        for c in range(3):
            assert out.data[:, c].min() >= block.values[:, c].min() - 1e-5
            assert out.data[:, c].max() <= block.values[:, c].max() + 1e-5


def test_lift_density_limit():
    # as the active set approaches the full grid, lift approaches the embed
    # of the true values; it equals it exactly at full density
    from jitflow.fields import make_target_image

    stream = UniformStream(10)
    n = 64
    truth = make_target_image("gaussian-bump", (8, 8, 1))
    errs = []
    for m in (16, 32, 48, 60, 64):
        active = index_set(n, stream.choose(np.arange(n, dtype=np.int64), m))
        lifted = lift(gather(truth, active), active, truth.shape)
        errs.append(float(np.abs(lifted.data - truth.data).max()))
    assert errs[-1] == 0.0
    assert errs[-2] < errs[0]
