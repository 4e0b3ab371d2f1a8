"""Counter-based stream: published vectors, vectorization, draw splitting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.rng import UniformStream, derive_seed, mix64

from oracles import scalar_choose

# reference outputs of the splitmix64 generator for seed 0 (state advances by
# the golden-ratio increment before each mix)
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
    0x1B39896A51A8749B,
]


def test_published_seed0_vectors():
    stream = UniformStream(0)
    got = stream.uint64(5)
    assert [int(v) for v in got] == SPLITMIX64_SEED0


def test_scalar_mix_matches_vectorized_stream():
    stream = UniformStream(12345)
    vec = stream.uint64(64)
    gamma = 0x9E3779B97F4A7C15
    scalar = [mix64((12345 + (i + 1) * gamma) & ((1 << 64) - 1)) for i in range(64)]
    assert [int(v) for v in vec] == scalar


def test_split_draws_equal_one_big_draw():
    a = UniformStream(7)
    b = UniformStream(7)
    merged = a.uniform(10)
    parts = np.concatenate([b.uniform(3), b.uniform(4), b.uniform(3)])
    assert np.array_equal(merged, parts)


def test_uniform_range_and_resolution():
    u = UniformStream(99).uniform(10_000)
    assert u.min() >= 0.0 and u.max() < 1.0
    # 53-bit grid: every value is a multiple of 2^-53
    assert np.all(u * 2.0**53 == np.round(u * 2.0**53))


def test_normal_moments_and_pairing():
    z = UniformStream(4).normal(200_000)
    assert abs(z.mean()) < 0.01
    assert abs(z.std() - 1.0) < 0.01
    # odd request consumes a whole pair but returns n values
    s1, s2 = UniformStream(4), UniformStream(4)
    assert np.array_equal(s1.normal(5), s2.normal(6)[:5])


def scalar_normal(seed: int, counter: int, n: int) -> np.ndarray:
    """Box-Muller one pair at a time on mix64 values, after the stream's counter.

    Uses numpy's float64 scalar log/sqrt/cos/sin: libm's (the math module)
    differ from them in the last bit on about one draw in 500.
    """
    gamma, mask = 0x9E3779B97F4A7C15, (1 << 64) - 1
    out = []
    for j in range(counter, counter + 2 * ((n + 1) // 2), 2):
        v1 = mix64((seed + (j + 1) * gamma) & mask)
        v2 = mix64((seed + (j + 2) * gamma) & mask)
        u1 = np.float64((v1 >> 11) + 1.0) * 2.0**-53
        u2 = np.float64(v2 >> 11) * 2.0**-53
        radius = np.sqrt(-2.0 * np.log(u1))
        angle = 2.0 * np.pi * u2
        out += [radius * np.cos(angle), radius * np.sin(angle)]
    return np.array(out[:n], dtype=np.float64)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**64 - 1), st.integers(0, 2**40), st.integers(0, 40))
def test_normal_equals_scalar_box_muller(seed, counter, k):
    n = 2 * k + 1  # odd: the last pair's sine is dropped
    stream = UniformStream(seed)
    stream.counter = counter
    got = stream.normal(n)
    assert got.tobytes() == scalar_normal(seed, counter, n).tobytes()
    assert stream.counter == counter + n + 1


def test_integer_below_and_bounds():
    s = UniformStream(1)
    vals = [s.integer_below(7) for _ in range(200)]
    assert set(vals) <= set(range(7))
    with pytest.raises(ValueError):
        s.integer_below(0)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2**32), st.integers(0, 30), st.integers(0, 30))
def test_choose_is_sorted_subset(seed, n_extra, k_raw):
    pool = np.arange(10 + n_extra, dtype=np.int64) * 3
    k = min(k_raw, len(pool))
    picked = UniformStream(seed).choose(pool, k)
    assert len(picked) == k
    assert np.all(np.diff(picked) > 0)
    assert np.all(np.isin(picked, pool))


def test_choose_full_and_errors():
    pool = np.arange(6, dtype=np.int64)
    assert np.array_equal(UniformStream(3).choose(pool, 6), pool)
    with pytest.raises(ValueError):
        UniformStream(3).choose(pool, 7)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 2**64 - 1),
    st.integers(0, 2**40),
    st.integers(0, 80),
    st.data(),
    st.sampled_from([np.int64, np.int32, np.uint64, np.float64]),
)
def test_choose_equals_scalar_oracle(seed, start, n, data, dtype):
    k = data.draw(st.one_of(st.just(0), st.just(n), st.integers(0, n)))
    items = (np.arange(n) * 7 + 3).astype(dtype)
    vec, ref = UniformStream(seed), UniformStream(seed)
    vec.counter = ref.counter = start
    got = vec.choose(items, k)
    want = scalar_choose(ref, items, k)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert vec.counter == ref.counter == start + k


def test_choose_selector_size_equals_scalar_oracle():
    # the k of a 128x128 jit4x selector, well past the hypothesis sizes
    items = np.arange(16384, dtype=np.int64)
    vec, ref = UniformStream(11), UniformStream(11)
    assert np.array_equal(vec.choose(items, 11800), scalar_choose(ref, items, 11800))
    assert vec.counter == ref.counter == 11800


def test_derive_seed_separates_labels():
    seeds = {
        derive_seed(42, "init"),
        derive_seed(42, "selector"),
        derive_seed(42, "transition"),
        derive_seed(42, ""),
        derive_seed(43, "init"),
    }
    assert len(seeds) == 5
    assert derive_seed(42, "transition") == derive_seed(42, "transition")
