"""Analytic velocity field vs definitional oracles, targets, dense solver."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.errors import FieldContractError, ParameterError
from jitflow.fields import (
    GaussianFlowField,
    ReplayField,
    VelocityField,
    gaussian_flow_velocity,
    initial_noise,
    make_target_image,
    reference_solve,
)
from jitflow.grid import TokenGrid, full_set, gather, index_set

from oracles import (
    column_gaussian_evaluate,
    gaussian_flow_velocity_mc,
    gaussian_flow_velocity_quadrature,
)


# ---------------------------------------------------------------------------
# pointwise velocity


def test_velocity_trivial_endpoints():
    # t=0: coefficient is -1, so u = mu - x for any sigma1
    assert gaussian_flow_velocity(0.3, 0.0, 1.1, 0.5) == pytest.approx(0.8, abs=1e-15)
    # sigma1=1, t=0.5: coefficient vanishes, u = mu
    assert gaussian_flow_velocity(9.9, 0.5, -0.2, 1.0) == pytest.approx(-0.2, abs=1e-12)
    # sigma1=1, t=1: u = x (straight replay of the state)
    assert gaussian_flow_velocity(2.5, 1.0, 7.0, 1.0) == pytest.approx(2.5, abs=1e-12)
    # sigma1=0, t<1: u = mu - (x - t*mu)/(1-t)
    got = gaussian_flow_velocity(0.5, 0.75, 2.0, 0.0)
    assert got == pytest.approx(2.0 - (0.5 - 1.5) / 0.25, abs=1e-12)


def test_velocity_domain_errors():
    with pytest.raises(ParameterError):
        gaussian_flow_velocity(0.0, 1.2, 0.0, 1.0)
    with pytest.raises(ParameterError):
        gaussian_flow_velocity(0.0, -0.1, 0.0, 1.0)
    with pytest.raises(ParameterError):
        gaussian_flow_velocity(0.0, 1.0, 0.0, 0.0)  # singular point mass
    # a positive sigma1 whose square underflows is named as such
    with pytest.raises(ParameterError, match=r"sigma1\*\*2 is 0 in float64 for sigma1=1\.1e-308"):
        gaussian_flow_velocity(0.0, 1.0, 0.0, 1.1e-308)
    with pytest.raises(ParameterError, match=r"for sigma1=0\.0$"):
        gaussian_flow_velocity(0.0, 1.0, 0.0, np.array([1.0, 0.0]))


def test_velocity_against_bayes_quadrature():
    # independent route: posterior mean of x1 - x0 by adaptive quadrature
    for x in (-3.0, -0.7, 0.0, 1.2, 3.0):
        for t in (0.0, 0.1, 0.6, 0.9):
            for mu, s1 in ((-1.5, 0.3), (0.0, 1.0), (0.8, 2.0)):
                impl = float(gaussian_flow_velocity(x, t, mu, s1))
                want = gaussian_flow_velocity_quadrature(x, t, mu, s1)
                assert impl == pytest.approx(want, abs=1e-9, rel=1e-9)


def test_velocity_against_definition_by_simulation():
    # no algebra at all: simulate pairs, condition on a window around x
    x, t, mu, s1 = 0.5, 0.6, 0.8, 0.7
    est, se = gaussian_flow_velocity_mc(x, t, mu, s1, 2_000_000, 0.02, seed=123)
    impl = float(gaussian_flow_velocity(x, t, mu, s1))
    assert abs(est - impl) < max(4.0 * se, 0.03)


def test_velocity_broadcasts():
    x = np.array([[0.0, 1.0], [2.0, 3.0]])
    mu = np.array([[1.0], [2.0]])
    out = gaussian_flow_velocity(x, 0.0, mu, 1.0)
    assert out.shape == (2, 2)
    assert np.allclose(out, mu - x, atol=1e-15)


# ---------------------------------------------------------------------------
# field objects


def bump_field(shape=(6, 5, 3), sigma1=0.5):
    return GaussianFlowField(make_target_image("gaussian-bump", shape), sigma1)


def test_field_satisfies_protocol_and_matches_pointwise():
    field = bump_field()
    assert isinstance(field, VelocityField)
    grid = initial_noise((6, 5, 3), seed=2)
    active = index_set(30, [0, 4, 7, 29])
    out = field.evaluate(gather(grid, active), active, 0.4)
    mu = field.mu.data[active.indices].astype(np.float64)
    want = gaussian_flow_velocity(
        grid.data[active.indices].astype(np.float64), 0.4, mu, 0.5
    ).astype(np.float32)
    assert np.array_equal(out.values, want)


def test_field_subset_restriction_commutes():
    # pointwise field: evaluating a subset equals restricting the full answer
    field = bump_field(sigma1=1.3)
    grid = initial_noise((6, 5, 3), seed=9)
    everything = full_set(30)
    dense = field.evaluate(gather(grid, everything), everything, 0.7)
    rng = np.random.default_rng(0)
    for _ in range(25):
        k = int(rng.integers(1, 31))
        idx = np.sort(rng.choice(30, size=k, replace=False))
        active = index_set(30, idx)
        sparse = field.evaluate(gather(grid, active), active, 0.7)
        assert np.array_equal(sparse.values, dense.values[idx])


def test_field_per_token_sigma():
    shape = (2, 2, 1)
    mu = make_target_image("checkerboard", shape)
    sig = np.array([0.0, 0.5, 1.0, 2.0])
    field = GaussianFlowField(mu, sig)
    grid = TokenGrid(2, 2, 1, np.arange(4, dtype=np.float32).reshape(4, 1))
    out = field.evaluate(gather(grid, full_set(4)), full_set(4), 0.25)
    for i in range(4):
        want = gaussian_flow_velocity(float(grid.data[i, 0]), 0.25,
                                      float(mu.data[i, 0]), float(sig[i]))
        assert out.values[i, 0] == pytest.approx(want, rel=1e-6)


@st.composite
def field_cases(draw):
    h, w, d = draw(st.integers(1, 5)), draw(st.integers(1, 5)), draw(st.integers(1, 3))
    n = h * w
    scalar = st.floats(0.0, 3.0) | st.sampled_from([0.0, 0.5, 1.0])
    sigma1 = draw(scalar if draw(st.booleans()) else st.lists(scalar, min_size=n, max_size=n))
    if draw(st.booleans()):
        idx = np.arange(n)
    else:
        idx = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    t = draw(st.floats(0.0, 1.0) | st.sampled_from([0.0, 1.0]))
    kind = draw(st.sampled_from(["gaussian-bump", "checkerboard", "smooth-gradient"]))
    return (h, w, d), sigma1, idx, t, kind, draw(st.integers(0, 2**16))


@settings(max_examples=150, deadline=None)
@given(field_cases())
def test_field_matches_column_broadcast_oracle_bitwise(case):
    shape, sigma1, idx, t, kind, seed = case
    mu = make_target_image(kind, shape)
    field = GaussianFlowField(mu, np.array(sigma1) if isinstance(sigma1, list) else sigma1)
    active = index_set(mu.n_tokens, idx)
    block = gather(initial_noise(shape, seed), active)
    x_before, target_before = block.values.copy(), field._target.copy()
    want = column_gaussian_evaluate(mu.data, sigma1, active.indices, block.values, t)
    if want is not None:  # the float64 formula alone, as the field calls it
        sig = np.array(sigma1)[active.indices][:, None] if np.ndim(sigma1) else sigma1
        u = gaussian_flow_velocity(block.values, t, target_before[active.indices], sig)
        assert np.array_equal(u.view(np.uint64), want.view(np.uint64))
    for _ in range(2):  # repeated calls see the same inputs and cached target
        if want is None:  # sigma1 = 0 at t = 1
            with pytest.raises(ParameterError):
                field.evaluate(block, active, t)
        else:
            out = field.evaluate(block, active, t)
            assert out.values.dtype == np.float32
            assert np.array_equal(out.values.view(np.uint32),
                                  want.astype(np.float32).view(np.uint32))
        assert np.array_equal(block.values, x_before)
        assert np.array_equal(field._target, target_before)


def test_field_validation():
    with pytest.raises(ParameterError):
        bump_field(sigma1=-0.5)
    for bad in (float("nan"), float("inf"), np.array([0.5] * 29 + [np.nan]),
                1e200, np.array([0.5] * 29 + [1e155])):  # the last two square to inf
        with pytest.raises(ParameterError, match="sigma1"):
            bump_field(sigma1=bad)
    bump_field(sigma1=1e150)  # squares to 1e300, finite
    with pytest.raises(ParameterError):
        GaussianFlowField(make_target_image("checkerboard", (2, 2, 1)), np.ones(7))
    field = bump_field()
    grid = initial_noise((6, 5, 3), seed=1)
    wrong = index_set(30, [0, 1, 2])
    with pytest.raises(FieldContractError):
        field.evaluate(gather(grid, full_set(30)), wrong, 0.5)
    with pytest.raises(FieldContractError):  # 30 tokens of a larger grid
        field.evaluate(gather(grid, full_set(30)), index_set(40, range(10, 40)), 0.5)


# ---------------------------------------------------------------------------
# replay wrapper


def test_replay_records_then_replays():
    inner = bump_field()
    rec = ReplayField(inner)
    grid = initial_noise((6, 5, 3), seed=4)
    active = index_set(30, [1, 2, 3])
    first = rec.evaluate(gather(grid, active), active, 0.5)
    playback = ReplayField()
    playback.tape = rec.tape
    again = playback.evaluate(gather(grid, active), active, 0.5)
    assert np.array_equal(first.values, again.values)


def test_replay_strict_miss_and_zero_fill():
    grid = initial_noise((6, 5, 3), seed=4)
    active = index_set(30, [1, 2, 3])
    strict = ReplayField()
    with pytest.raises(FieldContractError):
        strict.evaluate(gather(grid, active), active, 0.5)
    lax = ReplayField(strict=False)
    out = lax.evaluate(gather(grid, active), active, 0.5)
    assert np.all(out.values == 0.0)


def test_replay_key_distinguishes_t_and_indices():
    rec = ReplayField(bump_field())
    grid = initial_noise((6, 5, 3), seed=4)
    a = index_set(30, [1, 2, 3])
    b = index_set(30, [1, 2, 4])
    rec.evaluate(gather(grid, a), a, 0.5)
    rec.evaluate(gather(grid, a), a, 0.25)
    rec.evaluate(gather(grid, b), b, 0.5)
    assert len(rec.tape) == 3


# ---------------------------------------------------------------------------
# target images and noise


def test_smooth_gradient():
    g = make_target_image("smooth-gradient", (2, 3, 2), {"lo": -1.0, "hi": 2.0})
    assert g.data[0, 0] == -1.0 and g.data[5, 1] == 2.0
    assert np.array_equal(g.data[:, 0], g.data[:, 1])
    assert np.all(np.diff(g.data[:, 0]) > 0)


def test_checkerboard():
    g = make_target_image("checkerboard", (3, 3, 1))
    want = np.array([1, -1, 1, -1, 1, -1, 1, -1, 1], dtype=np.float32)
    assert np.array_equal(g.data[:, 0], want)


def test_gaussian_bump():
    g = make_target_image("gaussian-bump", (5, 5, 2), {"s": 1.5})
    center = 2 * 5 + 2
    assert g.data[center, 0] == 1.0  # exact peak on the center token
    assert float(g.data.max()) == 1.0 and float(g.data.min()) > 0.0
    # four-fold symmetry around the center
    assert g.data[center - 1, 0] == g.data[center + 1, 0]
    assert g.data[center - 5, 0] == g.data[center + 5, 0]


def test_target_param_validation():
    with pytest.raises(ParameterError):
        make_target_image("plasma", (2, 2, 1))
    with pytest.raises(ParameterError):
        make_target_image("checkerboard", (2, 2, 1), {"s": 1.0})
    for s in (0.0, -1.5, 1e-300, 1e-160):  # 1e-300 squares to 0, 1e-160 overflows r2 / 2s^2
        with pytest.raises(ParameterError, match="width s"):
            make_target_image("gaussian-bump", (3, 3, 1), {"s": s})
    spike = make_target_image("gaussian-bump", (3, 3, 1), {"s": 1e-100})
    assert spike.data.ravel().tolist() == [0.0] * 4 + [1.0] + [0.0] * 4
    for lo, hi in ((-1e308, 1e308), (0.0, 1e39), (-3.5e38, 0.0)):
        with pytest.raises(ParameterError, match="smooth-gradient lo and hi"):
            make_target_image("smooth-gradient", (2, 2, 1), {"lo": lo, "hi": hi})
    ramp = make_target_image("smooth-gradient", (1, 2, 1), {"lo": -3e38, "hi": 3e38})
    assert ramp.data.ravel().tolist() == [np.float32(-3e38), np.float32(3e38)]


def test_initial_noise_deterministic_and_standard():
    a = initial_noise((16, 16, 4), seed=3)
    b = initial_noise((16, 16, 4), seed=3)
    c = initial_noise((16, 16, 4), seed=4)
    assert a.data.dtype == np.float32
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    flat = a.data.ravel().astype(np.float64)
    assert abs(flat.mean()) < 5.0 / np.sqrt(flat.size)
    assert abs(flat.std() - 1.0) < 0.05


# ---------------------------------------------------------------------------
# dense reference solver


def test_reference_solve_point_mass_lands_on_target():
    # sigma1=0 makes the exact trajectory linear in t, so Euler is exact up
    # to float32 rounding; a successful run also proves t=1 is never
    # evaluated (the velocity would raise there)
    shape = (8, 8, 3)
    mu = make_target_image("gaussian-bump", shape)
    field = GaussianFlowField(mu, sigma1=0.0)
    for n in (7, 50):
        y = reference_solve(field, shape, seed=5, n_fine_steps=n)
        assert float(np.abs(y.data - mu.data).max()) < 1e-6
    big = make_target_image("gaussian-bump", (32, 32, 4))
    dense = reference_solve(GaussianFlowField(big, 0.0), (32, 32, 4), 7, 2000)
    assert np.array_equal(dense.data, big.data)


def test_reference_solve_first_order_convergence():
    # sigma1=1 flow has exact endpoint mu + y0; halving dt halves the error
    shape = (8, 8, 3)
    mu = make_target_image("gaussian-bump", shape)
    field = GaussianFlowField(mu, sigma1=1.0)
    exact = mu.data.astype(np.float64) + initial_noise(shape, 5).data.astype(np.float64)
    errs = [
        float(np.linalg.norm(
            reference_solve(field, shape, 5, n).data.astype(np.float64) - exact
        ))
        for n in (50, 100, 200, 400)
    ]
    assert errs[0] > errs[1] > errs[2] > errs[3]
    for a, b in zip(errs, errs[1:]):
        assert 1.7 < a / b < 2.3


@pytest.mark.parametrize("per_token", [False, True])
def test_flow_map_matches_reference_solve(per_token):
    # Euler at 4096 steps is first-order accurate: its endpoint error is
    # ~1/4096 of the flow, and halves from 2048 steps
    shape = (8, 8, 3)
    sigma1 = np.linspace(0.2, 1.5, 64) if per_token else 0.5
    field = bump_field(shape, sigma1)
    x0 = initial_noise(shape, 5)
    exact = field.flow_map(x0, 1.0).data.astype(np.float64)
    errs = [
        float(np.abs(reference_solve(field, shape, 5, n).data - exact).max())
        for n in (2048, 4096)
    ]
    assert errs[1] <= 2e-3 and 1.7 < errs[0] / errs[1] < 2.3
    sig = np.asarray(sigma1, dtype=np.float64).reshape(-1, 1) if per_token else 0.5
    want = field.mu.data.astype(np.float64) + sig * x0.data.astype(np.float64)
    assert np.allclose(exact, want, rtol=1e-6, atol=1e-6)
    assert np.array_equal(field.flow_map(x0, 0.0).data, x0.data)


def test_flow_map_solves_the_field_ode():
    # the central difference of the flow in t is the field's velocity there
    shape = (6, 5, 3)
    field = bump_field(shape, 0.7)
    x0 = initial_noise(shape, 8)
    everything = full_set(30)
    h = 1e-3
    for t in (0.1, 0.5, 0.9):
        ahead = field.flow_map(x0, t + h).data.astype(np.float64)
        behind = field.flow_map(x0, t - h).data.astype(np.float64)
        here = field.flow_map(x0, t)
        v = field.evaluate(gather(here, everything), everything, t).values
        assert np.abs((ahead - behind) / (2 * h) - v).max() < 2e-3
    with pytest.raises(ParameterError):
        field.flow_map(x0, 1.5)


def test_reference_solve_bit_identical_reruns():
    field = bump_field(sigma1=0.7)
    a = reference_solve(field, (6, 5, 3), 11, 64)
    b = reference_solve(field, (6, 5, 3), 11, 64)
    assert np.array_equal(a.data, b.data)
    with pytest.raises(ParameterError):
        reference_solve(field, (6, 5, 3), 11, 0)
