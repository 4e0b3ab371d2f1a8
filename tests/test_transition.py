"""Clean prediction, micro-flow targets, hitting flow, stage transitions."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.errors import ParameterError
from jitflow.fields import GaussianFlowField, initial_noise, make_target_image
from jitflow.grid import ActiveBlock, TokenGrid, gather, index_set
from jitflow.sampler import run
from jitflow.schedule import dither_key, initial_selector, preset_schedule
from jitflow.transition import (
    apply_transition,
    dmf_target,
    hitting_flow,
    plan_boundary,
    predict_clean,
    sampling_plan,
)

from oracles import bayer_matrix, brute_anchor_distance


def const_grid(h, w, d, value):
    return TokenGrid(h, w, d, np.full((h * w, d), value, dtype=np.float32))


# ---------------------------------------------------------------------------
# predict_clean


def const_block(m, d, value):
    return ActiveBlock(m, d, np.full((m, d), value, dtype=np.float32))


def test_predict_clean_formula():
    y = const_block(4, 1, 0.5)
    v = const_block(4, 1, 2.0)
    out = predict_clean(y, 0.75, v)
    assert np.all(out.values == np.float32(0.5) + np.float32(2.0) * np.float32(0.25))
    # at t=0 the estimate is a full step: y + v
    assert np.all(predict_clean(y, 0.0, v).values == np.float32(2.5))


# ---------------------------------------------------------------------------
# dmf_target


def test_dmf_target_constant_prediction():
    # constant anchors lift to a constant field, so the target is exactly
    # T * c + (1 - T) * noise in float32
    y_hat = const_grid(3, 3, 2, 1.5)
    anchors = index_set(9, [0, 2, 4, 6, 8])
    ring = index_set(9, [1, 3])
    noise = initial_noise((3, 3, 2), seed=21)
    t_b = 0.62
    out = dmf_target(gather(y_hat, anchors), anchors, ring, t_b, noise)
    w = np.float32(t_b)
    want = w * np.float32(1.5) + (np.float32(1.0) - w) * noise.data[ring.indices]
    assert np.array_equal(out.values, want)


def test_dmf_target_boundary_weights():
    y_hat = const_grid(3, 3, 1, -2.0)
    anchors = index_set(9, [0, 4, 8])
    ring = index_set(9, [1, 5])
    noise = initial_noise((3, 3, 1), seed=3)
    # T=0: pure noise; T=1: pure prediction
    assert np.array_equal(
        dmf_target(gather(y_hat, anchors), anchors, ring, 0.0, noise).values,
        noise.data[ring.indices],
    )
    assert np.all(dmf_target(gather(y_hat, anchors), anchors, ring, 1.0, noise).values == -2.0)


def test_dmf_target_matches_path_marginal():
    # conditioned on the prediction, seated values must follow
    # N(T * Phi, (1 - T)^2): the law of the noise-to-data path at time T
    shape = (6, 6, 1)
    y_hat = initial_noise(shape, seed=77)
    anchors = index_set(36, [0, 5, 7, 14, 21, 28, 30, 35])
    ring = index_set(36, [9, 16, 23])
    t_b = 0.5
    phi_part = dmf_target(gather(y_hat, anchors), anchors, ring, t_b, const_grid(6, 6, 1, 0.0))
    draws = np.stack([
        dmf_target(gather(y_hat, anchors), anchors, ring, t_b, initial_noise(shape, seed=k)).values
        - phi_part.values
        for k in range(3000)
    ]).astype(np.float64)  # (3000, 3, 1) of (1 - T) * eps
    per_token_mean = draws.mean(axis=0).ravel()
    se = (1.0 - t_b) / np.sqrt(3000)
    assert np.all(np.abs(per_token_mean) < 3.0 * se)
    pooled_std = draws.ravel().std()
    assert abs(pooled_std - (1.0 - t_b)) < 0.05 * (1.0 - t_b)


# ---------------------------------------------------------------------------
# hitting flow


def test_hitting_flow_endpoints():
    z0 = np.array([1.0, -2.0])
    target = np.array([3.0, 5.0])
    # landing is exact (the coefficient is exactly zero at t = T)
    assert np.array_equal(hitting_flow(z0, target, 0.62, 0.1, 0.62), target)
    assert np.allclose(hitting_flow(z0, target, 0.62, 0.1, 0.52), z0, atol=1e-12)
    mid = hitting_flow(z0, target, 0.62, 0.1, 0.57)
    assert np.allclose(mid, 0.5 * (z0 + target), atol=1e-12)


def test_hitting_flow_window_validation():
    with pytest.raises(ParameterError):
        hitting_flow(0.0, 1.0, 0.62, 0.1, 0.45)
    with pytest.raises(ParameterError):
        hitting_flow(0.0, 1.0, 0.62, 0.1, 0.63)
    with pytest.raises(ParameterError):
        hitting_flow(0.0, 1.0, 0.62, 0.0, 0.62)


def test_hitting_flow_against_euler_integration():
    # integrate z' = (target - z)/(T - t) directly with 1e4 substeps; the
    # closed form must agree along the whole window and at the landing
    z0, target, t_b, delta = -0.7, 2.3, 0.62, 0.1
    n = 10_000
    h = delta / n
    z = z0
    t = t_b - delta
    for k in range(n):
        z += h * (target - z) / (t_b - t)
        t = t_b - delta + (k + 1) * h
        if k % 2500 == 0:
            want = hitting_flow(z0, target, t_b, delta, t)
            assert abs(z - want) < 1e-9
    assert abs(z - target) < 1e-9


def test_hitting_flow_ode_residual():
    # finite-difference derivative of the closed form satisfies the ODE
    z0, target, t_b, delta = 1.1, -0.4, 0.35, 0.2
    eps = 1e-6
    for t in (0.20, 0.25, 0.30, 0.3499):
        z = float(hitting_flow(z0, target, t_b, delta, t))
        dz = (
            float(hitting_flow(z0, target, t_b, delta, t + eps))
            - float(hitting_flow(z0, target, t_b, delta, t - eps))
        ) / (2 * eps)
        assert abs(dz - (target - z) / (t_b - t)) < 1e-6


# ---------------------------------------------------------------------------
# apply_transition


def transition_inputs(seed=13):
    shape = (4, 4, 1)
    state = initial_noise(shape, seed=seed)
    active = index_set(16, [0, 1, 2, 3])
    velocity = initial_noise(shape, seed=seed + 200)
    return state, active, velocity


def test_apply_transition_leaves_inputs_unchanged():
    # run steps its state in place right after the call, so the record must
    # not alias any input array
    state, active, velocity = transition_inputs()
    anchors, v_block = gather(state, active), gather(velocity, active)
    before = [a.copy() for a in (anchors.values, state.data, v_block.values)]
    record = apply_transition(plan_boundary(active, 5, 4, 4), anchors, v_block, state,
                              0.3, 0.35, 7, 0)
    for arr, want in zip((anchors.values, state.data, v_block.values), before):
        assert np.array_equal(arr, want)
        for part in (record.activated.indices, record.target_values.values,
                     record.anchor_distance.scores):
            assert not np.shares_memory(part, arr)
    assert record.stage_from == 0 and record.stage_to == 1 and record.step_index == 7
    assert len(record.activated) == 5 == record.target_values.m
    # activated tokens came from the inactive pool
    assert not np.intersect1d(record.activated.indices, active.indices).size
    # the targets' noise is the activated tokens' own rows of state
    want = dmf_target(predict_clean(anchors, 0.3, v_block), active,
                      record.activated, 0.35, state)
    assert np.array_equal(record.target_values.values, want.values)


def farthest_first(active, h, w, count):
    """The count inactive tokens first in (-anchor distance, Bayer rank) order."""
    dist = brute_anchor_distance(active.indices, h, w)
    bits = max(h - 1, w - 1).bit_length()
    rank = bayer_matrix(bits)[:h, :w].ravel()
    inactive = np.setdiff1d(np.arange(h * w), active.indices)
    return sorted(sorted(inactive.tolist(), key=lambda i: (-dist[i], rank[i]))[:count])


def test_apply_transition_picks_most_important_tokens():
    # the tokens that matter most are the ones farthest from every anchor:
    # with the top row active, row 3 (distance 3) goes first, then two of
    # row 2 in dither order; the velocity plays no part
    state, active, velocity = transition_inputs(seed=40)
    v_block = gather(velocity, active)
    record = apply_transition(plan_boundary(active, 6, 4, 4), gather(state, active), v_block,
                              state, 0.3, 0.35, 7, 0)
    assert record.activated.indices.tolist() == farthest_first(active, 4, 4, 6)
    assert record.activated.indices.tolist() == [8, 10, 12, 13, 14, 15]
    assert np.array_equal(record.anchor_distance.scores,
                          np.repeat([0.0, 1.0, 2.0, 3.0], 4))


def test_apply_transition_at_unit_boundary_uses_pure_prediction():
    # zero velocity: row 3 ties at distance 3 and its lowest dither keys
    # win, and the prediction equals the (constant) state
    shape = (4, 4, 1)
    active = index_set(16, [0, 1, 2, 3])
    state = const_grid(4, 4, 1, 0.8)
    record = apply_transition(
        plan_boundary(active, 3, 4, 4), gather(state, active), const_block(4, 1, 0.0), state,
        0.9, 1.0, 10, 1,
    )
    assert record.activated.indices.tolist() == [13, 14, 15]
    assert np.all(record.target_values.values == np.float32(0.8))


def test_apply_transition_deterministic():
    state, active, velocity = transition_inputs()
    v_block = gather(velocity, active)
    a = apply_transition(plan_boundary(active, 5, 4, 4), gather(state, active), v_block, state,
                         0.3, 0.35, 7, 0)
    b = apply_transition(plan_boundary(active, 5, 4, 4), gather(state, active), v_block, state,
                         0.3, 0.35, 7, 0)
    assert np.array_equal(a.activated.indices, b.activated.indices)
    assert np.array_equal(a.target_values.values, b.target_values.values)


def test_apply_transition_reads_noise_only_at_ring_rows():
    # the anchors come from their rows, not from the noise grid, so other
    # finite values at every row outside the ring leave the record unchanged
    state, active, velocity = transition_inputs(seed=5)
    anchors, v_block = gather(state, active), gather(velocity, active)
    boundary = plan_boundary(active, 5, 4, 4)
    record = apply_transition(boundary, anchors, v_block, state, 0.3, 0.35, 7, 0)
    other = state.data * np.float32(-3.0) + np.float32(7.0)
    other[record.activated.indices] = state.data[record.activated.indices]
    idle = np.setdiff1d(np.flatnonzero(~active.mask()), record.activated.indices)
    for rows in (active.indices, idle):
        assert rows.size and not np.any(other[rows] == state.data[rows])
    again = apply_transition(boundary, anchors, v_block, state.with_data(other),
                             0.3, 0.35, 7, 0)
    assert np.array_equal(again.activated.indices, record.activated.indices)
    assert np.array_equal(again.target_values.values, record.target_values.values)
    assert np.array_equal(again.anchor_distance.scores, record.anchor_distance.scores)


def test_dither_key_is_the_bayer_matrix():
    for h, w in ((1, 1), (2, 2), (4, 4), (5, 7), (16, 3), (64, 64), (33, 20)):
        bits = max(h - 1, w - 1).bit_length()
        key = dither_key(h, w)
        assert np.array_equal(key, bayer_matrix(bits)[:h, :w].ravel())
        assert len(np.unique(key)) == h * w
        assert not key.flags.writeable and dither_key(h, w) is key


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_apply_transition_picks_the_farthest_in_dither_order(data):
    h = data.draw(st.integers(1, 24), label="h")
    w = data.draw(st.integers(1, 24), label="w")
    n = h * w
    if n < 2:
        return
    if data.draw(st.booleans(), label="selector"):
        budget = data.draw(st.integers(1, n - 1))
        active = initial_selector(h, w, budget)
    else:
        idx = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        active = index_set(n, sorted(idx))
    count = data.draw(st.integers(1, n - len(active)))
    seed = data.draw(st.integers(0, 1000))
    state = initial_noise((h, w, 2), seed)
    velocity = initial_noise((h, w, 2), seed + 1)
    record = apply_transition(plan_boundary(active, count, h, w), gather(state, active),
                              gather(velocity, active), state, 0.3, 0.35, 7, 0)
    assert record.activated.indices.tolist() == farthest_first(active, h, w, count)
    assert np.array_equal(record.anchor_distance.scores,
                          brute_anchor_distance(active.indices, h, w))


@pytest.mark.parametrize("h, w, counts", [(8, 8, (22, 40, 64)), (5, 7, (3, 35)),
                                           (1, 9, (2, 3, 9)), (16, 12, (67, 119, 192))])
def test_sampling_plan_chains_its_boundaries(h, w, counts):
    # each boundary starts from the set the previous one made, its merge
    # order sorts the anchors followed by the ring, and no array is writable
    plan = sampling_plan(h, w, counts)
    assert np.array_equal(plan.first.indices, initial_selector(h, w, counts[0]).indices)
    assert len(plan.boundaries) == len(counts) - 1
    active = plan.first
    arrays = [active.indices]
    for boundary, count in zip(plan.boundaries, counts[1:]):
        want = plan_boundary(active, count - len(active), h, w)
        assert np.array_equal(boundary.ring.indices, want.ring.indices)
        assert np.array_equal(boundary.seat.owners, want.seat.owners)
        assert np.array_equal(boundary.seat.taps, want.seat.taps)
        joined = np.concatenate([active.indices, boundary.ring.indices])
        assert np.array_equal(joined[boundary.order], boundary.merged.indices)
        assert np.array_equal(boundary.merged.indices, np.union1d(active.indices,
                                                                  boundary.ring.indices))
        assert np.array_equal(boundary.anchor_distance.scores,
                              brute_anchor_distance(active.indices, h, w))
        arrays += [boundary.ring.indices, boundary.merged.indices, boundary.order,
                   boundary.anchor_distance.scores, boundary.seat.owners, boundary.seat.taps]
        active = boundary.merged
    assert len(active) == h * w
    assert not any(arr.flags.writeable for arr in arrays)
    assert sampling_plan(h, w, counts) is plan


def test_jit4x_rings_spread_evenly_at_64():
    # a ring is cut from a tie class of equidistant tokens; in dither order
    # the cut spreads over the whole grid (lowest-index order fills it from
    # the top: row mean ~21 and quadrant counts off by ~50%)
    side = 64
    shape = (side, side, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
    centre = (side - 1) / 2
    for seed in (0, 1, 2):
        report = run(preset_schedule("jit4x"), field, shape, seed)
        assert len(report.transitions) == 2
        for rec in report.transitions:
            rows, cols = np.divmod(rec.activated.indices, side)
            assert abs(rows.mean() - centre) <= 1.5 and abs(cols.mean() - centre) <= 1.5
            quadrant = np.bincount(2 * (rows >= side // 2) + (cols >= side // 2), minlength=4)
            assert np.all(np.abs(quadrant - len(rows) / 4) <= 0.1 * len(rows) / 4)


def test_ring_ties_follow_the_dither_key_on_a_long_strip():
    # on a 1 x (2^17 + 1) strip with anchors at 0, 2^15 and 3 * 2^15, only
    # tokens 2^16 and 2^17 lie 2^15 from every anchor; dither keys 8 and 2
    # send the ring to 2^17.  A single float score sq * 4^18 - key would be
    # 2^66 - key, which rounds to 2^66 for both, leaving the lower index.
    w = (1 << 17) + 1
    active = index_set(w, [0, 1 << 15, 3 << 15])
    noise = initial_noise((1, w, 1), 4)
    key = dither_key(1, w)
    assert (key[1 << 16], key[1 << 17]) == (8, 2)
    assert np.float64(2.0**66 - 8) == np.float64(2.0**66 - 2)
    record = apply_transition(plan_boundary(active, 1, 1, w), gather(noise, active),
                              const_block(3, 1, 0.0), noise, 0.3, 0.35, 7, 0)
    assert record.activated.indices.tolist() == [1 << 17]
