"""Clean prediction, micro-flow targets, hitting flow, stage transitions."""

import numpy as np
import pytest

from jitflow.errors import ParameterError
from jitflow.fields import initial_noise
from jitflow.grid import ActiveBlock, TokenGrid, complement, gather, index_set
from jitflow.transition import (
    apply_transition,
    dmf_target,
    hitting_flow,
    predict_clean,
)

from oracles import windowed_variance_scores


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
    anchors = gather(state, active)
    before = [a.copy() for a in (anchors.values, state.data, velocity.data)]
    record = apply_transition(anchors, active, velocity, state, 0.3, 0.35, 5, 7, 0)
    for arr, want in zip((anchors.values, state.data, velocity.data), before):
        assert np.array_equal(arr, want)
        for part in (record.activated.indices, record.target_values.values,
                     record.importance_snapshot.scores):
            assert not np.shares_memory(part, arr)
    assert record.stage_from == 0 and record.stage_to == 1 and record.step_index == 7
    assert len(record.activated) == 5 == record.target_values.m
    # activated tokens came from the inactive pool
    assert not np.intersect1d(record.activated.indices, active.indices).size
    # the targets' noise is the activated tokens' own rows of state
    want = dmf_target(predict_clean(anchors, 0.3, gather(velocity, active)), active,
                      record.activated, 0.35, state)
    assert np.array_equal(record.target_values.values, want.values)


def test_apply_transition_picks_most_important_tokens():
    state, active, velocity = transition_inputs(seed=40)
    scores = windowed_variance_scores(velocity.data.reshape(4, 4, 1).astype(np.float64), 3)
    inactive = np.setdiff1d(np.arange(16), active.indices)
    want = inactive[np.argsort(-scores[inactive], kind="stable")[:4]]
    record = apply_transition(gather(state, active), active, velocity, state, 0.3, 0.35, 4, 7, 0)
    assert sorted(record.activated.indices.tolist()) == sorted(want.tolist())


def test_apply_transition_at_unit_boundary_uses_pure_prediction():
    # zero velocity: importance ties break to the lowest inactive indices,
    # and the prediction equals the (constant) state
    shape = (4, 4, 1)
    active = index_set(16, [0, 1, 2, 3])
    state = const_grid(4, 4, 1, 0.8)
    record = apply_transition(
        gather(state, active), active, const_grid(4, 4, 1, 0.0), state, 0.9, 1.0, 3, 10, 1
    )
    assert record.activated.indices.tolist() == [4, 5, 6]
    assert np.all(record.target_values.values == np.float32(0.8))


def test_apply_transition_deterministic():
    state, active, velocity = transition_inputs()
    a = apply_transition(gather(state, active), active, velocity, state, 0.3, 0.35, 5, 7, 0)
    b = apply_transition(gather(state, active), active, velocity, state, 0.3, 0.35, 5, 7, 0)
    assert np.array_equal(a.activated.indices, b.activated.indices)
    assert np.array_equal(a.target_values.values, b.target_values.values)


def test_apply_transition_reads_noise_only_at_ring_rows():
    # the anchors come from their rows, not from the noise grid, so other
    # finite values at every row outside the ring leave the record unchanged
    state, active, velocity = transition_inputs(seed=5)
    anchors = gather(state, active)
    record = apply_transition(anchors, active, velocity, state, 0.3, 0.35, 5, 7, 0)
    other = state.data * np.float32(-3.0) + np.float32(7.0)
    other[record.activated.indices] = state.data[record.activated.indices]
    idle = np.setdiff1d(complement(active).indices, record.activated.indices)
    for rows in (active.indices, idle):
        assert rows.size and not np.any(other[rows] == state.data[rows])
    again = apply_transition(anchors, active, velocity, state.with_data(other),
                             0.3, 0.35, 5, 7, 0)
    assert np.array_equal(again.activated.indices, record.activated.indices)
    assert np.array_equal(again.target_values.values, record.target_values.values)
    assert np.array_equal(again.importance_snapshot.scores, record.importance_snapshot.scores)
