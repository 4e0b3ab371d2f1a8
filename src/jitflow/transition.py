"""Stage transitions: waking inactive tokens without breaking the trajectory.

When a stage hands over to a finer one, the newly activated tokens need
state values consistent with the current noise level.  The target for a
token activated at boundary time T is

    y* = T * Phi + (1 - T) * eps

where Phi is the interpolated clean prediction (anchor Tweedie estimates
lifted to the full grid) and eps is the token's own initial noise x0: y*
is the point at time T on the straight line from x0 toward Phi, so it
matches the marginal of the linear noise-to-data path at time T.  No noise
is drawn after the initial state.  A finite-time hitting flow
z' = (y* - z) / (T - t) would carry old values onto the target over a short
window; its closed form reaches y* exactly at t = T, so the engine assigns
the target directly and the flow exists as a tested equivalence.
apply_transition only builds the record (new tokens, targets, importance
map); the sampling loop seats the targets at the boundary step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NestingError, ParameterError
from .grid import ActiveBlock, IndexSet, TokenGrid, complement, gather
from .importance import ImportanceMap, importance_map, top_tokens
from .interp import lift


def predict_clean(y: TokenGrid, t: float, v: TokenGrid) -> TokenGrid:
    """One-step clean-data estimate y_hat(1) = y + (1 - t) * v."""
    if not 0.0 <= t < 1.0:
        raise ParameterError(f"t must lie in [0, 1), got {t}")
    if v.shape != y.shape:
        raise ParameterError(f"velocity shape {v.shape} != state shape {y.shape}")
    return y.with_data(y.data + v.data * np.float32(1.0 - t))


def dmf_target(
    y_hat: TokenGrid,
    anchors: IndexSet,
    ring: IndexSet,
    t_boundary: float,
    noise: TokenGrid,
) -> ActiveBlock:
    """Micro-flow target on the ring: T * Phi + (1 - T) * noise.

    Phi is the anchor clean prediction lifted to the full grid, read off at
    the ring positions.
    """
    if np.intersect1d(ring.indices, anchors.indices, assume_unique=True).size:
        raise NestingError("ring overlaps the anchor set")
    if noise.shape != y_hat.shape:
        raise ParameterError("noise shape does not match state shape")
    if not 0.0 <= t_boundary <= 1.0:
        raise ParameterError(f"t_boundary must lie in [0, 1], got {t_boundary}")
    phi = lift(gather(y_hat, anchors), anchors, y_hat.shape)
    w = np.float32(t_boundary)
    phi_ring = np.take(phi.data, ring.indices, axis=0)
    noise_ring = np.take(noise.data, ring.indices, axis=0)
    vals = w * phi_ring + (np.float32(1.0) - w) * noise_ring
    return ActiveBlock(len(ring), y_hat.d, vals)


def hitting_flow(z0, target, t_boundary: float, delta: float, t: float):
    """Closed-form state of the hitting ODE z' = (target - z) / (T - t).

    z(t) = target - (target - z0) * (T - t) / delta, for t in [T - delta, T];
    the trajectory starts at z0 and lands on target exactly at t = T.
    """
    if delta <= 0.0:
        raise ParameterError(f"delta must be > 0, got {delta}")
    if not t_boundary - delta <= t <= t_boundary:
        raise ParameterError(
            f"t={t} outside the flow window [{t_boundary - delta}, {t_boundary}]"
        )
    z0 = np.asarray(z0, dtype=np.float64)
    target = np.asarray(target, dtype=np.float64)
    return target - (target - z0) * ((t_boundary - t) / delta)


@dataclass(frozen=True)
class TransitionRecord:
    """What one stage transition did, for reports and tests."""

    step_index: int  # the solver step that seats the targets
    stage_from: int
    stage_to: int
    activated: IndexSet
    target_values: ActiveBlock
    importance_snapshot: ImportanceMap


def apply_transition(
    state: TokenGrid,
    active: IndexSet,
    velocity: TokenGrid,
    t: float,
    t_boundary: float,
    new_count: int,
    step_index: int,
    stage_from: int,
) -> TransitionRecord:
    """Choose new_count tokens to activate at t_boundary and their targets.

    The importance map of the full-grid velocity at time t ranks the
    inactive candidates; the winners get the micro-flow target built from
    the Tweedie prediction of state and from their own rows of state as
    the noise.  Precondition: the inactive rows of state, and so the ring
    rows, still hold their initial noise.  No input is modified, and the
    record shares no memory with them; the caller seats the targets.
    """
    if new_count < 1:
        raise ParameterError(f"new_count must be >= 1, got {new_count}")
    imap = importance_map(velocity)
    ring = top_tokens(imap, complement(active), new_count)
    target = dmf_target(predict_clean(state, t, velocity), active, ring, t_boundary, state)
    return TransitionRecord(step_index, stage_from, stage_from + 1, ring, target, imap)
