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

from .errors import ParameterError
from .grid import ActiveBlock, IndexSet, TokenGrid, complement, gather
from .importance import ImportanceMap, importance_map, top_tokens
from .interp import lift


def predict_clean(y: ActiveBlock, t: float, v: ActiveBlock) -> ActiveBlock:
    """One-step clean-data estimate y_hat(1) = y + (1 - t) * v, for t in [0, 1)."""
    return ActiveBlock(y.m, y.d, y.values + v.values * np.float32(1.0 - t))


def dmf_target(
    y_hat: ActiveBlock,
    anchors: IndexSet,
    ring: IndexSet,
    t_boundary: float,
    noise: TokenGrid,
) -> ActiveBlock:
    """Micro-flow target on the ring: T * Phi + (1 - T) * noise.

    Phi is the anchors' clean prediction y_hat lifted to the grid; Phi and
    noise are read at the ring rows only.  Precondition: ring is disjoint
    from anchors, and t_boundary lies in [0, 1].
    """
    phi = lift(y_hat, anchors, noise.shape)
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
    anchors: ActiveBlock,
    active: IndexSet,
    velocity: TokenGrid,
    noise: TokenGrid,
    t: float,
    t_boundary: float,
    new_count: int,
    step_index: int,
    stage_from: int,
) -> TransitionRecord:
    """Choose new_count tokens to activate at t_boundary and their targets.

    The importance map of the full-grid velocity at time t ranks the
    inactive candidates; the winners get the micro-flow target built from
    the Tweedie prediction of the anchors' rows and from their own rows of
    the run's initial noise.  Preconditions: 1 <= new_count <= the number
    of inactive tokens, and t lies in [0, 1).  No input is modified, and
    the record shares no memory with them; the caller seats the targets.
    """
    imap = importance_map(velocity)
    ring = top_tokens(imap, complement(active), new_count)
    y_hat = predict_clean(anchors, t, gather(velocity, active))
    target = dmf_target(y_hat, active, ring, t_boundary, noise)
    return TransitionRecord(step_index, stage_from, stage_from + 1, ring, target, imap)
