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

The tokens woken at a boundary (the ring) are the inactive tokens farthest
from their nearest anchor.  Ties in distance are common on a lattice-like
anchor set; they go in the ordered-dither order of Bayer (1973), so that a
ring cut from a tie class spreads evenly over the grid instead of filling
it from the top rows.  The ring and the first set are cut from that one
order, schedule.dither_first: lowest score first, ties by dither key.  The ring depends on the active set alone, and the
first set on the grid size and its budget alone, so every set, ring and
merge order of a run is fixed by (h, w, stage token counts): a
SamplingPlan, built once per such key and shared by every seed.  The plan
also holds, per boundary, the ring rows of the lift (interp.lift_operator:
the owner of every token each ring row's blur reads), so a transition
computes Phi on the ring from the anchors' clean prediction alone, with no
full-grid array.  dmf_target builds the same target through the full-grid
lift and is kept as the reference.  One distance transform per boundary
gives both the distances the ring is ranked by and the owner map the lift
reads.
apply_transition only builds the record (new tokens, targets, anchor
distances) from the anchors' rows and velocity block; the sampling loop
seats the targets at the boundary step.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError
from .grid import ActiveBlock, IndexSet, TokenGrid
from .importance import ImportanceMap
from .interp import RingLift, lift, lift_operator, nearest_anchor
from .schedule import dither_first, initial_selector


def predict_clean(y: ActiveBlock, t: float, v: ActiveBlock) -> ActiveBlock:
    """One-step clean-data estimate y_hat(1) = y + (1 - t) * v, for t in [0, 1)."""
    return ActiveBlock(y.m, y.d, y.values + v.values * np.float32(1.0 - t))


def _micro_flow(phi_ring: np.ndarray, ring: IndexSet, t_boundary: float,
                noise: TokenGrid) -> ActiveBlock:
    """T * Phi + (1 - T) * noise in float32, at the ring rows."""
    w = np.float32(t_boundary)
    noise_ring = np.take(noise.data, ring.indices, axis=0)
    vals = w * phi_ring + (np.float32(1.0) - w) * noise_ring
    return ActiveBlock(len(ring), noise.d, vals)


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
    return _micro_flow(np.take(phi.data, ring.indices, axis=0), ring, t_boundary, noise)


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
class PlanBoundary:
    """One stage boundary of a SamplingPlan; every array is read-only."""

    ring: IndexSet  # the tokens it wakes
    merged: IndexSet  # the active set after it
    order: np.ndarray  # int32: merged.indices == concatenate([anchors, ring])[order]
    anchor_distance: ImportanceMap  # each token's distance to the anchors before it
    seat: RingLift  # lift of the anchors' values at the ring


@dataclass(frozen=True)
class SamplingPlan:
    """A run's token plan: its first anchor set and each stage boundary."""

    first: IndexSet
    boundaries: tuple[PlanBoundary, ...]


def plan_boundary(active: IndexSet, new_count: int, h: int, w: int) -> PlanBoundary:
    """The boundary that wakes new_count tokens next to the anchor set active.

    The inactive tokens farthest from their nearest anchor win, ties going
    to the lower dither_key: dither_first of the negated distance, under
    which the anchors, at distance 0, rank last.  Precondition:
    1 <= new_count <= the number of inactive tokens of the h x w grid.
    """
    n = h * w
    owner, dist = nearest_anchor(active, h, w)  # one transform for both
    ring = dither_first(-dist, new_count, h, w)
    joined = np.concatenate([active.indices, ring.indices])
    slot = np.zeros(n, dtype=np.int32)  # position in joined, +1; 0 off the merged set
    slot[joined] = np.arange(1, len(joined) + 1, dtype=np.int32)
    merged = IndexSet(n, np.flatnonzero(slot))
    order = slot[merged.indices] - 1
    seat = lift_operator(owner, len(active), ring, h, w)
    for arr in (ring.indices, merged.indices, order, dist, seat.taps, seat.owners):
        arr.setflags(write=False)
    return PlanBoundary(ring, merged, order, ImportanceMap(h, w, dist), seat)


@functools.lru_cache(maxsize=2)
def sampling_plan(h: int, w: int, counts: tuple[int, ...]) -> SamplingPlan:
    """The plan of a run over an h x w grid whose stages hold counts tokens.

    The first set is initial_selector's; each boundary wakes the next
    stage's new tokens (plan_boundary).  Cached: every seed of a schedule
    shares one plan, and no caller may write to it.  A jit4x plan holds
    about 67 bytes per token, and the cache keeps the last two plans.
    Precondition: counts is a schedule's active_counts(h * w).
    """
    first = initial_selector(h, w, counts[0])
    first.indices.setflags(write=False)
    active, boundaries = first, []
    for before, after in zip(counts, counts[1:]):
        boundaries.append(plan_boundary(active, after - before, h, w))
        active = boundaries[-1].merged
    return SamplingPlan(first, tuple(boundaries))


@dataclass(frozen=True)
class TransitionRecord:
    """What one stage transition did, for reports and tests."""

    step_index: int  # the solver step that seats the targets
    stage_from: int
    activated: IndexSet
    target_values: ActiveBlock
    anchor_distance: ImportanceMap  # each token's distance to the old anchors

    @property
    def stage_to(self) -> int:
        return self.stage_from + 1


def apply_transition(
    boundary: PlanBoundary,
    anchors: ActiveBlock,
    velocity: ActiveBlock,
    noise: TokenGrid,
    t: float,
    t_boundary: float,
    step_index: int,
    stage_from: int,
) -> TransitionRecord:
    """The targets of the boundary's ring at t_boundary, as a record.

    anchors and velocity are the state's and the velocity's rows at time t
    of the set the boundary starts from.  Each ring token gets the
    micro-flow target built from the Tweedie prediction of the anchors'
    rows, lifted by the boundary's seat operator (in float64, rounded to
    float32, as lift does), and from its own row of the run's initial noise.
    Precondition: t lies in [0, 1).  No input is modified, and the targets
    share no memory with them; the caller seats the targets.
    """
    y_hat = predict_clean(anchors, t, velocity)
    target = _micro_flow(boundary.seat(y_hat.values), boundary.ring, t_boundary, noise)
    return TransitionRecord(step_index, stage_from, boundary.ring, target,
                            boundary.anchor_distance)
