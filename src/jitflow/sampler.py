"""The staged sparse sampling loop.

A run's state is its initial noise x0, which the loop never writes, plus
one array of the active rows in token order; inactive tokens hold x0.
Each solver step evaluates the field on a copy of the active rows and
takes an explicit Euler step on those rows alone, so a sparse step costs
O(m) work.  The step that closes a stage hands its velocity block to the
transition before its Euler update: the transition picks the new tokens,
and each gets the micro-flow target at the boundary time built from its
own row of x0.  The next step merges those targets into the rows.  No
full-grid array is built but x0, the opt-in snapshots and the endpoint:
a snapshot is x0 with the rows scattered onto it, and the endpoint is
the rows of the final stage, which is dense.  A run draws only
its initial noise and its selector, so it is a deterministic function of
the two.  A single-stage dense schedule reduces bit-for-bit to plain
Euler flow matching.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cost import PUBLISHED_BASELINE_STEPS, CostModel, schedule_cost, step_cost
from .errors import EngineError, FieldContractError
from .fields import VelocityField, initial_noise
from .grid import ActiveBlock, IndexSet, TokenGrid
from .schedule import StageSchedule, initial_selector
from .transition import TransitionRecord, apply_transition


def _evaluate(field: VelocityField, block: ActiveBlock, active: IndexSet, t: float) -> ActiveBlock:
    """Field output on an anchor block, checked against the field contract."""
    out = field.evaluate(block, active, t)
    if not isinstance(out, ActiveBlock) or out.m != block.m or out.d != block.d:
        raise FieldContractError(
            f"field returned {type(out).__name__} of wrong shape for "
            f"{block.m}x{block.d} input"
        )
    if not np.all(np.isfinite(out.values)):
        raise FieldContractError("field returned non-finite velocities")
    return out


@dataclass(frozen=True)
class RunOptions:
    snapshot_stride: int = 0  # keep state copies every k steps (0 = off)


@dataclass(frozen=True)
class StepRecord:
    i: int
    t: float
    stage: int
    m: int
    cost: float


@dataclass(frozen=True)
class RunReport:
    schedule_name: str
    seed: int
    nfe: int
    steps: tuple[StepRecord, ...]
    transitions: tuple[TransitionRecord, ...]
    endpoint: TokenGrid
    total_cost: float
    baseline_cost: float
    speedup_vs_baseline: float
    snapshots: tuple[tuple[int, TokenGrid], ...] = dc_field(default=())


def run(
    schedule: StageSchedule,
    field: VelocityField,
    shape: tuple[int, int, int],
    seed: int,
    options: RunOptions | None = None,
    cost_model: CostModel | None = None,
    baseline_steps: int = PUBLISHED_BASELINE_STEPS,
) -> RunReport:
    """Integrate the staged sparse ODE from seeded noise to the endpoint.

    Costs default to token evaluations per step (linear model); pass a
    CostModel for FLOPs-style accounting.  The report's costs are
    schedule_cost's, against a dense run of baseline_steps; costs that
    overflow float64 raise ParameterError before the first step.
    """
    opts = options or RunOptions()
    model = cost_model or CostModel()
    h, w, d = shape
    n = h * w
    ledger = schedule_cost(schedule, model, n, baseline_steps)
    counts = schedule.active_counts(n)
    x0 = initial_noise(shape, seed)  # read, never written
    active = initial_selector(h, w, counts[0], seed)
    boundaries = set(schedule.transition_steps)
    stage = 0
    steps: list[StepRecord] = []
    transitions: list[TransitionRecord] = []
    snapshots: list[tuple[int, TokenGrid]] = []
    rows = np.take(x0.data, active.indices, axis=0)  # the state's active rows
    for i in range(schedule.nfe):
        t_i = float(schedule.timesteps[i])
        if i in boundaries:  # seat the targets the closing step built
            merged = np.concatenate([active.indices, transitions[-1].activated.indices])
            order = np.argsort(merged)
            rows = np.concatenate([rows, transitions[-1].target_values.values])[order]
            active = IndexSet(n, merged[order])
            stage += 1
        # the field gets a copy: what it does to its input cannot reach the rows
        block = ActiveBlock(len(active), d, rows.copy())
        try:
            out = _evaluate(field, block, active, t_i)
        except EngineError as exc:
            raise type(exc)(f"step {i}: {exc}") from exc
        steps.append(StepRecord(i, t_i, stage, len(active), step_cost(len(active), model)))
        if i + 1 in boundaries:  # this step closes its stage
            transitions.append(apply_transition(
                ActiveBlock(len(active), d, rows), out, active, x0, t_i,
                float(schedule.timesteps[i + 1]), counts[stage + 1] - counts[stage],
                i + 1, stage,
            ))
        rows += out.values * np.float32(schedule.timesteps[i + 1] - schedule.timesteps[i])
        if opts.snapshot_stride and (i + 1) % opts.snapshot_stride == 0:
            snap = x0.data.copy()
            snap[active.indices] = rows
            snapshots.append((i + 1, TokenGrid(h, w, d, snap)))
    return RunReport(
        schedule_name=schedule.name,
        seed=seed,
        nfe=schedule.nfe,
        steps=tuple(steps),
        transitions=tuple(transitions),
        endpoint=TokenGrid(h, w, d, rows),  # the last stage is dense
        total_cost=ledger.total,
        baseline_cost=ledger.baseline_total,
        speedup_vs_baseline=ledger.speedup,
        snapshots=tuple(snapshots),
    )
