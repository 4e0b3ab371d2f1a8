"""Stage schedules, warped timesteps, and the initial anchor selector.

A schedule is a list of stages, coarse to fine, each holding a solver step
count and an active-token fraction; the final stage is always dense.  Solver
timesteps are the Beta(alpha, beta) quantiles of a uniform grid, so the
step spacing can be skewed toward either end of the trajectory; swapping
alpha and beta mirrors the grid (t -> 1 - t).

The quantiles come from scipy.special.betaincinv, imported on first use so
that uniform schedules never load scipy; tests check them against an
independent adaptive-quadrature oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ParameterError, ScheduleError
from .grid import IndexSet, full_set
from .rng import UniformStream, derive_seed

# ---------------------------------------------------------------------------
# warped timesteps


def beta_timesteps(n_steps: int, a: float, b: float) -> np.ndarray:
    """Timesteps t_i = BetaInv(i / n_steps; a, b), i = 0..n_steps."""
    if n_steps < 1:
        raise ParameterError(f"n_steps must be >= 1, got {n_steps}")
    if not (0 < a < math.inf and 0 < b < math.inf):
        raise ParameterError(f"shape parameters must be positive and finite, got a={a}, b={b}")
    if a == 1.0 and b == 1.0:
        return np.linspace(0.0, 1.0, n_steps + 1)  # uniform case is exact
    from scipy.special import betaincinv

    t = np.concatenate(([0.0], betaincinv(a, b, np.arange(1, n_steps) / n_steps), [1.0]))
    if not np.all(np.diff(t) > 0.0):
        raise ParameterError(
            f"alpha={a}, beta={b} collapse the Beta warp: its {n_steps}-step quantiles repeat"
        )
    return t


# ---------------------------------------------------------------------------
# stage schedules


@dataclass(frozen=True)
class StageSpec:
    """One sampling stage: solver step count and active-token fraction."""

    steps: int
    sparsity: float

    def __post_init__(self):
        if self.steps < 1:
            raise ScheduleError(f"stage steps must be >= 1, got {self.steps}")
        if not 0.0 < self.sparsity <= 1.0:
            raise ScheduleError(f"sparsity must lie in (0, 1], got {self.sparsity}")


@dataclass(frozen=True)
class StageSchedule:
    """Stages (coarse to fine) and warped timesteps."""

    stages: tuple[StageSpec, ...]
    timesteps: np.ndarray  # (n_steps + 1,) float64, strictly increasing
    alpha: float
    beta: float
    name: str = "custom"

    def __post_init__(self):
        if not self.stages:
            raise ScheduleError("schedule needs at least one stage")
        t = np.asarray(self.timesteps, dtype=np.float64)
        object.__setattr__(self, "timesteps", t)
        object.__setattr__(self, "stages", tuple(self.stages))
        spars = [s.sparsity for s in self.stages]
        if spars[-1] != 1.0:
            raise ScheduleError(f"final stage sparsity must be 1.0, got {spars[-1]}")
        if any(x >= y for x, y in zip(spars, spars[1:])):
            raise ScheduleError(f"sparsities must increase coarse to fine: {spars}")
        total = sum(s.steps for s in self.stages)
        if len(t) != total + 1:
            raise ScheduleError(
                f"{len(t)} timesteps for {total} solver steps (need {total + 1})"
            )
        if not (np.all(np.isfinite(t)) and t[0] >= 0.0 and t[-1] <= 1.0
                and np.all(np.diff(t) > 0.0)):
            raise ScheduleError("timesteps must be finite and strictly increasing within [0, 1]")

    @property
    def transition_steps(self) -> tuple[int, ...]:
        """First step of each stage after the first: where it seats its new tokens."""
        return tuple(np.cumsum([s.steps for s in self.stages])[:-1].tolist())

    @property
    def n_steps(self) -> int:
        return len(self.timesteps) - 1

    @property
    def nfe(self) -> int:
        return sum(s.steps for s in self.stages)

    def active_counts(self, n_tokens: int) -> tuple[int, ...]:
        """Realized anchor counts per stage; the final stage is forced dense."""
        counts = [round(s.sparsity * n_tokens) for s in self.stages]
        counts[-1] = n_tokens
        if counts[0] < 1:
            raise ScheduleError(
                f"first stage rounds to {counts[0]} tokens of {n_tokens}"
            )
        if any(x >= y for x, y in zip(counts, counts[1:])):
            raise ScheduleError(
                f"stage token counts must strictly increase, got {counts}"
            )
        return tuple(counts)


def build_schedule(
    specs: list[StageSpec],
    n_steps: int,
    alpha: float,
    beta: float,
    name: str = "custom",
) -> StageSchedule:
    """Assemble a schedule: stages plus warped timesteps."""
    total = sum(s.steps for s in specs)
    if total != n_steps:
        raise ScheduleError(f"stage steps sum to {total}, expected n_steps={n_steps}")
    t = beta_timesteps(n_steps, alpha, beta)
    return StageSchedule(tuple(specs), t, alpha, beta, name)


PRESETS: dict[str, dict] = {
    "jit4x": {
        "stages": [(7, 0.35), (4, 0.62), (7, 1.0)],
        "alpha": 1.4,
        "beta": 0.42,
    },
    "jit7x": {
        "stages": [(4, 0.32), (3, 0.60), (4, 1.0)],
        "alpha": 1.4,
        "beta": 0.42,
    },
    "vanilla50": {"stages": [(50, 1.0)], "alpha": 1.0, "beta": 1.0},
    "vanilla12": {"stages": [(12, 1.0)], "alpha": 1.0, "beta": 1.0},
    "vanilla7": {"stages": [(7, 1.0)], "alpha": 1.0, "beta": 1.0},
}


def preset_schedule(name: str) -> StageSchedule:
    if name not in PRESETS:
        raise ScheduleError(
            f"unknown preset '{name}' (have {', '.join(sorted(PRESETS))})"
        )
    p = PRESETS[name]
    specs = [StageSpec(steps, sparsity) for steps, sparsity in p["stages"]]
    n_steps = sum(s.steps for s in specs)
    return build_schedule(specs, n_steps, p["alpha"], p["beta"], name)


# ---------------------------------------------------------------------------
# initial anchor selector


def base_selector_indices(h_tok: int, w_tok: int) -> np.ndarray:
    """Stride-2 interior lattice union all boundary tokens, sorted."""
    rows = np.arange(h_tok * w_tok, dtype=np.int64) // w_tok
    cols = np.arange(h_tok * w_tok, dtype=np.int64) % w_tok
    strided = (rows % 2 == 0) & (cols % 2 == 0)
    boundary = (rows == 0) | (rows == h_tok - 1) | (cols == 0) | (cols == w_tok - 1)
    return np.flatnonzero(strided | boundary)


def initial_selector(h_tok: int, w_tok: int, budget: int, seed: int) -> IndexSet:
    """Coarsest-stage anchor set: strided lattice + boundary, resized to budget.

    When the base set misses the budget, supplementary indices are drawn
    uniformly from the complement; excess tokens are dropped uniformly over
    the whole base set.  Both draws come from a dedicated sub-stream of the
    seed, so the selector never perturbs noise generation.  A budget of
    every token returns the full set without drawing.
    """
    n = h_tok * w_tok
    if not 1 <= budget <= n:
        raise BudgetError(f"budget {budget} outside [1, {n}]")
    if budget == n:
        return full_set(n)
    base = base_selector_indices(h_tok, w_tok)
    if len(base) == budget:
        return IndexSet(n, base)
    stream = UniformStream(derive_seed(seed, "selector"))
    member = np.zeros(n, dtype=bool)
    member[base] = True
    if len(base) > budget:
        member[stream.choose(base, len(base) - budget)] = False
    else:
        member[stream.choose(np.flatnonzero(~member), budget - len(base))] = True
    return IndexSet(n, np.flatnonzero(member))
