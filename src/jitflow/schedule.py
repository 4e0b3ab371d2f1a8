"""Stage schedules, warped timesteps, and the initial anchor selector.

A schedule is a list of stages, coarse to fine, each holding a solver step
count and an active-token fraction; the final stage is always dense.  Solver
timesteps are the Beta(alpha, beta) quantiles of a uniform grid, so the
step spacing can be skewed toward either end of the trajectory; swapping
alpha and beta mirrors the grid (t -> 1 - t).

The quantiles come from scipy.special.betaincinv, imported on first use so
that uniform schedules never load scipy; tests check them against an
independent adaptive-quadrature oracle.

Every set a run's token plan holds is cut from one order, dither_first: the
tokens of lowest score, ties going to the lower ordered-dither key.  The
initial selector scores the boundary tokens below the interior ones, so a
run's first anchor set draws nothing and is a function of the grid size
and the budget alone.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BudgetError, ParameterError, ScheduleError
from .grid import IndexSet

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

# a schedule (or an oracle solve) of more solver steps than this is refused:
# `jitflow sample` with a report and CSV peaks at 206 MB here, about 790
# bytes per step (tracemalloc, a dense 1x1x1 run of exactly this many steps)
MAX_STEPS = 1 << 18


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
    """Stages (coarse to fine) and the Beta(alpha, beta) warp of their steps.

    The timesteps are derived: the warp's nfe + 1 quantiles.  Equality and
    the hash follow the defining fields, so they never compare arrays.
    """

    stages: tuple[StageSpec, ...]
    alpha: float = 1.0
    beta: float = 1.0
    name: str = "custom"
    timesteps: np.ndarray = field(init=False, compare=False)  # (nfe + 1,), increasing

    def __post_init__(self):
        object.__setattr__(self, "stages", tuple(self.stages))
        if not self.stages:
            raise ScheduleError("schedule needs at least one stage")
        if self.nfe > MAX_STEPS:
            raise BudgetError(
                f"schedule has {self.nfe} solver steps, above the limit of {MAX_STEPS}"
            )
        # the warp first, so a collapsing alpha/beta is named before any stage fault
        object.__setattr__(self, "timesteps", beta_timesteps(self.nfe, self.alpha, self.beta))
        spars = [s.sparsity for s in self.stages]
        if spars[-1] != 1.0:
            raise ScheduleError(f"final stage sparsity must be 1.0, got {spars[-1]}")
        if any(x >= y for x, y in zip(spars, spars[1:])):
            raise ScheduleError(f"sparsities must increase coarse to fine: {spars}")

    @property
    def transition_steps(self) -> tuple[int, ...]:
        """First step of each stage after the first: where it seats its new tokens."""
        return tuple(np.cumsum([s.steps for s in self.stages])[:-1].tolist())

    @property
    def nfe(self) -> int:
        """Solver steps, one field evaluation each."""
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
    return StageSchedule(specs, p["alpha"], p["beta"], name)


# ---------------------------------------------------------------------------
# initial anchor selector


def base_selector_indices(h_tok: int, w_tok: int) -> np.ndarray:
    """Stride-2 interior lattice union all boundary tokens, sorted."""
    rows = np.arange(h_tok * w_tok, dtype=np.int64) // w_tok
    cols = np.arange(h_tok * w_tok, dtype=np.int64) % w_tok
    strided = (rows % 2 == 0) & (cols % 2 == 0)
    boundary = (rows == 0) | (rows == h_tok - 1) | (cols == 0) | (cols == w_tok - 1)
    return np.flatnonzero(strided | boundary)


@functools.lru_cache(maxsize=8)
def dither_key(h: int, w: int) -> np.ndarray:
    """Ordered-dither rank of each token of an h x w grid (Bayer 1973).

    Token (row, col) gets the bits of (row xor col, row) interleaved, the
    former above the latter, with the coordinates' lowest bits in the
    key's highest places.  On a 2^b x 2^b square the keys below 4^k then
    mark one token per 2^(b-k) x 2^(b-k) block, so every prefix of the key
    order is spread evenly.  Keys are distinct and draw no randomness.
    Returns a read-only int64 array of length h * w, shared between calls.
    """
    bits = max(h - 1, w - 1).bit_length()
    rows, cols = np.divmod(np.arange(h * w, dtype=np.int64), w)
    mixed = rows ^ cols
    key = np.zeros(h * w, dtype=np.int64)
    for k in range(bits):
        place = 2 * (bits - 1 - k)
        key |= ((mixed >> k) & 1) << (place + 1) | ((rows >> k) & 1) << place
    key.setflags(write=False)
    return key


def dither_first(score: np.ndarray, count: int, h: int, w: int) -> IndexSet:
    """The count tokens of lowest score, ties going to the lower dither_key.

    score holds one value per token of an h x w grid, row-major.  One
    partition finds the count-th lowest score; every token below it is
    chosen, and the key orders only the tokens tied with it, read only
    when that tie class is cut.  O(h * w), and draws nothing.
    Precondition: 1 <= count <= h * w.
    """
    cut = np.partition(score, count - 1)[count - 1]
    chosen = score < cut
    tied = np.flatnonzero(score == cut)
    need = count - np.count_nonzero(chosen)  # >= 1: the cut itself is chosen
    if need < len(tied):
        tied = tied[np.argpartition(dither_key(h, w)[tied], need - 1)[:need]]
    chosen[tied] = True
    return IndexSet(h * w, np.flatnonzero(chosen))


def initial_selector(h_tok: int, w_tok: int, budget: int) -> IndexSet:
    """Coarsest-stage anchor set: the first `budget` tokens in selector order.

    The order takes the boundary tokens first, then the interior ones, each
    group by ascending dither_key (dither_first, scoring the interior 1).
    Every even-even token has a lower key than every other token, so an
    exact budget of len(base_selector_indices) returns the base set; a
    smaller budget keeps a subset of it and a larger one a superset; a
    budget that ends at a group's end (every boundary token, or every
    token) reads no key.  The set depends only on (h_tok, w_tok, budget):
    it draws nothing.
    """
    n = h_tok * w_tok
    if not 1 <= budget <= n:
        raise BudgetError(f"budget {budget} outside [1, {n}]")
    interior = np.zeros((h_tok, w_tok), dtype=bool)
    interior[1:-1, 1:-1] = True
    return dither_first(interior.ravel(), budget, h_tok, w_tok)
