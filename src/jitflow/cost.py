"""Transformer FLOPs cost model and speedup accounting.

A solver step over m active tokens costs

    c_attn * (m + n_ctx)^2 + c_lin * (m + n_ctx) + c_fix

covering attention (quadratic), MLP/projections (linear), and fixed
overhead; n_ctx counts always-active context tokens.  Costs are abstract
units; speedups are ratios against a dense baseline run, so units cancel.

The normalized fitting mode treats m as a fraction of the full grid with
cost(s) = alpha * s^2 + (1 - alpha) * s per step; alpha is the attention
share of the dense per-step cost, fit so published speedups are reproduced.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError
from .schedule import StageSchedule

# published wall-clock speedups over a dense PUBLISHED_BASELINE_STEPS-step
# baseline; the attention-share fit reproduces them
PUBLISHED_SPEEDUPS = {"jit4x": 4.24, "jit7x": 7.07}
PUBLISHED_BASELINE_STEPS = 50


@dataclass(frozen=True)
class CostModel:
    c_attn: float = 0.0
    c_lin: float = 1.0
    c_fix: float = 0.0
    n_ctx: float = 0.0

    def __post_init__(self):
        if min(self.c_attn, self.c_lin, self.c_fix, self.n_ctx) < 0:
            raise ParameterError("cost model coefficients must be >= 0")
        if self.c_attn == self.c_lin == self.c_fix == 0:
            raise ParameterError("cost model must have at least one nonzero term")


def normalized_model(attention_share: float) -> CostModel:
    """Two-term model over token fractions: alpha * s^2 + (1 - alpha) * s."""
    if not 0.0 <= attention_share <= 1.0:
        raise ParameterError(f"attention share must lie in [0, 1], got {attention_share}")
    return CostModel(c_attn=attention_share, c_lin=1.0 - attention_share)


def step_cost(m: float, model: CostModel) -> float:
    """Cost of one solver step with m active tokens (fractional m allowed)."""
    if m < 0:
        raise ParameterError(f"m must be >= 0, got {m}")
    t = m + model.n_ctx
    return model.c_attn * t * t + model.c_lin * t + model.c_fix


@dataclass(frozen=True)
class CostReport:
    schedule_name: str
    total: float
    baseline_total: float
    speedup: float
    per_stage: tuple[tuple[int, float, float], ...]  # (steps, m, stage cost)


def schedule_cost(
    schedule: StageSchedule,
    model: CostModel,
    n_tokens: int | None = None,
    baseline_steps: int = PUBLISHED_BASELINE_STEPS,
) -> CostReport:
    """Total schedule cost and speedup against a dense baseline run.

    The one cost ledger: run's report and every CLI cost figure come from it.

    With n_tokens the per-stage counts are the realized integer budgets and
    the baseline step runs all n_tokens; without it, stages are charged
    their sparsity fraction and the baseline step runs m = 1 (normalized
    units).  A total or baseline that overflows float64 raises ParameterError.
    """
    if n_tokens is None:
        sizes = [s.sparsity for s in schedule.stages]
        dense = 1.0
    else:
        sizes = list(schedule.active_counts(n_tokens))
        dense = float(n_tokens)
    per_stage = []
    total = 0.0
    for spec, m in zip(schedule.stages, sizes):
        cost = spec.steps * step_cost(m, model)
        per_stage.append((spec.steps, float(m), cost))
        total += cost
    baseline_total = baseline_steps * step_cost(dense, model)
    ratio = baseline_total / total  # inf or NaN if the baseline overflows
    if not (math.isfinite(total) and math.isfinite(ratio)):
        raise ParameterError(
            f"cost model overflows float64: total {total!r}, baseline {baseline_total!r}"
        )
    return CostReport(schedule.name, total, baseline_total, ratio, tuple(per_stage))


@dataclass(frozen=True)
class CalibrationResult:
    attention_share: float
    predicted: tuple[float, ...]
    targets: tuple[float, ...]
    rel_errors: tuple[float, ...]
    names: tuple[str, ...]

    @property
    def max_rel_error(self) -> float:
        return max(self.rel_errors)


def calibrate_attention_share(targets: list[tuple[StageSchedule, float]]) -> CalibrationResult:
    """Fit the attention share so normalized speedups match the targets.

    Least squares on relative speedup error over alpha in [0, 1]; the targets
    are speedups over a dense PUBLISHED_BASELINE_STEPS-step run.
    """
    from scipy.optimize import minimize_scalar  # slow to import, needed only here

    if not targets:
        raise ParameterError("calibration needs at least one (schedule, speedup) target")
    for _, s in targets:
        if s <= 0:
            raise ParameterError(f"target speedup must be > 0, got {s}")

    def predict(alpha: float) -> list[float]:
        model = normalized_model(alpha)
        return [
            schedule_cost(sch, model, baseline_steps=PUBLISHED_BASELINE_STEPS).speedup
            for sch, _ in targets
        ]

    def loss(alpha: float) -> float:
        return sum(
            ((p - want) / want) ** 2 for p, (_, want) in zip(predict(alpha), targets)
        )

    fit = minimize_scalar(loss, bounds=(0.0, 1.0), method="bounded")
    alpha = float(fit.x)
    preds = predict(alpha)
    return CalibrationResult(
        attention_share=alpha,
        predicted=tuple(preds),
        targets=tuple(want for _, want in targets),
        rel_errors=tuple(
            abs(p - want) / want for p, (_, want) in zip(preds, targets)
        ),
        names=tuple(sch.name for sch, _ in targets),
    )
