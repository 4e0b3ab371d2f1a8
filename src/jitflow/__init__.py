"""Sparse anchor-token flow-matching sampler.

A model-agnostic engine that integrates the flow-matching ODE on a coarse
subset of grid tokens, extends velocities to the full grid by density-
matched interpolation, and activates new tokens stage by stage guided by
local velocity variance, with warped timestep schedules and FLOPs-style
cost accounting.

The package namespace holds what a run and a field author need; every other
function is imported from its submodule (for example jitflow.grid.gather).
"""

from . import errors
from .cost import CostModel, calibrate_attention_share, normalized_model, schedule_cost
from .fields import GaussianFlowField, ReplayField, VelocityField, make_target_image, reference_solve
from .grid import ActiveBlock, IndexSet, TokenGrid
from .sampler import RunOptions, RunReport, run
from .schedule import PRESETS, StageSchedule, StageSpec, preset_schedule

__version__ = "0.1.0"

__all__ = [
    "ActiveBlock",
    "CostModel",
    "GaussianFlowField",
    "IndexSet",
    "PRESETS",
    "ReplayField",
    "RunOptions",
    "RunReport",
    "StageSchedule",
    "StageSpec",
    "TokenGrid",
    "VelocityField",
    "calibrate_attention_share",
    "errors",
    "make_target_image",
    "normalized_model",
    "preset_schedule",
    "reference_solve",
    "run",
    "schedule_cost",
]
