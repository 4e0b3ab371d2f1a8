"""Run configuration: one JSON document resolving to schedule + field + options.

Schema (defaults in parentheses):

    {
      "seed": 7,                              required
      "shape": [32, 32, 4],                   required
      "field": {"kind": "gaussian-bump",      required
                "params": {},                 ({})
                "sigma1": 0.0},               (0.0)
      "preset": "jit4x",                      exactly one of preset / schedule
      "schedule": {"stages": [[7, 0.35], ...],
                   "alpha": 1.4, "beta": 0.42},
      "options": {"invert_time": false, "shared_noise": false,
                  "snapshot_stride": 0},      (all defaults)
      "cost": {"c_attn": 0, "c_lin": 1,
               "c_fix": 0, "n_ctx": 0},       (null: token-evaluation costs)
      "baseline_steps": 50                    (50)
    }

Unknown keys are collected as warnings, not errors; missing required keys
raise a config error naming the key.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

from .cost import CostModel
from .errors import ConfigError
from .fields import GaussianFlowField, make_target_image
from .sampler import RunOptions
from .schedule import StageSchedule, StageSpec, build_schedule, preset_schedule


@dataclass(frozen=True)
class RunConfig:
    seed: int
    shape: tuple[int, int, int]
    field_kind: str
    field_params: dict = dc_field(default_factory=dict)
    sigma1: float = 0.0
    preset: str | None = None
    stages: tuple[tuple[int, float], ...] | None = None
    alpha: float = 1.0
    beta: float = 1.0
    invert_time: bool = False
    shared_noise: bool = False
    snapshot_stride: int = 0
    cost: dict | None = None
    baseline_steps: int = 50

    def resolve_schedule(self) -> StageSchedule:
        if self.preset is not None:
            return preset_schedule(self.preset, self.invert_time)
        specs = [StageSpec(int(s), float(sp)) for s, sp in self.stages]
        n_steps = sum(s.steps for s in specs)
        return build_schedule(specs, n_steps, self.alpha, self.beta, self.invert_time)

    def resolve_field(self) -> GaussianFlowField:
        mu = make_target_image(self.field_kind, self.shape, self.field_params)
        return GaussianFlowField(mu, self.sigma1)

    def resolve_options(self) -> RunOptions:
        return RunOptions(self.shared_noise, self.snapshot_stride)

    def resolve_cost_model(self) -> CostModel | None:
        return CostModel(**self.cost) if self.cost is not None else None


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required config key: {key}")
    return doc[key]


def _as(kind, value, key: str):
    """kind(value), or a ConfigError naming the key."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigError(
            f"config key {key} must be {'an integer' if kind is int else 'a number'}, "
            f"got {value!r}"
        ) from None


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def config_from_dict(doc: dict) -> tuple[RunConfig, list[str]]:
    """Parse a config document; returns (config, unknown-key warnings)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    warnings: list[str] = []
    known = {
        "seed", "shape", "field", "preset", "schedule", "options",
        "cost", "baseline_steps",
    }
    warnings += [f"unknown config key: {k}" for k in sorted(set(doc) - known)]

    seed = _as(int, _require(doc, "seed"), "seed")
    shape = _require(doc, "shape")
    if not (isinstance(shape, (list, tuple)) and len(shape) == 3):
        raise ConfigError("shape must be [h_tok, w_tok, d]")
    shape = tuple(_as(int, v, "shape") for v in shape)

    fdoc = _require(doc, "field")
    if not isinstance(fdoc, dict) or "kind" not in fdoc:
        raise ConfigError("missing required config key: field.kind")
    warnings += [
        f"unknown field key: {k}"
        for k in sorted(set(fdoc) - {"kind", "params", "sigma1"})
    ]

    preset = doc.get("preset")
    sdoc = doc.get("schedule")
    if (preset is None) == (sdoc is None):
        raise ConfigError("config needs exactly one of 'preset' or 'schedule'")
    if preset is not None and not isinstance(preset, str):
        raise ConfigError("preset must be a preset name")
    stages = alpha = beta = None
    if sdoc is not None:
        if not isinstance(sdoc, dict) or "stages" not in sdoc:
            raise ConfigError("missing required config key: schedule.stages")
        warnings += [
            f"unknown schedule key: {k}"
            for k in sorted(set(sdoc) - {"stages", "alpha", "beta"})
        ]
        raw = sdoc["stages"]
        if not (isinstance(raw, (list, tuple))
                and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in raw)):
            raise ConfigError("schedule.stages must be a list of [steps, sparsity] pairs")
        stages = tuple(
            (_as(int, s, "schedule.stages"), _as(float, sp, "schedule.stages"))
            for s, sp in raw
        )
        alpha = _as(float, sdoc.get("alpha", 1.0), "schedule.alpha")
        beta = _as(float, sdoc.get("beta", 1.0), "schedule.beta")

    odoc = _object(doc.get("options", {}), "options")
    warnings += [
        f"unknown options key: {k}"
        for k in sorted(set(odoc) - {"invert_time", "shared_noise", "snapshot_stride"})
    ]

    cdoc = doc.get("cost")
    if cdoc is not None:
        cdoc = _object(cdoc, "cost")
        unknown = set(cdoc) - {"c_attn", "c_lin", "c_fix", "n_ctx"}
        warnings += [f"unknown cost key: {k}" for k in sorted(unknown)]
        cdoc = {k: _as(float, v, f"cost.{k}") for k, v in cdoc.items() if k not in unknown}

    cfg = RunConfig(
        seed=seed,
        shape=shape,
        field_kind=str(fdoc["kind"]),
        field_params=dict(_object(fdoc.get("params", {}), "field.params")),
        sigma1=_as(float, fdoc.get("sigma1", 0.0), "field.sigma1"),
        preset=preset,
        stages=stages,
        alpha=alpha if alpha is not None else 1.0,
        beta=beta if beta is not None else 1.0,
        invert_time=bool(odoc.get("invert_time", False)),
        shared_noise=bool(odoc.get("shared_noise", False)),
        snapshot_stride=_as(int, odoc.get("snapshot_stride", 0), "options.snapshot_stride"),
        cost=cdoc,
        baseline_steps=_as(int, doc.get("baseline_steps", 50), "baseline_steps"),
    )
    return cfg, warnings


def config_to_dict(cfg: RunConfig) -> dict:
    """Canonical full-form document; stable under parse -> emit."""
    doc: dict = {
        "seed": cfg.seed,
        "shape": list(cfg.shape),
        "field": {
            "kind": cfg.field_kind,
            "params": dict(cfg.field_params),
            "sigma1": cfg.sigma1,
        },
        "options": {
            "invert_time": cfg.invert_time,
            "shared_noise": cfg.shared_noise,
            "snapshot_stride": cfg.snapshot_stride,
        },
        "baseline_steps": cfg.baseline_steps,
    }
    if cfg.preset is not None:
        doc["preset"] = cfg.preset
    else:
        doc["schedule"] = {
            "stages": [[s, sp] for s, sp in cfg.stages],
            "alpha": cfg.alpha,
            "beta": cfg.beta,
        }
    if cfg.cost is not None:
        doc["cost"] = dict(cfg.cost)
    return doc
