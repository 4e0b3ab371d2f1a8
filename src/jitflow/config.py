"""Run configuration: one JSON document resolving to schedule + field + costs.

The document holds a "shape", a "field" section (required), exactly one of
"preset" or a "schedule" section, and "cost" (CostModel coefficients; null
means token-evaluation costs).  _SCALARS declares every scalar key once:
its section, RunConfig field, JSON type, default (REQUIRED: the key must be
present) and minimum.  "shape", "preset", "field.params", "schedule.stages"
and "cost" are parsed by hand; every "field.params" value must be a finite
number.

Unknown keys are collected as warnings, not errors.  A missing required
key or a value of the wrong type, not finite or below its minimum raises a
ConfigError naming the key.  A shape holding more than MAX_STATE_VALUES
values raises a BudgetError.  The former "options" section warns as an
unknown key, but a non-false "options.invert_time" raises a ConfigError:
the mirrored warp it asked for is the inline schedule with alpha and beta
swapped, and ignoring the flag would run the forward warp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

from .cost import PUBLISHED_BASELINE_STEPS, CostModel
from .errors import BudgetError, ConfigError
from .fields import GaussianFlowField, VelocityField, make_target_image
from .sampler import RunReport, run as _run
from .schedule import StageSchedule, StageSpec, preset_schedule

REQUIRED = object()

# (section, key, RunConfig field, type, default, minimum); section None is
# the top level, minimum None means no floor
_SCALARS = (
    (None, "seed", "seed", int, REQUIRED, None),
    (None, "baseline_steps", "baseline_steps", int, PUBLISHED_BASELINE_STEPS, 1),
    ("field", "kind", "field_kind", str, REQUIRED, None),
    ("field", "sigma1", "sigma1", float, 0.0, None),
    ("schedule", "alpha", "alpha", float, 1.0, None),
    ("schedule", "beta", "beta", float, 1.0, None),
)
# h * w * d above this is refused: a jit4x run, building its analytic field
# and its sampling plan included, peaks at about 66 bytes of numpy memory per
# state value with d = 4 and 122 with d = 1 (tracemalloc, the same at 256^2
# and 1024^2), so ~275 MB here with d = 4 and ~510 MB with d = 1; tests/
# test_io.py holds the per-value figures to 70 and 130
MAX_STATE_VALUES = 1 << 22
# the hand-parsed keys of each section
_STRUCTURED = {
    None: {"shape", "field", "preset", "schedule", "cost"},
    "field": {"params"},
    "schedule": {"stages"},
}
_COST_KEYS = {f.name for f in fields(CostModel)}
_TYPE_NAMES = {int: "an integer", float: "a finite number", str: "a string"}


@dataclass(frozen=True)
class RunConfig:
    """A parsed config document; defaults live in _SCALARS."""

    seed: int
    shape: tuple[int, int, int]
    field_kind: str
    field_params: dict
    sigma1: float
    preset: str | None
    stages: tuple[tuple[int, float], ...] | None
    alpha: float
    beta: float
    cost: dict | None
    baseline_steps: int

    def resolve_schedule(self) -> StageSchedule:
        if self.preset is not None:
            return preset_schedule(self.preset)
        return StageSchedule([StageSpec(s, sp) for s, sp in self.stages], self.alpha, self.beta)

    def resolve_field(self) -> GaussianFlowField:
        mu = make_target_image(self.field_kind, self.shape, self.field_params)
        return GaussianFlowField(mu, self.sigma1)

    def resolve_cost_model(self) -> CostModel:
        return CostModel(**(self.cost or {}))

    def run(self, field: VelocityField | None = None) -> RunReport:
        """The configured run; `field` replaces the configured field if given."""
        return _run(
            self.resolve_schedule(),
            self.resolve_field() if field is None else field,
            self.shape,
            self.seed,
            cost_model=self.resolve_cost_model(),
            baseline_steps=self.baseline_steps,
        )


def _require(doc: dict, key: str):
    if key not in doc:
        raise ConfigError(f"missing required config key: {key}")
    return doc[key]


def _as(kind, value, key: str):
    """value as a `kind`, or a ConfigError naming the key.

    Integers must be whole numbers (7.0 gives 7), numbers must be finite
    and may not be booleans, and strings must be strings.
    """
    if kind is str:
        ok = isinstance(value, str)
    else:
        ok = (isinstance(value, (int, float)) and not isinstance(value, bool)
              and (kind is float or isinstance(value, int) or value.is_integer()))
    if ok:
        try:
            out = kind(value)
        except OverflowError:  # an integer too large for a float
            out = math.inf
        if kind is not float or math.isfinite(out):
            return out
    raise ConfigError(f"config key {key} must be {_TYPE_NAMES[kind]}, got {value!r}")


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{key} must be a JSON object")
    return value


def config_from_dict(doc: dict) -> tuple[RunConfig, list[str]]:
    """Parse a config document; returns (config, unknown-key warnings)."""
    if not isinstance(doc, dict):
        raise ConfigError("config root must be a JSON object")
    preset = doc.get("preset")
    sdoc = doc.get("schedule")
    if (preset is None) == (sdoc is None):
        raise ConfigError("config needs exactly one of 'preset' or 'schedule'")
    sections = {
        None: doc,
        "field": _object(_require(doc, "field"), "field"),
        "schedule": _object(sdoc if sdoc is not None else {}, "schedule"),
    }
    options = doc.get("options")
    if isinstance(options, dict) and options.get("invert_time", False) is not False:
        raise ConfigError(
            "config key options.invert_time was removed: for the mirrored warp, "
            "swap alpha and beta in an inline schedule"
        )
    values = {}
    for section, key, name, kind, default, minimum in _SCALARS:
        path = key if section is None else f"{section}.{key}"
        value = sections[section].get(key, default)
        if value is REQUIRED:
            raise ConfigError(f"missing required config key: {path}")
        values[name] = _as(kind, value, path)
        if minimum is not None and values[name] < minimum:
            raise ConfigError(f"config key {path} must be >= {minimum}, got {value!r}")
    warnings: list[str] = []
    for section, sub in sections.items():
        known = _STRUCTURED[section] | {k for s, k, *_ in _SCALARS if s == section}
        warnings += [f"unknown {section or 'config'} key: {k}"
                     for k in sorted(set(sub) - known)]

    shape = _require(doc, "shape")
    if not (isinstance(shape, (list, tuple)) and len(shape) == 3):
        raise ConfigError("shape must be [h_tok, w_tok, d]")
    shape = tuple(_as(int, v, "shape") for v in shape)
    if min(shape) < 1:
        raise ConfigError(f"shape entries must be >= 1, got {list(shape)}")
    n_values = math.prod(shape)
    if n_values > MAX_STATE_VALUES:
        raise BudgetError(
            f"shape {list(shape)} holds {n_values} state values, "
            f"above the limit of {MAX_STATE_VALUES}"
        )
    if preset is not None:
        preset = _as(str, preset, "preset")

    stages = None
    if sdoc is not None:
        if "stages" not in sdoc:
            raise ConfigError("missing required config key: schedule.stages")
        raw = sdoc["stages"]
        if not (isinstance(raw, (list, tuple)) and raw
                and all(isinstance(p, (list, tuple)) and len(p) == 2 for p in raw)):
            raise ConfigError(
                "schedule.stages must be a non-empty list of [steps, sparsity] pairs"
            )
        stages = tuple(
            (_as(int, s, "schedule.stages"), _as(float, sp, "schedule.stages"))
            for s, sp in raw
        )

    cost = doc.get("cost")
    if cost is not None:
        unknown = set(_object(cost, "cost")) - _COST_KEYS
        warnings += [f"unknown cost key: {k}" for k in sorted(unknown)]
        cost = {k: _as(float, v, f"cost.{k}") for k, v in cost.items() if k in _COST_KEYS}

    params = dict(_object(sections["field"].get("params", {}), "field.params"))
    for k, v in params.items():
        _as(float, v, f"field.params.{k}")

    cfg = RunConfig(
        shape=shape,
        field_params=params,
        preset=preset,
        stages=stages,
        cost=cost,
        **values,
    )
    return cfg, warnings
