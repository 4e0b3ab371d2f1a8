"""Fast in-process invariant checks behind the `selftest` CLI subcommand.

These are smoke-level versions of the pytest suite: each check exercises
one structural guarantee of the engine and raises AssertionError with a
short message on violation.
"""

from __future__ import annotations

import numpy as np

from .cost import CostModel, schedule_cost
from .fields import GaussianFlowField, initial_noise, make_target_image
from .grid import ActiveBlock, IndexSet, TokenGrid, apply_mask, embed, full_set, gather, ring
from .interp import lift
from .rng import UniformStream
from .sampler import run
from .schedule import base_selector_indices, beta_timesteps, initial_selector, preset_schedule


def _random_subset(stream: UniformStream, pool: np.ndarray, m: int, n_total: int) -> IndexSet:
    return IndexSet(n_total, stream.choose(pool, m))


def check_anchor_consistency() -> str:
    shape = (16, 16, 4)
    n = 256
    stream = UniformStream(101)
    for _ in range(50):
        m = 1 + stream.integer_below(n)
        active = _random_subset(stream, np.arange(n, dtype=np.int64), m, n)
        block = ActiveBlock(m, 4, stream.normal(m * 4).astype(np.float32))
        lifted = lift(block, active, shape)
        assert np.array_equal(gather(lifted, active).values, block.values), (
            "anchor values not preserved bitwise"
        )
    return "50 random lifts preserve anchors bitwise"


def check_projector_algebra() -> str:
    shape = (8, 8, 3)
    n = 64
    stream = UniformStream(202)
    pool = np.arange(n, dtype=np.int64)
    for _ in range(50):
        m_outer = 2 + stream.integer_below(n - 1)
        outer = _random_subset(stream, pool, m_outer, n)
        inner = _random_subset(stream, outer.indices, 1 + stream.integer_below(m_outer - 1), n)
        g = TokenGrid(8, 8, 3, stream.normal(n * 3).astype(np.float32))
        masked = apply_mask(g, inner)
        assert np.array_equal(apply_mask(masked, inner).data, masked.data), "P not idempotent"
        assert np.array_equal(embed(gather(g, inner), inner, shape).data, masked.data), (
            "embed(gather) != apply_mask"
        )
        r = ring(outer, inner)
        assert np.array_equal(
            apply_mask(apply_mask(g, r), inner).data, np.zeros((n, 3), dtype=np.float32)
        ), "ring and anchor projectors not disjoint"
    return "50 random nested pairs satisfy projector identities"


def check_beta_quantiles() -> str:
    from scipy.special import betainc

    s = np.arange(1, 50) / 50
    for a, b in [(1.0, 1.0), (1.4, 0.42), (2.0, 5.0)]:
        x = beta_timesteps(50, a, b)[1:-1]
        assert np.max(np.abs(betainc(a, b, x) - s)) <= 1e-8, f"roundtrip broke at ({a},{b})"
    assert np.max(np.abs(beta_timesteps(50, 1.0, 1.0)[1:-1] - s)) <= 1e-9, "uniform not identity"
    for name in ("jit4x", "jit7x"):
        t = preset_schedule(name).timesteps
        assert np.all(np.diff(t) > 0), f"{name} timesteps not increasing"
    return "quantile roundtrip within 1e-8; preset timesteps increasing"


def check_initial_selector() -> str:
    base = base_selector_indices(8, 8)
    assert base.size == 37, f"8x8 base set has {base.size} tokens, expected 37"
    for budget in (22, 37, 40):
        sel = initial_selector(8, 8, budget, seed=5)
        assert len(sel) == budget, f"budget {budget} produced {len(sel)} tokens"
    sel = initial_selector(8, 8, 37, seed=5)
    assert np.array_equal(sel.indices, base), "exact-budget selector must be the base set"
    return "base set 37 on 8x8; budgets 22/37/40 exact"


def check_cost_accounting() -> str:
    quad = CostModel(c_attn=1.0, c_lin=0.0)
    rep = schedule_cost(preset_schedule("jit4x"), quad)
    assert abs(rep.total - 9.3951) <= 1e-9, f"jit4x quadratic total {rep.total}"
    assert abs(rep.speedup - 50.0 / 9.3951) <= 1e-9, f"jit4x quadratic speedup {rep.speedup}"
    odd = CostModel(c_attn=0.3, c_lin=2.0, c_fix=1.5, n_ctx=7.0)
    rep = schedule_cost(preset_schedule("vanilla12"), odd, n_tokens=64)
    assert abs(rep.speedup - 50.0 / 12.0) <= 1e-12, "dense speedup must be step ratio"
    return "preset cost sums and dense-speedup identity hold"


def check_vanilla_degeneration() -> str:
    shape = (8, 8, 2)
    sched = preset_schedule("vanilla7")
    field = GaussianFlowField(make_target_image("checkerboard", shape), sigma1=0.5)
    report = run(sched, field, shape, seed=11)
    y = initial_noise(shape, seed=11)
    everything = full_set(64)
    for i in range(sched.nfe):
        u = field.evaluate(gather(y, everything), everything, float(sched.timesteps[i]))
        dt = float(sched.timesteps[i + 1] - sched.timesteps[i])
        y = y.with_data(y.data + u.values * np.float32(dt))
    assert np.array_equal(report.endpoint.data, y.data), "dense run != plain Euler loop"
    assert report.nfe == 7 and all(s.m == 64 for s in report.steps), "NFE/size accounting off"
    return "dense schedule reproduces plain Euler bitwise"


CHECKS = [
    ("anchor-consistency", check_anchor_consistency),
    ("projector-algebra", check_projector_algebra),
    ("beta-quantiles", check_beta_quantiles),
    ("initial-selector", check_initial_selector),
    ("cost-accounting", check_cost_accounting),
    ("vanilla-degeneration", check_vanilla_degeneration),
]


def run_selftests() -> list[tuple[str, bool, str]]:
    results = []
    for name, fn in CHECKS:
        try:
            detail = fn()
            results.append((name, True, detail))
        except Exception as exc:  # report, never propagate: the CLI decides
            results.append((name, False, f"{type(exc).__name__}: {exc}"))
    return results
