"""Acceptance gate: the eleven headline guarantees, one test per criterion.

Each test prints exactly one `criterion N (name): PASS|FAIL` line on the
real stdout so the verdicts survive pytest's output capture.  Tolerances
are pinned literals; runtime-limited criteria assert wall-clock bounds.
"""

import functools
import json
import sys
import time

import numpy as np

from jitflow.cli import main
from jitflow.cost import CostModel, calibrate_attention_share, schedule_cost
from jitflow.fields import (
    GaussianFlowField,
    initial_noise,
    make_target_image,
    reference_solve,
)
from jitflow.grid import (
    ActiveBlock,
    TokenGrid,
    apply_mask,
    embed,
    full_set,
    gather,
    index_set,
    ring,
)
from jitflow.importance import importance_map
from jitflow.interp import lift
from jitflow.sampler import RunOptions, run
from jitflow.schedule import (
    StageSchedule,
    StageSpec,
    base_selector_indices,
    beta_timesteps,
    initial_selector,
    preset_schedule,
)
from jitflow.transition import dmf_target, hitting_flow

from oracles import beta_inverse_quadrature, windowed_variance_scores


def criterion(num, name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\ncriterion {num} ({name}): FAIL", file=sys.__stdout__)
                raise
            print(f"\ncriterion {num} ({name}): PASS", file=sys.__stdout__)
        return wrapper
    return decorate


@criterion(1, "vanilla degeneration")
def test_criterion_01_vanilla_degeneration():
    # single-stage 100% schedule == hand-rolled dense Euler loop, bitwise
    shape = (32, 32, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.8)
    start = time.perf_counter()
    report = run(preset_schedule("vanilla50"), field, shape, seed=7)
    y = initial_noise(shape, 7)
    everything = full_set(1024)
    for i in range(50):
        u = field.evaluate(gather(y, everything), everything, i * (1.0 / 50))
        y = y.with_data(y.data + u.values * np.float32(1.0 / 50))
    elapsed = time.perf_counter() - start
    assert np.array_equal(report.endpoint.data, y.data)
    assert elapsed < 1.0


@criterion(2, "anchor consistency")
def test_criterion_02_anchor_consistency():
    # (a) gather(lift(u, active), active) == u bitwise, 200 random cases
    rng = np.random.default_rng(2024)
    h, w, d = 16, 16, 4
    for _ in range(200):
        m = int(rng.integers(1, h * w + 1))
        idx = np.sort(rng.choice(h * w, size=m, replace=False))
        active = index_set(h * w, idx)
        u = ActiveBlock(m, d, rng.standard_normal((m, d)).astype(np.float32))
        v = lift(u, active, (h, w, d))
        assert np.array_equal(gather(v, active).values, u.values)
    # (b) within a stage, engine anchors match the reduced m-system <= 1e-6
    shape = (16, 16, 3)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.7)
    schedule = preset_schedule("jit4x")
    seed = 23
    report = run(schedule, field, shape, seed, options=RunOptions(snapshot_stride=1))
    active0 = initial_selector(16, 16, schedule.active_counts(256)[0], seed)
    z = gather(initial_noise(shape, seed), active0)
    for k in range(7):
        out = field.evaluate(z, active0, float(schedule.timesteps[k]))
        dt = np.float32(float(schedule.timesteps[k + 1] - schedule.timesteps[k]))
        z = ActiveBlock(z.m, z.d, z.values + out.values * dt)
        snap = report.snapshots[k][1]
        gap = float(np.abs(snap.data[active0.indices] - z.values).max())
        assert gap <= 1e-6


@criterion(3, "projector algebra")
def test_criterion_03_projector_algebra():
    rng = np.random.default_rng(77)
    for _ in range(200):
        n = int(rng.integers(4, 65))
        d = int(rng.integers(1, 5))
        m_prev = int(rng.integers(2, n + 1))
        m_cur = int(rng.integers(1, m_prev))
        prev_idx = np.sort(rng.choice(n, size=m_prev, replace=False))
        prev = index_set(n, prev_idx)
        cur = index_set(n, np.sort(rng.choice(prev_idx, size=m_cur, replace=False)))
        h_w = (1, n, d)
        grid = TokenGrid(1, n, d, rng.standard_normal((n, d)).astype(np.float32))
        # embed(gather(x)) == apply_mask(x), and masking is idempotent
        proj = embed(gather(grid, cur), cur, h_w)
        masked = apply_mask(grid, cur)
        assert np.array_equal(proj.data, masked.data)
        assert np.array_equal(apply_mask(masked, cur).data, masked.data)
        # the ring is prev minus cur and disjoint from cur
        r = ring(prev, cur)
        assert not np.intersect1d(r.indices, cur.indices).size
        assert np.array_equal(
            np.union1d(r.indices, cur.indices), prev.indices
        )
        # mask difference equals the ring mask
        diff = apply_mask(grid, prev).data - apply_mask(grid, cur).data
        assert np.array_equal(diff, apply_mask(grid, r).data)


@criterion(4, "hitting flow")
def test_criterion_04_hitting_flow():
    rng = np.random.default_rng(4)
    z0 = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 3))
    t_b, delta = 0.62, 0.1
    # exact landing
    assert np.array_equal(hitting_flow(z0, target, t_b, delta, t_b), target)
    # fine-step explicit integration of z' = (target - z)/(T - t)
    n = 10_000
    h = delta / n
    z = z0.copy()
    for k in range(n):
        t = t_b - delta + k * h
        z = z + h * (target - z) / (t_b - t)
    assert float(np.abs(z - target).max()) <= 1e-4
    mid = t_b - delta / 3
    closed = hitting_flow(z0, target, t_b, delta, mid)
    z = z0.copy()
    steps = int(round((mid - (t_b - delta)) / h))
    for k in range(steps):
        t = t_b - delta + k * h
        z = z + h * (target - z) / (t_b - t)
    assert float(np.abs(z - closed).max()) <= 1e-4


@criterion(5, "importance oracle")
def test_criterion_05_importance_oracle():
    rng = np.random.default_rng(55)
    for _ in range(100):
        data = rng.standard_normal((256, 4)).astype(np.float32)
        grid = TokenGrid(16, 16, 4, data)
        got = importance_map(grid).scores
        want = windowed_variance_scores(
            data.reshape(16, 16, 4).astype(np.float64), 3
        )
        assert float(np.abs(got - want).max()) <= 1e-5
    impulse = np.zeros((9, 1), np.float32)
    impulse[4] = 9.0
    scores = importance_map(TokenGrid(3, 3, 1, impulse)).scores
    assert np.allclose(scores, 8.0, atol=1e-9)


@criterion(6, "beta schedule")
def test_criterion_06_beta_schedule():
    warped = beta_timesteps(100, 1.4, 0.42)
    uniform = beta_timesteps(100, 1.0, 1.0)
    for s100 in range(1, 100):
        s = s100 / 100.0
        assert abs(warped[s100] - beta_inverse_quadrature(s, 1.4, 0.42)) <= 1e-6
        assert abs(uniform[s100] - s) <= 1e-9
    for a, b in ((1.4, 0.42), (1.0, 1.0), (2.0, 5.0)):
        t = beta_timesteps(18, a, b)
        assert t[0] == 0.0 and t[-1] == 1.0
        assert np.all(np.diff(t) > 0)


@criterion(7, "initial selector")
def test_criterion_07_initial_selector():
    base = base_selector_indices(8, 8)
    brute = []
    for r in range(8):
        for c in range(8):
            if r in (0, 7) or c in (0, 7) or (r % 2 == 0 and c % 2 == 0):
                brute.append(r * 8 + c)
    assert np.array_equal(base, np.array(brute))
    boundary = sum(1 for i in brute if i // 8 in (0, 7) or i % 8 in (0, 7))
    assert len(brute) == 37 and boundary == 28 and len(brute) - boundary == 9
    for budget in (22, 37, 40):
        sel = initial_selector(8, 8, budget, seed=11)
        assert len(sel) == budget
    assert np.array_equal(initial_selector(8, 8, 37, seed=11).indices, base)


@criterion(8, "speedup arithmetic")
def test_criterion_08_speedup_arithmetic():
    fit = calibrate_attention_share(
        [(preset_schedule("jit4x"), 4.24), (preset_schedule("jit7x"), 7.07)]
    )
    assert 0.0 <= fit.attention_share <= 0.1
    assert fit.max_rel_error <= 0.02
    quad = schedule_cost(preset_schedule("jit4x"), CostModel(c_attn=1.0, c_lin=0.0))
    direct = 50.0 / (7 * 0.35**2 + 4 * 0.62**2 + 7 * 1.0**2)
    assert abs(quad.speedup - direct) <= 1e-12
    assert abs(quad.speedup - 5.322) <= 0.01


@criterion(9, "end-to-end oracle comparison")
def test_criterion_09_end_to_end_oracle():
    shape = (32, 32, 4)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.0)
    start = time.perf_counter()
    oracle = reference_solve(field, shape, seed=7, n_fine_steps=2000)
    norm = float(np.linalg.norm(oracle.data))

    def rel_err(stages):
        schedule = StageSchedule(stages, 1.4, 0.42)
        report = run(schedule, field, shape, seed=7)
        diff = report.endpoint.data.astype(np.float64) - oracle.data.astype(np.float64)
        return float(np.linalg.norm(diff)) / norm

    # sweep raises every stage sparsity toward 1.0; lam=1 collapses the
    # stage table to the single all-full stage
    sweep = []
    for lam in (0.0, 0.5, 1.0):
        s1, s2 = 0.35 + lam * 0.65, 0.62 + lam * 0.38
        if lam == 1.0:
            stages = [StageSpec(18, 1.0)]
        else:
            stages = [StageSpec(7, s1), StageSpec(4, s2), StageSpec(7, 1.0)]
        sweep.append(rel_err(stages))
    assert all(np.isfinite(sweep))
    assert sweep[0] >= sweep[1] >= sweep[2]
    # all-full schedule on the oracle's own timesteps is exact
    dense = run(StageSchedule([StageSpec(18, 1.0)], 1.0, 1.0), field, shape, 7)
    ref18 = reference_solve(field, shape, 7, 18)
    diff = dense.endpoint.data.astype(np.float64) - ref18.data.astype(np.float64)
    full_err = float(np.linalg.norm(diff)) / norm
    assert full_err <= 1e-6
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"jit4x rel_l2 vs 2000-step oracle: {sweep[0]!r} "
          f"(sweep {sweep!r}, all-full {full_err!r}, {elapsed:.2f}s)")


@criterion(10, "micro-flow statistics")
def test_criterion_10_dmf_statistics():
    shape = (4, 4, 1)
    y_hat = initial_noise(shape, seed=77)
    anchors = index_set(16, [0, 3, 5, 10, 12, 15])
    chosen = index_set(16, [6, 9])
    t_b = 0.62
    zero = TokenGrid(4, 4, 1, np.zeros((16, 1), np.float32))
    t_phi = dmf_target(
        gather(y_hat, anchors), anchors, chosen, t_b, zero).values.astype(np.float64)
    n_draws = 10_000
    draws = np.stack([
        dmf_target(gather(y_hat, anchors), anchors, chosen, t_b,
                   initial_noise(shape, seed=k)).values
        for k in range(n_draws)
    ]).astype(np.float64)
    se = (1.0 - t_b) / np.sqrt(n_draws)
    mean_dev = np.abs(draws.mean(axis=0) - t_phi)
    assert float(mean_dev.max()) <= 3.0 * se
    var = float(((draws - t_phi) ** 2).mean())
    want = (1.0 - t_b) ** 2
    assert abs(var - want) <= 0.05 * want


@criterion(11, "determinism")
def test_criterion_11_determinism(tmp_path):
    doc = {
        "preset": "jit4x",
        "shape": [16, 16, 3],
        "field": {"kind": "gaussian-bump", "sigma1": 0.5},
        "seed": 7,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc), "utf-8")
    outs = []
    for tag in ("a", "b"):
        d = tmp_path / tag
        d.mkdir()
        rc = main([
            "sample", "--config", str(cfg),
            "--out-grid", str(d / "end.jitg"),
            "--out-report", str(d / "report.json"),
            "--out-metrics", str(d / "metrics.csv"),
            "--dump-anchor-distance", str(d / "imp"),
        ])
        assert rc == 0
        images = {
            p.name: p.read_bytes() for p in sorted((d / "imp").iterdir())
        }
        outs.append((
            (d / "end.jitg").read_bytes(),
            (d / "report.json").read_bytes(),
            (d / "metrics.csv").read_bytes(),
            images,
        ))
    assert outs[0] == outs[1]
    assert len(outs[0][3]) == 2  # one image per transition
