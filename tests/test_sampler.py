"""Sparse sampling loop: anchor exactness, reduced-system equivalence, NFE."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jitflow.cost import CostModel
from jitflow.errors import FieldContractError, ParameterError, ScheduleError
from jitflow.fileio import canonical_json, report_to_dict
from jitflow.fields import (
    GaussianFlowField,
    initial_noise,
    make_target_image,
    reference_solve,
)
from jitflow import importance, interp, sampler, transition
from jitflow import schedule as schedule_module
from jitflow.grid import ActiveBlock, gather, index_set
from jitflow.rng import UniformStream
from jitflow.sampler import RunOptions, run
from jitflow.schedule import StageSchedule, StageSpec, initial_selector, preset_schedule
from jitflow.transition import dmf_target, predict_clean


class CountingField:
    """Pass-through wrapper that records every (m, t) evaluation."""

    def __init__(self, inner):
        self.inner = inner
        self.calls = []

    def evaluate(self, block, active, t):
        self.calls.append((len(active), t))
        return self.inner.evaluate(block, active, t)


class BrokenField:
    """Misbehaves on the k-th call in a configurable way."""

    def __init__(self, inner, fail_at, mode):
        self.inner = inner
        self.fail_at = fail_at
        self.mode = mode
        self.n = 0

    def evaluate(self, block, active, t):
        self.n += 1
        if self.n - 1 == self.fail_at:
            if self.mode == "shape":
                return ActiveBlock(1, block.d, np.zeros((1, block.d), np.float32))
            if self.mode == "nan":
                bad = np.full((block.m, block.d), np.nan, np.float32)
                return ActiveBlock(block.m, block.d, bad)
            return None
        return self.inner.evaluate(block, active, t)


class CachedField:
    """Returns one cached block per active-set size on every call."""

    def __init__(self):
        self.blocks = {}

    def evaluate(self, block, active, t):
        if block.m not in self.blocks:
            values = np.linspace(-1.0, 1.0, block.m * block.d, dtype=np.float32)
            self.blocks[block.m] = ActiveBlock(block.m, block.d, values)
        return self.blocks[block.m]


class OverwritingField:
    """Evaluates its inner field, then overwrites the block it was handed."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, block, active, t):
        out = self.inner.evaluate(block, active, t)
        block.values[...] = np.nan
        return out


def bump_field(shape, sigma1):
    return GaussianFlowField(make_target_image("gaussian-bump", shape), sigma1)


# ---------------------------------------------------------------------------
# full runs


def test_run_nfe_and_active_counts():
    shape = (16, 16, 3)
    field = CountingField(bump_field(shape, 0.5))
    report = run(preset_schedule("jit4x"), field, shape, seed=11)
    assert report.nfe == 18 == len(field.calls)
    ms = [m for m, _ in field.calls]
    assert ms == [90] * 7 + [159] * 4 + [256] * 7
    assert [s.m for s in report.steps] == ms
    assert [s.stage for s in report.steps] == [0] * 7 + [1] * 4 + [2] * 7
    assert [rec.step_index for rec in report.transitions] == [7, 11]
    assert [len(rec.activated) for rec in report.transitions] == [69, 97]
    ts = [t for _, t in field.calls]
    assert ts == [float(x) for x in preset_schedule("jit4x").timesteps[:-1]]


@pytest.mark.parametrize("preset", ["vanilla7", "jit4x"])
def test_field_overwriting_its_input_cannot_change_a_run(preset):
    # the field is handed a copy of the stage's anchor rows, never the rows
    shape = (16, 16, 3)
    opts = RunOptions(snapshot_stride=1)
    clean = run(preset_schedule(preset), bump_field(shape, 0.5), shape, 5, opts)
    dirty = run(preset_schedule(preset), OverwritingField(bump_field(shape, 0.5)),
                shape, 5, opts)
    assert canonical_json(report_to_dict(dirty)) == canonical_json(report_to_dict(clean))
    assert dirty.endpoint.data.tobytes() == clean.endpoint.data.tobytes()
    assert [g.data.tobytes() for _, g in dirty.snapshots] == [
        g.data.tobytes() for _, g in clean.snapshots]


def test_run_cost_accounting_linear_default():
    shape = (16, 16, 3)
    report = run(preset_schedule("jit4x"), bump_field(shape, 0.5), shape, seed=11)
    assert report.total_cost == 7 * 90 + 4 * 159 + 7 * 256
    assert report.baseline_cost == 50 * 256
    assert report.speedup_vs_baseline == pytest.approx(12800 / 3058, rel=1e-12)


def test_run_reduced_system_equivalence_stage0():
    # anchors evolve as a closed m-dimensional ODE system: integrating the
    # gathered subsystem directly reproduces the engine's anchor rows bitwise
    shape = (8, 8, 2)
    field = bump_field(shape, 0.7)
    schedule = preset_schedule("jit4x")
    seed = 23
    report = run(schedule, field, shape, seed, options=RunOptions(snapshot_stride=1))
    counts = schedule.active_counts(64)
    active0 = initial_selector(8, 8, counts[0])
    z = gather(initial_noise(shape, seed), active0)
    for k in range(7):
        out = field.evaluate(z, active0, float(schedule.timesteps[k]))
        dt = np.float32(float(schedule.timesteps[k + 1] - schedule.timesteps[k]))
        z = ActiveBlock(z.m, z.d, z.values + out.values * dt)
    snap_step, snap = report.snapshots[6]
    assert snap_step == 7
    assert np.array_equal(snap.data[active0.indices], z.values)


def test_run_single_stage_degenerates_to_dense_euler():
    shape = (8, 8, 2)
    field = bump_field(shape, 0.8)
    report = run(preset_schedule("vanilla12"), field, shape, seed=9)
    dense = reference_solve(field, shape, seed=9, n_fine_steps=12)
    assert np.array_equal(report.endpoint.data, dense.data)
    assert report.transitions == ()


def test_run_deterministic_and_seed_sensitive():
    shape = (8, 8, 2)
    field = bump_field(shape, 0.5)
    a = run(preset_schedule("jit4x"), field, shape, seed=3)
    b = run(preset_schedule("jit4x"), field, shape, seed=3)
    c = run(preset_schedule("jit4x"), field, shape, seed=4)
    assert np.array_equal(a.endpoint.data, b.endpoint.data)
    assert not np.array_equal(a.endpoint.data, c.endpoint.data)


def test_run_endpoint_reaches_point_mass_target():
    shape = (16, 16, 3)
    mu = make_target_image("gaussian-bump", shape)
    report = run(preset_schedule("jit4x"), GaussianFlowField(mu, 0.0), shape, seed=2)
    assert np.all(np.isfinite(report.endpoint.data))
    err = np.linalg.norm(report.endpoint.data - mu.data)
    assert err / np.linalg.norm(mu.data) < 1e-2


def test_run_draws_one_normal_grid(monkeypatch):
    # the initial noise is the only normal draw: transitions seat new
    # tokens on that same noise
    calls = []
    normal = UniformStream.normal

    def counting_normal(self, n):
        calls.append(n)
        return normal(self, n)

    monkeypatch.setattr(UniformStream, "normal", counting_normal)
    shape = (8, 8, 2)
    report = run(preset_schedule("jit4x"), bump_field(shape, 0.5), shape, seed=3)
    assert len(report.transitions) == 2
    assert calls == [8 * 8 * 2]


@pytest.mark.parametrize("preset", ["vanilla7", "jit4x"])
def test_run_never_writes_its_initial_noise(monkeypatch, preset):
    # the state is the initial noise plus the active rows: a read-only noise
    # grid gives the same report, endpoint and snapshots as a writable one
    def read_only_noise(shape, seed):
        grid = initial_noise(shape, seed)
        grid.data.setflags(write=False)
        return grid

    shape = (16, 16, 3)
    opts = RunOptions(snapshot_stride=2)
    clean = run(preset_schedule(preset), bump_field(shape, 0.5), shape, 5, opts)
    monkeypatch.setattr(sampler, "initial_noise", read_only_noise)
    frozen = run(preset_schedule(preset), bump_field(shape, 0.5), shape, 5, opts)
    assert canonical_json(report_to_dict(frozen)) == canonical_json(report_to_dict(clean))
    assert frozen.endpoint.data.tobytes() == clean.endpoint.data.tobytes()
    assert [g.data.tobytes() for _, g in frozen.snapshots] == [
        g.data.tobytes() for _, g in clean.snapshots]


def test_run_snapshots():
    shape = (8, 8, 2)
    field = bump_field(shape, 0.5)
    report = run(preset_schedule("jit4x"), field, shape, seed=3,
                 options=RunOptions(snapshot_stride=3))
    assert [i for i, _ in report.snapshots] == [3, 6, 9, 12, 15, 18]
    assert np.array_equal(report.snapshots[-1][1].data, report.endpoint.data)


def test_run_snapshots_step_anchor_rows_and_keep_inactive_rows_seated():
    # every snapshot equals the reduced system: anchor rows integrated alone,
    # activated rows seated with the transition target, other rows untouched;
    # each target is the micro-flow target built on the tokens' own initial noise
    shape = (8, 8, 2)
    field = bump_field(shape, 0.5)
    schedule = preset_schedule("jit4x")
    seed = 3
    report = run(schedule, field, shape, seed, options=RunOptions(snapshot_stride=1))
    noise = initial_noise(shape, seed).data
    state = noise.copy()
    active = initial_selector(8, 8, schedule.active_counts(64)[0])
    seated = iter(report.transitions)
    for k in range(schedule.nfe):
        if k in schedule.transition_steps:
            rec = next(seated)
            state[rec.activated.indices] = rec.target_values.values
            active = index_set(64, np.union1d(active.indices, rec.activated.indices))
        z = ActiveBlock(len(active), 2, state[active.indices])
        out = field.evaluate(z, active, float(schedule.timesteps[k]))
        if k + 1 in schedule.transition_steps:
            rec = report.transitions[schedule.transition_steps.index(k + 1)]
            t = float(schedule.timesteps[k])
            y_hat = predict_clean(z, t, gather(interp.lift(out, active, shape), active))
            want = dmf_target(y_hat, active, rec.activated,
                              float(schedule.timesteps[k + 1]), initial_noise(shape, seed))
            assert np.array_equal(rec.target_values.values, want.values)
        dt = np.float32(float(schedule.timesteps[k + 1] - schedule.timesteps[k]))
        state[active.indices] = z.values + out.values * dt
        snap_step, snap = report.snapshots[k]
        assert snap_step == k + 1
        assert np.array_equal(snap.data, state)
        if len(active) < 64:
            idle = np.flatnonzero(~active.mask())
            assert np.array_equal(snap.data[idle], noise[idle])
    assert np.array_equal(report.snapshots[-1][1].data, report.endpoint.data)


@st.composite
def staged_schedules(draw):
    """1-4 stages of 1-3 steps, sparsities strictly increasing to 1.0."""
    k = draw(st.integers(1, 4))
    spars = draw(st.lists(st.floats(0.01, 0.99), min_size=k - 1, max_size=k - 1, unique=True))
    steps = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return StageSchedule(tuple(StageSpec(s, p) for s, p in zip(steps, sorted(spars) + [1.0])))


@settings(max_examples=60, deadline=None)
@given(staged_schedules(), st.integers(1, 12), st.integers(1, 12), st.sampled_from([1, 2]),
       st.integers(0, 2**32 - 1))
def test_run_stage_sets_are_nested_and_end_dense(schedule, h, w, d, seed):
    # each ring is disjoint from the set it joins, the rings and the initial
    # set cover the grid, and every step runs its stage's count
    n = h * w
    try:
        counts = schedule.active_counts(n)
    except ScheduleError:
        assume(False)
    shape = (h, w, d)
    report = run(schedule, bump_field(shape, 0.5), shape, seed)
    covered = initial_selector(h, w, counts[0]).mask()
    assert len(report.transitions) == len(counts) - 1
    for k, rec in enumerate(report.transitions):
        assert not np.any(covered[rec.activated.indices])
        assert len(rec.activated) == counts[k + 1] - counts[k]
        covered[rec.activated.indices] = True
    assert np.all(covered)
    assert [s.m for s in report.steps] == [counts[s.stage] for s in report.steps]
    assert [s.stage for s in report.steps] == [
        k for k, spec in enumerate(schedule.stages) for _ in range(spec.steps)]


@pytest.mark.parametrize("preset", ["jit4x", "jit7x"])
def test_staged_runs_track_the_exact_flow_map(preset):
    # fidelity guard: the per-sample error ||y - x1|| / ||x1 - mu|| against
    # the exact endpoint x1 = flow_map(x0, 1), averaged over 8 seeds, was
    # 0.729 (jit4x) and 0.725 (jit7x) with distance-ranked rings and 0.733
    # and 0.728 with importance-ranked ones (seed sd ~0.01)
    shape = (32, 32, 4)
    field = bump_field(shape, 0.5)
    mu = field.mu.data.astype(np.float64)
    errs = []
    for seed in range(8):
        y = run(preset_schedule(preset), field, shape, seed).endpoint.data
        exact = field.flow_map(initial_noise(shape, seed), 1.0).data.astype(np.float64)
        errs.append(np.linalg.norm(y - exact) / np.linalg.norm(exact - mu))
    assert np.mean(errs) <= 0.76


def test_runs_read_one_cached_plan(monkeypatch):
    # a run's token plan depends on (h, w, stage counts) alone: five seeds
    # build it once, wake the same rings, and call none of the functions
    # that build it, nor the full-grid lift the seat operator replaces
    shape = (16, 16, 3)
    schedule = preset_schedule("jit4x")
    transition.sampling_plan.cache_clear()
    transition.sampling_plan(16, 16, schedule.active_counts(256))

    def forbidden(*args, **kwargs):
        raise AssertionError("run rebuilt part of its token plan")

    names = {"lift", "nearest_fill", "gaussian_blur", "dither_first", "initial_selector",
             "nearest_anchor", "lift_operator", "importance_map"}
    for module in (importance, interp, schedule_module, transition, sampler):
        for name in names & set(vars(module)):
            monkeypatch.setattr(module, name, forbidden)
    reports = [run(schedule, bump_field(shape, 0.5), shape, seed) for seed in range(5)]
    cache = transition.sampling_plan.cache_info()
    assert (cache.misses, cache.hits) == (1, 5)
    assert [rec.step_index for rec in reports[0].transitions] == [7, 11]
    for report in reports[1:]:
        for rec, first in zip(report.transitions, reports[0].transitions):
            assert np.array_equal(rec.activated.indices, first.activated.indices)
    assert len({r.endpoint.data.tobytes() for r in reports}) == 5


@pytest.mark.parametrize("preset", ["vanilla7", "jit4x"])
def test_run_does_not_write_to_field_output(preset):
    # a field may hand back an array it keeps; run must only read it
    field = CachedField()
    run(preset_schedule(preset), field, (8, 8, 2), seed=2)
    assert field.blocks
    for m, block in field.blocks.items():
        want = np.linspace(-1.0, 1.0, m * 2, dtype=np.float32).reshape(m, 2)
        assert np.array_equal(block.values, want)


def test_sag_velocity_field_contract():
    # The sparse field evaluation of the first step refuses a block of the
    # wrong shape, a non-finite block and a non-block return value.
    shape = (8, 8, 2)
    inner = bump_field(shape, 0.7)
    schedule = preset_schedule("jit4x")
    assert schedule.stages[0].sparsity < 1.0
    for mode in ("shape", "nan", "type"):
        field = BrokenField(inner, fail_at=0, mode=mode)
        with pytest.raises(FieldContractError, match="step 0:"):
            run(schedule, field, shape, seed=1)


def test_run_wraps_field_errors_with_step_index():
    shape = (8, 8, 2)
    inner = bump_field(shape, 0.5)
    for mode in ("shape", "nan", "type"):
        field = BrokenField(inner, fail_at=9, mode=mode)
        with pytest.raises(FieldContractError, match="step 9:"):
            run(preset_schedule("jit4x"), field, shape, seed=3)


def test_run_refuses_an_overflowing_cost_model_before_evaluating():
    shape = (8, 8, 2)
    field = CountingField(bump_field(shape, 0.5))
    with pytest.raises(ParameterError, match="overflows float64"):
        run(preset_schedule("jit4x"), field, shape, seed=3, cost_model=CostModel(c_attn=1e308))
    assert field.calls == []


def test_run_baseline_steps_parameter():
    shape = (8, 8, 2)
    field = bump_field(shape, 0.5)
    report = run(preset_schedule("vanilla7"), field, shape, seed=1, baseline_steps=7)
    assert report.speedup_vs_baseline == pytest.approx(1.0, abs=1e-12)
