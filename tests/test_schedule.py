"""Beta quantiles vs quadrature oracle, schedule assembly, initial selector."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.errors import BudgetError, ParameterError, ScheduleError
from jitflow.schedule import (
    MAX_STEPS,
    StageSchedule,
    StageSpec,
    base_selector_indices,
    beta_timesteps,
    dither_key,
    initial_selector,
    preset_schedule,
)

from oracles import bayer_matrix, beta_inverse_quadrature


# ---------------------------------------------------------------------------
# beta timesteps


@pytest.mark.parametrize("ab", [(1.0, 1.0), (1.4, 0.42), (2.0, 5.0)])
def test_roundtrip_grid(ab):
    from scipy.special import betainc

    a, b = ab
    s = np.arange(1, 1000) / 1000
    x = beta_timesteps(1000, a, b)[1:-1]
    assert np.max(np.abs(betainc(a, b, x) - s)) <= 1e-8


def test_beta_timesteps_examples():
    t = beta_timesteps(4, 1.0, 1.0)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.allclose(t, [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-9)
    # the uniform grid is exact, matching a dense solver's i * (1/n) steps
    assert np.array_equal(beta_timesteps(50, 1.0, 1.0),
                          np.arange(51) * (1.0 / 50))

    t = beta_timesteps(18, 1.4, 0.42)
    for i in range(19):
        want = beta_inverse_quadrature(i / 18, 1.4, 0.42)
        assert abs(float(t[i]) - want) < 1e-6


@settings(max_examples=30, deadline=None)
@given(
    st.integers(1, 40),
    st.floats(0.2, 5.0, allow_nan=False),
    st.floats(0.2, 5.0, allow_nan=False),
)
def test_beta_timesteps_strictly_increasing(n, a, b):
    t = beta_timesteps(n, a, b)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0)


@pytest.mark.parametrize("ab", [(math.nan, 0.42), (1.4, math.nan), (math.inf, 0.42),
                                (1.4, math.inf), (0.0, 1.0), (1.4, -0.42),
                                (1e-5, 0.42), (1.4, 0.01)])
def test_beta_timesteps_refuses_bad_shape_parameters(ab):
    # scipy's betaincinv returns NaN quantiles for a NaN or infinite shape,
    # and repeated ones (the warp collapses) for extreme finite shapes
    with pytest.raises(ParameterError):
        beta_timesteps(18, *ab)


# ---------------------------------------------------------------------------
# schedules


def test_preset_jit4x():
    s = preset_schedule("jit4x")
    assert s.nfe == 18
    assert [sp.steps for sp in s.stages] == [7, 4, 7]
    assert [sp.sparsity for sp in s.stages] == [0.35, 0.62, 1.0]
    assert s.transition_steps == (7, 11)
    assert (s.alpha, s.beta) == (1.4, 0.42)


def test_preset_jit7x():
    s = preset_schedule("jit7x")
    assert s.nfe == 11
    assert [sp.steps for sp in s.stages] == [4, 3, 4]
    assert [sp.sparsity for sp in s.stages] == [0.32, 0.60, 1.0]
    assert s.transition_steps == (4, 7)


def test_vanilla_presets_single_stage_uniform():
    for name, steps in (("vanilla50", 50), ("vanilla12", 12), ("vanilla7", 7)):
        s = preset_schedule(name)
        assert s.nfe == steps
        assert s.transition_steps == ()
        assert len(s.stages) == 1 and s.stages[0].sparsity == 1.0
        assert np.allclose(s.timesteps, np.linspace(0, 1, steps + 1), atol=1e-9)
    with pytest.raises(ScheduleError):
        preset_schedule("nope")


def test_build_schedule_validation():
    with pytest.raises(ScheduleError):
        StageSchedule([StageSpec(2, 0.5), StageSpec(2, 0.5), StageSpec(2, 1.0)], 1, 1)
    with pytest.raises(ScheduleError):
        StageSchedule([StageSpec(2, 0.7), StageSpec(2, 0.5)], 1, 1)
    with pytest.raises(ScheduleError):
        StageSchedule([StageSpec(2, 0.5)], 1.0, 1.0)  # final stage not dense
    with pytest.raises(ScheduleError):
        StageSpec(0, 1.0)
    with pytest.raises(ScheduleError):
        StageSpec(3, 0.0)


def test_schedule_refuses_step_totals_above_the_cap():
    # the cap bounds the total: each stage here is within it
    half = MAX_STEPS // 2 + 1
    with pytest.raises(BudgetError, match=f"schedule has {2 * half} solver steps"):
        StageSchedule([StageSpec(half, 0.5), StageSpec(half, 1.0)], 1.4, 0.42)
    assert StageSchedule([StageSpec(MAX_STEPS, 1.0)]).nfe == MAX_STEPS


def test_timesteps_follow_the_warp():
    # the timesteps are derived, so a copy with a new warp gets its quantiles
    s = dataclasses.replace(preset_schedule("jit4x"), alpha=2.0)
    assert np.array_equal(s.timesteps, beta_timesteps(18, 2.0, 0.42))
    assert s != preset_schedule("jit4x") == preset_schedule("jit4x")
    assert len({preset_schedule("jit4x"), preset_schedule("jit4x"), s}) == 2
    assert np.array_equal(StageSchedule([StageSpec(5, 1.0)]).timesteps, np.linspace(0, 1, 6))


def test_swapped_shapes_are_the_mirrored_warp():
    # Beta(b, a) is Beta(a, b) under t -> 1 - t, so swapping alpha and beta
    # gives the mirrored timestep grid
    for a, b in [(1.4, 0.42), (2.0, 5.0), (0.5, 0.5), (3.0, 0.2)]:
        for n in (11, 18, 50, 1000):
            fwd = beta_timesteps(n, a, b)
            assert np.max(np.abs(beta_timesteps(n, b, a) - (1.0 - fwd[::-1]))) <= 1e-15
    # the preset warp clusters steps near t=1, its mirror near t=0
    preset, mirror = beta_timesteps(18, 1.4, 0.42), beta_timesteps(18, 0.42, 1.4)
    assert np.median(preset) > 0.5 > np.median(mirror)


def test_inverted_warp_collapse_names_its_keys():
    # the inverted (0.05, 0.42) warp is the swapped (0.42, 0.05) one, whose
    # quantiles near t=1 round to repeats: the general collapse error
    specs = [StageSpec(7, 0.35), StageSpec(4, 0.62), StageSpec(7, 1.0)]
    StageSchedule(specs, 0.05, 0.42)
    with pytest.raises(ParameterError, match="alpha=0.42, beta=0.05 collapse the Beta warp"):
        StageSchedule(specs, 0.42, 0.05)


def test_stage_of_step_and_counts():
    s = preset_schedule("jit4x")
    assert s.transition_steps == (7, 11)  # stages own steps 0-6, 7-10 and 11-17
    assert s.active_counts(1024) == (358, 635, 1024)
    assert s.active_counts(256) == (90, 159, 256)
    # final stage forced dense regardless of rounding
    tiny = StageSchedule([StageSpec(2, 0.4), StageSpec(2, 1.0)], 1, 1)
    assert tiny.active_counts(10) == (4, 10)
    with pytest.raises(ScheduleError):
        StageSchedule(
            [StageSpec(1, 0.50), StageSpec(1, 0.52), StageSpec(1, 1.0)], 1, 1
        ).active_counts(10)  # 5 == 5: counts must strictly increase


# ---------------------------------------------------------------------------
# initial selector


def brute_force_base(h, w):
    out = []
    for r in range(h):
        for c in range(w):
            boundary = r in (0, h - 1) or c in (0, w - 1)
            strided = r % 2 == 0 and c % 2 == 0
            if boundary or strided:
                out.append(r * w + c)
    return np.array(out, dtype=np.int64)


def test_base_selector_against_enumeration():
    for h, w in [(8, 8), (4, 4), (5, 7), (1, 9), (3, 1), (16, 16)]:
        assert np.array_equal(base_selector_indices(h, w), brute_force_base(h, w))
    assert base_selector_indices(8, 8).size == 37  # 28 boundary + 9 interior
    assert base_selector_indices(4, 4).size == 13  # 12 boundary + 1 interior


def test_initial_selector_budgets():
    base = base_selector_indices(8, 8)
    for budget in (22, 37, 40, 1, 64):
        sel = initial_selector(8, 8, budget)
        assert len(sel) == budget
    exact = initial_selector(8, 8, 37)
    assert np.array_equal(exact.indices, base)
    # fill keeps the whole base; drop keeps a subset of it
    grown = initial_selector(8, 8, 45)
    assert np.all(np.isin(base, grown.indices))
    shrunk = initial_selector(8, 8, 20)
    assert np.all(np.isin(shrunk.indices, base))
    with pytest.raises(BudgetError):
        initial_selector(8, 8, 0)
    with pytest.raises(BudgetError):
        initial_selector(8, 8, 65)


@pytest.mark.parametrize("h, w", [(1, 1), (2, 2), (1, 9), (3, 5), (2, 7), (6, 4)])
def test_initial_selector_full_budget_is_every_token(h, w):
    # a budget of every token cuts no tie class, so it reads no dither key,
    # on strips with no interior (h <= 2) as on grids with one
    dither_key.cache_clear()
    sel = initial_selector(h, w, h * w)
    assert np.array_equal(sel.indices, np.arange(h * w))
    assert dither_key.cache_info().misses == 0


def test_initial_selector_corners_at_exact_budget():
    h, w = 8, 8
    corners = [0, w - 1, (h - 1) * w, h * w - 1]
    sel = initial_selector(h, w, 37)
    assert np.all(np.isin(corners, sel.indices))


def test_initial_selector_is_the_base_set_at_an_exact_budget():
    # every even-even token has a lower dither key than every other token,
    # so the base set is a prefix of the selector order on any grid
    for h, w in [(8, 8), (48, 48), (64, 64), (96, 96), (33, 33), (5, 7), (1, 9)]:
        base = base_selector_indices(h, w)
        assert np.array_equal(initial_selector(h, w, len(base)).indices, base)


def selector_order(h, w):
    """Boundary tokens, then interior ones, each by Bayer rank, enumerated."""
    rank = bayer_matrix(max(h - 1, w - 1).bit_length())[:h, :w]
    cells = [(0 < r < h - 1 and 0 < c < w - 1, rank[r, c], r * w + c)
             for r in range(h) for c in range(w)]
    return [token for *_, token in sorted(cells)]


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 24), st.integers(1, 24), st.data())
def test_initial_selector_takes_the_boundary_first_then_dither_order(h, w, data):
    budget = data.draw(st.integers(1, h * w))
    sel = initial_selector(h, w, budget)
    assert len(sel) == budget
    assert sel.indices.tolist() == sorted(selector_order(h, w)[:budget])
