"""Cost model arithmetic, direct-summation oracles, attention-share fits."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jitflow.cost import (
    CostModel,
    calibrate_attention_share,
    normalized_model,
    schedule_cost,
    step_cost,
)
from jitflow.errors import ParameterError
from jitflow.schedule import StageSchedule, StageSpec, preset_schedule


def test_step_cost_terms():
    assert step_cost(10, CostModel(c_attn=1.0, c_lin=0.0)) == 100.0
    assert step_cost(10, CostModel(c_lin=2.0)) == 20.0
    assert step_cost(10, CostModel(c_lin=1.0, c_fix=5.0)) == 15.0
    assert step_cost(10, CostModel(c_attn=1.0, c_lin=1.0, n_ctx=6.0)) == 256.0 + 16.0
    assert step_cost(0, CostModel()) == 0.0
    with pytest.raises(ParameterError):
        step_cost(-1, CostModel())


def test_model_validation():
    with pytest.raises(ParameterError):
        CostModel(c_lin=-1.0)
    with pytest.raises(ParameterError):
        CostModel(c_attn=0.0, c_lin=0.0, c_fix=0.0)
    with pytest.raises(ParameterError):
        normalized_model(1.5)
    m = normalized_model(0.3)
    assert (m.c_attn, m.c_lin) == (0.3, 0.7)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(0.0, 10.0), st.floats(0.0, 10.0),
    st.floats(0.0, 10.0), st.floats(0.0, 32.0),
)
def test_dense_schedule_speedup_is_step_ratio(c_attn, c_lin, c_fix, n_ctx):
    # all-full schedule: per-step costs cancel, leaving baseline/NFE exactly
    if c_attn == c_lin == c_fix == 0.0:
        c_lin = 1.0
    model = CostModel(c_attn, c_lin, c_fix, n_ctx)
    dense18 = StageSchedule([StageSpec(18, 1.0)], 1.4, 0.42)
    rep = schedule_cost(dense18, model, baseline_steps=50)
    assert rep.speedup == pytest.approx(50.0 / 18.0, rel=1e-12)
    rep_tok = schedule_cost(dense18, model, n_tokens=256, baseline_steps=50)
    assert rep_tok.speedup == pytest.approx(50.0 / 18.0, rel=1e-12)


def test_jit4x_pure_quadratic_direct_summation():
    # oracle: explicit summation over the stage table, no library calls
    total = 7 * 0.35**2 + 4 * 0.62**2 + 7 * 1.0**2
    assert total == pytest.approx(9.3951, abs=1e-12)
    rep = schedule_cost(preset_schedule("jit4x"), CostModel(c_attn=1.0, c_lin=0.0))
    assert rep.total == pytest.approx(total, rel=1e-12)
    assert rep.speedup == pytest.approx(50.0 / total, rel=1e-12)
    assert rep.speedup == pytest.approx(5.322, abs=0.01)


def test_jit7x_pure_linear_direct_summation():
    total = 4 * 0.32 + 3 * 0.60 + 4 * 1.0
    assert total == pytest.approx(7.08, abs=1e-12)
    rep = schedule_cost(preset_schedule("jit7x"), CostModel(c_lin=1.0))
    assert rep.total == pytest.approx(total, rel=1e-12)
    assert rep.speedup == pytest.approx(50.0 / 7.08, rel=1e-12)
    assert rep.speedup == pytest.approx(7.062, abs=0.001)


def test_jit4x_linear_total_and_integer_budgets():
    rep = schedule_cost(preset_schedule("jit4x"), CostModel(c_lin=1.0))
    assert rep.total == pytest.approx(7 * 0.35 + 4 * 0.62 + 7, rel=1e-12)  # 11.93
    tok = schedule_cost(preset_schedule("jit4x"), CostModel(c_lin=1.0), n_tokens=1024)
    assert tok.total == 7 * 358 + 4 * 635 + 7 * 1024
    assert tok.baseline_total == 50 * 1024
    assert [int(m) for _, m, _ in tok.per_stage] == [358, 635, 1024]


@settings(max_examples=60, deadline=None)
@given(
    st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 5.0), st.floats(0.0, 8.0),
    st.floats(0.05, 0.5), st.floats(0.02, 0.45),
)
def test_speedup_monotone_nonincreasing_in_sparsity(c_attn, c_lin, c_fix, n_ctx, s1, bump):
    if c_attn == c_lin == c_fix == 0.0:
        c_fix = 1.0
    model = CostModel(c_attn, c_lin, c_fix, n_ctx)
    s2 = s1 + 0.45
    spd = lambda a, b: schedule_cost(
        StageSchedule([StageSpec(7, a), StageSpec(4, b), StageSpec(7, 1.0)], 1.4, 0.42),
        model,
    ).speedup
    base = spd(s1, s2)
    assert spd(min(s1 + bump, s2 - 1e-6), s2) <= base + 1e-12
    assert spd(s1, min(s2 + bump, 1.0 - 1e-6)) <= base + 1e-12


def test_single_target_attention_share():
    fit = calibrate_attention_share([(preset_schedule("jit4x"), 4.24)])
    assert fit.attention_share == pytest.approx(0.05427, abs=5e-4)
    assert fit.max_rel_error < 1e-5  # one target, one knob: exact fit
    assert fit.names == ("jit4x",)


def test_two_target_attention_share_within_two_percent():
    fit = calibrate_attention_share(
        [(preset_schedule("jit4x"), 4.24), (preset_schedule("jit7x"), 7.07)]
    )
    assert 0.0 <= fit.attention_share <= 0.1
    assert fit.max_rel_error < 0.02
    assert fit.predicted[0] == pytest.approx(4.24, rel=0.02)
    assert fit.predicted[1] == pytest.approx(7.07, rel=0.02)


def test_alpha_spot_values():
    # alpha=0.05 puts jit7x within ~1.1% of the published 7.07
    rep = schedule_cost(preset_schedule("jit7x"), normalized_model(0.05))
    assert rep.speedup == pytest.approx(7.1424, abs=5e-4)
    assert abs(rep.speedup - 7.07) / 7.07 < 0.015
    # pure attention overstates the saving by ~25 percent
    quad = schedule_cost(preset_schedule("jit4x"), normalized_model(1.0))
    assert quad.speedup == pytest.approx(5.322, abs=0.01)
    assert abs(quad.speedup - 4.24) / 4.24 > 0.2


def test_overflowing_costs_raise():
    huge = CostModel(c_attn=1e308)
    with pytest.raises(ParameterError, match="overflows float64"):
        schedule_cost(preset_schedule("jit4x"), huge, n_tokens=64)
    with pytest.raises(ParameterError, match="overflows float64"):
        schedule_cost(preset_schedule("jit4x"), huge)  # the baseline alone overflows
    rep = schedule_cost(preset_schedule("jit4x"), CostModel(c_attn=1e300), n_tokens=64)
    assert rep.speedup == pytest.approx(50 * 64**2 / (7 * 22**2 + 4 * 40**2 + 7 * 64**2))


def test_calibration_validation():
    with pytest.raises(ParameterError):
        calibrate_attention_share([])
    with pytest.raises(ParameterError):
        calibrate_attention_share([(preset_schedule("jit4x"), 0.0)])
