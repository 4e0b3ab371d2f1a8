"""CLI subcommands: outputs, determinism, exit codes."""

import json
import subprocess
import sys

import pytest

from jitflow.cli import main
from jitflow.config import config_from_dict
from jitflow.cost import CostModel, schedule_cost
from jitflow.fields import GaussianFlowField
from jitflow.schedule import MAX_STEPS


def write_cfg(tmp_path, doc, name="cfg.json"):
    p = tmp_path / name
    p.write_text(json.dumps(doc), "utf-8")
    return str(p)


SMALL = {
    "preset": "jit4x",
    "shape": [8, 8, 2],
    "field": {"kind": "gaussian-bump", "sigma1": 0.0},
    "seed": 7,
}

# a child process fails on the warnings that pyproject's filterwarnings names
STRICT_WARNINGS = (
    "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
    "-W", "error::PendingDeprecationWarning", "-W", "error::FutureWarning",
)


def test_schedule_preset_table(capsys):
    assert main(["schedule", "--preset", "jit4x"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "stage,steps,sparsity"
    assert out[1] == "0,7,0.35"
    assert out[2] == "1,4,0.62"
    assert out[3] == "2,7,1.0"
    assert out[5] == "i,t"
    ts = [line.split(",") for line in out[6:]]
    assert len(ts) == 19
    assert float(ts[0][1]) == 0.0 and float(ts[-1][1]) == 1.0


def test_schedule_from_config(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**SMALL, "preset": None} | {
        "schedule": {"stages": [[5, 0.5], [5, 1.0]]}})
    # json round: drop the null preset key entirely
    doc = json.loads((tmp_path / "cfg.json").read_text())
    del doc["preset"]
    cfg = write_cfg(tmp_path, doc)
    assert main(["schedule", "--config", cfg]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[1] == "0,5,0.5" and out[2] == "1,5,1.0"
    assert len(out) == 4 + 1 + 11


def test_sample_writes_deterministic_outputs(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    args = [
        "sample", "--config", cfg,
        "--out-grid", str(tmp_path / "end.jitg"),
        "--out-report", str(tmp_path / "report.json"),
        "--out-metrics", str(tmp_path / "metrics.csv"),
        "--dump-anchor-distance", str(tmp_path / "imp"),
    ]
    assert main(args) == 0
    line = capsys.readouterr().out.strip()
    assert "nfe=18" in line and "schedule=jit4x" in line
    grid1 = (tmp_path / "end.jitg").read_bytes()
    report1 = (tmp_path / "report.json").read_bytes()
    metrics1 = (tmp_path / "metrics.csv").read_bytes()
    pgms = sorted(p.name for p in (tmp_path / "imp").iterdir())
    assert pgms == ["anchor_distance_step007.pgm", "anchor_distance_step011.pgm"]
    assert main(args) == 0
    assert (tmp_path / "end.jitg").read_bytes() == grid1
    assert (tmp_path / "report.json").read_bytes() == report1
    assert (tmp_path / "metrics.csv").read_bytes() == metrics1
    doc = json.loads(report1)
    assert doc["seed"] == 7 and len(doc["transitions"]) == 2


def test_bench_cost_and_calibration(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**SMALL, "cost": {"c_attn": 1.0, "c_lin": 0.0}})
    assert main(["bench-cost", "--config", cfg, "--calibrate"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "schedule,mode,c_attn,c_lin,c_fix,n_ctx,total,baseline,speedup"
    frac = out[1].split(",")
    assert frac[1] == "fractional"
    assert float(frac[6]) == pytest.approx(9.3951, abs=1e-9)
    tok = out[2].split(",")
    assert tok[1] == "tokens"
    alpha_line = next(line for line in out if line.startswith("attention_share,"))
    alpha = float(alpha_line.split(",")[1])
    assert 0.0 < alpha < 0.1
    fit_rows = out[out.index("schedule,target,predicted,rel_error") + 1:]
    assert len(fit_rows) == 2
    for row in fit_rows:
        assert float(row.split(",")[3]) < 0.02


def test_calibration_ignores_the_report_baseline(tmp_path, capsys):
    # the published speedups are over a dense 50-step run, whatever the
    # config's own baseline_steps
    rows = []
    for doc in (SMALL, {**SMALL, "baseline_steps": 12}):
        assert main(["bench-cost", "--config", write_cfg(tmp_path, doc), "--calibrate"]) == 0
        out = capsys.readouterr().out.splitlines()
        rows.append(out[out.index("") + 1:])
    assert rows[0] == rows[1]
    assert rows[0][0].startswith("attention_share,0.0")


def test_oracle_compare_vanilla_is_exact(tmp_path, capsys):
    doc = {
        "schedule": {"stages": [[12, 1.0]]},
        "shape": [8, 8, 2],
        "field": {"kind": "gaussian-bump", "sigma1": 0.5},
        "seed": 3,
    }
    cfg = write_cfg(tmp_path, doc)
    assert main(["oracle-compare", "--config", cfg, "--fine-steps", "12"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "rel_l2,0.0"
    assert out[1] == "stage,steps,m,stage_cost"
    assert out[2].startswith("0,12,64,")


def test_oracle_compare_staged_run(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["oracle-compare", "--config", cfg, "--fine-steps", "400"]) == 0
    out = capsys.readouterr().out.splitlines()
    rel = float(out[0].split(",")[1])
    assert rel < 1e-2
    assert len(out) == 2 + 3  # three stage rows


def test_sample_bench_cost_and_oracle_compare_print_one_ledger(tmp_path, capsys):
    # per-step sums and per-stage products of non-integer step costs round
    # differently; every command prints schedule_cost's numbers
    doc = {"preset": "vanilla12", "shape": [8, 8, 1], "seed": 7,
           "field": {"kind": "gaussian-bump", "sigma1": 0.5},
           "cost": {"c_attn": 0.3, "c_lin": 0.7}}
    cfg = write_cfg(tmp_path, doc)
    assert main(["sample", "--config", cfg]) == 0
    sample = dict(kv.split("=") for kv in capsys.readouterr().out.split())
    assert main(["bench-cost", "--config", cfg]) == 0
    tokens = capsys.readouterr().out.splitlines()[2].split(",")
    assert tokens[1] == "tokens"
    assert (sample["total_cost"], sample["speedup"]) == (tokens[6], tokens[8])
    assert main(["oracle-compare", "--config", cfg, "--fine-steps", "12"]) == 0
    rows = capsys.readouterr().out.splitlines()[2:]
    ledger = schedule_cost(config_from_dict(doc)[0].resolve_schedule(),
                           CostModel(c_attn=0.3, c_lin=0.7), n_tokens=64)
    assert rows == [f"{k},{steps},{int(m)},{cost!r}"
                    for k, (steps, m, cost) in enumerate(ledger.per_stage)]
    assert tokens[6] == repr(ledger.total)


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "6/6 checks passed" in out
    assert "FAIL" not in out


def test_error_paths_exit_nonzero(tmp_path, capsys):
    assert main(["sample", "--config", str(tmp_path / "absent.json")]) == 1
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", "utf-8")
    assert main(["sample", "--config", str(bad)]) == 1
    assert "ConfigError" in capsys.readouterr().err
    cfg = write_cfg(tmp_path, {**SMALL, "preset": "warp9"})
    assert main(["sample", "--config", cfg]) == 1
    assert "ScheduleError" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": "abc"},
        {"cost": [1]},
        {"schedule": {"stages": [[7]]}, "preset": None},
        {"schedule": {"stages": []}, "preset": None},
        {"options": {"invert_time": "false"}},
        {"baseline_steps": 0},
        {"baseline_steps": 2.5},
        {"cost": {"c_attn": float("nan")}},
        {"cost": {"c_lin": float("inf")}},
    ],
)
def test_bad_config_values_exit_with_one_error_line(tmp_path, capsys, bad):
    doc = {k: v for k, v in {**SMALL, **bad}.items() if v is not None}
    cfg = write_cfg(tmp_path, doc)
    assert main(["sample", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError: ")


BUMP = {"kind": "gaussian-bump", "sigma1": 0.0}
RAMP = {"kind": "smooth-gradient", "sigma1": 0.0}


@pytest.mark.parametrize(
    "field, message",
    [
        ({**BUMP, "params": {"s": "abc"}}, "ConfigError: config key field.params.s "),
        ({**BUMP, "params": {"s": [1]}}, "ConfigError: config key field.params.s "),
        ({**BUMP, "params": {"s": True}}, "ConfigError: config key field.params.s "),
        ({**BUMP, "params": {"s": float("nan")}}, "ConfigError: config key field.params.s "),
        ({**BUMP, "params": {"s": 0}}, "ParameterError: gaussian-bump width s "),
        ({**BUMP, "params": {"s": -2.5}}, "ParameterError: gaussian-bump width s "),
        ({**RAMP, "params": {"lo": "NaN"}}, "ConfigError: config key field.params.lo "),
        ({**RAMP, "params": {"hi": "NaN"}}, "ConfigError: config key field.params.hi "),
        ({**RAMP, "params": {"hi": float("inf")}}, "ConfigError: config key field.params.hi "),
        # finite but extreme: each would overflow or underflow in numpy
        ({**BUMP, "params": {"s": 1e-300}}, "ParameterError: gaussian-bump width s "),
        ({**RAMP, "params": {"lo": -1e308, "hi": 1e308}},
         "ParameterError: smooth-gradient lo and hi "),
        ({**RAMP, "params": {"hi": 1e39}}, "ParameterError: smooth-gradient lo and hi "),
        ({**BUMP, "sigma1": 1e200}, "ParameterError: sigma1 "),
    ],
    ids=["s-string", "s-list", "s-bool", "s-nan", "s-zero", "s-negative",
         "lo-nan-string", "hi-nan-string", "hi-inf",
         "s-square-underflows", "hi-minus-lo-overflows", "hi-beyond-float32",
         "sigma1-square-overflows"],
)
def test_bad_field_params_exit_with_one_error_line(tmp_path, capsys, field, message):
    doc = {**SMALL, "field": field}
    assert main(["sample", "--config", write_cfg(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: " + message)


def test_collapsed_inverted_warp_exits_naming_its_keys(tmp_path, capsys):
    # the inverted (0.05, 0.42) warp is the swapped (0.42, 0.05) one
    doc = {k: v for k, v in SMALL.items() if k != "preset"}
    doc["schedule"] = {"stages": [[7, 0.35], [4, 0.62], [7, 1.0]],
                       "alpha": 0.42, "beta": 0.05}
    assert main(["schedule", "--config", write_cfg(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ParameterError: ")
    assert all(key in lines[0] for key in ("alpha=0.42", "beta=0.05"))


def test_removed_invert_time_option_exits_with_one_error_line(tmp_path, capsys):
    doc = {k: v for k, v in SMALL.items() if k != "preset"}
    doc["schedule"] = {"stages": [[7, 0.35], [4, 0.62], [7, 1.0]],
                       "alpha": 1.4, "beta": 0.42}
    doc["options"] = {"invert_time": True}
    assert main(["schedule", "--config", write_cfg(tmp_path, doc)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "error: ConfigError: config key options.invert_time was removed")
    assert "swap alpha and beta" in lines[0]


def test_old_options_section_only_warns(tmp_path, capsys):
    old = write_cfg(tmp_path, {**SMALL, "options": {"invert_time": False,
                                                    "snapshot_stride": 2}}, "old.json")
    assert main(["sample", "--config", old]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: unknown config key: options\n"
    assert main(["sample", "--config", write_cfg(tmp_path, SMALL)]) == 0
    assert capsys.readouterr().out == captured.out  # the section changes nothing


def test_overflowing_cost_model_exits_with_one_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**SMALL, "cost": {"c_attn": 1e308}})
    report = tmp_path / "report.json"
    for args in (["sample", "--config", cfg, "--out-report", str(report)],
                 ["bench-cost", "--config", cfg]):
        assert main(args) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(
            "error: ParameterError: cost model overflows float64")
    assert not report.exists()


def test_velocity_beyond_float32_exits_with_one_error_line(tmp_path, capsys):
    # the point-mass field's velocity (mu - x) / (1 - t) outgrows float32 near
    # t = 1; the cast to float32 must not warn before the engine refuses it
    cfg = write_cfg(tmp_path, {**SMALL, "field": {
        "kind": "smooth-gradient", "sigma1": 0.0, "params": {"hi": 3e38}}})
    assert main(["sample", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: FieldContractError: step ")
    assert "non-finite velocities" in lines[0]


@pytest.mark.parametrize(
    "raw, message",
    [
        (json.dumps(SMALL).encode("utf-8").replace(b"jit4x", b"jit\xff4x"), "not UTF-8"),
        (b"[" * 100_000, "nested too deeply"),
        (b'{"seed": ' + b"[" * 100_000, "nested too deeply"),
    ],
    ids=["non-utf8", "nested-document", "nested-value"],
)
def test_unreadable_config_exits_with_one_error_line(tmp_path, capsys, raw, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(raw)
    assert main(["sample", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ConfigError: config ")
    assert message in lines[0]


def test_oversized_shape_exits_with_one_budget_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**SMALL, "shape": [3000000, 3000000, 4]})
    assert main(["sample", "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BudgetError: shape ")


@pytest.mark.parametrize("steps", [10**15, 1e300], ids=["int", "float"])
@pytest.mark.parametrize("command", ["schedule", "sample"])
def test_huge_step_count_exits_with_one_budget_error_line(tmp_path, capsys, command, steps):
    # refused before the warp allocates its steps + 1 timesteps
    doc = {key: value for key, value in SMALL.items() if key != "preset"}
    cfg = write_cfg(tmp_path, {**doc, "schedule": {"stages": [[steps, 1.0]]}})
    assert main([command, "--config", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: BudgetError: schedule has {int(steps)} solver steps")


def test_huge_fine_step_count_exits_with_one_budget_error_line(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["oracle-compare", "--config", cfg, "--fine-steps", str(10**15)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: BudgetError: n_fine_steps ")


@pytest.mark.parametrize("steps, error", [
    (MAX_STEPS + 1, "BudgetError: n_fine_steps "),
    (0, "ParameterError: n_fine_steps "),
])
def test_bad_fine_step_count_is_refused_before_any_field_evaluation(
        tmp_path, capsys, monkeypatch, steps, error):
    calls = []
    evaluate = GaussianFlowField.evaluate

    def counting(self, block, active, t):
        calls.append(t)
        return evaluate(self, block, active, t)

    monkeypatch.setattr(GaussianFlowField, "evaluate", counting)
    cfg = write_cfg(tmp_path, SMALL)
    assert main(["oracle-compare", "--config", cfg, "--fine-steps", str(steps)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and calls == []
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(f"error: {error}")


def test_empty_preset_name_exits_with_one_error_line(capsys):
    assert main(["schedule", "--preset", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ScheduleError: unknown preset ''")


def test_unknown_config_keys_warn_on_stderr(tmp_path, capsys):
    cfg = write_cfg(tmp_path, {**SMALL, "frobnicate": 1})
    assert main(["schedule", "--config", cfg]) == 0
    assert "warning: unknown config key: frobnicate" in capsys.readouterr().err


def test_module_entry_point(tmp_path):
    proc = subprocess.run(
        [sys.executable, *STRICT_WARNINGS, "-m", "jitflow.cli",
         "schedule", "--preset", "vanilla7"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "0,7,1.0"


def test_import_loads_no_scipy():
    # scipy is imported inside the functions that use it, so a run that needs
    # none of them (a dense uniform schedule) never pays for loading it
    proc = subprocess.run(
        [sys.executable, *STRICT_WARNINGS, "-c",
         "import jitflow, sys; assert not any(m.startswith('scipy') for m in sys.modules)"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
