"""File formats: JITG bytes, PGM conventions, config documents, replay tapes."""

import json
import os
import struct
import subprocess
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jitflow.config import MAX_STATE_VALUES, config_from_dict, config_to_dict
from jitflow.errors import BudgetError, ConfigError, DimensionError, EngineError, FormatError
from jitflow.fields import GaussianFlowField, ReplayField, initial_noise, make_target_image
from jitflow import fileio, transition
from jitflow import schedule as schedule_module
from jitflow.fileio import (
    canonical_json,
    load_replay,
    read_config,
    read_grid,
    report_to_dict,
    save_replay,
    write_config,
    write_grid,
    write_metrics_csv,
    write_pgm,
    write_report,
)
from jitflow.grid import TokenGrid, gather, index_set
from jitflow.importance import ImportanceMap, importance_map
from jitflow.sampler import run
from jitflow.schedule import preset_schedule


# ---------------------------------------------------------------------------
# JITG grids


def test_jitg_exact_bytes_for_unit_grid(tmp_path):
    p = tmp_path / "zero.jitg"
    write_grid(p, TokenGrid(1, 1, 1, np.zeros((1, 1), np.float32)))
    raw = p.read_bytes()
    assert raw == b"JITG" + struct.pack("<IIII", 1, 1, 1, 1) + b"\x00" * 4
    assert len(raw) == 24


def test_jitg_roundtrip_bitwise(tmp_path):
    rng = np.random.default_rng(5)
    for h, w, d in [(1, 1, 1), (3, 5, 2), (16, 16, 4)]:
        g = TokenGrid(h, w, d, rng.standard_normal((h * w, d)).astype(np.float32))
        p = tmp_path / f"g{h}x{w}x{d}.jitg"
        write_grid(p, g)
        back = read_grid(p)
        assert back.shape == g.shape
        assert np.array_equal(back.data, g.data)


def grid_bytes():
    g = TokenGrid(2, 2, 1, np.arange(4, dtype=np.float32).reshape(4, 1))
    return b"JITG" + struct.pack("<IIII", 1, 2, 2, 1) + g.data.tobytes()


# (kind, ...) edits applied in turn to the bytes of a valid JITG file
JITG_MUTATIONS = st.one_of(
    # header field: version, h, w or d set to any uint32
    st.tuples(st.just("field"), st.sampled_from([4, 8, 12, 16]), st.integers(0, 2**32 - 1)),
    st.tuples(st.just("truncate"), st.integers(0, 120)),
    st.tuples(st.just("trail"), st.binary(min_size=1, max_size=9)),
    st.tuples(st.just("float"), st.integers(0, 47),
              st.sampled_from([float("nan"), float("inf"), float("-inf")])),
    st.tuples(st.just("byte"), st.integers(0, 120), st.integers(0, 255)),
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 3),
    st.lists(JITG_MUTATIONS, min_size=1, max_size=3),
)
def test_read_grid_fuzz_only_engine_errors_escape(tmp_path_factory, h, w, d, mutations):
    data = np.arange(h * w * d, dtype=np.float32).reshape(h * w, d)
    raw = bytearray(b"JITG" + struct.pack("<IIII", 1, h, w, d) + data.tobytes())
    for kind, *args in mutations:
        if kind == "field":
            raw[args[0]:args[0] + 4] = struct.pack("<I", args[1])
        elif kind == "truncate":
            del raw[args[0]:]
        elif kind == "trail":
            raw += args[0]
        elif kind == "float":
            at = 20 + 4 * (args[0] % (h * w * d))
            raw[at:at + 4] = struct.pack("<f", args[1])
        elif args[0] < len(raw):
            raw[args[0]] = args[1]
    p = tmp_path_factory.getbasetemp() / "fuzz.jitg"
    p.write_bytes(bytes(raw))
    try:
        grid = read_grid(p)
    except EngineError:
        return
    assert grid.data.shape == (grid.h_tok * grid.w_tok, grid.d)
    assert np.all(np.isfinite(grid.data))


@pytest.mark.parametrize(
    "mutate, offset",
    [
        (lambda b: b"WRNG" + b[4:], 0),  # bad magic
        (lambda b: b[:10], 10),  # truncated header
        (lambda b: b[:4] + struct.pack("<I", 9) + b[8:], 4),  # bad version
        (lambda b: b[:-6], 30),  # truncated payload
        (lambda b: b + b"zz", 36),  # trailing bytes
    ],
)
def test_jitg_errors_carry_byte_offsets(tmp_path, mutate, offset):
    p = tmp_path / "bad.jitg"
    p.write_bytes(mutate(grid_bytes()))
    with pytest.raises(FormatError) as err:
        read_grid(p)
    assert err.value.offset == offset
    assert f"byte offset {offset}" in str(err.value)


# ---------------------------------------------------------------------------
# PGM images


def test_pgm_constant_maps_to_mid_gray(tmp_path):
    p = tmp_path / "c.pgm"
    write_pgm(ImportanceMap(3, 3, np.full(9, 4.2)), p)
    raw = p.read_bytes()
    assert raw == b"P5\n3 3\n255\n" + b"\x80" * 9


def test_pgm_min_max_normalization(tmp_path):
    p = tmp_path / "r.pgm"
    write_pgm(ImportanceMap(2, 2, np.array([0.0, 1.0, 2.0, 3.0])), p)
    raw = p.read_bytes()
    assert raw == b"P5\n2 2\n255\n" + bytes([0, 85, 170, 255])


def test_pgm_importance_impulse_is_uniform(tmp_path):
    # a 3x3 impulse of height 9 scores exactly 8 everywhere, so the
    # normalized image is the constant convention value
    data = np.zeros((9, 1), np.float32)
    data[4] = 9.0
    imap = importance_map(TokenGrid(3, 3, 1, data))
    assert np.allclose(imap.scores, 8.0, atol=1e-6)
    p = tmp_path / "imp.pgm"
    write_pgm(imap, p)
    assert p.read_bytes() == b"P5\n3 3\n255\n" + b"\x80" * 9


# ---------------------------------------------------------------------------
# configs


MINIMAL = {
    "preset": "jit4x",
    "shape": [32, 32, 4],
    "field": {"kind": "gaussian-bump"},
    "seed": 7,
}


def test_minimal_config_resolves():
    cfg, warnings = config_from_dict(dict(MINIMAL))
    assert warnings == []
    assert cfg.seed == 7 and cfg.shape == (32, 32, 4)
    assert cfg.sigma1 == 0.0 and cfg.baseline_steps == 50
    schedule = cfg.resolve_schedule()
    assert schedule.nfe == 18
    assert isinstance(cfg.resolve_field(), GaussianFlowField)
    assert cfg.resolve_cost_model() is None


def test_missing_required_keys_are_named():
    doc = dict(MINIMAL)
    del doc["seed"]
    with pytest.raises(ConfigError, match="seed"):
        config_from_dict(doc)
    doc = dict(MINIMAL)
    del doc["field"]
    with pytest.raises(ConfigError, match="field"):
        config_from_dict(doc)
    with pytest.raises(ConfigError, match="shape"):
        config_from_dict({"preset": "jit4x", "field": {"kind": "x"}, "seed": 1})


def test_exactly_one_schedule_source():
    doc = dict(MINIMAL)
    doc["schedule"] = {"stages": [[18, 1.0]]}
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(doc)
    doc = dict(MINIMAL)
    del doc["preset"]
    with pytest.raises(ConfigError, match="exactly one"):
        config_from_dict(doc)


def test_unknown_keys_become_warnings():
    doc = dict(MINIMAL)
    doc["frobnicate"] = 1
    doc["field"] = {"kind": "gaussian-bump", "sgima1": 0.5}
    doc["options"] = {"snapshot_stride": 2, "invert_time": False}  # a removed section
    doc["cost"] = {"c_lin": 1.0, "c_quad": 2.0}
    cfg, warnings = config_from_dict(doc)
    assert sorted(warnings) == [
        "unknown config key: frobnicate",
        "unknown config key: options",
        "unknown cost key: c_quad",
        "unknown field key: sgima1",
    ]
    assert cfg.cost == {"c_lin": 1.0}  # the misspelled key is dropped, not kept


def test_inline_schedule_matches_preset():
    doc = {
        "schedule": {"stages": [[7, 0.35], [4, 0.62], [7, 1.0]],
                     "alpha": 1.4, "beta": 0.42},
        "shape": [16, 16, 3],
        "field": {"kind": "checkerboard", "sigma1": 1.0},
        "seed": 3,
    }
    cfg, warnings = config_from_dict(doc)
    assert warnings == []
    inline = cfg.resolve_schedule()
    preset = preset_schedule("jit4x")
    assert np.array_equal(inline.timesteps, preset.timesteps)
    assert inline.transition_steps == preset.transition_steps


def test_config_roundtrip_file(tmp_path):
    cfg, _ = config_from_dict(dict(MINIMAL))
    p = tmp_path / "cfg.json"
    write_config(p, cfg)
    back, warnings = read_config(p)
    assert warnings == []
    assert back == cfg
    # canonical emit is stable under a second parse -> emit cycle
    assert config_to_dict(back) == config_to_dict(cfg)
    before = p.read_bytes()
    write_config(p, back)
    assert p.read_bytes() == before


def test_readme_config_schema_matches_the_parser():
    # the README's schema block is a second copy of _SCALARS' keys: it must
    # parse without warnings and be emitted back unchanged
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text("utf-8")
    section = readme[readme.index("### Config schema"):]
    block = section[section.index("```json\n") + len("```json\n"):]
    doc = json.loads(block[:block.index("```")])
    cfg, warnings = config_from_dict(doc)
    assert warnings == []
    assert config_to_dict(cfg) == doc


def test_config_rejects_malformed_json(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json", "utf-8")
    with pytest.raises(ConfigError, match="JSON"):
        read_config(p)
    with pytest.raises(ConfigError, match="object"):
        config_from_dict(["nope"])


@pytest.mark.parametrize(
    "key, value, named",
    [
        ("seed", "abc", "seed"),
        ("seed", None, "seed"),
        ("shape", ["a", 4, 4], "shape"),
        ("field", {"kind": "gaussian-bump", "sigma1": "x"}, "field.sigma1"),
        ("field", {"kind": "gaussian-bump", "params": [1]}, "field.params"),
        ("cost", [1], "cost"),
        ("cost", {"c_lin": "fast"}, "cost.c_lin"),
        ("options", {"invert_time": True}, "options"),
        ("field", {"kind": "gaussian-bump", "params": {"s": "x"}}, "field.params.s"),
        ("baseline_steps", "many", "baseline_steps"),
        ("preset", ["jit4x"], "preset"),
        ("seed", 3.7, "seed"),
        ("shape", [8.9, 8, 4], "shape"),
        ("shape", [8, 8, True], "shape"),
        ("options", {"invert_time": "false"}, "options.invert_time"),
        ("field", {"kind": "gaussian-bump", "sigma1": True}, "field.sigma1"),
        # JSON NaN and Infinity parse as floats; a report would echo them as invalid JSON
        ("cost", {"c_attn": float("nan")}, "cost.c_attn"),
        ("cost", {"c_lin": float("inf")}, "cost.c_lin"),
        ("field", {"kind": "gaussian-bump", "sigma1": -float("inf")}, "field.sigma1"),
        ("cost", {"c_fix": 10**400}, "cost.c_fix"),
    ],
)
def test_config_type_errors_are_config_errors(key, value, named):
    with pytest.raises(ConfigError, match=named):
        config_from_dict({**MINIMAL, key: value})


def test_config_whole_number_float_is_an_integer():
    cfg, _ = config_from_dict({**MINIMAL, "seed": 7.0})
    assert cfg.seed == 7 and type(cfg.seed) is int


@pytest.mark.parametrize(
    "key, value, message",
    [
        ("baseline_steps", 0, "baseline_steps must be >= 1, got 0"),
        ("baseline_steps", -5, "baseline_steps must be >= 1, got -5"),
        ("shape", [8, 8, 0], "shape entries must be >= 1"),
        ("shape", [0, 8, 4], "shape entries must be >= 1"),
        ("shape", [8, -2, 4], "shape entries must be >= 1"),
    ],
)
def test_config_values_below_minimum_are_config_errors(key, value, message):
    with pytest.raises(ConfigError, match=message):
        config_from_dict({**MINIMAL, key: value})


def test_config_minimum_values_are_accepted():
    cfg, _ = config_from_dict({**MINIMAL, "baseline_steps": 1, "shape": [1, 1, 1]})
    assert cfg.baseline_steps == 1 and cfg.shape == (1, 1, 1)


def test_config_shape_over_the_state_budget_is_a_budget_error():
    with pytest.raises(BudgetError, match="shape"):
        config_from_dict({**MINIMAL, "shape": [3000000, 3000000, 4]})
    with pytest.raises(BudgetError, match="shape"):
        config_from_dict({**MINIMAL, "shape": [MAX_STATE_VALUES + 1, 1, 1]})
    cfg, _ = config_from_dict({**MINIMAL, "shape": [MAX_STATE_VALUES, 1, 1]})
    assert cfg.shape == (MAX_STATE_VALUES, 1, 1)


@pytest.mark.parametrize("d, bytes_per_value", [(4, 70), (1, 130)])
def test_cold_run_memory_per_state_value_bounds_the_cap(d, bytes_per_value):
    # a jit4x run that builds its field, its dither key and its sampling
    # plan inside the trace peaks at a fixed number of bytes per state value
    # (the peak grows linearly with the grid: the same figure at 256^2 and
    # 1024^2), so at MAX_STATE_VALUES it stays under 294 MB with d = 4 and
    # 546 MB with d = 1
    side = 256
    shape = (side, side, d)
    run(preset_schedule("jit4x"), GaussianFlowField(make_target_image("gaussian-bump", (8, 8, d)),
                                                   0.5), (8, 8, d), 0)  # imports, outside
    transition.sampling_plan.cache_clear()
    schedule_module.dither_key.cache_clear()
    tracemalloc.start()
    try:
        field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
        run(preset_schedule("jit4x"), field, shape, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bytes_per_value * side * side * d
    assert bytes_per_value * MAX_STATE_VALUES <= {4: 294, 1: 546}[d] * 10**6


@pytest.mark.parametrize(
    "stages", [[[7]], [7, 0.35], "7,0.35", [[7, "x"]], [["x", 0.35]], {"7": 0.35}]
)
def test_config_bad_stages_are_config_errors(stages):
    doc = {k: v for k, v in MINIMAL.items() if k != "preset"}
    doc["schedule"] = {"stages": stages}
    with pytest.raises(ConfigError, match="schedule.stages"):
        config_from_dict(doc)
    doc["schedule"] = {"stages": [[18, 1.0]], "alpha": "x"}
    with pytest.raises(ConfigError, match="schedule.alpha"):
        config_from_dict(doc)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=6,
)
CONFIG_PATHS = [
    ("seed",), ("shape",), ("field",), ("field", "kind"), ("field", "params"),
    ("field", "sigma1"), ("preset",), ("schedule",), ("schedule", "stages"),
    ("schedule", "alpha"), ("schedule", "beta"), ("options",),
    ("options", "invert_time"), ("cost",),
    ("cost", "c_attn"), ("baseline_steps",),
]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(CONFIG_PATHS), JSON_VALUES, st.booleans())
def test_config_fuzz_only_config_errors_escape(path, value, inline_schedule):
    doc = json.loads(json.dumps(MINIMAL))
    doc["cost"] = {"c_lin": 1.0}
    if inline_schedule:
        del doc["preset"]
        doc["schedule"] = {"stages": [[18, 1.0]]}
    if len(path) == 2:
        doc.setdefault(path[0], {})[path[1]] = value
    else:
        doc[path[0]] = value
    try:
        config_from_dict(doc)
    except (ConfigError, BudgetError):
        pass


# ---------------------------------------------------------------------------
# reports, metrics, replay tapes


def small_report():
    shape = (8, 8, 2)
    field = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5)
    return run(preset_schedule("jit4x"), field, shape, seed=3)


def test_report_and_metrics_deterministic(tmp_path):
    report = small_report()
    r1, r2 = tmp_path / "a.json", tmp_path / "b.json"
    write_report(r1, report)
    write_report(r2, report)
    assert r1.read_bytes() == r2.read_bytes()
    doc = json.loads(r1.read_text())
    assert doc["nfe"] == 18
    assert len(doc["steps"]) == 18
    assert len(doc["transitions"]) == 2
    assert doc["speedup_vs_baseline"] == report.speedup_vs_baseline  # repr-exact
    m = tmp_path / "m.csv"
    write_metrics_csv(m, report)
    lines = m.read_text().splitlines()
    assert lines[0] == "step,t,stage,m,cost"
    assert len(lines) == 19
    # float cells parse back to the exact binary values
    for line, step in zip(lines[1:], report.steps):
        cells = line.split(",")
        assert float(cells[1]) == step.t and float(cells[4]) == step.cost


def test_report_to_dict_leaves_the_report_unchanged():
    report = small_report()
    tr = report.transitions[0]
    assert tr.anchor_distance.scores.dtype == np.float64
    arrays = [tr.anchor_distance.scores, tr.target_values.values, report.endpoint.data]
    before = [a.tobytes() for a in arrays]
    first = report_to_dict(report)
    assert [a.tobytes() for a in arrays] == before
    assert report_to_dict(report) == first


def test_canonical_json_is_sorted_and_newline_terminated():
    s = canonical_json({"b": 1, "a": [1.5, 2]})
    assert s.index('"a"') < s.index('"b"')
    assert s.endswith("\n")
    assert json.loads(s) == {"b": 1, "a": [1.5, 2]}


# strings built from the characters the one-line list path must not misread
JSON_TEXT = st.text(st.sampled_from(list(', []{}"\\/\x00\x1f\té\u2028\U0001f600ab')), max_size=6)
JSON_TREES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | JSON_TEXT | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=25,
)


@settings(max_examples=500, deadline=None)
@given(JSON_TREES)
@example(["a, b", 1])
@example([1, "a, b"])
@example(["[", 2])
@example([1, "{"])
@example(["}", "]"])
@example(['say "hi"', "back\\slash"])
@example(["é", "\u2028", "\U0001f600"])
@example(["\x00", "\x1f", "\n"])
@example([1, True, 2])
@example([[1]])
@example([{}])
@example([[]])
@example([1, [2, 3], {"a": [4, 5]}])
@example({})
@example(float("nan"))
@example(float("-inf"))
@example([float("nan"), float("inf"), -0.0])
@example(-0.0)
@example(1e300)
@example(np.float64(0.1))
@example([np.float64(0.1), 2])
@example({"x": (1, 2), "y": np.float64(-0.0)})
def test_canonical_json_is_json_dumps_text(doc):
    assert canonical_json(doc) == json.dumps(doc, sort_keys=True, indent=2) + "\n"


def test_replay_tape_roundtrip(tmp_path):
    shape = (6, 5, 3)
    inner = GaussianFlowField(make_target_image("gaussian-bump", shape), 0.7)
    rec = ReplayField(inner)
    grid = initial_noise(shape, seed=4)
    sets = [index_set(30, [0, 3, 9]), index_set(30, [1, 2, 4, 5])]
    outs = [rec.evaluate(gather(grid, a), a, t) for a, t in zip(sets, (0.25, 0.5))]
    save_replay(rec, tmp_path / "tape")
    loaded = load_replay(tmp_path / "tape")
    for a, t, want in zip(sets, (0.25, 0.5), outs):
        got = loaded.evaluate(gather(grid, a), a, t)
        assert np.array_equal(got.values, want.values)
    # a tape is exactly two files, both byte-deterministic
    save_replay(rec, tmp_path / "tape2")
    names = ["manifest.json", "values.jitg"]
    assert sorted(p.name for p in (tmp_path / "tape").iterdir()) == names
    for name in names:
        assert (tmp_path / "tape" / name).read_bytes() == (tmp_path / "tape2" / name).read_bytes()
    with pytest.raises(FormatError):
        (tmp_path / "tape" / "manifest.json").write_text("{oops", "utf-8")
        load_replay(tmp_path / "tape")


def replay_tape(tmp_path, times=(0.5,)):
    """A saved tape of one active set, [1, 5, 9] of a 4x4 grid, at the given times."""
    shape = (4, 4, 2)
    rec = ReplayField(GaussianFlowField(make_target_image("checkerboard", shape), 0.5))
    active = index_set(16, [1, 5, 9])
    for t in times:
        rec.evaluate(gather(initial_noise(shape, seed=2), active), active, t)
    save_replay(rec, tmp_path)
    return tmp_path / "manifest.json"


def test_staged_run_tape_lists_each_active_set_once(tmp_path):
    shape = (16, 16, 2)
    sched = preset_schedule("jit7x")
    rec = ReplayField(GaussianFlowField(make_target_image("gaussian-bump", shape), 0.5))
    report = run(sched, rec, shape, seed=5)
    save_replay(rec, tmp_path / "a")
    save_replay(rec, tmp_path / "b")
    for name in ("manifest.json", "values.jitg"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    sets = json.loads((tmp_path / "a" / "manifest.json").read_text("utf-8"))["sets"]
    # one set per stage, in stage order, with the ascending times of its steps
    assert [len(s["t"]) for s in sets] == [4, 3, 4]
    for k, s in enumerate(sets):
        steps = [step for step in report.steps if step.stage == k]
        assert s["t"] == sorted(step.t for step in steps)
        assert len(s["indices"]) == steps[0].m
    replayed = run(sched, load_replay(tmp_path / "a", strict=True), shape, seed=5)
    assert replayed.endpoint.data.tobytes() == report.endpoint.data.tobytes()
    assert canonical_json(report_to_dict(replayed)) == canonical_json(report_to_dict(report))


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda s: s[0].pop("indices"), "lacks indices"),
        (lambda s: s[0].pop("t"), "lacks t"),
        (lambda s: s[0].update(t=["late"]), "t must be a number"),
        pytest.param(lambda s: s[0].update(t=[float("nan")]), "t must be a number", id="t-nan"),
        pytest.param(lambda s: s[0].update(t=[float("inf")]), r"t\[0\] is not", id="t-inf"),
        pytest.param(lambda s: s[0].update(t=[0.25, True]), r"t\[1\] is not", id="t-bool"),
        pytest.param(lambda s: s[0].update(t=[]), "t must be a non-empty list", id="t-empty"),
        pytest.param(lambda s: s[0].update(t=0.5), "t must be a non-empty list", id="t-not-list"),
        (lambda s: s[0].update(indices=[1, "x", 9]), "indices"),
        (lambda s: s[0].update(indices=[1, 5]), "holds 3 tokens"),
        pytest.param(lambda s: s[0].update(indices=[1, 5, 9, 12]),
                     "values.jitg holds 3 tokens, manifest lists 4", id="rows-4"),
        pytest.param(lambda s: s[0].update(t=[0.5, 0.25]),
                     "values.jitg holds 3 tokens, manifest lists 6", id="rows-two-times"),
        # cases a vectorized check can pass: numpy turns a bool into int64,
        # and 2**63 overflows int64
        (lambda s: s[0].update(indices=[1, True, 9]), "indices must be a list of token indices"),
        (lambda s: s[0].update(indices=[1.0, 5, 9]), "indices must be a list of token indices"),
        (lambda s: s[0].update(indices=[-1, 5, 9]), "indices must be a list of token indices"),
        (lambda s: s[0].update(indices=[2**63, 5, 9]), "indices must be a list of token indices"),
        (lambda s: s[0].update(indices=[[1], 5, 9]), "indices must be a list of token indices"),
        (lambda s: s[0].update(indices="159"), "indices must be a list of token indices"),
        pytest.param(lambda s: s.append(dict(s[0])), r"replay set 1 t\[0\] repeats set 0 t\[0\]",
                     id="repeated-entry"),
        pytest.param(lambda s: s[0].update(t=[0.5, 0.25, 0.5]),
                     r"replay set 0 t\[2\] repeats set 0 t\[0\]", id="repeated-time"),
        pytest.param(lambda s: s.append({"indices": [1, 5, 9], "t": [0.25, 0.5]}),
                     r"replay set 1 t\[1\] repeats set 0 t\[0\]", id="repeated-across-sets"),
    ],
)
def test_replay_manifest_entry_errors(tmp_path, edit, message):
    manifest = replay_tape(tmp_path)
    doc = json.loads(manifest.read_text("utf-8"))
    edit(doc["sets"])
    manifest.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(FormatError, match=message):
        load_replay(tmp_path)


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda raw: raw[:-3],  # truncated payload
        lambda raw: raw[:-4] + struct.pack("<f", float("nan")),  # NaN value
    ],
    ids=["truncated", "nan"],
)
def test_replay_corrupt_block_names_its_entry(tmp_path, corrupt):
    replay_tape(tmp_path)
    values = tmp_path / "values.jitg"
    values.write_bytes(corrupt(values.read_bytes()))
    with pytest.raises(FormatError, match="replay tape: cannot read 'values.jitg'"):
        load_replay(tmp_path)


OLD_LAYOUT = "older one-entry-per-step 'entries' layout; re-record the tape"


def test_replay_tape_of_the_block_per_entry_layout_is_refused(tmp_path):
    manifest = replay_tape(tmp_path)
    (tmp_path / "values.jitg").rename(tmp_path / "block_0000.jitg")
    doc = {"entries": [{"file": "block_0000.jitg", "indices": [1, 5, 9], "t": 0.5}]}
    manifest.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(FormatError, match=OLD_LAYOUT):
        load_replay(tmp_path)


def test_replay_tape_of_the_per_step_entries_layout_is_refused(tmp_path):
    manifest = replay_tape(tmp_path, times=(0.25, 0.5))
    # the same tape as one entry per step, next to the same values
    doc = {"entries": [{"indices": [1, 5, 9], "t": t} for t in (0.25, 0.5)]}
    manifest.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(FormatError, match=OLD_LAYOUT):
        load_replay(tmp_path)


def one_entry_tape(indices, t, value):
    field = ReplayField()
    key = (np.array(indices, np.int64).tobytes(), t)
    field.tape[key] = np.full((len(indices), 1), value, np.float32)
    return field


def test_interrupted_replay_save_leaves_a_refused_tape(tmp_path, monkeypatch):
    save_replay(one_entry_tape([0, 1], 0.5, 1.0), tmp_path)
    atomic_write = fileio._atomic_write

    def fail_at_manifest(path, payload):
        if Path(path).name == "manifest.json":
            raise OSError("interrupted")
        atomic_write(path, payload)

    monkeypatch.setattr(fileio, "_atomic_write", fail_at_manifest)
    with pytest.raises(OSError, match="interrupted"):
        save_replay(one_entry_tape([2, 3], 0.25, 2.0), tmp_path)
    # the new values must not load under the old manifest's (indices, t) key
    with pytest.raises(FormatError):
        load_replay(tmp_path)


def test_replay_save_refusing_non_finite_values_keeps_the_saved_tape(tmp_path):
    save_replay(one_entry_tape([0, 1], 0.5, 1.0), tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    with pytest.raises(DimensionError, match="NaN or Inf"):
        save_replay(one_entry_tape([2, 3], 0.25, np.nan), tmp_path)
    # refused before the saved tape is touched, so it still loads
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before
    assert list(load_replay(tmp_path).tape) == [(np.array([0, 1], np.int64).tobytes(), 0.5)]


def test_replay_save_refuses_mixed_channel_counts(tmp_path):
    field = one_entry_tape([0, 1], 0.5, 1.0)
    save_replay(field, tmp_path)
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    field.tape[(np.array([2], np.int64).tobytes(), 0.5)] = np.zeros((1, 3), np.float32)
    with pytest.raises(DimensionError, match=r"mixes channel counts \[1, 3\]"):
        save_replay(field, tmp_path)
    # refused before the saved tape is touched
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


def test_saving_an_empty_tape_removes_the_old_values_file(tmp_path):
    save_replay(one_entry_tape([0, 1], 0.5, 1.0), tmp_path)
    save_replay(ReplayField(), tmp_path)
    assert [p.name for p in tmp_path.iterdir()] == ["manifest.json"]
    assert load_replay(tmp_path).tape == {}


@pytest.mark.parametrize("doc", [[], {}, {"sets": {}}, {"sets": [7]}])
def test_replay_manifest_shape_errors(tmp_path, doc):
    manifest = replay_tape(tmp_path)
    manifest.write_text(json.dumps(doc), "utf-8")
    with pytest.raises(FormatError):
        load_replay(tmp_path)


# (kind, ...) edits applied in turn to a valid replay directory
TIMES = st.sampled_from([10**400, -(10**400), 1e308, 0.25, 0.5, True, float("nan")])
REPLAY_EDITS = st.one_of(
    st.tuples(st.just("set"), st.sampled_from(["indices", "t"]), JSON_VALUES),
    st.tuples(st.just("sets"), JSON_VALUES),
    st.tuples(st.just("doc"), JSON_VALUES),
    st.tuples(st.just("indices"), st.lists(st.integers(-2, 2**64), max_size=4)),
    st.tuples(st.just("times"), st.lists(TIMES | JSON_VALUES, max_size=3)),
    # t[position] = value, or an appended time when the list is shorter
    st.tuples(st.just("t"), st.integers(0, 2), TIMES),
    st.tuples(st.just("copy-set"), st.booleans()),
    st.tuples(st.just("bytes"), st.integers(0, 200), st.binary(min_size=1, max_size=6)),
    st.tuples(st.just("nest"), st.sampled_from([b"[", b'{"sets": [', b'{"sets": [{"t": ['])),
    st.tuples(st.just("path"), st.sampled_from(["manifest.json", "values.jitg"]),
              st.sampled_from(["delete", "dir", "garbage"])),
)


def _edit_replay(tape, kind, *args):
    manifest = tape / "manifest.json"
    if kind == "path":
        target = tape / args[0]
        if target.is_dir():
            target.rmdir()
        elif target.exists():
            target.unlink()
        if args[1] == "dir":
            target.mkdir()
        elif args[1] == "garbage":
            target.write_bytes(b"\xff\xfe not a grid")
        return
    if not manifest.is_file():
        return
    raw = manifest.read_bytes()
    if kind == "bytes":
        manifest.write_bytes(raw[:args[0]] + args[1] + raw[args[0] + len(args[1]):])
        return
    if kind == "nest":
        manifest.write_bytes(args[0] * 100_000)
        return
    try:
        doc = json.loads(raw.decode("utf-8"))
    except (ValueError, RecursionError):
        return
    sets = doc.get("sets") if isinstance(doc, dict) else None
    first = sets[0] if isinstance(sets, list) and sets else None
    times = first.get("t") if isinstance(first, dict) else None
    if kind == "doc":
        doc = args[0]
    elif kind == "sets" and isinstance(doc, dict):
        doc["sets"] = args[0]
    elif kind == "copy-set" and first is not None:
        # a second copy of the first set: a repeat, or with its times shifted
        sets.append(first if args[0] else {**first, "t": [0.75]})
    elif kind == "t" and isinstance(times, list):
        if args[0] < len(times):
            times[args[0]] = args[1]
        else:
            times.append(args[1])
    elif kind == "set" and isinstance(first, dict):
        first[args[0]] = args[1]
    elif kind in ("indices", "times") and isinstance(first, dict):
        first["indices" if kind == "indices" else "t"] = args[0]
    manifest.write_text(json.dumps(doc), "utf-8")


@settings(max_examples=300, deadline=None)
@given(st.lists(REPLAY_EDITS, min_size=1, max_size=3))
@example([("path", "manifest.json", "delete")])
@example([("path", "manifest.json", "dir")])
@example([("path", "values.jitg", "delete")])
@example([("sets", [])])
@example([("times", [])])
@example([("copy-set", True)])
@example([("copy-set", False)])
@example([("bytes", 0, b"\xff")])
@example([("nest", b"[")])
@example([("t", 0, 10**400)])
@example([("t", 2, 0.25)])
def test_load_replay_fuzz_only_engine_errors_escape(tmp_path_factory, edits):
    tape = tmp_path_factory.mktemp("tape")
    replay_tape(tape, times=(0.25, 0.5))
    for edit in edits:
        _edit_replay(tape, *edit)
    try:
        field = load_replay(tape)
    except EngineError:
        return
    assert isinstance(field, ReplayField)


# ---------------------------------------------------------------------------
# atomic writes


def test_concurrent_writers_to_one_path(tmp_path):
    # with one shared temp name, a writer could rename another's half-written
    # file into place, or find its own temp file already renamed away
    target = tmp_path / "out.bin"
    payloads = [bytes([tag]) * (1 << 20) for tag in (1, 2, 3, 4)]
    start = threading.Barrier(len(payloads))
    errors = []

    def writer(payload):
        start.wait(timeout=30)
        try:
            for _ in range(30):
                fileio._atomic_write(target, payload)
        except Exception as exc:  # a thread's exception is lost unless kept
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_bytes() in payloads  # one whole payload, never a mix
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]  # no temp files left


def test_atomic_write_gets_umask_without_touching_it(tmp_path):
    # changing the umask and back, even briefly, would give a file another
    # thread creates in that window no umask; the kernel applies it instead
    script = (
        "import os, sys\n"
        "os.umask(0o027)\n"
        "def refuse(mask):\n"
        "    raise AssertionError('os.umask called')\n"
        "os.umask = refuse\n"
        "from jitflow import fileio\n"
        "fileio._atomic_write(sys.argv[1], b'abc')\n"
    )
    target = tmp_path / "out.bin"
    proc = subprocess.run([sys.executable, "-c", script, str(target)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert target.stat().st_mode & 0o777 == 0o640


def test_atomic_write_mode_and_cleanup_on_failure(tmp_path, monkeypatch):
    target = tmp_path / "out.bin"
    fileio._atomic_write(target, b"abc")
    mask = os.umask(0)
    os.umask(mask)
    assert target.stat().st_mode & 0o777 == 0o666 & ~mask

    def broken_replace(src, dst):
        raise OSError("disk went away")

    monkeypatch.setattr(fileio.os, "replace", broken_replace)
    with pytest.raises(OSError, match="disk went away"):
        fileio._atomic_write(target, b"xyz")
    assert target.read_bytes() == b"abc"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
