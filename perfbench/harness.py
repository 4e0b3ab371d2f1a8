"""Measurement loops, metrics and the result line.

One process, one client, closed loop: each unit starts after the previous
one finished.  The untraced run times units for the whole budget and reports
the end-to-end metrics.  The traced run times units untraced for half the
budget, then with every jitflow layer wrapped (see tracing.py) for the
other half, and reports per-layer sums per unit (the median over units),
one tracemalloc'd unit and the measured against the modeled speedup.
"""

from __future__ import annotations

import json
import resource
import shutil
import statistics
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

from jitflow import fields, grid, rng

import workloads
from attention import AttentionField
from tracing import Tracer

SPEC_PATH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
SETUP_REPEATS = 3
SPEEDUP_PAIRS = 3  # alternating preset / vanilla50 runs for cost.speedup_measured

# span name -> per-layer metric, for metrics that are plain sums of span time
TOTAL_MS = {
    "interp.nearest_fill": "interp.nearest_fill_ms",
    "interp.gaussian_blur": "interp.gaussian_blur_ms",
    "importance.importance_map": "importance.importance_map_ms",
    "importance.top_tokens": "importance.top_tokens_ms",
    "transition.dmf_target": "transition.dmf_target_ms",
    "schedule.initial_selector": "schedule.initial_selector_ms",
    "rng.choose": "rng.choose_ms",
    "rng.normal": "rng.normal_ms",
    "fields.initial_noise": "fields.initial_noise_ms",
    "grid.tokengrid_build": "grid.tokengrid_build_ms",
    "grid.gather": "grid.gather_ms",
    "grid.embed": "grid.embed_ms",
    "sampler.euler_step": "sampler.euler_step_ms",
    "fields.evaluate": "fields.evaluate_ms",
    "fileio.save_replay": "fileio.save_replay_ms",
    "fileio.load_replay": "fileio.load_replay_ms",
    "fileio.read_grid": "fileio.read_grid_ms",
    "fileio.read_config": "fileio.read_config_ms",
}
SELF_MS = {
    "interp.lift": "interp.lift_self_ms",
    "transition.apply_transition": "transition.apply_transition_self_ms",
    "sampler.run": "sampler.run_self_ms",
    "sampler.sag_velocity": "sampler.sag_velocity_self_ms",
}
WRITERS = ("fileio.write_report", "fileio.write_metrics_csv", "fileio.write_grid")


def _owner_note(args: dict) -> dict:
    """nearest_fill's active set and the N x m int64 distance matrix it builds."""
    active = args["active"]
    h, w, _ = args["shape"]
    return {"set": hash(active.indices.tobytes()), "owner_bytes": h * w * len(active) * 8}


def _tokens_note(args: dict) -> dict:
    return {"m": args["block"].m}


NOTES = {"interp.nearest_fill": _owner_note, "fields.evaluate": _tokens_note}


def _report(kind: str, values: dict) -> dict:
    """The metrics of BENCHMARK.json's `kind` list, each with its unit."""
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in spec}


def tail(values: list) -> tuple[float, float, int]:
    """(value, percentile, n) of the highest percentile with >= 10 samples above it.

    With fewer than 11 samples no such percentile exists; the maximum is
    reported as the 100th percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0, n
    k = n - 11  # exactly 10 samples lie above ordered[k]
    return ordered[k], 100.0 * (k + 1) / n, n


@dataclass
class Timed:
    """What a timed loop measured: unit times, held outcomes, wall time."""

    ms: list = field(default_factory=list)
    model_tokens: list = field(default_factory=list)
    kept: list = field(default_factory=list)
    wall_s: float = 0.0


class Invocation:
    """One benchmark invocation: a workload, its seed and its scratch dir."""

    def __init__(self, name: str, seed: int, root: Path, tiny: bool = False):
        self.name, self.tiny = name, tiny
        self.workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=root))
        self.seeds = workloads.run_seeds(seed, 20_000)
        self.next_seed = SETUP_REPEATS  # seeds[:SETUP_REPEATS] are warm-up runs
        self.attempted = self.failed = 0
        self.problems: list[str] = []

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)

    def set_up(self) -> float:
        """Build inputs and warm up SETUP_REPEATS times; median seconds."""
        times = []
        for i in range(SETUP_REPEATS):
            start = time.perf_counter()
            wl = workloads.build(self.name, self.tiny)
            wl.setup(self.workdir)
            wl.unit(self.seeds[i])
            times.append(time.perf_counter() - start)
        self.wl = wl
        return statistics.median(times)

    def _check(self, outcome) -> None:
        self.attempted += 1
        if outcome.problems:
            self.failed += 1
            self.problems += outcome.problems

    def timed_units(self, seconds: float, keep: int = 1, on_unit=None) -> Timed:
        """Run units until `seconds` have passed.

        Only the first `keep` outcomes are held; later ones are dropped at
        once so that held endpoints do not grow the peak RSS with the unit
        count.  `on_unit(i)` is called before unit i starts.
        """
        timed = Timed()
        start = time.perf_counter()
        deadline = start + seconds
        while True:
            run_seed = self.seeds[self.next_seed]
            self.next_seed += 1
            if on_unit is not None:
                on_unit(len(timed.ms))
            t0 = time.perf_counter()
            outcome = self.wl.unit(run_seed)
            t1 = time.perf_counter()
            timed.ms.append((t1 - t0) * 1e3)
            timed.model_tokens.append(outcome.model_tokens)
            self._check(outcome)
            if len(timed.kept) < keep:
                timed.kept.append(outcome)
            if t1 >= deadline:
                timed.wall_s = t1 - start
                return timed

    def check_repeat(self, first_seed: int, first) -> None:
        """Re-run the first timed seed, untimed: one more attempted unit, whose
        report and endpoint must repeat the first one's byte for byte."""
        again = self.wl.unit(first_seed)
        if again.digest != first.digest:
            again.problems.append(f"run seed {first_seed} did not repeat byte for byte")
        self._check(again)

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": metrics,
        }


def untraced(inv: Invocation, seconds: float, import_s: float) -> tuple[dict, list]:
    """End-to-end metrics and notes from units timed for `seconds`."""
    setup_s = import_s + inv.set_up()
    wl = inv.wl
    quality_seeds = inv.seeds[inv.next_seed:inv.next_seed + wl.quality_runs]
    timed = inv.timed_units(seconds, keep=wl.quality_runs)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    outcomes = timed.kept
    inv.check_repeat(quality_seeds[0], outcomes[0])
    while len(outcomes) < wl.quality_runs:  # short budgets: finish the pool untimed
        outcomes.append(wl.unit(quality_seeds[len(outcomes)]))
    tail_ms, tail_pct, n = tail(timed.ms)
    values = {
        "samples_per_s": len(timed.ms) / timed.wall_s,
        "run_ms.p50": statistics.median(timed.ms),
        "run_ms.tail": tail_ms,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": setup_s,
        "endpoint_w2": wl.quality(outcomes, quality_seeds),
        "ok_ratio": 1.0 - inv.failed / inv.attempted,
    }
    notes = [f"run_ms.tail is p{tail_pct:.1f} of {n} samples",
             f"failed_ratio {inv.failed}/{inv.attempted}"]
    return _report("end_to_end", values), notes


def _ms(ns: int) -> float:
    return ns / 1e6


def _layer_values(inv: Invocation, tracer: Tracer, model_tokens: list) -> list[dict]:
    """Per-layer metric values of each traced unit."""
    per_unit = []
    for run_id, spans in sorted(tracer.per_run().items()):
        v = {metric: _ms(spans.total_ns[name]) for name, metric in TOTAL_MS.items()}
        v.update({metric: _ms(spans.self_ns[name]) for name, metric in SELF_MS.items()})
        owners = spans.attrs["interp.nearest_fill"]
        calls = len(owners)
        v["interp.nearest_fill_calls"] = calls
        v["interp.owner_reuse_ratio"] = len({o["set"] for o in owners}) / calls if calls else 0.0
        v["interp.owner_bytes"] = sum(o["owner_bytes"] for o in owners)
        v["rng.draws"] = spans.counts["rng.draws"]
        v["grid.tokengrid_builds"] = spans.calls["grid.tokengrid_build"]
        v["fields.evaluate_calls"] = spans.calls["fields.evaluate"]
        v["fields.tokens_evaluated"] = sum(a["m"] for a in spans.attrs["fields.evaluate"])
        # writes made by the job itself; save_replay's block writes count there
        v["fileio.write_ms"] = _ms(sum(spans.total_ns[w] for w in WRITERS)
                                   - spans.nested_ns[("fileio.save_replay", "fileio.write_grid")])
        replays = spans.calls["fields.replay_evaluate"]
        misses = spans.nested_calls[("fields.replay_evaluate", "fields.evaluate")]
        v["fields.replay_hit_ratio"] = (replays - misses) / replays if replays else 0.0
        v["fileio.bytes_written"] = inv.wl.bytes_written()
        if v["fields.tokens_evaluated"] != model_tokens[run_id]:
            inv.failed += 1
            inv.problems.append(
                f"fields.tokens_evaluated {v['fields.tokens_evaluated']} != "
                f"cost-model token count {model_tokens[run_id]}")
        per_unit.append(v)
    return per_unit


def _speedup_measured(wl, run_seeds: list) -> float:
    """Median vanilla50 wall time over median preset wall time, alternating."""
    preset_s, reference_s = [], []
    for run_seed in run_seeds[:SPEEDUP_PAIRS]:
        for preset, sink in ((wl.preset, preset_s), (workloads.REFERENCE_PRESET, reference_s)):
            t0 = time.perf_counter()
            wl.plain_run(preset, run_seed)
            sink.append(time.perf_counter() - t0)
    return statistics.median(reference_s) / statistics.median(preset_s)


def traced(inv: Invocation, seconds: float, spans_path: Path | None) -> tuple[dict, list]:
    """Per-layer metrics and notes; writes the spans to `spans_path` if given."""
    inv.set_up()
    plain = inv.timed_units(seconds / 2)
    first_seed = inv.seeds[inv.next_seed]

    tracer = Tracer()
    tracer.install(
        "jitflow",
        NOTES,
        methods=[
            (grid.TokenGrid, "__post_init__", "grid.tokengrid_build"),
            (rng.UniformStream, "choose", "rng.choose"),
            (rng.UniformStream, "normal", "rng.normal"),
            (fields.GaussianFlowField, "evaluate", "fields.evaluate"),
            (AttentionField, "evaluate", "fields.evaluate"),
            (fields.ReplayField, "evaluate", "fields.replay_evaluate"),
        ],
        counters=[(rng.UniformStream, "uint64", "rng.draws")],
    )
    try:
        traced_units = inv.timed_units(
            seconds / 2, on_unit=lambda i: setattr(tracer, "run_id", i))
    finally:
        tracer.uninstall()
    first = traced_units.kept[0]
    inv.check_repeat(first_seed, first)
    per_unit = _layer_values(inv, tracer, traced_units.model_tokens)
    if spans_path is not None:
        tracer.write(spans_path)

    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inv.wl.unit(inv.seeds[inv.next_seed])
        alloc_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()

    values = {k: statistics.median(u[k] for u in per_unit) for k in per_unit[0]}
    modeled = first.speedup_modeled
    measured = _speedup_measured(inv.wl, inv.seeds[inv.next_seed:])
    values.update({
        "mem.alloc_peak_mb": alloc_peak / 2**20,
        "cost.speedup_modeled": modeled,
        "cost.speedup_measured": measured,
        "cost.model_gap": measured / modeled,
        "trace.overhead_ratio": statistics.median(traced_units.ms) / statistics.median(plain.ms),
    })
    notes = [f"{len(per_unit)} traced units, {len(plain.ms)} untraced",
             f"failed_ratio {inv.failed}/{inv.attempted}"]
    return _report("per_layer", values), notes


def measure(name: str, seed: int, seconds: float, trace: bool, root: Path,
            import_s: float = 0.0, tiny: bool = False, spans_path: Path | None = None):
    """Run one workload; returns (result dict, human-readable notes)."""
    inv = Invocation(name, seed, root, tiny)
    try:
        if trace:
            metrics, notes = traced(inv, seconds, spans_path)
        else:
            metrics, notes = untraced(inv, seconds, import_s)
        return inv.result(metrics), notes + inv.problems[:5]
    finally:
        inv.close()
