"""The four benchmark workloads and their output checks.

Each workload builds its fixed inputs (target, field, config file) in
`setup` and then runs one timed unit per call to `unit(run_seed)`: a
sampler run, or for replay-io a whole write-beside-read job.  The run seeds
come from the workload seed.  Every unit is checked: the endpoint is finite
and the run made the preset's number of field evaluations; replay-io also
checks that replay and the JITG round trip are bitwise exact.  `digest` (a hash of the canonical report JSON and the
endpoint bytes) lets the harness check that repeating a run seed repeats
the run byte for byte.

Why these four:
  sparse-analytic  jit4x at 64x64 on the near-free analytic field, so wall
                   time is the sparse path's own overhead (owner map, blur,
                   importance, transition).
  dense-analytic   vanilla50 at 128x128 on the same field kind.  `lift`
                   takes its full-set shortcut, so interpolation is bypassed;
                   what is left is the initial selector, per-step grid
                   validation, gather/embed and the field itself.
  attention-model  jit4x at 48x48 on a seeded numpy attention + MLP field that
                   takes most of the time, so the sampler's saving shows up
                   as fewer model FLOPs, as the cost model predicts.
  replay-io        jit7x at 32x32 through config, replay record/save/load,
                   strict replay and report/grid writers, so file I/O is a
                   visible share of each job.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.special import ndtri

import jitflow
from jitflow import fields, fileio, schedule

from attention import AttentionField

SIGMA1 = 0.5  # endpoint std of the analytic target N(mu, SIGMA1^2)
# The attention field plays a trained model, fixed across workload seeds;
# the seed varies the sampling noise, as it would for a user of the model.
MODEL_SEED = 0
REFERENCE_PRESET = "vanilla50"  # the dense Euler run the sparse presets are set against


@dataclass
class Outcome:
    endpoint: np.ndarray  # float32 (n_tokens, d)
    digest: bytes
    problems: list
    model_tokens: int  # sum of m over the evaluations that reached the model
    speedup_modeled: float


def w2_to_standard_normal(x: np.ndarray) -> float:
    """Exact 1-D Wasserstein-2 distance between the sample of x and N(0, 1).

    With x sorted and cells [(i-1)/n, i/n], W2^2 = mean(x^2) - 2 sum x_i
    (phi(z_{i-1}) - phi(z_i)) + 1, where z_i = Phi^-1(i/n) and phi is the
    normal density (phi(z_0) = phi(z_n) = 0).
    """
    x = np.sort(np.asarray(x, dtype=np.float64).ravel())
    n = x.size
    z = ndtri(np.arange(1, n) / n)
    pdf = np.concatenate([[0.0], np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi), [0.0]])
    w2sq = np.mean(x * x) - 2.0 * np.dot(x, pdf[:-1] - pdf[1:]) + 1.0
    return float(np.sqrt(max(w2sq, 0.0)))


def w2_between(a: np.ndarray, b: np.ndarray) -> float:
    """1-D Wasserstein-2 distance between two equal-size samples."""
    a = np.sort(np.asarray(a, dtype=np.float64).ravel())
    b = np.sort(np.asarray(b, dtype=np.float64).ravel())
    return float(np.sqrt(np.mean((a - b) ** 2)))


def _digest(report) -> bytes:
    """SHA-256 of the canonical report JSON followed by the endpoint bytes."""
    doc = fileio.canonical_json(fileio.report_to_dict(report)).encode("utf-8")
    return hashlib.sha256(doc + report.endpoint.data.tobytes()).digest()


def _run_problems(report, nfe: int) -> list:
    problems = []
    if not np.all(np.isfinite(report.endpoint.data)):
        problems.append("endpoint not finite")
    if report.nfe != nfe or len(report.steps) != nfe:
        problems.append(f"nfe {report.nfe} ({len(report.steps)} steps), preset has {nfe}")
    return problems


class RunWorkload:
    """Timed unit: one `jitflow.run` of a preset on the analytic Gaussian field."""

    def __init__(self, preset: str, side: int, quality_runs: int):
        self.preset = preset
        self.shape = (side, side, 4)
        self.quality_runs = quality_runs  # how many first run seeds endpoint_w2 pools
        self.cost_model = None  # token evaluations, the run() default

    def make_field(self):
        self.mu = fields.make_target_image("gaussian-bump", self.shape)
        return fields.GaussianFlowField(self.mu, SIGMA1)

    def setup(self, workdir: Path) -> None:
        self.field = self.make_field()
        self.schedule = schedule.preset_schedule(self.preset)
        self.nfe = self.schedule.nfe

    def plain_run(self, preset: str, run_seed: int):
        return jitflow.run(schedule.preset_schedule(preset), self.field, self.shape,
                           run_seed, cost_model=self.cost_model)

    def unit(self, run_seed: int) -> Outcome:
        report = jitflow.run(self.schedule, self.field, self.shape, run_seed,
                             cost_model=self.cost_model)
        return Outcome(report.endpoint.data, _digest(report), _run_problems(report, self.nfe),
                       sum(s.m for s in report.steps), report.speedup_vs_baseline)

    def quality(self, outcomes: list, run_seeds: list) -> float:
        """endpoint_w2: pooled standardized residuals (endpoint - mu) / sigma1
        of the first `quality_runs` run seeds, against N(0, 1)."""
        residuals = [(o.endpoint - self.mu.data) / SIGMA1 for o in outcomes[:self.quality_runs]]
        return w2_to_standard_normal(np.concatenate(residuals))

    def bytes_written(self) -> int:
        return 0


class AttentionWorkload(RunWorkload):
    """Timed unit: one `jitflow.run` on the attention field, FLOP-costed."""

    def __init__(self, preset: str, side: int, width: int, quality_runs: int):
        super().__init__(preset, side, quality_runs)
        self.width = width

    def make_field(self):
        h, w, d = self.shape
        field = AttentionField(h * w, d, self.width, MODEL_SEED)
        self.cost_model = field.cost_model()
        return field

    def quality(self, outcomes: list, run_seeds: list) -> float:
        """endpoint_w2 without a closed-form endpoint: the pooled endpoint
        values of the first `quality_runs` run seeds against those of
        vanilla50 runs of the same seeds."""
        pooled = np.concatenate([o.endpoint for o in outcomes[:self.quality_runs]])
        reference = np.concatenate([self.plain_run(REFERENCE_PRESET, s).endpoint.data
                                    for s in run_seeds[:self.quality_runs]])
        return w2_between(pooled, reference)


class ReplayIOWorkload(RunWorkload):
    """Timed unit: one write-beside-read job through config, replay and files."""

    def setup(self, workdir: Path) -> None:
        super().setup(workdir)
        self.workdir = workdir
        self.config_path = workdir / "run.json"
        doc = {
            "seed": 0,  # each job passes its own run seed to run()
            "shape": list(self.shape),
            "field": {"kind": "gaussian-bump", "sigma1": SIGMA1},
            "preset": self.preset,
        }
        self.config_path.write_text(json.dumps(doc), encoding="utf-8")

    def unit(self, run_seed: int) -> Outcome:
        """read_config, record, save/load replay, strict replay, write/read files.

        The config names the shape, field and preset; the run seed comes
        from the workload's seed sequence, so each job is a distinct run.
        """
        out = self.workdir
        cfg, _ = fileio.read_config(self.config_path)
        field = cfg.resolve_field()
        sched = cfg.resolve_schedule()
        recorder = fields.ReplayField(field)
        report = jitflow.run(sched, recorder, cfg.shape, run_seed)
        fileio.save_replay(recorder, out / "replay")
        replayed = jitflow.run(sched, fileio.load_replay(out / "replay", strict=True),
                               cfg.shape, run_seed)
        fileio.write_report(out / "report.json", report)
        fileio.write_metrics_csv(out / "metrics.csv", report)
        fileio.write_grid(out / "endpoint.jitg", report.endpoint)
        reread = fileio.read_grid(out / "endpoint.jitg")
        problems = _run_problems(report, self.nfe)
        if replayed.endpoint.data.tobytes() != report.endpoint.data.tobytes():
            problems.append("replay endpoint differs from the recorded one")
        if reread.data.tobytes() != report.endpoint.data.tobytes():
            problems.append("JITG round trip changed the endpoint")
        return Outcome(report.endpoint.data, _digest(report), problems,
                       sum(s.m for s in report.steps), report.speedup_vs_baseline)

    def bytes_written(self) -> int:
        """Bytes of every file one job writes (each is rewritten per job)."""
        return sum(p.stat().st_size for p in self.workdir.rglob("*")
                   if p.is_file() and p != self.config_path)


def build(name: str, tiny: bool = False) -> RunWorkload:
    """The named workload; `tiny` shrinks grids for the smoke test.

    quality_runs is larger where endpoint_w2 varies more from seed to seed.
    """
    if name == "sparse-analytic":
        return RunWorkload("jit4x", 16 if tiny else 64, quality_runs=4)
    if name == "dense-analytic":
        return RunWorkload("vanilla50", 16 if tiny else 128, quality_runs=16)
    if name == "attention-model":
        return AttentionWorkload("jit4x", 12 if tiny else 48, 8 if tiny else 128, quality_runs=2)
    if name == "replay-io":
        return ReplayIOWorkload("jit7x", 12 if tiny else 32, quality_runs=8)
    raise KeyError(name)


def run_seeds(seed: int, count: int) -> list:
    """Distinct per-unit run seeds drawn from the workload seed."""
    return random.Random(seed).sample(range(1, 2**31), count)
