"""Smoke test of the benchmark's own code, on tiny grids.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py

Checks that each workload, untraced and traced, emits exactly the metrics
BENCHMARK.json names with their units, that its output checks pass, that
the traced run attributes owner-map work as documented, and that the
benchmark refuses to run without the program's sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from jitflow import interp, sampler, transition  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _measure(workload, trace, tmp_path):
    spans = tmp_path / "spans.jsonl" if trace else None
    return harness.measure(workload, seed=3, seconds=0.2, trace=trace, root=tmp_path,
                           tiny=True, spans_path=spans)[0]


def test_workload_names_match_spec():
    assert tuple(w["name"] for w in SPEC["workloads"]) == run.WORKLOADS


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_emitted(workload, trace, tmp_path):
    result = _measure(workload, trace, tmp_path)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(math.isfinite(v["value"]) for v in result["metrics"].values())
    json.dumps(result)
    assert [p.name for p in tmp_path.iterdir()] == (["spans.jsonl"] if trace else [])


def test_traced_run_attribution_and_cleanup(tmp_path):
    layers = _measure("sparse-analytic", True, tmp_path)["metrics"]
    assert layers["interp.nearest_fill_calls"]["value"] == 13
    assert layers["interp.owner_reuse_ratio"]["value"] == pytest.approx(2 / 13)
    dense = _measure("dense-analytic", True, tmp_path)["metrics"]
    assert dense["interp.nearest_fill_calls"]["value"] == 0
    # wrappers are gone: every lookup site holds the original function again
    assert sampler.lift is interp.lift and transition.lift is interp.lift
    assert not hasattr(interp.lift, "__wrapped__")


def test_w2_to_standard_normal_against_quadrature():
    x = np.random.default_rng(1).standard_normal(3000) * 0.7 + 0.2
    # W2^2 = integral over u of (F^-1(u) - Phi^-1(u))^2, on a fine midpoint grid
    u = (np.arange(4_000_000) + 0.5) / 4_000_000
    quantiles = np.sort(x)[np.minimum((u * x.size).astype(int), x.size - 1)]
    want = np.sqrt(np.mean((quantiles - workloads.ndtri(u)) ** 2))
    assert workloads.w2_to_standard_normal(x) == pytest.approx(want, rel=1e-4)


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay-io", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0 and out.stdout == ""
