"""The experiment scripts run end to end and print their tables."""

import os
import subprocess
import sys
from pathlib import Path

from jitflow import PRESETS

ROOT = Path(__file__).resolve().parents[1]
# a child process fails on the warnings that pyproject's filterwarnings names
STRICT_WARNINGS = (
    "-W", "error::RuntimeWarning", "-W", "error::DeprecationWarning",
    "-W", "error::PendingDeprecationWarning", "-W", "error::FutureWarning",
)


def run_script(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, *STRICT_WARNINGS, str(ROOT / "scripts" / args[0]),
         *args[1:]],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_speedup_table_runs():
    out = run_script("speedup_table.py")
    assert out[0].startswith("attention share fit: a = ")
    assert out[1].startswith("  jit4x: predicted ") and "vs target 4.24x" in out[1]
    assert out[2].startswith("  jit7x: predicted ") and "vs target 7.07x" in out[2]
    header = out[4].split()
    assert header[:2] == ["preset", "nfe"] and header.count("speedup") == 3
    assert [row.split()[0] for row in out[5:]] == sorted(PRESETS)


def test_oracle_sweep_runs():
    out = run_script("oracle_sweep.py", "--shape", "8x8x2", "--lams", "0,1",
                     "--fine-steps", "256")
    assert out[0].startswith("preset jit4x, shape 8x8x2,")
    assert out[1].split() == ["lam", "stages", "nfe", "cost", "rel_l2"]
    rows = [line.split() for line in out[2:]]
    assert [r[0] for r in rows] == ["0.00", "1.00"]
    assert 0 < float(rows[1][-1]) < float(rows[0][-1])  # densifying lowers the error
