"""Print the preset cost table and fit a calibrated cost model.

Walks every built-in schedule preset and reports its function-evaluation
count, total cost, and speedup versus a 50-step dense baseline under three
transformer cost models: pure linear, pure quadratic attention, and a model
whose attention share is fitted against published wall-clock speedups.

Usage:
    python3 scripts/speedup_table.py [--tokens 256]
"""

import argparse

from jitflow import (
    PRESETS,
    calibrate_attention_share,
    normalized_model,
    preset_schedule,
    schedule_cost,
)
from jitflow.cost import PUBLISHED_SPEEDUPS


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--tokens", type=int, default=None,
                        help="grid size for integer per-stage budgets "
                             "(default: fractional token counts)")
    args = parser.parse_args()

    fit = calibrate_attention_share(
        [(preset_schedule(name), want) for name, want in sorted(PUBLISHED_SPEEDUPS.items())]
    )
    models = {
        "linear": normalized_model(0.0),
        "quadratic": normalized_model(1.0),
        f"fitted a={fit.attention_share:.5f}": normalized_model(fit.attention_share),
    }

    print(f"attention share fit: a = {fit.attention_share:.6f}")
    for name, predicted, rel in zip(fit.names, fit.predicted, fit.rel_errors):
        print(f"  {name}: predicted {predicted:.4f}x vs target "
              f"{PUBLISHED_SPEEDUPS[name]:.2f}x (rel err {rel:.4f})")
    print()

    header = f"{'preset':<10} {'nfe':>4}"
    for label in models:
        header += f" {label + ' total':>22} {'speedup':>8}"
    print(header)
    for name in sorted(PRESETS):
        sched = preset_schedule(name)
        row = f"{name:<10} {sched.nfe:>4}"
        for model in models.values():
            report = schedule_cost(sched, model, n_tokens=args.tokens)
            row += f" {report.total:>22.4f} {report.speedup:>7.3f}x"
        print(row)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
