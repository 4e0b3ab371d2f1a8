"""Command-line driver.

Subcommands:
  sample          run the sampler from a config; write grid / report / images
  schedule        print a schedule's stage table and timesteps as CSV
  bench-cost      cost and speedup accounting; optional attention-share fit
  oracle-compare  endpoint error of a staged run against the dense oracle
  selftest        run the built-in invariant checks

Every failure path prints a named error to stderr and exits nonzero.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .cost import PUBLISHED_SPEEDUPS, calibrate_attention_share, schedule_cost
from .errors import EngineError
from .fields import reference_solve, rel_l2
from .fileio import read_config, write_grid, write_metrics_csv, write_pgm, write_report
from .schedule import preset_schedule
from .selftest import run_selftests


def _load(path):
    cfg, warnings = read_config(path)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return cfg


def _cmd_sample(args) -> int:
    report = _load(args.config).run()
    if args.out_grid:
        write_grid(args.out_grid, report.endpoint)
    if args.out_report:
        write_report(args.out_report, report)
    if args.out_metrics:
        write_metrics_csv(args.out_metrics, report)
    if args.dump_anchor_distance:
        outdir = Path(args.dump_anchor_distance)
        outdir.mkdir(parents=True, exist_ok=True)
        for tr in report.transitions:
            write_pgm(
                tr.anchor_distance,
                outdir / f"anchor_distance_step{tr.step_index:03d}.pgm",
            )
    print(
        f"schedule={report.schedule_name} seed={report.seed} nfe={report.nfe} "
        f"total_cost={report.total_cost!r} speedup={report.speedup_vs_baseline!r}"
    )
    return 0


def _cmd_schedule(args) -> int:
    if args.preset is not None:  # an empty name is an unknown preset, not "no preset"
        sched = preset_schedule(args.preset)
    else:
        sched = _load(args.config).resolve_schedule()
    print("stage,steps,sparsity")
    for pos, spec in enumerate(sched.stages):
        print(f"{pos},{spec.steps},{spec.sparsity!r}")
    print()
    print("i,t")
    for i, t in enumerate(sched.timesteps):
        print(f"{i},{float(t)!r}")
    return 0


def _cmd_bench_cost(args) -> int:
    cfg = _load(args.config)
    sched = cfg.resolve_schedule()
    model = cfg.resolve_cost_model()
    n_tokens = cfg.shape[0] * cfg.shape[1]
    # both reports before any output, so an overflowing model prints only its error
    reports = [
        (mode, schedule_cost(sched, model, n_tokens=n, baseline_steps=cfg.baseline_steps))
        for mode, n in (("fractional", None), ("tokens", n_tokens))
    ]
    print("schedule,mode,c_attn,c_lin,c_fix,n_ctx,total,baseline,speedup")
    for mode, rep in reports:
        print(
            f"{rep.schedule_name},{mode},{model.c_attn!r},{model.c_lin!r},"
            f"{model.c_fix!r},{model.n_ctx!r},{rep.total!r},"
            f"{rep.baseline_total!r},{rep.speedup!r}"
        )
    if args.calibrate:
        targets = [
            (preset_schedule(name), want) for name, want in PUBLISHED_SPEEDUPS.items()
        ]
        fit = calibrate_attention_share(targets)
        print()
        print(f"attention_share,{fit.attention_share!r}")
        print("schedule,target,predicted,rel_error")
        for name, want, pred, err in zip(
            fit.names, fit.targets, fit.predicted, fit.rel_errors
        ):
            print(f"{name},{want!r},{pred!r},{err!r}")
    return 0


def _cmd_oracle_compare(args) -> int:
    cfg = _load(args.config)
    field = cfg.resolve_field()
    ledger = schedule_cost(cfg.resolve_schedule(), cfg.resolve_cost_model(),
                           cfg.shape[0] * cfg.shape[1], cfg.baseline_steps)
    # the oracle first: it refuses a bad --fine-steps before any field evaluation
    oracle = reference_solve(field, cfg.shape, cfg.seed, args.fine_steps)
    report = cfg.run(field)
    print(f"rel_l2,{rel_l2(report.endpoint, oracle)!r}")
    print("stage,steps,m,stage_cost")
    for stage, (steps, m, cost) in enumerate(ledger.per_stage):
        print(f"{stage},{steps},{int(m)},{cost!r}")
    return 0


def _cmd_selftest(_args) -> int:
    results = run_selftests()
    for name, ok, detail in results:
        print(f"{'ok' if ok else 'FAIL'} {name}: {detail}")
    failed = sum(1 for _, ok, _ in results if not ok)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jitflow", description="Sparse anchor-token flow-matching sampler."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sample", help="run the sampler from a config file")
    p.add_argument("--config", required=True)
    p.add_argument("--out-grid", default=None)
    p.add_argument("--out-report", default=None)
    p.add_argument("--out-metrics", default=None)
    p.add_argument("--dump-anchor-distance", default=None)
    p.set_defaults(fn=_cmd_sample)

    p = sub.add_parser("schedule", help="print stage table and timesteps")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--preset")
    g.add_argument("--config")
    p.set_defaults(fn=_cmd_schedule)

    p = sub.add_parser("bench-cost", help="cost and speedup accounting")
    p.add_argument("--config", required=True)
    p.add_argument("--calibrate", action="store_true")
    p.set_defaults(fn=_cmd_bench_cost)

    p = sub.add_parser("oracle-compare", help="staged run vs dense Euler oracle")
    p.add_argument("--config", required=True)
    p.add_argument("--fine-steps", type=int, default=2000)
    p.set_defaults(fn=_cmd_oracle_compare)

    p = sub.add_parser("selftest", help="run built-in invariant checks")
    p.set_defaults(fn=_cmd_selftest)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
