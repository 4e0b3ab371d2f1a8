"""Sweep the sparsity-accuracy trade-off against an analytic flow field.

Starts from a staged preset and interpolates every stage sparsity toward
fully dense (s -> s + lam * (1 - s)), then integrates each variant on a
Gaussian flow whose endpoint is known in closed form. Reports endpoint
relative L2 error and modeled cost per variant; error should decay to the
dense sampler's discretization floor as lam approaches 1.

Usage:
    python3 scripts/oracle_sweep.py [--preset jit4x] [--lams 0,0.25,0.5,0.75,1]
"""

import argparse

from jitflow import (
    GaussianFlowField,
    StageSchedule,
    StageSpec,
    make_target_image,
    normalized_model,
    preset_schedule,
    reference_solve,
    run,
    schedule_cost,
)
from jitflow.fields import rel_l2


def densified(base, lam: float):
    """Schedule with each stage sparsity pulled toward 1 by factor lam."""
    specs = []
    for spec in base.stages:
        s = spec.sparsity + lam * (1.0 - spec.sparsity)
        # merge stages that saturate; strictly increasing sparsity required
        if specs and specs[-1].sparsity >= s - 1e-12:
            specs[-1] = StageSpec(specs[-1].steps + spec.steps, specs[-1].sparsity)
        else:
            specs.append(StageSpec(spec.steps, min(s, 1.0)))
    return StageSchedule(specs, base.alpha, base.beta, name=f"{base.name}+lam{lam:g}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--preset", default="jit4x")
    parser.add_argument("--lams", default="0,0.25,0.5,0.75,1",
                        help="comma-separated interpolation factors in [0, 1]")
    parser.add_argument("--shape", default="16x16x4", help="HxWxC token grid")
    parser.add_argument("--sigma1", type=float, default=0.6,
                        help="endpoint spread of the analytic field "
                             "(0 makes Euler exact at any step count)")
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--fine-steps", type=int, default=4096,
                        help="reference integrator resolution")
    args = parser.parse_args()

    h, w, c = (int(v) for v in args.shape.split("x"))
    shape = (h, w, c)
    base = preset_schedule(args.preset)
    mu = make_target_image("smooth-gradient", shape)
    field = GaussianFlowField(mu, sigma1=args.sigma1)
    truth = reference_solve(field, shape, args.seed, args.fine_steps)
    model = normalized_model(0.0)

    print(f"preset {args.preset}, shape {h}x{w}x{c}, sigma1 {args.sigma1}, "
          f"seed {args.seed}, reference {args.fine_steps} steps")
    print(f"{'lam':>5} {'stages':<24} {'nfe':>4} {'cost':>10} {'rel_l2':>12}")
    prev_err = None
    for lam_text in args.lams.split(","):
        lam = float(lam_text)
        sched = densified(base, lam)
        report = run(sched, field, shape, args.seed)
        err = rel_l2(report.endpoint, truth)
        cost = schedule_cost(sched, model).total
        stages = "/".join(f"{s.steps}@{s.sparsity:g}" for s in sched.stages)
        trend = "" if prev_err is None or err <= prev_err + 1e-12 else "  (!)"
        print(f"{lam:>5.2f} {stages:<24} {report.nfe:>4} {cost:>10.4f} "
              f"{err:>12.3e}{trend}")
        prev_err = err
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
