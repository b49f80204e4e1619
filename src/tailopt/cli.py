"""Command-line harness: run, rate-sweep, burn-in, verify, concentration.

It parses arguments, prints, maps exit codes, and names each command's
output files; the writers of ``tailopt.harness`` write them.  Exit codes:
0 success, 1 invariant/check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from tailopt._svg import line_chart
from tailopt.harness import (ConfigError, RunConfig, burn_in_compare,
                             certificate_entries, check_array_sizes,
                             check_horizon_grid, check_trajectory_invariants,
                             make_output_dir, rate_sweep, run, write_config,
                             write_csv, write_key_values, write_trajectory_csv)


def _add_config_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="INI config file; flags override it")
    parser.add_argument("--algo", choices=["nsgd", "nigt"], dest="algorithm")
    parser.add_argument("--problem", choices=["cosine_sum", "quadratic"])
    parser.add_argument("--dim", type=int)
    parser.add_argument("--q", type=float, help="primal norm exponent in (1, 2]")
    parser.add_argument("--p-moment", type=float, dest="p_moment")
    parser.add_argument("--tail-index", type=float, dest="tail_index")
    parser.add_argument("--noise-scale", type=float, dest="noise_scale")
    parser.add_argument("--T", type=int, dest="T")
    parser.add_argument("--b", type=float, dest="b", help="alpha schedule constant")
    parser.add_argument("--s", type=float, dest="s", help="lr schedule constant")
    parser.add_argument("--delta", type=float)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seeds", type=int, help="number of seeds (base+i)")
    parser.add_argument("--warmup", choices=["none", "hold"])
    parser.add_argument("--warmup-steps", type=int, dest="warmup_steps")
    parser.add_argument("--order", choices=["first", "second"])
    parser.add_argument("--out", help="output directory")


def _build_config(args) -> RunConfig:
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    flags = {f.name: getattr(args, f.name) for f in fields(RunConfig)
             if getattr(args, f.name, None) is not None}
    return replace(cfg, **flags).validate()


def _cmd_run(args) -> int:
    cfg = _build_config(args)
    make_output_dir(cfg.out)
    trajectories = run(cfg)
    if cfg.out:
        write_config(cfg)
    failures = 0
    for traj in trajectories:
        inv = check_trajectory_invariants(traj)
        bad = [k for k, ok in inv.items() if not ok]
        failures += len(bad)
        s = traj.summary()
        print(f"seed {traj.seed}: F(w_1)={traj.objective[0]:.6g} -> "
              f"final={s['final_f']:.6g}, min ||grad||={s['min_grad_norm']:.4g}, "
              f"selected t={s['selected_step']}"
              + (f"  INVARIANT FAILURES: {bad}" if bad else ""))
        if not cfg.out:
            continue
        sub = make_output_dir(os.path.join(cfg.out, f"seed_{traj.seed:04d}"))
        write_trajectory_csv(traj, os.path.join(sub, "trajectory.csv"))
        write_key_values(os.path.join(sub, "certificate.txt"),
                         certificate_entries(traj.hp, traj.cert))
        write_key_values(os.path.join(sub, "summary.txt"), s)
        if args.plots:
            line_chart(os.path.join(sub, "objective.svg"),
                       [(traj.steps, traj.objective, "F(w_t)")],
                       title="objective", x_label="t", y_label="F")
            line_chart(os.path.join(sub, "grad_norm.svg"),
                       [(traj.steps, traj.grad_norm, "||grad F(w_t)||")],
                       title="gradient norm", x_label="t",
                       y_label="dual norm", log_y=True)
    if cfg.out:
        print(f"artifacts in {cfg.out}")
    return 1 if failures else 0


def _parse_grid(text: str) -> list[int]:
    """--T-grid as horizons, checked before the output directory is made."""
    try:
        grid = [int(t) for t in text.split(",")]
    except ValueError as exc:
        raise ConfigError(f"T-grid: {exc}") from exc
    return check_horizon_grid(grid)


def _cmd_rate_sweep(args) -> int:
    cfg = _build_config(args)
    grid = _parse_grid(args.T_grid)
    make_output_dir(cfg.out)
    result = rate_sweep(cfg, grid)
    header = "T,avg_grad_norm,min_grad_norm"
    print(header)
    for T, avg, low in result.rows():
        print(f"{T},{avg:.6g},{low:.6g}")
    print(f"fitted slope: {result.slope:.4f} +/- {result.stderr:.4f} "
          f"(scheduled: {result.target:.4f})")
    if cfg.out:
        write_config(cfg)
        write_csv(os.path.join(cfg.out, "rate_sweep.csv"), header, result.rows())
        write_key_values(os.path.join(cfg.out, "rate_fit.txt"),
                         {k: getattr(result, k) for k in ("slope", "stderr", "target")})
        if args.plots:
            line_chart(os.path.join(cfg.out, "rate_fit.svg"),
                       [(result.horizons, result.avg_grad, "avg ||grad||"),
                        (result.horizons, result.min_grad, "min ||grad||")],
                       title="rate sweep", x_label="log10 T",
                       y_label="log10 metric", log_x=True, log_y=True)
    return 0


def _cmd_burn_in(args) -> int:
    cfg = _build_config(args)
    make_output_dir(cfg.out)
    result = burn_in_compare(cfg)
    print(f"burn-in steps: {result.burn_in}")
    for mode in ("none", "hold"):
        s = result.mode_summary(mode)
        print(f"warmup={mode}: final F = {s['final_f_mean']:.6g} "
              f"+/- {s['final_f_band']:.2g}, min ||grad|| = "
              f"{s['min_grad_mean']:.4g} +/- {s['min_grad_band']:.2g}, "
              f"post-burn-in descent violations/seed = {s['violations_mean']:.2f}")
    if cfg.out:
        write_config(cfg)
        write_csv(os.path.join(cfg.out, "burn_in_compare.csv"),
                  "mode,seed,final_f,min_grad_norm,post_burn_in_violations",
                  [(mode, cfg.seed + i, *cells) for mode in ("none", "hold")
                   for i, cells in enumerate(zip(
                       result.final_f[mode], result.min_grad[mode],
                       result.post_burn_in_violations[mode]))])
    return 0


def _check_seed_delta(args):
    """--seed and --delta by the rules a run config applies to them."""
    RunConfig(seed=args.seed, delta=args.delta).validate()


def _cmd_verify(args) -> int:
    from tailopt.verify import run_verification_suite
    _check_seed_delta(args)
    make_output_dir(args.out)
    results = run_verification_suite(seed=args.seed, delta=args.delta)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{r.name:<{width}}  samples={r.samples:<9d} "
              f"violations={r.violations:<6d} worst={r.worst:< .3e}  {status}"
              + (f"  [{r.note}]" if r.note else ""))
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if args.out:
        write_csv(os.path.join(args.out, "verify_report.csv"),
                  "check,samples,violations,worst,pass",
                  [tuple(r.row().values()) for r in results])
    return 1 if failures else 0


def _cmd_concentration(args) -> int:
    from tailopt.verify import coverage_rows
    for flag in ("trials", "length"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"{flag}: must be at least 1, got {getattr(args, flag)}")
    check_array_sizes({"trials": args.trials, "length": args.length},
                      "the scalar coverage batch")
    _check_seed_delta(args)
    make_output_dir(args.out)
    rng = np.random.default_rng([args.seed, 0xC0FE])
    header = "lemma,delta,trials,coverage,ci_low,ci_high,pass"
    print(header)
    rows = []  # the printed table, as text cells
    ok = True
    for name, level, res in coverage_rows(args.trials, args.length, args.delta, rng):
        passed = res.meets(level)
        row = (name.replace("coverage_", ""), str(args.delta), str(args.trials),
               *(f"{v:.6f}" for v in (res.coverage, res.ci_low, res.ci_high)),
               str(int(passed)))
        print(",".join(row))
        rows.append(row)
        ok &= passed
    if args.out:
        write_csv(os.path.join(args.out, "concentration_report.csv"), header, rows)
    return 0 if ok else 1


# per command, the fields whose values size the arrays it allocates; the
# sizes of verify's arrays are fixed
_SIZE_FIELDS = {"run": "dim, T, calib_samples",
                "rate-sweep": "dim, T-grid, calib_samples",
                "burn-in": "dim, T, calib_samples",
                "concentration": "trials, length"}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="tailopt",
        description="Clipped normalized momentum SGD for heavy-tailed "
                    "gradients, with lemma-level verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment over its seed batch")
    _add_config_flags(p_run)
    p_run.add_argument("--plots", action="store_true", help="emit SVG charts")
    p_run.set_defaults(fn=_cmd_run)

    p_sweep = sub.add_parser("rate-sweep", help="fit the gradient-norm decay rate")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--T-grid", default="1000,10000,100000",
                         help="comma-separated horizons")
    p_sweep.add_argument("--plots", action="store_true")
    p_sweep.set_defaults(fn=_cmd_rate_sweep)

    p_burn = sub.add_parser("burn-in", help="compare warmup modes none/hold")
    _add_config_flags(p_burn)
    p_burn.set_defaults(fn=_cmd_burn_in)

    p_verify = sub.add_parser("verify", help="run the full invariant suite")
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--delta", type=float, default=0.1)
    p_verify.add_argument("--out")
    p_verify.set_defaults(fn=_cmd_verify)

    p_conc = sub.add_parser("concentration", help="coverage-test every bound")
    p_conc.add_argument("--trials", type=int, default=10_000)
    p_conc.add_argument("--length", type=int, default=100)
    p_conc.add_argument("--delta", type=float, default=0.1)
    p_conc.add_argument("--seed", type=int, default=0)
    p_conc.add_argument("--out")
    p_conc.set_defaults(fn=_cmd_concentration)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        if args.command not in _SIZE_FIELDS:
            raise
        print(f"config error: {_SIZE_FIELDS[args.command]}: too large for the "
              f"memory available ({exc})", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
