"""Command-line harness: run, rate-sweep, burn-in, verify, concentration.

Exit codes: 0 success, 1 invariant/check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import fields, replace

import numpy as np

from tailopt.analysis import fit_rate_exponent
from tailopt.harness import (MAX_ARRAY_LEN, ConfigError, RunConfig,
                             burn_in_compare, check_trajectory_invariants,
                             make_output_dir, rate_sweep, run)


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
    trajectories = run(cfg, plots=args.plots)
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
    if cfg.out:
        print(f"artifacts in {cfg.out}")
    return 1 if failures else 0


def _parse_grid(text: str) -> list[int]:
    """--T-grid as horizons, checked against the rate fit's domain up front."""
    try:
        grid = [int(t) for t in text.split(",")]
        fit_rate_exponent(grid, [1.0] * len(grid))
    # OverflowError: a horizon beyond the float range
    except (ValueError, OverflowError) as exc:
        raise ConfigError(f"T-grid: {exc}") from exc
    if max(grid) > MAX_ARRAY_LEN:
        raise ConfigError(f"T-grid: must be at most {MAX_ARRAY_LEN}, got {max(grid)}")
    return grid


def _cmd_rate_sweep(args) -> int:
    cfg = _build_config(args)
    grid = _parse_grid(args.T_grid)
    make_output_dir(cfg.out)
    result = rate_sweep(cfg, grid)
    print("T,avg_grad_norm,min_grad_norm")
    for row in result.rows():
        print(f"{row['T']},{row['avg_grad_norm']:.6g},{row['min_grad_norm']:.6g}")
    print(f"fitted slope: {result.slope:.4f} +/- {result.stderr:.4f} "
          f"(scheduled: {result.target:.4f})")
    if cfg.out:
        with open(os.path.join(cfg.out, "rate_sweep.csv"), "w") as fh:
            fh.write("T,avg_grad_norm,min_grad_norm\n")
            for row in result.rows():
                fh.write(f"{row['T']},{row['avg_grad_norm']:.17g},"
                         f"{row['min_grad_norm']:.17g}\n")
        with open(os.path.join(cfg.out, "rate_fit.txt"), "w") as fh:
            fh.write(f"slope={result.slope:.17g}\nstderr={result.stderr:.17g}\n"
                     f"target={result.target:.17g}\n")
        if args.plots:
            from tailopt._svg import line_chart
            with open(os.path.join(cfg.out, "rate_fit.svg"), "w") as fh:
                fh.write(line_chart(
                    [(result.horizons, result.avg_grad, "avg ||grad||"),
                     (result.horizons, result.min_grad, "min ||grad||")],
                    title="rate sweep", x_label="log10 T", y_label="log10 metric",
                    log_x=True, log_y=True))
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
        with open(os.path.join(cfg.out, "burn_in_compare.csv"), "w") as fh:
            fh.write("mode,seed,final_f,min_grad_norm,post_burn_in_violations\n")
            for mode in ("none", "hold"):
                for i, seed in enumerate(range(cfg.seed, cfg.seed + len(result.final_f[mode]))):
                    fh.write(f"{mode},{seed},{result.final_f[mode][i]:.17g},"
                             f"{result.min_grad[mode][i]:.17g},"
                             f"{result.post_burn_in_violations[mode][i]}\n")
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
        with open(os.path.join(args.out, "verify_report.csv"), "w") as fh:
            fh.write("check,samples,violations,worst,pass\n")
            for r in results:
                row = r.row()
                fh.write(f"{row['check']},{row['samples']},{row['violations']},"
                         f"{row['worst']:.17g},{row['pass']}\n")
    return 1 if failures else 0


def _cmd_concentration(args) -> int:
    from tailopt.verify import coverage_rows
    for flag in ("trials", "length"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"{flag}: must be at least 1, got {getattr(args, flag)}")
        if getattr(args, flag) > MAX_ARRAY_LEN:
            raise ConfigError(f"{flag}: must be at most {MAX_ARRAY_LEN}, "
                              f"got {getattr(args, flag)}")
    if args.trials * args.length > MAX_ARRAY_LEN:
        raise ConfigError(f"trials, length: their product must be at most "
                          f"{MAX_ARRAY_LEN} (the scalar coverage batch)")
    _check_seed_delta(args)
    make_output_dir(args.out)
    rng = np.random.default_rng([args.seed, 0xC0FE])
    header = "lemma,delta,trials,coverage,ci_low,ci_high,pass"
    print(header)
    lines = [header]
    ok = True
    for name, level, res in coverage_rows(args.trials, args.length, args.delta, rng):
        passed = res.meets(level)
        line = (f"{name.replace('coverage_', '')},{args.delta},{args.trials},"
                f"{res.coverage:.6f},{res.ci_low:.6f},{res.ci_high:.6f},{int(passed)}")
        print(line)
        lines.append(line)
        ok &= passed
    if args.out:
        with open(os.path.join(args.out, "concentration_report.csv"), "w") as fh:
            fh.write("\n".join(lines) + "\n")
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
