"""Command-line harness: run, rate-sweep, burn-in, verify, concentration.

It parses arguments, prints, maps exit codes, and names each command's
output files; the writers of ``tailopt.harness`` write them.  Exit codes:
0 success, 1 invariant/check failure, 2 configuration error.
"""

from __future__ import annotations

import argparse
import contextlib
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


def _add_command(sub, name: str, fn, text: str, names=None):
    """Subcommand ``name``, which runs ``fn``, with one flag per
    ``RunConfig`` field (each in ``names``, if given; else --config too):
    --name with - for _, and --algo for algorithm.  A flag stores its text,
    which ``_build_config`` parses by the rule of an INI value."""
    parser = sub.add_parser(name, help=text)
    parser.set_defaults(fn=fn)
    if names is None:
        parser.add_argument("--config", help="INI config file; flags override it")
    for f in fields(RunConfig):
        if names is None or f.name in names:
            flag = "--algo" if f.name == "algorithm" else "--" + f.name.replace("_", "-")
            parser.add_argument(flag, dest=f.name, help=f"default {f.default!r}")
    return parser


def _build_config(args) -> RunConfig:
    """The --config file's values, if given, then each given flag's."""
    path = getattr(args, "config", None)
    cfg = RunConfig.from_file(path) if path else RunConfig()
    flags = {f.name: RunConfig.parse_field(f.name, getattr(args, f.name))
             for f in fields(RunConfig) if getattr(args, f.name, None) is not None}
    return replace(cfg, **flags).validate()


def _cmd_run(args, cfg: RunConfig) -> int:
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


def _cmd_rate_sweep(args, cfg: RunConfig) -> int:
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


def _cmd_burn_in(args, cfg: RunConfig) -> int:
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


def _cmd_verify(args, cfg: RunConfig) -> int:
    from tailopt.verify import run_verification_suite
    make_output_dir(cfg.out)
    results = run_verification_suite(seed=cfg.seed, delta=cfg.delta)
    width = max(len(r.name) for r in results)
    failures = 0
    for r in results:
        status = "pass" if r.passed else "FAIL"
        failures += not r.passed
        print(f"{r.name:<{width}}  samples={r.samples:<9d} "
              f"violations={r.violations:<6d} worst={r.worst:< .3e}  {status}"
              + (f"  [{r.note}]" if r.note else ""))
    print(f"{len(results) - failures}/{len(results)} checks passed")
    if cfg.out:
        write_csv(os.path.join(cfg.out, "verify_report.csv"),
                  "check,samples,violations,worst,pass",
                  [tuple(r.row().values()) for r in results])
    return 1 if failures else 0


def _cmd_concentration(args, cfg: RunConfig) -> int:
    from tailopt.verify import coverage_rows
    for flag in ("trials", "length"):
        if getattr(args, flag) < 1:
            raise ConfigError(f"{flag}: must be at least 1, got {getattr(args, flag)}")
    check_array_sizes({"trials": args.trials, "length": args.length},
                      "the scalar coverage batch")
    make_output_dir(cfg.out)
    rng = np.random.default_rng([cfg.seed, 0xC0FE])
    header = "lemma,delta,trials,coverage,ci_low,ci_high,pass"
    print(header)
    rows = []  # the printed table, as text cells
    ok = True
    for name, level, res in coverage_rows(args.trials, args.length, cfg.delta, rng):
        passed = res.meets(level)
        row = (name.replace("coverage_", ""), str(cfg.delta), str(args.trials),
               *(f"{v:.6f}" for v in (res.coverage, res.ci_low, res.ci_high)),
               str(int(passed)))
        print(",".join(row))
        rows.append(row)
        ok &= passed
    if cfg.out:
        write_csv(os.path.join(cfg.out, "concentration_report.csv"), header, rows)
    return 0 if ok else 1


# per command, the fields whose values size the arrays it allocates; the
# sizes of verify's arrays are fixed
_SIZE_FIELDS = {"run": "dim, T, calib_samples",
                "rate-sweep": "dim, T-grid, calib_samples",
                "burn-in": "dim, T, calib_samples",
                "concentration": "trials, length"}


def _run_command(args) -> int:
    """The command on its resolved config; a refused command removes the
    directories it made for --out (only empty ones), never an older one."""
    cfg = _build_config(args)
    level, new = cfg.out, []  # the levels of --out not there yet, deepest first
    while level and not os.path.lexists(level):
        new.append(level)
        level = os.path.dirname(level)
    try:
        return args.fn(args, cfg)
    except (ConfigError, MemoryError):
        for level in new:
            with contextlib.suppress(OSError):
                os.rmdir(level)
        raise


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tailopt",
        description="Clipped normalized momentum SGD for heavy-tailed "
                    "gradients, with lemma-level verification.")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = _add_command(sub, "run", _cmd_run, "run one experiment over its seed batch")
    p_run.add_argument("--plots", action="store_true", help="emit SVG charts")
    p_sweep = _add_command(sub, "rate-sweep", _cmd_rate_sweep,
                           "fit the gradient-norm decay rate")
    p_sweep.add_argument("--T-grid", default="1000,10000,100000",
                         help="comma-separated horizons")
    p_sweep.add_argument("--plots", action="store_true")
    _add_command(sub, "burn-in", _cmd_burn_in, "compare warmup modes none/hold")
    _add_command(sub, "verify", _cmd_verify, "run the full invariant suite",
                 ("seed", "delta", "out"))
    p_conc = _add_command(sub, "concentration", _cmd_concentration,
                          "coverage-test every bound", ("seed", "delta", "out"))
    p_conc.add_argument("--trials", type=int, default=10_000)
    p_conc.add_argument("--length", type=int, default=100)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _run_command(args)
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
