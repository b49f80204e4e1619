"""The four workloads: the inputs each one generates and how a child runs it.

``spec`` runs in the driver and imports nothing from tailopt; it turns a
workload name and the benchmark seed into the configs the program gets.
``execute`` and ``operations`` run in the child interpreter.  ``execute``
is the timed work; ``operations`` afterwards lists every operation it
attempted as (key, ok, digest), where ``key`` names one (config, seed) so
the driver can compare digests across repeats and between traced and
untraced children.
"""

from __future__ import annotations

import hashlib
import os
import random

# modules a child imports before the first unit of work
ENTRY = {"cli_run_l2": "tailopt.cli", "cli_run_lp": "tailopt.cli",
         "gate_batch": "tailopt.harness", "verify_suite": "tailopt.verify"}
WORKLOADS = tuple(ENTRY)

# the flags of `tailopt run` that the default config already has, spelled out
# so that a later change of defaults does not silently change the workload
CLI_DEFAULTS = ["--problem", "cosine_sum", "--dim", "10", "--p-moment", "1.5",
                "--tail-index", "1.8", "--seeds", "1"]

# small enough that every workload finishes in a few seconds, used by tests;
# the tail checks still need millions of draws to pass at the suite's seed 0
TINY_VERIFY_SIZES = {
    "duality": 2_000, "clip": 2_000, "holder": 2_000, "smooth_norm": 1_000,
    "problem_smooth": 1_000, "second_order": 1_000, "one_step": 1_000,
    "fd_points": 5, "unbias_n": 100_000, "moment_n": 10_000_000,
    "tail_seeds": 5, "tail_n": 2_000_000, "majorant_streams": 500,
    "s_bound_draws": 2_000, "power_mean": 6_400, "coverage_trials": 1_000,
    "coverage_len": 20, "trunc_trials": 100_000, "smoke_T": 200,
}


def spec(workload: str, seed: int, work_dir: str, tiny: bool = False) -> dict:
    """The generated inputs of one workload run; the same seed gives the same
    inputs."""
    rng = random.Random(f"{workload}:{seed}")
    base = rng.randrange(1_000_000)
    out = {"workload": workload, "entry": ENTRY[workload], "seed": base}
    if workload in ("cli_run_l2", "cli_run_lp"):
        algo = ["--algo", "nsgd", "--q", "2"] if workload == "cli_run_l2" \
            else ["--algo", "nigt", "--q", "1.5"]
        out_dir = os.path.join(work_dir, workload)
        T = 300 if tiny else 10_000
        out["out"] = out_dir
        out["T"] = T
        out["argv"] = ["run", *algo, *CLI_DEFAULTS, "--T", str(T),
                       "--seed", str(base), "--out", out_dir]
    elif workload == "gate_batch":
        # The acceptance gate's seed batches (tests/test_acceptance.py): 100
        # seeds for criteria 3-5 and 20 per algorithm for criterion 2, so a
        # gain that grows with batch width shows at its real size.  The gate
        # runs T = 10^4 and 10^5; T here is cut so that a child takes seconds.
        T, wide, narrow = (50, 5, 2) if tiny else (500, 100, 20)
        shared = dict(problem="cosine_sum", dim=10, q=2.0, noise_scale=1.0,
                      delta=0.1, T=T)
        out["configs"] = [
            ["criterion_3_5", dict(shared, algorithm="nsgd", p_moment=1.5,
                                   tail_index=1.8, seed=base, seeds=wide)],
            ["criterion_2_nsgd", dict(shared, algorithm="nsgd", p_moment=2.0,
                                      tail_index=2.5, seed=base + wide,
                                      seeds=narrow)],
            ["criterion_2_nigt", dict(shared, algorithm="nigt", p_moment=2.0,
                                      tail_index=2.5, seed=base + wide,
                                      seeds=narrow)],
        ]
    elif workload == "verify_suite":
        # The suite runs at its own default seed, as `tailopt verify` and
        # acceptance criterion 9 do: at most other seeds its
        # pareto_moment_closed_form check fails (see perfbench/README.md).
        out["verify_seed"] = 0
        out["sizes"] = TINY_VERIFY_SIZES if tiny else None
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return out


def execute(spec: dict):
    """The timed work of one child; returns what ``operations`` inspects."""
    workload = spec["workload"]
    if workload.startswith("cli_run"):
        from tailopt import cli
        return cli.main(spec["argv"])
    if workload == "gate_batch":
        from tailopt.harness import (RunConfig, check_trajectory_invariants,
                                     descent_check, eps_hat_check,
                                     last_iterate_check, run)
        done = []
        for name, fields in spec["configs"]:
            for traj in run(RunConfig(**fields)):
                theorem = (descent_check(traj), eps_hat_check(traj),
                           last_iterate_check(traj))
                done.append((name, traj, check_trajectory_invariants(traj), theorem))
        return done
    from tailopt.verify import run_verification_suite
    return run_verification_suite(seed=spec["verify_seed"], sizes=spec["sizes"])


def _trajectory_digest(traj, theorem) -> str:
    h = hashlib.sha256(repr(theorem).encode())
    for arr in (traj.objective, traj.grad_norm, traj.m_norm, traj.eps_hat,
                traj.eps, traj.clipped, traj.lr, traj.final_w):
        h.update(arr.tobytes())
    h.update(repr((traj.final_f, traj.selected_step)).encode())
    return h.hexdigest()


def _tree_digest(root: str) -> str:
    h = hashlib.sha256()
    for dirpath, _, filenames in sorted(os.walk(root)):
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, root).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def operations(spec: dict, outcome) -> list[list]:
    """(key, ok, digest) for every operation the child attempted."""
    workload = spec["workload"]
    if workload.startswith("cli_run"):
        csv = os.path.join(spec["out"], f"seed_{spec['seed']:04d}", "trajectory.csv")
        rows = -1
        if os.path.isfile(csv):
            with open(csv) as fh:
                rows = sum(1 for _ in fh) - 1
        ok = outcome == 0 and rows == spec["T"]
        return [[" ".join(spec["argv"]), ok, _tree_digest(spec["out"])]]
    if workload == "gate_batch":
        return [[f"{name}:seed{traj.seed}", all(inv.values()),
                 _trajectory_digest(traj, theorem)]
                for name, traj, inv, theorem in outcome]
    return [[r.name, bool(r.passed),
             hashlib.sha256(repr(r.row()).encode()).hexdigest()]
            for r in outcome]
