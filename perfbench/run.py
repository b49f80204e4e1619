"""The tailopt benchmark driver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

run from the root of a checkout.  NAME is one of the workloads in
``BENCHMARK.json`` (or ``all``, which runs each in turn).  The driver
launches fresh interpreters one at a time (``child.py``), each running the
whole workload once, until the next one would overrun S seconds.  With
``--trace 0`` every child is untraced and the end-to-end metrics are the
medians over the children.  With ``--trace 1`` untraced and traced children
alternate; the per-layer metrics are the medians over the traced ones, and
``trace_overhead_frac`` compares the two kinds' median wall times.

Every operation a child attempted (a CLI invocation, a trajectory, a verify
check) fails when the program reports it failed or when its digest differs
from the first digest of the same (config, seed) in this run, traced or not.
The last line of standard output is the JSON result; the lines before it
give the pinned child environment, the machine state and every metric with
its unit, including ``failed_frac``.  A full record is also written to
``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from spans import clock, layer_metrics, load_table
from workloads import WORKLOADS, spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
# a run must exit within 180 s; leave room for the last child to finish
HARD_LIMIT_S = 170.0

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def child_env() -> dict:
    """A pinned environment: one BLAS/OpenMP thread, TAILOPT_THREADS unset
    (so the harness steps seeds serially), fixed hash seed, the checkout's
    sources first on the path."""
    env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
           "PYTHONPATH": SRC, "PYTHONHASHSEED": "0", "LC_ALL": "C"}
    env.update({name: "1" for name in THREAD_VARS})
    return env


def _version(dist: str) -> str:
    try:
        return importlib.metadata.version(dist)
    except importlib.metadata.PackageNotFoundError:
        return "missing"


def git_commit() -> str:
    """HEAD of the checkout; "unknown" where it is not a git repository.
    Git reads no directory above the checkout and no system or user config."""
    env = dict(os.environ, GIT_CONFIG_NOSYSTEM="1", GIT_CONFIG_GLOBAL=os.devnull)
    try:
        proc = subprocess.run(["git", "--git-dir", os.path.join(ROOT, ".git"),
                               "rev-parse", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def machine() -> dict:
    return {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": _version("numpy"),
            "scipy": _version("scipy"), "commit": git_commit(),
            "env": child_env()}


def launch(base: dict, traced: bool, deadline: float) -> dict:
    kind = "traced" if traced else "plain"
    child_spec = dict(base, traced=traced, src=SRC,
                      spans=os.path.join(WORK, f"spans_{base['workload']}.npz"))
    if "out" in child_spec:
        shutil.rmtree(child_spec["out"], ignore_errors=True)
    child_spec["t_spawn"] = clock()
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "child.py"), json.dumps(child_spec)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(deadline - clock(), 1.0))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{kind} child of {base['workload']} exited "
                           f"{proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["kind"] = kind
    if traced:
        cli_import_s = result["import_s"] if base["entry"] == "tailopt.cli" else 0.0
        result["layers"] = layer_metrics(load_table(child_spec["spans"]), cli_import_s)
    return result


def measure(workload: str, seed: int, seconds: float, trace: bool,
            tiny: bool = False) -> dict:
    """Children of one workload until the budget is spent; see the module
    docstring for what is reported."""
    os.makedirs(WORK, exist_ok=True)
    base = spec(workload, seed, WORK, tiny)
    start = clock()
    deadline, hard = start + seconds, start + HARD_LIMIT_S
    load_before = os.getloadavg()
    children, first_digest = [], {}
    attempted = failed = 0
    longest = 0.0
    while True:
        t0 = clock()
        for traced in ((False, True) if trace else (False,)):
            child = launch(base, traced, hard)
            children.append(child)
            for key, ok, digest in child["ops"]:
                same = first_digest.setdefault(key, digest) == digest
                attempted += 1
                failed += not (ok and same)
        longest = max(longest, clock() - t0)
        if clock() + longest > deadline:
            break
    plain = [c for c in children if c["kind"] == "plain"]

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if trace:
        traced_runs = [c for c in children if c["kind"] == "traced"]
        metrics = {name: statistics.median(c["layers"][name] for c in traced_runs)
                   for name in traced_runs[0]["layers"]}
        metrics["trace_overhead_frac"] = \
            (med(traced_runs, "wall_s") - med(plain, "wall_s")) / med(plain, "wall_s")
    else:
        metrics = {
            "setup_s": med(plain, "setup_s"),
            "wall_s": med(plain, "wall_s"),
            "steps_per_s": statistics.median(
                c["steps"] / (c["wall_s"] - c["setup_s"]) for c in plain),
            "peak_rss_mb": med(plain, "peak_rss_mb"),
        }
    return {"workload": workload, "seed": seed, "trace": int(trace),
            "inputs": base, "children": len(children), "attempted": attempted,
            "failed": failed, "failed_frac": failed / max(attempted, 1),
            "metrics": metrics, "load_before": load_before,
            "load_after": os.getloadavg(), "elapsed_s": clock() - start,
            "samples": [{k: v for k, v in c.items() if k != "ops"}
                        for c in children]}


def declared_metrics(trace: bool) -> dict[str, str]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def report(run: dict, units: dict[str, str]):
    if set(run["metrics"]) != set(units):
        raise RuntimeError(f"metrics {sorted(run['metrics'])} differ from "
                           f"BENCHMARK.json {sorted(units)}")
    print(f"== {run['workload']} seed={run['seed']} trace={run['trace']} "
          f"children={run['children']} load={run['load_before'][0]:.2f}->"
          f"{run['load_after'][0]:.2f}")
    for name, unit in units.items():
        print(f"{run['workload']:<13} {name:<32} {run['metrics'][name]:>14.6g} {unit}")
    print(f"{run['workload']:<13} {'failed_frac':<32} {run['failed_frac']:>14.6g} "
          f"({run['failed']}/{run['attempted']})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "tailopt", "__init__.py")):
        print(f"no tailopt sources under {SRC}", file=sys.stderr)
        return 2
    units = declared_metrics(bool(args.trace))
    env = machine()
    print("machine " + json.dumps(env, sort_keys=True))
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    runs = []
    for name in names:
        run = measure(name, args.seed, args.seconds, bool(args.trace), args.tiny)
        run["machine"] = env
        report(run, units)
        os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
        stamp = time.strftime("%Y%m%dT%H%M%S")
        path = os.path.join(WORK, "results",
                            f"{name}_seed{args.seed}_trace{args.trace}_{stamp}.json")
        with open(path, "w") as fh:
            json.dump(run, fh, indent=1, default=float)
        runs.append(run)
    result = {"correct": all(r["failed"] == 0 for r in runs),
              "attempted": sum(r["attempted"] for r in runs),
              "failed": sum(r["failed"] for r in runs)}
    if len(runs) == 1:
        result["metrics"] = {name: {"value": runs[0]["metrics"][name], "unit": unit}
                             for name, unit in units.items()}
    else:
        result["workloads"] = {r["workload"]: {"failed_frac": r["failed_frac"],
                                               **r["metrics"]} for r in runs}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
