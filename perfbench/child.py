"""One workload in a fresh interpreter: ``python3 perfbench/child.py SPEC``.

SPEC is the JSON object ``run.py`` built, including ``t_spawn``, the
CLOCK_MONOTONIC reading taken just before the launch.  The child times from
that instant, so interpreter start-up counts towards set-up and wall time.
Its last line of standard output is a JSON object with the timings, the
steps completed, the peak resident memory and the operations attempted.
"""

import importlib
import json
import os
import resource
import sys
import time

from workloads import execute, operations


def clock() -> float:
    """The clock of spans.clock; CLOCK_MONOTONIC is system-wide, so the child
    can compare its readings with the instant the driver launched it."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(spec: dict) -> dict:
    t_spawn = spec["t_spawn"]
    t0 = clock()
    importlib.import_module(spec["entry"])
    t_import = clock()
    # imported after the entry module, so that numpy counts towards import_s
    from spans import MARKERS, Tracer, span_table
    src = os.path.realpath(spec["src"])
    loaded = os.path.realpath(sys.modules["tailopt"].__file__)
    if not loaded.startswith(src + os.sep):
        raise RuntimeError(f"tailopt imported from {loaded}, expected {src}")
    tracer = Tracer()
    tracer.instrument(None if spec["traced"] else MARKERS)
    outcome = execute(spec)
    t_end = clock()
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if spec["traced"]:
        tracer.dump(spec["spans"])
    table = span_table(**tracer.columns())
    builds = table["name"] == "harness.build_experiment"
    trajectories = table["name"] == "harness.run_trajectory"
    return {
        "setup_s": t_import - t_spawn + float(table["duration"][builds].sum()),
        "wall_s": t_end - t_spawn,
        "import_s": t_import - t0,
        "steps": int(table["units"][trajectories].sum()),
        "peak_rss_mb": peak_rss,
        "ops": operations(spec, outcome),
    }


if __name__ == "__main__":
    result = main(json.loads(sys.argv[1]))
    print(json.dumps(result))
