"""Spans around the calls into tailopt's modules, recorded from outside.

``Tracer.instrument`` wraps the public functions and methods of each layer
module (its ``__all__``, or every name without a leading underscore) and
rebinds every reference to them in the package's module namespaces, so a
call made through ``from tailopt.harness import run_trajectory`` is seen as
well.  Nothing inside ``src/`` changes.

A span is (name, parent, start, end, units): ``parent`` is the index of the
span open when it started (-1 for a call from the benchmark itself) and
``units`` is the work it handled (vectors, draws, steps or bytes, see
``UNITS``).  Spans stay in flat arrays in memory and are written once, by
``dump``, when the workload has finished.

``span_table`` and ``layer_metrics`` turn a dump into per-layer figures;
self time is a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from array import array

import numpy as np

LAYERS = ("spaces", "problems", "optimizers", "harness", "concentration",
          "analysis", "verify", "cli")

# the two functions an untraced run still wraps: they mark the end of set-up
# and count the steps completed, a handful of calls per run
MARKERS = ("harness.build_experiment", "harness.run_trajectory")


def _arg(args, kwargs, pos, name):
    return kwargs[name] if name in kwargs else args[pos]


def _rows(args, kwargs, result):
    shape = getattr(args[1], "shape", ())
    return args[1].size // shape[-1] if len(shape) > 1 else 1


def _file_bytes(args, kwargs, result):
    return os.path.getsize(_arg(args, kwargs, 1, "path"))


# work handled by one call, computed after it returns; other spans count 1
UNITS = {
    "problems.HeavyTailNoise.sample_batch": lambda a, k, r: _arg(a, k, 5, "n"),
    "problems.HeavyTailNoise.sample_radii": lambda a, k, r: _arg(a, k, 2, "n"),
    "harness.run_trajectory": lambda a, k, r: r.horizon,
    "harness.write_trajectory_csv": _file_bytes,
    "verify.run_verification_suite": lambda a, k, r: len(r),
}


def clock() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.units = array("d")
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        units = UNITS.get(name) or (_rows if name.startswith("spaces.NormedSpace.")
                                    else None)
        name_id, parent, start, end, count = (self.name_id, self.parent,
                                              self.start, self.end, self.units)
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            count.append(1.0)
            stack.append(i)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
            if units is not None:
                count[i] = units(args, kwargs, result)
            return result

        return traced

    def instrument(self, only: tuple[str, ...] | None = None):
        """Wrap the layers' public callables (or just those named in ``only``)
        and rebind every reference to them in the imported tailopt modules."""
        package = [m for n, m in list(sys.modules.items())
                   if n == "tailopt" or n.startswith("tailopt.")]
        wrapped = {}
        for layer in LAYERS:
            module = sys.modules.get(f"tailopt.{layer}")
            if module is None:
                continue
            public = getattr(module, "__all__", None) or \
                [n for n in vars(module) if not n.startswith("_")]
            for attr in public:
                obj = getattr(module, attr)
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    if only is None or name in only:
                        wrapped[obj] = self.wrap(name, obj)
                elif inspect.isclass(obj):
                    self._instrument_class(f"{layer}.{attr}", obj, only)
        for module in package:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrapped:
                    setattr(module, attr, wrapped[value])

    def _instrument_class(self, prefix: str, cls, only):
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{prefix}.{attr}"
            if only is not None and name not in only:
                continue
            if inspect.isfunction(raw):
                setattr(cls, attr, self.wrap(name, raw))
            elif isinstance(raw, (classmethod, staticmethod)):
                setattr(cls, attr, type(raw)(self.wrap(name, raw.__func__)))

    def columns(self) -> dict:
        """Copies of the span arrays, so recording can go on afterwards."""
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.array(self.name_id, dtype=np.int32),
                "parent": np.array(self.parent, dtype=np.int32),
                "start": np.array(self.start), "end": np.array(self.end),
                "units": np.array(self.units)}

    def dump(self, path: str):
        np.savez(path, **self.columns())


def span_table(names, name_id, parent, start, end, units) -> dict:
    """Per-span columns: name, layer, parent, duration, self time, units,
    and whether the span is the outermost of its layer on its stack."""
    name_id = np.asarray(name_id, dtype=np.intp)
    parent = np.asarray(parent, dtype=np.intp)
    duration = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=duration[has_parent],
                          minlength=duration.size)
    names = np.asarray(names, dtype=str)
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=str)[name_id]
    parent_layer = np.where(has_parent, layer[np.where(has_parent, parent, 0)], "")
    return {"name": names[name_id], "layer": layer, "parent": parent,
            "duration": duration, "self": duration - covered,
            "units": np.asarray(units, dtype=float),
            "outermost": parent_layer != layer}


def load_table(path: str) -> dict:
    with np.load(path) as z:
        return span_table(**z)


def layer_metrics(table: dict, cli_import_s: float = 0.0) -> dict[str, float]:
    """The per-layer metrics of one traced workload run.

    ``cli_import_s`` is the time the child spent importing ``tailopt.cli``
    as its entry module.  A layer the run never called reports zeros.
    """
    name, layer, dur = table["name"], table["layer"], table["duration"]
    self_t, units, outer = table["self"], table["units"], table["outermost"]

    def pick(*names):
        return np.isin(name, names)

    def total(mask, col=dur):
        return float(col[mask].sum())

    def us_per_call(*names):
        mask = pick(*names)
        return 1e6 * total(mask) / max(int(mask.sum()), 1)

    in_layer = {lay: layer == lay for lay in LAYERS}
    # sample_batch draws through sample_radii: a draw counts only at a
    # sampling call whose parent is not a sampling call
    draws = pick("problems.HeavyTailNoise.sample",
                 "problems.HeavyTailNoise.sample_batch",
                 "problems.HeavyTailNoise.sample_radii")
    parent = table["parent"]
    outer_draws = draws & ~np.where(parent >= 0, draws[np.maximum(parent, 0)], False)
    trajectories = pick("harness.run_trajectory")
    steps = total(trajectories, units)
    spaces_rows = total(in_layer["spaces"] & outer, units)
    out = {f"{lay}.self_s": total(in_layer[lay], self_t) for lay in LAYERS}
    for lay in ("spaces", "problems", "optimizers", "concentration"):
        out[f"{lay}.calls"] = float(in_layer[lay].sum())
    out.update({
        "spaces.rows": spaces_rows,
        "spaces.ns_per_row": 1e9 * out["spaces.self_s"] / max(spaces_rows, 1.0),
        "spaces.dual_norm.us_per_call": us_per_call("spaces.NormedSpace.dual_norm"),
        "spaces.primal_norm.us_per_call": us_per_call("spaces.NormedSpace.primal_norm"),
        "spaces.duality_map.us_per_call": us_per_call("spaces.NormedSpace.duality_map"),
        "spaces.calls_per_step": out["spaces.calls"] / max(steps, 1.0),
        "problems.sample.us_per_call": us_per_call("problems.HeavyTailNoise.sample"),
        "problems.draws": total(outer_draws, units),
        "problems.calibrate_s": total(pick("problems.calibrate_grad_bound")),
        "optimizers.step.us_per_call": us_per_call(
            "optimizers.clipped_momentum_step", "optimizers.extrapolated_step"),
        # harness.self_s is the bookkeeping of the step loop, not the writes
        "harness.self_s": total(trajectories, self_t),
        "harness.step_us": 1e6 * total(trajectories) / max(steps, 1.0),
        "harness.build_experiment_s": total(pick("harness.build_experiment")),
        "harness.write_s": total(pick("harness.write_trajectory_csv")),
        "harness.csv_bytes": total(pick("harness.write_trajectory_csv"), units),
        "harness.checks_s": total(pick("harness.check_trajectory_invariants",
                                       "harness.descent_check",
                                       "harness.eps_hat_check",
                                       "harness.last_iterate_check")),
        "concentration.coverage_s": total(pick(
            "concentration.freedman_scalar_coverage",
            "concentration.freedman_vector_coverage",
            "concentration.truncated_sum_coverage")),
        "verify.checks": total(pick("verify.run_verification_suite"), units),
        "cli.import_s": cli_import_s,
    })
    return out
