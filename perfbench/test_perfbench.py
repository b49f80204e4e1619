"""The benchmark's own tests: python3 -m pytest perfbench

They cover the span arithmetic, the agreement between printed metrics and
BENCHMARK.json, and a smoke run of every workload at tiny size.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from spans import layer_metrics, span_table
from workloads import WORKLOADS, spec

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def synthetic_tree():
    # cli.main [0, 10]
    #   harness.run_trajectory [1, 8], 100 steps
    #     spaces.NormedSpace.dual_norm [2, 3], 4 rows
    #     spaces.NormedSpace.clip_dual [4, 7], 4 rows
    #       spaces.NormedSpace.dual_norm [5, 6], 4 rows (nested, same layer)
    names = ["cli.main", "harness.run_trajectory", "spaces.NormedSpace.dual_norm",
             "spaces.NormedSpace.clip_dual"]
    return span_table(names, name_id=[0, 1, 2, 3, 2], parent=[-1, 0, 1, 1, 3],
                      start=[0.0, 1.0, 2.0, 4.0, 5.0],
                      end=[10.0, 8.0, 3.0, 7.0, 6.0],
                      units=[1.0, 100.0, 4.0, 4.0, 4.0])


def test_self_time_is_duration_minus_direct_children():
    table = synthetic_tree()
    np.testing.assert_allclose(table["duration"], [10.0, 7.0, 1.0, 3.0, 1.0])
    np.testing.assert_allclose(table["self"], [3.0, 3.0, 1.0, 2.0, 1.0])
    assert table["outermost"].tolist() == [True, True, True, True, False]
    assert table["layer"].tolist() == ["cli", "harness", "spaces", "spaces", "spaces"]


def test_layer_metrics_on_synthetic_tree():
    m = layer_metrics(synthetic_tree(), cli_import_s=0.5)
    assert m["cli.self_s"] == 3.0 and m["cli.import_s"] == 0.5
    assert m["harness.self_s"] == 3.0
    assert m["harness.step_us"] == pytest.approx(1e6 * 7.0 / 100)
    assert m["spaces.calls"] == 3 and m["spaces.self_s"] == 4.0
    assert m["spaces.rows"] == 8  # the nested dual_norm is not counted again
    assert m["spaces.ns_per_row"] == pytest.approx(1e9 * 4.0 / 8)
    assert m["spaces.dual_norm.us_per_call"] == pytest.approx(1e6)
    assert m["spaces.calls_per_step"] == pytest.approx(0.03)
    assert m["verify.checks"] == 0 and m["concentration.calls"] == 0
    names = {d["name"] for d in declared()["per_layer"]}
    assert set(m) | {"trace_overhead_frac"} == names


def test_draws_count_once_through_nested_sampling():
    # problems.calibrate_grad_bound [0, 4]
    #   problems.HeavyTailNoise.sample_batch [1, 3], 1000 draws
    #     problems.HeavyTailNoise.sample_radii [1.5, 2], the same 1000 draws
    # problems.HeavyTailNoise.sample [5, 6], 1 draw
    names = ["problems.calibrate_grad_bound", "problems.HeavyTailNoise.sample_batch",
             "problems.HeavyTailNoise.sample_radii", "problems.HeavyTailNoise.sample"]
    table = span_table(names, name_id=[0, 1, 2, 3], parent=[-1, 0, 1, -1],
                       start=[0.0, 1.0, 1.5, 5.0], end=[4.0, 3.0, 2.0, 6.0],
                       units=[1.0, 1000.0, 1000.0, 1.0])
    m = layer_metrics(table)
    assert m["problems.draws"] == 1001
    assert m["problems.calls"] == 4 and m["problems.self_s"] == 5.0
    assert m["problems.calibrate_s"] == 4.0
    assert m["problems.sample.us_per_call"] == pytest.approx(1e6)


def test_empty_span_table():
    table = span_table([], [], [], [], [], [])
    m = layer_metrics(table)
    assert all(v == 0.0 for v in m.values())


def test_workloads_match_benchmark_json_and_seed_gives_inputs():
    listed = [w["name"] for w in declared()["workloads"]]
    assert listed == [w for w in WORKLOADS if w in listed]
    for name in WORKLOADS:
        assert spec(name, 7, "w") == spec(name, 7, "w")
    assert spec("gate_batch", 7, "w") != spec("gate_batch", 8, "w")
    assert spec("cli_run_l2", 7, "w")["argv"] != spec("cli_run_l2", 8, "w")["argv"]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_every_workload_prints_declared_metrics(trace):
    key = "per_layer" if trace == "1" else "end_to_end"
    names = [m["name"] for m in declared()[key]]
    for workload in WORKLOADS:
        proc = run_bench("--workload", workload, "--seed", "3", "--seconds", "0",
                         "--trace", trace, "--tiny")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == names
        assert f"{workload:<13} failed_frac" in proc.stdout
        if trace == "0":
            assert all(m["value"] > 0 for m in result["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("--workload", "gate_batch", "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
