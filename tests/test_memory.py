"""Peak memory of the large draws and batches behind ``verify``, of the seed batches
of the run-family commands and of their stepper, and of the trajectory
writer, as traced by tracemalloc.

numpy reports its data buffers to tracemalloc, so a traced peak counts
every stream-sized temporary that a draw or a moment makes.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tailopt.concentration import clipped_pareto_second_moment
from tailopt.harness import (_BLOCK, _RECORDED, CSV_HEADER, RunConfig, _row_format,
                             _step_seeds, build_experiment, burn_in_compare,
                             rate_sweep, run, run_trajectory, write_trajectory_csv)
from tailopt.problems import make_problem, pareto_radii
from tailopt.spaces import NormedSpace
from tailopt.verify import (_LEAF, DEFAULT_SIZES, _norm_pair_checks,
                            majorant_checks, oracle_moment_checks,
                            tail_moment_checks)


def _traced_peak(fn):
    """(fn(), the peak traced bytes above those live before the call)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = fn()
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return out, peak


def test_pareto_radii_holds_one_array():
    r, peak = _traced_peak(lambda: pareto_radii(np.random.default_rng(3), 10**6,
                                                1.5, 2.5))
    assert peak <= 1.1 * r.nbytes, peak / r.nbytes


# each check at n draws in all: n radii per stream, n radii after n/8
# oracle rows of dim 8, n/500 streams of each length, the longest of 100
# steps of 4 values and their 100 scales
STREAMED = {
    "tail_moment_checks": lambda n: tail_moment_checks(0, 2, n),
    "oracle_moment_checks": lambda n: oracle_moment_checks(
        make_problem("cosine_sum", 8), NormedSpace.euclidean(8),
        np.random.default_rng(0), n // 8, n),
    "majorant_checks": lambda n: majorant_checks(
        NormedSpace(dim=4, primal_exponent=1.5), np.random.default_rng(0), n // 500),
}


@pytest.mark.parametrize("check", STREAMED)
def test_streamed_checks_hold_a_few_leaves(check):
    # a fixed number of leaves, whatever the stream length: at n = 1e6 a
    # whole stream is about 8 leaves, at 4e6 about 30
    for n in (10**6, 4 * 10**6):
        _, peak = _traced_peak(lambda: STREAMED[check](n))
        assert peak <= 5 * 8 * _LEAF, (n, peak / (8 * _LEAF))


@pytest.mark.parametrize("n", [10**5, 4 * 10**5])
def test_the_norm_pair_checks_hold_one_batch_and_a_few_chunks(n):
    # each identity draws its batches whole and frees them before the next
    # identity draws.  The largest draw is the duality batch: n rows of dim
    # normals and their n scales.  Its identity holds the batch, scaled in
    # place, its two slacks and their masks, under twice the bytes drawn,
    # and evaluates the rows a chunk of _LEAF values at a time, with under
    # 8 chunks of temporaries.  A whole-batch evaluation holds several
    # batch-sized temporaries: the norm-pair and problem sections peaked at
    # 52.7 MB at n = 1e5
    dim = 8
    checks, peak = _traced_peak(lambda: _norm_pair_checks(
        np.random.default_rng(0), {**DEFAULT_SIZES, "duality": n}, dim))
    drawn, chunk = n * (dim + 1) * 8, _LEAF * 8
    assert len(checks) == 18 and all(c.passed for c in checks)
    assert peak <= 2 * drawn + 8 * chunk, (peak - 2 * drawn) / chunk


def test_tail_moment_checks_match_the_per_stream_powers():
    # the scratch buffer and its prefix give the counts of fresh powers
    # (at this seed and size, 3 of 6 streams grow and all 6 settle)
    seed, n_seeds, n = 0, 6, 5000
    clip_ref = clipped_pareto_second_moment(1.5, 1.0, 100.0)
    tol = 3.5 * 3.0 * math.sqrt(3.0 - 1.5 ** 2) / math.sqrt(n)  # Var R^0.5 = 3/4
    grow = stable = 0
    for i in range(n_seeds):
        r = pareto_radii(np.random.default_rng([seed, 0x7A11, i]), n, 1.5)
        grow += bool(np.mean(r ** 2) > 1.2 * clip_ref)
        stable += bool(abs(np.mean(r ** 0.5) - np.mean(r[:n // 10] ** 0.5)) <= tol)
    grows, stabilizes = tail_moment_checks(seed, n_seeds, n)
    assert (grows.worst, stabilizes.worst) == (grow, stable)
    assert (grows.violations, stabilizes.violations) == (n_seeds - grow,
                                                         n_seeds - stable)


def _drain(cfg):
    for _ in run(cfg):  # each trajectory dropped once the next one is stepped
        pass


def _filled_records(exp, seeds):
    """``_step_seeds``'s records, of their true shapes and dtypes, without a
    step: all ones, as rate_sweep's log-log fit refuses a zero norm."""
    lead = np.shape(seeds)
    record = {name: np.ones((*lead, exp.hp.horizon)) for name in _RECORDED}
    record["final_w"] = np.ones((*lead, exp.space.dim))
    return record


SEED_BATCHES = {
    "run": _drain,
    "burn_in_compare": burn_in_compare,
    "rate_sweep": lambda cfg: rate_sweep(cfg, [200, 2000, 20_000]),
}


@pytest.mark.parametrize("command", SEED_BATCHES)
def test_a_seed_batch_holds_no_more_trajectories_as_it_grows(command, monkeypatch):
    # a trajectory at T = 2e4 records about 1.6 MB; a batch that held every
    # seed's would peak near 4 times higher at 8 seeds than at 2.  Seeds
    # step two at a time here, so both hold one batch of two and the copies
    # of its rows the loop has not yet dropped.  The stepper is stubbed, as
    # tracing its steps is slow; the next test bounds its own peak
    cfg = RunConfig(T=20_000, dim=4, calib_samples=10_000)
    monkeypatch.setattr("tailopt.harness._SEED_STEPS", 2 * cfg.T)
    monkeypatch.setattr("tailopt.harness._step_seeds", _filled_records)
    peaks = [_traced_peak(lambda: SEED_BATCHES[command](replace(cfg, seeds=n)))[1]
             for n in (2, 8)]
    assert peaks[1] <= 1.2 * peaks[0], peaks[1] / peaks[0]


@pytest.mark.parametrize("width, T", [pytest.param(2, 10_000, id="2"),
                                      pytest.param(8, 10_000, id="8"),
                                      pytest.param(2, 40_000, id="2-T40000")])
def test_the_stepper_holds_its_records_and_one_block(width, T):
    # besides the (B, T) records, a step loop holds one block: its slice of
    # the schedule, its buffers and diagnostics, at most 16 arrays of _BLOCK
    # seed-steps of dim floats (0.52 MB), whatever the horizon; at T = 1e4
    # the records are 1.4 MB at B = 2 and 5.8 MB at B = 8, at T = 4e4 and
    # B = 2, 5.8 MB.  A schedule held whole as Python floats, 32 bytes a
    # step, would exceed the allowance at T = 4e4
    exp = build_experiment(RunConfig(T=T, dim=4, calib_samples=10_000))
    record, peak = _traced_peak(lambda: _step_seeds(exp, range(width)))
    records = sum(a.nbytes for a in record.values())
    allowance = 16 * _BLOCK * exp.space.dim * 8
    assert peak <= records + allowance, (peak - records) / allowance


def _trajectory(T):
    return run_trajectory(build_experiment(RunConfig(T=T, dim=2, calib_samples=10_000)), 0)


def test_the_trajectory_writer_holds_a_chunk_not_the_file(tmp_path):
    # a T = 1e5 file is 13 MB; formatting it whole peaked at 51.7 MB.  A
    # chunk of _BLOCK rows as Python values and text is about 0.7 kB a row
    path = str(tmp_path / "trajectory.csv")
    traj = _trajectory(100_000)
    _, peak = _traced_peak(lambda: write_trajectory_csv(traj, path))
    assert peak <= 1000 * _BLOCK, peak / _BLOCK


def test_chunked_rows_have_the_bytes_of_one_shot_formatting(tmp_path):
    # a horizon that is not a multiple of the chunk: two whole chunks and
    # five rows, after the first row the format is derived from
    traj = _trajectory(2 * _BLOCK + 5)
    columns = (traj.steps, traj.objective, traj.grad_norm, traj.m_norm,
               traj.eps_hat, traj.eps, traj.clipped, traj.lr)
    rows = list(zip(*(c.tolist() for c in columns)))
    fmt = _row_format(rows[0])
    path = tmp_path / "trajectory.csv"
    write_trajectory_csv(traj, str(path))
    assert path.read_text() == CSV_HEADER + "\n" + "".join(fmt % row for row in rows)
