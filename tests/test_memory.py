"""Peak memory of the large draws behind ``verify`` and of the seed batches
of the run-family commands, as traced by tracemalloc.

numpy reports its data buffers to tracemalloc, so a traced peak counts
every stream-sized temporary that a draw or a moment makes.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from tailopt.concentration import clipped_pareto_second_moment
from tailopt.harness import RunConfig, burn_in_compare, rate_sweep, run
from tailopt.problems import make_problem, pareto_radii
from tailopt.spaces import NormedSpace
from tailopt.verify import (_LEAF, majorant_checks, oracle_moment_checks,
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


SEED_BATCHES = {
    "run": _drain,
    "burn_in_compare": burn_in_compare,
    "rate_sweep": lambda cfg: rate_sweep(cfg, [200, 2000, 20_000]),
}


@pytest.mark.slow  # 30-60 s each: tracing slows every step about 6 times
@pytest.mark.parametrize("command", SEED_BATCHES)
def test_a_seed_batch_holds_no_more_trajectories_as_it_grows(command):
    # a trajectory at T = 2e4 records about 1.6 MB; a batch that held every
    # seed's would peak near 4 times higher at 8 seeds than at 2.  Streamed,
    # both hold two: the loop keeps the last one while the next one steps
    cfg = RunConfig(T=20_000, dim=4, calib_samples=10_000)
    peaks = [_traced_peak(lambda: SEED_BATCHES[command](replace(cfg, seeds=n)))[1]
             for n in (2, 8)]
    assert peaks[1] <= 1.2 * peaks[0], peaks[1] / peaks[0]
