"""Scalar reduction, Freedman bounds, truncation bounds, coverage."""

import math

import numpy as np
import pytest

from tailopt import concentration as conc
from tailopt.spaces import NormedSpace

EUCLID4 = NormedSpace.euclidean(4)
DUAL_OF_15 = NormedSpace(dim=4, primal_exponent=1.5)  # dual l_3, C = 2


def test_s_sequence_zero_stream():
    xs = np.zeros((7, 4))
    np.testing.assert_array_equal(conc.s_sequence_batch(xs[None], EUCLID4)[0],
                                  np.zeros(7))


def test_s_sequence_hand_trace_1d():
    # X = (1, -2, 3), p = 2: s_1 = 0 (empty prefix), then the recursion with
    # sgn(0) = +1 gives s = (0, -2, 3)
    sp = NormedSpace.euclidean(1)
    xs = np.array([[1.0], [-2.0], [3.0]])
    s = conc.s_sequence_batch(xs[None], sp)[0]
    np.testing.assert_allclose(s, [0.0, -2.0, 3.0], rtol=1e-14)
    # hand-computed majorant: |sum s| + sqrt(max ||X||^2 + C sum ||X||^2)
    maj = conc.s_sequence_majorant_batch(xs[None], sp)[0]
    assert maj == pytest.approx(1.0 + math.sqrt(9.0 + 14.0), rel=1e-14)
    assert maj >= abs(xs.sum())  # = 2


def test_s_bound_by_increment_norm():
    rng = np.random.default_rng(13)
    for sp in (EUCLID4, DUAL_OF_15):
        xs = rng.standard_normal((2000, 50, 4)) * rng.lognormal(0, 1, (2000, 50, 1))
        s = conc.s_sequence_batch(xs, sp)
        norms = np.asarray(sp.dual_norm(xs))
        assert np.all(np.abs(s) <= norms * (1.0 + 1e-12) + 1e-300)


def test_majorant_single_vector():
    for sp in (EUCLID4, DUAL_OF_15):
        x = np.array([[1.0, -2.0, 0.5, 1.5]])
        expect = (1.0 + sp.smooth_constant) ** 0.5 * sp.dual_norm(x[0])
        maj = conc.s_sequence_majorant_batch(x[None], sp)[0]
        assert maj == pytest.approx(expect, rel=1e-14)
        assert maj >= sp.dual_norm(x[0])


def test_majorant_dominates_sum_norm_sweep():
    # Monte-Carlo sweep is the oracle: no violations allowed
    rng = np.random.default_rng(23)
    for sp in (EUCLID4, DUAL_OF_15):
        for length in (1, 10, 100):
            xs = rng.standard_normal((2000, length, 4))
            xs *= rng.lognormal(0.0, 1.5, (2000, length, 1))
            maj = conc.s_sequence_majorant_batch(xs, sp)
            sums = np.asarray(sp.dual_norm(np.sum(xs, axis=1)))
            assert np.all(sums <= maj + 1e-9)


def test_majorant_dominates_constant_stream():
    # all increments equal: the scalar prefix must carry the growth
    sp = NormedSpace.euclidean(1)
    xs = np.ones((10, 1))
    assert conc.s_sequence_majorant_batch(xs[None], sp)[0] >= 10.0


def test_freedman_scalar_examples():
    assert conc.freedman_scalar_bound(1.0, np.ones(100), 0.05) == pytest.approx(
        2.0 * math.log(20.0) / 3.0 + math.sqrt(200.0 * math.log(20.0)), rel=1e-14)
    # delta -> 1: log(1/delta) -> 0 kills both terms
    assert conc.freedman_scalar_bound(1.0, np.ones(10), 1.0 - 1e-12) == pytest.approx(0.0, abs=1e-5)
    with pytest.raises(ValueError):
        conc.freedman_scalar_bound(1.0, np.ones(10), 1.5)


def test_freedman_hilbert_examples():
    # sigma = 0: only the almost-sure term survives
    assert conc.freedman_hilbert_bound(2.0, np.zeros(5), 0.01) == pytest.approx(
        6.0 * math.log(100.0), rel=1e-14)
    # R=1, sigma_t=1, k=100, delta=1/e: max(1, 1) = 1 -> 3 + 3*10 = 33
    assert conc.freedman_hilbert_bound(1.0, np.ones(100), math.exp(-1.0)) == pytest.approx(33.0, rel=1e-14)


def test_freedman_banach_examples():
    assert conc.freedman_banach_bound(1.5, np.zeros(4), 0.1, 2.0) == pytest.approx(
        5.0 * 2.0 * 1.5 * math.log(30.0), rel=1e-14)
    with pytest.raises(ValueError):
        conc.freedman_banach_bound(1.0, np.ones(4), 0.1, 0.5)


def test_freedman_banach_dominates_hilbert_at_c1():
    # numeric comparison sweep at C = 1, p = 2
    rng = np.random.default_rng(3)
    for _ in range(200):
        r = rng.uniform(0.1, 5.0)
        sig = rng.uniform(0.0, 3.0, size=rng.integers(1, 50))
        delta = rng.uniform(1e-4, 0.5)
        assert (conc.freedman_banach_bound(r, sig, delta, 1.0)
                >= conc.freedman_hilbert_bound(r, sig, delta))


def test_bound_monotonicity_grids():
    sig = np.ones(20)
    rs = np.linspace(0.1, 4.0, 7)
    deltas = np.geomspace(1e-4, 0.5, 7)
    for fn in (lambda r, d: conc.freedman_scalar_bound(r, sig, d),
               lambda r, d: conc.freedman_hilbert_bound(r, sig, d),
               lambda r, d: conc.freedman_banach_bound(r, sig, d, 2.0)):
        for d in deltas:
            vals = [fn(r, d) for r in rs]
            assert np.all(np.diff(vals) >= 0)  # nondecreasing in R
        for r in rs:
            vals = [fn(r, d) for d in deltas]
            assert np.all(np.diff(vals) <= 0)  # nonincreasing in delta
    # nondecreasing in the variance scale
    for fn2 in (conc.freedman_scalar_bound, conc.freedman_hilbert_bound):
        vals = [fn2(1.0, s * sig, 0.1) for s in np.linspace(0.1, 3.0, 7)]
        assert np.all(np.diff(vals) >= 0)


def test_truncated_sum_bound_example():
    # B = 1, b = 1, G = 1, tau = 1, T = 1: the bound collapses to
    # 4 log(3/d) + 1 + 2 sqrt(log(3/d)); hand arithmetic at delta = 0.3
    spec = conc.WeightedStreamSpec(weights=[1.0], moment_bounds=[1.0],
                                   threshold=1.0, p_moment=2.0, delta=0.3)
    log10 = math.log(10.0)
    assert conc.truncated_sum_bound(spec, "hilbert") == pytest.approx(
        4.0 * log10 + 1.0 + 2.0 * math.sqrt(log10), rel=1e-14)
    # a log-term of exactly 1 (the delta = 3/e of the formula's own algebra)
    # is unreachable for a probability delta < 1, where log(3/d) > log 3 > 1


def test_truncated_sum_bound_banach_arithmetic():
    spec = conc.WeightedStreamSpec(weights=[1.0, 0.5], moment_bounds=[2.0, 1.0],
                                   threshold=3.0, p_moment=1.5, delta=0.1,
                                   smooth_constant=2.0)
    log_term = math.log(30.0)
    bias = (1.0 * 2.0 ** 1.5 + 0.5 * 1.0) / 3.0 ** 0.5
    var = 1.0 ** 2 * 2.0 ** 1.5 * 3.0 ** 0.5 + 0.5 ** 2 * 1.0 * 3.0 ** 0.5
    expect = (10.0 * 2.0 * 1.0 * 3.0 * log_term + bias
              + 4.0 * (2.0 * var) ** 0.5 * math.sqrt(log_term))
    assert conc.truncated_sum_bound(spec, "banach") == pytest.approx(expect, rel=1e-14)


def test_truncated_sum_bound_shape_in_tau():
    # bias term vanishes and the leading term grows linearly as tau -> inf
    taus = np.geomspace(1.0, 1e6, 13)
    vals, biases = [], []
    for tau in taus:
        spec = conc.WeightedStreamSpec(weights=[1.0], moment_bounds=[1.0],
                                       threshold=tau, p_moment=2.0, delta=0.1)
        vals.append(conc.truncated_sum_bound(spec, "hilbert"))
        biases.append(1.0 / tau)  # sum b G^p / tau^(p-1) at these constants
    assert np.all(np.diff(biases) < 0)
    assert vals[-1] / vals[-2] == pytest.approx(taus[-1] / taus[-2], rel=0.01)
    # monotone nondecreasing in G and nonincreasing in delta
    for variant in ("hilbert", "banach"):
        gs = np.linspace(0.5, 4.0, 7)
        v = [conc.truncated_sum_bound(
            conc.WeightedStreamSpec(weights=[1.0, 0.5], moment_bounds=[g, g],
                                    threshold=2.0, p_moment=1.5, delta=0.1,
                                    smooth_constant=2.0), variant) for g in gs]
        assert np.all(np.diff(v) >= 0)
        ds = np.geomspace(1e-4, 0.5, 7)
        v = [conc.truncated_sum_bound(
            conc.WeightedStreamSpec(weights=[1.0, 0.5], moment_bounds=[1.0, 1.0],
                                    threshold=2.0, p_moment=1.5, delta=d,
                                    smooth_constant=2.0), variant) for d in ds]
        assert np.all(np.diff(v) <= 0)


def test_weighted_stream_spec_validation():
    with pytest.raises(ValueError):
        conc.WeightedStreamSpec(weights=[1.5], moment_bounds=[1.0],
                                threshold=1.0, p_moment=1.5, delta=0.1)
    with pytest.raises(ValueError):
        conc.WeightedStreamSpec(weights=[1.0], moment_bounds=[1.0],
                                threshold=-1.0, p_moment=1.5, delta=0.1)
    with pytest.raises(ValueError):
        conc.WeightedStreamSpec(weights=[1.0], moment_bounds=[1.0],
                                threshold=1.0, p_moment=2.5, delta=0.1)


def test_truncation_mc_bounded_sampler_has_no_bias():
    rng = np.random.default_rng(4)
    est = conc.truncation_bias_variance_mc(
        lambda r, n: r.uniform(-1.0, 1.0, size=n), 0.0, threshold=2.0,
        trials=100_000, rng=rng)
    assert est.bias <= 3.0 * est.bias_se  # no truncation happened


def test_truncation_mc_pareto_within_analytic_bounds():
    # symmetric Pareto, a = 1.8, p = 1.5, G^p = 6 (closed form is the oracle)
    rng = np.random.default_rng(5)

    def sampler(r, n):
        sign = r.integers(0, 2, size=n) * 2.0 - 1.0
        return sign * (1.0 - r.random(n)) ** (-1.0 / 1.8)

    tau = 10.0
    est = conc.truncation_bias_variance_mc(sampler, 0.0, tau, 200_000, rng)
    assert est.bias <= 6.0 / tau ** 0.5 + 3.0 * est.bias_se
    assert est.variance <= 6.0 * tau ** 0.5 + 3.0 * est.variance_se
    # bias decreases monotonically across a tau grid
    biases = []
    for tau in (2.0, 5.0, 10.0, 20.0, 50.0):
        one_sided = lambda r, n: (1.0 - r.random(n)) ** (-1.0 / 1.8)
        mu = 1.8 / 0.8
        est = conc.truncation_bias_variance_mc(one_sided, mu, tau, 400_000,
                                               np.random.default_rng(6))
        biases.append(est.bias)
    assert np.all(np.diff(biases) < 0)


def test_power_mean_check():
    assert conc.power_mean_check([3.7], 1.0, 2.0) == pytest.approx(0.0, abs=1e-15)
    assert conc.power_mean_check([1.0, 2.0], 1.3, 1.3) == pytest.approx(0.0, abs=1e-15)
    assert conc.power_mean_check([1.0, 1.0], 1.0, 2.0) == pytest.approx(2.0 - math.sqrt(2.0), rel=1e-14)
    rng = np.random.default_rng(7)
    for _ in range(300):
        xs = rng.lognormal(0, 1, size=rng.integers(1, 20))
        lo = rng.uniform(0.2, 2.0)
        hi = lo + rng.uniform(0.0, 2.0)
        assert conc.power_mean_check(xs, lo, hi) >= -1e-12
    # a batch reduces each row over the last axis
    rows = rng.lognormal(0, 1, size=(50, 5))
    batch = conc.power_mean_check(rows, 0.7, 1.9)
    assert batch.shape == (50,)
    np.testing.assert_allclose(
        batch, [conc.power_mean_check(r, 0.7, 1.9) for r in rows], rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        conc.power_mean_check([1.0, -1.0], 1.0, 2.0)


def test_binomial_interval():
    lo, hi = conc.binomial_interval(900, 1000)
    assert lo < 0.9 < hi
    assert conc.binomial_interval(0, 100)[0] == 0.0
    assert conc.binomial_interval(100, 100)[1] == 1.0


def test_binomial_interval_matches_beta_ppf():
    # the interval's quantiles are those of scipy.stats.beta, bit for bit
    from scipy.stats import beta

    rng = np.random.default_rng(5)
    for trials in (1, 2, 10, 37, 1000, 10_000, 200_000):
        counts = {0, 1, trials - 1, trials, *rng.integers(0, trials + 1, 6).tolist()}
        for successes in counts:
            for confidence in (0.95, 0.99):
                tail = (1.0 - confidence) / 2.0
                lo = 0.0 if successes == 0 else float(
                    beta.ppf(tail, successes, trials - successes + 1))
                hi = 1.0 if successes == trials else float(
                    beta.ppf(1.0 - tail, successes + 1, trials - successes))
                assert conc.binomial_interval(successes, trials, confidence) == (lo, hi)


def test_clipped_pareto_second_moment_matches_mc():
    rng = np.random.default_rng(9)
    for a, c in ((1.8, 5.0), (2.5, 3.0), (2.0, 4.0)):
        r = np.minimum((1.0 - rng.random(2_000_000)) ** (-1.0 / a), c)
        assert conc.clipped_pareto_second_moment(a, 1.0, c) == pytest.approx(
            float(np.mean(r ** 2)), rel=0.01)


def test_coverage_drivers_meet_levels_small():
    rng = np.random.default_rng(10)
    res = conc.freedman_scalar_coverage(2000, 100, 0.1, rng)
    assert res.meets(0.9)
    res = conc.freedman_vector_coverage("hilbert", 2000, 100, 0.1, rng)
    assert res.meets(1.0 - 3 * 0.1)
    res = conc.freedman_vector_coverage("banach", 2000, 100, 0.1, rng)
    assert res.meets(0.9)
    res = conc.truncated_sum_coverage("hilbert", 2000, 100, 0.1, rng)
    assert res.meets(0.9)
    res = conc.truncated_sum_coverage("banach", 2000, 100, 0.1, rng)
    assert res.meets(0.9)
