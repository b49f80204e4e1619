"""Executable concentration bounds and their Monte-Carlo coverage tests.

The dimension-free machinery rests on a scalar reduction: given dual
vectors X_1..X_T in a (2, C)-smooth norm, ``s_sequence_batch`` builds
scalars s_t = +-<d(S_{t-1}), X_t>, with d the duality map (the gradient
of the norm) at the prefix sum S_{t-1}, so that |s_t| <= ||X_t|| and

    ||sum X_t||  <=  |sum s_t| + (max_t ||X_t||^2 + C sum_t ||X_t||^2)^(1/2)

(``s_sequence_majorant_batch`` evaluates the right-hand side).  Concentrating
the scalar martingale s_t with the classic one-dimensional inequality then
yields the Hilbert- and Banach-space Freedman bounds below, and combining
those with bias/variance bounds for norm-truncated vectors yields the
truncated-sum bounds.

Each closed-form bound has a Monte-Carlo coverage driver that replays it
on synthetic streams with exactly known constants (clipped Pareto radii,
so the almost-sure bound and per-step variances are closed form) and
reports the fraction of trials the bound covered, with a Clopper-Pearson
interval.  A sound implementation covers at least its stated probability
up to binomial noise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaincinv

from tailopt.problems import pareto_moment, pareto_radii
from tailopt.spaces import NormedSpace

__all__ = [
    "s_sequence_batch",
    "s_sequence_majorant_batch",
    "freedman_scalar_bound",
    "freedman_hilbert_bound",
    "freedman_banach_bound",
    "WeightedStreamSpec",
    "truncated_sum_bound",
    "TruncationEstimate",
    "truncation_bias_variance_mc",
    "power_mean_check",
    "CoverageResult",
    "binomial_interval",
    "clipped_pareto_second_moment",
    "freedman_scalar_coverage",
    "freedman_vector_coverage",
    "truncated_sum_coverage",
]


# ---------------------------------------------------------------------------
# scalar reduction


def s_sequence_batch(xs, space: NormedSpace) -> np.ndarray:
    """Scalar reduction sequences for a batch of streams, shape (B, T, dim).

    Recursion per stream, with S_t the running vector prefix sum, c_t the
    running scalar prefix sum and d the duality map:

        s_t = sgn(c_{t-1}) <d(S_{t-1}), X_t>

    d(S) = grad ||S|| is the unit primal vector with <S, d(S)> = ||S||, so
    this is <grad ||S||^2, X_t> / (2 ||S||), and |s_t| <= ||X_t||.  d(0) = 0
    makes s_t = 0 on an empty or zero prefix.  sgn(0) is taken as +1: the
    chain of inequalities behind the majorant needs |sgn| = 1, and a zero
    there would silently zero out every s_t (the scalar prefix always
    starts at 0).
    """
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 3 or xs.shape[-1] != space.dim:
        raise ValueError("expected streams of shape (batch, length, dim)")
    n_streams, length, dim = xs.shape
    out = np.zeros((n_streams, length))
    prefix = np.zeros((n_streams, dim))
    scalar_prefix = np.zeros(n_streams)
    for t in range(length):
        x = xs[:, t, :]
        sgn = np.where(scalar_prefix >= 0.0, 1.0, -1.0)
        s_t = sgn * np.sum(space.duality_map(prefix) * x, axis=-1)
        out[:, t] = s_t
        scalar_prefix += s_t
        prefix += x
    return out


def s_sequence_majorant_batch(xs, space: NormedSpace) -> np.ndarray:
    """Deterministic upper bounds on ||sum_t X_t||, one per stream."""
    xs = np.asarray(xs, dtype=float)
    s = s_sequence_batch(xs, space)
    norms = np.asarray(space.dual_norm(xs))
    tail = (np.max(norms ** 2.0, axis=-1)
            + space.smooth_constant * np.sum(norms ** 2.0, axis=-1)) ** (1.0 / 2.0)
    return np.abs(np.sum(s, axis=-1)) + tail


# ---------------------------------------------------------------------------
# Freedman-style bounds


def _check_delta(delta: float):
    if not (0.0 < delta < 1.0):
        raise ValueError(f"delta must lie in (0, 1), got {delta}")


def _prefix_totals(values) -> np.ndarray:
    """Running sums of ``values``; an empty sequence has the one total 0."""
    values = np.asarray(values, dtype=float)
    return np.cumsum(values) if values.size else np.zeros(1)


def _scalar_prefix_bounds(bound_as, variances, delta) -> np.ndarray:
    log_term = math.log(1.0 / delta)
    cum = _prefix_totals(variances)
    return 2.0 * bound_as * log_term / 3.0 + np.sqrt(2.0 * cum * log_term)


def _hilbert_prefix_bounds(bound_as, sigmas, delta) -> np.ndarray:
    log_term = max(1.0, math.log(1.0 / delta))
    cum = _prefix_totals(np.asarray(sigmas, dtype=float) ** 2)
    return 3.0 * bound_as * log_term + 3.0 * np.sqrt(cum * log_term)


def _banach_prefix_bounds(bound_as, sigmas, delta, smooth_constant) -> np.ndarray:
    log_term = max(1.0, math.log(3.0 / delta))
    cum = _prefix_totals(np.asarray(sigmas, dtype=float) ** 2.0)
    return (5.0 * smooth_constant * bound_as * log_term
            + 4.0 * (smooth_constant * cum) ** (1.0 / 2.0) * math.sqrt(log_term))


def freedman_scalar_bound(bound_as: float, variances, delta: float) -> float:
    """One-dimensional martingale bound, valid uniformly over prefixes.

    With increments D_t <= bound_as almost surely and conditional second
    moments at most variances[t], with probability 1 - delta every prefix
    sum stays below 2 R log(1/delta) / 3 + sqrt(2 sum sigma^2 log(1/delta)).
    """
    _check_delta(delta)
    return float(_scalar_prefix_bounds(bound_as, variances, delta)[-1])


def freedman_hilbert_bound(bound_as: float, sigmas, delta: float) -> float:
    """Hilbert-space Freedman bound; holds with probability 1 - 3*delta.

    3 R max(1, log(1/delta)) + 3 sqrt(sum sigma_t^2 max(1, log(1/delta))),
    uniformly over prefixes.  The caller owns the times-3 failure
    accounting of the per-invocation delta.
    """
    _check_delta(delta)
    return float(_hilbert_prefix_bounds(bound_as, sigmas, delta)[-1])


def freedman_banach_bound(bound_as: float, sigmas, delta: float,
                          smooth_constant: float) -> float:
    """(2, C)-smooth-space Freedman bound in its simplified C >= 1 form.

    5 C R max(1, log(3/delta))
        + 4 (C sum sigma_t^2)^(1/2) sqrt(max(1, log(3/delta))),
    uniformly over prefixes, with overall failure probability delta.
    """
    _check_delta(delta)
    if smooth_constant < 1.0:
        raise ValueError(f"smooth constant must be >= 1, got {smooth_constant}")
    return float(_banach_prefix_bounds(bound_as, sigmas, delta, smooth_constant)[-1])


# ---------------------------------------------------------------------------
# truncated-vector sums


@dataclass(frozen=True)
class WeightedStreamSpec:
    """Constants describing a weighted stream of truncated random vectors.

    weights b_t in (0, 1] (B = max b_t <= 1), per-step moment bounds
    E||X_t||^p_moment <= moment_bounds[t]^p_moment, truncation threshold,
    failure probability, and the smooth constant C of the (2, C)-smooth
    space for the Banach variant.
    """

    weights: np.ndarray
    moment_bounds: np.ndarray
    threshold: float
    p_moment: float
    delta: float
    smooth_constant: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "weights", np.asarray(self.weights, dtype=float))
        object.__setattr__(self, "moment_bounds",
                           np.asarray(self.moment_bounds, dtype=float))
        if self.weights.shape != self.moment_bounds.shape:
            raise ValueError("weights and moment bounds must align")
        if np.any(self.weights <= 0.0) or np.max(self.weights) > 1.0:
            raise ValueError("weights must lie in (0, 1]")
        if np.any(self.moment_bounds <= 0.0):
            raise ValueError("moment bounds must be positive")
        if self.threshold <= 0.0:
            raise ValueError("truncation threshold must be positive")
        if not (1.0 < self.p_moment <= 2.0):
            raise ValueError("moment index must lie in (1, 2]")
        _check_delta(self.delta)


def truncated_sum_bound(spec: WeightedStreamSpec, variant: str = "hilbert") -> float:
    """High-probability bound on ||sum b_t (clip(X_t) - mean_t)||.

    Both variants keep the constants of their own statements (which are
    tighter than the chains inside the proofs: 4/2 versus 6/3 in the
    Hilbert case):

    - "hilbert":  4 B tau log(3/d) + sum b_t G_t^p / tau^(p-1)
                  + 2 sqrt(sum b_t^2 G_t^p tau^(2-p) max(1, log(3/d)))
    - "banach":   10 C B tau max(1, log(3/d)) + sum b_t G_t^p / tau^(p-1)
                  + 4 (C sum b_t^2 G_t^p tau^(2-p))^(1/2) sqrt(max(1, log(3/d)))
      in a (2, C)-smooth space.
    """
    b, g = spec.weights, spec.moment_bounds
    tau, p, delta = spec.threshold, spec.p_moment, spec.delta
    b_max = float(np.max(b))
    bias = float(np.sum(b * g ** p)) / tau ** (p - 1.0)
    if variant == "hilbert":
        log_term = math.log(3.0 / delta)
        var = float(np.sum(b ** 2 * g ** p * tau ** (2.0 - p)))
        return (4.0 * b_max * tau * log_term + bias
                + 2.0 * math.sqrt(var * max(1.0, log_term)))
    if variant == "banach":
        c = spec.smooth_constant
        log_term = max(1.0, math.log(3.0 / delta))
        var = float(np.sum(b ** 2.0 * g ** p * tau ** (2.0 - p)))
        return (10.0 * c * b_max * tau * log_term + bias
                + 4.0 * (c * var) ** (1.0 / 2.0) * math.sqrt(log_term))
    raise ValueError(f"variant must be 'hilbert' or 'banach', got {variant!r}")


@dataclass(frozen=True)
class TruncationEstimate:
    bias: float
    bias_se: float
    variance: float
    variance_se: float
    trials: int


def truncation_bias_variance_mc(sample_fn, mean, threshold: float,
                                trials: int, rng: np.random.Generator) -> TruncationEstimate:
    """Monte-Carlo bias and variance of norm-truncation at ``threshold``.

    ``sample_fn(rng, n)`` must return n samples, shape (n,) or (n, dim);
    ``mean`` is the true mean of the *untruncated* variable.  The analytic
    targets are ||E clip(X) - mean|| <= G^p / threshold^(p-1) and
    E||clip(X) - E clip(X)||^2 <= G^p threshold^(2-p).
    """
    if trials < 100_000:
        raise ValueError("truncation estimates need at least 1e5 trials")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    x = np.asarray(sample_fn(rng, trials), dtype=float)
    if x.ndim == 1:
        x = x[:, np.newaxis]
    mean = np.atleast_1d(np.asarray(mean, dtype=float))
    space = NormedSpace.euclidean(x.shape[-1])
    clipped = space.clip_dual(x, threshold)
    emp_mean = clipped.mean(axis=0)
    bias = space.dual_norm(emp_mean - mean)
    sq_dev = np.sum((clipped - emp_mean) ** 2, axis=-1)
    variance = float(sq_dev.mean())
    bias_se = math.sqrt(variance / trials)
    variance_se = float(sq_dev.std()) / math.sqrt(trials)
    return TruncationEstimate(bias=bias, bias_se=bias_se, variance=variance,
                              variance_se=variance_se, trials=trials)


def power_mean_check(values, p_low: float, p_high: float) -> np.ndarray | float:
    """Slack of (sum x^p_high)^(1/p_high) <= (sum x^p_low)^(1/p_low), summed
    over the last axis: a scalar for one vector, an array for a batch."""
    values = np.asarray(values, dtype=float)
    if np.any(values <= 0.0):
        raise ValueError("power-mean comparison needs positive entries")
    if not (0.0 < p_low <= p_high):
        raise ValueError("need 0 < p_low <= p_high")
    lo = np.sum(values ** p_low, axis=-1) ** (1.0 / p_low)
    hi = np.sum(values ** p_high, axis=-1) ** (1.0 / p_high)
    out = lo - hi
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# coverage testing


def binomial_interval(successes: int, trials: int,
                      confidence: float = 0.95) -> tuple[float, float]:
    """Clopper-Pearson interval for a binomial proportion."""
    if trials <= 0 or not (0 <= successes <= trials):
        raise ValueError("invalid binomial counts")
    tail = (1.0 - confidence) / 2.0
    # Beta(a, b) quantile q as the inverse regularized incomplete beta
    lo = 0.0 if successes == 0 else float(betaincinv(successes, trials - successes + 1, tail))
    hi = 1.0 if successes == trials else float(betaincinv(successes + 1, trials - successes, 1.0 - tail))
    return lo, hi


@dataclass(frozen=True)
class CoverageResult:
    trials: int
    successes: int
    coverage: float
    ci_low: float
    ci_high: float

    def meets(self, level: float) -> bool:
        """Coverage is not significantly below the stated level."""
        return self.ci_high >= level

    @classmethod
    def from_counts(cls, successes: int, trials: int) -> "CoverageResult":
        lo, hi = binomial_interval(successes, trials)
        return cls(trials=trials, successes=successes,
                   coverage=successes / trials, ci_low=lo, ci_high=hi)


def clipped_pareto_second_moment(tail_index: float, scale: float, clip: float) -> float:
    """E[min(R, clip)^2] for R ~ Pareto(tail_index, scale), clip >= scale."""
    a, x_m = tail_index, scale
    if clip < x_m:
        return clip ** 2
    if a == 2.0:
        return 2.0 * x_m ** 2 * math.log(clip / x_m) + x_m ** 2
    body = a * x_m ** a * (clip ** (2.0 - a) - x_m ** (2.0 - a)) / (2.0 - a)
    tail = x_m ** a * clip ** (2.0 - a)
    return body + tail


def _clipped_pareto_vectors(rng, shape, tail_index, clip, space):
    """min(R, clip) times a Gaussian direction of unit dual norm, R ~ Pareto."""
    radii = np.minimum(pareto_radii(rng, shape, tail_index), clip)
    u = rng.standard_normal(shape + (space.dim,))
    norms = np.asarray(space.dual_norm(u))[..., np.newaxis]
    return radii[..., np.newaxis] * (u / np.where(norms > 0.0, norms, 1.0))


# streams drawn per batch by the vector coverage drivers
_COVERAGE_BATCH = 2000


def _batched_coverage(trials: int, covered) -> CoverageResult:
    """``covered(n)`` draws n streams and flags those the bound covered."""
    successes = sum(int(np.sum(covered(min(_COVERAGE_BATCH, trials - start))))
                    for start in range(0, trials, _COVERAGE_BATCH))
    return CoverageResult.from_counts(successes, trials)


def freedman_scalar_coverage(trials: int, length: int, delta: float,
                             rng: np.random.Generator) -> CoverageResult:
    """Coin-flip streams (R = 1, sigma_t = 1), uniform over prefixes."""
    flips = rng.integers(0, 2, size=(trials, length)) * 2.0 - 1.0
    prefix = np.cumsum(flips, axis=1)
    bounds = _scalar_prefix_bounds(1.0, np.ones(length), delta)
    ok = np.all(prefix <= bounds[np.newaxis, :], axis=1)
    return CoverageResult.from_counts(int(np.sum(ok)), trials)


def freedman_vector_coverage(variant: str, trials: int, length: int, delta: float,
                             rng: np.random.Generator) -> CoverageResult:
    """Clipped-Pareto vector streams with exactly known (R, sigma_t).

    Increments in R^4 with Pareto(1.8) radii clipped at R = 5.  Variant
    "hilbert" checks the Hilbert bound (stated coverage 1 - 3*delta) in the
    Euclidean space; "banach" checks the smooth-space bound (stated
    coverage 1 - delta) in the dual of l_1.5, where C = 2.
    """
    dim, tail_index, clip = 4, 1.8, 5.0
    if variant == "hilbert":
        space = NormedSpace.euclidean(dim)
    elif variant == "banach":
        space = NormedSpace(dim=dim, primal_exponent=1.5)
    else:
        raise ValueError(f"unknown variant {variant!r}")
    sigma = math.sqrt(clipped_pareto_second_moment(tail_index, 1.0, clip))
    sigmas = np.full(length, sigma)
    if variant == "hilbert":
        bounds = _hilbert_prefix_bounds(clip, sigmas, delta)
    else:
        bounds = _banach_prefix_bounds(clip, sigmas, delta, space.smooth_constant)

    def covered(n):
        xs = _clipped_pareto_vectors(rng, (n, length), tail_index, clip, space)
        norms = np.asarray(space.dual_norm(np.cumsum(xs, axis=1)))
        return np.all(norms <= bounds[np.newaxis, :], axis=1)

    return _batched_coverage(trials, covered)


def truncated_sum_coverage(variant: str, trials: int, length: int, delta: float,
                           rng: np.random.Generator) -> CoverageResult:
    """Raw-Pareto streams truncated at the bound's own threshold.

    Pareto(1.8) radii with moment index p = 1.5.  The Hilbert variant uses
    one-sided scalar Pareto variables, so the truncation bias the bound must
    absorb is real and nonzero; the Banach variant uses symmetric vector
    streams in R^3 under the dual of l_1.5.  The threshold is
    G * length^(1/p), the scale at which the bias and concentration terms
    balance.
    """
    dim, tail_index, p_moment = 3, 1.8, 1.5
    g_p = pareto_moment(tail_index, 1.0, p_moment)  # E ||X||^p
    g = g_p ** (1.0 / p_moment)
    tau = g * length ** (1.0 / p_moment)
    space = NormedSpace(dim=dim, primal_exponent=1.5)
    spec = WeightedStreamSpec(weights=np.ones(length),
                              moment_bounds=np.full(length, g),
                              threshold=tau, p_moment=p_moment, delta=delta,
                              smooth_constant=space.smooth_constant)
    bound = truncated_sum_bound(spec, variant)
    mu = tail_index / (tail_index - 1.0)  # Pareto mean, scale 1

    def covered(n):
        if variant == "hilbert":
            clipped = np.minimum(pareto_radii(rng, (n, length), tail_index), tau)
            return np.abs(np.sum(clipped - mu, axis=1)) <= bound
        xs = _clipped_pareto_vectors(rng, (n, length), tail_index, tau, space)
        return np.asarray(space.dual_norm(np.sum(xs, axis=1))) <= bound

    return _batched_coverage(trials, covered)
